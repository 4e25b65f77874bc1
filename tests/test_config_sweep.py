"""A malformed config value keeps the exit-code contract.

A hypothesis sweep over (config key, bad value): ``synth`` with a bad
``[synth]`` value, or ``run-all`` over a finished tiny tree with any
other bad value, exits 0 (the value is accepted) or 2-5, never 1 (an
unexpected crash, which ``main`` lets propagate). The ``[input]`` and
``[output]`` paths are left out: ``test_cli`` covers missing inputs.
"""

import configparser
import io
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield.cli import main
from hyperfield.config import DEFAULTS

from test_cli import TINY_INI

BASE_INI = TINY_INI.replace("epochs = 30", "epochs = 3")
KEYS = [
    (section, key)
    for section, keys in DEFAULTS.items()
    if section not in ("input", "output")
    for key in keys
]
# none of these can size a scene: a count must parse as an integer first
VALUES = ("x", "-1", "0", "nan", "1e400", "", "3.5")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A tiny synth + run-all tree, made with ``BASE_INI``."""
    root = tmp_path_factory.mktemp("sweep")
    ini = root / "config.ini"
    ini.write_text(BASE_INI)
    out = root / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    return root, out


def _with_value(section: str, key: str, value: str) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE_INI)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_bad_config_value_never_crashes(tree, data):
    root, base = tree
    section, key = data.draw(st.sampled_from(KEYS), label="key")
    value = data.draw(st.sampled_from(VALUES), label="value")

    work = tempfile.mkdtemp(dir=root)
    try:
        ini = f"{work}/config.ini"
        with open(ini, "w") as fh:
            fh.write(_with_value(section, key, value))
        if section == "synth":
            code = main(["synth", "--out", f"{work}/out", "--config", ini])
        else:
            shutil.copytree(base, f"{work}/out")
            code = main(["run-all", "--out", f"{work}/out", "--config", ini])
    finally:
        shutil.rmtree(work)
    assert code in (0, 2, 3, 4, 5), (section, key, value, code)
