"""Byte damage to any stage input keeps the exit-code contract.

A hypothesis sweep over (input file, consuming stage, damage kind, byte
position): a forced stage run on the damaged file exits 0 (the damage
still parses and passes every check) or 2-5, never 1 (an unexpected
crash, which ``main`` lets propagate).
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfield.cli import main
from hyperfield.pipeline import STAGE_ORDER

from test_cli import TINY_INI

DAMAGES = ("flip", "truncate", "insert", "delete")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A tiny synth + run-all tree and its (consuming stage, input file) pairs."""
    root = tmp_path_factory.mktemp("damage")
    ini = root / "config.ini"
    ini.write_text(TINY_INI.replace("epochs = 30", "epochs = 5"))
    out = root / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    pairs = []
    for stage in STAGE_ORDER:
        manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
        pairs += [(stage, key) for key in sorted(manifest["inputs"])]
    return root, ini, out, pairs


def _damaged(blob: bytes, kind: str, at: int, value: int) -> bytes:
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ (1 << value % 8)]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":
        return blob[:at] + bytes([value]) + blob[at:]
    return blob[:at] + blob[at + 1 :]  # delete


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_input_never_crashes(tree, data):
    root, ini, base, pairs = tree
    stage, key = data.draw(st.sampled_from(pairs), label="stage, input")
    kind = data.draw(st.sampled_from(DAMAGES), label="damage")
    blob = (base / key).read_bytes()
    last = len(blob) if kind == "insert" else len(blob) - 1
    at = data.draw(st.integers(0, last), label="position")
    value = data.draw(st.integers(0, 255), label="bit or byte")

    work = tempfile.mkdtemp(dir=root)
    try:
        # the stage reads only its inputs, so they are all the tree it needs
        for other in (k for s, k in pairs if s == stage):
            os.makedirs(os.path.join(work, os.path.dirname(other)), exist_ok=True)
            shutil.copyfile(base / other, os.path.join(work, other))
        with open(os.path.join(work, key), "wb") as fh:
            fh.write(_damaged(blob, kind, at, value))
        code = main([stage, "--out", work, "--config", str(ini), "--stage-force"])
    finally:
        shutil.rmtree(work)
    assert code in (0, 2, 3, 4, 5), (stage, key, kind, at, code)
