"""The calibrate stage streams its scene: output bytes, errors, manifest digests.

Also: a stage killed in its strips or its publish leaves a tree that
``synth`` and ``run-all`` mend.
"""

import filecmp
import hashlib
import json
import os
import shutil
import threading

import numpy as np
import pytest

from hyperfield import cube as hc
from hyperfield import pipeline
from hyperfield.cli import main

from processes import run_child
from test_cli import TINY_INI
from test_cube import _trickle

ROWS, COLS, BANDS = 20, 30, 12
REGION = (1, 2, 16, 25)  # top, left, height, width
# Band b sits at 400 + 10 b nm. The kept range drops bands 0-1 and the
# window drops bands 9-10.
KEEP_NM, DROP_NM = (420.0, 510.0), ((495.0, 12.0),)
CONFIG = f"""\
[input]
cube = {{scene}}
panel_reflectance = {{panel}}

[calibrate]
panel_top = {REGION[0]}
panel_left = {REGION[1]}
panel_height = {REGION[2]}
panel_width = {REGION[3]}
keep_nm = {KEEP_NM[0]}:{KEEP_NM[1]}
drop_nm = {DROP_NM[0][0]}:{DROP_NM[0][1]}
"""


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _strip_bytes(rows) -> int:
    """``BLOCK_BYTES`` that hold ``rows`` rows of the scene as float64."""
    return rows * COLS * BANDS * 8


def _scene(tmp_path, monkeypatch, dtype, interleave, rows=3):
    """A scene, its panel file and a config; returns (config path, out dir).

    Calibrate then streams the scene in strips of ``rows`` rows, whose
    edges at rows 3, 6, ... cut through the panel's rows by default.
    """
    monkeypatch.setattr(hc, "BLOCK_BYTES", _strip_bytes(rows))
    rng = np.random.default_rng(21)
    if dtype == np.uint16:
        data = rng.integers(1, 4096, size=(ROWS, COLS, BANDS), dtype=np.uint16)
    else:
        data = rng.uniform(0.05, 2.0, size=(ROWS, COLS, BANDS)).astype(dtype)
    wl = 400.0 + 10.0 * np.arange(BANDS)
    hc.write_cube(hc.HyperCube(data, wl, "radiance"), tmp_path / "scene", interleave)
    hc.write_panel_reflectance_csv(tmp_path / "panel.csv", wl, rng.uniform(0.3, 0.6, BANDS))
    ini = tmp_path / "calibrate.ini"
    ini.write_text(CONFIG.format(scene=tmp_path / "scene", panel=tmp_path / "panel.csv"))
    return ini, tmp_path / "out"


def _calibrate(ini, out, *extra) -> int:
    return main(["calibrate", "--out", str(out), "--config", str(ini), *extra])


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint16])
def test_streamed_output_is_the_whole_cube_calibration(
    tmp_path, monkeypatch, interleave, dtype
):
    ini, out = _scene(tmp_path, monkeypatch, dtype, interleave)
    assert _calibrate(ini, out) == 0
    scene = hc.read_cube(tmp_path / "scene")
    mask = hc.band_mask_from_windows(scene.wavelengths, KEEP_NM, DROP_NM)
    assert np.flatnonzero(mask).tolist() == [2, 3, 4, 5, 6, 7, 8, 11]
    _, panel = hc.read_panel_reflectance_csv(tmp_path / "panel.csv")
    hc.write_cube(hc.to_reflectance(scene, REGION, panel, mask), tmp_path / "whole")
    for suffix in (".raw", ".hdr"):
        assert (out / "calibrate" / f"reflectance{suffix}").read_bytes() == \
            (tmp_path / f"whole{suffix}").read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 5, 12])
def test_block_size_does_not_change_the_output(tmp_path, monkeypatch, rows):
    """One-row strips, and strips whose edges cut through the panel's rows 1-16."""
    ini, out = _scene(tmp_path, monkeypatch, np.float32, "bsq", rows=ROWS)
    assert _calibrate(ini, out) == 0
    whole = (out / "calibrate" / "reflectance.raw").read_bytes()
    monkeypatch.setattr(hc, "BLOCK_BYTES", _strip_bytes(rows))
    assert _calibrate(ini, out, "--stage-force") == 0
    assert (out / "calibrate" / "reflectance.raw").read_bytes() == whole


def _poke(raw, interleave, dtype, band, value, pixel=(ROWS - 1, COLS - 1)):
    """Set the sample of ``band`` at ``pixel``, the last one by default, in a raw payload."""
    payload = np.fromfile(raw, dtype=dtype)
    r, c = pixel
    index = {
        "bsq": (band * ROWS + r) * COLS + c,
        "bil": (r * BANDS + band) * COLS + c,
        "bip": (r * COLS + c) * BANDS + band,
    }[interleave]
    payload[index] = value
    payload.tofile(raw)


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("band", [BANDS - 1, BANDS - 2], ids=["kept-last", "dropped"])
def test_non_finite_scene_sample_exits_4_and_keeps_the_old_output(
    tmp_path, monkeypatch, capsys, interleave, bad, band
):
    ini, out = _scene(tmp_path, monkeypatch, np.float32, interleave)
    assert _calibrate(ini, out) == 0
    manifest = out / "manifests" / "calibrate.json"
    before = {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()}
    recorded = manifest.read_bytes()
    _poke(tmp_path / "scene.raw", interleave, np.float32, band, bad)
    threads = threading.active_count()
    assert _calibrate(ini, out, "--stage-force") == 4
    assert threading.active_count() == threads  # the hashing beside the body has ended
    err = capsys.readouterr().err
    assert f"{tmp_path / 'scene.raw'}: cube data contains non-finite samples" in err
    assert {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()} == before
    assert manifest.read_bytes() == recorded


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
@pytest.mark.parametrize("band", [BANDS - 1, BANDS - 2], ids=["kept-last", "dropped"])
def test_nan_in_the_panel_exits_4_naming_the_scene(
    tmp_path, monkeypatch, capsys, interleave, band
):
    """The panel's rows are read and checked like any other rows of the scene."""
    ini, out = _scene(tmp_path, monkeypatch, np.float32, interleave)
    assert _calibrate(ini, out) == 0
    before = {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()}
    _poke(tmp_path / "scene.raw", interleave, np.float32, band, np.nan, pixel=(2, 3))
    assert _calibrate(ini, out, "--stage-force") == 4
    assert f"{tmp_path / 'scene.raw'}: cube data contains non-finite samples" in \
        capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()} == before


def test_reflectance_overflow_exits_4_and_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    """Finite scene samples times a finite gain can overflow to inf."""
    ini, out = _scene(tmp_path, monkeypatch, np.float64, "bsq")
    assert _calibrate(ini, out) == 0
    before = {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()}
    data = np.full((ROWS, COLS, BANDS), 1e300)
    top, left, height, width = REGION
    data[top : top + height, left : left + width] = 1e-10
    wl = 400.0 + 10.0 * np.arange(BANDS)
    hc.write_cube(hc.HyperCube(data, wl, "radiance"), tmp_path / "scene")
    assert _calibrate(ini, out, "--stage-force") == 4
    assert "non-finite samples" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()} == before


def test_float32_reflectance_past_its_range_exits_4_and_keeps_the_old_output(
    tmp_path, monkeypatch, capsys
):
    """A float32 scene gives float32 reflectance: a product finite in float64 can still overflow."""
    ini, out = _scene(tmp_path, monkeypatch, np.float32, "bsq")
    assert _calibrate(ini, out) == 0
    before = {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()}
    data = np.full((ROWS, COLS, BANDS), 1e31, dtype=np.float32)
    top, left, height, width = REGION
    data[top : top + height, left : left + width] = 1e-10  # gains of 3e9 to 6e9
    wl = 400.0 + 10.0 * np.arange(BANDS)
    hc.write_cube(hc.HyperCube(data, wl, "radiance"), tmp_path / "scene")
    assert _calibrate(ini, out, "--stage-force") == 4
    assert "error: reflectance: cube data contains non-finite samples" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()} == before


@pytest.mark.parametrize("interleave", ["bsq", "bil"])
def test_forced_calibrate_hashes_each_input_once(tmp_path, monkeypatch, interleave):
    """The inputs are hashed beside the body, the outputs once from disk after the swap."""
    ini, out = _scene(tmp_path, monkeypatch, np.float64, interleave)
    hashed = []

    def counting(path):
        hashed.append(os.path.basename(path))
        return _sha256_of(path)

    monkeypatch.setattr(pipeline, "_sha256", counting)
    assert _calibrate(ini, out, "--stage-force") == 0
    assert sorted(hashed) == [
        "panel.csv", "reflectance.hdr", "reflectance.raw", "scene.hdr", "scene.raw"
    ]
    manifest = json.loads((out / "manifests" / "calibrate.json").read_text())
    for key, digest in manifest["inputs"].items():
        assert digest == _sha256_of(key), key
    for rel, digest in manifest["outputs"].items():
        assert digest == _sha256_of(out / rel), rel
    stamp = (out / "manifests" / "calibrate.json").stat().st_mtime_ns
    assert _calibrate(ini, out) == 0  # the manifest holds: a plain rerun skips
    assert (out / "manifests" / "calibrate.json").stat().st_mtime_ns == stamp


def test_input_digest_is_not_recorded_when_the_file_changed_during_the_read(
    tmp_path, monkeypatch
):
    """The scene is rewritten, at the same size, while a forced calibrate runs.

    The manifest holds the digest of the bytes on disk when it is written,
    not the one hashed beside the body before the rewrite. The hasher is
    shown two CPUs and pins nothing, so it starts the worker that hashes
    beside the body even where this process may use only one CPU.
    """
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    ini, out = _scene(tmp_path, monkeypatch, np.float32, "bsq")
    scene = tmp_path / "scene.raw"
    old = _sha256_of(scene)
    hashed_old = threading.Event()

    def hashing(path):
        digest = _sha256_of(path)
        if digest == old:
            hashed_old.set()
        return digest

    band_mask = hc.band_mask_from_windows

    def rewriting(*args, **kwargs):
        assert hashed_old.wait(10)
        st = scene.stat()
        (np.fromfile(scene, dtype=np.float32) * 2).tofile(scene)
        # a rewrite inside the timestamp granularity would keep its stat identity
        os.utime(scene, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        return band_mask(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_sha256", hashing)
    monkeypatch.setattr(hc, "band_mask_from_windows", rewriting)
    assert _calibrate(ini, out, "--stage-force") == 0
    new = _sha256_of(scene)
    assert new != old
    manifest = json.loads((out / "manifests" / "calibrate.json").read_text())
    assert manifest["inputs"][str(scene)] == new


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
def test_short_reads_and_writes_give_the_same_calibration(
    tmp_path, monkeypatch, capsys, interleave
):
    ini, out = _scene(tmp_path, monkeypatch, np.float64, interleave)
    assert _calibrate(ini, out) == 0
    names = ("reflectance.hdr", "reflectance.raw")
    whole = {name: (out / "calibrate" / name).read_bytes() for name in names}
    _trickle(monkeypatch)
    assert _calibrate(ini, out, "--stage-force") == 0
    assert {name: (out / "calibrate" / name).read_bytes() for name in names} == whole

    # a payload that shrinks after its size check still exits 4
    scene, gain = tmp_path / "scene.raw", hc.panel_gain

    def truncating(*args):
        os.truncate(scene, scene.stat().st_size // 2)
        return gain(*args)

    monkeypatch.setattr(hc, "panel_gain", truncating)
    assert _calibrate(ini, out, "--stage-force") == 4
    assert f"{scene}: payload shrank while it was read" in capsys.readouterr().err


# Forced calibrate that truncates its scene to half once it has scaled its first strip.
_TRUNCATING_CALIBRATE = """\
import os, sys
from hyperfield import cube as hc
from hyperfield.cli import main

ini, out, raw, block_bytes = sys.argv[1:]
hc.BLOCK_BYTES = int(block_bytes)
check, computed = hc._check_finite, []

def truncating(block, source):
    check(block, source)
    if source == "reflectance":  # the panel's reflectance, then each strip's
        computed.append(source)
        if len(computed) == 2:
            os.truncate(raw, os.path.getsize(raw) // 2)

hc._check_finite = truncating
sys.exit(main(["calibrate", "--out", out, "--config", ini, "--stage-force"]))
"""


def test_a_scene_truncated_during_calibrate_exits_4_and_keeps_the_old_output(
    tmp_path, monkeypatch
):
    """In a child process, since reading a mapped file past its new end raises SIGBUS."""
    ini, out = _scene(tmp_path, monkeypatch, np.float32, "bil")
    assert _calibrate(ini, out) == 0
    before = {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()}
    manifest = (out / "manifests" / "calibrate.json").read_bytes()
    raw = tmp_path / "scene.raw"
    result = run_child(_TRUNCATING_CALIBRATE, ini, out, raw, _strip_bytes(3))
    assert result.returncode == 4, result.stderr
    assert f"{raw}: payload shrank while it was read" in result.stderr
    assert raw.stat().st_size == ROWS * COLS * BANDS * 4 // 2
    assert {p.name: p.read_bytes() for p in (out / "calibrate").iterdir()} == before
    assert (out / "manifests" / "calibrate.json").read_bytes() == manifest


# Forced stage that ends its process with status 9 at a named point.
_KILLED_STAGE = """\
import os, sys
from hyperfield import cube as hc
from hyperfield.cli import main

point, stage, ini, out = sys.argv[1:]

def dying(function, count):
    calls = []
    def call(*args):
        calls.append(args)
        if len(calls) == count:
            os._exit(9)
        return function(*args)
    return call

if point == "strip-pass":
    check, computed = hc._check_finite, []
    def checking(block, source):
        check(block, source)
        if source == "reflectance":  # the panel's reflectance, then each strip's
            computed.append(source)
            if len(computed) == 3:  # the first strip is written, the second scaled
                os._exit(9)
    hc._check_finite = checking
elif point == "mid-strips":  # synth's scene: 240 band runs a strip, killed in the third
    hc._pwrite = dying(hc._pwrite, 2 * 240 + 1)
elif point == "before-manifest":
    os.replace = dying(os.replace, 1)
else:  # the swap renames <stage>/ aside, then the staging directory into place
    os.rename = dying(os.rename, 1 if point == "before-swap" else 2)
sys.exit(main([stage, "--out", out, "--config", ini, "--stage-force"]))
"""


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("kill")
    ini = root / "config.ini"
    ini.write_text(TINY_INI)
    out = root / "out"
    for command in ("synth", "run-all"):
        assert main([command, "--out", str(out), "--config", str(ini)]) == 0
    return ini, out


def _files(root) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, names in os.walk(root)
        for name in names
    )


# What each kill point leaves behind: a file that is there, and one that
# is not. ``file`` is one of the stage's outputs; strip-pass is calibrate's
# and mid-strips synth's.
_KILL_POINTS = {
    "strip-pass": (".calibrate.partial/reflectance.raw", ".calibrate.partial/reflectance.hdr"),
    "mid-strips": (".synth.partial/scene.raw", ".synth.partial/scene.hdr"),
    "before-swap": (".{stage}.partial/{file}", ".{stage}.old"),
    "between-renames": (".{stage}.old/{file}", "{stage}"),
    "before-manifest": ("manifests/{stage}.json.tmp", ".{stage}.old"),
}
_PUBLISH_POINTS = ["before-swap", "between-renames", "before-manifest"]


def _kill_and_mend(tree, tmp_path, stage, point, file, mend=("run-all",)):
    """Kill a forced ``stage`` at ``point``, then check the ``mend`` commands
    restore the clean tree.

    The tree is a hard-linked copy of a clean one: a stage never writes a
    file in place, so the copy shares no write with it.
    """
    ini, clean = tree
    out = tmp_path / "out"
    shutil.copytree(clean, out, copy_function=os.link)
    result = run_child(_KILLED_STAGE, point, stage, ini, out)
    assert result.returncode == 9, result.stderr
    there, gone = (path.format(stage=stage, file=file) for path in _KILL_POINTS[point])
    assert (out / there).is_file() and not (out / gone).exists()
    for command in mend:
        assert main([command, "--out", str(out), "--config", str(ini)]) == 0
    assert _files(out) == _files(clean)
    for rel in _files(clean):
        assert filecmp.cmp(out / rel, clean / rel, shallow=False), rel


@pytest.mark.parametrize("point", ["mid-strips", *_PUBLISH_POINTS])
def test_synth_and_run_all_after_a_killed_synth_give_the_clean_tree(tiny_tree, tmp_path, point):
    """A synth killed while it writes its scene's strips, or in its publish,
    leaves a tree that synth and then run-all mend."""
    _kill_and_mend(tiny_tree, tmp_path, "synth", point, "truth.json", ("synth", "run-all"))


@pytest.mark.parametrize("point", ["strip-pass", *_PUBLISH_POINTS])
def test_run_all_after_a_killed_calibrate_gives_the_clean_tree(tiny_tree, tmp_path, point):
    """A calibrate killed anywhere in its publish leaves a tree that run-all mends."""
    _kill_and_mend(tiny_tree, tmp_path, "calibrate", point, "reflectance.hdr")


@pytest.mark.parametrize("point", _PUBLISH_POINTS)
def test_run_all_after_a_killed_segment_gives_the_clean_tree(tiny_tree, tmp_path, point):
    """A segment killed anywhere in its publish leaves a tree that run-all mends."""
    _kill_and_mend(tiny_tree, tmp_path, "segment", point, "boxes.csv")


@pytest.mark.parametrize("point", _PUBLISH_POINTS)
def test_run_all_after_a_killed_unmix_gives_the_clean_tree(tiny_tree, tmp_path, point):
    """An unmix killed anywhere in its publish leaves a tree that run-all mends."""
    _kill_and_mend(tiny_tree, tmp_path, "unmix", point, "abundances.raw")


@pytest.mark.parametrize("stage", ["gridmap", "endmembers", "dataset", "train", "evaluate", "report"])
def test_run_all_after_a_stage_killed_before_its_manifest_gives_the_clean_tree(
    tiny_tree, tmp_path, stage
):
    """A stage killed after its swap, with only its manifest's temp file
    written, leaves a tree that run-all mends."""
    _kill_and_mend(tiny_tree, tmp_path, stage, "before-manifest", None)
