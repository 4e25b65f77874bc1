"""The calibrate stage streams its scene: output bytes, errors, manifest digests."""

import hashlib
import json
import os
import threading

import numpy as np
import pytest

from hyperfield import cube as hc
from hyperfield import pipeline
from hyperfield.cli import main

ROWS, COLS, BANDS = 20, 30, 12
REGION = (1, 2, 16, 25)  # top, left, height, width
# Band b sits at 400 + 10 b nm. The kept range drops bands 0-1, the
# window drops bands 9-10, so with 3-plane blocks the blocks [0, 3) and
# [9, 12) each keep exactly one plane, at a block boundary.
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


def _scene(tmp_path, monkeypatch, dtype, interleave, planes=3):
    """A scene, its panel file and a config; returns (config path, out dir).

    Calibrate then streams the scene ``planes`` band planes at a time.
    """
    monkeypatch.setattr(hc, "BLOCK_BYTES", planes * ROWS * COLS * np.dtype(dtype).itemsize)
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
    keep = mask.keep.reshape(-1, 3)
    assert list(keep.sum(axis=1)) == [1, 3, 3, 1]  # one kept plane at two block edges
    _, panel = hc.read_panel_reflectance_csv(tmp_path / "panel.csv")
    hc.write_cube(hc.to_reflectance(scene, REGION, panel, mask), tmp_path / "whole")
    for suffix in (".raw", ".hdr"):
        assert (out / "calibrate" / f"reflectance{suffix}").read_bytes() == \
            (tmp_path / f"whole{suffix}").read_bytes()


@pytest.mark.parametrize("planes", [1, 2, 5, BANDS])
def test_block_size_does_not_change_the_output(tmp_path, monkeypatch, planes):
    ini, out = _scene(tmp_path, monkeypatch, np.float32, "bsq", planes=BANDS)
    assert _calibrate(ini, out) == 0
    whole = (out / "calibrate" / "reflectance.raw").read_bytes()
    monkeypatch.setattr(hc, "BLOCK_BYTES", planes * ROWS * COLS * 4)
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
    """The inputs are hashed beside the body; the reflectance payload as it is written."""
    ini, out = _scene(tmp_path, monkeypatch, np.float64, interleave)
    hashed = []

    def counting(path):
        hashed.append(os.path.basename(path))
        return _sha256_of(path)

    monkeypatch.setattr(pipeline, "_sha256", counting)
    assert _calibrate(ini, out, "--stage-force") == 0
    assert sorted(hashed) == ["panel.csv", "reflectance.hdr", "scene.hdr", "scene.raw"]
    manifest = json.loads((out / "manifests" / "calibrate.json").read_text())
    for key, digest in manifest["inputs"].items():
        assert digest == _sha256_of(key), key
    for rel, digest in manifest["outputs"].items():
        assert digest == _sha256_of(out / rel), rel
    stamp = (out / "manifests" / "calibrate.json").stat().st_mtime_ns
    assert _calibrate(ini, out) == 0  # the manifest holds: a plain rerun skips
    assert (out / "manifests" / "calibrate.json").stat().st_mtime_ns == stamp


def test_recorded_digest_is_used_until_the_file_changes(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"a" * 64)
    digests = pipeline.FileDigests()
    digests.record(str(path), "recorded")
    assert digests.of([str(path)]) == {str(path): "recorded"}
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    assert digests.of([str(path)]) == {str(path): hashlib.sha256(b"a" * 64).hexdigest()}


def test_input_digest_is_not_recorded_when_the_file_changed_during_the_read(
    tmp_path, monkeypatch
):
    """The scene is rewritten, at the same size, while a forced calibrate runs.

    The manifest holds the digest of the bytes on disk when it is written,
    not the one hashed beside the body before the rewrite.
    """
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
