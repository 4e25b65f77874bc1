"""segment, unmix and dataset stream the reflectance cube.

Their outputs equal the whole-cube layers run on ``read_cube`` of the
same cube, every sample they read is checked, no stage maps a cube, and
a run hashes the reflectance payload at most once.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from hyperfield import cube as hc
from hyperfield import pipeline, unmix
from hyperfield.cli import main
from hyperfield.config import load_config
from hyperfield.endmember import read_endmembers_csv
from hyperfield.gridmap import read_assignment_csv
from hyperfield.netpbm import read_pbm, write_pgm
from hyperfield.segment import ndpsi, otsu_threshold, window_indices
from hyperfield.subplot import Records, build_records, read_yields_csv, write_records_csv
from hyperfield.unmix import unmix_cube

from test_cli import TINY_INI

STAGES = ("segment", "unmix", "dataset")
# what the stages read besides the reflectance cube and each other's outputs
INPUTS = ("endmembers/endmembers.csv", "gridmap/assignment.csv", "synth/yields.csv")


def _sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(stage, ini, out) -> int:
    return main([stage, "--out", str(out), "--config", str(ini), "--stage-force"])


@pytest.fixture(scope="module", autouse=True)
def small_unmix_chunks():
    """1000 pixels divide neither the tiny scene's 428 columns nor its pixels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unmix, "CHUNK_PIXELS", 1000)
        yield


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny synth + run-all tree."""
    root = tmp_path_factory.mktemp("stream")
    ini = root / "config.ini"
    ini.write_text(TINY_INI)
    out = root / "out"
    assert main(["synth", "--out", str(out), "--config", str(ini)]) == 0
    assert main(["run-all", "--out", str(out), "--config", str(ini)]) == 0
    return ini, out


def _refuse_to_map(*args, **kwargs):
    raise AssertionError(f"a cube is mapped: {args} {kwargs}")


@pytest.fixture(scope="module")
def streamed(request, tiny, tmp_path_factory):
    """The tiny tree's stage inputs with the reflectance in one interleave.

    segment, unmix and dataset have run on it in one-row strips, with
    ``numpy.memmap`` refusing to map anything.
    """
    ini, base = tiny
    out = tmp_path_factory.mktemp(f"stream-{request.param}") / "out"
    for rel in INPUTS:
        os.makedirs(out / os.path.dirname(rel), exist_ok=True)
        shutil.copyfile(base / rel, out / rel)
    stem = out / pipeline.F_REFLECTANCE
    os.makedirs(stem.parent)
    cube = hc.read_cube(base / pipeline.F_REFLECTANCE)
    hc.write_cube(cube, stem, request.param)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hc, "BLOCK_BYTES", cube.cols * cube.bands * cube.data.itemsize)
        mp.setattr(np, "memmap", _refuse_to_map)
        for stage in STAGES:
            assert _run(stage, ini, out) == 0, stage
    yield ini, out
    shutil.rmtree(out)


@pytest.mark.parametrize("streamed", hc.INTERLEAVES, indirect=True)
def test_streamed_stages_match_the_whole_cube_layers(streamed, tmp_path):
    ini, out = streamed
    config = load_config(str(ini))
    cube = hc.read_cube(out / pipeline.F_REFLECTANCE)

    red = config.window_nm("segment", "red_window_nm")
    blue = config.window_nm("segment", "blue_window_nm")
    plane = ndpsi(cube, red_window=red, blue_window=blue)
    write_pgm(tmp_path / "score.pgm", plane)
    assert (out / pipeline.F_SEG_SCORE).read_bytes() == (tmp_path / "score.pgm").read_bytes()
    threshold = (out / pipeline.F_SEG_THRESHOLD).read_text()
    assert threshold == repr(otsu_threshold(plane)) + "\n"

    endmembers = read_endmembers_csv(out / pipeline.F_ENDMEMBERS)
    if endmembers.wavelengths.size != cube.bands or not np.allclose(
        endmembers.wavelengths, cube.wavelengths, atol=0.05, rtol=0.0
    ):
        endmembers = endmembers.subset_for_wavelengths(cube.wavelengths)
    abundances, residual = unmix_cube(cube, endmembers)
    hc.write_cube(abundances.to_cube(), tmp_path / "abundances")
    for suffix in (".hdr", ".raw"):
        assert (out / f"{pipeline.F_ABUNDANCES}{suffix}").read_bytes() == \
            (tmp_path / f"abundances{suffix}").read_bytes()
    assert (out / pipeline.F_RESIDUAL).read_text() == repr(residual) + "\n"

    mask = read_pbm(out / pipeline.F_SL_MASK)
    yields = read_yields_csv(out / "synth" / "yields.csv")
    window_px = config.getint("dataset", "window_px")
    parts = []
    for plot in sorted(read_assignment_csv(out / pipeline.F_ASSIGNMENT), key=lambda p: p.plot_id):
        box = plot.box
        rows = slice(box.top, box.top + box.height)
        cols = slice(box.left, box.left + box.width)
        parts.append(build_records(
            plot.plot_id, cube.data[rows, cols], mask[rows, cols], yields[plot.plot_id], window_px
        ))
    write_records_csv(tmp_path / "records.csv", Records.concat(parts))
    assert (out / pipeline.F_RECORDS).read_bytes() == (tmp_path / "records.csv").read_bytes()


def _sample(ini, out, position):
    """(row, col, band) of a reflectance sample in the named position."""
    header, _ = hc._read_header(out / pipeline.F_REFLECTANCE)
    boxes = [plot.box for plot in read_assignment_csv(out / pipeline.F_ASSIGNMENT)]
    red_nm = load_config(str(ini)).window_nm("segment", "red_window_nm")
    red = window_indices(header.wavelengths, red_nm)
    box = boxes[0]
    inside = (box.top + box.height // 2, box.left + box.width // 2)
    if position == "band-outside-windows":
        return (*inside, header.bands - 1)
    if position == "row-outside-plots":
        covered = {row for b in boxes for row in range(b.top, b.top + b.height)}
        row = max(set(range(header.rows)) - covered)
        return row, header.cols // 2, red[0]
    return (*inside, red[0])


@pytest.mark.parametrize("streamed", ["bsq", "bil"], indirect=True)
@pytest.mark.parametrize("position", ["band-outside-windows", "row-outside-plots", "inside-plot"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_reflectance_exits_4_naming_the_file(streamed, capsys, position, bad):
    ini, out = streamed
    header, raw = hc._read_header(out / pipeline.F_REFLECTANCE)
    row, col, band = _sample(ini, out, position)
    if header.interleave == "bsq":
        at = (band, row, col)
    else:
        at = (row, band, col)
    payload = np.memmap(raw, dtype=header.dtype, mode="r+", shape=header.file_shape())
    good = payload[at]
    try:
        payload[at] = bad
        payload.flush()
        for stage in STAGES:
            assert _run(stage, ini, out) == 4, stage
            err = capsys.readouterr().err
            assert f"{raw}: cube data contains non-finite samples" in err, (stage, err)
    finally:
        payload[at] = good
        payload.flush()
        del payload


def test_no_stage_maps_the_whole_reflectance_cube(tiny, monkeypatch):
    ini, out = tiny
    read_cube = hc.read_cube
    seen = []

    def guarded_read(path):
        seen.append(os.fspath(path))
        stem = os.fspath(path).replace(os.sep, "/").removesuffix(hc.RAW_SUFFIX)
        if stem.endswith(pipeline.F_REFLECTANCE):
            raise AssertionError(f"the whole reflectance cube is read: {path}")
        return read_cube(path)

    monkeypatch.setattr(hc, "read_cube", guarded_read)
    for stage in STAGES:
        assert _run(stage, ini, out) == 0, stage
    # the guard sits where the code looks read_cube up: report reads the abundances with it
    assert _run("report", ini, out) == 0
    assert seen == [str(out / pipeline.F_ABUNDANCES)]


@pytest.mark.parametrize("interleave", ["bil", "bip"])
def test_calibrate_maps_no_scene(tiny, monkeypatch, tmp_path, interleave):
    """A bil or bip scene is read in row strips, and calibrates to the same bytes."""
    _, base = tiny
    hc.write_cube(hc.read_cube(base / pipeline.F_SCENE), tmp_path / "scene", interleave)
    ini = tmp_path / "config.ini"
    ini.write_text(
        f"{TINY_INI}\n[input]\ncube = {tmp_path / 'scene'}\n"
        f"panel_reflectance = {base / pipeline.F_PANEL}\n"
    )
    out = tmp_path / "out"
    monkeypatch.setattr(np, "memmap", _refuse_to_map)
    assert _run("calibrate", ini, out) == 0
    for suffix in (".hdr", ".raw"):
        assert (out / f"{pipeline.F_REFLECTANCE}{suffix}").read_bytes() == \
            (base / f"{pipeline.F_REFLECTANCE}{suffix}").read_bytes()


def test_a_run_hashes_the_reflectance_payload_at_most_once(tiny, monkeypatch):
    ini, out = tiny
    raw = os.path.realpath(out / f"{pipeline.F_REFLECTANCE}.raw")
    scene = os.path.realpath(out / f"{pipeline.F_SCENE}.raw")
    hashed = []

    def counting(path):
        hashed.append(os.path.realpath(path))
        return _sha256_of(path)

    monkeypatch.setattr(pipeline, "_sha256", counting)
    assert main(["run-all", "--out", str(out), "--config", str(ini), "--stage-force"]) == 0
    # calibrate hashes the scene beside its body and the reflectance it wrote
    # after the swap; the stages that read it take that digest
    assert hashed.count(scene) == 1
    assert hashed.count(raw) == 1

    hashed.clear()
    assert _run("segment", ini, out) == 0
    assert hashed.count(raw) == 1  # beside the body, since no skip check hashed it
    manifest = json.loads((out / "manifests" / "segment.json").read_text())
    assert manifest["inputs"][f"{pipeline.F_REFLECTANCE}.raw"] == _sha256_of(raw)
