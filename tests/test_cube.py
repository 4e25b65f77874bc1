"""Cube container: file round trips, calibration, band masking."""

import ast
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfield import cube as hc
from hyperfield.errors import (
    CubeParseError,
    CubeSizeError,
    DataError,
    DegeneratePanelError,
    EmptyBandMaskError,
    ShapeMismatchError,
    UnsupportedFormatError,
)


def random_cube(rng, rows=10, cols=10, bands=19, dtype=np.float32, units="radiance"):
    data = rng.uniform(0.0, 2.0, size=(rows, cols, bands)).astype(dtype)
    if dtype == np.uint16:
        data = rng.integers(0, 4096, size=(rows, cols, bands), dtype=np.uint16)
        units = "raw"
    wl = 400.0 + 2.2 * np.arange(bands)
    return hc.HyperCube(data=data, wavelengths=wl, units=units)


@pytest.mark.parametrize("interleave", ["bip", "bil", "bsq"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16])
def test_round_trip_is_exact(tmp_path, interleave, dtype):
    rng = np.random.default_rng(42)
    cube = random_cube(rng, dtype=dtype)
    hdr = hc.write_cube(cube, tmp_path / "c", interleave=interleave)
    back = hc.read_cube(hdr)
    assert back.data.dtype == cube.data.dtype
    assert np.array_equal(back.data, cube.data)
    assert back.units == cube.units
    # wavelengths are quantised to 0.1 nm in the header
    assert np.max(np.abs(back.wavelengths - cube.wavelengths)) <= 0.05


def test_all_interleaves_store_the_same_cube(tmp_path):
    rng = np.random.default_rng(7)
    cube = random_cube(rng, rows=5, cols=8, bands=11)
    loaded = []
    for il in ("bip", "bil", "bsq"):
        hc.write_cube(cube, tmp_path / il, interleave=il)
        loaded.append(hc.read_cube(tmp_path / (il + ".hdr")))
    assert np.array_equal(loaded[0].data, loaded[1].data)
    assert np.array_equal(loaded[0].data, loaded[2].data)


def test_bsq_reads_as_a_band_major_view_and_writes_back_unchanged(tmp_path):
    rng = np.random.default_rng(3)
    cube = random_cube(rng, rows=6, cols=7, bands=9, dtype=np.float64)
    hc.write_cube(cube, tmp_path / "a", interleave="bsq")
    back = hc.read_cube(tmp_path / "a")
    assert back.data.base is not None
    assert back.data.transpose(2, 0, 1).flags.c_contiguous
    hc.write_cube(back, tmp_path / "b", interleave="bsq")
    assert (tmp_path / "b.raw").read_bytes() == (tmp_path / "a.raw").read_bytes()


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
def test_read_data_is_writable_and_writes_stay_private(tmp_path, interleave):
    rng = np.random.default_rng(8)
    cube = random_cube(rng, rows=4, cols=5, bands=6, dtype=np.float64)
    hc.write_cube(cube, tmp_path / "c", interleave=interleave)
    before = (tmp_path / "c.raw").read_bytes()
    back = hc.read_cube(tmp_path / "c")
    assert back.data.flags.writeable
    back.data[1:3, 2, :] = -1.0
    back.data *= 2.0
    assert (tmp_path / "c.raw").read_bytes() == before
    assert np.array_equal(hc.read_cube(tmp_path / "c").data, cube.data)


@pytest.mark.parametrize("rows", [2, 9])
def test_a_read_cube_outlives_a_rewrite_of_its_pair(tmp_path, rows):
    rng = np.random.default_rng(9)
    old = random_cube(rng, rows=6, cols=7, bands=8)
    new = random_cube(rng, rows=rows, cols=7, bands=8)
    hc.write_cube(old, tmp_path / "c")
    read = hc.read_cube(tmp_path / "c")
    hc.write_cube(new, tmp_path / "c")
    # the data read stays valid under both a shorter and a longer payload
    assert np.array_equal(read.data, old.data)
    hc.write_cube(new, tmp_path / "ref")
    for suffix in (".hdr", ".raw"):
        assert (tmp_path / ("c" + suffix)).read_bytes() == \
            (tmp_path / ("ref" + suffix)).read_bytes()
    assert np.array_equal(hc.read_cube(tmp_path / "c").data, new.data)


@pytest.mark.parametrize("failure", ["dtype", "interleave"])
def test_failed_write_keeps_the_old_pair_and_no_temporaries(tmp_path, failure):
    rng = np.random.default_rng(10)
    hc.write_cube(random_cube(rng), tmp_path / "c")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other = random_cube(rng, rows=3)
    interleave = "bsq"
    if failure == "dtype":
        other = hc.HyperCube(other.data.astype(np.int32), other.wavelengths, "raw")
    else:
        interleave = "bis"
    with pytest.raises(UnsupportedFormatError):
        hc.write_cube(other, tmp_path / "c", interleave)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_samples_in_every_interleave(tmp_path, interleave, bad):
    rng = np.random.default_rng(4)
    cube = random_cube(rng, rows=4, cols=5, bands=6)
    hc.write_cube(cube, tmp_path / "c", interleave=interleave)
    raw = tmp_path / "c.raw"
    flat = np.fromfile(raw, dtype="<f4")
    flat[37] = bad
    flat.tofile(raw)
    message = f"{raw}: cube data contains non-finite samples"
    with pytest.raises(ShapeMismatchError, match=re.escape(message)):
        hc.read_cube(tmp_path / "c")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_finite_check_finds_each_non_finite_sample_without_a_mask(dtype, where, bad):
    """The check allocates far less than a boolean mask of the block would."""
    block = np.random.default_rng(6).uniform(-1e3, 1e3, (8, 40, 30)).astype(dtype)
    hc._check_finite(block, "ok")
    flat = block.reshape(-1)
    flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = bad
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatchError, match="block: cube data contains non-finite"):
            hc._check_finite(block, "block")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.nbytes / 8


def test_pixels_are_fortran_ordered_in_every_interleave(tmp_path):
    rng = np.random.default_rng(5)
    cube = random_cube(rng, rows=4, cols=5, bands=6)
    for il in hc.INTERLEAVES:
        hc.write_cube(cube, tmp_path / il, interleave=il)
        read = hc.read_cube(tmp_path / il)
        pixels = read.pixels()
        assert pixels.flags.f_contiguous
        assert np.array_equal(pixels, cube.pixels())


def _stride_order(array: np.ndarray) -> list[int]:
    return np.argsort(array.strides, kind="stable").tolist()


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16])
@pytest.mark.parametrize("strip_rows", [0.5, 1, 4])
def test_stream_reads_equal_the_mapped_cube(tmp_path, monkeypatch, interleave, dtype, strip_rows):
    """Every ``CubeStream`` read equals the same part of ``read_cube``'s cube.

    ``read_strips`` reads strips of ``strip_rows`` rows of float64
    samples, at least one, whatever the file's sample type.
    """
    rows, cols, bands = 7, 5, 6
    cube = random_cube(np.random.default_rng(8), rows=rows, cols=cols, bands=bands, dtype=dtype)
    hc.write_cube(cube, tmp_path / "c", interleave)
    whole = hc.read_cube(tmp_path / "c")
    monkeypatch.setattr(hc, "BLOCK_BYTES", int(strip_rows * cols * bands * 8))
    with hc.CubeStream(tmp_path / "c") as stream:
        assert (stream.rows, stream.cols, stream.bands) == (rows, cols, bands)
        tops = []
        for top, strip in stream.read_strips():
            assert np.array_equal(strip.data, whole.data[top : top + strip.rows])
            assert _stride_order(strip.data) == _stride_order(whole.data)
            tops.append(top)
        assert tops == list(range(0, rows, max(1, int(strip_rows))))
        part = stream.read_rows(2, 3)
        assert np.array_equal(part.data, whole.data[2:5])
        assert _stride_order(part.data) == _stride_order(whole.data)
        for bad in [(-1, 2), (5, 3), (0, 0)]:
            with pytest.raises(ShapeMismatchError, match="rows"):
                stream.read_rows(*bad)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    interleave=st.sampled_from(hc.INTERLEAVES),
    dtype=st.sampled_from([np.float32, np.float64, np.uint16]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 5), st.integers(1, 8)),
    rows=st.tuples(st.integers(0, 6), st.integers(1, 7)),
    band_range=st.tuples(st.integers(0, 7), st.integers(1, 8)),
    cuts=st.none() | st.lists(st.integers(0, 7), max_size=4),
    strip_rows=st.integers(1, 3),
    given_buffer=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(interleave="bip", dtype=np.float32, shape=(5, 3, 6), rows=(1, 3), band_range=(2, 3),
         cuts=None, strip_rows=2, given_buffer=True, seed=0)
def test_a_band_range_reads_as_that_slice_of_the_whole_cube(
    interleave, dtype, shape, rows, band_range, cuts, strip_rows, given_buffer, seed
):
    """``read_rows`` and ``read_strips`` with ``bands`` equal the same slice of
    a full read, with its band metadata, in every interleave; the strips are
    those of a full read, also when read into a given buffer."""
    rows_, cols, bands = shape
    top, height = rows[0] % rows_, max(1, rows[1] % (rows_ + 1))
    height = min(height, rows_ - top)
    start = band_range[0] % bands
    stop = start + max(1, band_range[1] % (bands - start + 1))
    picked = range(start, stop)
    cube = random_cube(np.random.default_rng(seed), rows=rows_, cols=cols, bands=bands, dtype=dtype)
    cube = hc.HyperCube(cube.data, cube.wavelengths, cube.units,
                        tuple(f"b{i}" for i in range(bands)))
    with tempfile.TemporaryDirectory() as folder:
        stem = os.path.join(folder, "c")
        hc.write_cube(cube, stem, interleave)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hc, "BLOCK_BYTES", strip_rows * cols * bands * 8)
            with hc.CubeStream(stem) as stream:
                whole = stream.read_rows(0, rows_)
                part = stream.read_rows(top, height, bands=picked)
                assert np.array_equal(part.data, whole.data[top : top + height, :, start:stop])
                assert np.array_equal(part.wavelengths, whole.wavelengths[start:stop])
                assert part.band_labels == whole.band_labels[start:stop]
                full = [(t, s.rows) for t, s in stream.read_strips(cuts)]
                strips = []
                buffer = np.empty(rows_ * cols * len(picked), dtype) if given_buffer else None
                for t, strip in stream.read_strips(cuts, picked, buffer):
                    assert np.array_equal(strip.data, whole.data[t : t + strip.rows, :, start:stop])
                    strips.append((t, strip.rows))
                    assert not given_buffer or np.shares_memory(strip.data, buffer)
                assert strips == full
                for bad in [range(bands, bands + 1), range(start, start), range(0, bands, 2)]:
                    with pytest.raises(ShapeMismatchError, match="band range"):
                        stream.read_rows(top, height, bands=bad)


def test_strips_cover_every_row_once_and_end_only_at_cuts(tmp_path, monkeypatch):
    rows, cols, bands = 7, 5, 6
    cube = random_cube(np.random.default_rng(9), rows=rows, cols=cols, bands=bands)
    hc.write_cube(cube, tmp_path / "c")
    monkeypatch.setattr(hc, "BLOCK_BYTES", 2 * cols * bands * 8)  # two float64 rows
    strips = []
    with hc.CubeStream(tmp_path / "c") as stream:
        for top, strip in stream.read_strips([0, 3, 4, 6, 7, 9]):
            assert np.array_equal(strip.data, cube.data[top : top + strip.rows])
            strips.append((top, strip.rows))
        # by default a strip may end before any row
        default = [(top, strip.rows) for top, strip in stream.read_strips()]
    # rows 0-2 hold no cut, so the first strip needs three
    assert strips == [(0, 3), (3, 1), (4, 2), (6, 1)]
    assert default == [(0, 2), (2, 2), (4, 2), (6, 1)]


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
def test_strips_written_in_any_order_give_the_whole_cube(tmp_path, interleave):
    cube = random_cube(np.random.default_rng(12), rows=7, cols=5, bands=6, dtype=np.float64)
    hc.write_cube(cube, tmp_path / "whole", interleave)
    header = hc.CubeHeader.of(cube, interleave)
    strips = [(top, cube.crop(top, 0, height, cube.cols)) for top, height in [(4, 3), (0, 1), (1, 3)]]
    hc.write_strips(tmp_path / "strips", header, strips)
    for suffix in (".hdr", ".raw"):
        assert (tmp_path / f"strips{suffix}").read_bytes() == \
            (tmp_path / f"whole{suffix}").read_bytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    interleave=st.sampled_from(hc.INTERLEAVES),
    file_type=st.sampled_from(["float32", "float64"]),
    source_type=st.sampled_from([np.float64, np.float32]),
    # the memory order of each strip: that of an interleave's file order,
    # so "bip" is C order and "bsq" band-major, as ``read_strips`` gives bsq
    layout=st.sampled_from(hc.INTERLEAVES),
    # (height, rank) per strip from the top; strips go to the writer by rank
    parts=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5)), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
@example(interleave="bsq", file_type="float32", source_type=np.float64, layout="bip",
         parts=[(1, 0), (5, 1)], seed=0)
@example(interleave="bsq", file_type="float32", source_type=np.float32, layout="bsq",
         parts=[(3, 1), (2, 0), (6, 2)], seed=1)
def test_strips_are_written_as_the_whole_cube_cast_in_file_order(
    interleave, file_type, source_type, layout, parts, seed
):
    """Any strips, in any order, give the bytes of one transposing cast of the whole cube."""
    cols, bands = 4, 5
    wavelengths = 400.0 + np.arange(bands)
    rows = sum(height for height, _ in parts)
    whole = np.random.default_rng(seed).normal(0.0, 1e3, (rows, cols, bands)).astype(source_type)
    tops = np.cumsum([0] + [height for height, _ in parts])
    strips = []
    for (height, rank), top in zip(parts, tops.tolist()):
        stored = np.ascontiguousarray(whole[top : top + height].transpose(hc._FILE_AXES[layout]))
        data = hc._rows_cols_bands(stored, layout)
        strips.append((rank, top, hc.HyperCube(data, wavelengths, "radiance")))
    header = hc.CubeHeader(rows, cols, bands, file_type, interleave, "radiance", wavelengths)
    with tempfile.TemporaryDirectory() as folder:
        stem = os.path.join(folder, "c")
        hc.write_strips(stem, header, ((top, strip) for _, top, strip in
                                       sorted(strips, key=lambda part: part[0])))
        with open(stem + ".raw", "rb") as fh:
            written = fh.read()
    expected = np.ascontiguousarray(whole.transpose(hc._FILE_AXES[interleave]), header.dtype)
    assert written == expected.tobytes()


@pytest.mark.parametrize(
    "strips, message",
    [
        ([(0, 4), (3, 4)], r"rows \[3, 7\) overlap rows already written"),
        ([(0, 4), (5, 2)], "1 of the cube's 7 rows were not written"),
        ([(5, 3)], "does not fit"),
        ([(-1, 2)], "does not fit"),
    ],
    ids=["twice", "missing", "past-the-end", "negative-top"],
)
def test_strip_writer_needs_every_row_exactly_once(tmp_path, strips, message):
    cube = random_cube(np.random.default_rng(13), rows=8, cols=5, bands=6)
    header = hc.CubeHeader.of(cube)._replace(rows=7)
    with pytest.raises(ShapeMismatchError, match=message):
        hc.write_strips(tmp_path / "c", header, [(top, cube.crop(max(top, 0), 0, height, 5))
                                                 for top, height in strips])
    assert not (tmp_path / "c.hdr").exists()


def _trickle(monkeypatch, step=7):
    """Make each ``os.preadv`` and ``os.pwrite`` move at most ``step`` bytes."""
    preadv, pwrite = os.preadv, os.pwrite

    def short_preadv(fd, buffers, offset):
        (buffer,) = buffers
        return preadv(fd, [memoryview(buffer).cast("B")[:step]], offset)

    def short_pwrite(fd, data, offset):
        return pwrite(fd, memoryview(data).cast("B")[:step], offset)

    monkeypatch.setattr(os, "preadv", short_preadv)
    monkeypatch.setattr(os, "pwrite", short_pwrite)


@pytest.mark.parametrize("interleave", hc.INTERLEAVES)
def test_short_reads_and_writes_are_continued(tmp_path, monkeypatch, interleave):
    """Linux moves at most 0x7ffff000 bytes per call, so a large cube takes several."""
    cube = random_cube(np.random.default_rng(14), rows=6, cols=5, bands=7, dtype=np.float64)
    hc.write_cube(cube, tmp_path / "whole", interleave)
    _trickle(monkeypatch)
    hc.write_cube(cube, tmp_path / "c", interleave)
    assert (tmp_path / "c.raw").read_bytes() == (tmp_path / "whole.raw").read_bytes()
    assert np.array_equal(hc.read_cube(tmp_path / "c").data, cube.data)
    with hc.CubeStream(tmp_path / "c") as stream:
        assert np.array_equal(stream.read_rows(1, 4).data, cube.data[1:5])
        os.truncate(tmp_path / "c.raw", 100)  # after the size check
        with pytest.raises(CubeSizeError, match="payload shrank while it was read"):
            stream.read_rows(0, 6)


def test_band_labels_round_trip(tmp_path):
    data = np.zeros((2, 3, 4), dtype=np.float32)
    cube = hc.HyperCube(
        data=data,
        wavelengths=np.arange(4.0),
        units="abundance",
        band_labels=("spike", "leaf", "soil", "shadow"),
    )
    hc.write_cube(cube, tmp_path / "a")
    back = hc.read_cube(tmp_path / "a")
    assert back.band_labels == ("spike", "leaf", "soil", "shadow")


def test_malformed_header_reports_line(tmp_path):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng), tmp_path / "c")
    lines = open(hdr).read().splitlines()
    lines.insert(2, "this line has no equals sign")
    open(hdr, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CubeParseError) as err:
        hc.read_cube(hdr)
    assert err.value.line == 3


def test_missing_header_key_is_a_parse_error(tmp_path):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng), tmp_path / "c")
    lines = [l for l in open(hdr).read().splitlines() if not l.startswith("units")]
    open(hdr, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CubeParseError, match="units"):
        hc.read_cube(hdr)


def test_wavelength_count_mismatch_is_a_parse_error(tmp_path):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng, bands=5), tmp_path / "c")
    text = open(hdr).read().replace("bands = 5", "bands = 6")
    open(hdr, "w").write(text)
    with pytest.raises((CubeParseError, CubeSizeError)):
        hc.read_cube(hdr)


def test_non_utf8_header_is_a_parse_error_naming_the_header_and_line(tmp_path):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng), tmp_path / "c")
    lines = open(hdr, "rb").read().split(b"\n")
    lines[4] = lines[4] + b"\xff"
    open(hdr, "wb").write(b"\n".join(lines))
    with pytest.raises(CubeParseError, match=re.escape(f"{hdr}: line 5: not UTF-8 text")) as err:
        hc.read_cube(hdr)
    assert err.value.line == 5


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        ("units = radiance", "units = counts", UnsupportedFormatError,
         "unsupported units tag 'counts'"),
        ("wavelength = 400.0, 402.2,", "wavelength = 402.2, 400.0,", ShapeMismatchError,
         "wavelengths must be strictly increasing"),
        ("wavelength = 400.0, 402.2,", "wavelength = 402.2,", CubeParseError,
         "line 7: 18 wavelengths for 19 bands"),
        ("units = radiance", "units = radiance\nband labels = a, b", ShapeMismatchError,
         "2 band labels for 19 bands"),
    ],
    ids=["units", "order", "count", "labels"],
)
def test_header_metadata_faults_name_the_header(tmp_path, old, new, error, message):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng), tmp_path / "c")
    text = open(hdr).read()
    assert old in text
    open(hdr, "w").write(text.replace(old, new))
    for reader in (hc.read_cube, hc.CubeStream):
        with pytest.raises(error, match=re.escape(f"{hdr}: {message}")):
            reader(hdr)


@pytest.mark.parametrize("delta", [-7, +13])
def test_payload_size_mismatch_is_a_size_error(tmp_path, delta):
    rng = np.random.default_rng(0)
    hdr = hc.write_cube(random_cube(rng), tmp_path / "c")
    raw = str(tmp_path / "c.raw")
    blob = open(raw, "rb").read()
    blob = blob[:delta] if delta < 0 else blob + b"\0" * delta
    open(raw, "wb").write(blob)
    with pytest.raises(CubeSizeError, match="bytes"):
        hc.read_cube(hdr)


def test_unsupported_interleave_and_dtype(tmp_path):
    rng = np.random.default_rng(0)
    cube = random_cube(rng)
    with pytest.raises(UnsupportedFormatError):
        hc.write_cube(cube, tmp_path / "c", interleave="bix")
    hdr = hc.write_cube(cube, tmp_path / "c")
    text = open(hdr).read().replace("interleave = bsq", "interleave = weird")
    open(hdr, "w").write(text)
    with pytest.raises(UnsupportedFormatError):
        hc.read_cube(hdr)
    text = open(hdr).read().replace("interleave = weird", "interleave = bsq")
    text = text.replace("data type = float32", "data type = int8")
    open(hdr, "w").write(text)
    with pytest.raises(UnsupportedFormatError):
        hc.read_cube(hdr)


def test_cube_validation_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        hc.HyperCube(np.zeros((4, 4)), np.arange(4.0), "raw")
    with pytest.raises(ShapeMismatchError):
        hc.HyperCube(np.zeros((2, 2, 3)), np.arange(4.0), "raw")
    with pytest.raises(ShapeMismatchError):
        hc.HyperCube(np.zeros((2, 2, 3)), np.array([1.0, 3.0, 2.0]), "raw")
    with pytest.raises(UnsupportedFormatError):
        hc.HyperCube(np.zeros((2, 2, 3)), np.arange(3.0), "counts")
    with pytest.raises(ShapeMismatchError, match="2 band labels for 3 bands"):
        hc.HyperCube(np.zeros((2, 2, 3)), np.arange(3.0), "abundance", ("a", "b"))


def test_cube_holds_non_finite_samples_unchecked():
    """Readers and ``to_reflectance`` check samples; the container never scans them."""
    data = np.zeros((2, 2, 3))
    data[0, 0, 0] = np.nan
    assert np.isnan(hc.HyperCube(data, np.arange(3.0), "raw").data[0, 0, 0])


# ---------------------------------------------------------------------------
# reflectance conversion


def scene_with_panel(reflectance, illumination, panel_reflectance, region):
    """Radiance scene from planted reflectance: panel pixels included."""
    top, left, h, w = region
    refl = reflectance.copy()
    refl[top : top + h, left : left + w, :] = panel_reflectance
    return refl * illumination, refl


def test_panel_pixels_recover_panel_reflectance():
    rng = np.random.default_rng(5)
    bands = 12
    wl = 500.0 + 3.0 * np.arange(bands)
    illum = 0.7 + 0.5 * rng.uniform(size=bands)
    panel_refl = np.full(bands, 0.4)
    region = (1, 1, 3, 3)
    refl = rng.uniform(0.05, 0.9, size=(8, 8, bands))
    radiance, planted = scene_with_panel(refl, illum, panel_refl, region)
    cube = hc.HyperCube(radiance, wl, "radiance")
    out = hc.to_reflectance(cube, region, panel_refl)
    assert out.units == "reflectance"
    top, left, h, w = region
    assert np.allclose(out.data[top : top + h, left : left + w], 0.4, atol=1e-12)
    assert np.max(np.abs(out.data - planted)) < 1e-6


def test_reflectance_is_scale_invariant():
    rng = np.random.default_rng(6)
    bands = 9
    wl = np.arange(bands, dtype=float)
    data = rng.uniform(0.1, 1.0, size=(6, 6, bands))
    panel_refl = rng.uniform(0.3, 0.6, size=bands)
    region = (0, 0, 2, 2)
    a = hc.to_reflectance(hc.HyperCube(data, wl, "radiance"), region, panel_refl)
    b = hc.to_reflectance(hc.HyperCube(data * 37.5, wl, "radiance"), region, panel_refl)
    assert np.max(np.abs(a.data - b.data)) < 1e-12


def test_reflectance_overflow_is_reported_without_a_numpy_warning():
    data = np.full((2, 2, 2), 1e300)
    data[0] = 1e-10  # the panel row: a gain of 5e9 overflows the other row
    cube = hc.HyperCube(data, np.arange(2.0), "radiance")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatchError, match="^reflectance: .*non-finite"):
            hc.to_reflectance(cube, (0, 0, 1, 2), np.full(2, 0.5))


def test_float32_reflectance_past_its_range_is_an_overflow():
    data = np.full((2, 2, 2), 1e31, dtype=np.float32)
    data[0] = 1e-10  # the panel row: the product, 5e40, is finite only in float64
    cube = hc.HyperCube(data, np.arange(2.0), "radiance")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeMismatchError, match="^reflectance: .*non-finite"):
            hc.to_reflectance(cube, (0, 0, 1, 2), np.full(2, 0.5))


def test_reflectance_clamps_below_zero_and_keeps_above_one():
    wl = np.arange(3.0)
    data = np.ones((2, 2, 3))
    data[1, 1] = [-0.5, 5.0, 1.0]
    cube = hc.HyperCube(np.abs(data) * 0 + data, wl, "radiance")
    # panel occupies the top row; mean signal 1.0 per band
    out = hc.to_reflectance(cube, (0, 0, 1, 2), np.full(3, 0.5))
    assert out.data[1, 1, 0] == 0.0
    assert out.data[1, 1, 1] == pytest.approx(2.5)
    assert out.data.min() >= 0.0


def test_degenerate_panel_raises():
    wl = np.arange(4.0)
    data = np.ones((4, 4, 4))
    data[:2, :2, 2] = 0.0  # dead band over the panel
    cube = hc.HyperCube(data, wl, "radiance")
    with pytest.raises(DegeneratePanelError, match="band 2"):
        hc.to_reflectance(cube, (0, 0, 2, 2), np.full(4, 0.4))


def test_panel_region_must_fit():
    cube = hc.HyperCube(np.ones((4, 4, 2)), np.arange(2.0), "radiance")
    with pytest.raises(ShapeMismatchError, match=r"^panel region \(3,3,2,2\) exceeds cube 4x4$"):
        hc.to_reflectance(cube, (3, 3, 2, 2), np.full(2, 0.4))
    with pytest.raises(ShapeMismatchError, match=r"^panel region \(0,0,0,2\) is empty$"):
        hc.to_reflectance(cube, (0, 0, 0, 2), np.full(2, 0.4))


def test_uint16_input_converts():
    rng = np.random.default_rng(8)
    data = rng.integers(100, 4000, size=(5, 5, 6), dtype=np.uint16)
    cube = hc.HyperCube(data, np.arange(6.0), "raw")
    out = hc.to_reflectance(cube, (0, 0, 2, 2), np.full(6, 0.5))
    assert out.data.dtype == np.float32
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# band masking


def test_default_mask_keeps_190_of_240():
    mask = hc.band_mask_from_windows(hc.default_wavelengths())
    assert mask.shape == (240,)
    assert mask.sum() == 190


def test_mask_drops_range_edges_and_windows():
    wl = np.array([420.0, 430.0, 600.0, 760.0, 764.9, 765.1, 820.0, 870.0, 880.0])
    mask = hc.band_mask_from_windows(wl)
    assert list(mask) == [False, True, True, False, False, True, False, True, False]


def test_mask_and_convert_commute():
    rng = np.random.default_rng(11)
    bands = 24
    wl = 400.0 + 20.0 * np.arange(bands)
    data = rng.uniform(0.05, 1.5, size=(7, 7, bands))
    region = (0, 0, 3, 3)
    panel_refl = rng.uniform(0.3, 0.5, size=bands)
    mask = hc.band_mask_from_windows(wl, keep_range=(430.0, 810.0))
    cube = hc.HyperCube(data, wl, "radiance")

    a = hc.apply_band_mask(hc.to_reflectance(cube, region, panel_refl), mask)
    sub = hc.apply_band_mask(cube, mask)
    b = hc.to_reflectance(sub, region, panel_refl[mask])
    rel = np.max(np.abs(a.data - b.data) / (np.abs(b.data) + 1e-30))
    assert rel < 1e-12
    assert np.array_equal(a.wavelengths, b.wavelengths)


def _band_major(data):
    return np.ascontiguousarray(data.transpose(2, 0, 1)).transpose(1, 2, 0)


@pytest.mark.parametrize("layout", ["C", "band-major"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint16])
def test_masked_reflectance_is_bitwise_the_mask_of_the_full_one(layout, dtype):
    rng = np.random.default_rng(12)
    cube = random_cube(rng, rows=9, cols=11, bands=40, dtype=dtype)
    if layout == "band-major":
        cube = hc.HyperCube(_band_major(cube.data), cube.wavelengths, cube.units)
    region = (1, 2, 4, 5)
    panel_refl = rng.uniform(0.3, 0.5, size=40)
    mask = hc.band_mask_from_windows(cube.wavelengths, keep_range=(410.0, 470.0))
    full = hc.apply_band_mask(hc.to_reflectance(cube, region, panel_refl), mask)
    masked = hc.to_reflectance(cube, region, panel_refl, mask)
    assert masked.data.dtype == (np.float64 if dtype == np.float64 else np.float32)
    assert np.array_equal(masked.data, full.data)
    assert np.array_equal(masked.wavelengths, full.wavelengths)
    if layout == "band-major":
        assert masked.data.transpose(2, 0, 1).flags.c_contiguous


@pytest.mark.parametrize("masked", [False, True], ids=["whole", "masked"])
@pytest.mark.parametrize("layout", ["C", "band-major"])
@pytest.mark.parametrize("dtype", [np.float32, np.uint16])
def test_narrow_samples_give_the_float64_reflectance_rounded_once(layout, dtype, masked):
    rng = np.random.default_rng(16)
    cube = random_cube(rng, rows=9, cols=11, bands=40, dtype=dtype)
    if layout == "band-major":
        cube = hc.HyperCube(_band_major(cube.data), cube.wavelengths, cube.units)
    wide = hc.HyperCube(cube.data.astype(np.float64), cube.wavelengths, cube.units)
    region = (1, 2, 4, 5)
    panel_refl = rng.uniform(0.3, 0.5, size=40)
    mask = None
    if masked:
        mask = hc.band_mask_from_windows(cube.wavelengths, keep_range=(410.0, 470.0))
    narrow = hc.to_reflectance(cube, region, panel_refl, mask)
    want = hc.to_reflectance(wide, region, panel_refl, mask).data.astype(np.float32)
    assert narrow.data.dtype == np.float32
    assert np.array_equal(narrow.data.view(np.uint32), want.view(np.uint32))


def test_panel_mean_does_not_depend_on_memory_order():
    rng = np.random.default_rng(13)
    data = rng.uniform(0.1, 1.0, size=(40, 40, 3))
    wl = np.arange(3.0)
    panel_refl = np.full(3, 0.4)
    region = (0, 0, 40, 40)
    a = hc.to_reflectance(hc.HyperCube(data, wl, "radiance"), region, panel_refl)
    b = hc.to_reflectance(hc.HyperCube(_band_major(data), wl, "radiance"), region, panel_refl)
    assert np.array_equal(a.data, b.data)


def test_reflectance_of_one_band_is_that_band_of_the_whole_cube():
    rng = np.random.default_rng(14)
    data = rng.uniform(0.1, 1.0, size=(30, 40, 5))
    wl = 400.0 + np.arange(5.0)
    panel_refl = rng.uniform(0.3, 0.5, size=5)
    region = (2, 3, 20, 30)
    whole = hc.to_reflectance(hc.HyperCube(data, wl, "radiance"), region, panel_refl)
    for b in range(5):
        one = hc.HyperCube(data[:, :, b : b + 1], wl[b : b + 1], "radiance")
        alone = hc.to_reflectance(one, region, panel_refl[b : b + 1])
        assert np.array_equal(alone.data[:, :, 0], whole.data[:, :, b]), b


@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.4])
def test_panel_reflectance_must_be_positive(bad):
    cube = hc.HyperCube(np.ones((2, 2, 3)), 400.0 + np.arange(3.0), "radiance")
    panel_refl = np.full(3, 0.4)
    panel_refl[1] = bad
    with pytest.raises(DegeneratePanelError, match="positive in every band"):
        hc.to_reflectance(cube, (0, 0, 2, 2), panel_refl)


def test_masked_reflectance_still_checks_the_panel_in_dropped_bands():
    wl = 400.0 + 20.0 * np.arange(6)
    data = np.ones((4, 4, 6))
    data[:2, :2, 0] = 0.0  # dead band over the panel, outside the kept range
    mask = hc.band_mask_from_windows(wl, keep_range=(430.0, 510.0))
    assert not mask[0]
    cube = hc.HyperCube(data, wl, "radiance")
    with pytest.raises(DegeneratePanelError, match=r"band 0 \(400\.0 nm\)"):
        hc.to_reflectance(cube, (0, 0, 2, 2), np.full(6, 0.4), mask)


def test_empty_mask_raises():
    cube = hc.HyperCube(np.ones((2, 2, 5)), 400.0 + np.arange(5.0), "radiance")
    with pytest.raises(EmptyBandMaskError):
        hc.apply_band_mask(cube, np.zeros(5, dtype=bool))
    keep_one = np.zeros(5, dtype=bool)
    keep_one[2] = True
    with pytest.raises(EmptyBandMaskError):
        hc.apply_band_mask(cube, keep_one)
    with pytest.raises(ShapeMismatchError):
        hc.apply_band_mask(cube, np.ones(4, dtype=bool))
    with pytest.raises(ShapeMismatchError):
        hc.apply_band_mask(cube, np.ones((1, 5), dtype=bool))


def test_crop_bounds():
    cube = hc.HyperCube(np.arange(24.0).reshape(4, 3, 2), np.arange(2.0), "radiance")
    sub = cube.crop(1, 1, 2, 2)
    assert sub.data.shape == (2, 2, 2)
    assert np.array_equal(sub.data, cube.data[1:3, 1:3])
    with pytest.raises(ShapeMismatchError, match=r"^crop \(3,0,2,2\) exceeds cube 4x3$"):
        cube.crop(3, 0, 2, 2)
    with pytest.raises(ShapeMismatchError, match=r"^crop \(-1,0,2,2\) exceeds cube 4x3$"):
        cube.crop(-1, 0, 2, 2)
    with pytest.raises(ShapeMismatchError, match=r"^crop \(0,0,2,0\) is empty$"):
        cube.crop(0, 0, 2, 0)


def test_wavelength_grids_match_band_by_band_within_the_tolerance():
    grid = hc.default_wavelengths()
    assert hc.wavelengths_match(grid, grid + 0.9 * hc.WAVELENGTH_TOL_NM)
    assert not hc.wavelengths_match(grid, grid + 1.1 * hc.WAVELENGTH_TOL_NM)
    assert not hc.wavelengths_match(grid, grid[:-1])
    with_nan = grid.copy()
    with_nan[7] = np.nan
    assert not hc.wavelengths_match(grid, with_nan)
    assert not hc.wavelengths_match(with_nan, with_nan)


def test_panel_csv_round_trip(tmp_path):
    path = tmp_path / "panel.csv"
    wavelengths = hc.default_wavelengths()
    reflectance = np.full(wavelengths.size, 0.4)
    hc.write_panel_reflectance_csv(path, wavelengths, reflectance)
    wl, refl = hc.read_panel_reflectance_csv(path)
    assert np.array_equal(refl, reflectance)
    # wavelengths round-trip through the one-decimal file format
    np.testing.assert_allclose(wl, wavelengths, atol=0.05)


def test_panel_csv_shape_check(tmp_path):
    with pytest.raises(ShapeMismatchError):
        hc.write_panel_reflectance_csv(
            tmp_path / "p.csv", np.arange(3.0), np.arange(4.0)
        )


def test_panel_csv_rejects_bad_files(tmp_path):
    from hyperfield.errors import DataError

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("nm,value\n400.0,0.4\n")
    with pytest.raises(DataError, match="header"):
        hc.read_panel_reflectance_csv(bad_header)

    empty = tmp_path / "e.csv"
    empty.write_text("wavelength,reflectance\n")
    with pytest.raises(DataError):
        hc.read_panel_reflectance_csv(empty)

    unsorted = tmp_path / "u.csv"
    unsorted.write_text("wavelength,reflectance\n500.0,0.4\n400.0,0.4\n")
    with pytest.raises(DataError, match="increasing"):
        hc.read_panel_reflectance_csv(unsorted)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_panel_csv_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "p.csv"
    path.write_text(f"wavelength,reflectance\n400.0,0.4\n402.2,{value}\n")
    with pytest.raises(DataError, match="p.csv: line 3: non-finite value"):
        hc.read_panel_reflectance_csv(path)


# The calls that move payload bytes, by the name of the module they come from.
_PAYLOAD_CALLS = {
    "os": {"preadv", "pread", "pwrite"},
    "np": {"fromfile", "memmap"},
    "numpy": {"fromfile", "memmap"},
}


def _payload_calls(path: Path) -> list[str]:
    """Where the module at ``path`` names one of ``_PAYLOAD_CALLS``, as ``file:line``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, {node.attr}
        elif isinstance(node, ast.ImportFrom):
            module, names = node.module, {alias.name for alias in node.names}
        else:
            continue
        if names & _PAYLOAD_CALLS.get(module, set()):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_cube_module_moves_payload_bytes():
    """Cube payloads are read by ``CubeStream.read_rows`` and written by
    ``write_strips``: no other module of the package calls ``os.preadv``,
    ``os.pread``, ``os.pwrite``, ``np.fromfile`` or ``np.memmap``."""
    modules = sorted(Path(hc.__file__).parent.glob("*.py"))
    assert _payload_calls(Path(hc.__file__))  # the scan sees the calls that are there
    assert [where for path in modules if path.name != "cube.py"
            for where in _payload_calls(path)] == []
