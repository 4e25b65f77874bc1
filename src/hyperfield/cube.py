"""Hyperspectral cube container, file format, and spectral preprocessing.

A cube on disk is a pair of files sharing a stem: ``<stem>.hdr`` holds
UTF-8 ``key = value`` metadata lines and ``<stem>.raw`` holds the
little-endian sample payload in one of three interleaves (bip, bil,
bsq). Wavelengths are recorded in nanometres at 0.1 nm precision.

In memory the payload is always indexed as (rows, cols, bands). A cube
read from disk is a view of the file's samples in the file's order, so
a bsq cube is band-major in memory and is written back to bsq without a
transpose. Code whose floating-point result depends on summation order
makes its own C- or Fortran-order copy.

``read_cube`` reads the whole payload into memory. ``CubeStream`` reads
it a bounded part at a time, a run of pixels or a strip of rows, and
``write_strips`` writes a payload a strip of rows at a time. A strip is
moved in the file's runs, one per band plane (bsq) or one, with checked
``pread`` and ``pwrite`` calls, whatever the interleave; no file is
mapped, and nothing here hashes.

The writer writes ``<stem>.raw``, then ``<stem>.hdr``, in place. A
pipeline stage writes them into a staging directory that replaces its
output directory only when the stage succeeds.

Each check has one owner: the header parser checks the metadata, each
reader checks every sample it brings in, once, for NaN and inf, and
``apply_gain`` the reflectance it computes. ``HyperCube`` never scans.
"""

from __future__ import annotations

import csv
import itertools
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    CubeParseError,
    CubeSizeError,
    DataError,
    DegeneratePanelError,
    EmptyBandMaskError,
    ShapeMismatchError,
    UnsupportedFormatError,
)
from .table import read_table

HEADER_SUFFIX = ".hdr"
RAW_SUFFIX = ".raw"

INTERLEAVES = ("bip", "bil", "bsq")
UNITS = ("raw", "radiance", "reflectance", "abundance")

# Upper bound on one strip of rows from ``CubeStream.read_strips``, unless
# its cuts need more rows or one row is larger.
BLOCK_BYTES = 16 << 20
# Upper bound on the samples ``CubeStream.pixels`` stages at a time: small
# enough that copying them into a Fortran-order block stays in cache.
STAGE_BYTES = 2 << 20

_DTYPES = {
    "float32": np.dtype("<f4"),
    "float64": np.dtype("<f8"),
    "uint16": np.dtype("<u2"),
}

# Canonical synthetic instrument grid: 240 channels, ~2.2 nm sampling.
# With the default band mask below it keeps exactly 190 bands, and the
# red/blue index windows used for segmentation each contain 5 bands.
BAND_COUNT = 240
WAVELENGTH_START_NM = 400.0
WAVELENGTH_STEP_NM = 2.195

# Default spectral mask: keep the well-behaved 430-870 nm range and
# drop two atmospheric absorption windows (oxygen near 760 nm, water
# vapour near 820 nm). Window widths are total widths in nm.
KEEP_RANGE_NM = (430.0, 870.0)
ABSORPTION_WINDOWS_NM = ((760.0, 10.0), (820.0, 14.0))


def default_wavelengths() -> np.ndarray:
    """Wavelength grid of the canonical synthetic instrument, in nm."""
    return WAVELENGTH_START_NM + WAVELENGTH_STEP_NM * np.arange(BAND_COUNT)


def _check_metadata(bands: int, wavelengths: np.ndarray, units: str,
                    band_labels: tuple[str, ...] | None, wavelength_line: int | None = None):
    """The band metadata rules of ``HyperCube`` and ``_parse_header``.

    Wavelengths that are not one per band are a parse error of the header
    line ``wavelength_line`` when that is given, else a shape mismatch.
    """
    if wavelengths.ndim != 1 or wavelengths.size != bands:
        message = f"{wavelengths.size} wavelengths for {bands} bands"
        if wavelength_line is None:
            raise ShapeMismatchError(message)
        raise CubeParseError(message, wavelength_line)
    if not np.all(np.diff(wavelengths) > 0):
        raise ShapeMismatchError("wavelengths must be strictly increasing")
    if units not in UNITS:
        raise UnsupportedFormatError(f"unsupported units tag {units!r}")
    if band_labels is not None and len(band_labels) != bands:
        raise ShapeMismatchError(f"{len(band_labels)} band labels for {bands} bands")


@dataclass
class HyperCube:
    """Dense hyperspectral image.

    A plain container: it checks its shape and metadata, never the samples.

    Attributes
    ----------
    data:
        (rows, cols, bands) array, float32/float64/uint16, in any memory
        order.
    wavelengths:
        (bands,) strictly increasing band centres in nm.
    units:
        One of ``raw``, ``radiance``, ``reflectance``, ``abundance``.
    band_labels:
        Optional per-band names. Used when a cube carries abundance
        planes rather than spectral bands.
    """

    data: np.ndarray
    wavelengths: np.ndarray
    units: str
    band_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeMismatchError(
                f"cube data must be 3-d (rows, cols, bands), got {self.data.ndim}-d"
            )
        if self.band_labels is not None:
            self.band_labels = tuple(self.band_labels)
        _check_metadata(self.data.shape[2], self.wavelengths, self.units, self.band_labels)

    rows = property(lambda self: self.data.shape[0])
    cols = property(lambda self: self.data.shape[1])
    bands = property(lambda self: self.data.shape[2])

    def pixels(
        self, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Pixels ``start`` to ``stop`` in row-major order as a Fortran-order
        (bands, stop - start) matrix, whatever the cube's memory order.

        Only the rows that hold them are copied: into ``out`` when given, a
        Fortran-order array of that shape, which is returned.
        """
        stop = self.rows * self.cols if stop is None else stop
        _check_pixel_range(start, stop, self.rows * self.cols)
        top, bottom = start // self.cols, -(-stop // self.cols)
        flat = self.data[top:bottom].reshape(-1, self.bands)
        part = flat[start - top * self.cols : stop - top * self.cols].T
        if out is None:
            return np.asfortranarray(part)
        np.copyto(out, part)
        return out

    def crop(self, top: int, left: int, height: int, width: int) -> "HyperCube":
        if height <= 0 or width <= 0:
            raise ShapeMismatchError("crop window must be non-empty")
        if top < 0 or left < 0 or top + height > self.rows or left + width > self.cols:
            raise ShapeMismatchError(
                f"crop ({top},{left},{height},{width}) exceeds cube "
                f"{self.rows}x{self.cols}"
            )
        return replace(self, data=self.data[top : top + height, left : left + width])


def _paths(path: str | os.PathLike) -> tuple[str, str]:
    stem = str(path)
    if stem.endswith(HEADER_SUFFIX):
        stem = stem[: -len(HEADER_SUFFIX)]
    elif stem.endswith(RAW_SUFFIX):
        stem = stem[: -len(RAW_SUFFIX)]
    return stem + HEADER_SUFFIX, stem + RAW_SUFFIX


# Axes of a (rows, cols, bands) array in each interleave's file order.
_FILE_AXES = {"bip": (0, 1, 2), "bil": (0, 2, 1), "bsq": (2, 0, 1)}


class CubeHeader(NamedTuple):
    """What a ``.hdr`` file says: geometry, sample type, file order, band metadata."""

    rows: int
    cols: int
    bands: int
    dtype_name: str
    interleave: str
    units: str
    wavelengths: np.ndarray
    band_labels: tuple[str, ...] | None = None

    @classmethod
    def of(cls, cube: HyperCube, interleave: str = "bsq") -> CubeHeader:
        """The header ``cube`` is written with; rejects what no file can hold."""
        if interleave not in INTERLEAVES:
            raise UnsupportedFormatError(f"unsupported interleave {interleave!r}")
        if cube.data.dtype.name not in _DTYPES:
            raise UnsupportedFormatError(f"unsupported sample type {cube.data.dtype.name!r}")
        return cls(cube.rows, cube.cols, cube.bands, cube.data.dtype.name, interleave,
                   cube.units, cube.wavelengths, cube.band_labels)

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self.dtype_name]

    def file_shape(self) -> tuple[int, int, int]:
        """Shape of the payload in file order."""
        dims = (self.rows, self.cols, self.bands)
        return tuple(dims[axis] for axis in _FILE_AXES[self.interleave])

    def text(self) -> str:
        lines = [
            f"samples = {self.cols}",
            f"lines = {self.rows}",
            f"bands = {self.bands}",
            f"data type = {self.dtype_name}",
            f"interleave = {self.interleave}",
            f"units = {self.units}",
            "wavelength = " + ", ".join(f"{w:.1f}" for w in self.wavelengths),
        ]
        if self.band_labels is not None:
            lines.append("band labels = " + ", ".join(self.band_labels))
        return "\n".join(lines) + "\n"


def _rows_cols_bands(payload: np.ndarray, interleave: str) -> np.ndarray:
    """(rows, cols, bands) view of a payload shaped in file order."""
    return payload.transpose(np.argsort(_FILE_AXES[interleave]))


def _runs(payload: np.ndarray, header: CubeHeader, top: int) -> Iterator[tuple[np.ndarray, int]]:
    """Each run of a C-contiguous file-order ``payload`` of whole rows from
    ``top``, with its offset in the file: one run per band plane (bsq) or one.
    """
    bsq = header.interleave == "bsq"
    row_bytes = header.cols * (1 if bsq else header.bands) * header.dtype.itemsize
    for i, run in enumerate(payload.reshape(header.bands if bsq else 1, -1)):
        yield run, (i * header.rows + top) * row_bytes


def _pwrite(fd: int, run: np.ndarray, offset: int) -> None:
    """Write all of ``run`` at ``offset``; one ``pwrite`` may write less than asked."""
    view = memoryview(run).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def write_strips(
    path: str | os.PathLike, header: CubeHeader, strips: Iterable[tuple[int, HyperCube]]
) -> None:
    """Write a cube pair from ``(top, strip)`` pairs, as ``CubeStream.read_strips`` gives them.

    A strip holds whole rows from ``top``, every band, in any memory order
    and sample type; its samples are converted to the header's. Its runs
    are written with ``pwrite`` in file order. Every row must be written
    exactly once, in any order of strips, before the header follows the
    payload.
    """
    hdr_path, raw_path = _paths(path)
    h = header
    written = np.zeros(h.rows, dtype=bool)
    with open(raw_path, "wb") as fh:
        for top, strip in strips:
            bottom = top + strip.rows
            if (strip.cols, strip.bands) != (h.cols, h.bands) or not 0 <= top < bottom <= h.rows:
                raise ShapeMismatchError(
                    f"strip {strip.rows}x{strip.cols}x{strip.bands} at row {top} does not fit "
                    f"a {h.rows}x{h.cols}x{h.bands} cube"
                )
            if written[top:bottom].any():
                raise ShapeMismatchError(f"rows [{top}, {bottom}) overlap rows already written")
            written[top:bottom] = True
            payload = np.ascontiguousarray(
                strip.data.transpose(_FILE_AXES[h.interleave]), dtype=h.dtype
            )
            for run, offset in _runs(payload, h, top):
                _pwrite(fh.fileno(), run, offset)
    if not written.all():
        raise ShapeMismatchError(
            f"{h.rows - int(written.sum())} of the cube's {h.rows} rows were not written"
        )
    with open(hdr_path, "w", encoding="utf-8") as fh:
        fh.write(h.text())


def write_cube(cube: HyperCube, path: str | os.PathLike, interleave: str = "bsq") -> str:
    """Write header and raw payload; returns the header path.

    ``path`` may be the stem or either member of the pair. The payload
    dtype is taken from the cube and must be one of the supported
    sample types. The cube is written as ``write_strips``' one strip.
    """
    write_strips(path, CubeHeader.of(cube, interleave), [(0, cube)])
    return _paths(path)[0]


def _parse_header(hdr_path: str) -> CubeHeader:
    """The header a ``.hdr`` file holds, its metadata checked."""
    with open(hdr_path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CubeParseError("not UTF-8 text", blob.count(b"\n", 0, exc.start) + 1) from None
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CubeParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        fields[key.strip().lower()] = (value.strip(), lineno)

    def need(key: str) -> tuple[str, int]:
        if key not in fields:
            raise CubeParseError(f"missing required header key {key!r}")
        return fields[key]

    dims = {}
    for key in ("samples", "lines", "bands"):
        value, lineno = need(key)
        try:
            dims[key] = int(value)
        except ValueError:
            raise CubeParseError(f"{key} must be an integer, got {value!r}", lineno)
        if dims[key] <= 0:
            raise CubeParseError(f"{key} must be positive, got {dims[key]}", lineno)

    dtype_name, _ = need("data type")
    if dtype_name not in _DTYPES:
        raise UnsupportedFormatError(f"unsupported sample type {dtype_name!r}")
    interleave, _ = need("interleave")
    if interleave not in INTERLEAVES:
        raise UnsupportedFormatError(f"unsupported interleave {interleave!r}")
    units, _ = need("units")

    wl_text, wl_line = need("wavelength")
    try:
        wavelengths = np.array(
            [float(tok) for tok in wl_text.split(",") if tok.strip()], dtype=np.float64
        )
    except ValueError:
        raise CubeParseError("wavelength list contains a non-numeric entry", wl_line)

    band_labels = None
    if "band labels" in fields:
        band_labels = tuple(
            tok.strip() for tok in fields["band labels"][0].split(",") if tok.strip()
        )
    _check_metadata(dims["bands"], wavelengths, units, band_labels, wl_line)
    return CubeHeader(dims["lines"], dims["samples"], dims["bands"], dtype_name,
                      interleave, units, wavelengths, band_labels)


def _read_header(path: str | os.PathLike) -> tuple[CubeHeader, str]:
    """The checked header and the raw path, after checking the payload size.

    Each header fault keeps its error class (a parse error carries its
    line) and names the ``.hdr`` file; a size error names the payload.
    """
    hdr_path, raw_path = _paths(path)
    try:
        header = _parse_header(hdr_path)
    except DataError as exc:
        exc.args = (f"{hdr_path}: {exc}",)
        raise
    expected = header.rows * header.cols * header.bands * header.dtype.itemsize
    actual_bytes = os.path.getsize(raw_path)
    if actual_bytes != expected:
        raise CubeSizeError(
            f"{raw_path}: expected {expected} bytes "
            f"({header.rows}x{header.cols}x{header.bands} {header.dtype_name}), "
            f"found {actual_bytes}"
        )
    return header, raw_path


def read_cube(path: str | os.PathLike) -> HyperCube:
    """Read a cube pair into memory, every sample checked for NaN and inf.

    The data is a (rows, cols, bands) view of the payload in the file's
    interleave. Header and size errors are those of ``_read_header``.
    """
    with CubeStream(path) as stream:
        return stream.read_rows(0, stream.rows)


def _check_finite(block: np.ndarray, source: str) -> None:
    """Reject NaN and inf in a float ``block`` of the cube ``source`` names."""
    if block.dtype.kind == "f" and not np.isfinite(block).all():
        raise ShapeMismatchError(f"{source}: cube data contains non-finite samples")


def _check_pixel_range(start: int, stop: int, pixels: int) -> None:
    if not 0 <= start < stop <= pixels:
        raise ShapeMismatchError(
            f"pixel range [{start}, {stop}) is empty or exceeds {pixels} pixels"
        )


class CubeStream:
    """Reads of a cube pair's payload that hold a bounded part of it at a time.

    The header is parsed and the payload size checked by ``_read_header``,
    and every sample read is checked for NaN and inf. Nothing is hashed:
    a pipeline stage hashes its input files on their own.

    - ``read_rows`` reads whole image rows in the file's runs with
      ``pread``; ``read_strips``, ``read_panel`` and ``read_bands`` are
      built on it.
    - ``pixels`` reads a run of pixels, every band, as ``HyperCube.pixels``
      gives them.

    A ``pread`` that returns fewer bytes than asked is continued; one that
    returns none means the payload shrank while it was read.
    """

    def __init__(self, path: str | os.PathLike):
        self.header, self.raw_path = _read_header(path)
        self._fh = open(self.raw_path, "rb")

    def __enter__(self) -> CubeStream:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    rows = property(lambda self: self.header.rows)
    cols = property(lambda self: self.header.cols)
    bands = property(lambda self: self.header.bands)
    wavelengths = property(lambda self: self.header.wavelengths)

    def _pread(self, buffer: np.ndarray, offset: int) -> None:
        """Fill the C-contiguous ``buffer`` from ``offset``; one call may read less."""
        view = memoryview(buffer).cast("B")
        while view:
            done = os.preadv(self._fh.fileno(), [view], offset)
            if not done:
                raise CubeSizeError(f"{self.raw_path}: payload shrank while it was read")
            view, offset = view[done:], offset + done

    def read_rows(self, top: int, height: int, buffer: np.ndarray | None = None) -> HyperCube:
        """Rows ``top`` to ``top + height``, every band, in the file's memory order.

        With ``buffer``, a 1-d array of the payload's sample type with room
        for the rows, they are read into it and are valid until it is reused.
        Every sample is checked for NaN and inf.
        """
        h = self.header
        if height <= 0 or top < 0 or top + height > h.rows:
            raise ShapeMismatchError(f"rows [{top}, {top + height}) exceed the cube's {h.rows}")
        shape = h._replace(rows=height).file_shape()
        if buffer is None:
            part = np.empty(shape, h.dtype)
        else:
            part = buffer[: height * h.cols * h.bands].reshape(shape)
        for run, offset in _runs(part, h, top):
            self._pread(run, offset)
        _check_finite(part, self.raw_path)
        return HyperCube(
            _rows_cols_bands(part, h.interleave), h.wavelengths, h.units, h.band_labels
        )

    def read_strips(
        self, cuts: Iterable[int] | None = None
    ) -> Iterator[tuple[int, HyperCube]]:
        """Every row once, top to bottom, as ``(top, strip)`` with ``strip`` a
        ``read_rows`` cube, valid until the next strip is read.

        A strip ends only before a row index in ``cuts`` (by default, any
        row) or at the last row. It holds as many rows as fit in
        ``BLOCK_BYTES``, or if no cut allows that, the fewest that reach one.
        """
        h = self.header
        cuts = range(h.rows) if cuts is None else cuts
        step = max(1, BLOCK_BYTES // (h.cols * h.bands * h.dtype.itemsize))
        tops = [0]
        bottom = 0
        for end in sorted({int(row) for row in cuts if 0 < row < h.rows} | {h.rows}):
            if end - tops[-1] > step and bottom > tops[-1]:
                tops.append(bottom)
            bottom = end
        bounds = list(zip(tops, tops[1:] + [h.rows]))
        # one buffer for every strip: fresh pages for each would cost more than the copy
        buffer = np.empty(max(b - t for t, b in bounds) * h.cols * h.bands, h.dtype)
        for top, bottom in bounds:
            yield top, self.read_rows(top, bottom - top, buffer)

    def read_panel(self, region: tuple[int, int, int, int]) -> HyperCube:
        """The (height, width, bands) pixels of the panel region, from its checked rows."""
        _check_panel_region(region, self.rows, self.cols)
        top, left, height, width = region
        return self.read_rows(top, height).crop(0, left, height, width)

    def pixels(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """``HyperCube.pixels(start, stop, out)`` of the payload.

        From a bsq payload the pixels are staged in runs of as many as fit
        in ``STAGE_BYTES`` with every band: each band's part of a run is
        read with ``pread`` into one reused buffer, which is then copied
        into the result. Other interleaves read the pixels' rows.
        """
        h = self.header
        _check_pixel_range(start, stop, h.rows * h.cols)
        if h.interleave != "bsq":
            top, bottom = start // h.cols, -(-stop // h.cols)
            rows = self.read_rows(top, bottom - top)
            return rows.pixels(start - top * h.cols, stop - top * h.cols, out)
        size = h.dtype.itemsize
        if out is None:
            out = np.empty((h.bands, stop - start), h.dtype, order="F")
        step = max(1, STAGE_BYTES // (h.bands * size))
        staged = np.empty((h.bands, min(step, stop - start)), h.dtype)
        for first in range(start, stop, step):
            runs = staged[:, : min(step, stop - first)]
            for band, run in enumerate(runs):
                self._pread(run, (band * h.rows * h.cols + first) * size)
            _check_finite(runs, self.raw_path)
            out[:, first - start : first - start + runs.shape[1]] = runs
        return out

    def read_bands(self, keep: np.ndarray) -> HyperCube:
        """The bands flagged in ``keep``, in the file's memory order.

        They come from one pass of ``read_strips``, so every band is read
        and checked.
        """
        h = self.header
        keep = np.asarray(keep, dtype=bool)
        kept = _rows_cols_bands(
            np.empty(h._replace(bands=int(keep.sum())).file_shape(), h.dtype), h.interleave
        )
        for top, strip in self.read_strips():
            kept[top : top + strip.rows] = strip.data[:, :, keep]
        return HyperCube(kept, h.wavelengths[keep], h.units, _kept_labels(h.band_labels, keep))


def _check_panel_region(region: tuple[int, int, int, int], rows: int, cols: int) -> None:
    top, left, height, width = region
    if height <= 0 or width <= 0:
        raise ShapeMismatchError("panel region must be non-empty")
    if top < 0 or left < 0 or top + height > rows or left + width > cols:
        raise ShapeMismatchError(
            f"panel region ({top},{left},{height},{width}) exceeds cube {rows}x{cols}"
        )


def to_reflectance(
    cube: HyperCube,
    panel_region: tuple[int, int, int, int],
    panel_reflectance: np.ndarray,
    mask: BandMask | None = None,
) -> HyperCube:
    """Single-panel empirical line correction: ``panel_gain``, then ``apply_gain``.

    ``panel_region`` is (top, left, height, width) of pixels covering
    the reference panel; ``panel_reflectance`` gives the panel's known
    reflectance per band. Each pixel is divided by the panel mean and
    rescaled by the known reflectance.

    With a ``mask`` the panel is still checked in every input band, but
    only the kept bands are scaled and returned.
    """
    return apply_gain(cube, panel_gain(cube, panel_region, panel_reflectance), mask)


def panel_gain(
    cube: HyperCube, panel_region: tuple[int, int, int, int], panel_reflectance: np.ndarray
) -> np.ndarray:
    """Per band, the panel's known reflectance over its mean in ``cube``.

    The panel must be positive in every band, both its known reflectance
    and its mean.
    """
    _check_panel_region(panel_region, cube.rows, cube.cols)
    top, left, height, width = panel_region
    panel_reflectance = np.asarray(panel_reflectance, dtype=np.float64)
    if panel_reflectance.shape != (cube.bands,):
        raise ShapeMismatchError(
            f"panel reflectance has {panel_reflectance.size} entries for "
            f"{cube.bands} bands"
        )
    if not np.all(panel_reflectance > 0):  # also false for NaN
        raise DegeneratePanelError("panel reflectance must be positive in every band")

    # One running sum per band over the pixels in row-major order: the
    # same bits as a mean over a C-order copy of two or more bands, and
    # unlike that mean (pairwise for one band) the same for any band count.
    panel = np.ascontiguousarray(
        cube.data[top : top + height, left : left + width], dtype=np.float64
    )
    mean_panel = panel.reshape(-1, cube.bands).cumsum(axis=0)[-1] / (height * width)
    if not np.all(mean_panel > 0):  # also false for NaN
        bad = int(np.argmin(mean_panel > 0))
        raise DegeneratePanelError(
            f"panel mean is not positive in band {bad} "
            f"({cube.wavelengths[bad]:.1f} nm)"
        )
    return panel_reflectance / mean_panel


def apply_gain(cube: HyperCube, gain: np.ndarray, mask: BandMask | None = None) -> HyperCube:
    """Reflectance: every pixel times the per-band ``gain``, clamped below at zero.

    Values above one are preserved (specular pixels stay visible). With a
    ``mask``, ``gain`` still has one entry per input band, but only the
    kept bands are scaled and returned.

    The result keeps the scene's precision: float64 samples give float64
    reflectance, float32 and uint16 samples give float32, the float64
    product rounded once.

    The result is checked for NaN and inf: a finite sample times a finite
    gain can overflow, and so can its rounding to float32.
    """
    dtype = np.float64 if cube.data.dtype == np.float64 else np.float32
    out = None
    if mask is not None:
        cube = apply_band_mask(cube, mask)
        gain = gain[mask.keep]
        if cube.data.dtype == dtype:  # the selection is a fresh copy: scale it in place
            out = cube.data
    if out is None:
        out = np.empty_like(cube.data, dtype=dtype)
    # the product is taken in float64 and rounded once into ``out``
    with np.errstate(over="ignore"):  # _check_finite reports an overflow
        np.multiply(cube.data, gain, out=out)
    np.maximum(out, 0.0, out=out)
    _check_finite(out, "reflectance")
    return replace(cube, data=out, units="reflectance")


def write_panel_reflectance_csv(
    path: str | os.PathLike, wavelengths: np.ndarray, reflectance: np.ndarray
) -> None:
    """Known panel reflectance per band: ``wavelength,reflectance`` rows."""
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    reflectance = np.asarray(reflectance, dtype=np.float64)
    if wavelengths.shape != reflectance.shape or wavelengths.ndim != 1:
        raise ShapeMismatchError(
            f"wavelengths {wavelengths.shape} and reflectance "
            f"{reflectance.shape} do not align"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength", "reflectance"])
        for wl, r in zip(wavelengths, reflectance):
            writer.writerow([f"{wl:.1f}", repr(float(r))])


def read_panel_reflectance_csv(
    path: str | os.PathLike,
) -> tuple[np.ndarray, np.ndarray]:
    wavelengths, reflectance = read_table(path, floats=("wavelength", "reflectance")).floats.T
    if not np.all(np.diff(wavelengths) > 0):
        raise DataError(f"{path}: wavelengths must be strictly increasing")
    return wavelengths, reflectance


@dataclass
class BandMask:
    """Boolean keep-flags per band."""

    keep: np.ndarray

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        if self.keep.ndim != 1:
            raise ShapeMismatchError("band mask must be 1-d")

    @property
    def kept(self) -> int:
        return int(self.keep.sum())


def band_mask_from_windows(
    wavelengths: np.ndarray,
    keep_range: tuple[float, float] = KEEP_RANGE_NM,
    drop_windows: tuple[tuple[float, float], ...] = ABSORPTION_WINDOWS_NM,
) -> BandMask:
    """Build the spectral mask: keep a closed range, cut absorption windows.

    ``drop_windows`` entries are (centre, total width) in nm; bands whose
    centre falls inside a window (edges inclusive) are dropped.
    """
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    lo, hi = keep_range
    keep = (wavelengths >= lo) & (wavelengths <= hi)
    for centre, width in drop_windows:
        keep &= np.abs(wavelengths - centre) > width / 2.0
    return BandMask(keep=keep)


def apply_band_mask(cube: HyperCube, mask: BandMask) -> HyperCube:
    """Copy the kept bands into a new cube. At least two bands must survive."""
    if mask.keep.size != cube.bands:
        raise ShapeMismatchError(
            f"mask length {mask.keep.size} does not match band count {cube.bands}"
        )
    if mask.kept < 2:
        raise EmptyBandMaskError(
            f"band mask keeps {mask.kept} band(s); at least 2 are required"
        )
    return HyperCube(cube.data[:, :, mask.keep], cube.wavelengths[mask.keep], cube.units,
                     _kept_labels(cube.band_labels, mask.keep))


def _kept_labels(labels: tuple[str, ...] | None, keep: np.ndarray) -> tuple[str, ...] | None:
    return None if labels is None else tuple(itertools.compress(labels, keep))
