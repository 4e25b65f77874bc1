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
it a strip of rows at a time, of every band or of a range of them, and
``write_strips`` writes one a strip of rows at a time, through one
reused buffer when a strip is not already in file order. A strip is
moved in the file's runs, one per band plane (bsq) or one, with checked
``pread`` and ``pwrite`` calls, whatever the interleave; a band range
is read one run per band plane (bsq), row (bil) or pixel (bip). No file
is mapped, and nothing here hashes.

The writer writes ``<stem>.raw``, then ``<stem>.hdr``, in place. A
pipeline stage writes them into a staging directory that replaces its
output directory only when the stage succeeds.

Each check has one owner: the header parser checks the metadata, each
reader checks every sample it returns, once, for NaN and inf, and
``apply_gain`` the reflectance it computes. ``HyperCube`` never scans.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .table import read_table, write_table

HEADER_SUFFIX = ".hdr"
RAW_SUFFIX = ".raw"

INTERLEAVES = ("bip", "bil", "bsq")
UNITS = ("raw", "radiance", "reflectance", "abundance")

# Upper bound on one strip of rows as float64 (see ``block_rows``), unless
# its cuts need more rows or one row is larger.
BLOCK_BYTES = 16 << 20

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
# Two wavelength grids match when each band lies this close to its
# counterpart: cube headers, panel and endmember files write 0.1 nm.
WAVELENGTH_TOL_NM = 0.05


def wavelengths_match(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether grids ``a`` and ``b`` have as many bands, each within
    ``WAVELENGTH_TOL_NM`` of its counterpart. A NaN matches nothing."""
    return a.shape == b.shape and bool((abs(a - b) <= WAVELENGTH_TOL_NM).all())


# Default spectral mask: keep the well-behaved 430-870 nm range and
# drop two atmospheric absorption windows (oxygen near 760 nm, water
# vapour near 820 nm). Window widths are total widths in nm.
KEEP_RANGE_NM = (430.0, 870.0)
ABSORPTION_WINDOWS_NM = ((760.0, 10.0), (820.0, 14.0))


def default_wavelengths() -> np.ndarray:
    """Wavelength grid of the canonical synthetic instrument, in nm."""
    return WAVELENGTH_START_NM + WAVELENGTH_STEP_NM * np.arange(BAND_COUNT)


def check_box(what: str, box: tuple[int, int, int, int], rows: int, cols: int) -> None:
    """Raise unless ``box`` (top, left, height, width) is non-empty and lies
    inside a ``rows`` x ``cols`` cube; ``what`` names the box in the message."""
    top, left, height, width = box
    if height <= 0 or width <= 0:
        raise DataError(f"{what} ({top},{left},{height},{width}) is empty")
    if min(top, left, rows - top - height, cols - left - width) < 0:
        raise DataError(f"{what} ({top},{left},{height},{width}) exceeds cube {rows}x{cols}")


def _check_metadata(bands: int, wavelengths: np.ndarray, units: str,
                    band_labels: tuple[str, ...] | None, wavelength_line: int | None = None):
    """The band metadata rules of ``HyperCube`` and ``_parse_header``.

    Wavelengths that are not one per band name the header line
    ``wavelength_line`` when that is given.
    """
    if wavelengths.ndim != 1 or wavelengths.size != bands:
        at = "" if wavelength_line is None else f"line {wavelength_line}: "
        raise DataError(f"{at}{wavelengths.size} wavelengths for {bands} bands")
    if not np.all(np.diff(wavelengths) > 0):
        raise DataError("wavelengths must be strictly increasing")
    if units not in UNITS:
        raise DataError(f"unsupported units tag {units!r}")
    if band_labels is not None and len(band_labels) != bands:
        raise DataError(f"{len(band_labels)} band labels for {bands} bands")


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
            raise DataError(f"cube data must be 3-d (rows, cols, bands), got {self.data.ndim}-d")
        if self.band_labels is not None:
            self.band_labels = tuple(self.band_labels)
        _check_metadata(self.data.shape[2], self.wavelengths, self.units, self.band_labels)

    rows = property(lambda self: self.data.shape[0])
    cols = property(lambda self: self.data.shape[1])
    bands = property(lambda self: self.data.shape[2])

    def pixels(self) -> np.ndarray:
        """Every pixel in row-major order as a Fortran-order (bands, rows * cols)
        matrix, whatever the cube's memory order."""
        return np.asfortranarray(self.data.reshape(-1, self.bands).T)

    def crop(self, top: int, left: int, height: int, width: int) -> "HyperCube":
        check_box("crop", (top, left, height, width), self.rows, self.cols)
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
            raise DataError(f"unsupported interleave {interleave!r}")
        if cube.data.dtype.name not in _DTYPES:
            raise DataError(f"unsupported sample type {cube.data.dtype.name!r}")
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


def _runs(
    payload: np.ndarray, header: CubeHeader, top: int, first_band: int = 0
) -> Iterator[tuple[np.ndarray, int]]:
    """Each run of a C-contiguous file-order ``payload`` of whole rows from
    ``top`` and consecutive bands from ``first_band``, with its offset in the
    file: one run per band plane (bsq), per row (bil, some bands), per pixel
    (bip, some bands), or one.
    """
    full = header.file_shape()
    start = [(top, 0, first_band)[axis] for axis in _FILE_AXES[header.interleave]]
    split = 2  # the axes after ``split`` are whole, so a run spans them and ``split``
    while split and payload.shape[split] == full[split]:
        split -= 1
    first = (start[0] * full[1] + start[1]) * full[2] + start[2]
    inner = payload.shape[1] if split == 2 else 1  # runs along axis 1 per index on axis 0
    runs = payload.reshape(math.prod(payload.shape[:split]), -1)
    for n, run in enumerate(runs):
        i, j = divmod(n, inner)
        yield run, (first + (i * full[1] + j) * full[2]) * header.dtype.itemsize


def block_rows(cols: int, bands: int) -> int:
    """How many rows of ``cols`` x ``bands`` float64 samples fit in
    ``BLOCK_BYTES``; at least one. Every strip of rows is this tall, so a
    strip of any sample type can be computed on as float64 in one piece."""
    return max(1, BLOCK_BYTES // (cols * bands * 8))


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
    and sample type. One already in file order and in the header's sample
    type is written as it is. Any other is copied, an image row at a time,
    into one payload buffer of the header's type, which is made once and
    grows only for a taller strip; the copy converts each sample as
    ``np.ascontiguousarray(..., dtype=)`` would. A strip is done with once
    the next is asked for. Its runs are written with ``pwrite`` in file
    order. Every row must be written exactly once, in any order of strips,
    before the header follows the payload.
    """
    hdr_path, raw_path = _paths(path)
    h = header
    written = np.zeros(h.rows, dtype=bool)
    buffer = np.empty(0, h.dtype)
    with open(raw_path, "wb") as fh:
        for top, strip in strips:
            bottom = top + strip.rows
            if (strip.cols, strip.bands) != (h.cols, h.bands) or not 0 <= top < bottom <= h.rows:
                raise DataError(
                    f"strip {strip.rows}x{strip.cols}x{strip.bands} at row {top} does not fit "
                    f"a {h.rows}x{h.cols}x{h.bands} cube"
                )
            if written[top:bottom].any():
                raise DataError(f"rows [{top}, {bottom}) overlap rows already written")
            written[top:bottom] = True
            payload = strip.data.transpose(_FILE_AXES[h.interleave])
            if payload.dtype != h.dtype or not payload.flags.c_contiguous:
                size = strip.rows * h.cols * h.bands
                if buffer.size < size:
                    buffer = np.empty(size, h.dtype)
                payload = buffer[:size].reshape(h._replace(rows=strip.rows).file_shape())
                rows = _rows_cols_bands(payload, h.interleave)
                for r in range(strip.rows):
                    np.copyto(rows[r], strip.data[r], casting="unsafe")
            for run, offset in _runs(payload, h, top):
                _pwrite(fh.fileno(), run, offset)
    if not written.all():
        raise DataError(
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
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise DataError(f"line {lineno}: not UTF-8 text") from None
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip().lower()] = (value.strip(), lineno)

    def need(key: str) -> tuple[str, int]:
        if key not in fields:
            raise DataError(f"missing required header key {key!r}")
        return fields[key]

    dims = {}
    for key in ("samples", "lines", "bands"):
        value, lineno = need(key)
        try:
            dims[key] = int(value)
        except ValueError:
            raise DataError(f"line {lineno}: {key} must be an integer, got {value!r}")
        if dims[key] <= 0:
            raise DataError(f"line {lineno}: {key} must be positive, got {dims[key]}")

    dtype_name, _ = need("data type")
    if dtype_name not in _DTYPES:
        raise DataError(f"unsupported sample type {dtype_name!r}")
    interleave, _ = need("interleave")
    if interleave not in INTERLEAVES:
        raise DataError(f"unsupported interleave {interleave!r}")
    units, _ = need("units")

    wl_text, wl_line = need("wavelength")
    try:
        wavelengths = np.array(
            [float(tok) for tok in wl_text.split(",") if tok.strip()], dtype=np.float64
        )
    except ValueError:
        raise DataError(f"line {wl_line}: wavelength list contains a non-numeric entry")

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

    Each header fault names the ``.hdr`` file, and the line where it has
    one; a size error names the payload.
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
        raise DataError(
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
    """Reject NaN and inf in a float ``block`` of the cube ``source`` names.

    A NaN carries through ``min`` and ``max`` and an infinity is an extreme,
    so the two reductions find either without a per-sample mask.
    """
    if block.dtype.kind == "f" and block.size and not (
        np.isfinite(block.min()) and np.isfinite(block.max())
    ):
        raise DataError(f"{source}: cube data contains non-finite samples")


class CubeStream:
    """Reads of a cube pair's payload that hold a bounded part of it at a time.

    The header is parsed and the payload size checked by ``_read_header``,
    and every sample read is checked for NaN and inf. Nothing is hashed:
    a pipeline stage hashes its input files on their own.

    ``read_rows`` reads whole image rows, of every band or of a range of
    them, in the file's runs with ``pread`` and checks each sample it
    returns; ``read_strips`` and ``panel_calibration`` are built on it.
    A band range lets a caller hold fewer samples of a tall strip at once.

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
                raise DataError(f"{self.raw_path}: payload shrank while it was read")
            view, offset = view[done:], offset + done

    def read_rows(
        self, top: int, height: int, buffer: np.ndarray | None = None, bands: range | None = None
    ) -> HyperCube:
        """Rows ``top`` to ``top + height`` in the file's memory order, of every
        band or of the consecutive ``bands``.

        With ``buffer``, a 1-d array of the payload's sample type with room
        for the rows, they are read into it and are valid until it is reused.
        Every sample read is checked for NaN and inf.
        """
        h = self.header
        bands = range(h.bands) if bands is None else bands
        if height <= 0 or top < 0 or top + height > h.rows:
            raise DataError(f"rows [{top}, {top + height}) exceed the cube's {h.rows}")
        if bands.step != 1 or not 0 <= bands.start < bands.stop <= h.bands:
            raise DataError(f"{bands} is not a band range of the cube's {h.bands}")
        shape = h._replace(rows=height, bands=len(bands)).file_shape()
        if buffer is None:
            part = np.empty(shape, h.dtype)
        else:
            part = buffer[: height * h.cols * len(bands)].reshape(shape)
        for run, offset in _runs(part, h, top, bands.start):
            self._pread(run, offset)
        _check_finite(part, self.raw_path)
        labels = None if h.band_labels is None else h.band_labels[bands.start : bands.stop]
        return HyperCube(
            _rows_cols_bands(part, h.interleave), h.wavelengths[bands.start : bands.stop],
            h.units, labels,
        )

    def strip_bounds(self, cuts: Iterable[int] | None = None) -> list[tuple[int, int]]:
        """``(top, bottom)`` of each strip ``read_strips`` reads, top to bottom.

        A strip ends only before a row index in ``cuts`` (by default, any
        row) or at the last row. It holds up to ``block_rows`` rows, or if
        no cut allows that, the fewest that reach one.
        """
        h = self.header
        cuts = range(h.rows) if cuts is None else cuts
        step = block_rows(h.cols, h.bands)
        tops = [0]
        bottom = 0
        for end in sorted({int(row) for row in cuts if 0 < row < h.rows} | {h.rows}):
            if end - tops[-1] > step and bottom > tops[-1]:
                tops.append(bottom)
            bottom = end
        return list(zip(tops, tops[1:] + [h.rows]))

    def read_strips(
        self, cuts: Iterable[int] | None = None, bands: range | None = None,
        buffer: np.ndarray | None = None,
    ) -> Iterator[tuple[int, HyperCube]]:
        """Every row once, top to bottom, in the strips of ``strip_bounds(cuts)``,
        as ``(top, strip)`` with ``strip`` a ``read_rows`` cube of every band
        or of ``bands``, valid until the next strip is read.

        Every strip is read into one buffer: ``buffer``, with room for the
        tallest, or one made here."""
        bounds = self.strip_bounds(cuts)
        if buffer is None:
            # fresh pages for each strip would cost more than the copy
            width = self.bands if bands is None else len(bands)
            buffer = np.empty(max(b - t for t, b in bounds) * self.cols * width, self.header.dtype)
        for top, bottom in bounds:
            yield top, self.read_rows(top, bottom - top, buffer, bands)


def to_reflectance(
    cube: HyperCube,
    panel_region: tuple[int, int, int, int],
    panel_reflectance: np.ndarray,
    mask: np.ndarray | None = None,
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
    check_box("panel region", panel_region, cube.rows, cube.cols)
    top, left, height, width = panel_region
    panel_reflectance = np.asarray(panel_reflectance, dtype=np.float64)
    if panel_reflectance.shape != (cube.bands,):
        raise DataError(
            f"panel reflectance has {panel_reflectance.size} entries for "
            f"{cube.bands} bands"
        )
    if not np.all(panel_reflectance > 0):  # also false for NaN
        raise DataError("panel reflectance must be positive in every band")

    # One running sum per band over the pixels in row-major order: the
    # same bits as a mean over a C-order copy of two or more bands, and
    # unlike that mean (pairwise for one band) the same for any band count.
    panel = np.ascontiguousarray(
        cube.data[top : top + height, left : left + width], dtype=np.float64
    )
    mean_panel = panel.reshape(-1, cube.bands).cumsum(axis=0)[-1] / (height * width)
    if not np.all(mean_panel > 0):  # also false for NaN
        bad = int(np.argmin(mean_panel > 0))
        raise DataError(
            f"panel mean is not positive in band {bad} "
            f"({cube.wavelengths[bad]:.1f} nm)"
        )
    return panel_reflectance / mean_panel


def panel_calibration(
    scene: CubeStream, region: tuple[int, int, int, int], panel_reflectance: np.ndarray,
    mask: np.ndarray,
) -> tuple[np.ndarray, CubeHeader]:
    """The ``panel_gain`` of ``scene``'s panel ``region`` and the header of the
    reflectance ``apply_gain`` makes with it and ``mask``.

    The panel's rows are read and checked, and calibrating its pixels runs
    every panel and mask check of a whole-scene ``to_reflectance``. Only
    the gain and the header are kept: the rows are freed on return.
    """
    check_box("panel region", region, scene.rows, scene.cols)
    top, left, height, width = region
    panel = scene.read_rows(top, height).crop(0, left, height, width)
    whole = (0, 0, height, width)
    gain = panel_gain(panel, whole, panel_reflectance)
    header = CubeHeader.of(to_reflectance(panel, whole, panel_reflectance, mask))
    return gain, header._replace(rows=scene.rows, cols=scene.cols)


def apply_gain(cube: HyperCube, gain: np.ndarray, mask: np.ndarray | None = None) -> HyperCube:
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
        gain = gain[mask]
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
        raise DataError(
            f"wavelengths {wavelengths.shape} and reflectance "
            f"{reflectance.shape} do not align"
        )
    rows = [(f"{wl:.1f}", r) for wl, r in zip(wavelengths.tolist(), reflectance.tolist())]
    write_table(path, ["wavelength", "reflectance"], rows)


def read_panel_reflectance_csv(
    path: str | os.PathLike,
) -> tuple[np.ndarray, np.ndarray]:
    wavelengths, reflectance = read_table(path, floats=("wavelength", "reflectance")).floats.T
    if not np.all(np.diff(wavelengths) > 0):
        raise DataError(f"{path}: wavelengths must be strictly increasing")
    return wavelengths, reflectance


def band_mask_from_windows(
    wavelengths: np.ndarray,
    keep_range: tuple[float, float] = KEEP_RANGE_NM,
    drop_windows: tuple[tuple[float, float], ...] = ABSORPTION_WINDOWS_NM,
) -> np.ndarray:
    """The spectral mask, a boolean per band: keep a closed range, cut
    absorption windows.

    ``drop_windows`` entries are (centre, total width) in nm; bands whose
    centre falls inside a window (edges inclusive) are dropped.
    """
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    lo, hi = keep_range
    keep = (wavelengths >= lo) & (wavelengths <= hi)
    for centre, width in drop_windows:
        keep &= np.abs(wavelengths - centre) > width / 2.0
    return keep


def apply_band_mask(cube: HyperCube, mask: np.ndarray) -> HyperCube:
    """Copy the bands the boolean ``mask`` keeps into a new cube. At least
    two bands must survive."""
    if mask.shape != (cube.bands,):
        raise DataError(f"mask shape {mask.shape} does not match band count {cube.bands}")
    kept = int(mask.sum())
    if kept < 2:
        raise DataError(f"band mask keeps {kept} band(s); at least 2 are required")
    labels = cube.band_labels
    if labels is not None:
        labels = tuple(itertools.compress(labels, mask))
    return HyperCube(cube.data[:, :, mask], cube.wavelengths[mask], cube.units, labels)
