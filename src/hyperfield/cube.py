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

The view maps the ``.raw`` file copy-on-write: pages are read on first
touch, and writes into the array stay private to the process. A mapped
file must never be truncated while the map lives, so ``write_cube``
replaces a pair atomically instead of rewriting it in place.

``CubeStream`` and ``write_band_blocks`` instead move a payload through
memory a block of band planes at a time, and hash its bytes on the way,
for a stage that needs no more of the cube than one block.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import BinaryIO, NamedTuple

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

# Upper bound on one block of band planes streamed by ``CubeStream``.
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

# Default spectral mask: keep the well-behaved 430-870 nm range and
# drop two atmospheric absorption windows (oxygen near 760 nm, water
# vapour near 820 nm). Window widths are total widths in nm.
KEEP_RANGE_NM = (430.0, 870.0)
ABSORPTION_WINDOWS_NM = ((760.0, 10.0), (820.0, 14.0))


def default_wavelengths() -> np.ndarray:
    """Wavelength grid of the canonical synthetic instrument, in nm."""
    return WAVELENGTH_START_NM + WAVELENGTH_STEP_NM * np.arange(BAND_COUNT)


@dataclass
class HyperCube:
    """Dense hyperspectral image.

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
        if self.wavelengths.ndim != 1 or self.wavelengths.size != self.data.shape[2]:
            raise ShapeMismatchError(
                f"wavelength count {self.wavelengths.size} does not match "
                f"band count {self.data.shape[2]}"
            )
        if self.wavelengths.size >= 2 and not np.all(np.diff(self.wavelengths) > 0):
            raise ShapeMismatchError("wavelengths must be strictly increasing")
        if self.units not in UNITS:
            raise UnsupportedFormatError(f"unsupported units tag {self.units!r}")
        if self.data.dtype.kind == "f" and not np.all(np.isfinite(self.data)):
            raise ShapeMismatchError("cube data contains non-finite samples")
        if self.band_labels is not None:
            self.band_labels = tuple(self.band_labels)
            if len(self.band_labels) != self.data.shape[2]:
                raise ShapeMismatchError(
                    f"{len(self.band_labels)} band labels for "
                    f"{self.data.shape[2]} bands"
                )

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    def pixels(self) -> np.ndarray:
        """Payload as a Fortran-order (bands, rows*cols) matrix, row-major
        pixel order, whatever the cube's memory order."""
        return np.asfortranarray(self.data.reshape(-1, self.bands).T)

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


@contextlib.contextmanager
def _replacing_pair(path: str | os.PathLike, header: CubeHeader) -> Iterator[BinaryIO]:
    """The open ``<stem>.raw.tmp`` for the payload.

    On a clean exit the header is written to ``<stem>.hdr.tmp`` and both
    move into place with ``os.replace``, raw first, so a cube that still
    maps the old payload keeps reading it. Any failure removes the
    temporaries and leaves the old pair as it was.
    """
    hdr_path, raw_path = _paths(path)
    raw_tmp, hdr_tmp = raw_path + ".tmp", hdr_path + ".tmp"
    try:
        with open(raw_tmp, "wb") as fh:
            yield fh
        with open(hdr_tmp, "w", encoding="utf-8") as fh:
            fh.write(header.text())
        os.replace(raw_tmp, raw_path)
        os.replace(hdr_tmp, hdr_path)
    finally:
        for tmp in (raw_tmp, hdr_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def write_cube(cube: HyperCube, path: str | os.PathLike, interleave: str = "bsq") -> str:
    """Write header and raw payload; returns the header path.

    ``path`` may be the stem or either member of the pair. The payload
    dtype is taken from the cube and must be one of the supported
    sample types. The pair is replaced atomically (see ``_replacing_pair``).
    """
    header = CubeHeader.of(cube, interleave)
    payload = cube.data.transpose(_FILE_AXES[interleave])
    with _replacing_pair(path, header) as fh:
        fh.write(np.ascontiguousarray(payload, dtype=header.dtype))
    return _paths(path)[0]


class _Sha256Behind:
    """sha256 of buffers, each hashed on a thread while the caller goes on.

    Buffers are hashed in the order given. A buffer must stay unchanged
    until the next ``update`` (or ``hexdigest``) returns, which first
    waits for the buffer before it; hashlib releases the GIL, so the
    hash of one block overlaps the work on the next.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._thread: threading.Thread | None = None

    def _join(self) -> None:
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def update(self, data: np.ndarray) -> None:
        self._join()
        self._thread = threading.Thread(target=self._sha.update, args=(data,))
        self._thread.start()

    def hexdigest(self) -> str:
        self._join()
        return self._sha.hexdigest()


def write_band_blocks(
    path: str | os.PathLike, header: CubeHeader, blocks: Iterable[np.ndarray]
) -> str:
    """Write a bsq cube pair a block of band planes at a time; returns the payload's sha256.

    Each block is an (n, rows, cols) array holding the next n planes.
    Every byte written is hashed on its way to the file, so the digest
    needs no second read. The pair is replaced atomically as
    ``write_cube`` replaces it, also when ``blocks`` raises.
    """
    if header.interleave != "bsq":
        raise UnsupportedFormatError(f"band blocks are written bsq, not {header.interleave}")
    sha = _Sha256Behind()
    planes = 0
    with _replacing_pair(path, header) as fh:
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=header.dtype)
            if block.ndim != 3 or block.shape[1:] != (header.rows, header.cols):
                raise ShapeMismatchError(
                    f"block {block.shape} is not band planes of {header.rows}x{header.cols}"
                )
            planes += block.shape[0]
            sha.update(block)
            fh.write(block)
        if planes != header.bands:
            raise ShapeMismatchError(f"{planes} band planes for {header.bands} bands")
    return sha.hexdigest()


def _parse_header(hdr_path: str) -> dict:
    fields: dict[str, tuple[str, int]] = {}
    with open(hdr_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CubeParseError(f"expected 'key = value', got {line!r}", lineno)
            key, _, value = line.partition("=")
            fields[key.strip().lower()] = (value.strip(), lineno)
    return fields


def _read_header(path: str | os.PathLike) -> tuple[CubeHeader, str]:
    """The parsed header and the raw path, after checking the payload size.

    Raises a parse error (with line number) for malformed headers, an
    unsupported-format error for unknown interleave/sample type, and a
    size error when the raw payload does not match the geometry.
    """
    hdr_path, raw_path = _paths(path)
    fields = _parse_header(hdr_path)

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

    dtype_name, lineno = need("data type")
    if dtype_name not in _DTYPES:
        raise UnsupportedFormatError(f"unsupported sample type {dtype_name!r}")
    interleave, lineno = need("interleave")
    if interleave not in INTERLEAVES:
        raise UnsupportedFormatError(f"unsupported interleave {interleave!r}")
    units, lineno = need("units")

    wl_text, lineno = need("wavelength")
    try:
        wavelengths = np.array(
            [float(tok) for tok in wl_text.split(",") if tok.strip()], dtype=np.float64
        )
    except ValueError:
        raise CubeParseError("wavelength list contains a non-numeric entry", lineno)
    if wavelengths.size != dims["bands"]:
        raise CubeParseError(
            f"{wavelengths.size} wavelengths for {dims['bands']} bands", lineno
        )

    band_labels = None
    if "band labels" in fields:
        band_labels = tuple(
            tok.strip() for tok in fields["band labels"][0].split(",") if tok.strip()
        )

    header = CubeHeader(dims["lines"], dims["samples"], dims["bands"], dtype_name,
                        interleave, units, wavelengths, band_labels)
    expected = header.rows * header.cols * header.bands * header.dtype.itemsize
    actual_bytes = os.path.getsize(raw_path)
    if actual_bytes != expected:
        raise CubeSizeError(
            f"{raw_path}: expected {expected} bytes "
            f"({dims['lines']}x{dims['samples']}x{dims['bands']} {dtype_name}), "
            f"found {actual_bytes}"
        )
    return header, raw_path


def _mapped(header: CubeHeader, raw_path: str) -> np.ndarray:
    """(rows, cols, bands) view of a copy-on-write map of the payload."""
    flat = np.memmap(raw_path, dtype=header.dtype, mode="c").view(np.ndarray)
    return _rows_cols_bands(flat.reshape(header.file_shape()), header.interleave)


def read_cube(path: str | os.PathLike) -> HyperCube:
    """Read a cube pair back into memory.

    The data is a (rows, cols, bands) view of a copy-on-write map of the
    payload in the file's interleave: writable, but writes never reach
    the file. Header and size errors are those of ``_read_header``.
    """
    header, raw_path = _read_header(path)
    return HyperCube(
        data=_mapped(header, raw_path),
        wavelengths=header.wavelengths,
        units=header.units,
        band_labels=header.band_labels,
    )


def _check_finite(block: np.ndarray, raw_path: str) -> None:
    if block.dtype.kind == "f" and not np.isfinite(block).all():
        raise ShapeMismatchError(f"{raw_path}: cube data contains non-finite samples")


class CubeStream:
    """One pass over a cube pair's payload, a block of whole band planes at a time.

    The header is parsed and the payload size checked as ``read_cube``
    does. Iterating yields ``(bands, block)``: the slice of band indices
    and their (n, rows, cols) planes, each block checked for NaN and inf.
    A bsq payload is read in file order, several planes per ``readinto``
    into two reused buffers, so a block is valid only until the next one
    is read. Every byte read is hashed: after a complete pass ``digest``
    is the payload's sha256 and ``stat`` is the file's stat from before
    the first read. bil and bip payloads give the same blocks from a
    mapped view and leave ``digest`` None.

    A block holds as many planes as fit in ``BLOCK_BYTES``, at least one.
    """

    def __init__(self, path: str | os.PathLike):
        self.header, self.raw_path = _read_header(path)
        self.digest: str | None = None
        self._fh = open(self.raw_path, "rb")
        self.stat = os.fstat(self._fh.fileno())

    def __enter__(self) -> CubeStream:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def read_panel(self, region: tuple[int, int, int, int]) -> HyperCube:
        """The (height, width, bands) pixels of the panel region.

        Only the region's rows are read, with ``pread``: touching a small
        crop through a map can map far more of the file than the crop.
        """
        h = self.header
        _check_panel_region(region, h.rows, h.cols)
        top, left, height, width = region
        part = np.empty(h._replace(rows=height).file_shape(), h.dtype)
        # the region's rows lie in one run per band plane (bsq) or in one run
        runs = part.reshape(h.bands if h.interleave == "bsq" else 1, -1)
        row_bytes = runs.shape[1] // height * h.dtype.itemsize
        for i, run in enumerate(runs):
            if os.preadv(self._fh.fileno(), [run], (i * h.rows + top) * row_bytes) != run.nbytes:
                raise CubeSizeError(f"{self.raw_path}: payload shrank while it was read")
        data = _rows_cols_bands(part, h.interleave)[:, left : left + width]
        return HyperCube(data, h.wavelengths, h.units, h.band_labels)

    def __iter__(self) -> Iterator[tuple[slice, np.ndarray]]:
        h = self.header
        step = max(1, BLOCK_BYTES // (h.rows * h.cols * h.dtype.itemsize))
        if h.interleave != "bsq":
            planes = _mapped(h, self.raw_path).transpose(2, 0, 1)
            for start in range(0, h.bands, step):
                bands = slice(start, min(start + step, h.bands))
                _check_finite(planes[bands], self.raw_path)
                yield bands, planes[bands]
            return
        sha = _Sha256Behind()
        # two buffers: one block is hashed while the next is read into the other
        buffers = [np.empty((min(step, h.bands), h.rows, h.cols), h.dtype) for _ in range(2)]
        self._fh.seek(0)
        for i, start in enumerate(range(0, h.bands, step)):
            bands = slice(start, min(start + step, h.bands))
            block = buffers[i % 2][: bands.stop - start]
            if self._fh.readinto(block) != block.nbytes:
                raise CubeSizeError(f"{self.raw_path}: payload shrank while it was read")
            sha.update(block)
            _check_finite(block, self.raw_path)
            yield bands, block
        self.digest = sha.hexdigest()


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
    """Single-panel empirical line correction.

    ``panel_region`` is (top, left, height, width) of pixels covering
    the reference panel; ``panel_reflectance`` gives the panel's known
    reflectance per band. Each pixel is divided by the panel mean and
    rescaled by the known reflectance. Output is clamped below at zero;
    values above one are preserved (specular pixels stay visible).

    With a ``mask`` the panel is still checked in every input band, but
    only the kept bands are scaled and returned.
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
    if np.any(mean_panel <= 0):
        bad = int(np.argmax(mean_panel <= 0))
        raise DegeneratePanelError(
            f"panel mean is nonpositive in band {bad} "
            f"({cube.wavelengths[bad]:.1f} nm)"
        )

    gain = panel_reflectance / mean_panel
    out = None
    if mask is not None:
        # the selection is a fresh copy: scale it in place
        cube = apply_band_mask(cube, mask)
        gain = gain[mask.keep]
        if cube.data.dtype == np.float64:
            out = cube.data
    out = np.multiply(cube.data, gain, out=out)
    np.maximum(out, 0.0, out=out)
    return HyperCube(
        data=out,
        wavelengths=cube.wavelengths,
        units="reflectance",
        band_labels=cube.band_labels,
    )


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

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep)


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
    labels = None
    if cube.band_labels is not None:
        labels = tuple(l for l, k in zip(cube.band_labels, mask.keep) if k)
    return HyperCube(
        data=cube.data[:, :, mask.keep],
        wavelengths=cube.wavelengths[mask.keep],
        units=cube.units,
        band_labels=labels,
    )
