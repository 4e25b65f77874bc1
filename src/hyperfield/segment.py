"""Plot segmentation on reflectance cubes.

The senescence index separates ripe wheat from soil, shadow, and green
cover; thresholding, hole filling, and a rectangular opening turn the
index plane into clean plot blobs whose bounding boxes feed the grid
mapper. Masks are plain 2-D boolean arrays aligned to the cube grid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cube import CubeStream, HyperCube
from .errors import DataError
from .table import read_table, write_table

RED_WINDOW_NM = (665.0, 675.0)
BLUE_WINDOW_NM = (445.0, 455.0)

DEFAULT_SE = (10, 5)
DEFAULT_MIN_AREA_PX = 1000


@dataclass(frozen=True)
class PlotBox:
    """Axis-aligned bounding box of one detected plot blob."""

    top: int
    left: int
    height: int
    width: int
    area_px: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0 or self.area_px <= 0:
            raise DataError(f"degenerate plot box {self}")


def window_indices(wavelengths: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Indices of bands inside [lo, hi] inclusive; errors when empty."""
    lo, hi = window
    idx = np.flatnonzero((wavelengths >= lo) & (wavelengths <= hi))
    if idx.size == 0:
        raise DataError(
            f"no bands inside {lo:.1f}-{hi:.1f} nm "
            f"(grid spans {wavelengths[0]:.1f}-{wavelengths[-1]:.1f} nm)"
        )
    return idx


def _band_mean(data: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per pixel, the float64 mean of the bands ``idx``, summed in band order."""
    total = data[:, :, idx[0]].astype(np.float64)
    for i in idx[1:]:
        total += data[:, :, i]
    return total / idx.size


def ndpsi(
    cube: HyperCube | CubeStream,
    red_window: tuple[float, float] = RED_WINDOW_NM,
    blue_window: tuple[float, float] = BLUE_WINDOW_NM,
) -> np.ndarray:
    """Normalized-difference senescence index plane.

    Mean reflectance over the red window minus mean over the blue
    window, over their sum. Pixels with a zero denominator map to 0.
    Bounded by [-1, 1] for non-negative reflectance.

    Both windows are checked before any sample is read. A ``CubeStream``
    is read in ``read_strips``' row strips, never whole. Each mean sums
    its bands as float64 in band order, so neither the strips nor the
    memory order or sample type change the bits.
    """
    red_idx = window_indices(cube.wavelengths, red_window)
    blue_idx = window_indices(cube.wavelengths, blue_window)
    strips = cube.read_strips() if isinstance(cube, CubeStream) else [(0, cube)]
    out = np.zeros((cube.rows, cube.cols))
    for top, strip in strips:
        red = _band_mean(strip.data, red_idx)
        blue = _band_mean(strip.data, blue_idx)
        den = red + blue
        np.divide(red - blue, den, out=out[top : top + strip.rows], where=den != 0)
    return out


def otsu_threshold(plane: np.ndarray) -> float:
    """Otsu's threshold on a 256-bin histogram of the value range.

    Returns the lower edge of the first foreground bin, so that
    ``plane > threshold`` reproduces the Otsu class split. A constant
    plane has no between-class structure and raises.
    """
    values = np.asarray(plane, dtype=np.float64).ravel()
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        raise DataError(f"plane is constant at {lo}; no threshold separates it")
    nbins = 256
    width = (hi - lo) / nbins
    bins = np.minimum(((values - lo) / width).astype(np.int64), nbins - 1)
    hist = np.bincount(bins, minlength=nbins).astype(np.float64)

    # between-class variance for every split: class0 = bins <= t
    weight0 = np.cumsum(hist)
    total = weight0[-1]
    mean0 = np.cumsum(hist * np.arange(nbins))
    weight1 = total - weight0
    mean_total = mean0[-1]
    valid = (weight0 > 0) & (weight1 > 0)
    mu0 = np.where(valid, mean0 / np.where(weight0 == 0, 1, weight0), 0.0)
    mu1 = np.where(valid, (mean_total - mean0) / np.where(weight1 == 0, 1, weight1), 0.0)
    between = np.where(valid, weight0 * weight1 * (mu0 - mu1) ** 2, -1.0)
    t = int(np.argmax(between))  # first maximum: deterministic on ties
    return lo + (t + 1) * width


def threshold_mask(plane: np.ndarray, threshold: float) -> np.ndarray:
    """Foreground = strictly above the threshold."""
    return np.asarray(plane) > threshold


def _row_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of True in each row of a 2-D mask, in row-major order.

    Returns ``(rows, starts, stops)``; run ``i`` covers
    ``mask[rows[i], starts[i]:stops[i]]``.
    """
    padded = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    stops = np.nonzero(edges == -1)[1]
    return rows, starts, stops


def _run_components(
    rows: np.ndarray, starts: np.ndarray, stops: np.ndarray, width: int, slack: int
) -> np.ndarray:
    """The component of each row run, as the index of the component's first run.

    Runs in adjacent rows join when their columns overlap (``slack`` 0,
    4-connectivity) or overlap or touch at a corner (``slack`` 1,
    8-connectivity). Each component takes the index of its first run in
    row-major order, so sorting the roots numbers the components in the
    order a raster scan meets them.
    """
    # Row-major keys; the pitch keeps a row's keys, widened by the slack,
    # clear of the next row's. Run i touches runs first[i] to last[i] - 1
    # of the row below: one edge per pair.
    pitch = width + 2
    below = (rows + 1) * pitch
    first = np.searchsorted(rows * pitch + stops, below + starts - slack, side="right")
    last = np.searchsorted(rows * pitch + starts, below + stops + slack, side="left")
    count = np.maximum(last - first, 0)
    upper = np.repeat(np.arange(rows.size), count)
    lower = np.arange(upper.size) - np.repeat(np.cumsum(count) - count - first, count)
    # Union-find: hook each root onto the smallest root it shares an edge
    # with, then point every run at its root, until no edge joins two trees.
    # Roots only ever hook onto smaller roots, so each component ends with
    # its smallest run index as the root.
    parent = np.arange(rows.size)
    while upper.size:
        a, b = parent[upper], parent[lower]
        joins = a != b
        upper, lower, a, b = upper[joins], lower[joins], a[joins], b[joins]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background components not 4-connected to the image border."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    rows, starts, stops = _row_runs(~mask)
    roots = _run_components(rows, starts, stops, width, slack=0)
    border = (rows == 0) | (rows == height - 1) | (starts == 0) | (stops == width)
    outside = np.zeros(rows.size, dtype=bool)
    outside[roots[border]] = True
    hole = ~outside[roots]
    # +1 where a hole run starts, -1 where it stops; the running sum paints it
    paint = np.zeros((height, width + 1), dtype=np.int8)
    paint[rows[hole], starts[hole]] = 1
    paint[rows[hole], stops[hole]] = -1
    return mask | (np.cumsum(paint[:, :width], axis=1) > 0)


def _window_counts(mask: np.ndarray, size: int, offset: int, axis: int) -> np.ndarray:
    """Count of True in ``[i + offset, i + offset + size)`` along ``axis``, per ``i``.

    Positions outside the mask count as False.
    """
    n = mask.shape[axis]
    total = np.insert(np.cumsum(mask, axis=axis), 0, 0, axis=axis)
    lo = np.clip(np.arange(n) + offset, 0, n)
    hi = np.clip(np.arange(n) + offset + size, 0, n)
    return np.take(total, hi, axis=axis) - np.take(total, lo, axis=axis)


def binary_open(mask: np.ndarray, se: tuple[int, int] = DEFAULT_SE) -> np.ndarray:
    """Morphological opening with a flat rectangular structuring element.

    Pixels outside the image are background, so blobs touching the border
    erode like any others. The rectangle is separable: erosion and then
    dilation run along the rows and then the columns. Along an axis of
    element size ``n``, erosion keeps a pixel when all of the ``n`` pixels
    from ``n // 2`` before it are set. Dilation reflects the element, so
    it sets a pixel when any of the ``n`` pixels from ``n - 1 - n // 2``
    before it is set. For odd ``n`` both windows are centred; for even
    ``n`` they sit one pixel apart, which keeps the opening idempotent.
    """
    mask = np.asarray(mask, dtype=bool)
    se_h, se_w = se
    if se_h <= 0 or se_w <= 0:
        raise DataError(f"structuring element {se} must be positive")
    for axis, size in enumerate(se):
        mask = _window_counts(mask, size, -(size // 2), axis) == size
    for axis, size in enumerate(se):
        mask = _window_counts(mask, size, size // 2 - size + 1, axis) > 0
    return mask


def extract_plots(mask: np.ndarray, min_area_px: int = DEFAULT_MIN_AREA_PX) -> list[PlotBox]:
    """Bounding boxes of 8-connected components with enough area.

    Boxes are ordered by (top, left), ties in raster-scan order of the
    components' first pixels; overlapping boxes are allowed and left for
    the grid mapper to resolve.
    """
    mask = np.asarray(mask, dtype=bool)
    rows, starts, stops = _row_runs(mask)
    roots = _run_components(rows, starts, stops, mask.shape[1], slack=1)
    first, component = np.unique(roots, return_inverse=True)
    count = first.size
    areas = np.zeros(count, dtype=np.int64)
    np.add.at(areas, component, stops - starts)
    bottom = np.zeros(count, dtype=np.int64)
    np.maximum.at(bottom, component, rows)
    left = np.full(count, mask.shape[1], dtype=np.int64)
    np.minimum.at(left, component, starts)
    right = np.zeros(count, dtype=np.int64)
    np.maximum.at(right, component, stops)
    top = rows[first]
    boxes = [
        PlotBox(
            top=int(top[i]),
            left=int(left[i]),
            height=int(bottom[i] - top[i] + 1),
            width=int(right[i] - left[i]),
            area_px=int(areas[i]),
        )
        for i in np.flatnonzero(areas >= min_area_px)
    ]
    boxes.sort(key=lambda b: (b.top, b.left))
    return boxes


def write_boxes_csv(path: str | os.PathLike, boxes: list[PlotBox]) -> None:
    rows = [(b.top, b.left, b.height, b.width, b.area_px) for b in boxes]
    write_table(path, ["top", "left", "height", "width", "area_px"], rows)


def read_boxes_csv(path: str | os.PathLike) -> list[PlotBox]:
    fields = ("top", "left", "height", "width", "area_px")
    return [PlotBox(*values) for values in read_table(path, fields).ints(*fields)]
