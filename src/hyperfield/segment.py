"""Plot segmentation on reflectance cubes.

The senescence index separates ripe wheat from soil, shadow, and green
cover; thresholding, hole filling, and a rectangular opening turn the
index plane into clean plot blobs whose bounding boxes feed the grid
mapper. Masks are plain 2-D boolean arrays aligned to the cube grid.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .cube import HyperCube
from .errors import (
    DegenerateHistogramError,
    ShapeMismatchError,
    WavelengthCoverageError,
)
from .table import read_table

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
            raise ShapeMismatchError(f"degenerate plot box {self}")


def window_indices(wavelengths: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Indices of bands inside [lo, hi] inclusive; errors when empty."""
    lo, hi = window
    idx = np.flatnonzero((wavelengths >= lo) & (wavelengths <= hi))
    if idx.size == 0:
        raise WavelengthCoverageError(
            f"no bands inside {lo:.1f}-{hi:.1f} nm "
            f"(grid spans {wavelengths[0]:.1f}-{wavelengths[-1]:.1f} nm)"
        )
    return idx


def ndpsi(
    cube: HyperCube,
    red_window: tuple[float, float] = RED_WINDOW_NM,
    blue_window: tuple[float, float] = BLUE_WINDOW_NM,
) -> np.ndarray:
    """Normalized-difference senescence index plane.

    Mean reflectance over the red window minus mean over the blue
    window, over their sum. Pixels with a zero denominator map to 0.
    Bounded by [-1, 1] for non-negative reflectance.
    """
    red_idx = window_indices(cube.wavelengths, red_window)
    blue_idx = window_indices(cube.wavelengths, blue_window)
    data = cube.data.astype(np.float64, copy=False)
    red = data[:, :, red_idx].mean(axis=2)
    blue = data[:, :, blue_idx].mean(axis=2)
    num = red - blue
    den = red + blue
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
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
        raise DegenerateHistogramError(
            f"plane is constant at {lo}; no threshold separates it"
        )
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


def threshold_mask(plane: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Foreground = strictly above the threshold (Otsu when omitted)."""
    if threshold is None:
        threshold = otsu_threshold(plane)
    return np.asarray(plane) > threshold


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background components not 4-connected to the image border."""
    from scipy import ndimage  # imported here so the CLI starts without scipy

    mask = np.asarray(mask, dtype=bool)
    # default cross structuring element = 4-connectivity
    return ndimage.binary_fill_holes(mask)


def binary_open(mask: np.ndarray, se: tuple[int, int] = DEFAULT_SE) -> np.ndarray:
    """Morphological opening with a flat rectangular structuring element.

    The origin sits at (height//2, width//2); pixels outside the image
    are background, so blobs touching the border erode like any others.
    Erosion and dilation use the same (unmirrored) element, making the
    opening idempotent.
    """
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    se_h, se_w = se
    if se_h <= 0 or se_w <= 0:
        raise ShapeMismatchError(f"structuring element {se} must be positive")
    return ndimage.binary_opening(mask, structure=np.ones(se, dtype=bool))


def extract_plots(mask: np.ndarray, min_area_px: int = DEFAULT_MIN_AREA_PX) -> list[PlotBox]:
    """Bounding boxes of 8-connected components with enough area.

    Boxes are ordered by (top, left); overlapping boxes are allowed and
    left for the grid mapper to resolve.
    """
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    boxes = []
    if count:
        areas = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
        for idx, sl in enumerate(ndimage.find_objects(labels)):
            if areas[idx] >= min_area_px:
                boxes.append(
                    PlotBox(
                        top=int(sl[0].start),
                        left=int(sl[1].start),
                        height=int(sl[0].stop - sl[0].start),
                        width=int(sl[1].stop - sl[1].start),
                        area_px=int(areas[idx]),
                    )
                )
    boxes.sort(key=lambda b: (b.top, b.left))
    return boxes


def write_boxes_csv(path: str | os.PathLike, boxes: list[PlotBox]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["top", "left", "height", "width", "area_px"])
        for b in boxes:
            writer.writerow([b.top, b.left, b.height, b.width, b.area_px])


def read_boxes_csv(path: str | os.PathLike) -> list[PlotBox]:
    fields = ("top", "left", "height", "width", "area_px")
    return [PlotBox(*values) for values in read_table(path, fields).ints(*fields)]
