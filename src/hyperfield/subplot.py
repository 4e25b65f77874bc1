"""Sub-plot tiling, proportional yield allocation, and window features.

A plot crop is tiled by square windows from its top-left corner; the
right and bottom edges behave as if the plot were padded with
background, so every foreground pixel belongs to exactly one window.
The plot's measured yield is split across windows in proportion to
their spike+leaf pixel counts, which conserves the total by
construction. Each window with at least one foreground pixel yields a
feature vector: per-band mean, per-band population standard deviation,
and the pixel count (2*bands + 1 entries).
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyPlotError, ShapeMismatchError

SUPPORTED_WINDOWS_PX = (10, 15, 20)
DEFAULT_WINDOW_PX = 15
DEFAULT_MIDDLE_TAU = 0.05


@dataclass(frozen=True)
class Window:
    """One tile: grid position plus its clipped pixel extent."""

    row: int
    col: int
    top: int
    left: int
    height: int
    width: int


@dataclass(frozen=True)
class PlotYieldRecord:
    """Measured yield of one plot, in grams."""

    plot_id: str
    yield_grams: float

    def __post_init__(self):
        if not (math.isfinite(self.yield_grams) and self.yield_grams >= 0):
            raise DataError(
                f"plot {self.plot_id}: yield {self.yield_grams!r} is not a "
                "finite non-negative number"
            )


def write_yields_csv(path: str | os.PathLike, records: list[PlotYieldRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plot_id", "yield_grams"])
        for r in records:
            writer.writerow([r.plot_id, repr(r.yield_grams)])


def read_yields_csv(path: str | os.PathLike) -> dict[str, float]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["plot_id", "yield_grams"]:
            raise DataError(f"{path}: expected header plot_id,yield_grams")
        yields: dict[str, float] = {}
        for row in reader:
            if not row:
                continue
            if row[0] in yields:
                raise DataError(f"{path}: duplicate plot id {row[0]!r}")
            try:
                record = PlotYieldRecord(row[0], float(row[1]))
            except DataError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
            except (IndexError, ValueError):
                raise DataError(f"{path}: malformed yield row {row!r}")
            yields[record.plot_id] = record.yield_grams
    return yields


def tile_plot(rows: int, cols: int, window_px: int = DEFAULT_WINDOW_PX) -> list[Window]:
    """Row-major window grid covering a rows x cols plot.

    ceil(rows/w) * ceil(cols/w) windows; edge windows are clipped to
    the plot, which is equivalent to padding with background.
    """
    if window_px < 2:
        raise ShapeMismatchError(f"window size must be at least 2, got {window_px}")
    if rows <= 0 or cols <= 0:
        raise ShapeMismatchError(f"plot extent {rows}x{cols} is empty")
    windows = []
    for r in range((rows + window_px - 1) // window_px):
        for c in range((cols + window_px - 1) // window_px):
            top, left = r * window_px, c * window_px
            windows.append(
                Window(
                    row=r,
                    col=c,
                    top=top,
                    left=left,
                    height=min(window_px, rows - top),
                    width=min(window_px, cols - left),
                )
            )
    return windows


def window_grid_shape(rows: int, cols: int, window_px: int) -> tuple[int, int]:
    return (rows + window_px - 1) // window_px, (cols + window_px - 1) // window_px


def count_sl(mask: np.ndarray, windows: list[Window]) -> np.ndarray:
    """Foreground pixel count per window."""
    mask = np.asarray(mask, dtype=bool)
    return np.array(
        [
            int(mask[w.top : w.top + w.height, w.left : w.left + w.width].sum())
            for w in windows
        ]
    )


def allocate_yield(counts: np.ndarray, plot_yield: float) -> np.ndarray:
    """Split the plot yield proportionally to window pixel counts.

    The allocation conserves the total exactly up to float rounding.
    A plot with no foreground pixels cannot be allocated.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise EmptyPlotError("plot has no foreground pixels; nothing to allocate")
    if np.any(counts < 0):
        raise DataError("negative window count")
    return counts / counts.sum() * float(plot_yield)


def extract_features(data: np.ndarray, mask: np.ndarray, window: Window) -> np.ndarray:
    """Feature vector of one window: band means, band stds, pixel count.

    Statistics run over foreground pixels only, accumulated in a single
    pass (sums and squared sums). Population variance, floored at zero
    against rounding.
    """
    sub = data[
        window.top : window.top + window.height,
        window.left : window.left + window.width,
    ]
    picked = np.asarray(
        mask[
            window.top : window.top + window.height,
            window.left : window.left + window.width,
        ],
        dtype=bool,
    )
    n = int(picked.sum())
    if n == 0:
        raise DataError(f"window ({window.row},{window.col}) has no foreground pixels")
    pixels = sub[picked].astype(np.float64)  # (n, bands)
    total = pixels.sum(axis=0)
    total_sq = (pixels * pixels).sum(axis=0)
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    return np.concatenate([mean, np.sqrt(var), [float(n)]])


def feature_length(bands: int) -> int:
    return 2 * bands + 1


@dataclass
class SubPlotRecord:
    """One window of one plot: target yield plus its feature vector."""

    plot_id: str
    window_row: int
    window_col: int
    n_sl: int
    yield_g: float
    features: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, SubPlotRecord)
            and self.plot_id == other.plot_id
            and self.window_row == other.window_row
            and self.window_col == other.window_col
            and self.n_sl == other.n_sl
            and self.yield_g == other.yield_g
            and np.array_equal(self.features, other.features)
        )


def build_records(
    plot_id: str,
    data: np.ndarray,
    mask: np.ndarray,
    plot_yield: float,
    window_px: int = DEFAULT_WINDOW_PX,
) -> list[SubPlotRecord]:
    """Tile, allocate, and featurize one plot crop.

    Windows without foreground pixels receive zero yield and are
    excluded from the result; the remaining allocations still sum to
    the plot yield. Records come back in row-major window order.
    """
    data = np.asarray(data)
    mask = np.asarray(mask, dtype=bool)
    if data.ndim != 3 or data.shape[:2] != mask.shape:
        raise ShapeMismatchError(
            f"data {data.shape} and mask {mask.shape} do not align"
        )
    windows = tile_plot(mask.shape[0], mask.shape[1], window_px)
    counts = count_sl(mask, windows)
    allocated = allocate_yield(counts, plot_yield)
    records = []
    for w, n, y in zip(windows, counts, allocated):
        if n == 0:
            continue
        records.append(
            SubPlotRecord(
                plot_id=plot_id,
                window_row=w.row,
                window_col=w.col,
                n_sl=int(n),
                yield_g=float(y),
                features=extract_features(data, mask, w),
            )
        )
    return records


def write_records_csv(path: str | os.PathLike, records: list[SubPlotRecord]) -> None:
    if not records:
        raise DataError("no records to write")
    k = records[0].features.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["plot_id", "window_row", "window_col", "n_sl", "yield_g"]
            + [f"f{i + 1}" for i in range(k)]
        )
        for r in records:
            if r.features.size != k:
                raise ShapeMismatchError("records carry differing feature lengths")
            writer.writerow(
                [r.plot_id, r.window_row, r.window_col, r.n_sl, repr(r.yield_g)]
                + [repr(float(v)) for v in r.features]
            )


def read_records_csv(path: str | os.PathLike) -> list[SubPlotRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:5] != ["plot_id", "window_row", "window_col", "n_sl", "yield_g"]:
            raise DataError(f"{path}: unexpected records header")
        records = []
        for row in reader:
            if not row:
                continue
            try:
                records.append(
                    SubPlotRecord(
                        plot_id=row[0],
                        window_row=int(row[1]),
                        window_col=int(row[2]),
                        n_sl=int(row[3]),
                        yield_g=float(row[4]),
                        features=np.array([float(v) for v in row[5:]]),
                    )
                )
            except (IndexError, ValueError):
                raise DataError(f"{path}: malformed record row {row[:5]!r}")
    return records


def middle_third_ratio(
    records: list[SubPlotRecord],
    n_window_rows: int,
    n_window_cols: int,
    tau: float = DEFAULT_MIDDLE_TAU,
) -> tuple[float, str]:
    """Fraction of plot yield in the middle third of the long axis.

    Thirds partition window indices along the longer window-grid axis
    (columns on ties); leftover indices join the middle. Returns the
    fraction and a label: ``uniform`` within 1/3 +- tau,
    ``one-side-heavy`` below, ``middle-heavy`` above.
    """
    if not records:
        raise DataError("no records for this plot")
    axis_len, pick = (
        (n_window_cols, lambda r: r.window_col)
        if n_window_cols >= n_window_rows
        else (n_window_rows, lambda r: r.window_row)
    )
    base = axis_len // 3
    lo, hi = base, axis_len - base  # middle = [lo, hi), holds the remainder
    total = sum(r.yield_g for r in records)
    if total <= 0:
        raise DataError("plot yield is zero; ratio undefined")
    middle = sum(r.yield_g for r in records if lo <= pick(r) < hi)
    fraction = middle / total
    if fraction < 1.0 / 3.0 - tau:
        label = "one-side-heavy"
    elif fraction > 1.0 / 3.0 + tau:
        label = "middle-heavy"
    else:
        label = "uniform"
    return fraction, label


def identical_yield_fraction(records: list[SubPlotRecord]) -> float:
    """Fraction of records whose allocated yield repeats within their plot.

    Smaller windows produce fewer distinct pixel counts, so this is the
    quantization cost of the window size.
    """
    if not records:
        raise DataError("no records")
    by_plot: dict[str, Counter] = {}
    for r in records:
        by_plot.setdefault(r.plot_id, Counter())[r.yield_g] += 1
    duplicated = sum(
        count
        for counter in by_plot.values()
        for count in counter.values()
        if count > 1
    )
    return duplicated / len(records)
