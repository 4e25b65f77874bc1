"""Sub-plot tiling, proportional yield allocation, and window features.

Square windows of w pixels tile a plot crop from its top-left corner
as a grid of ceil(rows/w) x ceil(cols/w). The window at grid position
(r, c) is the slice [r*w:(r+1)*w, c*w:(c+1)*w], which numpy clips at
the plot's right and bottom edges, so it counts as if the plot were
padded with background and every foreground pixel belongs to exactly
one window. ``window_counts`` gives every window's foreground count as
that grid in one reshape and sum. The plot's measured yield is split
across windows in proportion to their spike+leaf pixel counts, which
conserves the total by construction. Each window with at least one
foreground pixel yields a feature vector: per-band mean, per-band
population standard deviation, and the pixel count (2*bands + 1
entries).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .table import is_safe_id, read_table, write_table

DEFAULT_WINDOW_PX = 15
DEFAULT_MIDDLE_TAU = 0.05


def write_yields_csv(path: str | os.PathLike, yields: dict[str, float]) -> None:
    """One row per plot, in the order of ``yields``."""
    write_table(path, ["plot_id", "yield_grams"], yields.items())


def read_yields_csv(path: str | os.PathLike) -> dict[str, float]:
    """{plot_id: grams}; a negative yield raises ``DataError`` naming its line."""
    table = read_table(path, ("plot_id",), floats=("yield_grams",), key="plot_id")
    yields = dict(zip(table.text("plot_id"), table.floats[:, 0].tolist()))
    for i, (plot_id, grams) in enumerate(yields.items()):
        if grams < 0:
            raise DataError(f"{table.where(i)}: plot {plot_id}: yield {grams!r} is negative")
    return yields


def window_grid_shape(rows: int, cols: int, window_px: int) -> tuple[int, int]:
    """Windows down and across a rows x cols plot: each extent over the window, rounded up."""
    return (rows + window_px - 1) // window_px, (cols + window_px - 1) // window_px


def window_counts(mask: np.ndarray, window_px: int = DEFAULT_WINDOW_PX) -> np.ndarray:
    """Foreground pixel count of every window, as the plot's window grid.

    The mask is padded with background up to whole windows, so the edge
    windows count only the plot pixels they hold.
    """
    if window_px < 2:
        raise DataError(f"window size must be at least 2, got {window_px}")
    rows, cols = np.shape(mask)
    if rows <= 0 or cols <= 0:
        raise DataError(f"plot extent {rows}x{cols} is empty")
    grid_rows, grid_cols = window_grid_shape(rows, cols, window_px)
    padded = np.zeros((grid_rows * window_px, grid_cols * window_px), dtype=bool)
    padded[:rows, :cols] = mask
    return padded.reshape(grid_rows, window_px, grid_cols, window_px).sum(axis=(1, 3))


def allocate_yield(counts: np.ndarray, plot_yield: float) -> np.ndarray:
    """Split the plot yield proportionally to window pixel counts.

    The allocation conserves the total exactly up to float rounding.
    A plot with no foreground pixels cannot be allocated.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise DataError("plot has no foreground pixels; nothing to allocate")
    if np.any(counts < 0):
        raise DataError("negative window count")
    return counts / counts.sum() * float(plot_yield)


def extract_features(
    data: np.ndarray, mask: np.ndarray, row: int, col: int, window_px: int = DEFAULT_WINDOW_PX
) -> np.ndarray:
    """Feature vector of the window at grid position (row, col): band
    means, band stds, pixel count.

    Statistics run over foreground pixels only, accumulated in a single
    pass (sums and squared sums). Population variance, floored at zero
    against rounding.
    """
    at = np.s_[row * window_px : (row + 1) * window_px, col * window_px : (col + 1) * window_px]
    picked = np.asarray(mask[at], dtype=bool)
    n = int(picked.sum())
    if n == 0:
        raise DataError(f"window ({row},{col}) has no foreground pixels")
    pixels = data[at][picked].astype(np.float64)  # (n, bands)
    total = pixels.sum(axis=0)
    total_sq = (pixels * pixels).sum(axis=0)
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    return np.concatenate([mean, np.sqrt(var), [float(n)]])


@dataclass(frozen=True)
class Records:
    """Sub-plot records as columns: one row per window with foreground pixels.

    ``windows`` holds each row's window_row, window_col and n_sl.
    """

    plot_ids: list[str]
    windows: np.ndarray  # (n, 3) int
    yields: np.ndarray  # (n,) grams
    features: np.ndarray  # (n, k)

    def __post_init__(self):
        n = len(self.plot_ids)
        if (
            np.shape(self.windows) != (n, 3)
            or np.shape(self.yields) != (n,)
            or np.ndim(self.features) != 2
            or len(self.features) != n
        ):
            raise DataError(
                f"record columns do not align: {n} plot ids, windows "
                f"{np.shape(self.windows)}, yields {np.shape(self.yields)}, "
                f"features {np.shape(self.features)}"
            )

    def __len__(self) -> int:
        return len(self.plot_ids)

    @classmethod
    def concat(cls, parts: list[Records]) -> Records:
        """The rows of ``parts``, in order."""
        if not parts:
            raise DataError("no records")
        if len({part.features.shape[1] for part in parts}) > 1:
            raise DataError("records carry differing feature lengths")
        return cls(
            [plot_id for part in parts for plot_id in part.plot_ids],
            np.concatenate([part.windows for part in parts]),
            np.concatenate([part.yields for part in parts]),
            np.concatenate([part.features for part in parts]),
        )

    @classmethod
    def join_bands(cls, parts: list[Records]) -> Records:
        """One plot's records from its ``build_records`` over consecutive band
        groups, in order: features ``[means, stds, n]`` over every band. A
        band's statistics do not depend on the other bands."""
        means, stds = zip(*(np.hsplit(part.features[:, :-1], 2) for part in parts))
        return replace(parts[0], features=np.hstack([*means, *stds, parts[0].features[:, -1:]]))


def build_records(
    plot_id: str,
    data: np.ndarray,
    mask: np.ndarray,
    plot_yield: float,
    window_px: int = DEFAULT_WINDOW_PX,
) -> Records:
    """Tile, allocate, and featurize one plot crop.

    Windows without foreground pixels receive zero yield and are
    excluded from the result; the remaining allocations still sum to
    the plot yield. Records come back in row-major window order.
    """
    data = np.asarray(data)
    mask = np.asarray(mask, dtype=bool)
    if data.ndim != 3 or data.shape[:2] != mask.shape:
        raise DataError(f"data {data.shape} and mask {mask.shape} do not align")
    counts = window_counts(mask, window_px)
    allocated = allocate_yield(counts, plot_yield).ravel()
    keep = np.flatnonzero(counts)
    rows, cols = np.divmod(keep, counts.shape[1])
    return Records(
        plot_ids=[plot_id] * keep.size,
        windows=np.column_stack([rows, cols, counts.ravel()[keep]]),
        yields=allocated[keep],
        features=np.array([
            extract_features(data, mask, r, c, window_px)
            for r, c in zip(rows.tolist(), cols.tolist())
        ]),
    )


def write_records_csv(path: str | os.PathLike, records: Records) -> None:
    """One row per record; a plot id that ``is_safe_id`` rejects raises ``DataError``."""
    if not len(records):
        raise DataError("no records to write")
    unsafe = [plot_id for plot_id in records.plot_ids if not is_safe_id(plot_id)]
    if unsafe:
        raise DataError(f"plot id {unsafe[0]!r} is unsafe as a file name or CSV field")
    header = ["plot_id", "window_row", "window_col", "n_sl", "yield_g"]
    header += [f"f{i + 1}" for i in range(records.features.shape[1])]
    # each row's features become Python floats only as the row is written
    columns = zip(
        records.plot_ids, records.windows.tolist(), records.yields.tolist(), records.features
    )
    write_table(path, header, ([pid, *w, grams, *f.tolist()] for pid, w, grams, f in columns))


def read_records_csv(path: str | os.PathLike) -> Records:
    """Every column but the five named ones is a feature, in header order.

    A ``DataError`` names a table without a feature column, and the line
    of a negative window index or yield or an ``n_sl`` below 1.
    """
    names = ("window_row", "window_col", "n_sl")
    table = read_table(path, ("plot_id", *names), floats=("yield_g",), extra_floats=True)
    plot_ids = table.ids("plot_id")
    ints = table.ints(*names)
    if table.floats.shape[1] < 2:
        raise DataError(f"{path}: no feature column")
    for i, (values, grams) in enumerate(zip(ints, table.floats[:, 0].tolist())):
        for name, value, least in zip((*names, "yield_g"), (*values, grams), (0, 0, 1, 0)):
            if value < least:
                raise DataError(f"{table.where(i)}: {name} {value!r} is below {least}")
    return Records(
        plot_ids, np.array(ints, dtype=np.int64), table.floats[:, 0], table.floats[:, 1:]
    )


def middle_third_ratio(
    windows: np.ndarray,
    yields: np.ndarray,
    n_window_rows: int,
    n_window_cols: int,
    tau: float = DEFAULT_MIDDLE_TAU,
) -> tuple[float, str]:
    """Fraction of plot yield in the middle third of the long axis.

    ``windows`` and ``yields`` are the columns of one plot's records.
    Thirds partition window indices along the longer window-grid axis
    (columns on ties); leftover indices join the middle. Returns the
    fraction and a label: ``uniform`` within 1/3 +- tau,
    ``one-side-heavy`` below, ``middle-heavy`` above. Yields are summed
    one at a time in record order: ``np.sum`` adds pairwise, which can
    change the last bit of the fraction.
    """
    if not len(yields):
        raise DataError("no records for this plot")
    axis_len, axis = (
        (n_window_cols, 1) if n_window_cols >= n_window_rows else (n_window_rows, 0)
    )
    base = axis_len // 3
    lo, hi = base, axis_len - base  # middle = [lo, hi), holds the remainder
    grams = yields.tolist()
    total = sum(grams)
    if total <= 0:
        raise DataError("plot yield is zero; ratio undefined")
    middle = sum(g for g, at in zip(grams, windows[:, axis].tolist()) if lo <= at < hi)
    fraction = middle / total
    if fraction < 1.0 / 3.0 - tau:
        label = "one-side-heavy"
    elif fraction > 1.0 / 3.0 + tau:
        label = "middle-heavy"
    else:
        label = "uniform"
    return fraction, label
