"""Map detected plot boxes onto the field grid and propagate plot ids.

Box corner coordinates cluster into horizontal and vertical grid lines
(1-D single linkage with a cutoff of half the plot pitch). Each box is
assigned to its nearest (row, col) cell, and plot ids propagate from a
single anchored cell through the field-book map by offset arithmetic.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .segment import PlotBox
from .table import read_table, write_table

log = logging.getLogger(__name__)


@dataclass
class PlotMap:
    """Field book: plot id <-> (field_row, field_col), both unique."""

    positions: dict[str, tuple[int, int]]
    by_cell: dict[tuple[int, int], str] = field(init=False)

    def __post_init__(self):
        self.by_cell = {}
        for plot_id, pos in self.positions.items():
            pos = (int(pos[0]), int(pos[1]))
            if pos in self.by_cell:
                raise DataError(
                    f"plots {self.by_cell[pos]!r} and {plot_id!r} share field "
                    f"position {pos}"
                )
            self.positions[plot_id] = pos
            self.by_cell[pos] = plot_id


def read_plot_map(path: str | os.PathLike) -> PlotMap:
    table = read_table(path, ("plot_id", "field_row", "field_col"), key="plot_id")
    plot_ids, positions = table.ids("plot_id"), table.ints("field_row", "field_col")
    try:
        return PlotMap(dict(zip(plot_ids, positions)))
    except DataError as exc:  # a shared position: name the row that repeats it
        i = next(i for i, position in enumerate(positions) if position in positions[:i])
        raise DataError(f"{table.where(i)}: {exc}") from None


def write_plot_map(path: str | os.PathLike, plot_map: PlotMap) -> None:
    rows = [(plot_id, r, c) for plot_id, (r, c) in plot_map.positions.items()]
    write_table(path, ["plot_id", "field_row", "field_col"], rows)


def cluster_corners(values, pitch_px: float) -> np.ndarray:
    """1-D single-linkage clustering with cutoff pitch/2; returns means.

    Sorted gaps larger than the cutoff split clusters, so the result is
    invariant to the input order. Means come back ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.empty(0)
    if pitch_px <= 0:
        raise DataError(f"pitch must be positive, got {pitch_px}")
    order = np.sort(values)
    cutoff = pitch_px / 2.0
    breaks = np.flatnonzero(np.diff(order) > cutoff)
    means = [seg.mean() for seg in np.split(order, breaks + 1)]
    return np.array(means)


def build_grid(
    boxes: list[PlotBox], pitch_row_px: float, pitch_col_px: float
) -> tuple[np.ndarray, np.ndarray]:
    """Grid line coordinates from box top-left corners."""
    tops = [b.top for b in boxes]
    lefts = [b.left for b in boxes]
    return cluster_corners(tops, pitch_row_px), cluster_corners(lefts, pitch_col_px)


@dataclass(frozen=True)
class AssignedPlot:
    plot_id: str
    box: PlotBox
    grid_row: int
    grid_col: int


def _nearest(lines: np.ndarray, value: float) -> int:
    # ties resolve toward the lower index
    return int(np.argmin(np.abs(lines - value)))


def assign_ids(
    boxes: list[PlotBox],
    row_lines: np.ndarray,
    col_lines: np.ndarray,
    plot_map: PlotMap,
    anchor_plot: str,
    anchor_cell: tuple[int, int],
) -> list[AssignedPlot]:
    """Snap boxes to cells and propagate plot ids from the anchor.

    The anchor ties grid cell ``anchor_cell``, (grid_row, grid_col), to
    plot id ``anchor_plot``. Returns the labelled plots in grid order.
    Two boxes landing in one cell is an error (the caller must merge or
    filter them). A box whose propagated field position falls outside
    the plot map is left out, with a warning.
    """
    row_lines = np.asarray(row_lines, dtype=np.float64)
    col_lines = np.asarray(col_lines, dtype=np.float64)
    if row_lines.size == 0 or col_lines.size == 0:
        raise DataError("grid needs at least one line per axis")

    box_at: dict[tuple[int, int], PlotBox] = {}
    for box in boxes:
        cell = (_nearest(row_lines, box.top), _nearest(col_lines, box.left))
        if cell in box_at:
            a, b = sorted([box_at[cell], box], key=lambda bb: (bb.top, bb.left))
            raise DataError(
                f"boxes at ({a.top},{a.left}) and ({b.top},{b.left}) both "
                f"resolve to grid cell {cell}"
            )
        box_at[cell] = box

    if anchor_plot not in plot_map.positions:
        raise DataError(f"anchor plot id {anchor_plot!r} is not in the plot map")
    anchor_row, anchor_col = anchor_cell
    if not (0 <= anchor_row < row_lines.size and 0 <= anchor_col < col_lines.size):
        raise DataError(f"anchor cell {anchor_cell} outside the detected grid")
    field_row, field_col = plot_map.positions[anchor_plot]

    assigned = []
    for (r, c), box in box_at.items():
        plot_id = plot_map.by_cell.get((field_row + r - anchor_row, field_col + c - anchor_col))
        if plot_id is None:
            log.warning(
                "box at (%d,%d) in cell %s maps outside the plot map; left unlabelled",
                box.top,
                box.left,
                (r, c),
            )
        else:
            assigned.append(AssignedPlot(plot_id, box, r, c))
    return sorted(assigned, key=lambda ap: (ap.grid_row, ap.grid_col))


def write_assignment_csv(path: str | os.PathLike, assigned: list[AssignedPlot]) -> None:
    header = ["plot_id", "top", "left", "height", "width", "grid_row", "grid_col"]
    rows = []
    for ap in assigned:
        b = ap.box
        rows.append((ap.plot_id, b.top, b.left, b.height, b.width, ap.grid_row, ap.grid_col))
    write_table(path, header, rows)


def read_assignment_csv(path: str | os.PathLike) -> list[AssignedPlot]:
    numbers = ("top", "left", "height", "width", "grid_row", "grid_col")
    table = read_table(path, ("plot_id",) + numbers, key="plot_id")
    out = []
    for plot_id, (top, left, height, width, grid_row, grid_col) in zip(
        table.ids("plot_id"), table.ints(*numbers)
    ):
        box = PlotBox(top=top, left=left, height=height, width=width, area_px=height * width)
        out.append(AssignedPlot(plot_id, box, grid_row, grid_col))
    return out
