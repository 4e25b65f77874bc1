"""Map detected plot boxes onto the field grid and propagate plot ids.

Box corner coordinates cluster into horizontal and vertical grid lines
(1-D single linkage with a cutoff of half the plot pitch). Each box is
assigned to its nearest (row, col) cell, and plot ids propagate from a
single anchored cell through the field-book map by offset arithmetic.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousCellError, AnchorError, DataError, ShapeMismatchError
from .segment import PlotBox
from .table import read_table

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

    def __len__(self) -> int:
        return len(self.positions)


def read_plot_map(path: str | os.PathLike) -> PlotMap:
    table = read_table(path, ("plot_id", "field_row", "field_col"), key="plot_id")
    positions = table.ints("field_row", "field_col")
    try:
        return PlotMap(dict(zip(table.text("plot_id"), positions)))
    except DataError as exc:  # a shared position: name the row that repeats it
        i = next(i for i, position in enumerate(positions) if position in positions[:i])
        raise DataError(f"{table.where(i)}: {exc}") from None


def write_plot_map(path: str | os.PathLike, plot_map: PlotMap) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plot_id", "field_row", "field_col"])
        for plot_id, (r, c) in plot_map.positions.items():
            writer.writerow([plot_id, r, c])


def cluster_corners(values, pitch_px: float) -> np.ndarray:
    """1-D single-linkage clustering with cutoff pitch/2; returns means.

    Sorted gaps larger than the cutoff split clusters, so the result is
    invariant to the input order. Means come back ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.empty(0)
    if pitch_px <= 0:
        raise ShapeMismatchError(f"pitch must be positive, got {pitch_px}")
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
class Anchor:
    """Ties one grid cell to one plot id.

    Exactly one of ``cell`` (grid_row, grid_col) or ``box_index``
    (index into the box list, whose cell is used) must be given.
    """

    plot_id: str
    cell: tuple[int, int] | None = None
    box_index: int | None = None

    def __post_init__(self):
        if (self.cell is None) == (self.box_index is None):
            raise AnchorError("anchor needs exactly one of cell or box_index")


@dataclass(frozen=True)
class AssignedPlot:
    plot_id: str
    box: PlotBox
    grid_row: int
    grid_col: int


@dataclass
class GridAssignment:
    row_lines: np.ndarray
    col_lines: np.ndarray
    # every grid cell; value is (box or None, plot_id or None)
    cells: dict[tuple[int, int], tuple[PlotBox | None, str | None]]

    def assigned(self) -> list[AssignedPlot]:
        """Cells holding both a box and a plot id, in grid order."""
        out = []
        for (r, c) in sorted(self.cells):
            box, plot_id = self.cells[(r, c)]
            if box is not None and plot_id is not None:
                out.append(AssignedPlot(plot_id, box, r, c))
        return out


def _nearest(lines: np.ndarray, value: float) -> int:
    # ties resolve toward the lower index
    return int(np.argmin(np.abs(lines - value)))


def assign_ids(
    boxes: list[PlotBox],
    row_lines: np.ndarray,
    col_lines: np.ndarray,
    plot_map: PlotMap,
    anchor: Anchor,
) -> GridAssignment:
    """Snap boxes to cells and propagate plot ids from the anchor.

    Two boxes landing in one cell is an error (the caller must merge or
    filter them). Cells whose propagated field position falls outside
    the plot map stay unlabelled, with a warning.
    """
    row_lines = np.asarray(row_lines, dtype=np.float64)
    col_lines = np.asarray(col_lines, dtype=np.float64)
    if row_lines.size == 0 or col_lines.size == 0:
        raise ShapeMismatchError("grid needs at least one line per axis")

    cell_of_box: list[tuple[int, int]] = []
    occupied: dict[tuple[int, int], int] = {}
    for i, box in enumerate(boxes):
        cell = (_nearest(row_lines, box.top), _nearest(col_lines, box.left))
        if cell in occupied:
            first = boxes[occupied[cell]]
            a, b = sorted([first, box], key=lambda bb: (bb.top, bb.left))
            raise AmbiguousCellError(
                f"boxes at ({a.top},{a.left}) and ({b.top},{b.left}) both "
                f"resolve to grid cell {cell}"
            )
        occupied[cell] = i
        cell_of_box.append(cell)

    if anchor.plot_id not in plot_map.positions:
        raise AnchorError(f"anchor plot id {anchor.plot_id!r} is not in the plot map")
    if anchor.box_index is not None:
        if not 0 <= anchor.box_index < len(boxes):
            raise AnchorError(
                f"anchor box index {anchor.box_index} out of range "
                f"(boxes: {len(boxes)})"
            )
        anchor_cell = cell_of_box[anchor.box_index]
    else:
        anchor_cell = (int(anchor.cell[0]), int(anchor.cell[1]))
        if not (
            0 <= anchor_cell[0] < row_lines.size and 0 <= anchor_cell[1] < col_lines.size
        ):
            raise AnchorError(f"anchor cell {anchor_cell} outside the detected grid")
    anchor_field = plot_map.positions[anchor.plot_id]

    cells: dict[tuple[int, int], tuple[PlotBox | None, str | None]] = {}
    for r in range(row_lines.size):
        for c in range(col_lines.size):
            field_pos = (
                anchor_field[0] + (r - anchor_cell[0]),
                anchor_field[1] + (c - anchor_cell[1]),
            )
            plot_id = plot_map.by_cell.get(field_pos)
            cells[(r, c)] = (None, plot_id)

    for i, box in enumerate(boxes):
        cell = cell_of_box[i]
        plot_id = cells[cell][1]
        if plot_id is None:
            log.warning(
                "box at (%d,%d) in cell %s maps outside the plot map; left unlabelled",
                box.top,
                box.left,
                cell,
            )
        cells[cell] = (box, plot_id)

    return GridAssignment(row_lines=row_lines, col_lines=col_lines, cells=cells)


def write_assignment_csv(path: str | os.PathLike, assignment: GridAssignment) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plot_id", "top", "left", "height", "width", "grid_row", "grid_col"])
        for ap in assignment.assigned():
            b = ap.box
            writer.writerow([ap.plot_id, b.top, b.left, b.height, b.width, ap.grid_row, ap.grid_col])


def read_assignment_csv(path: str | os.PathLike) -> list[AssignedPlot]:
    numbers = ("top", "left", "height", "width", "grid_row", "grid_col")
    table = read_table(path, ("plot_id",) + numbers, key="plot_id")
    out = []
    for plot_id, (top, left, height, width, grid_row, grid_col) in zip(
        table.text("plot_id"), table.ints(*numbers)
    ):
        box = PlotBox(top=top, left=left, height=height, width=width, area_px=height * width)
        out.append(AssignedPlot(plot_id, box, grid_row, grid_col))
    return out
