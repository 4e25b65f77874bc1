"""Grid mapping: corner clustering, cell assignment, id propagation."""

import logging

import numpy as np
import pytest

from hyperfield import gridmap
from hyperfield.errors import DataError
from hyperfield.segment import PlotBox


def make_plot_map(rows, cols, start_row=0, start_col=0):
    positions = {}
    for r in range(rows):
        for c in range(cols):
            positions[f"P-{r:02d}-{c:02d}"] = (start_row + r, start_col + c)
    return gridmap.PlotMap(positions)


def grid_boxes(rows, cols, pitch_r=40, pitch_c=70, jitter=None, rng=None, skip=()):
    boxes = []
    truth = {}
    for r in range(rows):
        for c in range(cols):
            if (r, c) in skip:
                continue
            top, left = 10 + r * pitch_r, 15 + c * pitch_c
            if jitter is not None:
                top += int(round(rng.normal(0, jitter)))
                left += int(round(rng.normal(0, jitter)))
            box = PlotBox(top=top, left=left, height=30, width=60, area_px=1800)
            boxes.append(box)
            truth[(box.top, box.left)] = (r, c)
    return boxes, truth


def test_cluster_corners_textbook_case():
    means = gridmap.cluster_corners([10, 12, 118, 121], pitch_px=100)
    assert np.allclose(means, [11.0, 119.5])


def test_cluster_corners_single_cluster_and_order_invariance():
    rng = np.random.default_rng(0)
    vals = [50.0, 52.0, 49.0]
    assert np.allclose(gridmap.cluster_corners(vals, 100), [np.mean(vals)])
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert np.array_equal(
        gridmap.cluster_corners(vals, 100), gridmap.cluster_corners(shuffled, 100)
    )


def test_cluster_corners_empty():
    assert gridmap.cluster_corners([], 10).size == 0


def test_build_grid_recovers_lines():
    boxes, _ = grid_boxes(3, 4)
    row_lines, col_lines = gridmap.build_grid(boxes, 40, 70)
    assert np.allclose(row_lines, [10, 50, 90])
    assert np.allclose(col_lines, [15, 85, 155, 225])


def test_assign_ids_full_grid():
    boxes, truth = grid_boxes(3, 4)
    plot_map = make_plot_map(3, 4)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    assigned = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    assert len(assigned) == 12
    for ap in assigned:
        r, c = truth[(ap.box.top, ap.box.left)]
        assert ap.plot_id == f"P-{r:02d}-{c:02d}"


def test_assignment_is_translation_invariant():
    boxes, truth = grid_boxes(3, 3)
    plot_map = make_plot_map(3, 3)

    def labels(boxlist):
        rl, cl = gridmap.build_grid(boxlist, 40, 70)
        return {
            (ap.box.top - boxlist[0].top, ap.box.left - boxlist[0].left): ap.plot_id
            for ap in gridmap.assign_ids(boxlist, rl, cl, plot_map, "P-00-00", (0, 0))
        }

    shifted = [
        PlotBox(b.top + 37, b.left + 81, b.height, b.width, b.area_px) for b in boxes
    ]
    assert labels(boxes) == labels(shifted)


def test_assignment_is_permutation_invariant():
    rng = np.random.default_rng(1)
    boxes, _ = grid_boxes(3, 4, jitter=1.5, rng=rng)
    plot_map = make_plot_map(3, 4)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    a = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    perm = list(boxes)
    rng.shuffle(perm)
    b = gridmap.assign_ids(perm, rl, cl, plot_map, "P-00-00", (0, 0))
    assert a == b


def test_missing_plots_leave_empty_cells():
    skip = {(1, 1), (0, 2)}
    boxes, truth = grid_boxes(3, 3, skip=skip)
    plot_map = make_plot_map(3, 3)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    assigned = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    assert len(assigned) == 7
    assert not skip & {(ap.grid_row, ap.grid_col) for ap in assigned}


def test_two_boxes_in_one_cell_is_ambiguous():
    boxes, _ = grid_boxes(2, 2)
    boxes.append(PlotBox(top=12, left=17, height=30, width=60, area_px=1800))
    plot_map = make_plot_map(2, 2)
    rl, cl = gridmap.build_grid(boxes[:4], 40, 70)
    with pytest.raises(DataError, match=r"\(10,15\) and \(12,17\)"):
        gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))


def test_cells_outside_map_warn_and_stay_unlabelled(caplog):
    boxes, _ = grid_boxes(2, 3)
    plot_map = make_plot_map(2, 2)  # narrower than the detected grid
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    with caplog.at_level(logging.WARNING, logger="hyperfield.gridmap"):
        assigned = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    assert len(assigned) == 4
    assert any("outside the plot map" in r.message for r in caplog.records)
    assert (0, 2) not in {(ap.grid_row, ap.grid_col) for ap in assigned}


def test_nearest_line_tie_goes_to_lower_index():
    lines = np.array([0.0, 10.0])
    assert gridmap._nearest(lines, 5.0) == 0


def test_anchor_validation():
    boxes, _ = grid_boxes(2, 2)
    plot_map = make_plot_map(2, 2)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    with pytest.raises(DataError, match="not in the plot map"):
        gridmap.assign_ids(boxes, rl, cl, plot_map, "NOPE", (0, 0))
    with pytest.raises(DataError, match="outside the detected grid"):
        gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (5, 0))


def test_assigned_ids_are_unique():
    rng = np.random.default_rng(7)
    boxes, _ = grid_boxes(4, 4, jitter=2.0, rng=rng)
    plot_map = make_plot_map(4, 4)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    assigned = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    ids = [ap.plot_id for ap in assigned]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("seed", range(8))
def test_jittered_grids_label_perfectly(seed):
    rng = np.random.default_rng(seed)
    pitch_r, pitch_c = 40, 70
    skip = set()
    # knock out up to 10% of 20 plots
    while len(skip) < 2:
        skip.add((int(rng.integers(0, 4)), int(rng.integers(0, 5))))
    skip.discard((0, 0))
    boxes, truth = grid_boxes(
        4, 5, pitch_r, pitch_c, jitter=pitch_r / 20.0, rng=rng, skip=skip
    )
    plot_map = make_plot_map(4, 5)
    rl, cl = gridmap.build_grid(boxes, pitch_r, pitch_c)
    assigned = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    assert len(assigned) == len(boxes)
    for ap in assigned:
        r, c = truth[(ap.box.top, ap.box.left)]
        assert ap.plot_id == f"P-{r:02d}-{c:02d}"


def test_plot_map_csv_round_trip(tmp_path):
    pm = make_plot_map(2, 3, start_row=1, start_col=4)
    path = tmp_path / "plots.csv"
    gridmap.write_plot_map(path, pm)
    back = gridmap.read_plot_map(path)
    assert back.positions == pm.positions


def test_plot_map_rejects_duplicates(tmp_path):
    with pytest.raises(DataError, match="share field position"):
        gridmap.PlotMap({"A": (0, 0), "B": (0, 0)})
    path = tmp_path / "dup.csv"
    path.write_text("plot_id,field_row,field_col\nA,0,0\nA,1,1\n")
    with pytest.raises(DataError, match="duplicate plot id"):
        gridmap.read_plot_map(path)


def test_assignment_csv_round_trip(tmp_path):
    boxes, _ = grid_boxes(2, 2)
    plot_map = make_plot_map(2, 2)
    rl, cl = gridmap.build_grid(boxes, 40, 70)
    want = gridmap.assign_ids(boxes, rl, cl, plot_map, "P-00-00", (0, 0))
    path = tmp_path / "assignment.csv"
    gridmap.write_assignment_csv(path, want)
    back = gridmap.read_assignment_csv(path)
    assert [(ap.plot_id, ap.grid_row, ap.grid_col) for ap in back] == [
        (ap.plot_id, ap.grid_row, ap.grid_col) for ap in want
    ]
    # geometry survives; component pixel area is not part of the schema
    for a, w in zip(back, want):
        assert (a.box.top, a.box.left, a.box.height, a.box.width) == (
            w.box.top,
            w.box.left,
            w.box.height,
            w.box.width,
        )
