"""Segmentation: index plane, Otsu, morphology, component boxes."""

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfield import cube as hc
from hyperfield import segment
from hyperfield.config import load_config
from hyperfield.cube import HyperCube
from hyperfield.errors import DataError

import oracles

CONFIG = load_config(None)
# [segment]'s default red and blue index windows and structuring element
WINDOWS = tuple(CONFIG.window_nm("segment", key) for key in ("red_window_nm", "blue_window_nm"))
SE = (CONFIG.getint("segment", "se_rows"), CONFIG.getint("segment", "se_cols"))


def index_cube(red, blue, rows=4, cols=4):
    """Two-band cube: one band in each averaging window."""
    wl = np.array([450.0, 670.0])
    data = np.empty((rows, cols, 2))
    data[:, :, 0] = blue
    data[:, :, 1] = red
    return HyperCube(data, wl, "reflectance")


def test_ndpsi_basic_value():
    plane = segment.ndpsi(index_cube(red=0.4, blue=0.1), *WINDOWS)
    assert np.allclose(plane, (0.4 - 0.1) / (0.4 + 0.1))


def test_ndpsi_zero_denominator_maps_to_zero():
    plane = segment.ndpsi(index_cube(red=0.0, blue=0.0), *WINDOWS)
    assert np.all(plane == 0.0)


def test_ndpsi_is_bounded():
    rng = np.random.default_rng(3)
    wl = np.concatenate([np.linspace(445, 455, 5), np.linspace(665, 675, 5)])
    data = rng.uniform(0.0, 3.0, size=(16, 16, 10))
    plane = segment.ndpsi(HyperCube(data, wl, "reflectance"), *WINDOWS)
    assert plane.min() >= -1.0 and plane.max() <= 1.0


def test_ndpsi_averages_over_window_bands():
    wl = np.array([446.0, 449.0, 453.0, 666.0, 674.0])
    data = np.zeros((1, 1, 5))
    data[0, 0] = [0.1, 0.2, 0.3, 0.5, 0.7]
    plane = segment.ndpsi(HyperCube(data, wl, "reflectance"), *WINDOWS)
    red, blue = 0.6, 0.2
    assert plane[0, 0] == pytest.approx((red - blue) / (red + blue))


@pytest.mark.parametrize("layout", ["C", "band-major"])
def test_ndpsi_sums_window_bands_in_band_order(layout):
    # 12 bands per window: numpy's pairwise summation would regroup them
    rng = np.random.default_rng(4)
    wl = np.concatenate([np.linspace(445, 455, 12), np.linspace(665, 675, 12)])
    data = rng.uniform(0.0, 3.0, size=(30, 40, 24))
    if layout == "band-major":
        data = np.ascontiguousarray(data.transpose(2, 0, 1)).transpose(1, 2, 0)
    blue = functools.reduce(np.add, [data[:, :, i] for i in range(12)]) / 12
    red = functools.reduce(np.add, [data[:, :, i] for i in range(12, 24)]) / 12
    plane = segment.ndpsi(HyperCube(data, wl, "reflectance"), *WINDOWS)
    assert np.array_equal(plane, (red - blue) / (red + blue))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    interleave=st.sampled_from(hc.INTERLEAVES),
    dtype=st.sampled_from(["float32", "float64", "uint16"]),
    # two or more pixels (see test_ndpsi_of_one_pixel_sums_in_band_order)
    rows=st.integers(2, 12),
    cols=st.integers(1, 5),
    # strip height as a fraction of the rows, at least one row
    height=st.floats(0.0, 1.0),
    # window widths in bands: numpy's pairwise sum regroups 8 or more
    red_bands=st.integers(1, 12),
    blue_bands=st.integers(1, 12),
    # the share of pixels that are zero in every band: a zero denominator
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(interleave="bip", dtype="float32", rows=9, cols=3, height=0.5,
         red_bands=9, blue_bands=8, zeros=0.3, seed=0)
@example(interleave="bsq", dtype="uint16", rows=4, cols=2, height=0.0,
         red_bands=1, blue_bands=10, zeros=1.0, seed=1)
def test_ndpsi_of_strips_has_the_whole_planes_bits(
    interleave, dtype, rows, cols, height, red_bands, blue_bands, zeros, seed
):
    """``ndpsi`` of a ``CubeStream`` and of the cube in memory, strip by strip,
    give the bits of the whole float64 cube averaged at once, in every
    interleave, sample type and strip height, one-pixel strips included."""
    rng = np.random.default_rng(seed)
    bands = blue_bands + red_bands + 2
    wavelengths = 400.0 + np.arange(bands)
    blue = (401.0, 400.0 + blue_bands)
    red = (blue[1] + 1.0, blue[1] + red_bands)
    if dtype == "uint16":
        data = rng.integers(0, 4096, (rows, cols, bands)).astype(dtype)
    else:
        data = rng.uniform(0.0, 2.0, (rows, cols, bands)).astype(dtype)
    data[rng.random((rows, cols)) < zeros] = 0
    strip_rows = max(1, int(height * rows))
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as mp:
        stem = os.path.join(folder, "c")
        hc.write_cube(HyperCube(data, wavelengths, "reflectance"), stem, interleave)
        whole = hc.read_cube(stem)
        expected = oracles.whole_ndpsi(whole, red, blue).view(np.int64)
        mp.setattr(hc, "BLOCK_BYTES", strip_rows * cols * bands * 8)
        assert np.array_equal(segment.ndpsi(whole, red, blue).view(np.int64), expected)
        with hc.CubeStream(stem) as stream:
            plane = segment.ndpsi(stream, red, blue)
    assert np.array_equal(plane.view(np.int64), expected)


def test_ndpsi_of_one_pixel_sums_in_band_order():
    """The whole-cube mean summed a one-pixel cube's 8 or more window bands
    pairwise; ndpsi sums them in band order, as for any other cube."""
    wl = np.concatenate([np.linspace(445, 455, 9), np.linspace(665, 675, 9)])
    data = np.random.default_rng(0).uniform(0.0, 3.0, size=(1, 1, 18))
    blue = functools.reduce(np.add, [data[:, :, i] for i in range(9)]) / 9
    red = functools.reduce(np.add, [data[:, :, i] for i in range(9, 18)]) / 9
    cube = HyperCube(data, wl, "reflectance")
    plane = segment.ndpsi(cube, *WINDOWS)
    assert np.array_equal(plane, (red - blue) / (red + blue))
    assert not np.array_equal(oracles.whole_ndpsi(cube, *WINDOWS), plane)


def test_ndpsi_missing_window_raises():
    wl = np.array([500.0, 600.0])
    cube = HyperCube(np.ones((2, 2, 2)), wl, "reflectance")
    with pytest.raises(DataError, match=r"^no bands inside 665\.0-675\.0 nm \(grid spans 500"):
        segment.ndpsi(cube, *WINDOWS)


def test_canonical_grid_has_five_bands_per_window():
    from hyperfield.cube import default_wavelengths

    wl = default_wavelengths()
    for window in WINDOWS:
        assert segment.window_indices(wl, window).size == 5


# ---------------------------------------------------------------------------
# Otsu


def test_otsu_separates_two_populations():
    rng = np.random.default_rng(4)
    low = rng.normal(0.2, 0.01, size=400)
    high = rng.normal(0.8, 0.01, size=300)
    plane = np.concatenate([low, high]).reshape(20, 35)
    thr = segment.otsu_threshold(plane)
    # ties across the empty gap resolve to the first maximiser, so the
    # threshold lands just above the low population
    assert low.max() < thr < high.min()
    mask = segment.threshold_mask(plane, thr)
    assert mask.sum() == 300


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_otsu_matches_naive_split_enumeration(seed):
    rng = np.random.default_rng(seed)
    plane = np.concatenate(
        [rng.normal(0.3, 0.08, size=500), rng.normal(0.75, 0.05, size=350)]
    )
    thr = segment.otsu_threshold(plane)
    t = oracles.otsu_naive(plane)
    lo, hi = plane.min(), plane.max()
    width = (hi - lo) / 256
    assert thr == pytest.approx(lo + (t + 1) * width, abs=1e-12)


def test_otsu_constant_plane_raises():
    with pytest.raises(DataError, match=r"^plane is constant at 0\.7; no threshold separates it$"):
        segment.otsu_threshold(np.full((5, 5), 0.7))


def test_threshold_is_strict():
    plane = np.array([[0.0, 0.5, 1.0]])
    mask = segment.threshold_mask(plane, 0.5)
    assert list(mask[0]) == [False, False, True]


# ---------------------------------------------------------------------------
# morphology


def test_fill_holes_closes_interior_cavity():
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:10] = True
    mask[5:7, 5:7] = False
    filled = segment.fill_holes(mask)
    assert filled[5:7, 5:7].all()
    assert filled.sum() == 64


def test_fill_holes_keeps_border_connected_background():
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:10] = True
    mask[5:7, 5:7] = False
    mask[6, 0:5] = False  # channel from the cavity out to the left border
    filled = segment.fill_holes(mask)
    assert not filled[6, 0]
    assert not filled[6, 5]  # cavity is reachable, so it stays background


def test_fill_holes_ignores_diagonal_leaks():
    # the cavity touches outside background only diagonally; with
    # 4-connected flooding it still counts as a hole
    mask = np.array(
        [
            [1, 1, 1, 0],
            [1, 0, 1, 1],
            [1, 1, 1, 1],
        ],
        dtype=bool,
    )
    filled = segment.fill_holes(mask)
    assert filled[1, 1]
    assert not filled[0, 3]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_fill_holes_matches_flood_oracle(seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(24, 30)) < 0.55
    assert np.array_equal(segment.fill_holes(mask), oracles.fill_holes_naive(mask))


def test_opening_preserves_large_rectangle():
    mask = np.zeros((40, 40), dtype=bool)
    mask[5:30, 5:20] = True
    assert np.array_equal(segment.binary_open(mask, SE), mask)


def test_opening_removes_speckle_and_thin_bridge():
    mask = np.zeros((40, 60), dtype=bool)
    mask[5:25, 5:20] = True
    mask[5:25, 30:45] = True
    mask[14, 20:30] = True  # 1-px bridge
    mask[35, 50] = True  # speckle
    opened = segment.binary_open(mask, SE)
    assert opened[10, 10] and opened[10, 35]
    assert not opened[14, 25]
    assert not opened[35, 50]
    labels, count = oracles.label_components_naive(opened)
    assert count == 2


@pytest.mark.parametrize("seed", range(6))
def test_opening_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(18, 22)) < 0.6
    se = (4, 3) if seed % 2 else (3, 2)
    got = segment.binary_open(mask, se=se)
    want = oracles.open_naive(mask, se[0], se[1])
    assert np.array_equal(got, want)


def test_default_se_matches_naive_oracle():
    rng = np.random.default_rng(99)
    mask = rng.uniform(size=(30, 26)) < 0.7
    got = segment.binary_open(mask, SE)
    want = oracles.open_naive(mask, 10, 5)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_opening_is_idempotent(seed):
    rng = np.random.default_rng(seed + 50)
    mask = rng.uniform(size=(40, 40)) < 0.65
    once = segment.binary_open(mask, SE)
    assert np.array_equal(segment.binary_open(once, SE), once)


# ---------------------------------------------------------------------------
# component boxes


def test_extract_plots_orders_and_measures_boxes():
    mask = np.zeros((50, 50), dtype=bool)
    mask[5:15, 30:45] = True  # top-right, area 150
    mask[20:40, 2:12] = True  # lower-left, area 200
    boxes = segment.extract_plots(mask, min_area_px=50)
    assert [(b.top, b.left) for b in boxes] == [(5, 30), (20, 2)]
    assert boxes[0].height == 10 and boxes[0].width == 15 and boxes[0].area_px == 150
    assert boxes[1].area_px == 200


def test_extract_plots_min_area_filters():
    mask = np.zeros((20, 20), dtype=bool)
    mask[1:3, 1:3] = True  # area 4
    mask[10:16, 10:16] = True  # area 36
    assert len(segment.extract_plots(mask, min_area_px=10)) == 1
    assert len(segment.extract_plots(mask, min_area_px=1)) == 2
    assert segment.extract_plots(np.zeros((5, 5), dtype=bool), 1) == []


def test_components_use_eight_connectivity():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0:2, 0:2] = True
    mask[2:4, 2:4] = True  # touches only diagonally
    boxes = segment.extract_plots(mask, min_area_px=1)
    assert len(boxes) == 1
    assert boxes[0].area_px == 8


@pytest.mark.parametrize("seed", range(5))
def test_component_count_matches_naive_labelling(seed):
    rng = np.random.default_rng(seed + 10)
    mask = rng.uniform(size=(40, 40)) < 0.45
    boxes = segment.extract_plots(mask, min_area_px=1)
    _, count = oracles.label_components_naive(mask, connectivity=8)
    assert len(boxes) == count


def test_segmentation_is_deterministic():
    rng = np.random.default_rng(21)
    wl = np.concatenate([np.linspace(445, 455, 5), np.linspace(665, 675, 5)])
    data = rng.uniform(0.0, 1.0, size=(40, 40, 10))
    cube = HyperCube(data, wl, "reflectance")

    def run():
        plane = segment.ndpsi(cube, *WINDOWS)
        mask = segment.binary_open(
            segment.fill_holes(segment.threshold_mask(plane, segment.otsu_threshold(plane))),
            se=(3, 2),
        )
        return mask, segment.extract_plots(mask, min_area_px=5)

    m1, b1 = run()
    m2, b2 = run()
    assert np.array_equal(m1, m2)
    assert b1 == b2


def test_boxes_csv_round_trip(tmp_path):
    boxes = [segment.PlotBox(1, 2, 3, 4, 12), segment.PlotBox(9, 8, 7, 6, 40)]
    path = tmp_path / "boxes.csv"
    segment.write_boxes_csv(path, boxes)
    assert segment.read_boxes_csv(path) == boxes


def test_plot_box_rejects_degenerate():
    with pytest.raises(DataError, match=r"^degenerate plot box PlotBox\(top=0, left=0, height=0,"):
        segment.PlotBox(0, 0, 0, 5, 1)
