"""Generator checks: planted truth must be exactly self-consistent, and the
radiance made in strips must be the bits of the whole-array computation."""

import functools
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scene_cube, whole_radiance
from processes import command_peak

from hyperfield.cube import apply_band_mask, band_mask_from_windows, to_reflectance
from hyperfield.endmember import svmax
from hyperfield.errors import ConfigError
from hyperfield.mlp import (
    SplitSpec,
    TrainConfig,
    predict,
    r2_score,
    stratified_split,
    train,
)
from hyperfield.pairwise import PairwiseSum
from hyperfield.subplot import (
    Records,
    build_records,
    middle_third_ratio,
    window_grid_shape,
)
from hyperfield.synth import (
    CROP_LABELS,
    LIBRARY_LABELS,
    SCENE_LABELS,
    SynthSpec,
    endmember_library,
    generate_reference_cube,
    generate_scene,
    illumination_spectrum,
)
from hyperfield.unmix import unmix_cube


@functools.lru_cache(maxsize=None)
def small_scene():
    spec = SynthSpec(
        seed=3,
        grid_rows=2,
        grid_cols=3,
        plot_height_px=24,
        plot_width_px=45,
        alley_px=10,
        jitter_px=2,
        snr_db=35.0,
        target_subplot_r2=0.85,
    )
    return spec, *scene_cube(spec)


# ---------------------------------------------------------------------------
# spec validation

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grid_rows=0),
        dict(plot_height_px=10, window_px=15),
        dict(alley_px=1),
        dict(jitter_px=6, alley_px=12),
        dict(density_range=(0.0, 0.5)),
        dict(density_range=(0.6, 0.4)),
        dict(density_range=(0.3, 1.0)),
        dict(margin_boost=0.8),
        dict(side_heavy_fraction=1.2),
        dict(snr_db=0.0),
        dict(yield_per_sl_pixel=0.0),
        dict(target_subplot_r2=0.85, yield_noise_sigma=0.1),
        dict(target_subplot_r2=1.0),
        dict(yield_noise_sigma=-0.1),
        dict(snr_db=float("inf")),
        dict(snr_db=float("nan")),
        dict(margin_boost=float("nan")),
        dict(margin_boost=float("inf")),
        dict(yield_per_sl_pixel=float("inf")),
        dict(yield_noise_sigma=float("nan")),
    ],
)
def test_spec_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SynthSpec(**kwargs)


def test_scene_shape_accounts_for_margins_and_alleys():
    spec = SynthSpec(grid_rows=2, grid_cols=3, plot_height_px=30,
                     plot_width_px=90, alley_px=12)
    rows, cols = spec.scene_shape
    assert rows == 40 + 2 * 30 + 12 + 16
    assert cols == 16 + 3 * 90 + 2 * 12 + 16


def test_library_labels_and_positivity():
    lib = endmember_library()
    assert lib.labels == LIBRARY_LABELS
    assert np.all(lib.spectra > 0)
    assert np.all(lib.spectra < 1)
    illum = illumination_spectrum(lib.wavelengths)
    assert np.all(illum > 0)


# ---------------------------------------------------------------------------
# planted truth consistency

def test_same_seed_is_bit_identical():
    spec = small_scene()[0]
    cube_a, truth_a, _ = scene_cube(spec)
    cube_b, truth_b, _ = scene_cube(spec)
    assert np.array_equal(cube_a.data, cube_b.data)
    assert truth_a.plot_yields == truth_b.plot_yields
    for pid in truth_a.boxes:
        assert truth_a.boxes[pid] == truth_b.boxes[pid]


def test_window_yields_sum_to_plot_yield():
    _, _, truth, _ = small_scene()
    for pid, plot_yield in truth.plot_yields.items():
        total = float(truth.window_yields[pid].sum())
        assert abs(total - plot_yield) <= 1e-9 * max(plot_yield, 1.0)


def test_cube_minus_noise_is_exact_mixture():
    _, cube, truth, radiance = small_scene()
    _, noiseless, noise, _ = whole_radiance(radiance)
    assert noise is not None
    assert np.array_equal(cube.data, noiseless + noise)
    rebuilt = np.einsum(
        "rce,be->rcb", truth.abundances.values, truth.endmembers.spectra
    )
    rebuilt *= truth.illumination
    assert np.array_equal(rebuilt, noiseless)


def test_realized_snr_close_to_requested():
    spec, _, _, radiance = small_scene()
    assert abs(radiance.realized_snr_db - spec.snr_db) < 0.5


def test_noiseless_scene_has_no_noise_bookkeeping():
    _, truth, radiance = scene_cube(SynthSpec(
        seed=1, grid_rows=1, grid_cols=2, plot_height_px=20,
        plot_width_px=40, window_px=10, alley_px=8,
    ))
    assert radiance.realized_snr_db is None
    assert whole_radiance(radiance)[2] is None
    assert truth.yield_noise_sigma == 0.0
    assert truth.theoretical_r2 is None


# ---------------------------------------------------------------------------
# strips against the whole-array computation

@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**16),
    grid=st.tuples(st.integers(1, 2), st.integers(1, 3)),
    plot=st.tuples(st.integers(5, 12), st.integers(5, 20)),
    snr_db=st.one_of(st.none(), st.floats(5.0, 60.0)),
    height=st.integers(1, 100),  # from one row to more than the scene's 61-86
)
@example(seed=0, grid=(1, 1), plot=(5, 5), snr_db=30.0, height=1)
@example(seed=1, grid=(2, 3), plot=(12, 20), snr_db=None, height=100)
def test_strips_match_the_whole_array_oracle(seed, grid, plot, snr_db, height):
    spec = SynthSpec(
        seed=seed, grid_rows=grid[0], grid_cols=grid[1], plot_height_px=plot[0],
        plot_width_px=plot[1], window_px=5, alley_px=6, snr_db=snr_db,
    )
    radiance, _ = generate_scene(spec)
    # copied as they come: the next strip reuses the last one's buffer
    strips = [(top, strip.data.copy()) for top, strip in radiance.strips(height)]
    assert [top for top, _ in strips] == list(range(0, radiance.rows, height))
    made = np.concatenate([part for _, part in strips])
    data, _, _, realized_snr_db = whole_radiance(radiance)
    assert made.astype(np.float32).tobytes() == data.astype(np.float32).tobytes()
    assert np.array_equal(made, data)
    assert radiance.realized_snr_db == realized_snr_db


@pytest.mark.parametrize("snr_db", [None, 30.0])
def test_strips_are_made_in_one_buffer(snr_db):
    """So a strip is valid only until the next one is made."""
    spec = SynthSpec(grid_rows=1, grid_cols=2, plot_height_px=5, plot_width_px=5,
                     window_px=5, alley_px=6, snr_db=snr_db)
    radiance, _ = generate_scene(spec)
    first, *rest = [strip.data for _, strip in radiance.strips(7)]
    assert rest and all(np.shares_memory(first, data) for data in rest)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # chunks shorter than a pairwise block of 8, and chunks that end inside
    # or beyond a 128-value leaf
    chunks=st.lists(
        st.one_of(st.integers(0, 7), st.integers(8, 300), st.integers(300, 5000)), max_size=30
    ),
)
def test_pairwise_sum_equals_one_reduce_of_the_chunks(seed, chunks):
    rng = np.random.default_rng(seed)
    n = sum(chunks)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    total = PairwiseSum(n)
    for part in np.split(values, np.cumsum(chunks)[:-1]):
        total.add(part)
    assert total.total == np.add.reduce(values)


def test_pairwise_sum_matches_numpy_on_a_scene_sized_mean():
    """More than 4 Mi values, in strips: a numpy whose pairwise rule changed fails here."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal((23, 836, 240))
    total = PairwiseSum(values.size)
    for top in range(0, 23, 3):
        strip = values[top : top + 3]
        assert total.total is None
        total.add(strip * strip)
    assert values.size >= 4 << 20
    assert total.total / values.size == float(np.mean(values * values))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_default_synth_peaks_under_120_mb(tmp_path):
    """The scene is made and written a strip at a time, each through one
    reused buffer; the whole float64 cube is 610 MB. With ``snr_db`` the
    noise is drawn into a second reused buffer, and the peak stays under
    100 MiB (about 96 MB, against 110 MB with a fresh noise array a strip)."""
    noisy = tmp_path / "noisy.ini"
    noisy.write_text("[synth]\nsnr_db = 40\n")
    cases = [("default", [], 120e6), ("noisy", ["--config", noisy], 100 * 2**20)]
    for name, args, bound in cases:
        peak = command_peak("synth", "--out", tmp_path / name, *args)
        assert (tmp_path / name / "synth" / "scene.raw").stat().st_size == 380 * 836 * 240 * 4
        assert peak < bound, (name, peak)


def test_sl_mask_matches_abundance_rule():
    _, _, truth, _ = small_scene()
    values = truth.abundances.values
    spike = values[:, :, SCENE_LABELS.index("spike")]
    leaf = values[:, :, SCENE_LABELS.index("leaf")]
    assert np.array_equal(truth.sl_mask, spike + leaf > 0.5)


def test_abundances_live_on_the_simplex():
    _, _, truth, _ = small_scene()
    values = truth.abundances.values
    assert np.all(values >= 0)
    np.testing.assert_allclose(values.sum(axis=2), 1.0, atol=1e-12)


def test_panel_region_is_pure_panel():
    _, _, truth, _ = small_scene()
    top, left, h, w = truth.panel_region
    patch = truth.abundances.values[top : top + h, left : left + w]
    assert np.all(patch[:, :, SCENE_LABELS.index("panel")] == 1.0)
    assert np.all(truth.panel_reflectance == 0.4)


def test_boxes_stay_inside_scene_and_apart():
    spec, cube, truth, _ = small_scene()
    rows, cols = cube.data.shape[:2]
    boxes = list(truth.boxes.values())
    for box in boxes:
        assert 0 <= box.top and box.top + box.height <= rows
        assert 0 <= box.left and box.left + box.width <= cols
        assert (box.height, box.width) == (spec.plot_height_px, spec.plot_width_px)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            row_gap = a.top + a.height <= b.top or b.top + b.height <= a.top
            col_gap = a.left + a.width <= b.left or b.left + b.width <= a.left
            assert row_gap or col_gap


def test_boxes_jitter_is_bounded():
    spec, _, truth, _ = small_scene()
    for pid, box in truth.boxes.items():
        gr, gc = truth.plot_map.positions[pid]
        nominal_top = 40 + gr * spec.pitch_row_px
        nominal_left = 16 + gc * spec.pitch_col_px
        assert abs(box.top - nominal_top) <= spec.jitter_px
        assert abs(box.left - nominal_left) <= spec.jitter_px


def test_plot_ids_cover_the_grid():
    spec, _, truth, _ = small_scene()
    assert sorted(truth.boxes) == sorted(truth.plot_map.positions)
    assert len(truth.boxes) == spec.grid_rows * spec.grid_cols
    assert "P0000" in truth.boxes
    assert f"P{spec.grid_rows - 1:02d}{spec.grid_cols - 1:02d}" in truth.boxes


def test_window_yield_grids_match_tiling():
    spec, _, truth, _ = small_scene()
    shape = window_grid_shape(spec.plot_height_px, spec.plot_width_px, spec.window_px)
    for pid, grid in truth.window_yields.items():
        assert grid.shape == shape
        assert np.all(grid >= 0)


def _window_counts(crop, w):
    """(row, col, foreground count) of each window, row-major, each sliced
    out of ``crop`` and clipped at its edges."""
    rows, cols = crop.shape
    return [
        (r // w, c // w, int(crop[r : r + w, c : c + w].sum()))
        for r in range(0, rows, w)
        for c in range(0, cols, w)
    ]


def test_target_ratio_solves_the_noise_level():
    spec, _, truth, _ = small_scene()
    assert truth.theoretical_r2 == pytest.approx(spec.target_subplot_r2, abs=1e-12)
    counts = []
    for pid, grid in truth.window_yields.items():
        # recover counts: per-window yield / (ypp * plot factor); use the
        # stored mask instead, it is the ground truth
        box = truth.boxes[pid]
        crop = truth.sl_mask[box.top : box.top + box.height,
                             box.left : box.left + box.width]
        counts += [n for _, _, n in _window_counts(crop, spec.window_px) if n > 0]
    counts = np.asarray(counts, dtype=np.float64)
    var_n, mean_sq = counts.var(), np.mean(counts**2)
    expected = var_n / (var_n + mean_sq * truth.yield_noise_sigma**2)
    assert expected == pytest.approx(spec.target_subplot_r2, abs=1e-12)


def test_explicit_noise_sigma_reports_its_ratio():
    _, truth = generate_scene(SynthSpec(
        seed=9, grid_rows=1, grid_cols=2, plot_height_px=20, plot_width_px=40,
        window_px=10, alley_px=8, yield_noise_sigma=0.25,
    ))
    assert truth.yield_noise_sigma == 0.25
    assert 0.0 < truth.theoretical_r2 < 1.0


# ---------------------------------------------------------------------------
# downstream recovery on noiseless scenes

def test_unmix_recovers_planted_abundances():
    spec = SynthSpec(seed=5, grid_rows=2, grid_cols=2, plot_height_px=24,
                     plot_width_px=45, alley_px=10, jitter_px=2)
    cube, truth, _ = scene_cube(spec)
    reflectance = to_reflectance(cube, truth.panel_region, truth.panel_reflectance)
    estimate, _ = unmix_cube(reflectance, truth.endmembers)
    err = np.max(np.abs(estimate.values - truth.abundances.values))
    assert err < 1e-6


def _records_from_truth(truth, window_px):
    """Per plot: the (window_row, window_col, n_sl) and planted yield of each window."""
    records = {}
    for pid, box in truth.boxes.items():
        crop = truth.sl_mask[box.top : box.top + box.height,
                             box.left : box.left + box.width]
        grid = truth.window_yields[pid]
        windows = np.array([row for row in _window_counts(crop, window_px) if row[2] > 0])
        records[pid] = (windows, grid[windows[:, 0], windows[:, 1]].astype(np.float64))
    return records


def test_uniform_density_classifies_uniform():
    spec = SynthSpec(seed=21, grid_rows=4, grid_cols=4)
    _, truth = generate_scene(spec)
    shape = window_grid_shape(spec.plot_height_px, spec.plot_width_px, spec.window_px)
    records = _records_from_truth(truth, spec.window_px)
    labels = []
    for pid in truth.boxes:
        _, label = middle_third_ratio(*records[pid], *shape)
        labels.append(label)
    uniform = sum(1 for v in labels if v == "uniform")
    assert uniform >= 0.7 * len(labels)


def test_margin_boost_classifies_side_heavy():
    spec = SynthSpec(seed=22, grid_rows=4, grid_cols=4, margin_boost=1.8,
                     side_heavy_fraction=1.0)
    _, truth = generate_scene(spec)
    assert all(truth.side_heavy.values())
    shape = window_grid_shape(spec.plot_height_px, spec.plot_width_px, spec.window_px)
    records = _records_from_truth(truth, spec.window_px)
    labels = []
    for pid in truth.boxes:
        _, label = middle_third_ratio(*records[pid], *shape)
        labels.append(label)
    heavy = sum(1 for v in labels if v == "one-side-heavy")
    assert heavy >= 0.7 * len(labels)


def test_side_heavy_fraction_counts_plots():
    spec = SynthSpec(seed=23, grid_rows=2, grid_cols=3, plot_height_px=24,
                     plot_width_px=45, alley_px=10, margin_boost=1.5,
                     side_heavy_fraction=0.5)
    _, truth = generate_scene(spec)
    assert sum(truth.side_heavy.values()) == 3


# ---------------------------------------------------------------------------
# reference cube

def test_reference_cube_contains_exact_pure_patches():
    cube, endmembers, regions = generate_reference_cube(seed=4)
    assert endmembers.labels == CROP_LABELS
    assert cube.units == "reflectance"
    for i, label in enumerate(CROP_LABELS):
        top, left, h, w = regions[label]
        patch = cube.data[top : top + h, left : left + w]
        assert np.array_equal(patch, np.broadcast_to(
            endmembers.spectra[:, i], patch.shape))


def test_reference_cube_pixels_stay_in_hull():
    cube, endmembers, _ = generate_reference_cube(seed=4)
    flat = cube.data.reshape(-1, cube.data.shape[2])
    lo = endmembers.spectra.min(axis=1) - 1e-12
    hi = endmembers.spectra.max(axis=1) + 1e-12
    assert np.all(flat >= lo) and np.all(flat <= hi)


def test_volume_extraction_finds_the_patches():
    cube, endmembers, _ = generate_reference_cube(seed=8)
    flat = cube.data.reshape(-1, cube.data.shape[2]).T
    found = svmax(flat, count=len(CROP_LABELS), wavelengths=cube.wavelengths)
    planted = {tuple(endmembers.spectra[:, i]) for i in range(len(CROP_LABELS))}
    recovered = {tuple(found.spectra[:, i]) for i in range(found.spectra.shape[1])}
    assert planted == recovered


# ---------------------------------------------------------------------------
# planted-target regression sets

@dataclass(frozen=True)
class RegressionSpec:
    """Planted-target dataset riding on real pipeline features."""

    seed: int = 0
    target_r2: float | None = None
    noise_sigma: float | None = None
    pure_noise: bool = False
    window_px: int = 15

    def __post_init__(self):
        if self.target_r2 is not None and self.noise_sigma is not None:
            raise ConfigError("give target_r2 or noise_sigma, not both")
        if self.target_r2 is not None and not (0.0 < self.target_r2 < 1.0):
            raise ConfigError("target coefficient of determination not in (0, 1)")
        if self.noise_sigma is not None and self.noise_sigma < 0:
            raise ConfigError("noise sigma cannot be negative")


@dataclass(frozen=True)
class RegressionTruth:
    intercept: float
    mean_coefficients: np.ndarray
    count_coefficient: float
    noise_sigma: float
    theoretical_r2: float


def generate_regression_set(spec: RegressionSpec) -> tuple[Records, RegressionTruth]:
    """Sub-plot records whose targets follow a known linear function.

    Features come from an actual small synthetic scene (calibrated,
    band-masked, windowed); targets are replaced by
    ``intercept + c_mean . band_means + c_n . count + noise`` with the
    noise level solved from the requested theoretical ratio.
    """
    scene_spec = SynthSpec(
        seed=spec.seed,
        grid_rows=6,
        grid_cols=8,
        plot_height_px=30,
        plot_width_px=90,
        alley_px=10,
        jitter_px=2,
        window_px=spec.window_px,
    )
    cube, truth, _ = scene_cube(scene_spec)
    mask = band_mask_from_windows(cube.wavelengths)
    masked = to_reflectance(cube, truth.panel_region, truth.panel_reflectance, mask)
    parts = []
    for pid in sorted(truth.boxes):
        box = truth.boxes[pid]
        data = masked.data[
            box.top : box.top + box.height, box.left : box.left + box.width
        ]
        mask = truth.sl_mask[
            box.top : box.top + box.height, box.left : box.left + box.width
        ]
        parts.append(
            build_records(pid, data, mask, plot_yield=1.0, window_px=spec.window_px)
        )
    records = Records.concat(parts)

    d = masked.bands
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 1)))
    c_mean = np.zeros(d)
    if spec.pure_noise:
        c_n = 0.0
    else:
        # sparse planted map: a handful of bands plus the count term
        active = rng.choice(d, size=12, replace=False)
        c_mean[active] = rng.uniform(-1.5, 1.5, size=active.size)
        c_n = float(rng.uniform(0.08, 0.15))
    intercept = 30.0
    features = records.features
    signal = intercept + features[:, :d] @ c_mean + c_n * features[:, -1]
    var_s = float(signal.var())

    if spec.pure_noise:
        sigma = 1.0
    elif spec.target_r2 is not None:
        sigma = float(np.sqrt(var_s * (1.0 - spec.target_r2) / spec.target_r2))
    else:
        sigma = float(spec.noise_sigma or 0.0)
    targets = signal + sigma * rng.standard_normal(signal.size)
    records = Records(records.plot_ids, records.windows, targets, features)
    theoretical = 0.0 if var_s == 0.0 else var_s / (var_s + sigma**2)
    return records, RegressionTruth(
        intercept=intercept,
        mean_coefficients=c_mean,
        count_coefficient=c_n,
        noise_sigma=sigma,
        theoretical_r2=theoretical,
    )


def test_regression_spec_validation():
    with pytest.raises(ConfigError):
        RegressionSpec(target_r2=0.8, noise_sigma=0.1)
    with pytest.raises(ConfigError):
        RegressionSpec(target_r2=1.5)
    with pytest.raises(ConfigError):
        RegressionSpec(noise_sigma=-1.0)


def test_regression_targets_follow_the_planted_map():
    records, truth = generate_regression_set(RegressionSpec(seed=6, noise_sigma=0.0))
    assert truth.noise_sigma == 0.0
    assert truth.theoretical_r2 == 1.0
    x, y = records.features, records.yields
    d = truth.mean_coefficients.size
    signal = truth.intercept + x[:, :d] @ truth.mean_coefficients
    signal += truth.count_coefficient * x[:, -1]
    np.testing.assert_allclose(y, signal, rtol=1e-12)


def test_regression_pure_noise_has_zero_map():
    records, truth = generate_regression_set(RegressionSpec(seed=6, pure_noise=True))
    assert np.all(truth.mean_coefficients == 0)
    assert truth.count_coefficient == 0.0
    assert truth.theoretical_r2 == 0.0
    assert truth.noise_sigma == 1.0


def test_regression_theoretical_ratio_matches_request():
    _, truth = generate_regression_set(RegressionSpec(seed=6, target_r2=0.8))
    assert truth.theoretical_r2 == pytest.approx(0.8, abs=1e-12)


def _fit_and_score(spec):
    records, truth = generate_regression_set(spec)
    x, y, ids = records.features, records.yields, records.plot_ids
    split = stratified_split(y, ids, SplitSpec(seed=5, test_plots=8))
    config = TrainConfig(epochs=500, batch_size=32, seed=3)
    model, _ = train(
        x[split.train], y[split.train],
        x[split.validation], y[split.validation],
        hidden_sizes=(64, 32), config=config,
    )
    return truth, r2_score(y[split.test], predict(model, x[split.test]))


def test_model_on_noiseless_target_is_nearly_exact():
    truth, score = _fit_and_score(RegressionSpec(seed=2, noise_sigma=0.0))
    assert truth.theoretical_r2 == 1.0
    assert score >= 0.99


def test_model_on_pure_noise_finds_nothing():
    _, score = _fit_and_score(RegressionSpec(seed=2, pure_noise=True))
    assert score <= 0.05


def test_model_lands_near_the_planted_ratio():
    truth, score = _fit_and_score(RegressionSpec(seed=2, target_r2=0.8))
    assert truth.theoretical_r2 == pytest.approx(0.8, abs=1e-12)
    assert 0.7 <= score <= 0.85
