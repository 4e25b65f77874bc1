"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one verdict line of the form

    acceptance NN <name>: PASS|FAIL [detail]

and then asserts it, so ``pytest tests/test_acceptance.py -v -s``
shows the full scorecard while a plain pytest run still fails red on
any regression. The criteria cover solver exactness against an
enumeration oracle, recovery of planted abundances, pure-pixel
selection, yield conservation, split bookkeeping, gradient checks,
an end-to-end quality bar, grid labeling, detection overlap, the
window-size tie tradeoff, and byte-level determinism.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    batch_mse,
    central_difference,
    identical_yield_fraction,
    scene_cube,
    simplex_ls_enumerate,
    unmix_pixel,
)

from hyperfield import cli
from hyperfield.cube import (
    HyperCube,
    band_mask_from_windows,
    default_wavelengths,
    to_reflectance,
)
from hyperfield.endmember import EndmemberSet, svmax
from hyperfield.gridmap import PlotMap, assign_ids, build_grid
from hyperfield.mlp import (
    MlpModel,
    SplitSpec,
    backward,
    init_model,
    stratified_split,
)
from hyperfield.pipeline import read_metrics_csv
from hyperfield.segment import (
    PlotBox,
    binary_open,
    extract_plots,
    fill_holes,
    ndpsi,
    otsu_threshold,
    threshold_mask,
)
from hyperfield.subplot import Records, build_records
from hyperfield.synth import (
    CROP_LABELS,
    SynthSpec,
    endmember_library,
    generate_reference_cube,
    generate_scene,
)
from hyperfield.unmix import unmix_cube


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} [{detail}]"
    print(line, flush=True)
    assert ok, line


def _masked_crop_endmembers() -> tuple[np.ndarray, np.ndarray]:
    """Crop spectra restricted to the default analysis bands."""
    grid = default_wavelengths()
    keep = band_mask_from_windows(grid)
    library = endmember_library().select(CROP_LABELS)
    return library.spectra[keep], grid[keep]


# ---------------------------------------------------------------------------
# 1. solver exactness and full-frame throughput

def test_01_unmix_matches_enumeration_and_scales():
    rng = np.random.default_rng(np.random.SeedSequence(101))
    bands, members = 190, 4
    W = rng.uniform(0.02, 0.9, size=(bands, members))

    # thirds: exact mixtures, noisy mixtures, arbitrary vectors, so the
    # solver visits interior optima and every boundary active set
    n = 10_000
    H = rng.dirichlet(np.ones(members), size=n)
    X = H @ W.T
    X[3000:6500] += rng.normal(0.0, 0.01, X[3000:6500].shape)
    X[6500:] = rng.uniform(-0.2, 1.0, X[6500:].shape)

    worst_gap = 0.0
    worst_sum = 0.0
    worst_neg = 0.0
    for i in range(n):
        h, _ = unmix_pixel(W, X[i])
        objective = float(np.sum((X[i] - W @ h) ** 2))
        _, reference = simplex_ls_enumerate(W, X[i])
        worst_gap = max(worst_gap, abs(objective - reference))
        worst_sum = max(worst_sum, abs(float(h.sum()) - 1.0))
        worst_neg = max(worst_neg, -float(h.min()))

    # full frame: 2000 x 640 px, same band count and member count
    rows, cols = 2000, 640
    Hf = rng.dirichlet(np.ones(members), size=rows * cols)
    data = (Hf @ W.T).reshape(rows, cols, bands)
    del Hf
    for r0 in range(0, rows, 200):  # chunked so noise never doubles memory
        block = data[r0 : r0 + 200]
        block += rng.normal(0.0, 0.005, block.shape)
    wavelengths = np.arange(bands, dtype=np.float64)
    cube = HyperCube(data=data, wavelengths=wavelengths, units="reflectance")
    members_set = EndmemberSet(
        labels=("m0", "m1", "m2", "m3"), wavelengths=wavelengths, spectra=W
    )
    t0 = time.perf_counter()
    abundances, _ = unmix_cube(cube, members_set)
    elapsed = time.perf_counter() - t0
    del data, cube

    frame_sum = float(np.abs(abundances.values.sum(axis=2) - 1.0).max())
    frame_neg = -float(abundances.values.min())
    ok = (
        worst_gap <= 1e-10
        and worst_sum <= 1e-8
        and worst_neg <= 1e-12
        and frame_sum <= 1e-8
        and frame_neg <= 1e-12
        and elapsed < 60.0
    )
    _verdict(
        1,
        "constrained solver matches enumeration",
        ok,
        f"objective gap {worst_gap:.1e}, frame {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. planted abundance recovery, noiseless and at 40 dB

def test_02_planted_abundances_recovered():
    W, wavelengths = _masked_crop_endmembers()
    members = EndmemberSet(
        labels=CROP_LABELS, wavelengths=wavelengths, spectra=W
    )

    rng = np.random.default_rng(np.random.SeedSequence(202))
    H = rng.dirichlet(np.ones(4), size=4000)
    cube = HyperCube(
        data=(H @ W.T).reshape(80, 50, -1),
        wavelengths=wavelengths,
        units="reflectance",
    )
    estimate, _ = unmix_cube(cube, members)
    noiseless_err = float(np.abs(estimate.values.reshape(-1, 4) - H).max())

    noisy_means = []
    for seed in range(10):
        srng = np.random.default_rng(np.random.SeedSequence((202, seed)))
        Hs = srng.dirichlet(np.ones(4), size=2000)
        Xs = Hs @ W.T
        sigma = np.sqrt(np.mean(Xs**2) / 10.0**4.0)  # 40 dB
        Xs = Xs + srng.normal(0.0, sigma, Xs.shape)
        noisy = HyperCube(
            data=Xs.reshape(40, 50, -1),
            wavelengths=wavelengths,
            units="reflectance",
        )
        est, _ = unmix_cube(noisy, members)
        noisy_means.append(float(np.abs(est.values.reshape(-1, 4) - Hs).mean()))

    ok = noiseless_err < 1e-6 and max(noisy_means) < 0.02
    _verdict(
        2,
        "planted abundances recovered",
        ok,
        f"noiseless max {noiseless_err:.1e}, "
        f"40 dB mean {max(noisy_means):.4f} over 10 seeds",
    )


# ---------------------------------------------------------------------------
# 3. pure-pixel selection and simplex volume dominance

def _simplex_volume_sq(spectra: np.ndarray) -> float:
    """Squared content of the simplex spanned by the columns.

    Columns are put in a canonical order first: the volume is a set
    function, and evaluating permutations identically keeps equal sets
    bit-equal instead of differing by rounding.
    """
    ordered = np.array(sorted(map(tuple, spectra.T))).T
    edges = ordered[:, 1:] - ordered[:, :1]
    return float(np.linalg.det(edges.T @ edges))


def test_03_pure_pixels_selected_volume_maximal():
    cube, crop, _ = generate_reference_cube(seed=0)
    pixels = cube.data.reshape(-1, cube.data.shape[2]).T
    picked = svmax(pixels, len(CROP_LABELS))

    got = {tuple(picked.spectra[:, j]) for j in range(picked.spectra.shape[1])}
    planted = {tuple(crop.spectra[:, j]) for j in range(crop.spectra.shape[1])}
    set_ok = got == planted

    selected_volume = _simplex_volume_sq(picked.spectra)
    rng = np.random.default_rng(np.random.SeedSequence(303))
    n = pixels.shape[1]
    best_random = 0.0
    for _ in range(10_000):
        idx = rng.choice(n, size=len(CROP_LABELS), replace=False)
        best_random = max(best_random, _simplex_volume_sq(pixels[:, idx]))

    ok = set_ok and selected_volume >= best_random
    _verdict(
        3,
        "pure pixels selected, volume maximal",
        ok,
        f"set equality {set_ok}, "
        f"volume ratio {best_random / selected_volume:.4f} over 10^4 draws",
    )


# ---------------------------------------------------------------------------
# 4. allocation conserves the plot yield

def test_04_allocation_conserves_plot_yield():
    _, truth = generate_scene(SynthSpec(seed=11, snr_db=35.0))
    worst = 0.0
    cases = 0
    for pid, box in sorted(truth.boxes.items()):
        mask = truth.sl_mask[
            box.top : box.top + box.height, box.left : box.left + box.width
        ]
        dummy = np.zeros((box.height, box.width, 1))
        for window in (10, 15, 20):
            records = build_records(
                pid, dummy, mask, truth.plot_yields[pid], window_px=window
            )
            total = sum(records.yields.tolist())
            worst = max(
                worst,
                abs(total - truth.plot_yields[pid]) / abs(truth.plot_yields[pid]),
            )
            cases += 1
    ok = worst <= 1e-9
    _verdict(
        4,
        "allocation conserves plot yield",
        ok,
        f"worst relative error {worst:.1e} over {cases} plot/window cases",
    )


# ---------------------------------------------------------------------------
# 5. split bookkeeping on declared cardinalities

def test_05_split_counts_and_stratum_rounding():
    # 422 plots: 50 held out whole (39 x 45 + 11 x 44 = 2239 records),
    # 372 remaining (308 x 46 + 64 x 45 = 17048), 19287 records total
    plot_sizes = [45] * 39 + [44] * 11 + [46] * 308 + [45] * 64
    test_ids = [f"T{i:03d}" for i in range(50)]
    ids = test_ids + [f"R{i:03d}" for i in range(372)]

    rng = np.random.default_rng(np.random.SeedSequence(404))
    yields = []
    record_plots: list[str] = []
    for pid, size in zip(ids, plot_sizes):
        base = rng.uniform(20.0, 90.0)
        yields.append(base + rng.normal(0.0, 2.0, size))
        record_plots.extend([pid] * size)
    yields = np.concatenate(yields)
    assert yields.size == 19287

    spec = SplitSpec(
        train_fraction=0.85,
        validation_fraction=0.15,
        strata=10,
        seed=0,
        test_plot_ids=tuple(test_ids),
    )
    split = stratified_split(yields, record_plots, spec)
    counts = (split.train.size, split.validation.size, split.test.size)
    counts_ok = counts == (14491, 2557, 2239)
    test_ok = np.array_equal(split.test, np.arange(2239))

    # per-stratum rounding: rebuild the rank chunks and check the
    # validation share lands within one record of exact proportion
    remaining = np.sort(np.concatenate([split.train, split.validation]))
    order = remaining[np.argsort(yields[remaining], kind="stable")]
    bounds = [order.size * s // 10 for s in range(11)]
    val_set = set(split.validation.tolist())
    stratum_gap = 0.0
    for s in range(10):
        chunk = order[bounds[s] : bounds[s + 1]]
        in_val = sum(1 for i in chunk.tolist() if i in val_set)
        stratum_gap = max(stratum_gap, abs(in_val - chunk.size * 0.15))

    ok = counts_ok and test_ok and stratum_gap <= 1.0
    _verdict(
        5,
        "split counts and stratum rounding",
        ok,
        f"train/val/test {counts[0]}/{counts[1]}/{counts[2]}, "
        f"worst stratum gap {stratum_gap:.2f}",
    )


# ---------------------------------------------------------------------------
# 6. analytic gradients against central differences

def _model_over_flat_buffer(layer_sizes, seed):
    """Model whose weights and biases are views into one flat vector."""
    proto = init_model(layer_sizes, seed=seed)
    total = sum(w.size + b.size for w, b in zip(proto.weights, proto.biases))
    flat = np.empty(total, dtype=np.float64)
    weights, biases = [], []
    pos = 0
    for w, b in zip(proto.weights, proto.biases):
        view = flat[pos : pos + w.size].reshape(w.shape)
        view[...] = w
        weights.append(view)
        pos += w.size
        view = flat[pos : pos + b.size]
        view[...] = b
        biases.append(view)
        pos += b.size
    model = MlpModel(layer_sizes=tuple(layer_sizes), weights=weights, biases=biases)
    return model, flat


def _min_abs_preactivation(model, x):
    a = x
    smallest = np.inf
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        smallest = min(smallest, float(np.abs(z).min()))
        a = z if i == last else np.maximum(z, 0.0)
    return smallest


def test_06_gradients_match_central_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for k, sizes in enumerate(
        [(5, 4, 1), (23, 8, 8, 1), (381, 64, 32, 16, 8, 1)]
    ):
        model, flat = _model_over_flat_buffer(sizes, seed=50 + k)
        rng = np.random.default_rng(np.random.SeedSequence((606, k)))
        for _ in range(64):
            x = rng.normal(0.0, 1.0, size=(4, sizes[0]))
            y = rng.normal(0.0, 1.0, size=4)
            # keep every unit away from its kink: the loss is then
            # exactly quadratic along each coordinate at this step size
            if _min_abs_preactivation(model, x) > 2e-3:
                break
        else:
            raise AssertionError("no kink-free batch found")

        grads_w, grads_b = backward(model, x, y)
        analytic = np.concatenate(
            [
                np.concatenate([w.ravel(), b.ravel()])
                for w, b in zip(grads_w, grads_b)
            ]
        )
        numeric = central_difference(
            lambda _flat: batch_mse(model, x, y), flat, 1e-4
        )
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float((np.abs(analytic - numeric) / scale).max()))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(
        6,
        "analytic gradients match finite differences",
        ok,
        f"worst relative gap {worst:.1e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 7. end-to-end quality bar on a generated field

_PIPELINE_INI = """\
[synth]
seed = 0
snr_db = 40
target_subplot_r2 = 0.85

[train]
epochs = 150
"""


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    ini = root / "field.ini"
    ini.write_text(_PIPELINE_INI, encoding="utf-8")
    out = root / "out"
    t0 = time.perf_counter()
    assert cli.main(["synth", "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["run-all", "--config", str(ini), "--out", str(out)]) == 0
    return out, time.perf_counter() - t0


def test_07_pipeline_quality_gates(full_run):
    out, elapsed = full_run
    metrics = read_metrics_csv(out / "evaluate" / "metrics.csv")
    r2 = float(metrics["subplot_r2"])
    subplot_nrmse = float(metrics["subplot_nrmse"])
    plot_nrmse = float(metrics["plot_nrmse"])
    ok = (
        metrics["split"] == "test"
        and r2 >= 0.75
        and plot_nrmse <= subplot_nrmse
        and elapsed < 600.0
    )
    _verdict(
        7,
        "pipeline quality gates",
        ok,
        f"held-out R2 {r2:.3f}, nRMSE plot {plot_nrmse:.3f} "
        f"vs sub-plot {subplot_nrmse:.3f}, {elapsed:.0f} s",
    )


# ---------------------------------------------------------------------------
# 8. grid labeling under jitter and missing plots

def test_08_grid_labeling_under_jitter_and_gaps():
    pitch_row, pitch_col = 42.0, 102.0
    mislabeled = 0
    boxes_seen = 0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((808, seed)))
        ids = [f"P{r:02d}{c:02d}" for r in range(8) for c in range(8)]
        plot_map = PlotMap({pid: (i // 8, i % 8) for i, pid in enumerate(ids)})
        kept = np.sort(rng.permutation(64)[:58])  # 6 of 64 missing
        boxes, truth_ids = [], []
        for i in kept.tolist():
            r, c = i // 8, i % 8
            boxes.append(
                PlotBox(
                    top=int(40 + r * pitch_row + rng.normal(0, pitch_row / 20)),
                    left=int(16 + c * pitch_col + rng.normal(0, pitch_col / 20)),
                    height=30,
                    width=90,
                    area_px=2700,
                )
            )
            truth_ids.append(ids[i])
        row_lines, col_lines = build_grid(boxes, pitch_row, pitch_col)
        # anchor the first box's plot at the grid cell nearest that box
        cell = (
            int(np.argmin(np.abs(row_lines - boxes[0].top))),
            int(np.argmin(np.abs(col_lines - boxes[0].left))),
        )
        assigned = assign_ids(boxes, row_lines, col_lines, plot_map, truth_ids[0], cell)
        labeled = {(a.box.top, a.box.left): a.plot_id for a in assigned}
        for box, want in zip(boxes, truth_ids):
            boxes_seen += 1
            if labeled.get((box.top, box.left)) != want:
                mislabeled += 1
    ok = mislabeled == 0
    _verdict(
        8,
        "grid labeling under jitter and gaps",
        ok,
        f"{mislabeled} mislabeled of {boxes_seen} boxes over 20 seeds",
    )


# ---------------------------------------------------------------------------
# 9. detection overlap against planted rectangles

def _iou(a: PlotBox, b: PlotBox) -> float:
    top = max(a.top, b.top)
    left = max(a.left, b.left)
    bottom = min(a.top + a.height, b.top + b.height)
    right = min(a.left + a.width, b.left + b.width)
    inter = max(0, bottom - top) * max(0, right - left)
    union = a.height * a.width + b.height * b.width - inter
    return inter / union


def test_09_detection_overlap():
    results = []
    ok = True
    for snr_db, gate in ((None, 0.95), (30.0, 0.90)):
        cube, truth, _ = scene_cube(SynthSpec(seed=7, snr_db=snr_db))
        reflectance = to_reflectance(
            cube, truth.panel_region, truth.panel_reflectance
        )
        keep = band_mask_from_windows(reflectance.wavelengths)
        masked = HyperCube(
            data=reflectance.data[:, :, keep],
            wavelengths=reflectance.wavelengths[keep],
            units="reflectance",
        )
        plane = ndpsi(masked)
        mask = threshold_mask(plane, otsu_threshold(plane))
        mask = binary_open(fill_holes(mask), se=(10, 5))
        detected = extract_plots(mask, 1000)
        worst = min(
            max(_iou(planted, found) for found in detected)
            for planted in truth.boxes.values()
        )
        tag = "noiseless" if snr_db is None else f"{snr_db:.0f} dB"
        results.append(f"{tag} IoU {worst:.3f}")
        ok = ok and len(detected) == len(truth.boxes) and worst >= gate
    _verdict(9, "detection overlap", ok, ", ".join(results))


# ---------------------------------------------------------------------------
# 10. window size against identical allocated yields

def test_10_window_size_tie_ordering():
    violations = 0
    last = {}
    for seed in range(20):
        _, truth = generate_scene(SynthSpec(seed=900 + seed, grid_rows=3, grid_cols=3))
        fractions = {}
        for window in (10, 15, 20):
            parts = []
            for pid, box in sorted(truth.boxes.items()):
                mask = truth.sl_mask[
                    box.top : box.top + box.height,
                    box.left : box.left + box.width,
                ]
                dummy = np.zeros((box.height, box.width, 1))
                parts.append(
                    build_records(
                        pid, dummy, mask, truth.plot_yields[pid], window_px=window
                    )
                )
            fractions[window] = identical_yield_fraction(Records.concat(parts))
        if not (fractions[10] > fractions[15] > fractions[20]):
            violations += 1
        last = fractions
    ok = violations == 0
    _verdict(
        10,
        "window size tie ordering",
        ok,
        f"{violations}/20 violations, last fractions "
        f"{last.get(10):.3f} > {last.get(15):.3f} > {last.get(20):.3f}",
    )


# ---------------------------------------------------------------------------
# 11. byte-identical reruns

_TINY_INI = """\
[synth]
seed = 3
grid_rows = 4
grid_cols = 4
snr_db = 40
target_subplot_r2 = 0.85

[split]
test_plots = 3

[train]
epochs = 30
"""


def _tree_bytes(root: Path) -> dict[str, bytes]:
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_11_reruns_byte_identical(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_TINY_INI, encoding="utf-8")
    trees = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli.main(["synth", "--config", str(ini), "--out", str(out)]) == 0
        assert cli.main(["run-all", "--config", str(ini), "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    same_names = set(trees[0]) == set(trees[1])
    differing = [k for k in trees[0] if trees[0][k] != trees[1].get(k)]
    has_checkpoint = any(k.endswith("model.ckpt") for k in trees[0])
    ok = same_names and not differing and has_checkpoint
    _verdict(
        11,
        "byte-identical reruns",
        ok,
        f"{len(trees[0])} files compared, {len(differing)} differ",
    )
