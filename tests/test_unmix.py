"""Unmixing: exactness against brute-force oracles, feasibility,
the spike+leaf rule, and colormap round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperfield import cube as hc
from hyperfield import unmix
from hyperfield.cube import HyperCube
from hyperfield.endmember import EndmemberSet
from hyperfield.errors import DataError
from hyperfield.netpbm import _payload, _read_netpbm

import oracles


def read_ppm(path):
    """The (rows, cols, 3) pixels of a binary PPM, through the package's netpbm parser."""
    (cols, rows, maxval), payload = _read_netpbm(path, b"P6", "PPM", 3)
    if maxval != 255:
        raise DataError(f"unsupported PPM maxval {maxval}")
    rgb = _payload(path, payload, rows * cols * 3)
    return rgb.reshape(rows, cols, 3).copy()


def rgb_to_score(rgb):
    """Invert the ramp: the red channel is the scaled score."""
    return np.asarray(rgb)[..., 0].astype(np.float64) / 255.0


def random_endmembers(rng, d=190, e=4):
    # smooth positive spectra: random walks low-pass filtered
    raw = rng.uniform(0.05, 0.9, size=(d, e))
    kernel = np.ones(15) / 15.0
    smooth = np.stack([np.convolve(raw[:, j], kernel, mode="same") for j in range(e)], axis=1)
    return smooth + rng.uniform(0.02, 0.2, size=(1, e))


def random_pixels(rng, W, n, kind="mixed"):
    d, e = W.shape
    if kind == "mixed":
        H = rng.dirichlet(np.ones(e), size=n).T
        X = W @ H
    elif kind == "noisy":
        H = rng.dirichlet(np.ones(e), size=n).T
        X = W @ H + rng.normal(0, 0.05, size=(d, n))
    else:  # arbitrary: not near the simplex at all
        X = rng.uniform(-0.5, 1.5, size=(d, n))
    return X


def test_two_member_mixture_recovers_weights():
    rng = np.random.default_rng(0)
    W = random_endmembers(rng, d=60, e=4)
    x = 0.5 * W[:, 0] + 0.5 * W[:, 1]
    h, obj = oracles.unmix_pixel(W, x)
    assert np.max(np.abs(h - [0.5, 0.5, 0.0, 0.0])) < 1e-8
    assert obj < 1e-16


def test_vertices_recover_exactly():
    rng = np.random.default_rng(1)
    W = random_endmembers(rng, d=40, e=5)
    for j in range(5):
        h, _ = oracles.unmix_pixel(W, W[:, j])
        want = np.zeros(5)
        want[j] = 1.0
        assert np.max(np.abs(h - want)) < 1e-8


@pytest.mark.parametrize("kind", ["mixed", "noisy", "arbitrary"])
@pytest.mark.parametrize("seed", [0, 1])
def test_objective_matches_enumeration_oracle(seed, kind):
    rng = np.random.default_rng(seed)
    W = random_endmembers(rng, d=50, e=4)
    X = random_pixels(rng, W, 60, kind)
    for i in range(X.shape[1]):
        h, obj = oracles.unmix_pixel(W, X[:, i])
        _, obj_oracle = oracles.simplex_ls_enumerate(W, X[:, i])
        assert obj <= obj_oracle + 1e-10
        assert abs(obj - obj_oracle) <= 1e-10 * (1.0 + obj_oracle)


def test_projected_gradient_cannot_beat_solver():
    rng = np.random.default_rng(5)
    W = random_endmembers(rng, d=30, e=4)
    X = random_pixels(rng, W, 12, "arbitrary")
    for i in range(X.shape[1]):
        h, obj = oracles.unmix_pixel(W, X[:, i])
        _, obj_pg = oracles.simplex_ls_projected_gradient(W, X[:, i], iters=5000)
        assert obj <= obj_pg + 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feasibility_and_kkt_on_random_instances(seed):
    rng = np.random.default_rng(seed + 10)
    W = random_endmembers(rng, d=80, e=6)
    X = random_pixels(rng, W, 200, "arbitrary")
    for i in range(X.shape[1]):
        h, _ = oracles.unmix_pixel(W, X[:, i])
        assert h.min() >= 0.0
        assert abs(h.sum() - 1.0) <= 1e-8
        assert oracles.kkt_residual(W, X[:, i], h) <= 1e-9


def test_adding_an_endmember_never_hurts():
    rng = np.random.default_rng(3)
    W = random_endmembers(rng, d=45, e=6)
    X = random_pixels(rng, W[:, :3], 40, "arbitrary")
    for i in range(X.shape[1]):
        _, obj_small = oracles.unmix_pixel(W[:, :4], X[:, i])
        _, obj_big = oracles.unmix_pixel(W[:, :5], X[:, i])
        assert obj_big <= obj_small + 1e-9


def test_duplicate_endmember_takes_smallest_norm_split():
    rng = np.random.default_rng(4)
    W = random_endmembers(rng, d=30, e=3)
    W = np.concatenate([W, W[:, [0]]], axis=1)  # member 3 duplicates member 0
    h, obj = oracles.unmix_pixel(W, W[:, 0])
    assert obj < 1e-12
    # mass splits evenly between the twin columns: smallest-norm optimum
    assert h[0] == pytest.approx(0.5, abs=1e-6)
    assert h[3] == pytest.approx(0.5, abs=1e-6)


def test_solver_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    W = random_endmembers(rng, d=20, e=3)
    with pytest.raises(DataError, match="^endmember matrix has 20 bands, spectra have 19$"):
        oracles.unmix_pixel(W, np.ones(19))
    with pytest.raises(DataError, match="^13 endmembers: support enumeration is limited to 12$"):
        oracles.unmix_pixel(rng.uniform(size=(10, 13)), np.ones(10))
    with pytest.raises(DataError):
        bad = W.copy()
        bad[0, 0] = np.nan
        oracles.unmix_pixel(bad, np.ones(20))


# ---------------------------------------------------------------------------
# the certificate: full-support solves that need no enumeration


def _block(W, X):
    """``_solve_block``'s arguments for the pixels ``X`` (bands, n), as
    ``unmix_cube`` makes them: a lone pixel beside a copy of itself."""
    if X.shape[1] == 1:
        X = np.repeat(X, 2, axis=1)
    G = W.T @ W
    solvers = [unmix._SupportSolver(s, G) for s in unmix._supports(W.shape[1])]
    return (*unmix._correlate(np.asfortranarray(X), W), solvers)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    e=st.integers(1, 6),
    twin=st.sampled_from(["none", "duplicate", "near-duplicate"]),
    n=st.sampled_from([1, 2, 3, 300]),
    noise=st.sampled_from([0.0, 1e-3, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@example(e=4, twin="none", n=300, noise=0.0, seed=0)
@example(e=4, twin="duplicate", n=300, noise=0.0, seed=0)
@example(e=6, twin="near-duplicate", n=2, noise=1e-3, seed=1)
def test_certified_solves_have_the_bits_of_the_enumeration(e, twin, n, noise, seed):
    """Pixels inside the simplex, on its faces and at its vertices solve to
    the bits of trying every support, with or without a twin endmember."""
    rng = np.random.default_rng(seed)
    W = random_endmembers(rng, d=24, e=e)
    if e > 1 and twin == "duplicate":
        W[:, -1] = W[:, 0]
    elif e > 1 and twin == "near-duplicate":
        W[:, -1] = W[:, 0] + rng.normal(0, 1e-7, size=len(W))
    H = rng.dirichlet(np.ones(e), size=n).T
    kind = rng.integers(0, 3, size=n)  # inside, on a face, at a vertex
    drop = rng.random((e, n)) < 0.5
    drop[rng.integers(0, e, size=n), np.arange(n)] = False  # a face keeps one member
    H[:, kind == 1] *= ~drop[:, kind == 1]
    H[:, kind == 2] = np.eye(e)[:, rng.integers(0, e, size=int((kind == 2).sum()))]
    H /= H.sum(axis=0)
    X = W @ H + rng.normal(0, noise, size=(len(W), n))
    T, sq, solvers = _block(W, X)
    h, resid = unmix._solve_block(T, sq, solvers)
    h_all, resid_all = unmix._enumerate(T, sq, solvers)
    assert h.tobytes() == h_all.tobytes()
    assert resid.tobytes() == resid_all.tobytes()


def test_few_pixels_of_an_interior_cube_reach_the_enumeration(monkeypatch):
    """A certificate that certified nothing would still give the right
    bits, only slowly: under 5% of a planted cube's pixels, all inside the
    simplex but one pure pixel, may be enumerated."""
    enumerated = []
    enumerate_all = unmix._enumerate

    def counting(T, sq, solvers):
        enumerated.append(T.shape[1])
        return enumerate_all(T, sq, solvers)

    monkeypatch.setattr(unmix, "_enumerate", counting)
    rng = np.random.default_rng(18)
    cube, ems, H_true = planted_cube(rng, rows=40, cols=30, pure_fraction=0.0)
    abund, _ = unmix.unmix_cube(cube, ems)
    assert np.max(np.abs(abund.values - H_true)) < 1e-6
    assert sum(enumerated) < 0.05 * 40 * 30, enumerated


# ---------------------------------------------------------------------------
# cube-level


def planted_cube(rng, rows, cols, e=4, d=190, pure_fraction=0.1):
    W = random_endmembers(rng, d=d, e=e)
    n = rows * cols
    H = rng.dirichlet(np.ones(e), size=n).T
    pure = rng.choice(n, size=max(1, int(n * pure_fraction)), replace=False)
    for k, j in enumerate(pure):
        H[:, j] = 0.0
        H[k % e, j] = 1.0
    X = (W @ H).T.reshape(rows, cols, d)
    wl = 430.0 + 2.0 * np.arange(d)
    cube = HyperCube(X, wl, "reflectance")
    labels = ("spike", "leaf", "soil", "shadow", "winter_wheat", "panel")[:e]
    ems = EndmemberSet(labels, wl, W)
    return cube, ems, H.T.reshape(rows, cols, e)


def test_noiseless_cube_recovers_abundances():
    rng = np.random.default_rng(7)
    cube, ems, H_true = planted_cube(rng, rows=30, cols=20)
    abund, resid = unmix.unmix_cube(cube, ems)
    assert np.max(np.abs(abund.values - H_true)) < 1e-6
    assert resid < 1e-5
    assert abund.labels == ems.labels


def test_noisy_cube_keeps_mean_error_small():
    rng = np.random.default_rng(8)
    cube, ems, H_true = planted_cube(rng, rows=24, cols=18)
    signal_power = np.mean(cube.data.astype(np.float64) ** 2)
    sigma = np.sqrt(signal_power / 10**4.0)  # 40 dB
    noisy = HyperCube(
        np.clip(cube.data + rng.normal(0, sigma, cube.data.shape), 0, None),
        cube.wavelengths,
        "reflectance",
    )
    abund, _ = unmix.unmix_cube(noisy, ems)
    assert np.mean(np.abs(abund.values - H_true)) < 0.02


def _float64_rows(cube, rows):
    """``BLOCK_BYTES`` that hold ``rows`` of ``cube``'s rows as float64."""
    return int(rows * cube.cols * cube.bands * 8)


def test_unmix_cube_matches_pixel_solver(monkeypatch):
    rng = np.random.default_rng(9)
    cube, ems, _ = planted_cube(rng, rows=6, cols=5, d=40)
    noisy = HyperCube(
        cube.data + rng.normal(0, 0.03, cube.data.shape),
        cube.wavelengths,
        "reflectance",
    )
    monkeypatch.setattr(hc, "BLOCK_BYTES", _float64_rows(noisy, 4))  # 4 of the 6 rows at a time
    abund, _ = unmix.unmix_cube(noisy, ems)
    for r in range(6):
        for c in range(5):
            h, _ = oracles.unmix_pixel(ems.spectra, noisy.data[r, c].astype(np.float64))
            assert np.max(np.abs(abund.values[r, c] - h)) < 1e-12


def test_slice_height_does_not_change_bits(tmp_path, monkeypatch):
    """Any strip height, in memory or streamed in any interleave, gives the
    same bits. The cubes are float32; a strip is as tall in any case. In
    the one-column cube, strips of 262 and 2 rows leave a one-pixel strip,
    which numpy would solve by matrix-vector products, with other bits."""
    rng = np.random.default_rng(15)
    # 263 is prime; the wide cube has 67,591 pixels
    for cols, heights in [(257, (263, 100, 45, 3, 2, 1)), (1, (263, 262, 2, 1))]:
        cube, ems, _ = planted_cube(rng, rows=263, cols=cols, e=3, d=24)
        noisy = HyperCube(
            np.clip(cube.data + rng.normal(0, 0.02, cube.data.shape), 0, None).astype(np.float32),
            cube.wavelengths,
            "reflectance",
        )
        for il in hc.INTERLEAVES:
            hc.write_cube(noisy, tmp_path / f"{cols}-{il}", il)
        results = []
        for rows in heights:
            monkeypatch.setattr(hc, "BLOCK_BYTES", _float64_rows(noisy, rows))
            results.append(unmix.unmix_cube(noisy, ems))
            for il in hc.INTERLEAVES:
                with hc.CubeStream(tmp_path / f"{cols}-{il}") as stream:
                    results.append(unmix.unmix_cube(stream, ems))
        first = (results[0][0].values.tobytes(), repr(results[0][1]))
        assert all((abund.values.tobytes(), repr(resid)) == first for abund, resid in results)


def _pairwise_leaves(lo, hi):
    """The runs numpy's pairwise float64 sum of values ``lo`` to ``hi`` adds in loops."""
    if hi - lo <= 128:
        return [(lo, hi)]
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _pairwise_leaves(lo, mid) + _pairwise_leaves(mid, hi)


def test_residual_summed_in_blocks_has_the_bits_of_one_sum(monkeypatch):
    """unmix feeds each block's squared residuals to ``PairwiseSum``; the
    total is ``np.add.reduce`` of the whole plane, also where a pairwise
    leaf crosses a block's end."""
    sums, blocks = [], []

    class Recording(unmix.PairwiseSum):
        def __init__(self, n):
            super().__init__(n)
            sums.append(self)

        def add(self, values):
            blocks.append(np.array(values))
            super().add(values)

    monkeypatch.setattr(unmix, "PairwiseSum", Recording)
    rng = np.random.default_rng(16)
    cube, ems, _ = planted_cube(rng, rows=37, cols=29, d=24)
    noisy = HyperCube(
        np.clip(cube.data + rng.normal(0, 0.02, cube.data.shape), 0, None).astype(np.float32),
        cube.wavelengths,
        "reflectance",
    )
    # strips of 5 rows, 145 pixels, each solved in blocks of at most 72
    monkeypatch.setattr(hc, "BLOCK_BYTES", _float64_rows(noisy, 5))
    _, resid = unmix.unmix_cube(noisy, ems)
    plane = np.concatenate(blocks)
    assert [len(b) for b in blocks[:3]] == [49, 48, 48] and plane.size == 37 * 29
    ends = np.cumsum([len(b) for b in blocks])
    assert any(lo < end < hi for lo, hi in _pairwise_leaves(0, plane.size) for end in ends)
    assert sums[0].total == np.add.reduce(plane)
    assert resid == float(np.sqrt(np.add.reduce(plane)))


def test_unmix_holds_no_per_pixel_array_but_the_map(tmp_path, monkeypatch):
    """Doubling a streamed cube's rows grows ``unmix_cube``'s traced peak by
    the added map (32 B/px for four members) and little more: the squared
    residuals are summed as each block is solved, and the map's sums are
    checked a band of rows at a time. A residual plane alone adds 8 B/px."""
    rng = np.random.default_rng(17)
    cube, ems, _ = planted_cube(rng, rows=512, cols=64, d=24)
    tall = HyperCube(cube.data.astype(np.float32), cube.wavelengths, "reflectance")
    hc.write_cube(tall, tmp_path / "tall")
    hc.write_cube(tall.crop(0, 0, 256, 64), tmp_path / "short")
    monkeypatch.setattr(hc, "BLOCK_BYTES", _float64_rows(tall, 16))
    monkeypatch.setattr(unmix, "_CHECK_PIXELS", 16 * 64)
    peaks = []
    for name in ("short", "tall"):
        with hc.CubeStream(tmp_path / name) as stream:
            tracemalloc.start()
            try:
                unmix.unmix_cube(stream, ems)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    added = 256 * 64
    assert peaks[1] - peaks[0] <= 32 * added + (32 << 10), peaks


def test_band_major_cube_gives_the_same_bits(monkeypatch):
    rng = np.random.default_rng(14)
    cube, ems, _ = planted_cube(rng, rows=23, cols=17)
    monkeypatch.setattr(hc, "BLOCK_BYTES", _float64_rows(cube, 3))  # 3 of the 23 rows at a time
    noisy = np.clip(cube.data + rng.normal(0, 0.02, cube.data.shape), 0, None)
    c_order = HyperCube(np.ascontiguousarray(noisy), cube.wavelengths, "reflectance")
    band_major = HyperCube(
        np.ascontiguousarray(noisy.transpose(2, 0, 1)).transpose(1, 2, 0),
        cube.wavelengths,
        "reflectance",
    )
    a, ra = unmix.unmix_cube(c_order, ems)
    b, rb = unmix.unmix_cube(band_major, ems)
    assert np.array_equal(a.values, b.values)
    assert ra == rb


def test_wavelength_grid_must_match():
    rng = np.random.default_rng(11)
    cube, ems, _ = planted_cube(rng, rows=4, cols=4, d=30)
    shifted = EndmemberSet(ems.labels, ems.wavelengths + 1.0, ems.spectra)
    with pytest.raises(DataError, match=r"^endmember wavelength grid does not match the cube"):
        unmix.unmix_cube(cube, shifted)


def test_abundance_map_validation_and_planes():
    values = np.zeros((2, 2, 3))
    values[..., 0] = 1.0
    am = unmix.AbundanceMap(values, ("a", "b", "c"))
    assert np.array_equal(am.plane("a"), np.ones((2, 2)))
    with pytest.raises(DataError):
        am.plane("z")
    bad = values.copy()
    bad[0, 0, 0] = 0.5  # sum now 0.5
    with pytest.raises(DataError):
        unmix.AbundanceMap(bad, ("a", "b", "c"))


@pytest.mark.parametrize("row", [0, 4, 9], ids=["first-band", "middle-band", "last-band"])
@pytest.mark.parametrize(
    "pixel, message",
    [
        ([0.5 + 2e-12, 0.5, -2e-12, 0.0], "abundances leave"),
        ([1.0 + 2e-9, 0.0, 0.0, 0.0], "abundances leave"),
        ([0.25, 0.25, 0.25, 0.25 + 2e-8], "abundance sums deviate"),
    ],
    ids=["below-zero", "above-one", "sum-off"],
)
def test_abundance_map_checks_every_band_of_rows(monkeypatch, row, pixel, message):
    """The sums are checked 3 rows at a time here: bands of rows 0-2, 3-5,
    6-8 and 9. Each fault raises its own error in any band."""
    monkeypatch.setattr(unmix, "_CHECK_PIXELS", 12)
    values = np.full((10, 4, 4), 0.25)
    unmix.AbundanceMap(values, ("a", "b", "c", "d"))
    values[row, 2] = pixel
    with pytest.raises(DataError, match=message):
        unmix.AbundanceMap(values, ("a", "b", "c", "d"))


def test_a_value_out_of_range_is_named_before_a_sum_in_an_earlier_band(monkeypatch):
    monkeypatch.setattr(unmix, "_CHECK_PIXELS", 12)
    values = np.full((10, 4, 4), 0.25)
    values[0, 0, 0] += 2e-8
    values[9, 3] = [1.0 + 2e-9, 0.0, 0.0, 0.0]
    with pytest.raises(DataError, match="abundances leave"):
        unmix.AbundanceMap(values, ("a", "b", "c", "d"))


def test_abundance_cube_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    H = rng.dirichlet(np.ones(4), size=12).reshape(3, 4, 4)
    am = unmix.AbundanceMap(H, ("spike", "leaf", "soil", "shadow"))
    from hyperfield.cube import read_cube, write_cube

    write_cube(am.to_cube(), tmp_path / "abund")
    back = unmix.AbundanceMap.from_cube(read_cube(tmp_path / "abund"))
    assert back.labels == am.labels
    assert np.array_equal(back.values, am.values)


# ---------------------------------------------------------------------------
# spike+leaf rule


def test_sl_rule_equivalence_on_exact_simplex():
    rng = np.random.default_rng(13)
    H = rng.dirichlet(np.ones(4), size=4000)
    above = H[:, 0] + H[:, 1] > 0.5
    more_than_background = H[:, 0] + H[:, 1] > H[:, 2] + H[:, 3]
    assert np.array_equal(above, more_than_background)


def test_sl_mask_threshold_is_strict():
    values = np.zeros((1, 3, 4))
    values[0, 0] = [0.25, 0.25, 0.25, 0.25]  # score 0.5: background
    values[0, 1] = [0.3, 0.21, 0.29, 0.2]  # score 0.51: foreground
    values[0, 2] = [0.1, 0.2, 0.3, 0.4]  # score 0.3: background
    am = unmix.AbundanceMap(values, ("spike", "leaf", "soil", "shadow"))
    assert list(unmix.sl_mask(am)[0]) == [False, True, False]


def test_sl_mask_uses_labels_not_positions():
    values = np.zeros((1, 1, 4))
    values[0, 0] = [0.4, 0.3, 0.2, 0.1]
    am = unmix.AbundanceMap(values, ("soil", "shadow", "spike", "leaf"))
    assert not unmix.sl_mask(am)[0, 0]  # spike + leaf is 0.3; the first two sum to 0.7


# ---------------------------------------------------------------------------
# colormap


def test_ramp_entries_are_unique():
    colors = {tuple(c) for c in unmix.COLOR_RAMP}
    assert len(colors) == 256


def test_score_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    score = rng.uniform(0, 1, size=(9, 13))
    path = tmp_path / "score.ppm"
    unmix.write_score_ppm(path, score)
    rgb = read_ppm(path)
    decoded = rgb_to_score(rgb)
    assert np.max(np.abs(decoded - score)) <= 1.0 / 255.0


def test_score_ppm_accepts_sl_mask(tmp_path):
    unmix.write_score_ppm(tmp_path / "sl.ppm", np.array([[0.0, 0.5, 1.0]]))
    rgb = read_ppm(tmp_path / "sl.ppm")
    assert tuple(rgb[0, 0]) == (0, 0, 255)
    assert tuple(rgb[0, 2]) == (255, 0, 0)


@pytest.mark.parametrize("damage", ["truncate", "header"])
def test_read_ppm_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "s.ppm"
    unmix.write_score_ppm(path, np.zeros((4, 5)))
    data = path.read_bytes()
    if damage == "truncate":
        path.write_bytes(data[:-1])
    else:
        path.write_bytes(data.replace(b"5 4", b"5 -4", 1))
    with pytest.raises(DataError, match="s.ppm"):
        read_ppm(path)
