"""Endmember extraction: PCA basis, successive volume maximization,
neighbourhood refinement, CSV round trips."""

import itertools

import numpy as np
import pytest

from hyperfield import endmember as em
from hyperfield.errors import (
    DataError,
    DegenerateSimplexError,
    RankError,
    ShapeMismatchError,
)


def simplex_cloud(rng, vertices, n_interior, alpha=1.0):
    """Dirichlet mixtures of the given (bands, e) vertices."""
    e = vertices.shape[1]
    H = rng.dirichlet(np.full(e, alpha), size=n_interior).T
    return vertices @ H


def picked_pixels(X, found):
    """The column of ``X`` that each member of ``found`` is, in member order."""
    hits = [np.flatnonzero((X == spectrum[:, None]).all(axis=0)) for spectrum in found.spectra.T]
    assert all(hit.size == 1 for hit in hits)
    return [int(hit[0]) for hit in hits]


def pca_reconstruct(basis, scores):
    return basis.mean[:, None] + basis.components @ np.asarray(scores, dtype=np.float64)


def explained_variance(basis, X):
    """The population variance of ``X`` along each component."""
    return em.pca_project(basis, X).var(axis=1)


# ---------------------------------------------------------------------------
# PCA


def test_pca_recovers_planted_subspace():
    rng = np.random.default_rng(0)
    d, n = 30, 500
    basis_true = np.linalg.qr(rng.normal(size=(d, 2)))[0]
    scores = rng.normal(size=(2, n)) * np.array([[5.0], [2.0]])
    X = basis_true @ scores + rng.uniform(size=(d, 1))
    basis = em.pca_fit(X, 2)
    # orthonormal within 1e-8
    gram = basis.components.T @ basis.components
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8
    # spans the planted plane: projecting then reconstructing is lossless
    recon = pca_reconstruct(basis, em.pca_project(basis, X))
    assert np.max(np.abs(recon - X)) < 1e-8
    # variances are sorted descending
    variance = explained_variance(basis, X)
    assert variance[0] >= variance[1] > 0


def test_pca_line_has_full_first_ratio():
    rng = np.random.default_rng(1)
    direction = rng.normal(size=8)
    t = rng.normal(size=200)
    X = np.outer(direction, t) + 3.0
    basis = em.pca_fit(X, 1)
    assert explained_variance(basis, X)[0] == pytest.approx(X.var(axis=1).sum())


def test_pca_sign_convention():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 100))
    basis = em.pca_fit(X, 3)
    for j in range(3):
        col = basis.components[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_pca_rank_error():
    rng = np.random.default_rng(3)
    direction = rng.normal(size=10)
    X = np.outer(direction, rng.normal(size=50))  # rank 1
    with pytest.raises(RankError, match="rank is 1"):
        em.pca_fit(X, 2)


def test_pca_argument_checks():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 10))
    with pytest.raises(ShapeMismatchError):
        em.pca_fit(X, 0)
    with pytest.raises(ShapeMismatchError):
        em.pca_fit(X, 6)
    with pytest.raises(ShapeMismatchError):
        em.pca_fit(rng.normal(size=(5, 3)), 3)


def test_pca_projection_matches_manual():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 60))
    basis = em.pca_fit(X, 2)
    Y = em.pca_project(basis, X)
    manual = basis.components.T @ (X - X.mean(axis=1, keepdims=True))
    assert np.allclose(Y, manual, atol=1e-10)


# ---------------------------------------------------------------------------
# SVMAX


def test_svmax_1d_picks_min_and_max():
    X = np.array([[0.3, 0.9, 0.1, 0.5, 0.7]])
    got = em.svmax(X, 2)
    picked = {X[0, j] for j in picked_pixels(X, got)}
    assert picked == {0.1, 0.9}


@pytest.mark.parametrize("seed", range(6))
def test_svmax_recovers_planted_pure_pixels(seed):
    rng = np.random.default_rng(seed)
    d, e = 40, 4
    vertices = rng.uniform(0.05, 0.9, size=(d, e))
    X = simplex_cloud(rng, vertices, 400)
    planted = rng.choice(400, size=e, replace=False)
    X[:, planted] = vertices
    got = em.svmax(X, e)
    assert set(picked_pixels(X, got)) == set(int(i) for i in planted)


def test_svmax_selected_are_input_pixels():
    rng = np.random.default_rng(11)
    vertices = rng.uniform(size=(20, 3))
    X = simplex_cloud(rng, vertices, 200)
    got = em.svmax(X, 3)
    # each member is exactly one input pixel, and no pixel is picked twice
    assert len(set(picked_pixels(X, got))) == 3


@pytest.mark.parametrize("seed", range(4))
def test_svmax_volume_beats_random_subsets(seed):
    rng = np.random.default_rng(seed + 20)
    d, e = 25, 4
    vertices = rng.uniform(0.1, 1.0, size=(d, e))
    X = simplex_cloud(rng, vertices, 300)
    X[:, [10, 80, 150, 220]] = vertices
    got = em.svmax(X, e)
    sel = picked_pixels(X, got)

    basis = em.pca_fit(X, e - 1)
    Y = em.pca_project(basis, X)

    def volume_sq(idx):
        B = Y[:, idx[1:]] - Y[:, idx[0]][:, None]
        return abs(np.linalg.det(B.T @ B))

    v_sel = volume_sq(sel)
    for _ in range(1000):
        idx = rng.choice(300, size=e, replace=False)
        assert volume_sq(list(idx)) <= v_sel * (1 + 1e-9)


def test_svmax_scale_invariance():
    rng = np.random.default_rng(31)
    vertices = rng.uniform(size=(15, 3))
    X = simplex_cloud(rng, vertices, 150)
    a = picked_pixels(X, em.svmax(X, 3))
    b = picked_pixels(X * 41.7, em.svmax(X * 41.7, 3))
    assert a == b


def test_svmax_degenerate_inputs():
    X = np.tile(np.arange(5.0)[:, None], (1, 30))
    with pytest.raises(DegenerateSimplexError):
        em.svmax(X, 3)
    # collinear cloud cannot span a 3-simplex
    rng = np.random.default_rng(0)
    line = np.outer(rng.normal(size=8), rng.uniform(size=60)) + 0.5
    with pytest.raises(DegenerateSimplexError):
        em.svmax(line, 3)


def test_svmax_argument_checks():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 10))
    with pytest.raises(ShapeMismatchError):
        em.svmax(X, 1)
    with pytest.raises(ShapeMismatchError):
        em.svmax(X, 11)
    with pytest.raises(ShapeMismatchError):
        em.svmax(rng.normal(size=(2, 10)), 4)


# ---------------------------------------------------------------------------
# refinement


def test_refine_k1_is_identity_on_pure_pixels():
    rng = np.random.default_rng(40)
    vertices = rng.uniform(size=(10, 3))
    X = simplex_cloud(rng, vertices, 120)
    X[:, [5, 50, 100]] = vertices
    got = em.svmax(X, 3)
    refined = em.refine_by_neighborhood(got, X, k=1)
    assert np.allclose(refined.spectra, got.spectra, atol=1e-12)


def test_refine_denoises_vertex_clusters():
    wins = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        d, e, per = 20, 3, 30
        truth = rng.uniform(0.2, 0.8, size=(d, e))
        clusters = [
            truth[:, [j]] + rng.normal(0, 0.02, size=(d, per)) for j in range(e)
        ]
        interior = simplex_cloud(rng, truth, 200, alpha=3.0)
        X = np.concatenate(clusters + [interior], axis=1)
        got = em.svmax(X, e)
        refined = em.refine_by_neighborhood(got, X, k=10)

        def err(S):
            # match each member to its nearest truth column
            total = 0.0
            for j in range(e):
                total += min(
                    np.linalg.norm(S.spectra[:, j] - truth[:, t]) for t in range(e)
                )
            return total

        if err(refined) < err(got):
            wins += 1
    assert wins >= 95


def test_refine_argument_checks():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 20))
    got = em.svmax(X, 3)
    with pytest.raises(ShapeMismatchError):
        em.refine_by_neighborhood(got, X, k=21)
    with pytest.raises(ShapeMismatchError):
        em.refine_by_neighborhood(got, rng.normal(size=(5, 20)), k=3)


# ---------------------------------------------------------------------------
# the set container


def test_endmember_set_validation():
    wl = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="not unique"):
        em.EndmemberSet(("a", "a"), wl, np.ones((3, 2)))
    with pytest.raises(ShapeMismatchError):
        em.EndmemberSet(("a", "b"), wl, np.ones((3, 3)))
    with pytest.raises(ShapeMismatchError):
        em.EndmemberSet(("a", "b"), np.array([2.0, 1.0, 3.0]), np.ones((3, 2)))
    with pytest.raises(ShapeMismatchError):
        em.EndmemberSet(("a", "b", "c", "d"), np.array([1.0, 2.0]), np.ones((2, 4)))


def test_select_and_index_of():
    wl = np.arange(6.0)
    spectra = np.arange(36.0).reshape(6, 6)
    labels = ("spike", "leaf", "soil", "shadow", "winter_wheat", "panel")
    full = em.EndmemberSet(labels, wl, spectra)
    four = full.select(["spike", "leaf", "soil", "shadow"])
    assert four.labels == ("spike", "leaf", "soil", "shadow")
    assert np.array_equal(four.spectra, spectra[:, :4])
    reordered = full.select(["shadow", "spike"])
    assert np.array_equal(reordered.spectra, spectra[:, [3, 0]])
    assert full.index_of("panel") == 5
    with pytest.raises(DataError):
        full.index_of("nope")


def test_subset_for_wavelengths():
    wl = np.array([400.0, 402.2, 404.4, 406.6])
    spectra = np.arange(8.0).reshape(4, 2)
    s = em.EndmemberSet(("a", "b"), wl, spectra)
    sub = s.subset_for_wavelengths([402.2, 406.6])
    assert np.array_equal(sub.spectra, spectra[[1, 3], :])
    with pytest.raises(DataError, match="matches 0"):
        s.subset_for_wavelengths([500.0])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    wl = 430.0 + 2.2 * np.arange(12)
    s = em.EndmemberSet(
        ("spike", "leaf", "soil"), wl, rng.uniform(0.01, 0.9, size=(12, 3))
    )
    path = tmp_path / "em.csv"
    em.write_endmembers_csv(path, s)
    back = em.read_endmembers_csv(path)
    assert back.labels == s.labels
    assert np.max(np.abs(back.wavelengths - s.wavelengths)) <= 0.05
    assert np.array_equal(back.spectra, s.spectra)  # repr round-trips floats


def test_relabel_by_reference():
    rng = np.random.default_rng(8)
    wl = np.arange(10.0)
    truth = rng.uniform(0.1, 0.9, size=(10, 4))
    ref = em.EndmemberSet(("spike", "leaf", "soil", "shadow"), wl, truth)
    noisy = truth[:, [2, 0, 3, 1]] * 1.05 + rng.normal(0, 0.004, size=(10, 4))
    extracted = em.EndmemberSet(tuple(f"synthetic-{i}" for i in range(4)), wl, noisy)
    relabelled = em.relabel_by_reference(extracted, ref)
    assert relabelled.labels == ("soil", "spike", "shadow", "leaf")
    assert np.array_equal(relabelled.spectra, extracted.spectra)
