"""Fully constrained linear unmixing by exact active-set enumeration.

Every pixel solves  min ||x - W h||^2  subject to  h >= 0, sum(h) = 1.
For each non-empty support the equality-constrained subproblem is a
tiny KKT solve that is affine in x, so all pixels of a frame can share
63 (e = 6) or 15 (e = 4) precomputed solvers applied with matrix
products. The feasible candidate with the smallest objective is the
exact global optimum; on ties (degenerate endmember matrices) the
smallest-norm candidate wins, deterministically.

Most pixels need only the full support. Where its solution lies inside
the simplex by a margin that the objective's curvature on the plane
sum(h) = 1 turns into a gap no other support can close, it is already
the optimum (Heinz and Chang, IEEE TGRS 39(3), 2001), and the one the
enumeration would pick, with the same bits. The supports are
enumerated only for the pixels this certificate leaves open.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cube import CubeStream, HyperCube, wavelengths_match
from .endmember import EndmemberSet
from .errors import DataError
from .netpbm import write_ppm
from .pairwise import PairwiseSum

MAX_ENDMEMBERS = 12  # supports grow as 2^e; beyond this enumeration is misuse

_FEAS_EPS = 1e-12
_SUM_EPS = 1e-6
_TIE_EPS = 1e-12
# a certified pixel's objective gap must exceed the tie band this many times
# over: headroom for the rounding in the candidates and their objectives
_CERT_HEADROOM = 1e4
_CHECK_PIXELS = 1 << 16  # pixels of an abundance map whose sums are checked at once


@dataclass
class AbundanceMap:
    """Per-pixel abundances: (rows, cols, members), simplex-feasible."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = tuple(self.labels)
        if self.values.ndim != 3 or self.values.shape[2] != len(self.labels):
            raise DataError(
                f"abundance shape {self.values.shape} does not match "
                f"{len(self.labels)} labels"
            )
        if self.values.size:
            # min and max allocate nothing; the sums take a band of rows at a time
            if self.values.min() < -_FEAS_EPS or self.values.max() > 1.0 + 1e-9:
                raise DataError("abundances leave [0, 1]")
            rows, cols, _ = self.values.shape
            height = max(1, _CHECK_PIXELS // cols)
            deviation = np.empty((min(height, rows), cols))
            for top in range(0, rows, height):
                band = deviation[: min(height, rows - top)]
                np.sum(self.values[top : top + height], axis=2, out=band)
                band -= 1.0
                if np.max(np.abs(band, out=band)) > 1e-8:
                    raise DataError("abundance sums deviate from one beyond 1e-8")

    @property
    def count(self) -> int:
        return len(self.labels)

    def plane(self, label: str) -> np.ndarray:
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise DataError(f"no abundance plane labelled {label!r}")
        return self.values[:, :, idx]

    def to_cube(self) -> HyperCube:
        """Persistable cube: one plane per member, units 'abundance'."""
        return HyperCube(
            data=self.values,
            wavelengths=np.arange(self.count, dtype=np.float64),
            units="abundance",
            band_labels=self.labels,
        )

    @staticmethod
    def from_cube(cube: HyperCube) -> "AbundanceMap":
        if cube.units != "abundance" or cube.band_labels is None:
            raise DataError("cube does not carry labelled abundance planes")
        return AbundanceMap(values=cube.data, labels=cube.band_labels)


def _supports(e: int):
    # all non-empty subsets, ordered by bitmask: deterministic
    for bits in range(1, 2**e):
        yield tuple(i for i in range(e) if bits >> i & 1)


class _SupportSolver:
    """Precomputed affine map from correlations t = W^T x to h on a support."""

    __slots__ = ("support", "gram", "M", "q")

    def __init__(self, support, G):
        s = len(support)
        idx = np.asarray(support)
        self.support = idx
        self.gram = G[np.ix_(idx, idx)]
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = 2.0 * self.gram
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        # pinv handles rank-deficient endmember subsets: min-norm solution
        inv = np.linalg.pinv(kkt)
        self.M = 2.0 * inv[:s, :s]
        self.q = inv[:s, s]

    def solve(self, T):
        # T: (e, n) correlations; returns (s, n) candidate abundances
        return self.M @ T[self.support, :] + self.q[:, None]


def _correlate(X, W):
    """Per pixel of a float64 (bands, n >= 2) block: its correlations
    ``T = W^T x`` with the endmembers and its squared norm ``x . x``."""
    return W.T @ X, np.einsum("ij,ij->j", X, X)


def _objective(H, T, solver):
    """Each candidate's objective without the ``||x||^2`` constant that all
    supports share."""
    return np.einsum("ij,ij->j", H, solver.gram @ H) - 2.0 * np.einsum(
        "ij,ij->j", H, T[solver.support, :]
    )


def _sum_zero_curvature(G):
    """The smallest eigenvalue of ``G`` on the directions that sum to zero:
    of ``P^T G P`` for an orthonormal basis ``P`` of them. Zero for one
    member, which has no other support to beat."""
    basis = np.linalg.svd(np.ones((1, len(G))))[2][1:].T
    return min(np.linalg.eigvalsh(basis.T @ G @ basis), default=0.0)


def _enumerate(T, sq, solvers):
    """Exact per-pixel solves of a block by trying every support; the
    arguments and returns are ``_solve_block``'s."""
    e, n = T.shape
    best_obj = np.full(n, np.inf)
    best_norm = np.full(n, np.inf)
    best_h = np.zeros((e, n))
    for solver in solvers:
        H = solver.solve(T)
        feasible = (H.min(axis=0) >= -_FEAS_EPS) & (
            np.abs(H.sum(axis=0) - 1.0) <= _SUM_EPS
        )
        if not feasible.any():
            continue
        obj = _objective(H, T, solver)
        norm = np.einsum("ij,ij->j", H, H)
        # pixels not yet assigned carry an infinite best: any feasible
        # candidate wins, and the tie band must stay finite
        tie = _TIE_EPS * (1.0 + np.where(np.isfinite(best_obj), np.abs(best_obj), 0.0))
        better = feasible & (
            (obj < best_obj - tie) | ((obj <= best_obj + tie) & (norm < best_norm))
        )
        if better.any():
            cols = np.flatnonzero(better)
            best_obj[cols] = obj[cols]
            best_norm[cols] = norm[cols]
            best_h[:, cols] = 0.0
            best_h[np.ix_(solver.support, cols)] = np.clip(H[:, cols], 0.0, None)
    return best_h, np.maximum(sq + best_obj, 0.0)


def _solve_block(T, sq, solvers):
    """Exact per-pixel solves from the correlations ``T`` (e, n) and squared
    norms ``sq`` (n,) of a block of pixels; returns (h, objective).

    ``solvers`` come in ``_supports`` order, so the last one solves the full
    support. Its candidate ``H`` is certified where ``_enumerate`` would
    pick it beyond the tie band: on the plane sum(h) = 1 the objective
    exceeds its minimum by at least ``kappa * ||h - H||^2``, with ``kappa``
    from ``_sum_zero_curvature``, and every other support's candidate is
    0 where ``H`` is at least ``H.min()``.
    Only the pixels left open are enumerated, gathered from the block; a
    lone one is gathered twice, since numpy solves one column with other
    bits.
    """
    full = solvers[-1]
    H = full.solve(T)
    obj = _objective(H, T, full)
    low = H.min(axis=0)
    gap = _sum_zero_curvature(full.gram) * low * low
    certified = (
        (low > 0.0)
        & (np.abs(H.sum(axis=0) - 1.0) <= _SUM_EPS)
        & (gap > _CERT_HEADROOM * _TIE_EPS * (1.0 + np.abs(obj)))
    )
    resid = np.maximum(sq + obj, 0.0)
    left = np.flatnonzero(~certified)
    if left.size:
        take = np.repeat(left, 2) if left.size == 1 else left
        h, r = _enumerate(T[:, take], sq[take], solvers)
        H[:, left] = h[:, : left.size]
        resid[left] = r[: left.size]
    return H, resid  # certified columns are positive, so H is its own clip there


def _check_W(W, bands):
    if W.ndim != 2:
        raise DataError("endmember matrix must be (bands, members)")
    if W.shape[0] != bands:
        raise DataError(f"endmember matrix has {W.shape[0]} bands, spectra have {bands}")
    if W.shape[1] < 1:
        raise DataError("need at least one endmember")
    if W.shape[1] > MAX_ENDMEMBERS:
        raise DataError(
            f"{W.shape[1]} endmembers: support enumeration is limited to "
            f"{MAX_ENDMEMBERS}"
        )
    if not np.all(np.isfinite(W)):
        raise DataError("endmember matrix contains non-finite values")


def unmix_cube(
    cube: HyperCube | CubeStream, endmembers: EndmemberSet
) -> tuple[AbundanceMap, float]:
    """Unmix every pixel of a cube against the endmember set.

    Returns the abundance map and the Frobenius residual ||X - W H||_F.
    The cube is read in ``read_strips``' row strips of ``block_rows``
    height, never whole. Each strip's pixels are solved in row-major order, in blocks
    of near-equal size that would take at most the strip's own bytes as
    float64: two blocks for a float32 strip of an even pixel count. A
    block's correlations and squared norms are filled from float64
    copies of about one image row, so no copy is larger than that. numpy
    correlates a single pixel by matrix-vector products, with other
    bits, so a copy holds two pixels or more, and a one-pixel strip is
    solved as two copies of its pixel; the block and copy sizes then do
    not change the bits. The squared residuals are summed as each block
    is solved, so the map is the only per-pixel array held.
    """
    if not wavelengths_match(endmembers.wavelengths, cube.wavelengths):
        raise DataError(
            "endmember wavelength grid does not match the cube "
            f"({endmembers.wavelengths.size} vs {cube.bands} bands)"
        )
    W = endmembers.spectra
    _check_W(W, cube.bands)
    e = W.shape[1]
    G = W.T @ W
    solvers = [_SupportSolver(s, G) for s in _supports(e)]

    cols, bands = cube.cols, cube.bands
    out = np.empty((e, cube.rows * cols))
    sq_resid = PairwiseSum(cube.rows * cols)  # the bits of one sum over the whole plane
    # each pixel's spectrum contiguous whatever the cube's memory order:
    # the summation order, and so the correlations' bits, depend on it.
    # One copy of up to a row, and at least 3 pixels, is reused.
    copy = np.empty((bands, max(3, cols)), order="F")
    for top, strip in cube.read_strips():
        pixels = strip.data.reshape(-1, bands)
        # near-equal blocks of at most ``step`` >= 3 pixels: none holds just one
        step = max(3, strip.data.nbytes // (8 * bands))
        at = top * cols
        for part in np.array_split(pixels, -(-len(pixels) // step)):
            n = len(part)
            T, sq = np.empty((e, max(n, 2))), np.empty(max(n, 2))
            done = 0
            for piece in np.array_split(part, -(-n // copy.shape[1])):
                m = len(piece)
                np.copyto(copy[:, :m], piece.T)
                if m == 1:  # a one-pixel strip: correlated beside a copy of itself
                    copy[:, 1] = copy[:, 0]
                    m = 2
                T[:, done : done + m], sq[done : done + m] = _correlate(copy[:, :m], W)
                done += m
            h, resid = _solve_block(T, sq, solvers)
            out[:, at : at + n] = h[:, :n]
            sq_resid.add(resid[:n])
            at += n

    values = out.T.reshape(cube.rows, cube.cols, e)
    return (
        AbundanceMap(values=values, labels=endmembers.labels),
        float(np.sqrt(sq_resid.total)),
    )


# ---------------------------------------------------------------------------
# spike+leaf mask


def sl_mask(abund: AbundanceMap, spike_label: str, leaf_label: str, threshold: float) -> np.ndarray:
    """Foreground where spike + leaf abundance strictly exceeds the threshold.

    With exact sum-to-one abundances and four members this is the same
    rule as 'more spike+leaf than soil+shadow'; a pixel at exactly the
    threshold is background.
    """
    return abund.plane(spike_label) + abund.plane(leaf_label) > threshold


# ---------------------------------------------------------------------------
# score colormap exports

_RAMP_INDEX = np.arange(256)
COLOR_RAMP = np.stack(
    [
        _RAMP_INDEX,  # red rises with the score: identity channel
        255 - np.abs(2 * _RAMP_INDEX - 255),  # green peaks mid-scale
        255 - _RAMP_INDEX,  # blue falls with the score
    ],
    axis=1,
).astype(np.uint8)


def score_to_rgb(score: np.ndarray) -> np.ndarray:
    """Map scores in [0, 1] through the 256-entry ramp (clipping outside)."""
    score = np.asarray(score, dtype=np.float64)
    idx = np.clip(np.round(score * 255.0), 0, 255).astype(np.intp)
    return COLOR_RAMP[idx]


def write_score_ppm(path: str | os.PathLike, score: np.ndarray) -> None:
    """Export a score plane as a PPM colormap."""
    score = np.asarray(score)
    if score.ndim != 2:
        raise DataError("score plane must be 2-d")
    write_ppm(path, score_to_rgb(score))
