"""Pure-pixel endmember extraction and spectral bookkeeping.

The extractor is a successive volume maximizer: after an affine PCA
reduction to one dimension fewer than the requested endmember count,
it seeds with the pixel farthest from the data mean and then greedily
adds the pixel farthest from the affine hull of the current selection.
Selected spectra are actual input pixels, so a neighbourhood-average
refinement step is available to suppress single-pixel noise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .cube import WAVELENGTH_TOL_NM
from .errors import DataError, DegenerateSimplexError, RankError, ShapeMismatchError
from .table import read_table, write_table


@dataclass
class PcaBasis:
    """Affine principal component basis.

    ``components`` holds one orthonormal direction per column, ordered
    by decreasing explained variance. The sign convention makes each
    column's largest-magnitude element positive.
    """

    mean: np.ndarray
    components: np.ndarray


def pca_fit(pixels: np.ndarray, k: int) -> PcaBasis:
    """Fit an affine PCA basis to a (bands, pixels) matrix.

    Uses the population covariance eigendecomposition. Requesting more
    components than the numeric rank of the centred data raises.
    """
    X = np.asarray(pixels, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError("pixels must be a (bands, pixels) matrix")
    d, n = X.shape
    if not 1 <= k <= d:
        raise ShapeMismatchError(f"component count {k} outside [1, {d}]")
    if n <= k:
        raise ShapeMismatchError(f"need more than {k} pixels, got {n}")
    mean = X.mean(axis=1)
    centred = X - mean[:, None]
    cov = (centred @ centred.T) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    rank = int(np.sum(eigvals > eigvals[0] * 1e-10)) if eigvals[0] > 0 else 0
    if k > rank:
        raise RankError(f"requested {k} components but data rank is {rank}")
    comps = eigvecs[:, :k].copy()
    for j in range(k):
        pivot = int(np.argmax(np.abs(comps[:, j])))
        if comps[pivot, j] < 0:
            comps[:, j] = -comps[:, j]
    return PcaBasis(mean=mean, components=comps)


def pca_project(basis: PcaBasis, pixels: np.ndarray) -> np.ndarray:
    """Coordinates of (bands, pixels) columns in the basis: (k, pixels)."""
    X = np.asarray(pixels, dtype=np.float64)
    return basis.components.T @ (X - basis.mean[:, None])


@dataclass
class EndmemberSet:
    """Labelled endmember spectra on a shared wavelength axis.

    ``spectra`` is (bands, members).
    """

    labels: tuple[str, ...]
    wavelengths: np.ndarray
    spectra: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
        self.spectra = np.asarray(self.spectra, dtype=np.float64)
        if len(set(self.labels)) != len(self.labels):
            raise DataError(f"endmember labels are not unique: {self.labels}")
        if self.spectra.ndim != 2 or self.spectra.shape != (
            self.wavelengths.size,
            len(self.labels),
        ):
            raise ShapeMismatchError(
                f"spectra shape {self.spectra.shape} does not match "
                f"{self.wavelengths.size} bands x {len(self.labels)} labels"
            )
        if self.wavelengths.size >= 2 and not np.all(np.diff(self.wavelengths) > 0):
            raise ShapeMismatchError("wavelengths must be strictly increasing")
        if self.wavelengths.size < len(self.labels) - 1:
            raise ShapeMismatchError(
                f"{self.wavelengths.size} bands cannot span a "
                f"{len(self.labels)}-member simplex"
            )

    @property
    def count(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"no endmember labelled {label!r} in {self.labels}")

    def select(self, labels) -> "EndmemberSet":
        """Subset (and reorder) members by label."""
        idx = [self.index_of(l) for l in labels]
        return replace(self, labels=tuple(labels), spectra=self.spectra[:, idx])

    def subset_for_wavelengths(self, target) -> "EndmemberSet":
        """Rows matched to another wavelength grid (e.g. a masked cube)."""
        target = np.asarray(target, dtype=np.float64)
        rows = []
        for w in target:
            hits = np.flatnonzero(np.abs(self.wavelengths - w) <= WAVELENGTH_TOL_NM)
            if hits.size != 1:
                raise DataError(
                    f"wavelength {w:.2f} nm matches {hits.size} endmember bands "
                    f"(tolerance {WAVELENGTH_TOL_NM} nm)"
                )
            rows.append(int(hits[0]))
        return replace(
            self, wavelengths=self.wavelengths[rows], spectra=self.spectra[rows, :]
        )


def svmax(
    pixels: np.ndarray,
    count: int,
    wavelengths: np.ndarray | None = None,
) -> EndmemberSet:
    """Successive volume maximization over a (bands, pixels) matrix.

    Returns the ``count`` selected pixel spectra labelled
    ``synthetic-0..`` in selection order. Ties in the distance argmax
    resolve to the lowest pixel index, and scaling all pixels by a
    positive constant leaves the selection unchanged.
    """
    X = np.asarray(pixels, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError("pixels must be a (bands, pixels) matrix")
    d, n = X.shape
    if count < 2:
        raise ShapeMismatchError(f"endmember count must be at least 2, got {count}")
    if count > n:
        raise ShapeMismatchError(f"cannot pick {count} endmembers from {n} pixels")
    if d < count - 1:
        raise ShapeMismatchError(
            f"{d} bands cannot span a {count}-member simplex"
        )

    if d > count - 1:
        try:
            basis = pca_fit(X, count - 1)
        except RankError:
            raise DegenerateSimplexError(
                f"pixel cloud has rank below {count - 1}; "
                f"no {count}-member simplex exists"
            )
        Y = pca_project(basis, X)
    else:
        Y = X - X.mean(axis=1, keepdims=True)

    scale = float(np.abs(Y).max())
    tol = 1e-12 * (1.0 + scale)

    norms = np.linalg.norm(Y, axis=0)
    if norms.max() <= tol:
        raise DegenerateSimplexError("all pixels are identical")
    selected = [int(np.argmax(norms))]

    while len(selected) < count:
        origin = Y[:, selected[0]]
        offsets = Y - origin[:, None]
        if len(selected) == 1:
            resid = offsets
        else:
            B = Y[:, selected[1:]] - origin[:, None]
            Q, _ = np.linalg.qr(B)
            resid = offsets - Q @ (Q.T @ offsets)
        dist = np.linalg.norm(resid, axis=0)
        dist[selected] = -1.0
        j = int(np.argmax(dist))
        if dist[j] <= tol:
            raise DegenerateSimplexError(
                f"maximum distance to the current affine hull is {dist[j]:.3e}; "
                f"pixels cannot span a {count}-member simplex"
            )
        selected.append(j)

    if wavelengths is None:
        wavelengths = np.arange(d, dtype=np.float64)
    return EndmemberSet(
        labels=tuple(f"synthetic-{i}" for i in range(count)),
        wavelengths=wavelengths,
        spectra=X[:, selected].copy(),
    )


def refine_by_neighborhood(
    endmembers: EndmemberSet, pixels: np.ndarray, k: int
) -> EndmemberSet:
    """Replace each member by the mean of its k spectrally nearest pixels.

    The member itself is an input pixel at distance zero, so it is
    always part of its own neighbourhood. Distance ties resolve by
    pixel index, keeping the result order-independent.
    """
    X = np.asarray(pixels, dtype=np.float64)
    d, n = X.shape
    if d != endmembers.wavelengths.size:
        raise ShapeMismatchError(
            f"pixel bands {d} do not match endmember bands {endmembers.wavelengths.size}"
        )
    if not 1 <= k <= n:
        raise ShapeMismatchError(f"neighbourhood size {k} outside [1, {n}]")
    refined = np.empty_like(endmembers.spectra)
    for j in range(endmembers.count):
        delta = X - endmembers.spectra[:, j][:, None]
        dist = np.einsum("ij,ij->j", delta, delta)
        order = np.lexsort((np.arange(n), dist))
        refined[:, j] = X[:, order[:k]].mean(axis=1)
    return replace(endmembers, spectra=refined)


def write_endmembers_csv(path: str | os.PathLike, endmembers: EndmemberSet) -> None:
    """One row per member: label, then reflectance per wavelength column."""
    header = ["label"] + [f"{w:.1f}" for w in endmembers.wavelengths.tolist()]
    spectra = endmembers.spectra.T.tolist()
    write_table(path, header, [[label, *s] for label, s in zip(endmembers.labels, spectra)])


def read_endmembers_csv(path: str | os.PathLike) -> EndmemberSet:
    """Every column but ``label`` is a band, named by its wavelength."""
    table = read_table(path, ("label",), extra_floats=True)
    try:
        wavelengths = np.array([float(name) for name in table.float_columns])
    except ValueError:
        raise DataError(f"{path}: line 1: non-numeric wavelength") from None
    return EndmemberSet(
        labels=tuple(table.text("label")), wavelengths=wavelengths, spectra=table.floats.T
    )


def relabel_by_reference(
    extracted: EndmemberSet, reference: EndmemberSet
) -> EndmemberSet:
    """Give extracted members the labels of their nearest reference spectra.

    Pairs are matched greedily by increasing spectral angle, each
    reference label used at most once, so the relabelling is injective
    and deterministic. Wavelength grids must align.
    """
    ref = reference.subset_for_wavelengths(extracted.wavelengths)

    def unit(M):
        return M / (np.linalg.norm(M, axis=0, keepdims=True) + 1e-30)

    cosine = np.clip(unit(extracted.spectra).T @ unit(ref.spectra), -1.0, 1.0)
    angles = np.arccos(cosine)  # (extracted, reference)
    pairs = sorted(
        ((angles[i, j], i, j) for i in range(extracted.count) for j in range(ref.count))
    )
    new_labels: dict[int, str] = {}
    used: set[int] = set()
    for _, i, j in pairs:
        if i in new_labels or j in used:
            continue
        new_labels[i] = ref.labels[j]
        used.add(j)
    if len(new_labels) < extracted.count:
        raise DataError(
            f"reference set with {ref.count} members cannot label "
            f"{extracted.count} extracted members"
        )
    return replace(extracted, labels=tuple(new_labels[i] for i in range(extracted.count)))
