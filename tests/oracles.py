"""Independent brute-force reference implementations used only by tests.

Everything here favours obviousness over speed: double loops, explicit
enumeration, no shared code with the package under test. The last
sections hold the few test-only entry points that do call into the
package: the per-array trainer, single-pixel unmixing, the batch loss
and the scene radiance, whole or joined from its strips.
"""

import itertools
from collections import Counter

import numpy as np

from hyperfield.cube import HyperCube
from hyperfield.errors import DataError, DivergenceError
from hyperfield.mlp import (
    SIGMA_FLOOR,
    EpochLog,
    forward,
    init_model,
    standardize_apply,
    standardize_fit_apply,
)
from hyperfield.synth import generate_scene
from hyperfield.unmix import _check_W, _correlate, _solve_block, _SupportSolver, _supports


def erode_naive(mask, se_h, se_w, c0, c1):
    rows, cols = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            keep = True
            for i in range(se_h):
                for j in range(se_w):
                    rr, cc = r + i - c0, c + j - c1
                    if rr < 0 or rr >= rows or cc < 0 or cc >= cols or not mask[rr, cc]:
                        keep = False
                        break
                if not keep:
                    break
            out[r, c] = keep
    return out


def dilate_naive(mask, se_h, se_w, c0, c1):
    rows, cols = mask.shape
    out = np.zeros_like(mask, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            hit = False
            for i in range(se_h):
                for j in range(se_w):
                    rr, cc = r - i + c0, c - j + c1
                    if 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc]:
                        hit = True
                        break
                if hit:
                    break
            out[r, c] = hit
    return out


def open_naive(mask, se_h, se_w):
    c0, c1 = se_h // 2, se_w // 2
    return dilate_naive(erode_naive(mask, se_h, se_w, c0, c1), se_h, se_w, c0, c1)


def fill_holes_naive(mask):
    """BFS flood of the complement from the border, 4-connected."""
    rows, cols = mask.shape
    reach = np.zeros((rows, cols), dtype=bool)
    stack = []
    for r in range(rows):
        for c in (0, cols - 1):
            if not mask[r, c]:
                stack.append((r, c))
    for c in range(cols):
        for r in (0, rows - 1):
            if not mask[r, c]:
                stack.append((r, c))
    while stack:
        r, c = stack.pop()
        if reach[r, c] or mask[r, c]:
            continue
        reach[r, c] = True
        if r > 0:
            stack.append((r - 1, c))
        if r + 1 < rows:
            stack.append((r + 1, c))
        if c > 0:
            stack.append((r, c - 1))
        if c + 1 < cols:
            stack.append((r, c + 1))
    return mask | ~reach


def otsu_naive(values, nbins=256):
    """Explicit split loop over the histogram; returns the bin index."""
    values = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = values.min(), values.max()
    width = (hi - lo) / nbins
    bins = np.minimum(((values - lo) / width).astype(int), nbins - 1)
    hist = [int((bins == b).sum()) for b in range(nbins)]
    best_t, best_var = None, -1.0
    for t in range(nbins - 1):
        w0 = sum(hist[: t + 1])
        w1 = sum(hist[t + 1 :])
        if w0 == 0 or w1 == 0:
            continue
        mu0 = sum(b * hist[b] for b in range(t + 1)) / w0
        mu1 = sum(b * hist[b] for b in range(t + 1, nbins)) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def label_components_naive(mask, connectivity=8):
    """Flood-fill labelling; returns (labels, count)."""
    rows, cols = mask.shape
    labels = np.zeros((rows, cols), dtype=int)
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    current = 0
    for r0 in range(rows):
        for c0 in range(cols):
            if mask[r0, c0] and labels[r0, c0] == 0:
                current += 1
                stack = [(r0, c0)]
                labels[r0, c0] = current
                while stack:
                    r, c = stack.pop()
                    for dr, dc in steps:
                        rr, cc = r + dr, c + dc
                        if (
                            0 <= rr < rows
                            and 0 <= cc < cols
                            and mask[rr, cc]
                            and labels[rr, cc] == 0
                        ):
                            labels[rr, cc] = current
                            stack.append((rr, cc))
    return labels, current


def simplex_ls_enumerate(W, x):
    """Exact simplex-constrained least squares by support enumeration.

    For every non-empty support, solve the equality-constrained normal
    system with lstsq and keep feasible candidates; returns (h, objective)
    of the best one (smallest norm on ties).
    """
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d, e = W.shape
    best = None
    for size in range(1, e + 1):
        for support in itertools.combinations(range(e), size):
            Ws = W[:, support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * Ws.T @ Ws
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([2.0 * Ws.T @ x, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            hs = sol[:k]
            if np.any(hs < -1e-9):
                continue
            h = np.zeros(e)
            h[list(support)] = np.clip(hs, 0.0, None)
            h /= h.sum()
            obj = float(np.sum((x - W @ h) ** 2))
            if (
                best is None
                or obj < best[1] - 1e-12
                or (abs(obj - best[1]) <= 1e-12 and np.linalg.norm(h) < np.linalg.norm(best[0]))
            ):
                best = (h, obj)
    return best


def simplex_ls_projected_gradient(W, x, iters=20000):
    """Projected gradient descent onto the simplex; cross-check oracle."""
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    e = W.shape[1]
    G = W.T @ W
    step = 1.0 / (2.0 * np.linalg.eigvalsh(G).max() + 1e-30)
    h = np.full(e, 1.0 / e)
    for _ in range(iters):
        grad = 2.0 * (G @ h - W.T @ x)
        h = project_simplex(h - step * grad)
    return h, float(np.sum((x - W @ h) ** 2))


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort method)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def mlp_forward_naive(weights, biases, x):
    """Forward pass with explicit loops over layers (single sample)."""
    a = np.asarray(x, dtype=np.float64)
    for layer, (W, b) in enumerate(zip(weights, biases)):
        z = W.T @ a + b
        last = layer == len(weights) - 1
        a = z if last else np.maximum(z, 0.0)
    return float(a[0])


def central_difference(f, theta, eps):
    """Central finite-difference gradient of scalar f at flat vector theta."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        hi = f(theta)
        theta[i] = orig - eps
        lo = f(theta)
        theta[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def kkt_residual(W, x, h):
    """Max violation of the KKT conditions at h; 0 means exactly optimal.

    Checks primal feasibility, complementary slackness against the
    support-averaged multiplier, and dual feasibility off the support.
    """
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    g = 2.0 * W.T @ (W @ h - x)
    support = h > 1e-10
    resid = abs(float(h.sum() - 1.0))
    resid = max(resid, float(-h.min()) if h.min() < 0 else 0.0)
    if support.any():
        lam = -g[support].mean()
        resid = max(resid, float(np.max(np.abs(g[support] + lam))))
        off = ~support
        if off.any():
            resid = max(resid, float(max(0.0, -np.min(g[off] + lam))))
    return resid


def identical_yield_fraction(records):
    """Fraction of records whose allocated yield repeats within their plot.

    Smaller windows produce fewer distinct pixel counts, so this is the
    quantization cost of the window size.
    """
    if not len(records):
        raise DataError("no records")
    counts = Counter(zip(records.plot_ids, records.yields.tolist()))
    return sum(count for count in counts.values() if count > 1) / len(records)


def whole_ndpsi(cube, red_window, blue_window):
    """The senescence index plane of a whole in-memory cube in one pass, as
    ``segment.ndpsi`` computed it before it read strips: the cube's float64
    copy, in its memory order, with each window's bands averaged at once."""
    def bands(window):
        lo, hi = window
        return np.flatnonzero((cube.wavelengths >= lo) & (cube.wavelengths <= hi))

    data = cube.data.astype(np.float64, copy=False)
    red = data[:, :, bands(red_window)].mean(axis=2)
    blue = data[:, :, bands(blue_window)].mean(axis=2)
    num = red - blue
    den = red + blue
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


# ---------------------------------------------------------------------------
# the per-array trainer: ``mlp.train`` must match it bit for bit


def _forward_cache(weights, biases, x):
    """Activations and pre-activations for every layer; a[0] is the input."""
    activations = [x]
    preacts = []
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        preacts.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations, preacts


def _backward_lists(weights, biases, x, y):
    activations, preacts = _forward_cache(weights, biases, x)
    n = x.shape[0]
    delta = 2.0 * (activations[-1] - y[:, None]) / n
    grads_w = [np.empty(0)] * len(weights)
    grads_b = [np.empty(0)] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (preacts[layer - 1] > 0.0)
    return grads_w, grads_b


class AdamState:
    """First/second moment accumulators for a list of parameter arrays."""

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0


def adam_step_lists(params, grads, state, config):
    """One bias-corrected Adam update of every array, in place."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.eps)


def train_lists(train_x, train_y, val_x, val_y, hidden_sizes, config, dtype=np.float32):
    """``mlp.train``'s arithmetic, one array at a time and one epoch after another.

    Standardization, the gram-scale errors and the returned model are
    float64; the network trains on ``dtype`` copies of the standardized
    features and targets (float32, as ``mlp.train`` does, by default).
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64).reshape(-1)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y, dtype=np.float64).reshape(-1)
    stats, zx = standardize_fit_apply(train_x)
    zv = standardize_apply(stats, val_x)
    target_mean = float(train_y.mean())
    target_std = float(train_y.std())
    scale = target_std if target_std > SIGMA_FLOOR else 0.0
    zy = (train_y - target_mean) / scale if scale else np.zeros_like(train_y)
    zx, zv, zy = (a.astype(dtype) for a in (zx, zv, zy))

    layer_sizes = (train_x.shape[1], *hidden_sizes, 1)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = init_model(layer_sizes, seed=config.seed, rng=rng)
    model.norm_stats = stats
    model.weights = [w.astype(dtype) for w in model.weights]
    model.biases = [b.astype(dtype) for b in model.biases]

    params = [p for pair in zip(model.weights, model.biases) for p in pair]
    state = AdamState(params)

    def snapshot():
        return [w.copy() for w in model.weights], [b.copy() for b in model.biases]

    def grams_rmse(z_features, y_grams):
        out = _forward_cache(model.weights, model.biases, z_features)[0][-1][:, 0]
        diff = out.astype(np.float64) * scale + target_mean - y_grams
        return float(np.sqrt(np.mean(diff * diff)))

    logbook = []
    train_rmse = grams_rmse(zx, train_y)
    val_rmse = grams_rmse(zv, val_y)
    if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
        raise DivergenceError("non-finite loss at epoch 0")
    logbook.append(EpochLog(0, train_rmse, val_rmse))
    best_val, best_epoch, best_params = val_rmse, 0, snapshot()

    n = train_y.size
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            grads_w, grads_b = _backward_lists(model.weights, model.biases, zx[batch], zy[batch])
            grads = [g for pair in zip(grads_w, grads_b) for g in pair]
            adam_step_lists(params, grads, state, config)
        train_rmse = grams_rmse(zx, train_y)
        val_rmse = grams_rmse(zv, val_y)
        if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        logbook.append(EpochLog(epoch, train_rmse, val_rmse))
        if val_rmse < best_val:
            best_val, best_epoch, best_params = val_rmse, epoch, snapshot()

    model.weights = [w.astype(np.float64) for w in best_params[0]]
    model.biases = [b.astype(np.float64) for b in best_params[1]]
    model.weights[-1] = model.weights[-1] * scale
    model.biases[-1] = model.biases[-1] * scale + target_mean
    model.best_epoch = best_epoch
    return model, logbook


# ---------------------------------------------------------------------------
# test-only entry points into the package


def unmix_pixel(W, x):
    """Exact simplex-constrained least squares for a single spectrum.

    Returns (abundances, squared residual), from the solver ``unmix_cube``
    runs, which correlates a one-pixel strip beside a copy of its pixel.
    """
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    _check_W(W, x.shape[0])
    G = W.T @ W
    solvers = [_SupportSolver(s, G) for s in _supports(W.shape[1])]
    h, obj = _solve_block(*_correlate(np.asfortranarray(np.repeat(x, 2, axis=1)), W), solvers)
    return h[:, 0], float(obj[0])


def batch_mse(model, x, y):
    diff = forward(model, x) - np.asarray(y, dtype=np.float64)
    return float(np.mean(diff * diff))


def whole_radiance(radiance):
    """A ``SceneRadiance`` computed as one float64 array, as the strips must match it.

    Returns ``(data, noiseless, noise, realized_snr_db)``; without noise the
    last two are None.
    """
    data = np.einsum("rce,be->rcb", radiance.planes, radiance.spectra)
    data *= radiance.illumination
    noiseless = data.copy()
    noise = realized_snr = None
    if radiance.snr_db is not None:
        signal_power = float(np.mean(data * data))
        sigma = np.sqrt(signal_power / 10.0 ** (radiance.snr_db / 10.0))
        noise = np.random.default_rng(radiance.noise_seed).standard_normal(size=data.shape)
        noise *= sigma
        realized_snr = 10.0 * np.log10(signal_power / float(np.mean(noise * noise)))
        data += noise
    return data, noiseless, noise, realized_snr


def scene_cube(spec, height=16):
    """``(cube, truth, radiance)`` of ``spec``: the strips joined into one float64 cube.

    Each strip is copied as it comes: the next one reuses its buffer.
    """
    radiance, truth = generate_scene(spec)
    data = np.concatenate([strip.data.copy() for _, strip in radiance.strips(height)])
    return HyperCube(data, radiance.wavelengths, "radiance"), truth, radiance
