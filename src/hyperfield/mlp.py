"""Feedforward yield regressor written against numpy only.

Covers the whole supervised stage: stratified splitting with a
plot-level test holdout, z-score standardization fit on the training
set, a fully connected ReLU network with a linear output unit, batch
mean squared error with hand-derived backpropagation, Adam updates,
best-validation checkpointing, and evaluation at sub-plot, plot, and
field level. Everything is float64 and seeded, so a (dataset, config,
seed) triple pins the trained model bit for bit.

Targets are z-scored while optimizing (fixed-size Adam steps cannot
climb to gram-scale outputs in a few hundred updates) and the scale is
folded back into the linear output layer before the model is returned,
so checkpoints always map standardized features straight to grams.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ShapeMismatchError,
)
from .subplot import SubPlotRecord

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = (256, 128, 64, 32)
SIGMA_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"HYPERFIELD-MLP-1\n"


# ---------------------------------------------------------------------------
# dataset plumbing

def records_to_arrays(
    records: list[SubPlotRecord],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack records into (features, yields, plot ids)."""
    if not records:
        raise DataError("no records")
    k = records[0].features.size
    for r in records:
        if r.features.size != k:
            raise ShapeMismatchError("records carry differing feature lengths")
    x = np.stack([r.features for r in records]).astype(np.float64)
    y = np.array([r.yield_g for r in records], dtype=np.float64)
    ids = [r.plot_id for r in records]
    return x, y, ids


# ---------------------------------------------------------------------------
# stratified splitting

@dataclass(frozen=True)
class SplitSpec:
    """How to carve records into train / validation / test.

    Test plots are held out whole (every record of a test plot goes to
    the test set) either by explicit id or by a stratified draw of
    ``test_plots`` plots. The remaining records are split into yield
    strata (rank chunks) and divided train/validation inside each
    stratum, so all three partitions see similar yield distributions.
    """

    train_fraction: float = 0.85
    validation_fraction: float = 0.15
    strata: int = 10
    seed: int = 0
    test_plots: int = 0
    test_plot_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train fraction {self.train_fraction} not in (0, 1)")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError(
                f"validation fraction {self.validation_fraction} not in (0, 1)"
            )
        if self.train_fraction + self.validation_fraction > 1.0 + 1e-12:
            raise ConfigError("train and validation fractions exceed 1")
        if self.strata < 1:
            raise ConfigError(f"strata must be at least 1, got {self.strata}")
        if self.test_plots < 0:
            raise ConfigError("test plot count cannot be negative")
        if self.test_plots > 0 and self.test_plot_ids is not None:
            raise ConfigError("give either test_plots or test_plot_ids, not both")


@dataclass(frozen=True)
class Split:
    """Index arrays into the record list; disjoint, union = everything."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def _rank_chunks(ordered: np.ndarray, strata: int, min_size: int = 2) -> list[np.ndarray]:
    """Cut an ordered index array into quantile chunks.

    Chunks smaller than ``min_size`` are merged into their neighbour
    (never an error, per the split contract).
    """
    n = ordered.size
    bounds = [n * s // strata for s in range(strata + 1)]
    chunks = [
        ordered[bounds[s] : bounds[s + 1]]
        for s in range(strata)
        if bounds[s + 1] > bounds[s]
    ]
    merged: list[np.ndarray] = []
    for chunk in chunks:
        if merged and merged[-1].size < min_size:
            log.warning(
                "stratum with %d record(s) merged with its neighbour", merged[-1].size
            )
            merged[-1] = np.concatenate([merged[-1], chunk])
        else:
            merged.append(chunk)
    if len(merged) > 1 and merged[-1].size < min_size:
        log.warning(
            "stratum with %d record(s) merged with its neighbour", merged[-1].size
        )
        tail = merged.pop()
        merged[-1] = np.concatenate([merged[-1], tail])
    return merged


def _largest_remainder(weights: np.ndarray, total: int, caps: np.ndarray) -> np.ndarray:
    """Integer quotas summing to ``total``, proportional to ``weights``.

    Floors first, then hands out remainders by descending fractional
    part (ties to the lower index); ``caps`` bounds each quota.
    """
    caps = np.asarray(caps, dtype=int)
    if total > caps.sum():
        raise ConfigError(f"quota {total} exceeds the {caps.sum()} available")
    exact = weights / weights.sum() * total
    quotas = np.minimum(np.floor(exact).astype(int), caps)
    order = np.lexsort((np.arange(weights.size), -(exact - np.floor(exact))))
    i = 0
    while quotas.sum() < total:
        s = order[i % weights.size]
        if quotas[s] < caps[s]:
            quotas[s] += 1
        i += 1
    return quotas


def _hold_out_plots(
    yields: np.ndarray, plot_ids: list[str], spec: SplitSpec, rng: np.random.Generator
) -> set[str]:
    if spec.test_plot_ids is not None:
        known = set(plot_ids)
        missing = [p for p in spec.test_plot_ids if p not in known]
        if missing:
            raise DataError(f"test plot {missing[0]!r} has no records")
        return set(spec.test_plot_ids)
    if spec.test_plots == 0:
        return set()
    totals: dict[str, float] = {}
    for pid, y in zip(plot_ids, yields):
        totals[pid] = totals.get(pid, 0.0) + float(y)
    plots = sorted(totals)
    if spec.test_plots >= len(plots):
        raise ConfigError(
            f"cannot hold out {spec.test_plots} of {len(plots)} plots"
        )
    order = np.lexsort((np.arange(len(plots)), np.array([totals[p] for p in plots])))
    chunks = _rank_chunks(np.asarray(order), min(spec.strata, len(plots)))
    sizes = np.array([c.size for c in chunks], dtype=np.float64)
    quotas = _largest_remainder(sizes, spec.test_plots, sizes.astype(int))
    held: set[str] = set()
    for chunk, quota in zip(chunks, quotas):
        perm = rng.permutation(chunk.size)
        for j in perm[:quota]:
            held.add(plots[chunk[j]])
    return held


def stratified_split(
    yields: np.ndarray, plot_ids: list[str], spec: SplitSpec
) -> Split:
    """Split record indices into train / validation / test.

    Plot-level holdout happens first; the survivors are ordered by
    (yield, position), cut into rank chunks, and each chunk is
    shuffled and divided so the validation share matches the requested
    fraction to within one record per stratum. Anything not claimed by
    validation or test lands in train, which keeps the three sets
    exhaustive even for fractions that do not sum exactly to one.
    """
    yields = np.asarray(yields, dtype=np.float64)
    if yields.ndim != 1 or yields.size == 0:
        raise DataError("no records to split")
    if len(plot_ids) != yields.size:
        raise ShapeMismatchError(
            f"{yields.size} yields but {len(plot_ids)} plot ids"
        )
    children = np.random.SeedSequence(spec.seed).spawn(2)
    plot_rng = np.random.default_rng(children[0])
    record_rng = np.random.default_rng(children[1])

    held = _hold_out_plots(yields, plot_ids, spec, plot_rng)
    test_mask = np.array([pid in held for pid in plot_ids])
    test_idx = np.flatnonzero(test_mask)
    remaining = np.flatnonzero(~test_mask)
    if remaining.size == 0:
        raise DataError("all records fell into the test holdout")

    order = remaining[np.argsort(yields[remaining], kind="stable")]
    chunks = _rank_chunks(order, spec.strata)
    share = spec.validation_fraction / (spec.train_fraction + spec.validation_fraction)
    total_val = int(np.floor(remaining.size * share + 0.5))
    sizes = np.array([c.size for c in chunks], dtype=np.float64)
    quotas = _largest_remainder(sizes, total_val, sizes.astype(int))

    train_parts, val_parts = [], []
    for chunk, quota in zip(chunks, quotas):
        perm = record_rng.permutation(chunk.size)
        val_parts.append(chunk[perm[:quota]])
        train_parts.append(chunk[perm[quota:]])
    return Split(
        train=np.sort(np.concatenate(train_parts)),
        validation=np.sort(np.concatenate(val_parts)),
        test=test_idx,
    )


# ---------------------------------------------------------------------------
# standardization

@dataclass(frozen=True)
class NormStats:
    """Per-feature training mean and population variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape or self.mean.ndim != 1:
            raise ShapeMismatchError("mean and variance must be matching vectors")
        if np.any(self.variance < 0):
            raise DataError("negative variance")


def standardize_fit(x: np.ndarray) -> NormStats:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatchError(f"expected a (records, features) matrix, got {x.shape}")
    return NormStats(mean=x.mean(axis=0), variance=x.var(axis=0))


def standardize_apply(stats: NormStats, x: np.ndarray) -> np.ndarray:
    """(x - mean)/std per feature; constant features map to zero."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.sqrt(stats.variance)
    degenerate = sigma <= SIGMA_FLOOR
    z = (x - stats.mean) / np.where(degenerate, 1.0, sigma)
    if degenerate.any():
        z[..., degenerate] = 0.0
    return z


def standardize_fit_apply(x: np.ndarray) -> tuple[NormStats, np.ndarray]:
    stats = standardize_fit(x)
    return stats, standardize_apply(stats, x)


# ---------------------------------------------------------------------------
# the network

@dataclass
class MlpModel:
    """Fully connected ReLU regressor with its input normalization."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_stats: NormStats | None = None
    best_epoch: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"bad layer sizes {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeMismatchError("one weight matrix and bias per layer expected")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ShapeMismatchError(
                    f"layer {i}: weights {w.shape}, biases {b.shape} do not "
                    f"match sizes {sizes[i]}->{sizes[i + 1]}"
                )
        self.layer_sizes = sizes

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


def init_model(
    layer_sizes: tuple[int, ...], seed: int = 0, rng: np.random.Generator | None = None
) -> MlpModel:
    """Glorot-uniform weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=tuple(layer_sizes), weights=weights, biases=biases, rng_seed=seed
    )


def _forward_cache(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
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


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for standardized features; returns a flat vector."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatchError(
            f"input has {x.shape[1]} features, model expects {model.layer_sizes[0]}"
        )
    activations, _ = _forward_cache(model.weights, model.biases, x)
    return activations[-1][:, 0]


def batch_mse(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    diff = forward(model, x) - np.asarray(y, dtype=np.float64)
    return float(np.mean(diff * diff))


def backward(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the batch-mean squared error.

    The ReLU subgradient at exactly zero is taken as zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size != x.shape[0]:
        raise ShapeMismatchError(f"{x.shape[0]} inputs but {y.size} targets")
    activations, preacts = _forward_cache(model.weights, model.biases, x)
    n = x.shape[0]
    delta = 2.0 * (activations[-1] - y[:, None]) / n
    grads_w = [np.empty(0)] * model.n_layers
    grads_b = [np.empty(0)] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (preacts[layer - 1] > 0.0)
    return grads_w, grads_b


# ---------------------------------------------------------------------------
# Adam

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("Adam betas must lie in [0, 1)")


class AdamState:
    """First/second moment accumulators for a flat parameter list."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeMismatchError("parameter, gradient, and state lists disagree")
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


# ---------------------------------------------------------------------------
# training loop

@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_rmse: float
    val_rmse: float


def train(
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
) -> tuple[MlpModel, list[EpochLog]]:
    """Fit the regressor; returns the best-validation-epoch model.

    Features arrive raw; normalization is fit on the training set here
    and stored with the model. Epoch 0 is the untrained network, so the
    checkpoint can never be worse than initialization. Ties in
    validation RMSE keep the earliest epoch.
    """
    config = config or TrainConfig()
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64).reshape(-1)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y, dtype=np.float64).reshape(-1)
    if train_x.ndim != 2 or train_x.shape[0] != train_y.size:
        raise ShapeMismatchError(
            f"training features {train_x.shape} do not match {train_y.size} targets"
        )
    if val_x.ndim != 2 or val_x.shape[0] != val_y.size:
        raise ShapeMismatchError(
            f"validation features {val_x.shape} do not match {val_y.size} targets"
        )
    if val_x.shape[1] != train_x.shape[1]:
        raise ShapeMismatchError("train and validation feature widths differ")
    if not (np.all(np.isfinite(train_x)) and np.all(np.isfinite(train_y))):
        raise DataError("non-finite values in the training set")
    if not (np.all(np.isfinite(val_x)) and np.all(np.isfinite(val_y))):
        raise DataError("non-finite values in the validation set")

    stats, zx = standardize_fit_apply(train_x)
    zv = standardize_apply(stats, val_x)
    target_mean = float(train_y.mean())
    target_std = float(train_y.std())
    scale = target_std if target_std > SIGMA_FLOOR else 0.0
    zy = (train_y - target_mean) / scale if scale else np.zeros_like(train_y)

    layer_sizes = (train_x.shape[1], *hidden_sizes, 1)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = init_model(layer_sizes, seed=config.seed, rng=rng)
    model.norm_stats = stats

    params = [p for pair in zip(model.weights, model.biases) for p in pair]
    state = AdamState(params)

    def snapshot():
        return [w.copy() for w in model.weights], [b.copy() for b in model.biases]

    def grams_rmse(z_features, y_grams):
        pred = forward(model, z_features) * scale + target_mean
        diff = pred - y_grams
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
            grads_w, grads_b = backward(model, zx[batch], zy[batch])
            grads = [g for pair in zip(grads_w, grads_b) for g in pair]
            adam_step(params, grads, state, config)
        train_rmse = grams_rmse(zx, train_y)
        val_rmse = grams_rmse(zv, val_y)
        if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        logbook.append(EpochLog(epoch, train_rmse, val_rmse))
        if val_rmse < best_val:
            best_val, best_epoch, best_params = val_rmse, epoch, snapshot()

    model.weights, model.biases = best_params
    # Fold the target scale into the linear output layer: the returned
    # model maps standardized features straight to grams.
    model.weights[-1] = model.weights[-1] * scale
    model.biases[-1] = model.biases[-1] * scale + target_mean
    model.best_epoch = best_epoch
    return model, logbook


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predicted grams for raw (unstandardized) features; unclamped."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if model.norm_stats is not None:
        features = standardize_apply(model.norm_stats, features)
    return forward(model, features)


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class LevelMetrics:
    r2: float
    rmse: float
    nrmse: float


@dataclass(frozen=True)
class Evaluation:
    subplot: LevelMetrics
    plot: LevelMetrics
    field_actual: float
    field_predicted: float
    field_percent_error: float


def r2_score(actual: np.ndarray, predicted: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise DataError("targets are constant; coefficient of determination undefined")
    sse = float(np.sum((actual - predicted) ** 2))
    return 1.0 - sse / sst


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    diff = np.asarray(actual, dtype=np.float64) - np.asarray(predicted, dtype=np.float64)
    return float(np.sqrt(np.mean(diff * diff)))


def _level_metrics(actual: np.ndarray, predicted: np.ndarray) -> LevelMetrics:
    mean = float(np.mean(actual))
    if mean == 0.0:
        raise DataError("mean target is zero; normalized error undefined")
    e = rmse(actual, predicted)
    return LevelMetrics(r2=r2_score(actual, predicted), rmse=e, nrmse=e / mean)


def evaluate(
    model: MlpModel,
    features: np.ndarray,
    yields: np.ndarray,
    plot_ids: list[str],
) -> Evaluation:
    """Metrics at sub-plot, plot, and field level.

    Predictions are clamped at zero here (reporting time only). Plot
    totals are sums of sub-plot values grouped by plot id; the field
    level compares grand totals.
    """
    yields = np.asarray(yields, dtype=np.float64)
    if len(plot_ids) != yields.size:
        raise ShapeMismatchError(f"{yields.size} yields but {len(plot_ids)} plot ids")
    preds = np.maximum(predict(model, features), 0.0)
    if preds.size != yields.size:
        raise ShapeMismatchError(f"{preds.size} predictions but {yields.size} yields")

    ids = np.asarray(plot_ids, dtype=object)
    unique = np.unique(ids.astype(str))
    plot_actual = np.array([yields[ids == p].sum() for p in unique])
    plot_pred = np.array([preds[ids == p].sum() for p in unique])

    field_actual = float(plot_actual.sum())
    field_pred = float(plot_pred.sum())
    if field_actual == 0.0:
        raise DataError("field total is zero; percent error undefined")
    return Evaluation(
        subplot=_level_metrics(yields, preds),
        plot=_level_metrics(plot_actual, plot_pred),
        field_actual=field_actual,
        field_predicted=field_pred,
        field_percent_error=(field_pred - field_actual) / field_actual * 100.0,
    )


# ---------------------------------------------------------------------------
# persistence

def save_model(model: MlpModel, path: str | os.PathLike) -> None:
    """Versioned binary checkpoint; byte-deterministic for a given model.

    Layout: magic line, one JSON header line (sorted keys), then raw
    little-endian float64 blocks: per layer weights then biases, then
    normalization mean and variance when present.
    """
    header = {
        "best_epoch": int(model.best_epoch),
        "layer_sizes": list(model.layer_sizes),
        "normalized": model.norm_stats is not None,
        "rng_seed": int(model.rng_seed),
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        if model.norm_stats is not None:
            fh.write(np.ascontiguousarray(model.norm_stats.mean, dtype="<f8").tobytes())
            fh.write(
                np.ascontiguousarray(model.norm_stats.variance, dtype="<f8").tobytes()
            )


def load_model(path: str | os.PathLike) -> MlpModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        sizes = tuple(int(s) for s in header["layer_sizes"])

        def block(count):
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise DataError(f"{path}: checkpoint truncated")
            return np.frombuffer(raw, dtype="<f8").astype(np.float64)

        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(block(fan_in * fan_out).reshape(fan_in, fan_out))
            biases.append(block(fan_out))
        stats = None
        if header["normalized"]:
            stats = NormStats(mean=block(sizes[0]), variance=block(sizes[0]))
        extra = fh.read(1)
        if extra:
            raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return MlpModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        norm_stats=stats,
        best_epoch=int(header["best_epoch"]),
        rng_seed=int(header["rng_seed"]),
    )


def write_training_log_csv(path: str | os.PathLike, logbook: list[EpochLog]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_rmse", "val_rmse"])
        for entry in logbook:
            writer.writerow([entry.epoch, repr(entry.train_rmse), repr(entry.val_rmse)])
