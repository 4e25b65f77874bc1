"""Feedforward yield regressor written against numpy only.

Covers the whole supervised stage: stratified splitting with a
plot-level test holdout, z-score standardization fit on the training
set, a fully connected ReLU network with a linear output unit, batch
mean squared error with hand-derived backpropagation, Adam updates,
best-validation checkpointing, and evaluation at sub-plot, plot, and
field level. Everything is seeded, so a (dataset, config, seed) triple
pins the trained model bit for bit.

The network trains in float32 on the calling thread: parameters,
gradients, Adam's moments and the standardized features. The rest is
float64: standardization, the gram-scale errors, the returned model and
its checkpoint, which the float32 values widen into exactly.

Targets are z-scored while optimizing (fixed-size Adam steps cannot
climb to gram-scale outputs in a few hundred updates) and the scale is
folded back into the linear output layer before the model is returned,
so checkpoints always map standardized features straight to grams.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ShapeMismatchError,
)
from .table import write_table

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = (256, 128, 64, 32)
SIGMA_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"HYPERFIELD-MLP-1\n"


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


def _rank_chunks(ordered: np.ndarray, strata: int, unit: str) -> list[np.ndarray]:
    """Cut an ordered index array of ``unit`` items into quantile chunks.

    A one-element chunk is merged into the next chunk, or at the tail
    into the one before (never an error, per the split contract).
    """
    n = ordered.size
    bounds = [n * s // strata for s in range(strata + 1)]
    merged: list[np.ndarray] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            if merged and merged[-1].size < 2:
                log.warning("stratum with 1 %s merged with its neighbour", unit)
                merged[-1] = np.concatenate([merged[-1], ordered[lo:hi]])
            else:
                merged.append(ordered[lo:hi])
    if len(merged) > 1 and merged[-1].size < 2:
        log.warning("stratum with 1 %s merged with its neighbour", unit)
        merged[-2:] = [np.concatenate(merged[-2:])]
    return merged


def _stratified_draw(
    values: np.ndarray, count: int, strata: int, rng: np.random.Generator, unit: str
) -> np.ndarray:
    """Positions of ``count`` of ``values``, each rank stratum giving its share.

    The values, one per ``unit``, are ranked, ties by position, and the
    ranking is cut by ``_rank_chunks``. Each chunk's share is the floor
    of its proportional part of ``count``, plus one for the chunks with
    the largest remainders (ties to the earlier chunk). A chunk gives
    the front of ``rng.permutation`` of its size; every chunk draws one
    permutation.
    """
    chunks = _rank_chunks(np.argsort(values, kind="stable"), strata, unit)
    sizes = np.array([chunk.size for chunk in chunks], dtype=np.float64)
    exact = sizes / sizes.sum() * count
    quotas = np.floor(exact).astype(int)
    by_remainder = np.lexsort((np.arange(sizes.size), quotas - exact))
    quotas[by_remainder[: count - quotas.sum()]] += 1
    return np.concatenate(
        [chunk[rng.permutation(chunk.size)[:quota]] for chunk, quota in zip(chunks, quotas)]
    )


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
    values = np.array([totals[p] for p in plots])
    drawn = _stratified_draw(values, spec.test_plots, spec.strata, rng, "plot")
    return {plots[i] for i in drawn}


def stratified_split(
    yields: np.ndarray, plot_ids: list[str], spec: SplitSpec
) -> Split:
    """Split record indices into train / validation / test.

    Whole plots are held out for test first: explicitly by id, or by a
    ``_stratified_draw`` of ``test_plots`` plots ranked by their total
    yield. Validation is then a ``_stratified_draw`` of the surviving
    records ranked by yield, its count the validation share of them
    rounded half up, so each yield stratum gives its share to within one
    record. Every other survivor lands in train, which keeps the three
    sets exhaustive even for fractions that do not sum exactly to one.
    The two draws take independent generators spawned from ``spec.seed``.
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

    share = spec.validation_fraction / (spec.train_fraction + spec.validation_fraction)
    count = int(np.floor(remaining.size * share + 0.5))
    validation = np.zeros(remaining.size, dtype=bool)
    drawn = _stratified_draw(yields[remaining], count, spec.strata, record_rng, "record")
    validation[drawn] = True
    return Split(train=remaining[~validation], validation=remaining[validation], test=test_idx)


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


def _param_views(
    flat: np.ndarray, layer_sizes: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of one flat vector.

    The layout is the checkpoint's: each layer's weights (row-major),
    then its biases.
    """
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for standardized features; returns a flat vector.

    Float features keep their precision; any other input is taken as float64.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    if x.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatchError(
            f"input has {x.shape[1]} features, model expects {model.layer_sizes[0]}"
        )
    a = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a[:, 0]


class Workspace:
    """What ``backward`` writes, allocated once for a whole training run.

    ``grads`` is one flat vector laid out as ``_param_views`` lays out
    parameters, and ``grads_w`` / ``grads_b`` are its per-layer views.
    ``acts`` and ``deltas`` hold each layer's outputs and error terms
    for up to ``rows`` batch rows. All of them are ``dtype``, the
    parameters' precision.
    """

    def __init__(self, layer_sizes: tuple[int, ...], rows: int, dtype: np.dtype):
        pairs = zip(layer_sizes[:-1], layer_sizes[1:])
        self.rows = rows
        self.grads = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in pairs), dtype)
        self.grads_w, self.grads_b = _param_views(self.grads, layer_sizes)
        self.acts = [np.empty((rows, size), dtype) for size in layer_sizes[1:]]
        self.deltas = [np.empty((rows, size), dtype) for size in layer_sizes[1:]]


def backward(
    model: MlpModel, x: np.ndarray, y: np.ndarray, work: Workspace | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the batch-mean squared error, per layer.

    They are written into ``work`` (a fresh one in the precision of the
    model's weights when none is given) and returned as its ``grads_w``
    and ``grads_b`` views; ``x`` and ``y`` are taken in that precision.
    The ReLU subgradient at exactly zero is taken as zero.
    """
    dtype = model.weights[0].dtype if work is None else work.grads.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    y = np.asarray(y, dtype=dtype).reshape(-1)
    n = x.shape[0]
    if y.size != n:
        raise ShapeMismatchError(f"{n} inputs but {y.size} targets")
    if work is None:
        work = Workspace(model.layer_sizes, n, dtype)
    elif n > work.rows:
        raise ShapeMismatchError(f"{n} rows but a workspace for {work.rows}")
    last = model.n_layers - 1
    acts = [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(acts[i], w, out=work.acts[i][:n])
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    delta = np.subtract(acts[-1], y[:, None], out=work.deltas[last][:n])
    delta *= 2.0
    delta /= n
    for layer in range(last, -1, -1):
        np.matmul(acts[layer].T, delta, out=work.grads_w[layer])
        np.sum(delta, axis=0, out=work.grads_b[layer])
        if layer > 0:
            # a ReLU output is positive exactly where its input is
            delta = np.matmul(delta, model.weights[layer].T, out=work.deltas[layer - 1][:n])
            delta *= acts[layer] > 0.0
    return work.grads_w, work.grads_b


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
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("Adam betas must lie in [0, 1)")
        # the trainer's float32 arithmetic must see each as a positive finite number
        for name, value in (("learning_rate", self.learning_rate), ("eps", self.eps)):
            with np.errstate(over="ignore"):
                if not 0 < np.float32(value) < np.inf:
                    raise ConfigError(f"{name} = {value} must be positive and finite in float32")


class AdamState:
    """Adam's moments and step count for one flat parameter vector."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self.scratch = np.empty((2, params.size), params.dtype)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of a flat parameter vector, in place.

    The in-place passes round as ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``
    does, one operation at a time in the same order (c1 and c2 are the
    bias corrections).
    """
    if params.ndim != 1 or params.shape != state.m.shape or grads.shape != params.shape:
        raise ShapeMismatchError("parameter, gradient, and state vectors disagree")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    m, v, (s, r) = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(grads, 1.0 - b1, out=s)
    v *= b2
    np.multiply(grads, 1.0 - b2, out=s)
    v += np.multiply(s, grads, out=s)
    np.divide(m, 1.0 - b1**state.t, out=s)
    s *= config.learning_rate
    np.divide(v, 1.0 - b2**state.t, out=r)
    np.sqrt(r, out=r)
    r += config.eps
    s /= r
    params -= s


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

    The parameters, their gradients and Adam's moments are flat float32
    vectors, and the standardized features are cast to float32 once.
    Each epoch is scored in grams in float64 from the float32 outputs,
    and the best epoch's parameters are widened to float64 before the
    target scale is folded in.
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
    zx = zx.astype(np.float32)
    zv = standardize_apply(stats, val_x).astype(np.float32)
    target_mean = float(train_y.mean())
    target_std = float(train_y.std())
    scale = target_std if target_std > SIGMA_FLOOR else 0.0
    zy = (train_y - target_mean) / scale if scale else np.zeros_like(train_y)
    zy = zy.astype(np.float32)

    layer_sizes = (train_x.shape[1], *hidden_sizes, 1)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = init_model(layer_sizes, seed=config.seed, rng=rng)
    model.norm_stats = stats
    params = np.concatenate(
        [a.ravel() for pair in zip(model.weights, model.biases) for a in pair],
        dtype=np.float32,
    )
    model.weights, model.biases = _param_views(params, layer_sizes)
    n = train_y.size
    work = Workspace(layer_sizes, min(config.batch_size, n), params.dtype)
    state = AdamState(params)

    def grams_rmse(z_features, y_grams):
        return rmse(y_grams, forward(model, z_features).astype(np.float64) * scale + target_mean)

    logbook = []
    best_val, best_epoch, best_params = np.inf, 0, params
    # a diverging step overflows quietly: each epoch's loss check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            if epoch:
                perm = rng.permutation(n)
                for start in range(0, n, config.batch_size):
                    batch = perm[start : start + config.batch_size]
                    backward(model, zx[batch], zy[batch], work)
                    adam_step(params, work.grads, state, config)
            train_rmse, val_rmse = grams_rmse(zx, train_y), grams_rmse(zv, val_y)
            if not (np.isfinite(train_rmse) and np.isfinite(val_rmse)):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            logbook.append(EpochLog(epoch, train_rmse, val_rmse))
            if val_rmse < best_val:
                best_val, best_epoch, best_params = val_rmse, epoch, params.copy()

    model.weights, model.biases = _param_views(best_params.astype(np.float64), layer_sizes)
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path: str | os.PathLike) -> MlpModel:
    """The model a ``save_model`` checkpoint holds; a damaged one is a ``DataError`` naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except (ValueError, RecursionError) as exc:  # not ASCII, not JSON or too deep
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        payload = fh.read()
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    sizes = header.get("layer_sizes")
    if not (isinstance(sizes, list) and len(sizes) >= 2
            and all(_is_int(s) and s > 0 for s in sizes)):
        raise DataError(f"{path}: checkpoint layer_sizes must be two or more positive integers")
    if not isinstance(header.get("normalized"), bool):
        raise DataError(f"{path}: checkpoint 'normalized' must be true or false")
    for key in ("best_epoch", "rng_seed"):
        if not _is_int(header.get(key)):
            raise DataError(f"{path}: checkpoint {key!r} must be an integer")

    # per layer weights then biases, then the normalization mean and variance
    shapes = [shape for n, m in zip(sizes, sizes[1:]) for shape in ((n, m), (m,))]
    if header["normalized"]:
        shapes += [(sizes[0],)] * 2
    counts = [math.prod(shape) for shape in shapes]
    if len(payload) < 8 * sum(counts):
        raise DataError(f"{path}: checkpoint truncated")
    if len(payload) > 8 * sum(counts):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    arrays = [
        part.reshape(shape)
        for part, shape in zip(np.split(values, np.cumsum(counts)[:-1]), shapes)
    ]
    layers = 2 * (len(sizes) - 1)
    stats = None
    if header["normalized"]:
        stats = NormStats(mean=arrays[layers], variance=arrays[layers + 1])
    return MlpModel(
        layer_sizes=tuple(sizes),
        weights=arrays[0:layers:2],
        biases=arrays[1:layers:2],
        norm_stats=stats,
        best_epoch=header["best_epoch"],
        rng_seed=header["rng_seed"],
    )


def write_training_log_csv(path: str | os.PathLike, logbook: list[EpochLog]) -> None:
    rows = [(entry.epoch, entry.train_rmse, entry.val_rmse) for entry in logbook]
    write_table(path, ["epoch", "train_rmse", "val_rmse"], rows)
