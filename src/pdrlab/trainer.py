"""Deterministic minibatch training for the classifier with optional penalty.

Per batch, labeled examples contribute mean cross-entropy and every example
contributes the mean smoothness penalty scaled by alpha. The whole run is a
pure function of (initial model, dataset, config): shuffling and perturbation
draws come from streams derived from the config seed, so reruns are
bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as mlp
from .data import Dataset
from .regularizers import RegularizerSpec, penalty_batch
from .tensor import RandomSource, permutation

OPTIMIZER_KINDS = ("adam", "sgd")
LR_DECAY_KINDS = ("none", "linear")

# stream tags under the config seed
_SHUFFLE, _PENALTY, _INIT = 0, 1, 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int
    optimizer: str = "adam"
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_decay: str = "none"
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_KINDS}")
        if self.lr_decay not in LR_DECAY_KINDS:
            raise ValueError(f"lr_decay must be one of {LR_DECAY_KINDS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class AdamState:
    t: int
    m_weights: tuple[np.ndarray, ...]
    m_biases: tuple[np.ndarray, ...]
    v_weights: tuple[np.ndarray, ...]
    v_biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    mean_ce: float
    n_labeled: int


@dataclass
class TrainRun:
    config: dict
    provenance: dict
    epochs: list
    final: dict
    model: mlp.MlpModel
    run_id: str
    wall_clock_seconds: float


def init_model_for(ds: Dataset, hidden_dims, seed: int) -> mlp.MlpModel:
    """Fresh classifier sized for the dataset, seeded from the run seed."""
    dims = (ds.n_features, *(int(h) for h in hidden_dims), ds.n_classes)
    return mlp.init_mlp(dims, RandomSource(seed).split(_INIT))


def adam_init(model: mlp.MlpModel) -> AdamState:
    zw = tuple(np.zeros_like(w) for w in model.weights)
    zb = tuple(np.zeros_like(b) for b in model.biases)
    return AdamState(0, zw, zb, tuple(np.zeros_like(w) for w in model.weights),
                     tuple(np.zeros_like(b) for b in model.biases))


def adam_step(state: AdamState, grads: mlp.GradientBundle, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected moment update; returns (state, update to subtract)."""
    t = state.t + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t

    def moments(m_old, v_old, gs):
        m = tuple(beta1 * m + (1.0 - beta1) * g for m, g in zip(m_old, gs))
        v = tuple(beta2 * v + (1.0 - beta2) * g * g for v, g in zip(v_old, gs))
        upd = tuple(learning_rate * (m_ / c1) / (np.sqrt(v_ / c2) + eps) for m_, v_ in zip(m, v))
        return m, v, upd

    mw, vw, uw = moments(state.m_weights, state.v_weights, grads.weight_grads)
    mb, vb, ub = moments(state.m_biases, state.v_biases, grads.bias_grads)
    return AdamState(t, mw, mb, vw, vb), mlp.GradientBundle(uw, ub)


def evaluate(model: mlp.MlpModel, ds: Dataset) -> EvalReport:
    """Accuracy and mean cross-entropy over the labeled examples."""
    idx = ds.labeled_indices()
    if idx.size == 0:
        raise ValueError("evaluate needs at least one labeled example")
    if ds.n_features != model.n_inputs:
        raise ValueError(f"dataset has {ds.n_features} features, model expects {model.n_inputs}")
    X = ds.features[idx]
    y = np.array([ds.labels[i] for i in idx])
    if y.max() >= model.n_classes:
        raise ValueError("dataset labels exceed the model's class count")
    tr = mlp.forward_batch(model, X)
    preds = np.argmax(tr.posteriors, axis=1)  # ties resolve to the lowest class
    m = np.max(tr.logits, axis=1)
    lse = m + np.log(np.sum(np.exp(tr.logits - m[:, None]), axis=1))
    ces = lse - tr.logits[np.arange(idx.size), y]
    return EvalReport(float(np.mean(preds == y)), float(np.mean(ces)), int(idx.size))


def _combine(ce: mlp.GradientBundle, ce_scale, pen, pen_scale):
    if pen is None:
        return mlp.GradientBundle(
            tuple(ce_scale * g for g in ce.weight_grads),
            tuple(ce_scale * g for g in ce.bias_grads),
        )
    return mlp.GradientBundle(
        tuple(ce_scale * g + pen_scale * h for g, h in zip(ce.weight_grads, pen.weight_grads)),
        tuple(ce_scale * g + pen_scale * h for g, h in zip(ce.bias_grads, pen.bias_grads)),
    )


def train(model0: mlp.MlpModel, ds: Dataset, cfg: TrainConfig, eval_sets: dict | None = None) -> TrainRun:
    """Run the full protocol; returns the final model and per-epoch metrics."""
    t_start = time.monotonic()
    spec = cfg.regularizer
    eval_sets = eval_sets or {}
    if ds.n_features != model0.n_inputs:
        raise ValueError(f"dataset has {ds.n_features} features, model expects {model0.n_inputs}")
    labeled = np.array([y is not None for y in ds.labels])
    n_labeled = int(labeled.sum())
    if n_labeled == 0 and spec.kind == "none":
        raise ValueError("all examples are unlabeled and there is no penalty: nothing to optimize")
    y_filled = np.array([0 if y is None else int(y) for y in ds.labels])
    if n_labeled and y_filled.max() >= model0.n_classes:
        raise ValueError("dataset labels exceed the model's class count")
    weights = labeled.astype(np.float64)
    n = ds.n_examples

    rng = RandomSource(cfg.seed)
    model = model0
    state = adam_init(model0) if cfg.optimizer == "adam" else None
    epoch_records = []

    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if cfg.lr_decay == "linear":
            lr *= 1.0 - epoch / cfg.epochs
        order = permutation(rng.split(_SHUFFLE, epoch), n)
        ce_sum = 0.0
        pen_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            X = ds.features[batch]
            w_b = weights[batch]
            n_lab = float(w_b.sum())
            tr = mlp.forward_batch(model, X)
            losses, ce_grads, _ = mlp.backward_ce_batch(model, tr, y_filled[batch], weights=w_b)
            ce_sum += float(losses @ w_b)
            pen_grads = None
            pen_scale = 0.0
            if spec.kind != "none":
                rows = rng.split(_PENALTY, epoch).split_rows(batch)
                values, pen_grads = penalty_batch(model, tr, spec, rows)
                pen_sum += float(values.sum())
                pen_scale = spec.alpha / len(batch)
            grads = _combine(ce_grads, 1.0 / n_lab if n_lab else 0.0, pen_grads, pen_scale)
            if cfg.optimizer == "adam":
                state, update = adam_step(state, grads, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
                model = mlp.apply_update(model, update, 1.0)
            else:
                model = mlp.apply_update(model, grads, lr)

        mean_ce = ce_sum / n_labeled if n_labeled else 0.0
        mean_penalty = pen_sum / n if spec.kind != "none" else 0.0
        record = {
            "epoch": epoch,
            "mean_ce": float(mean_ce),
            "mean_penalty": float(mean_penalty),
            "total_loss": float(mean_ce + spec.alpha * mean_penalty),
        }
        if n_labeled:
            record["train_accuracy"] = evaluate(model, ds).accuracy
        for name, eval_ds in eval_sets.items():
            record[f"eval_{name}_accuracy"] = evaluate(model, eval_ds).accuracy
        epoch_records.append(record)

    final = dict(epoch_records[-1])
    final.pop("epoch")
    run = TrainRun(
        config=asdict(cfg),
        provenance=dict(ds.provenance),
        epochs=epoch_records,
        final=final,
        model=model,
        run_id=f"{time.time_ns():x}-{cfg.seed}",
        wall_clock_seconds=time.monotonic() - t_start,
    )
    return run


def metrics_to_dict(run: TrainRun, deterministic: bool = False) -> dict:
    doc = {
        "config": run.config,
        "provenance": run.provenance,
        "epochs": run.epochs,
        "final": run.final,
    }
    if not deterministic:
        doc["run_id"] = run.run_id
        doc["wall_clock_seconds"] = run.wall_clock_seconds
    return doc
