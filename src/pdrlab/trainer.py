"""Deterministic minibatch training for the classifier with optional penalty.

Per batch, labeled examples contribute mean cross-entropy and every example
contributes the mean smoothness penalty scaled by alpha. The whole run is a
pure function of (initial model, dataset, config): shuffling and perturbation
draws come from streams derived from the config seed, so reruns are
bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as mlp
from .data import UNLABELED, Dataset
from .regularizers import RegularizerSpec, penalty_batch
from .tensor import RandomSource, log_sum_exp, permutation

OPTIMIZER_KINDS = ("adam", "sgd")
LR_DECAY_KINDS = ("none", "linear")

# stream tags under the config seed
_SHUFFLE, _PENALTY, _INIT = 0, 1, 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 1
    optimizer: str = "adam"
    learning_rate: float = 1e-2
    lr_decay: str = "none"
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_KINDS}")
        if self.lr_decay not in LR_DECAY_KINDS:
            raise ValueError(f"lr_decay must be one of {LR_DECAY_KINDS}")
        if not 0.0 < self.learning_rate < math.inf:  # also catches NaN
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


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


def adam_init(model: mlp.MlpModel):
    """Adam state (t, first moments, second moments) over the flat parameters."""
    return 0, np.zeros(model.params.size), np.zeros(model.params.size)


def adam_step(state, grads: np.ndarray, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected moment update; returns (state, update to subtract).

    `train` always takes the defaults, Kingma & Ba's."""
    t, m, v = state
    t += 1
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    update = learning_rate * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    return (t, m, v), update


def _scorable_rows(model: mlp.MlpModel, ds: Dataset, name: str = "dataset") -> np.ndarray:
    """Indices of ds's labeled rows, after checking that the model can score
    them: ds has a labeled row, the model's feature count and no label past
    the model's classes."""
    idx = ds.labeled_indices()
    if idx.size == 0:
        raise ValueError(f"{name} has no labeled example")
    if ds.n_features != model.n_inputs:
        raise ValueError(f"{name} has {ds.n_features} features, model expects {model.n_inputs}")
    if ds.labels[idx].max() >= model.n_classes:
        raise ValueError(f"{name} labels exceed the model's class count")
    return idx


def evaluate(model: mlp.MlpModel, ds: Dataset) -> EvalReport:
    """Accuracy and mean cross-entropy over the labeled examples."""
    idx = _scorable_rows(model, ds)
    X = ds.features[idx]
    y = ds.labels[idx]
    tr = mlp.forward_batch(model, X)
    preds = np.argmax(tr.posteriors, axis=1)  # ties resolve to the lowest class
    ces = log_sum_exp(tr.logits) - tr.logits[np.arange(idx.size), y]
    return EvalReport(float(np.mean(preds == y)), float(np.mean(ces)), int(idx.size))


def _diverged(epoch: int, batch: int, term: str, exc: ValueError) -> ValueError:
    return ValueError(f"training diverged at epoch {epoch}, batch {batch}, in the {term}: {exc}")


def _finite_sum(total: float, value: float) -> float:
    total += value
    if not math.isfinite(total):
        raise ValueError(f"running loss sum is {total}")
    return total


def train(model0: mlp.MlpModel, ds: Dataset, cfg: TrainConfig, eval_sets: dict | None = None) -> TrainRun:
    """Run the full protocol; returns the final model and per-epoch metrics."""
    t_start = time.monotonic()
    spec = cfg.regularizer
    if ds.n_features != model0.n_inputs:
        raise ValueError(f"dataset has {ds.n_features} features, model expects {model0.n_inputs}")
    labeled = ds.labels != UNLABELED
    n_labeled = int(labeled.sum())
    if n_labeled == 0 and spec.kind == "none":
        raise ValueError("all examples are unlabeled and there is no penalty: nothing to optimize")
    # (record key, dataset, name in errors) of each set scored after every epoch
    scored = [("train", ds, "dataset")] if n_labeled else []
    scored += [(f"eval_{name}", eval_ds, f"eval set '{name}'") for name, eval_ds in (eval_sets or {}).items()]
    for _, scored_ds, label in scored:
        _scorable_rows(model0, scored_ds, label)
    y_filled = np.where(labeled, ds.labels, 0)  # any class will do: weights zero these rows
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
        for b, lo in enumerate(range(0, n, cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            X = ds.features[batch]
            w_b = weights[batch]
            n_lab = float(w_b.sum())
            term = "cross-entropy"
            try:
                tr = mlp.forward_batch(model, X)
                losses, ce_grads, _ = mlp.backward_ce_batch(model, tr, y_filled[batch], weights=w_b)
                ce_sum = _finite_sum(ce_sum, float(losses @ w_b))
                grads = (1.0 / n_lab if n_lab else 0.0) * ce_grads
                if spec.kind != "none":
                    term = "penalty"
                    rows = None  # jr draws nothing, so it gets no row streams
                    if spec.kind != "jr":
                        rows = rng.split(_PENALTY, epoch).split_rows(batch)
                    values, pen_grads = penalty_batch(model, tr, spec, rows)
                    pen_sum = _finite_sum(pen_sum, float(values.sum()))
                    grads = grads + (spec.alpha / len(batch)) * pen_grads
                term = "parameter update"
                if cfg.optimizer == "adam":
                    state, update = adam_step(state, grads, lr)
                    model = mlp.apply_update(model, update, 1.0)
                else:
                    model = mlp.apply_update(model, grads, lr)
            except ValueError as exc:
                # non-finite sums, parameters or logits: the run has diverged
                raise _diverged(epoch, b, term, exc) from None

        mean_ce = ce_sum / n_labeled if n_labeled else 0.0
        mean_penalty = pen_sum / n if spec.kind != "none" else 0.0
        record = {
            "epoch": epoch,
            "mean_ce": float(mean_ce),
            "mean_penalty": float(mean_penalty),
            "total_loss": float(mean_ce + spec.alpha * mean_penalty),
        }
        try:
            for key, scored_ds, _ in scored:
                record[f"{key}_accuracy"] = evaluate(model, scored_ds).accuracy
        except ValueError as exc:  # every set passed evaluate's checks above; logits overflowed
            raise _diverged(epoch, b, "parameter update", exc) from None
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
