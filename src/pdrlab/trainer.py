"""Deterministic minibatch training for the classifier with optional penalty.

Per batch, labeled examples contribute mean cross-entropy and every example
contributes the mean smoothness penalty scaled by alpha; one Adam step at the
constant learning rate follows. The whole run is a pure function of (initial
model, dataset, config): shuffling and perturbation draws come from streams
derived from the config seed, so reruns are bit-identical.

Work that does not depend on the model is done once per epoch, not once per
batch: the epoch's order gathers the features, labels and weights, and
`perturbation_draws` draws every row's perturbations for the whole order;
each batch takes its slice of both. A row's draws depend only on its epoch
and its index in the dataset, so batch boundaries do not move them.

A step forwards its clean and perturbed rows as one `search_inputs` stack and
sends the cross-entropy seed back with the penalty's in one backward, so
none, jr and rpt make one `forward_batch` call a step and vat ascent_steps + 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as mlp
from .data import UNLABELED, Dataset
from .regularizers import RegularizerSpec, penalty_batch, perturbation_draws, search_inputs
from .tensor import RandomSource, permutation

# stream tags under the config seed
_SHUFFLE, _PENALTY, _INIT = 0, 1, 2

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decays and floor: Kingma & Ba's defaults


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 1
    learning_rate: float = 1e-2
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)

    def __post_init__(self):
        mlp._check_int(self.epochs, "epochs", 1, math.inf)
        mlp._check_int(self.batch_size, "batch_size", 1, math.inf)
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


def adam_step(state, grads: np.ndarray, learning_rate: float):
    """One bias-corrected moment update; returns (state, update to subtract)."""
    t, m, v = state
    t += 1
    m = _BETA1 * m + (1.0 - _BETA1) * grads
    v = _BETA2 * v + (1.0 - _BETA2) * grads * grads
    if not math.isfinite(v.max()):  # an overflowed square would freeze its parameter at a zero update
        raise ValueError("Adam's second moment is not finite")
    update = learning_rate * (m / (1.0 - _BETA1 ** t)) / (np.sqrt(v / (1.0 - _BETA2 ** t)) + _ADAM_EPS)
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


def _accuracy(tr: mlp.BatchTrace, y: np.ndarray) -> float:
    """Share of rows whose most probable class is y; ties resolve to the lowest class."""
    return float(np.mean(np.argmax(tr.posteriors, axis=1) == y))


def evaluate(model: mlp.MlpModel, ds: Dataset) -> EvalReport:
    """Accuracy and mean cross-entropy over the labeled examples."""
    mlp._check_one_model(model, "evaluate")
    idx = _scorable_rows(model, ds)
    y = ds.labels[idx]
    tr = mlp.forward_batch(model, ds.features[idx])
    return EvalReport(_accuracy(tr, y), float(np.mean(mlp.cross_entropy(tr.logits, y))), int(idx.size))


def _diverged(epoch: int, batch: int, term: str, exc: ValueError) -> ValueError:
    return ValueError(f"training diverged at epoch {epoch}, batch {batch}, in the {term}: {exc}")


def _finite_sum(total: float, value: float) -> float:
    total += value
    if not math.isfinite(total):
        raise ValueError(f"running loss sum is {total}")
    return total


@np.errstate(over="ignore", invalid="ignore")  # the loop's own finiteness checks report divergence
def train(model0: mlp.MlpModel, ds: Dataset, cfg: TrainConfig, eval_sets: dict | None = None) -> TrainRun:
    """Run the full protocol; returns the final model and per-epoch metrics.

    The training set and every eval set are checked, and the scored sets'
    labeled rows gathered, before epoch 0. Each epoch then holds one gathered
    copy of the features (N x n) and, for rpt and vat, D x N x n draws, D
    being samples_per_example for rpt and 1 for vat.
    """
    t_start = time.monotonic()
    spec = cfg.regularizer
    mlp._check_one_model(model0, "train")
    if ds.n_examples == 0:
        raise ValueError("dataset has no examples")
    if ds.n_features != model0.n_inputs:
        raise ValueError(f"dataset has {ds.n_features} features, model expects {model0.n_inputs}")
    labeled = ds.labels != UNLABELED
    n_labeled = int(labeled.sum())
    if n_labeled == 0 and spec.kind == "none":
        raise ValueError("all examples are unlabeled and there is no penalty: nothing to optimize")
    # (record key, dataset, name in errors) of each set scored after every epoch
    sets = [("train", ds, "dataset")] if n_labeled else []
    sets += [(f"eval_{name}", eval_ds, f"eval set '{name}'") for name, eval_ds in (eval_sets or {}).items()]
    scored = []  # (record key, features, labels) of each set's labeled rows
    for key, scored_ds, label in sets:
        idx = _scorable_rows(model0, scored_ds, label)
        scored.append((key, scored_ds.features[idx], scored_ds.labels[idx]))
    y_filled = np.where(labeled, ds.labels, 0)  # any class will do: weights zero these rows
    weights = labeled.astype(np.float64)
    n = ds.n_examples

    rng = RandomSource(cfg.seed)
    model = model0
    state = adam_init(model0)
    epoch_records = []

    for epoch in range(cfg.epochs):
        order = permutation(rng.split(_SHUFFLE, epoch), n)
        X_e, y_e, w_e = ds.features[order], y_filled[order], weights[order]
        draws_e = None  # jr draws nothing, so it gets no row streams
        if spec.kind in ("rpt", "vat"):
            draws_e = perturbation_draws(spec.kind, rng.split(_PENALTY, epoch).split_rows(order), ds.n_features,
                                         spec.perturbation)
        ce_sum = 0.0
        pen_sum = 0.0
        for b, lo in enumerate(range(0, n, cfg.batch_size)):
            hi = min(lo + cfg.batch_size, n)
            X_b, w_b = X_e[lo:hi], w_e[lo:hi]
            draws = None if draws_e is None else draws_e[:, lo:hi]
            n_lab = float(w_b.sum())
            ce_scale = 1.0 / n_lab if n_lab else 0.0
            term = "cross-entropy"
            try:
                try:
                    tr = mlp.forward_batch(model, search_inputs(X_b, spec, draws))
                except ValueError:
                    mlp.forward_batch(model, X_b)  # raises here if the clean rows fail alone
                    term = "penalty"
                    raise
                clean = tr[0]
                losses, seed = mlp.cross_entropy_seed(clean, y_e[lo:hi], w_b)
                ce_sum = _finite_sum(ce_sum, float(losses @ w_b))
                if spec.kind == "none":
                    ce_grads, _ = mlp._backward_from_logits(model, clean, seed)
                    grads = ce_scale * ce_grads
                else:
                    term = "penalty"
                    values, pen_grads, ce_grads = penalty_batch(model, tr, spec, draws, seed)
                    pen_sum = _finite_sum(pen_sum, float(values.sum()))
                    grads = ce_scale * ce_grads + (spec.alpha / (hi - lo)) * pen_grads
                term = "parameter update"
                state, update = adam_step(state, grads, cfg.learning_rate)
                model = mlp.apply_update(model, update, 1.0)
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
            for key, X, y in scored:
                record[f"{key}_accuracy"] = _accuracy(mlp.forward_batch(model, X), y)
        except ValueError as exc:  # every set passed _scorable_rows above; logits overflowed
            raise _diverged(epoch, b, "parameter update", exc) from None
        epoch_records.append(record)

    return TrainRun(
        config=asdict(cfg),
        provenance=dict(ds.provenance),
        epochs=epoch_records,
        final={k: v for k, v in epoch_records[-1].items() if k != "epoch"},
        model=model,
        run_id=f"{time.time_ns():x}-{cfg.seed}",
        wall_clock_seconds=time.monotonic() - t_start,
    )


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
