"""Smoothness penalties for classifier training.

Three penalties, all measuring how much the posterior moves under an input
perturbation:

  jr   -- squared Frobenius norm ||J||_F^2 of the posterior's input
          Jacobian, every class row weighted alike;
  rpt  -- f-divergence between the posterior at a Gaussian draw and at the
          clean input;
  vat  -- the same divergence at an adversarial perturbation found by
          normalized gradient ascent inside a norm ball.

rpt and vat share one perturbation search for every head: `random_search`
averages over its draws and `ascent_search` climbs from its draw and
projects. The draws come from `perturbation_draws`, one (seed, stream) row
per example, so the trainer draws a whole epoch at once and hands each batch
its slice. A head supplies only `divergence_grads(delta, want_param_grads)`;
the span head's lives in `spans`. Every penalty holds the clean posterior
constant for gradient purposes (stop-gradient), as VAT does.

For the classifier, `search_inputs` stacks the clean rows with every row the
search visits first, so one forward and one backward, which also carries the
caller's clean-row seed (the trainer's cross-entropy), serve them all; only
vat's later ascent steps and its final point take passes of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mlp
from .divergences import (PROB_FLOOR, Generator, _divergence_rows, generator, kl_divergence, l1_distance,
                          l2_distance)
from .tensor import RandomRows, RandomSource, frobenius_norm, gaussian_rows, softmax, spectral_norm

_ASCENT_NORM_FLOOR = 1e-12

PENALTY_KINDS = ("none", "jr", "rpt", "vat")
NORM_KINDS = ("l2", "linf")


@dataclass(frozen=True)
class PerturbationConfig:
    radius: float = 0.1  # ball radius; doubles as the draw std for rpt
    norm_kind: str = "l2"
    ascent_steps: int = 1
    step_size: float = 1e-3
    init_std: float = 1e-5
    samples_per_example: int = 1

    def __post_init__(self):
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if not all(0.0 <= v < math.inf for v in (self.radius, self.step_size, self.init_std)):
            raise ValueError("perturbation sizes must be finite and nonnegative")
        mlp._check_int(self.ascent_steps, "ascent_steps", 0, math.inf)
        mlp._check_int(self.samples_per_example, "samples_per_example", 1, math.inf)


@dataclass(frozen=True)
class RegularizerSpec:
    kind: str = "none"
    generator_kind: str = "KL"
    alpha: float = 1.0
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")
        generator(self.generator_kind)  # validates the name


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    param_grads: np.ndarray  # flat, in the model's parameter layout
    adversarial_direction: np.ndarray | None = None


def jr_penalty(model: mlp.MlpModel, x) -> PenaltyResult:
    """||d posterior / d input||_F^2 with its exact parameter gradient."""
    mlp._check_one_model(model, "jr_penalty")
    values, grads = mlp.jacobian_sq_norm_grads_batch(model, mlp.forward(model, x))
    return PenaltyResult(float(values[0]), grads)


def _project(delta, cfg: PerturbationConfig):
    if cfg.norm_kind == "linf":
        return np.clip(delta, -cfg.radius, cfg.radius)
    norms = np.sqrt(np.sum(delta * delta, axis=-1, keepdims=True))
    return np.where(norms > 0, cfg.radius * delta / np.maximum(norms, 1e-300), delta)


def _ascent_step(delta, asc, cfg: PerturbationConfig):
    """One normalized ascent step along `asc` for each row (last axis) of delta;
    rows with a vanishing ascent gradient keep their current delta."""
    norms = np.sqrt(np.sum(asc * asc, axis=-1, keepdims=True))
    step = np.where(norms >= _ASCENT_NORM_FLOOR, cfg.step_size / np.maximum(norms, 1e-300), 0.0)
    return delta + step * asc


def perturbation_draws(kind: str, rows: RandomRows, n: int, cfg: PerturbationConfig) -> np.ndarray:
    """(D, B, n) draws for the search of `kind`, row i of each from row i of rows.

    rpt: D = samples_per_example, draw s is gaussian_rows(rows.split(s), n,
    radius). vat: D = 1, the ascent's start gaussian_rows(rows.split(0), n,
    init_std). A row's draws depend on its own (seed, stream) pair alone, so
    draws for a long row order, sliced, equal draws made slice by slice.
    """
    if kind == "rpt":
        return np.stack([gaussian_rows(rows.split(s), n, cfg.radius) for s in range(cfg.samples_per_example)])
    if kind == "vat":
        return gaussian_rows(rows.split(0), n, cfg.init_std)[None]
    raise ValueError(f"no perturbation draws for kind {kind!r}")


def random_search(divergence_grads, draws: np.ndarray):
    """(values (B,), parameter grads), each averaged over the D draws of a
    (D, B, n) array.

    `divergence_grads(delta, want_param_grads=True)` returns (values (B,),
    flat parameter grads summed over rows or None, input grads (B, n)) at
    perturbations delta (B, n).
    """
    scale = 1.0 / len(draws)
    values, acc = 0.0, 0.0
    for delta in draws:
        vals, grads, _ = divergence_grads(delta)
        values += vals
        acc += scale * grads
    return values / len(draws), acc


def ascent_search(divergence_grads, draws: np.ndarray, cfg: PerturbationConfig):
    """(values (B,), parameter grads, perturbations (B, n)) at the adversarial
    perturbation. Each row starts from its row of draws[0], climbs its own
    divergence for ascent_steps normalized steps on input gradients alone,
    and is projected into the norm ball; with ascent_steps=0 this is a single
    projected random draw.
    """
    delta = draws[0]
    for _ in range(cfg.ascent_steps):
        _, _, asc = divergence_grads(delta, want_param_grads=False)
        delta = _ascent_step(delta, asc, cfg)
    delta = _project(delta, cfg)
    values, grads, _ = divergence_grads(delta)
    return values, grads, delta


def search_inputs(X, spec: RegularizerSpec, draws: np.ndarray | None) -> np.ndarray:
    """(1 + D, B, n): the clean rows X (B, n), then X + each delta the search
    visits first: every rpt draw, or vat's start, draws[0], projected when
    ascent_steps is 0. none and jr stack X alone."""
    if spec.kind not in ("rpt", "vat"):
        return X[None]
    if spec.kind == "vat":
        draws = draws[:1] if spec.perturbation.ascent_steps else _project(draws[:1], spec.perturbation)
    return np.concatenate((X[None], X + draws))


def _first_pass(model, tr: mlp.BatchTrace, spec: RegularizerSpec, clean_seed):
    """(grads of clean_seed, the classifier's `divergence_grads`) from one
    backward over tr, the trace of `search_inputs`, with clean_seed (zero when
    None) on the clean slice. The first D calls of `divergence_grads` return
    the stacked slices' results, in the order `search_inputs` stacked them."""
    if tr.inputs.ndim != 3:
        raise ValueError(f"a {spec.kind} penalty needs the (1 + D, B, n) trace of search_inputs, got {tr.inputs.shape}")
    gen = generator(spec.generator_kind)
    p = tr.posteriors[0]
    values, seeds = _divergence_rows(gen, tr.posteriors[1:], p)
    clean_seed = np.zeros_like(p) if clean_seed is None else clean_seed
    grads, xg = mlp._backward_from_logits(model, tr, np.concatenate(
        (clean_seed[None], mlp._softmax_vjp(tr.posteriors[1:], seeds))))
    stacked = zip(values, grads[1:], xg[1:])

    def divergence_grads(delta, want_param_grads=True):
        if (done := next(stacked, None)) is not None:
            return done
        trn = mlp.forward_batch(model, tr.inputs[0] + delta)
        values, seed = _divergence_rows(gen, trn.posteriors, p)
        grads, xg = mlp.backward_scalar_of_posterior_batch(model, trn, seed, want_param_grads)
        return values, grads, xg

    return grads[0], divergence_grads


def _check_kind(spec: RegularizerSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"a {kind} penalty needs a spec of kind {kind!r}, got {spec.kind!r}")


def rpt_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, draws: np.ndarray, clean_seed=None):
    """rpt for a batch of B rows, its (D, B, n) `perturbation_draws` and the trace
    of their `search_inputs`: (values (B,), flat parameter grads, grads of clean_seed)."""
    _check_kind(spec, "rpt")
    clean_grads, dg = _first_pass(model, tr, spec, clean_seed)
    return (*random_search(dg, draws), clean_grads)


def vat_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, draws: np.ndarray, clean_seed=None):
    """vat for a batch of B rows, its (1, B, n) `perturbation_draws` and the trace
    of their `search_inputs`: (values, grads, perturbations (B, n), grads of clean_seed)."""
    _check_kind(spec, "vat")
    clean_grads, dg = _first_pass(model, tr, spec, clean_seed)
    return (*ascent_search(dg, draws, spec.perturbation), clean_grads)


def rpt_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence under a Gaussian draw for one example."""
    mlp._check_one_model(model, "rpt_penalty")
    X = mlp._one_row(x)
    draws = perturbation_draws("rpt", RandomRows.of([rng]), X.shape[1], spec.perturbation)
    tr = mlp.forward_batch(model, search_inputs(X, spec, draws))
    values, grads, _ = rpt_penalty_batch(model, tr, spec, draws)
    return PenaltyResult(float(values[0]), grads)


def vat_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence at the adversarial perturbation for one example."""
    mlp._check_one_model(model, "vat_penalty")
    X = mlp._one_row(x)
    draws = perturbation_draws("vat", RandomRows.of([rng]), X.shape[1], spec.perturbation)
    tr = mlp.forward_batch(model, search_inputs(X, spec, draws))
    values, grads, delta, _ = vat_penalty_batch(model, tr, spec, draws)
    return PenaltyResult(float(values[0]), grads, delta[0])


def penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, draws: np.ndarray | None, clean_seed=None):
    """Dispatch on spec.kind; returns (values (B,), flat parameter grads, grads
    of clean_seed (B, m) at the clean rows, zero when it is None).

    tr is the trace of the batch's `search_inputs` and draws its
    `perturbation_draws`, None for jr, which draws nothing and runs its own
    kernel on the clean slice.
    """
    if spec.kind == "jr":
        clean = tr[0]
        values, grads = mlp.jacobian_sq_norm_grads_batch(model, clean)
        seed = np.zeros_like(clean.logits) if clean_seed is None else clean_seed
        return values, grads, mlp._backward_from_logits(model, clean, seed)[0]
    if spec.kind == "rpt":
        return rpt_penalty_batch(model, tr, spec, draws, clean_seed)
    if spec.kind == "vat":
        values, grads, _, clean_grads = vat_penalty_batch(model, tr, spec, draws, clean_seed)
        return values, grads, clean_grads
    raise ValueError(f"no penalty for kind {spec.kind!r}")


def _quadratic_form(gen: Generator, p, dz) -> float:
    """(g''(1)/2) sum over rows of (J dz)^T diag(1/p) (J dz), J the softmax
    Jacobian at a row of p and dz that row's logit tangent; p is floored
    before inverting. Each row is summed before the rows are added."""
    jdz = mlp._softmax_vjp(p, dz)  # the softmax Jacobian is symmetric
    return float(0.5 * gen.curvature_at_one * np.sum(np.sum(jdz * jdz / np.maximum(p, PROB_FLOOR), axis=-1)))


def _checked_eps(eps, *shapes) -> np.ndarray:
    """eps as float64 once its shape is one of `shapes` and every entry is finite."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape not in shapes or not np.isfinite(eps).all():
        raise ValueError(f"eps must hold finite entries in shape {' or '.join(map(str, shapes))}, got {eps.shape}")
    return eps


def quadratic_penalty(model, x, gen: Generator, eps) -> float:
    """Small-noise quadratic form: (g''(1)/2) eps^T J^T diag(1/f) J eps.

    J and f are the posterior Jacobian and posterior at the clean input x,
    eps has x's shape, and f is floored before inverting. This is the
    second-order Taylor value of the divergence penalty at perturbation eps.
    J eps comes from one forward-mode tangent pass.
    """
    mlp._check_one_model(model, "quadratic_penalty")
    tr = mlp.forward(model, x)
    dz = mlp._tangent(model, tr, _checked_eps(eps, tr.inputs.shape[1:])[None, :])
    return _quadratic_form(gen, tr.posteriors, dz)


def l2_vs_kl_bound_check(model, x, radius: float, trials: int, rng: RandomSource) -> float:
    """Minimum slack, over `trials` >= 1 draws eps with ||eps||_2 = c = radius, in
    every link of the distance and Jacobian-norm chains, with p and q the clean
    and noisy posteriors and J the input Jacobian at x (NaN if any link is NaN):
      2 KL(p, q) - ||q - p||_2^2, 2 KL - ||q - p||_1^2, ||q - p||_1^2 - ||q - p||_2^2,
      c^2 ||J||_sp^2 - ||J eps||_2^2 and c^2 (||J||_F^2 - ||J||_sp^2).
    Draw t is gaussian_vec(rng.split(t), x.size) scaled to norm c, all drawn in
    one call and held as a (trials, 1, n) stack, so each rounds as it would alone.
    """
    mlp._check_one_model(model, "l2_vs_kl_bound_check")
    trials = mlp._check_int(trials, "trials", 1, math.inf)
    x = np.asarray(x, dtype=np.float64)
    tr = mlp.forward(model, x)
    p = tr.posteriors[0]
    jac = mlp.input_jacobian_batch(model, tr)[0]
    sp = spectral_norm(jac)
    fro = frobenius_norm(jac)
    eps = gaussian_rows(rng.split_rows(np.arange(trials)), x.size)[:, None, :]
    eps *= radius / np.sqrt(eps @ eps.swapaxes(1, 2))  # np.linalg.norm of a vector is this dot
    q = softmax(mlp._forward_core(model, x + eps)[1])
    l1, l2 = l1_distance(p, q), l2_distance(p, q)
    two_kl = 2.0 * kl_divergence(np.broadcast_to(p, q.shape), q)
    jeps_sq = np.sum((eps @ jac.T) ** 2, axis=-1)
    gaps = np.stack((two_kl - l2 * l2, two_kl - l1 * l1, l1 * l1 - l2 * l2, (radius * sp) ** 2 - jeps_sq))
    return float(np.min(gaps, initial=radius * radius * (fro * fro - sp * sp)))
