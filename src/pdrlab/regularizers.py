"""Smoothness penalties for classifier training.

Three penalties, all measuring how much the posterior moves under an input
perturbation:

  jr   -- squared Frobenius norm of the posterior's input Jacobian, the
          second-order limit of the divergence penalties;
  rpt  -- f-divergence between the posterior at a Gaussian draw and at the
          clean input;
  vat  -- the same divergence at an adversarial perturbation found by
          normalized gradient ascent inside a norm ball.

The clean posterior is a constant for gradient purposes (stop-gradient);
`through_clean=True` additionally differentiates the reference branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as mlp
from .divergences import PROB_FLOOR, Generator, generator, kl_divergence, l1_distance, l2_distance
from .tensor import RandomRows, RandomSource, frobenius_norm, gaussian_rows, gaussian_vec, spectral_norm

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
        if self.radius < 0 or self.step_size < 0 or self.init_std < 0:
            raise ValueError("perturbation sizes must be nonnegative")
        if self.ascent_steps < 0 or self.samples_per_example < 1:
            raise ValueError("ascent_steps must be >= 0 and samples_per_example >= 1")


@dataclass(frozen=True)
class RegularizerSpec:
    kind: str = "none"
    generator_kind: str = "KL"
    alpha: float = 1.0
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    through_clean: bool = False

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        generator(self.generator_kind)  # validates the name


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    param_grads: mlp.GradientBundle
    adversarial_direction: np.ndarray | None = None


def _zero_grads(model):
    return (
        [np.zeros_like(w) for w in model.weights],
        [np.zeros_like(b) for b in model.biases],
    )


def _accumulate(acc, grads, scale=1.0):
    wacc, bacc = acc
    for a, g in zip(wacc, grads.weight_grads):
        a += scale * g
    for a, g in zip(bacc, grads.bias_grads):
        a += scale * g


def _divergence_rows(gen: Generator, p_noisy, p_clean):
    """Rowwise divergence values and d(value)/d(p_noisy) seeds."""
    ratio = np.maximum(p_noisy, PROB_FLOOR) / np.maximum(p_clean, PROB_FLOOR)
    values = np.sum(p_clean * gen.g(ratio), axis=-1)
    return values, gen.g_prime(ratio), ratio


def _clean_branch_seed(gen: Generator, ratio):
    # d/dp of p*g(q/p) at fixed q: g(r) - r g'(r)
    return gen.g(ratio) - ratio * gen.g_prime(ratio)


def jr_penalty(model: mlp.MlpModel, x) -> PenaltyResult:
    """||d posterior / d input||_F^2 with its exact parameter gradient."""
    tr = mlp.forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    values, grads = mlp.jacobian_sq_norm_grads_batch(model, tr)
    return PenaltyResult(float(values[0]), grads)


def rpt_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, rows: RandomRows,
                      weights=None):
    """Random-perturbation penalty for a batch; one RandomRows row per batch row.

    Returns (values (B,), GradientBundle summed over rows and averaged over
    samples). Draw s for row i comes from row i of rows.split(s), so values
    do not depend on batch composition.
    """
    gen = generator(spec.generator_kind)
    cfg = spec.perturbation
    b, n = tr.inputs.shape
    acc = _zero_grads(model)
    values = np.zeros(b)
    for s in range(cfg.samples_per_example):
        eps = gaussian_rows(rows.split(s), n, cfg.radius)
        trn = mlp.forward_batch(model, tr.inputs + eps)
        vals, seed, ratio = _divergence_rows(gen, trn.posteriors, tr.posteriors)
        values += vals
        grads, _ = mlp.backward_scalar_of_posterior_batch(model, trn, seed, weights)
        _accumulate(acc, grads, 1.0 / cfg.samples_per_example)
        if spec.through_clean:
            grads_c, _ = mlp.backward_scalar_of_posterior_batch(
                model, tr, _clean_branch_seed(gen, ratio), weights
            )
            _accumulate(acc, grads_c, 1.0 / cfg.samples_per_example)
    values /= cfg.samples_per_example
    return values, mlp.GradientBundle(tuple(acc[0]), tuple(acc[1]))


def _project(delta, cfg: PerturbationConfig):
    if cfg.norm_kind == "linf":
        return np.clip(delta, -cfg.radius, cfg.radius)
    norms = np.sqrt(np.sum(delta * delta, axis=-1, keepdims=True))
    return np.where(norms > 0, cfg.radius * delta / np.maximum(norms, 1e-300), delta)


def vat_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, rows: RandomRows,
                      weights=None):
    """Adversarial-perturbation penalty for a batch; one RandomRows row per batch row.

    Ascent runs strictly per example: each row climbs its own divergence.
    With ascent_steps=0 this degrades to a single projected random draw.
    Returns (values, summed GradientBundle, perturbations (B, n)).
    """
    gen = generator(spec.generator_kind)
    cfg = spec.perturbation
    n = tr.inputs.shape[1]
    delta = gaussian_rows(rows.split(0), n, cfg.init_std)
    for _ in range(cfg.ascent_steps):
        trn = mlp.forward_batch(model, tr.inputs + delta)
        _, seed, _ = _divergence_rows(gen, trn.posteriors, tr.posteriors)
        _, asc = mlp.backward_scalar_of_posterior_batch(model, trn, seed)
        norms = np.sqrt(np.sum(asc * asc, axis=-1, keepdims=True))
        # rows with a vanishing ascent gradient keep their current delta
        step = np.where(norms >= _ASCENT_NORM_FLOOR, cfg.step_size / np.maximum(norms, 1e-300), 0.0)
        delta = delta + step * asc
    delta = _project(delta, cfg)

    trn = mlp.forward_batch(model, tr.inputs + delta)
    values, seed, ratio = _divergence_rows(gen, trn.posteriors, tr.posteriors)
    grads, _ = mlp.backward_scalar_of_posterior_batch(model, trn, seed, weights)
    if spec.through_clean:
        acc = _zero_grads(model)
        _accumulate(acc, grads)
        grads_c, _ = mlp.backward_scalar_of_posterior_batch(
            model, tr, _clean_branch_seed(gen, ratio), weights
        )
        _accumulate(acc, grads_c)
        grads = mlp.GradientBundle(tuple(acc[0]), tuple(acc[1]))
    return values, grads, delta


def rpt_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence under a Gaussian draw for one example."""
    tr = mlp.forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    values, grads = rpt_penalty_batch(model, tr, spec, RandomRows.of([rng]))
    return PenaltyResult(float(values[0]), grads)


def vat_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence at the adversarial perturbation for one example."""
    tr = mlp.forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    values, grads, delta = vat_penalty_batch(model, tr, spec, RandomRows.of([rng]))
    return PenaltyResult(float(values[0]), grads, delta[0])


def penalty_batch(model, tr, spec: RegularizerSpec, rows: RandomRows, weights=None):
    """Dispatch on spec.kind; returns (values (B,), GradientBundle)."""
    if spec.kind == "jr":
        return mlp.jacobian_sq_norm_grads_batch(model, tr, weights)
    if spec.kind == "rpt":
        return rpt_penalty_batch(model, tr, spec, rows, weights)
    if spec.kind == "vat":
        values, grads, _ = vat_penalty_batch(model, tr, spec, rows, weights)
        return values, grads
    raise ValueError(f"no penalty for kind {spec.kind!r}")


def quadratic_penalty(model, x, gen: Generator, eps) -> float:
    """Small-noise quadratic form: (g''(1)/2) eps^T J^T diag(1/f) J eps.

    J and f are the posterior Jacobian and posterior at the clean input;
    f is floored before inverting. This is the second-order Taylor value of
    the divergence penalty at perturbation eps.
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    jac = mlp.input_jacobian(model, x)
    f = np.maximum(mlp.posterior(model, x), PROB_FLOOR)
    jeps = jac @ eps
    return float(0.5 * gen.curvature_at_one * np.sum(jeps * jeps / f))


@dataclass(frozen=True)
class BoundCheck:
    """Minimum slack, over trials, in each link of the two inequality chains."""

    worst_gap: float  # 2 KL(clean, noisy) - ||noisy - clean||_2^2
    min_kl_l1_gap: float  # 2 KL - ||.||_1^2
    min_l1_l2_gap: float  # ||.||_1^2 - ||.||_2^2
    min_spectral_gap: float  # c^2 ||J||_sp^2 - ||J eps||_2^2
    min_frobenius_gap: float  # c^2 (||J||_F^2 - ||J||_sp^2)


def l2_vs_kl_bound_check(model, x, radius: float, trials: int, rng: RandomSource) -> BoundCheck:
    """Check the distance and Jacobian-norm chains at ||eps||_2 = radius draws."""
    x = np.asarray(x, dtype=np.float64)
    p = mlp.posterior(model, x)
    jac = mlp.input_jacobian(model, x)
    sp = spectral_norm(jac, iters=500, tol=1e-14)
    fro = frobenius_norm(jac)
    gaps = np.empty((trials, 4))
    for t in range(trials):
        eps = gaussian_vec(rng.split(t), x.size, 1.0)
        nrm = np.linalg.norm(eps)
        if nrm == 0.0:
            continue
        eps *= radius / nrm
        q = mlp.posterior(model, x + eps)
        l1, l2 = l1_distance(p, q), l2_distance(p, q)
        two_kl = 2.0 * kl_divergence(p, q)
        jeps_sq = float(np.sum((jac @ eps) ** 2))
        gaps[t] = (two_kl - l2 * l2, two_kl - l1 * l1, l1 * l1 - l2 * l2,
                   (radius * sp) ** 2 - jeps_sq)
    mins = gaps.min(axis=0)
    return BoundCheck(
        worst_gap=float(mins[0]),
        min_kl_l1_gap=float(mins[1]),
        min_l1_l2_gap=float(mins[2]),
        min_spectral_gap=float(mins[3]),
        min_frobenius_gap=float(radius * radius * (fro * fro - sp * sp)),
    )
