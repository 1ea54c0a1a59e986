"""Smoothness penalties for classifier training.

Three penalties, all measuring how much the posterior moves under an input
perturbation:

  jr   -- squared Frobenius norm of the posterior's input Jacobian, the
          second-order limit of the divergence penalties;
  rpt  -- f-divergence between the posterior at a Gaussian draw and at the
          clean input;
  vat  -- the same divergence at an adversarial perturbation found by
          normalized gradient ascent inside a norm ball.

rpt and vat share one perturbation search for every head: `random_search`
averages Gaussian draws and `ascent_search` climbs and projects. A head
supplies only `divergence_grads(delta, want_param_grads)`; the span head's
lives in `spans`. The clean posterior is a constant for gradient purposes
(stop-gradient); `through_clean=True` additionally differentiates the
reference branch; it is defined only for rpt and vat, which have one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mlp
from .divergences import PROB_FLOOR, Generator, _ratio, generator, kl_divergence, l1_distance, l2_distance
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
        if not all(0.0 <= v < math.inf for v in (self.radius, self.step_size, self.init_std)):
            raise ValueError("perturbation sizes must be finite and nonnegative")
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
        if self.through_clean and self.kind not in ("rpt", "vat"):
            raise ValueError(f"through_clean is defined only for rpt and vat, not {self.kind!r}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")
        generator(self.generator_kind)  # validates the name


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    param_grads: np.ndarray  # flat, in the model's parameter layout
    adversarial_direction: np.ndarray | None = None


def _divergence_rows(gen: Generator, p_noisy, p_clean):
    """Rowwise divergence values and d(value)/d(p_noisy) seeds."""
    ratio = _ratio(p_noisy, p_clean)
    values = np.sum(p_clean * gen.g(ratio), axis=-1)
    return values, gen.g_prime(ratio), ratio


def jr_penalty(model: mlp.MlpModel, x) -> PenaltyResult:
    """||d posterior / d input||_F^2 with its exact parameter gradient."""
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


def random_search(divergence_grads, rows: RandomRows, n: int, cfg: PerturbationConfig):
    """(values (B,), parameter grads), each averaged over samples_per_example draws.

    `divergence_grads(delta, want_param_grads=True)` returns (values (B,),
    flat parameter grads summed over rows or None, input grads (B, n)) at
    perturbations delta (B, n). Draw s for row i is row i of
    gaussian_rows(rows.split(s), n, cfg.radius), so no row depends on another.
    """
    scale = 1.0 / cfg.samples_per_example
    values, acc = 0.0, 0.0
    for s in range(cfg.samples_per_example):
        vals, grads, _ = divergence_grads(gaussian_rows(rows.split(s), n, cfg.radius))
        values += vals
        acc += scale * grads
    return values / cfg.samples_per_example, acc


def ascent_search(divergence_grads, rows: RandomRows, n: int, cfg: PerturbationConfig):
    """(values (B,), parameter grads, perturbations (B, n)) at the adversarial
    perturbation. Each row starts from a draw of std init_std (row i of
    rows.split(0)), climbs its own divergence for ascent_steps normalized
    steps on input gradients alone, and is projected into the norm ball; with
    ascent_steps=0 this is a single projected random draw.
    """
    delta = gaussian_rows(rows.split(0), n, cfg.init_std)
    for _ in range(cfg.ascent_steps):
        _, _, asc = divergence_grads(delta, want_param_grads=False)
        delta = _ascent_step(delta, asc, cfg)
    delta = _project(delta, cfg)
    values, grads, _ = divergence_grads(delta)
    return values, grads, delta


def _divergence_grads(model, tr: mlp.BatchTrace, spec: RegularizerSpec):
    """The classifier's `divergence_grads`: row i's divergence from tr's
    posterior to the one at tr.inputs[i] + delta[i]."""
    gen = generator(spec.generator_kind)

    def divergence_grads(delta, want_param_grads=True):
        trn = mlp.forward_batch(model, tr.inputs + delta)
        values, seed, ratio = _divergence_rows(gen, trn.posteriors, tr.posteriors)
        grads, xg = mlp.backward_scalar_of_posterior_batch(model, trn, seed, want_param_grads)
        if spec.through_clean and want_param_grads:
            seed_c = gen.g(ratio) - ratio * gen.g_prime(ratio)  # d/dp of p*g(q/p) at fixed q
            grads = grads + mlp.backward_scalar_of_posterior_batch(model, tr, seed_c)[0]
        return values, grads, xg

    return divergence_grads


def rpt_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, rows: RandomRows):
    """rpt for a batch, one RandomRows row per batch row: (values (B,), flat parameter grads)."""
    return random_search(_divergence_grads(model, tr, spec), rows, tr.inputs.shape[1], spec.perturbation)


def vat_penalty_batch(model, tr: mlp.BatchTrace, spec: RegularizerSpec, rows: RandomRows):
    """vat for a batch, one RandomRows row per batch row: (values, grads, perturbations (B, n))."""
    return ascent_search(_divergence_grads(model, tr, spec), rows, tr.inputs.shape[1], spec.perturbation)


def rpt_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence under a Gaussian draw for one example."""
    values, grads = rpt_penalty_batch(model, mlp.forward(model, x), spec, RandomRows.of([rng]))
    return PenaltyResult(float(values[0]), grads)


def vat_penalty(model, x, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Divergence at the adversarial perturbation for one example."""
    values, grads, delta = vat_penalty_batch(model, mlp.forward(model, x), spec, RandomRows.of([rng]))
    return PenaltyResult(float(values[0]), grads, delta[0])


def penalty_batch(model, tr, spec: RegularizerSpec, rows: RandomRows):
    """Dispatch on spec.kind; returns (values (B,), flat parameter grads).

    rows may be None for jr, which draws nothing.
    """
    if spec.kind == "jr":
        return mlp.jacobian_sq_norm_grads_batch(model, tr)
    if spec.kind == "rpt":
        return rpt_penalty_batch(model, tr, spec, rows)
    if spec.kind == "vat":
        return vat_penalty_batch(model, tr, spec, rows)[:2]
    raise ValueError(f"no penalty for kind {spec.kind!r}")


def _quadratic_form(gen: Generator, p, dz) -> float:
    """(g''(1)/2) sum over rows of (J dz)^T diag(1/p) (J dz), J the softmax
    Jacobian at a row of p and dz that row's logit tangent; p is floored
    before inverting. Each row is summed before the rows are added."""
    jdz = mlp._softmax_vjp(p, dz)  # the softmax Jacobian is symmetric
    return float(0.5 * gen.curvature_at_one * np.sum(np.sum(jdz * jdz / np.maximum(p, PROB_FLOOR), axis=-1)))


def quadratic_penalty(model, x, gen: Generator, eps) -> float:
    """Small-noise quadratic form: (g''(1)/2) eps^T J^T diag(1/f) J eps.

    J and f are the posterior Jacobian and posterior at the clean input;
    f is floored before inverting. This is the second-order Taylor value of
    the divergence penalty at perturbation eps. J eps comes from one
    forward-mode tangent pass.
    """
    tr = mlp.forward(model, x)
    _, dz = mlp._tangent(model, tr, np.asarray(eps, dtype=np.float64)[None, :])
    return _quadratic_form(gen, tr.posteriors, dz)


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
    tr = mlp.forward(model, x)
    p = tr.posteriors[0]
    jac = mlp.input_jacobian_batch(model, tr)[0]
    sp = spectral_norm(jac)
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
