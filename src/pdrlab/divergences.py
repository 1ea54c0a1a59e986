"""f-divergences between discrete posteriors, defined by convex generators.

A generator g is convex on (0, inf) with g(1) = 0. The divergence between a
perturbed posterior q and a reference posterior p is

    D_g(q, p) = sum_i p_i * g(q_i / p_i)

with the ratio floored at PROB_FLOOR to keep logs finite. Weights come from
the reference (second) argument; nothing is renormalized after flooring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensor import check_simplex

# Floor applied inside ratios and logs only. Entries are never renormalized.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Generator:
    """A convex generator g with its first two derivatives, vectorized over t."""

    kind: str
    g: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    g_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    g_double_prime: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @property
    def curvature_at_one(self) -> float:
        """g''(1), the weight of the small-noise quadratic form."""
        return float(self.g_double_prime(1.0))


def _kl_g(t):
    return t * np.log(t)


def _kl_g1(t):
    return np.log(t) + 1.0


def _kl_g2(t):
    return 1.0 / t


def _rkl_g(t):
    return -np.log(t)


def _rkl_g1(t):
    return -1.0 / t


def _rkl_g2(t):
    return 1.0 / (t * t)


def _shl_g(t):
    r = np.sqrt(t) - 1.0
    return r * r


def _shl_g1(t):
    return 1.0 - 1.0 / np.sqrt(t)


def _shl_g2(t):
    return 0.5 * t ** -1.5


def _jsd_g(t):
    m = 0.5 * (1.0 + t)
    return 0.5 * t * np.log(t) - m * np.log(m)


def _jsd_g1(t):
    return 0.5 * np.log(2.0 * t / (1.0 + t))


def _jsd_g2(t):
    return 0.5 / (t * (1.0 + t))


KL = Generator("KL", _kl_g, _kl_g1, _kl_g2)
REVERSE_KL = Generator("RKL", _rkl_g, _rkl_g1, _rkl_g2)
SQUARED_HELLINGER = Generator("SHL", _shl_g, _shl_g1, _shl_g2)
JENSEN_SHANNON = Generator("JSD", _jsd_g, _jsd_g1, _jsd_g2)

GENERATORS = {g.kind: g for g in (KL, REVERSE_KL, SQUARED_HELLINGER, JENSEN_SHANNON)}
GENERATOR_KINDS = tuple(GENERATORS)


def generator(kind: str) -> Generator:
    """Look up a generator by kind name (KL, RKL, SHL, JSD)."""
    gen = GENERATORS.get(kind.upper())
    if gen is None:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    return gen


def _checked_pair(p_hat, p):
    p_hat = check_simplex(p_hat, "first distribution")
    p = check_simplex(p, "second distribution")
    if p_hat.shape != p.shape:
        raise ValueError(f"distribution shapes differ: {p_hat.shape} vs {p.shape}")
    return p_hat, p


def _ratio(p_hat, p):
    return np.maximum(p_hat, PROB_FLOOR) / np.maximum(p, PROB_FLOOR)


def _divergence_rows(gen: Generator, p_hat, p):
    """(D_g(p_hat, p), its gradient g'(ratio) in p_hat) per row of unchecked
    distributions: the values and seeds of every caller."""
    ratio = _ratio(p_hat, p)
    return np.sum(p * gen.g(ratio), axis=-1), gen.g_prime(ratio)


def f_divergence(gen: Generator, p_hat, p):
    """D_g(p_hat, p) = sum_i p_i g(p_hat_i / p_i), floored inside the ratio.

    Accepts stacked distributions along the last axis; returns a float for a
    single pair, an array for a batch. Always >= 0 up to float rounding, and
    exactly 0 when p_hat and p are identical.
    """
    val = _divergence_rows(gen, *_checked_pair(p_hat, p))[0]
    return float(val) if val.ndim == 0 else val


def f_divergence_grad_wrt_phat(gen: Generator, p_hat, p) -> np.ndarray:
    """Gradient of f_divergence in its first argument: component i is g'(ratio_i)."""
    return _divergence_rows(gen, *_checked_pair(p_hat, p))[1]


def l1_distance(p, q):
    d = np.sum(np.abs(np.asarray(p, dtype=np.float64) - q), axis=-1)
    return float(d) if d.ndim == 0 else d


def l2_distance(p, q):
    diff = np.asarray(p, dtype=np.float64) - q
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(d) if d.ndim == 0 else d


def kl_divergence(p, q):
    """Plain KL(p || q) = sum_i p_i log(p_i / q_i), which is f_divergence(KL, p, q)
    with its floor: a zero p_i adds PROB_FLOOR * ln(PROB_FLOOR / q_i)."""
    return f_divergence(KL, p, q)


def pinsker_gap(p, q):
    """2 KL(p || q) - ||p - q||_1^2, nonnegative by Pinsker's inequality."""
    gap = 2.0 * np.asarray(kl_divergence(p, q)) - np.asarray(l1_distance(p, q)) ** 2
    return float(gap) if gap.ndim == 0 else gap
