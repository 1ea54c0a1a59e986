"""Span scorer: per-position encoder plus begin/end softmaxes over positions.

Each row of a (T, n_feat) feature matrix is encoded independently by a shared
tanh network with a linear last layer. A (2, d) scorer array, begin row
first, turns the T encodings into (2, T) scores, and a softmax along each row
gives the begin and end distributions over positions; a span (i, j) has
probability P_begin(i) * P_end(j), so the joint table normalizes to 1 by
construction.

This module owns only the head's forward pass, score backward, loss and
init. Its smoothness penalty sums the begin and end divergences under one
perturbation of the whole feature matrix, which `regularizers`' shared
searches draw or climb as one flat row, with the clean distributions held
constant. The Jacobian-norm penalty is not defined for this head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as mlp
from .divergences import _divergence_rows, generator
from .regularizers import (PenaltyResult, RegularizerSpec, _checked_eps, _quadratic_form, ascent_search,
                           perturbation_draws, random_search)
from .tensor import RandomRows, RandomSource, as_mat, softmax


class SpanModel:
    """Immutable parameters in one read-only float64 vector laid out
    [encoder layout, w_begin, w_end]; the encoder's are the leading
    mlp.n_params(enc_dims). `weights` and `biases` are its per-layer views
    (its last layer is the linear encoding), so the MLP passes run on a
    SpanModel directly; `scorers` is the (2, d) view of the trailing
    [w_begin, w_end]. Parameter gradients are flat arrays in the same
    layout. An (S, P) stack of parameter vectors gives (S, 2, d) scorers
    and stacked encoder views.
    """

    __slots__ = ("enc_dims", "params", "weights", "biases", "scorers")

    def __init__(self, enc_dims, params):
        self.enc_dims, self.params = mlp._checked_params("enc_dims", enc_dims, params, head_rows=2)
        self.weights, self.biases = mlp.unflatten(self.enc_dims, self.params)
        self.scorers = self.params[..., mlp.n_params(self.enc_dims) :].reshape(*self.params.shape[:-1], 2, -1)

    @property
    def n_features(self) -> int:
        return self.enc_dims[0]

    def with_params(self, params) -> "SpanModel":
        return SpanModel(self.enc_dims, params)


@dataclass(frozen=True)
class SpanTrace:
    """Everything the span head's backward passes need. Row 0 of `scores`
    and `probs` is the begin head, row 1 the end head."""

    inputs: np.ndarray  # (T, n_feat) features
    hiddens: tuple[np.ndarray, ...]
    encodings: np.ndarray  # (T, d)
    scores: np.ndarray  # (2, T), (S, 2, T) for a stacked model
    probs: np.ndarray  # (2, T), the softmax of each row of scores


def init_span_model(enc_dims, rng: RandomSource) -> SpanModel:
    encoder = mlp.init_mlp(enc_dims, rng.split(0))
    d = encoder.layer_dims[-1]
    scorers = [rng.split(1, k).generator().standard_normal(d) / np.sqrt(d) for k in (0, 1)]
    return SpanModel(encoder.layer_dims, np.concatenate([encoder.params, *scorers]))


def _check_features(model: SpanModel, features) -> np.ndarray:
    f = as_mat(features, "feature matrix")
    if f.shape[0] < 1 or f.shape[1] != model.n_features:
        raise ValueError(f"features must have shape (T, {model.n_features}) with T >= 1, got {f.shape}")
    return f


def _scores(enc, scorers) -> np.ndarray:
    """(2, T) scores of (T, d) encodings, one GEMV per scorer row: a single
    GEMM would round differently. Stacked (S, T, d) encodings and (S, 2, d)
    scorers give (S, 2, T), one (S, T, d) @ (S, d, 1) product per row."""
    return np.stack([(enc @ scorers[..., k, :, None])[..., 0] for k in (0, 1)], axis=-2)


def span_forward(model: SpanModel, features) -> SpanTrace:
    f = _check_features(model, features)
    hiddens, h = mlp._forward_core(model, f)
    scores = _scores(h, model.scorers)
    return SpanTrace(f, hiddens, h, scores, softmax(scores))


def span_distributions(model: SpanModel, features) -> np.ndarray:
    """(2, T) begin and end distributions over positions."""
    return span_forward(model, features).probs


def joint_span_table(model: SpanModel, features) -> np.ndarray:
    """(T, T) table of span probabilities P_begin(i) * P_end(j)."""
    mlp._check_one_model(model, "joint_span_table")
    return np.outer(*span_distributions(model, features))


def _scores_backward(model, tr: SpanTrace, g_scores, want_param_grads=True):
    """(flat parameter grads or None, feature grads) from a (2, T) score seed."""
    g_h = (g_scores[:, :, None] * model.scorers[:, None, :]).sum(axis=0)
    enc_grads, fg = mlp._backward_from_logits(model, tr, g_h, want_param_grads)
    if not want_param_grads:
        return None, fg
    return np.concatenate([enc_grads, *(tr.encodings.T @ g for g in g_scores)]), fg


def span_loss(model: SpanModel, features, start: int, end: int):
    """Negative log-probability of the (start, end) span, with flat gradients."""
    mlp._check_one_model(model, "span_loss")
    tr = span_forward(model, features)
    t = tr.inputs.shape[0]
    start, end = mlp._check_int(start, "span start", 0, t), mlp._check_int(end, "span end", 0, t)
    loss = mlp.cross_entropy(tr.scores, [start, end]).sum()
    g = tr.probs.copy()
    g[(0, 1), (start, end)] -= 1.0
    grads, _ = _scores_backward(model, tr, g)
    return float(loss), grads


def _divergence_grads(model, tr: SpanTrace, gen):
    """The span head's `divergence_grads`: the summed begin+end divergence at
    features + delta, delta a one-row batch of flat (T * n_feat) perturbations."""
    shape = tr.inputs.shape

    def divergence_grads(delta, want_param_grads=True):
        trn = span_forward(model, tr.inputs + delta.reshape(shape))
        values, seed = _divergence_rows(gen, trn.probs, tr.probs)
        grads, fg = _scores_backward(model, trn, mlp._softmax_vjp(trn.probs, seed), want_param_grads)
        return values.sum(keepdims=True), grads, fg.reshape(1, -1)

    return divergence_grads


def span_penalty(model: SpanModel, features, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Summed begin+end divergence penalty under one shared perturbation.

    kind rpt draws it (`random_search`), kind vat searches it (`ascent_search`)
    as one flat row, so ascent and projection norms treat the (T, n_feat)
    matrix as a flat vector. The clean distributions are constants.
    """
    mlp._check_one_model(model, "span_penalty")
    if spec.kind == "jr":
        raise ValueError("the Jacobian-norm penalty is not defined for span models")
    if spec.kind not in ("rpt", "vat"):
        raise ValueError(f"no span penalty for kind {spec.kind!r}")
    tr = span_forward(model, features)
    dg = _divergence_grads(model, tr, generator(spec.generator_kind))
    draws = perturbation_draws(spec.kind, RandomRows.of([rng]), tr.inputs.size, spec.perturbation)
    if spec.kind == "rpt":
        values, grads = random_search(dg, draws)
        return PenaltyResult(float(values[0]), grads)
    values, grads, delta = ascent_search(dg, draws, spec.perturbation)
    return PenaltyResult(float(values[0]), grads, delta.reshape(tr.inputs.shape))


def span_quadratic_penalty(model: SpanModel, features, gen, eps) -> float:
    """Second-order value of the summed penalty at perturbation eps.

    (g''(1)/2) [eps^T J_b^T diag(1/P_b) J_b eps + (end term)], with J_b, J_e
    the begin and end Jacobians in the flattened features, and eps shaped as
    the features or flat. J eps comes from one forward-mode tangent pass.
    """
    mlp._check_one_model(model, "span_quadratic_penalty")
    tr = span_forward(model, features)
    eps = _checked_eps(eps, tr.inputs.shape, (tr.inputs.size,))
    d_enc = mlp._tangent(model, tr, eps.reshape(tr.inputs.shape))
    return _quadratic_form(gen, tr.probs, _scores(d_enc, model.scorers))


def apply_span_update(model: SpanModel, grads: np.ndarray, step) -> SpanModel:
    """New span model with parameters theta - step * grad, elementwise."""
    return mlp.apply_update(model, grads, step)
