"""Span scorer: per-position encoder plus begin/end softmaxes over positions.

Each row of a (T, n_feat) feature matrix is encoded independently by a shared
tanh network with a linear last layer. Two score vectors w_begin, w_end turn
the T encodings into begin and end distributions over positions; a span (i, j)
has probability P_begin(i) * P_end(j), so the joint table normalizes to 1 by
construction.

This module owns only the head's forward pass, score backward, loss and
init. Its smoothness penalty sums the begin and end divergences under one
perturbation of the whole feature matrix, which `regularizers`' shared
searches draw or climb as one flat row. The Jacobian-norm penalty and the
through_clean branch are not defined for this head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as mlp
from .divergences import PROB_FLOOR, generator
from .regularizers import PenaltyResult, RegularizerSpec, _divergence_rows, ascent_search, random_search
from .tensor import RandomRows, RandomSource, log_sum_exp, softmax


class SpanModel:
    """Immutable parameters in one read-only float64 vector laid out
    [encoder layout, w_begin, w_end]. `weights` and `biases` are the
    encoder's per-layer views into the leading slice (its last layer is the
    linear encoding), so the MLP passes run on a SpanModel directly; w_begin,
    w_end are views of the two trailing d-vectors. Parameter gradients are
    flat arrays in the same layout.
    """

    __slots__ = ("enc_dims", "params", "weights", "biases", "w_begin", "w_end")

    def __init__(self, enc_dims, params):
        dims = tuple(map(int, enc_dims))
        if len(dims) < 2:
            raise ValueError("enc_dims needs at least feature and encoding sizes")
        if min(dims) < 1:
            raise ValueError(f"enc_dims must be positive, got {dims}")
        params = np.asarray(params, dtype=np.float64)
        n_enc, d = mlp.n_params(dims), dims[-1]
        if params.shape != (n_enc + 2 * d,):
            raise ValueError(f"params must have shape ({n_enc + 2 * d},) for enc_dims {dims}, "
                             f"got {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("parameters have non-finite entries")
        params.setflags(write=False)
        self.enc_dims = dims
        self.params = params
        self.weights, self.biases = mlp.unflatten(dims, params)
        self.w_begin = params[n_enc : n_enc + d]
        self.w_end = params[n_enc + d :]

    @property
    def n_features(self) -> int:
        return self.enc_dims[0]

    @property
    def encoder(self) -> mlp.MlpModel:
        """The encoder as a stand-alone MlpModel over the leading slice."""
        return mlp.MlpModel(self.enc_dims, self.params[: mlp.n_params(self.enc_dims)])

    def with_params(self, params) -> "SpanModel":
        return SpanModel(self.enc_dims, params)


def make_span_model(encoder: mlp.MlpModel, w_begin, w_end) -> SpanModel:
    """Span model from an encoder and the two scoring vectors."""
    return SpanModel(encoder.layer_dims, np.concatenate([encoder.params, w_begin, w_end]))


@dataclass(frozen=True)
class SpanTrace:
    inputs: np.ndarray  # (T, n_feat) features
    hiddens: tuple[np.ndarray, ...]
    encodings: np.ndarray  # (T, d)
    begin_scores: np.ndarray
    end_scores: np.ndarray
    begin_probs: np.ndarray
    end_probs: np.ndarray


def init_span_model(enc_dims, rng: RandomSource) -> SpanModel:
    encoder = mlp.init_mlp(enc_dims, rng.split(0))
    d = encoder.layer_dims[-1]
    w_begin = rng.split(1, 0).generator().standard_normal(d) / np.sqrt(d)
    w_end = rng.split(1, 1).generator().standard_normal(d) / np.sqrt(d)
    return make_span_model(encoder, w_begin, w_end)


def _check_features(model: SpanModel, features) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != model.n_features:
        raise ValueError(f"features must have shape (T, {model.n_features}), got {f.shape}")
    if f.shape[0] < 1:
        raise ValueError("need at least one position")
    if not np.all(np.isfinite(f)):
        raise ValueError("features have non-finite entries")
    return f


def span_forward(model: SpanModel, features) -> SpanTrace:
    f = _check_features(model, features)
    hiddens, h = mlp._forward_core(model, f)
    sb = h @ model.w_begin
    se = h @ model.w_end
    return SpanTrace(f, hiddens, h, sb, se, softmax(sb), softmax(se))


def span_distributions(model: SpanModel, features):
    tr = span_forward(model, features)
    return tr.begin_probs, tr.end_probs


def joint_span_table(model: SpanModel, features) -> np.ndarray:
    """(T, T) table of span probabilities P_begin(i) * P_end(j)."""
    pb, pe = span_distributions(model, features)
    return np.outer(pb, pe)


def _scores_backward(model, tr: SpanTrace, g_sb, g_se, want_param_grads=True):
    """(flat parameter grads or None, feature grads) from score-vector seeds."""
    g_h = np.outer(g_sb, model.w_begin) + np.outer(g_se, model.w_end)
    enc_grads, fg = mlp._backward_from_logits(model, tr, g_h, want_param_grads)
    if not want_param_grads:
        return None, fg
    return np.concatenate([enc_grads, tr.encodings.T @ g_sb, tr.encodings.T @ g_se]), fg


def span_loss(model: SpanModel, features, start: int, end: int):
    """Negative log-probability of the (start, end) span, with flat gradients."""
    tr = span_forward(model, features)
    t = tr.inputs.shape[0]
    if not (0 <= int(start) < t and 0 <= int(end) < t):
        raise ValueError(f"span ({start}, {end}) out of range for {t} positions")
    loss = (log_sum_exp(tr.begin_scores) - tr.begin_scores[int(start)]
            + log_sum_exp(tr.end_scores) - tr.end_scores[int(end)])
    g_sb = tr.begin_probs.copy()
    g_sb[int(start)] -= 1.0
    g_se = tr.end_probs.copy()
    g_se[int(end)] -= 1.0
    grads, _ = _scores_backward(model, tr, g_sb, g_se)
    return float(loss), grads


def _divergence_grads(model, tr: SpanTrace, gen):
    """The span head's `divergence_grads`: the summed begin+end divergence at
    features + delta, delta a one-row batch of flat (T * n_feat) perturbations."""
    shape = tr.inputs.shape
    clean = np.stack((tr.begin_probs, tr.end_probs))

    def divergence_grads(delta, want_param_grads=True):
        trn = span_forward(model, tr.inputs + delta.reshape(shape))
        noisy = np.stack((trn.begin_probs, trn.end_probs))
        values, seed, _ = _divergence_rows(gen, noisy, clean)
        g_sb, g_se = mlp._softmax_vjp(noisy, seed)
        grads, fg = _scores_backward(model, trn, g_sb, g_se, want_param_grads)
        return values.sum(keepdims=True), grads, fg.reshape(1, -1)

    return divergence_grads


def span_penalty(model: SpanModel, features, spec: RegularizerSpec, rng: RandomSource) -> PenaltyResult:
    """Summed begin+end divergence penalty under one shared perturbation.

    kind rpt draws it (`random_search`), kind vat searches it (`ascent_search`)
    as one flat row, so ascent and projection norms treat the (T, n_feat)
    matrix as a flat vector. The clean distributions are constants, so
    through_clean is rejected.
    """
    if spec.kind == "jr":
        raise ValueError("the Jacobian-norm penalty is not defined for span models")
    if spec.kind not in ("rpt", "vat"):
        raise ValueError(f"no span penalty for kind {spec.kind!r}")
    if spec.through_clean:
        raise ValueError("through_clean is not defined for span models")
    tr = span_forward(model, features)
    dg = _divergence_grads(model, tr, generator(spec.generator_kind))
    rows, cfg = RandomRows.of([rng]), spec.perturbation
    if spec.kind == "rpt":
        values, grads = random_search(dg, rows, tr.inputs.size, cfg)
        return PenaltyResult(float(values[0]), grads)
    values, grads, delta = ascent_search(dg, rows, tr.inputs.size, cfg)
    return PenaltyResult(float(values[0]), grads, delta.reshape(tr.inputs.shape))


def span_quadratic_penalty(model: SpanModel, features, gen, eps) -> float:
    """Second-order value of the summed penalty at perturbation eps.

    (g''(1)/2) [eps^T J_b^T diag(1/P_b) J_b eps + (end term)], with J_b, J_e
    the Jacobians of the begin and end distributions in the flattened
    features. J eps comes from one forward-mode tangent pass.
    """
    tr = span_forward(model, features)
    _, d_enc = mlp._tangent(model, tr, np.asarray(eps, dtype=np.float64).reshape(tr.inputs.shape))
    total = 0.0
    for probs, w in ((tr.begin_probs, model.w_begin), (tr.end_probs, model.w_end)):
        jeps = mlp._softmax_vjp(probs, d_enc @ w)  # the softmax Jacobian is symmetric
        total += np.sum(jeps * jeps / np.maximum(probs, PROB_FLOOR))
    return float(0.5 * gen.curvature_at_one * total)


def apply_span_update(model: SpanModel, grads: np.ndarray, step) -> SpanModel:
    """New span model with parameters theta - step * grad, elementwise."""
    return model.with_params(model.params - step * grads)
