"""Small dense tanh classifier with explicit forward and backward passes.

The network maps an n-vector through tanh hidden layers to softmax class
probabilities. All differentiation is written out by hand: cross-entropy
backward, backward of any scalar of the posterior (seeded at the posterior),
and the logit tangent along input directions. The posterior's input Jacobian is
accumulated from the output side as (B, m, h) arrays, and the parameter
gradient of its squared norm is one reverse sweep over that accumulation.

`forward`, `posterior` and `input_jacobian` take one 1-D example, and `forward`
returns its one-row BatchTrace. Gradients come from the *_batch functions, one
example per row; one example's gradients are theirs on its one-row trace.
`forward_batch` and `_backward_from_logits` also take an (S, B, ·) stack of row
blocks, as the trainer's one pass over clean and perturbed rows, and return
one result per slice; `_forward_core` and `_tangent` take a (T, 1, n) stack.
Each slice rounds exactly as it does alone; one (S*B, n) GEMM may not.

A model may also hold an (S, P) stack of parameter vectors, with (S, out, in)
weights and (S, 1, out) biases. `_forward_core`, `forward`, `posterior`,
`_jacobian_path`, `input_jacobian` and `_tangent` then put the stack axis
first, and on a (1, n) row each slice rounds exactly as its model alone. The
backward passes, `model_to_dict` and the trainer take one parameter vector.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .tensor import RandomSource, log_sum_exp, softmax_and_log_sum_exp

MODEL_FORMAT_VERSION = 1


class MlpModel:
    """Immutable parameters in one read-only float64 vector, `params`, laid out
    [W0, b0, W1, b1, ...], or a read-only (S, P) stack of such vectors.
    weights[l] (shape (out, in)) and biases[l] are views into it, and every
    parameter gradient is a flat array in the same layout. A plain class, not
    a dataclass: one is built on every update.
    """

    __slots__ = ("layer_dims", "params", "weights", "biases")

    def __init__(self, layer_dims, params):
        self.layer_dims, self.params = _checked_params("layer_dims", layer_dims, params)
        self.weights, self.biases = unflatten(self.layer_dims, self.params)

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def with_params(self, params) -> "MlpModel":
        return MlpModel(self.layer_dims, params)


def _check_one_model(model: MlpModel, caller: str) -> None:
    if model.params.ndim != 1:
        raise ValueError(f"{caller} takes one model, not a parameter stack of {len(model.params)}")


def _check_int(value, name: str, low: int, high) -> int:
    """value as an int once it is an integer in [low, high); a bool, float or str is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=None)
def _layout(layer_dims: tuple[int, ...]):
    """(W start, b start, b stop, W shape) of each layer in the flat vector."""
    out, lo = [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        mid = lo + fan_out * fan_in
        out.append((lo, mid, mid + fan_out, (fan_out, fan_in)))
        lo = mid + fan_out
    return tuple(out)


def n_params(layer_dims) -> int:
    """Length of the flat parameter vector for these layer sizes."""
    layout = _layout(tuple(layer_dims))
    return layout[-1][2] if layout else 0


def unflatten(layer_dims, flat):
    """(weights, biases): per-layer views of a flat vector in parameter layout.
    An (S, P) stack gives (S, out, in) weights and (S, 1, out) biases."""
    weights, biases = [], []
    lead = flat.shape[:-1]
    rows = flat[:, None] if lead else flat
    for lo, mid, hi, shape in _layout(tuple(layer_dims)):
        weights.append(flat[..., lo:mid].reshape(lead + shape))
        biases.append(rows[..., mid:hi])
    return tuple(weights), tuple(biases)


def _checked_params(name, dims, params, head_rows=0):
    """(dims as ints, params as a read-only float64 copy) once dims holds at
    least two sizes, all positive, and params holds n_params(dims) finite
    entries followed by head_rows vectors of the last size, or is an (S, P)
    stack of such vectors.
    """
    dims = tuple(map(int, dims))
    if len(dims) < 2:
        raise ValueError(f"{name} needs at least two sizes, got {dims}")
    if min(dims) < 1:
        raise ValueError(f"{name} must be positive, got {dims}")
    params = np.array(params, dtype=np.float64)  # the caller's array stays writable
    size = n_params(dims) + head_rows * dims[-1]
    if params.ndim not in (1, 2) or params.shape[-1] != size:
        raise ValueError(f"params must have shape ({size},) or (S, {size}) for {name} {dims}, got {params.shape}")
    if not np.isfinite(params).all():
        raise ValueError("parameters have non-finite entries")
    params.setflags(write=False)
    return dims, params


def pack_params(layer_dims, weights, biases) -> np.ndarray:
    """The flat parameter vector [W0, b0, W1, b1, ...] from per-layer arrays."""
    dims = tuple(int(d) for d in layer_dims)
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ValueError("parameter count does not match layer_dims")
    parts = []
    for l, (w, b) in enumerate(zip(weights, biases)):
        w, b = _layer_array(l, "weights", w), _layer_array(l, "biases", b)
        if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
            raise ValueError(f"layer {l} parameter shapes do not match layer_dims")
        parts += [w.ravel(), b]
    return np.concatenate(parts) if parts else np.zeros(0)


def _layer_array(l: int, key: str, value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except ValueError:  # a ragged nested list, or an entry that is no number
        raise ValueError(f"layer {l} {key} must be a rectangular array of numbers") from None


@dataclass(frozen=True)
class BatchTrace:
    """Everything the backward passes need, one example per row; a stacked
    pass puts its stack axis first, and tr[s] is the trace of slice s."""

    inputs: np.ndarray  # (B, n)
    hiddens: tuple[np.ndarray, ...]  # post-tanh activations, (B, h_l) each
    logits: np.ndarray  # (B, m)
    posteriors: np.ndarray  # (B, m)
    log_normalizers: np.ndarray  # (B,), each row's log-sum-exp of its logits

    def __getitem__(self, s) -> "BatchTrace":
        hiddens = tuple(a[s] for a in self.hiddens)
        return BatchTrace(self.inputs[s], hiddens, self.logits[s], self.posteriors[s], self.log_normalizers[s])


def init_mlp(layer_dims, rng: RandomSource) -> MlpModel:
    """Fresh model: weights ~ N(0, 1/fan_in), biases zero, one stream per layer."""
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in, fan_out = dims[l], dims[l + 1]
        flat = rng.split(l).generator().standard_normal(fan_out * fan_in)
        weights.append((flat / np.sqrt(fan_in)).reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, pack_params(dims, weights, biases))


def _check_batch_inputs(model: MlpModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != model.n_inputs:
        raise ValueError(f"inputs must have shape (B, {model.n_inputs}) or (S, B, {model.n_inputs}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("input matrix has non-finite entries")
    return X


def _forward_core(model: MlpModel, X):
    """(tanh hidden activations, linear last-layer outputs) for checked rows X;
    a stacked model puts its stack axis first."""
    hiddens = []
    a = X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.tanh(a @ w.mT + b)
        hiddens.append(a)
    return tuple(hiddens), a @ model.weights[-1].mT + model.biases[-1]


def forward_batch(model: MlpModel, X) -> BatchTrace:
    """The trace of rows X (B, n) or of an (S, B, n) stack: one core pass, one softmax."""
    X = _check_batch_inputs(model, X)
    hiddens, logits = _forward_core(model, X)
    return BatchTrace(X, hiddens, logits, *softmax_and_log_sum_exp(logits))


def _one_row(x) -> np.ndarray:
    """The (1, n) row of one 1-D example."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"forward expects a 1-D input, got shape {x.shape}")
    return x[None, :]


def forward(model: MlpModel, x) -> BatchTrace:
    """Run one example through the network: the one-row trace of x."""
    return forward_batch(model, _one_row(x))


def posterior(model: MlpModel, x) -> np.ndarray:
    """The posterior at one point, (S, m) for a stacked model."""
    return forward(model, x).posteriors[..., 0, :]


def _backward_from_logits(model, tr, g_logits, want_param_grads=True, g_sech2=None):
    """Backpropagate d(scalar)/d(logits) rows to parameters and inputs.

    tr needs `inputs` and `hiddens` as a BatchTrace has them; g_sech2 adds a
    d(scalar)/d(1 - a_l^2) for each hidden layer. Returns (flat parameter
    grads summed over the batch, (S, P) for (S, B, m) seeds on a stacked trace,
    or None when not wanted; input grads, one per row).
    """
    parts = []  # b_l, W_l for l = L-1 .. 0: the parameter layout reversed
    d = g_logits
    lead = d.shape[:-2]
    for l in range(len(model.weights) - 1, -1, -1):
        a_prev = tr.hiddens[l - 1] if l > 0 else tr.inputs
        if want_param_grads:
            parts += [d.sum(axis=-2), (d.mT @ a_prev).reshape(*lead, -1)]
        d = d @ model.weights[l]
        if l > 0:
            if g_sech2 is not None:
                d = d - 2.0 * a_prev * g_sech2[l - 1]
            d = d * (1.0 - a_prev * a_prev)
    return (np.concatenate(parts[::-1], axis=-1) if want_param_grads else None), d


def _softmax_vjp(p, g):
    # (diag(p) - p p^T) g, rowwise
    return p * (g - np.sum(p * g, axis=-1, keepdims=True))


def cross_entropy(logits, labels) -> np.ndarray:
    """lse(z) - z[label] per row z of (B, m) logits, one label per row, stable
    for saturated posteriors; a stack's (S, B, m) logits give (S, B)."""
    return log_sum_exp(logits) - logits[..., np.arange(logits.shape[-2]), labels]


def cross_entropy_seed(tr: BatchTrace, labels, weights=None):
    """(losses, d(sum_i w_i loss_i)/d logits) for checked labels; each loss is its
    row's log-normalizer minus its labeled logit, `cross_entropy` bit for bit."""
    rows = np.arange(len(labels))
    g = tr.posteriors.copy()
    g[rows, labels] -= 1.0
    if weights is not None:
        g = g * np.asarray(weights)[:, None]
    return tr.log_normalizers - tr.logits[rows, labels], g


def backward_ce_batch(model, tr: BatchTrace, labels, weights=None):
    """Cross-entropy losses and gradients for a batch.

    labels holds a class index in [0, m) per row. weights scales each row's
    share of the summed parameter gradients (used to zero out unlabeled
    rows); losses are unweighted.
    """
    labels = np.asarray(labels)
    b, m = tr.logits.shape
    if labels.dtype.kind not in "iu" or labels.shape != (b,) or not ((0 <= labels) & (labels < m)).all():
        raise ValueError(f"labels must be {b} class indices in [0, {m}), got {labels!r}")
    losses, g = cross_entropy_seed(tr, labels, weights)
    grads, xg = _backward_from_logits(model, tr, g)
    return losses, grads, xg


def backward_scalar_of_posterior_batch(model, tr: BatchTrace, seed, want_param_grads=True):
    """(Parameter grads or None, input grads) of sum_i s_i where d s_i / d posterior_i = seed row i."""
    seed = np.asarray(seed, dtype=np.float64)
    return _backward_from_logits(model, tr, _softmax_vjp(tr.posteriors, seed), want_param_grads)


def _jacobian_path(model, tr):
    """Posterior input Jacobians, accumulated from the output side.

    With a_l = tr.hiddens[l], the logit Jacobian Jz = W_L D_{L-1} ... D_0 W_0,
    D_l = diag(1 - a_l^2), is the running (B, m, h_l) product V_l = M_{l+1}
    W_{l+1}, M_l = V_l * (1 - a_l^2), one GEMM over a (B*m, h) reshape per
    layer. A stacked model gives (S, B, m, h_l) arrays, one (B*m, h) GEMM per
    slice. Returns (J = p * c, c = Jz - p^T Jz, Jz, [(V_l, M_l) per hidden layer]).
    """
    p = tr.posteriors
    *lead, b, m = p.shape  # lead is [S] for a stacked model
    path = []  # from the top hidden layer down
    w_top = model.weights[-1]
    v = np.broadcast_to(w_top[..., None, :, :], (*lead, b, m, w_top.shape[-1]))
    for w, a in zip(model.weights[-2::-1], tr.hiddens[::-1]):
        path.append((v, v * (1.0 - a * a)[..., None, :]))
        v = (path[-1][1].reshape(*lead, b * m, -1) @ w).reshape(*lead, b, m, -1)
    c = v - np.einsum("...k,...kj->...j", p, v)[..., None, :]
    return p[..., None] * c, c, v, path[::-1]


def input_jacobian_batch(model, tr: BatchTrace) -> np.ndarray:
    """(B, m, n) Jacobians of the posterior in the input, from `_jacobian_path`."""
    return _jacobian_path(model, tr)[0]


def input_jacobian(model, x) -> np.ndarray:
    """(m, n) Jacobian d posterior / d input at one point, (S, m, n) for a stack."""
    return input_jacobian_batch(model, forward(model, x))[..., 0, :, :]


def _tangent(model, tr, direction):
    """Forward-mode pass along input directions, one per row of `direction`.

    tr needs `hiddens` as a BatchTrace has them. Returns the tangent of the
    linear last-layer outputs.
    """
    da = direction
    for w, a in zip(model.weights[:-1], tr.hiddens):
        da = (1.0 - a * a) * (da @ w.mT)
    return da @ model.weights[-1].mT


def jacobian_sq_norm_grads_batch(model, tr: BatchTrace):
    """Squared Frobenius norms of the posterior Jacobians and their exact
    parameter gradients, by one reverse sweep over `_jacobian_path`.

    Its first loop runs bottom-up along the Jacobian path from d/dJz (B, m, n):
    one (B*m, h) GEMM per weight term, and d/d(1 - a_l^2) (B, h_l) per hidden
    layer. The primal top-down sweep from d/dp then adds -2 a_l d/d(1 - a_l^2)
    at each hidden layer. Returns (values (B,), flat grads summed over the batch).
    """
    jac, c, jz, path = _jacobian_path(model, tr)
    b, m, _ = jac.shape
    p = tr.posteriors[:, :, None]
    grads = np.zeros(model.params.size)  # the Jacobian path's weight terms
    wg, _ = unflatten(model.layer_dims, grads)
    # reverse of J = p * (Jz - p^T Jz), seeded with d(||J||^2 / 2)/dJ = J
    pj = p * jac
    w = pj.sum(axis=1)
    g = (pj - p * w[:, None, :]).reshape(b * m, -1)  # d/dJz
    g_p = np.einsum("bkj,bkj->bk", jac, c) - np.einsum("bkj,bj->bk", jz, w)
    g_sech2 = []
    for l, ((v, mm), a) in enumerate(zip(path, tr.hiddens)):
        wg[l][...] += mm.reshape(b * m, -1).T @ g
        np.matmul(g, model.weights[l].T, out=mm.reshape(b * m, -1))  # M_l is spent: it takes d/dM_l
        g_sech2.append(np.einsum("bkh,bkh->bh", mm, v))
        mm *= (1.0 - a * a)[:, None, :]
        g = mm.reshape(b * m, -1)
    wg[-1][...] += g.reshape(b, m, -1).sum(axis=0)
    primal, _ = _backward_from_logits(model, tr, _softmax_vjp(tr.posteriors, g_p), g_sech2=g_sech2)
    return np.sum(jac * jac, axis=(1, 2)), 2.0 * (grads + primal)


def apply_update(model, grads: np.ndarray, step):
    """New model (an MlpModel or SpanModel) with parameters theta - step * grad."""
    return model.with_params(model.params - step * grads)


def model_to_dict(model: MlpModel) -> dict:
    _check_one_model(model, "model_to_dict")
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def model_from_dict(doc: dict) -> MlpModel:
    if not isinstance(doc, dict):
        raise ValueError(f"a model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {doc.get('format_version')!r}")
    for key in ("layer_dims", "weights", "biases"):
        if key not in doc:
            raise ValueError(f"model document lacks {key}")
        if not isinstance(doc[key], list):
            raise ValueError(f"model document's {key} must be a list, got {type(doc[key]).__name__}")
    dims = doc["layer_dims"]
    if not all(type(d) is int for d in dims):  # no bool, float or null
        raise ValueError(f"model document's layer_dims must hold integers, got {dims!r}")
    for key in ("weights", "biases"):
        if not _holds_only_numbers(doc[key]):
            raise ValueError(f"model document's {key} must hold only numbers")
    return MlpModel(dims, pack_params(dims, doc["weights"], doc["biases"]))


def _holds_only_numbers(value) -> bool:
    """Whether every leaf of nested lists is a JSON number: no bool, string or null."""
    return all(map(_holds_only_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


def save_model(model: MlpModel, path) -> None:
    text = json.dumps(model_to_dict(model)) + "\n"  # a rejected model opens no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
