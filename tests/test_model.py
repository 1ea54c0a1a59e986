import json
import math

import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab.properties import _fd_param_grads as fd_param_grads
from pdrlab.properties import _grad_rel_err
from pdrlab.spans import SpanModel
from pdrlab.tensor import RandomSource, softmax


def small_model(seed=1, dims=(2, 4, 3)):
    return mlp.init_mlp(dims, RandomSource(seed))


def assert_grads_close(grads, fd, tol=1e-4):
    assert grads.shape == fd.shape
    assert _grad_rel_err(grads, fd) < tol


def jacobian_sq_norm(model, x):
    """||J||_F^2 of the posterior's input Jacobian at x, one value per slice of a stack."""
    j = mlp.input_jacobian(model, x)
    return np.sum(j * j, axis=(-2, -1))


# ---------------------------------------------------------------- construction

def test_init_is_deterministic():
    a = small_model(3)
    b = small_model(3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert all(np.array_equal(b_, np.zeros_like(b_)) for b_ in a.biases)


def test_init_weight_scale():
    m = mlp.init_mlp((100, 80, 5), RandomSource(0))
    # fan-in scaling keeps early activations O(1)
    assert abs(m.weights[0].std() * math.sqrt(100) - 1.0) < 0.05


def test_model_validation():
    with pytest.raises(ValueError):
        mlp.MlpModel((2,), np.zeros(0))
    with pytest.raises(ValueError):
        mlp.MlpModel((2, 0), np.zeros(0))
    with pytest.raises(ValueError):
        mlp.MlpModel((2, 3), np.zeros(8))  # wrong length
    with pytest.raises(ValueError):
        mlp.pack_params((2, 3), (np.zeros((2, 3)),), (np.zeros(3),))  # transposed shape
    with pytest.raises(ValueError):
        mlp.MlpModel((2, 3), np.full(9, np.nan))


def stacked(dims, n, seed=0):
    """n random models of one shape, and the (n, P) stacked model of their params."""
    g = RandomSource(seed).generator()
    models = [mlp.MlpModel(dims, g.standard_normal(mlp.n_params(dims)) * 0.7) for _ in range(n)]
    return models, mlp.MlpModel(dims, np.stack([m.params for m in models]))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_stack", [1, 5])
@pytest.mark.parametrize("dims", [(2, 2), (2, 5, 2), (4, 5, 4, 3), (2, 8, 8, 2)])
def test_a_stack_is_its_slices(dims, n_stack):
    models, stack = stacked(dims, n_stack, seed=len(dims) + n_stack)
    assert stack.weights[0].shape == (n_stack, dims[1], dims[0])
    assert stack.biases[0].shape == (n_stack, 1, dims[1])
    x, d = RandomSource(7).generator().standard_normal((2, dims[0]))
    hiddens, logits = mlp._forward_core(stack, x[None, :])
    tr = mlp.forward(stack, x)
    jac, c, v, path = mlp._jacobian_path(stack, tr)
    dz = mlp._tangent(stack, tr, d[None, :])
    assert jac.shape == (n_stack, 1, dims[-1], dims[0])
    for s, m in enumerate(models):
        h1, z1 = mlp._forward_core(m, x[None, :])
        assert all(same_bits(h[s], h_) for h, h_ in zip(hiddens, h1))
        assert same_bits(logits[s], z1)
        tr1 = mlp.forward(m, x)
        assert same_bits(tr.posteriors[s], tr1.posteriors)
        j1, c1, v1, path1 = mlp._jacobian_path(m, tr1)
        assert same_bits(jac[s], j1) and same_bits(c[s], c1) and same_bits(v[s], v1)
        for (vs, ms), (v_, m_) in zip(path, path1):
            assert same_bits(vs[s], v_) and same_bits(ms[s], m_)
        assert same_bits(dz[s], mlp._tangent(m, tr1, d[None, :]))
        assert same_bits(mlp.posterior(stack, x)[s], mlp.posterior(m, x))
        assert same_bits(mlp.input_jacobian(stack, x)[s], mlp.input_jacobian(m, x))


def test_stacked_params_are_checked():
    dims = (2, 3)
    p = mlp.n_params(dims)
    with pytest.raises(ValueError, match="params must have shape"):
        mlp.MlpModel(dims, np.zeros((2, 3, p)))  # 3-D
    with pytest.raises(ValueError, match="params must have shape"):
        mlp.MlpModel(dims, np.zeros((3, p + 1)))  # wrong P
    bad = np.zeros((3, p))
    bad[2, 1] = np.inf
    with pytest.raises(ValueError, match="parameters have non-finite entries"):
        mlp.MlpModel(dims, bad)
    with pytest.raises(ValueError, match="params must have shape"):
        SpanModel(dims, np.zeros((2, p)))  # the scorer rows are missing
    assert not mlp.MlpModel(dims, np.zeros((3, p))).params.flags.writeable


def test_parameters_are_read_only():
    m = small_model()
    with pytest.raises(ValueError):
        m.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        m.params[0] = 1.0


def test_constructors_copy_the_callers_params():
    for cls, size in ((mlp.MlpModel, mlp.n_params((2, 3))), (SpanModel, mlp.n_params((2, 3)) + 2 * 3)):
        a = np.zeros(size)
        m = cls((2, 3), a)
        a[0] = 1.0  # the caller's array stays writable
        assert m.params[0] == 0.0  # and writing to it does not reach the model
        assert not m.params.flags.writeable


def test_params_are_one_flat_vector_of_layer_views():
    m = small_model(2, dims=(2, 4, 3))
    want = np.concatenate([m.weights[0].ravel(), m.biases[0], m.weights[1].ravel(), m.biases[1]])
    assert np.array_equal(m.params, want)
    assert all(np.shares_memory(a, m.params) for a in (*m.weights, *m.biases))
    assert np.array_equal(mlp.pack_params(m.layer_dims, m.weights, m.biases), m.params)


# ---------------------------------------------------------------- forward pass

def test_forward_replays_bit_exact():
    m = small_model(5)
    x = np.array([0.3, -1.2])
    t1 = mlp.forward(m, x)
    t2 = mlp.forward(m, x)
    assert np.array_equal(t1.logits, t2.logits)
    assert np.array_equal(t1.posteriors, t2.posteriors)


def test_forward_is_the_one_row_batch_trace():
    m = small_model(5)
    x = np.array([0.3, -1.2])
    tr = mlp.forward(m, x)
    assert isinstance(tr, mlp.BatchTrace)
    assert tr.inputs.shape == (1, 2) and tr.posteriors.shape == (1, m.n_classes)
    assert np.array_equal(mlp.posterior(m, x), tr.posteriors[0])


def test_forward_matches_manual_composition():
    m = small_model(7, dims=(2, 3, 2))
    x = np.array([0.5, -0.25])
    h = np.tanh(m.weights[0] @ x + m.biases[0])
    z = m.weights[1] @ h + m.biases[1]
    tr = mlp.forward(m, x)
    assert np.allclose(tr.hiddens[0][0], h, atol=1e-15)
    assert np.allclose(tr.logits[0], z, atol=1e-15)
    assert np.allclose(tr.posteriors[0], softmax(z), atol=1e-15)


def test_forward_batch_matches_single_rows():
    m = small_model(9, dims=(3, 5, 4))
    X = np.random.default_rng(2).standard_normal((6, 3))
    tr = mlp.forward_batch(m, X)
    for i in range(6):
        single = mlp.forward(m, X[i])
        # GEMM kernels may reassociate across batch shapes; only ulp noise allowed
        assert np.allclose(tr.logits[i], single.logits[0], atol=1e-13)
        assert np.allclose(tr.posteriors[i], single.posteriors[0], atol=1e-13)


@pytest.mark.parametrize("hidden", [(6,), (5, 4)], ids=["6", "5-4"])
@pytest.mark.parametrize("rows", [1, 13, 16, 32])  # 13: a partial batch of 16
@pytest.mark.parametrize("n_stack", [2, 4])
def test_a_row_stack_is_its_slices(n_stack, rows, hidden):
    # the trainer forwards clean and perturbed rows as one stack on a new
    # leading axis; each slice must keep the bytes of its own call
    m = mlp.init_mlp((3, *hidden, 4), RandomSource(rows))
    g = RandomSource(100 + rows).generator()
    X = g.standard_normal((n_stack, rows, 3))
    seeds = g.standard_normal((n_stack, rows, 4))
    labels = g.integers(0, 4, rows)
    tr = mlp.forward_batch(m, X)
    grads, xg = mlp._backward_from_logits(m, tr, seeds)
    assert grads.shape == (n_stack, m.params.size)
    for s in range(n_stack):
        one = mlp.forward_batch(m, X[s])
        for got, want in ((tr[s].inputs, one.inputs), (tr[s].logits, one.logits),
                          (tr[s].posteriors, one.posteriors), (tr[s].log_normalizers, one.log_normalizers),
                          *zip(tr[s].hiddens, one.hiddens)):
            assert same_bits(got, want)
        g1, xg1 = mlp._backward_from_logits(m, one, seeds[s])
        assert same_bits(grads[s], g1) and same_bits(xg[s], xg1)
        # the cross-entropy read off the log-normalizers is `cross_entropy`, bit for bit
        losses, _ = mlp.cross_entropy_seed(tr[s], labels)
        assert same_bits(losses, mlp.cross_entropy(one.logits, labels))


def test_posterior_is_a_distribution():
    m = small_model(11, dims=(4, 6, 5))
    p = mlp.posterior(m, np.array([0.1, 0.2, -0.3, 1.0]))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)


def test_forward_input_validation():
    m = small_model()
    with pytest.raises(ValueError):
        mlp.forward(m, np.zeros(3))
    with pytest.raises(ValueError):
        mlp.forward(m, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        mlp.forward_batch(m, np.zeros((2, 5)))


def test_linear_model_no_hidden_layers():
    m = mlp.init_mlp((3, 2), RandomSource(2))
    x = np.array([1.0, -1.0, 0.5])
    tr = mlp.forward(m, x)
    assert tr.hiddens == ()
    assert np.allclose(tr.logits[0], m.weights[0] @ x + m.biases[0], atol=1e-15)


# ---------------------------------------------------------------- gradients

def test_ce_loss_value():
    m = small_model(13)
    x = np.array([0.4, 0.9])
    losses, grads, input_grads = mlp.backward_ce_batch(m, mlp.forward(m, x), [1])
    assert losses.shape == (1,)
    assert losses[0] == pytest.approx(-math.log(mlp.posterior(m, x)[1]), abs=1e-12)
    assert grads.shape == m.params.shape
    assert input_grads.shape == (1, 2)


@pytest.mark.parametrize("dims", [(2, 3), (2, 4, 3), (3, 5, 4, 2)])
def test_ce_grads_match_fd(dims):
    m = mlp.init_mlp(dims, RandomSource(17))
    x = RandomSource(18).generator().standard_normal(dims[0])
    label = 1

    def value(mm):
        return -np.log(mlp.posterior(mm, x)[..., label])

    _, grads, _ = mlp.backward_ce_batch(m, mlp.forward(m, x), [label])
    assert_grads_close(grads, fd_param_grads(value, m))


def test_ce_input_grad_matches_fd():
    m = small_model(19)
    x = np.array([0.2, -0.7])
    _, _, input_grads = mlp.backward_ce_batch(m, mlp.forward(m, x), [0])
    input_grad = input_grads[0]
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        want = (-math.log(mlp.posterior(m, x + e)[0]) + math.log(mlp.posterior(m, x - e)[0])) / (2 * h)
        assert input_grad[j] == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_ce_label_out_of_range():
    m = small_model()
    one_row = mlp.forward(m, np.zeros(2))
    two_rows = mlp.forward_batch(m, np.zeros((2, 2)))
    # label m, label -1 (would index the last class), one label for two rows (would broadcast),
    # and a float and a bool label, which numpy would refuse as an index
    for tr, labels in ((one_row, [m.n_classes]), (one_row, [-1]), (two_rows, [0]), (one_row, [1.7]),
                       (one_row, [True])):
        with pytest.raises(ValueError, match="labels must be"):
            mlp.backward_ce_batch(m, tr, labels)


def test_scalar_of_posterior_grads_match_fd():
    m = small_model(23, dims=(3, 4, 3))
    x = np.array([0.1, 0.5, -0.4])
    seed = np.array([0.3, -1.1, 0.7])

    def value(mm):
        return mlp.posterior(mm, x) @ seed

    grads, _ = mlp.backward_scalar_of_posterior_batch(m, mlp.forward(m, x), seed[None, :])
    assert_grads_close(grads, fd_param_grads(value, m))


def test_ce_batch_weights_zero_out_rows():
    m = small_model(29, dims=(2, 3, 2))
    X = np.array([[0.1, 0.2], [0.5, -0.5]])
    tr = mlp.forward_batch(m, X)
    _, g_first, _ = mlp.backward_ce_batch(m, tr, [0, 1], weights=np.array([1.0, 0.0]))
    tr1 = mlp.forward_batch(m, X[:1])
    _, g_only, _ = mlp.backward_ce_batch(m, tr1, [0])
    assert np.allclose(g_first, g_only, atol=1e-14)


# ---------------------------------------------------------------- jacobians

def test_jacobian_rows_sum_to_zero():
    m = small_model(31, dims=(3, 6, 4))
    jac = mlp.input_jacobian(m, np.array([0.3, -0.2, 0.8]))
    assert jac.shape == (4, 3)
    # posterior entries sum to 1, so column sums of the Jacobian vanish
    assert np.max(np.abs(jac.sum(axis=0))) < 1e-12


def test_jacobian_matches_fd():
    m = small_model(37, dims=(3, 5, 3))
    x = np.array([0.4, 0.1, -0.6])
    jac = mlp.input_jacobian(m, x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = (mlp.posterior(m, x + e) - mlp.posterior(m, x - e)) / (2 * h)
        assert np.allclose(jac[:, j], col, atol=1e-8)


def test_single_layer_jacobian_closed_form():
    # for logits z = Wx + b the Jacobian is (diag(p) - p p^T) W, exactly
    m = mlp.init_mlp((4, 3), RandomSource(41))
    x = RandomSource(42).generator().standard_normal(4)
    p = mlp.posterior(m, x)
    want = (np.diag(p) - np.outer(p, p)) @ m.weights[0]
    assert np.allclose(mlp.input_jacobian(m, x), want, atol=1e-12)


def test_jacobian_batch_matches_single():
    m = small_model(43, dims=(2, 4, 3))
    X = np.random.default_rng(5).standard_normal((4, 2))
    jb = mlp.input_jacobian_batch(m, mlp.forward_batch(m, X))
    for i in range(4):
        assert np.allclose(jb[i], mlp.input_jacobian(m, X[i]), atol=1e-14)


def test_jacobian_sq_norm_value_and_grads():
    m = small_model(47, dims=(3, 4, 2))
    x = np.array([0.2, -0.5, 0.9])
    tr = mlp.forward_batch(m, x[None, :])
    values, grads = mlp.jacobian_sq_norm_grads_batch(m, tr)
    jac = mlp.input_jacobian(m, x)
    assert values[0] == pytest.approx(float(np.sum(jac * jac)), abs=1e-12)

    assert_grads_close(grads, fd_param_grads(lambda mm: jacobian_sq_norm(mm, x), m))


def test_jacobian_sq_norm_deeper_model_grads():
    m = mlp.init_mlp((2, 4, 3, 2), RandomSource(53))
    x = np.array([0.7, -0.3])
    tr = mlp.forward_batch(m, x[None, :])
    _, grads = mlp.jacobian_sq_norm_grads_batch(m, tr)

    assert_grads_close(grads, fd_param_grads(lambda mm: jacobian_sq_norm(mm, x), m))


def per_class_jacobian_sq_norm_grads(model, tr):
    """(J, ||J||_F^2 per row, its summed parameter gradient), one class at a
    time: a VJP per class for row k of J, then a tangent pass along that row
    and a reverse pass over the combined graph for d <J_k, c_k> / d theta."""
    p = tr.posteriors
    b, m = p.shape
    jac = np.empty((b, m, model.n_inputs))
    for k in range(m):
        g = p * (np.eye(1, m, k) - p[:, k : k + 1])  # row k of the softmax Jacobian
        _, jac[:, k, :] = mlp._backward_from_logits(model, tr, g, want_param_grads=False)
    grads = np.zeros(model.params.size)
    wg, bg = mlp.unflatten(model.layer_dims, grads)
    for k in range(m):
        tangents, da = [], jac[:, k, :]  # (pre-activation, activation) tangent per hidden layer
        for w, a in zip(model.weights[:-1], tr.hiddens):
            dz = da @ w.T
            da = (1.0 - a * a) * dz
            tangents.append((dz, da))
        dz_top = da @ model.weights[-1].T
        u = np.sum(p * dz_top, axis=1, keepdims=True)
        ghat = np.zeros_like(p)
        ghat[:, k] = 1.0
        g_dz = p * ghat - np.sum(ghat * p, axis=1, keepdims=True) * p
        g_p = ghat * dz_top - u * ghat - np.sum(ghat * p, axis=1, keepdims=True) * dz_top
        g_z = mlp._softmax_vjp(p, g_p)
        for l in range(len(model.weights) - 1, -1, -1):
            a_prev = tr.hiddens[l - 1] if l > 0 else tr.inputs
            da_prev = tangents[l - 1][1] if l > 0 else jac[:, k, :]
            wg[l][...] += g_z.T @ a_prev + g_dz.T @ da_prev
            bg[l][...] += g_z.sum(axis=0)
            g_a = g_z @ model.weights[l]
            g_da = g_dz @ model.weights[l]
            if l > 0:
                sech2 = 1.0 - a_prev * a_prev
                g_dz = sech2 * g_da
                g_a = g_a - 2.0 * a_prev * tangents[l - 1][0] * g_da  # the tangent depends on a
                g_z = sech2 * g_a
    return jac, np.sum(jac * jac, axis=(1, 2)), 2.0 * grads


def max_rel_dev(got, want):
    """Largest entry deviation relative to the largest reference entry; a zero
    reference demands an exact zero."""
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), np.finfo(float).tiny)


JACOBIAN_SHAPES = [((4, 3), 5), ((3, 4, 1), 4), ((5, 8, 7, 3), 6), ((2, 3, 3, 3, 2), 7),
                   ((16, 128, 10), 1), ((16, 128, 10), 9), ((16, 128, 10), 32)]


@pytest.mark.parametrize("dims,rows", JACOBIAN_SHAPES,
                         ids=[f"{'x'.join(map(str, d))}-B{b}" for d, b in JACOBIAN_SHAPES])
def test_jacobian_sq_norm_matches_per_class_reference(dims, rows):
    m = mlp.init_mlp(dims, RandomSource(71))
    X = RandomSource(72).generator().standard_normal((rows, dims[0]))
    tr = mlp.forward_batch(m, X)
    want_jac, want_values, want_grads = per_class_jacobian_sq_norm_grads(m, tr)
    values, grads = mlp.jacobian_sq_norm_grads_batch(m, tr)
    assert values.shape == (rows,) and grads.shape == m.params.shape
    assert max_rel_dev(mlp.input_jacobian_batch(m, tr), want_jac) <= 1e-12
    assert max_rel_dev(values, want_values) <= 1e-12
    assert max_rel_dev(grads, want_grads) <= 1e-12


@pytest.mark.parametrize("dims", [(4, 3), (5, 8, 7, 3), (16, 128, 10)])
def test_jacobian_sq_norm_grads_sum_over_rows(dims):
    m = mlp.init_mlp(dims, RandomSource(73))
    X = RandomSource(74).generator().standard_normal((9, dims[0]))
    values, grads = mlp.jacobian_sq_norm_grads_batch(m, mlp.forward_batch(m, X))
    singles = [mlp.jacobian_sq_norm_grads_batch(m, mlp.forward_batch(m, x[None, :])) for x in X]
    assert max_rel_dev(values, np.concatenate([v for v, _ in singles])) <= 1e-13
    assert max_rel_dev(grads, np.sum([g for _, g in singles], axis=0)) <= 1e-13


# ---------------------------------------------------------------- updates and io

def test_apply_update():
    m = small_model(59)
    m2 = mlp.apply_update(m, np.ones(m.params.size), 0.5)
    for w2, w in zip(m2.weights, m.weights):
        assert np.allclose(w2, w - 0.5, atol=1e-15)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    m = small_model(61, dims=(3, 7, 4))
    path = tmp_path / "model.json"
    mlp.save_model(m, path)
    back = mlp.load_model(path)
    assert back.layer_dims == m.layer_dims
    for a, b in zip(back.weights, m.weights):
        assert np.array_equal(a, b)  # repr round trip must not lose bits
    for a, b in zip(back.biases, m.biases):
        assert np.array_equal(a, b)


def test_model_from_dict_rejects_bad_version():
    doc = mlp.model_to_dict(small_model())
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        mlp.model_from_dict(doc)


def test_model_from_dict_rejects_mismatched_shapes():
    doc = mlp.model_to_dict(small_model())
    doc["layer_dims"] = [2, 5, 3]
    with pytest.raises(ValueError):
        mlp.model_from_dict(doc)


def planted(key, *index, value):
    """A malform that sets doc[key][index...] to value, on a copy of doc."""
    def malform(doc):
        doc = json.loads(json.dumps(doc))
        entries = doc[key]
        for i in index[:-1]:
            entries = entries[i]
        entries[index[-1]] = value
        return doc
    return malform


@pytest.mark.parametrize("malform, fragment", [
    (lambda doc: [doc], "must be a JSON object"),
    (lambda doc: None, "must be a JSON object"),
    (lambda doc: {k: v for k, v in doc.items() if k != "layer_dims"}, "lacks layer_dims"),
    (lambda doc: {k: v for k, v in doc.items() if k != "weights"}, "lacks weights"),
    (lambda doc: {k: v for k, v in doc.items() if k != "biases"}, "lacks biases"),
    (lambda doc: {**doc, "layer_dims": 5}, "layer_dims must be a list, got int"),
    (lambda doc: {**doc, "weights": 3.0}, "weights must be a list, got float"),
    (lambda doc: {**doc, "layer_dims": [None, 2]}, "layer_dims must hold integers"),
    (lambda doc: {**doc, "layer_dims": [2.7, 2]}, "layer_dims must hold integers"),
    (planted("weights", 0, 0, 0, value=True), "weights must hold only numbers"),
    (planted("weights", 0, 0, 1, value="1.5"), "weights must hold only numbers"),
    (planted("biases", 0, 1, value="0"), "biases must hold only numbers"),
    (planted("weights", 0, 1, value=[0.0]), "layer 0 weights must be a rectangular array"),
    (planted("biases", 1, 0, value=[0.0, 1.0]), "layer 1 biases must be a rectangular array"),
], ids=["list", "null", "no-layer_dims", "no-weights", "no-biases", "int-layer_dims", "float-weights",
        "null-dim", "float-dim", "bool-weight", "str-weight", "str-bias", "ragged-weight", "ragged-bias"])
def test_model_from_dict_rejects_a_malformed_document(malform, fragment):
    with pytest.raises(ValueError, match=fragment):
        mlp.model_from_dict(malform(mlp.model_to_dict(small_model())))
