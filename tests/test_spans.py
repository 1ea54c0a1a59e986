import math

import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab.divergences import GENERATORS, PROB_FLOOR, _divergence_rows, generator
from pdrlab.regularizers import PerturbationConfig, RegularizerSpec, _ascent_step, _project, quadratic_penalty
from pdrlab.properties import _fd_param_grads as fd_span_grads
from pdrlab.properties import _grad_rel_err
from pdrlab.spans import (
    SpanModel,
    _scores_backward,
    apply_span_update,
    init_span_model,
    joint_span_table,
    span_distributions,
    span_forward,
    span_loss,
    span_penalty,
    span_quadratic_penalty,
)
from pdrlab.tensor import RandomSource, gaussian_vec


def small_span_model(seed=1, dims=(3, 5, 4)):
    return init_span_model(dims, RandomSource(seed))


def random_features(seed, t=6, n_feat=3):
    return RandomSource(seed).generator().standard_normal((t, n_feat))


def frozen_pair_divergence(model, features, eps, pb0, pe0, kind):
    """Summed begin+end divergence at features+eps against frozen clean probs,
    one value per slice of a stacked model."""
    gen = GENERATORS[kind]
    probs = span_distributions(model, np.asarray(features) + eps)
    total = 0.0
    for noisy, clean in ((probs[..., 0, :], pb0), (probs[..., 1, :], pe0)):
        ratio = np.maximum(noisy, PROB_FLOOR) / np.maximum(clean, PROB_FLOOR)
        total = total + np.sum(clean * gen.g(ratio), axis=-1)
    return total


def replayed_draw(rng, shape, std):
    """A span penalty's draw for stream rng: one flat gaussian_vec row."""
    return gaussian_vec(rng, int(np.prod(shape)), std).reshape(shape)


def assert_span_grads_close(grads, fd, tol=1e-4):
    assert grads.shape == fd.shape
    assert _grad_rel_err(grads, fd) < tol


# ---------------------------------------------------------------- forward shape

@pytest.mark.parametrize("n_stack", [1, 5])
def test_a_stacked_span_model_is_its_slices(n_stack):
    models = [small_span_model(60 + s) for s in range(n_stack)]
    stack = SpanModel(models[0].enc_dims, np.stack([m.params for m in models]))
    assert stack.scorers.shape == (n_stack, 2, 4)
    f = random_features(61, t=5)
    tr = span_forward(stack, f)
    assert tr.scores.shape == tr.probs.shape == (n_stack, 2, 5)
    for s, m in enumerate(models):
        one = span_forward(m, f)
        for got, want in ((tr.encodings[s], one.encodings), (tr.scores[s], one.scores),
                          (tr.probs[s], one.probs), *zip((h[s] for h in tr.hiddens), one.hiddens)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_init_is_deterministic():
    a = small_span_model(4)
    b = small_span_model(4)
    assert np.array_equal(a.scorers[0], b.scorers[0])
    assert np.array_equal(a.params, b.params)


def test_params_are_encoder_then_scorers():
    m = small_span_model(3, dims=(3, 5, 4))
    n_enc = mlp.n_params(m.enc_dims)
    assert np.array_equal(m.params[:n_enc], mlp.init_mlp(m.enc_dims, RandomSource(3).split(0)).params)
    assert np.array_equal(m.params[n_enc:], m.scorers.ravel())
    with pytest.raises(ValueError):
        m.scorers[1, 0] = 1.0
    with pytest.raises(ValueError):
        SpanModel(m.enc_dims, m.params[:-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["w_begin", "w_end", "encoder"])
def test_non_finite_parameters_are_rejected_at_construction(bad, where):
    m = small_span_model(3)
    n_enc, d = mlp.n_params(m.enc_dims), m.scorers.shape[1]
    params = m.params.copy()
    params[{"encoder": 0, "w_begin": n_enc, "w_end": n_enc + 2 * d - 1}[where]] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SpanModel(m.enc_dims, params)


def test_distributions_are_simplexes():
    m = small_span_model(2)
    pb, pe = span_distributions(m, random_features(3, t=7))
    for p in (pb, pe):
        assert p.shape == (7,)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)


def test_joint_table_is_outer_product_and_normalizes():
    m = small_span_model(5)
    f = random_features(6, t=5)
    table = joint_span_table(m, f)
    pb, pe = span_distributions(m, f)
    assert table.shape == (5, 5)
    assert np.allclose(table, np.outer(pb, pe), atol=1e-15)
    assert abs(table.sum() - 1.0) <= 1e-12


def test_position_permutation_permutes_probs():
    m = small_span_model(7)
    f = random_features(8, t=6)
    perm = np.array([3, 0, 5, 1, 4, 2])
    pb, pe = span_distributions(m, f)
    pb2, pe2 = span_distributions(m, f[perm])
    assert np.allclose(pb2, pb[perm], atol=1e-12)
    assert np.allclose(pe2, pe[perm], atol=1e-12)


def test_feature_validation():
    m = small_span_model()
    with pytest.raises(ValueError):
        span_forward(m, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        span_forward(m, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        span_forward(m, np.full((3, 3), np.nan))


# ---------------------------------------------------------------- span loss

def test_zero_scorers_give_uniform_loss():
    m = small_span_model(9)
    m = m.with_params(np.concatenate([m.params[: mlp.n_params(m.enc_dims)], np.zeros(m.scorers.size)]))
    t = 6
    loss, _ = span_loss(m, random_features(10, t=t), 2, 4)
    assert loss == pytest.approx(2.0 * math.log(t), abs=1e-12)


def test_span_loss_is_negative_log_probability():
    m = small_span_model(11)
    f = random_features(12, t=5)
    pb, pe = span_distributions(m, f)
    loss, _ = span_loss(m, f, 1, 3)
    assert loss == pytest.approx(-math.log(pb[1]) - math.log(pe[3]), abs=1e-12)


def test_span_loss_rejects_out_of_range():
    m = small_span_model()
    f = random_features(13, t=4)
    # out of range, then indices that int() would truncate or convert to a position
    for start, end in ((4, 0), (0, -1), (1.7, 2), ("1", 2), (True, 2), (0, 2.5)):
        with pytest.raises(ValueError, match="span (start|end) must be an integer"):
            span_loss(m, f, start, end)


def test_span_loss_grads_match_fd():
    m = small_span_model(15, dims=(2, 4, 3))
    f = random_features(16, t=4, n_feat=2)
    _, grads = span_loss(m, f, 0, 2)
    fd = fd_span_grads(lambda mm: mlp.cross_entropy(span_forward(mm, f).scores, [0, 2]).sum(axis=-1), m)
    assert_span_grads_close(grads, fd)


@pytest.mark.parametrize("call", [
    lambda span, f: quadratic_penalty(mlp.MlpModel(span.enc_dims, span.params[..., : mlp.n_params(span.enc_dims)]),
                                      f[0], GENERATORS["KL"], np.ones(f.shape[1])),
    lambda span, f: span_quadratic_penalty(span, f, GENERATORS["KL"], np.ones(f.size)),
    lambda span, f: joint_span_table(span, f),
    lambda span, f: span_loss(span, f, 1, 2),
    lambda span, f: span_penalty(span, f, RegularizerSpec("rpt"), RandomSource(4)),
], ids=["quadratic_penalty", "span_quadratic_penalty", "joint_span_table", "span_loss", "span_penalty"])
def test_one_model_functions_reject_a_parameter_stack(call):
    # each would otherwise sum a stack's slices into one number or one table,
    # or fail inside numpy with a message that names no stack
    models = [small_span_model(s) for s in (1, 2)]
    stack = SpanModel(models[0].enc_dims, np.stack([m.params for m in models]))
    with pytest.raises(ValueError, match="takes one model, not a parameter stack of 2"):
        call(stack, random_features(3, t=4))


def test_loss_step_decreases_loss():
    m = small_span_model(17)
    f = random_features(18, t=5)
    loss0, grads = span_loss(m, f, 2, 2)
    m2 = apply_span_update(m, grads, 0.05)
    loss1, _ = span_loss(m2, f, 2, 2)
    assert loss1 < loss0


# ---------------------------------------------------------------- span penalties

def test_rpt_penalty_matches_manual_draw():
    m = small_span_model(19)
    f = random_features(20, t=4)
    pb0, pe0 = span_distributions(m, f)
    for samples in (1, 3):  # the penalty is the mean over draws replayed from rng.split(s)
        spec = RegularizerSpec(kind="rpt", generator_kind="KL",
                               perturbation=PerturbationConfig(radius=0.1, samples_per_example=samples))
        rng = RandomSource(21)
        res = span_penalty(m, f, spec, rng)
        want = np.mean([frozen_pair_divergence(m, f, replayed_draw(rng.split(s), f.shape, 0.1), pb0, pe0, "KL")
                        for s in range(samples)])
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.value >= -1e-12


def test_vat_penalty_direction_has_flat_l2_radius():
    m = small_span_model(23)
    f = random_features(24, t=5)
    for norm_kind, step_size in (("l2", 0.02), ("linf", 0.5)):
        spec = RegularizerSpec(kind="vat", perturbation=PerturbationConfig(
            radius=0.2, norm_kind=norm_kind, ascent_steps=2, step_size=step_size))
        res = span_penalty(m, f, spec, RandomSource(25))
        assert res.adversarial_direction.shape == f.shape
        if norm_kind == "l2":
            assert np.sqrt(np.sum(res.adversarial_direction ** 2)) == pytest.approx(0.2, abs=1e-12)
        else:  # the projection is a clip, so some entries sit on the bound and none beyond
            assert np.max(np.abs(res.adversarial_direction)) == 0.2


def test_vat_zero_steps_is_projected_draw():
    m = small_span_model(27)
    f = random_features(28, t=4)
    cfg = PerturbationConfig(radius=0.15, ascent_steps=0, init_std=1e-5)
    spec = RegularizerSpec(kind="vat", perturbation=cfg)
    rng = RandomSource(29)
    res = span_penalty(m, f, spec, rng)
    raw = replayed_draw(rng.split(0), f.shape, 1e-5)
    want = 0.15 * raw / np.sqrt(np.sum(raw * raw))
    assert np.allclose(res.adversarial_direction, want, atol=1e-15)


def loop_span_penalty(model, features, spec, rng):
    """The span penalty with its own draw and ascent loops, as written before
    it shared the classifier penalties' search."""
    gen = generator(spec.generator_kind)
    cfg = spec.perturbation
    tr = span_forward(model, features)
    shape = tr.inputs.shape

    def divergence_grads(delta, want_param_grads=True):
        trn = span_forward(model, tr.inputs + delta)
        values, seed = _divergence_rows(gen, trn.probs, tr.probs)
        grads, fg = _scores_backward(model, trn, mlp._softmax_vjp(trn.probs, seed), want_param_grads)
        return float(values.sum()), grads, fg

    if spec.kind == "rpt":
        scale = 1.0 / cfg.samples_per_example
        value, acc = 0.0, np.zeros(model.params.size)
        for s in range(cfg.samples_per_example):
            eps = gaussian_vec(rng.split(s), tr.inputs.size, cfg.radius).reshape(shape)
            v, grads, _ = divergence_grads(eps)
            value += v
            acc += scale * grads
        return value / cfg.samples_per_example, acc, None
    delta = gaussian_vec(rng.split(0), tr.inputs.size, cfg.init_std)
    for _ in range(cfg.ascent_steps):
        _, _, asc = divergence_grads(delta.reshape(shape), want_param_grads=False)
        delta = _ascent_step(delta, asc.reshape(-1), cfg)
    delta = _project(delta, cfg).reshape(shape)
    value, grads, _ = divergence_grads(delta)
    return value, grads, delta


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("norm_kind", ["l2", "linf"])
@pytest.mark.parametrize("gen_kind", ["KL", "JSD"])
@pytest.mark.parametrize("kind", ["rpt", "vat"])
def test_shared_search_matches_the_span_loops_it_replaced(kind, gen_kind, norm_kind, steps, samples):
    m = small_span_model(31)
    f = random_features(32, t=5)
    cfg = PerturbationConfig(radius=0.3, norm_kind=norm_kind, ascent_steps=steps, step_size=0.05,
                             samples_per_example=samples)
    spec = RegularizerSpec(kind=kind, generator_kind=gen_kind, perturbation=cfg)
    res = span_penalty(m, f, spec, RandomSource(33))
    value, grads, delta = loop_span_penalty(m, f, spec, RandomSource(33))
    assert res.value == value
    assert np.array_equal(res.param_grads, grads)
    if kind == "vat":
        assert np.array_equal(res.adversarial_direction, delta)
    else:
        assert res.adversarial_direction is None


def test_jr_kind_is_rejected_for_spans():
    m = small_span_model()
    with pytest.raises(ValueError):
        span_penalty(m, random_features(1), RegularizerSpec(kind="jr"), RandomSource(1))
    with pytest.raises(ValueError):
        span_penalty(m, random_features(1), RegularizerSpec(kind="none"), RandomSource(1))


@pytest.mark.parametrize("kind", ["rpt", "vat"])
def test_span_penalty_grads_match_fd(kind):
    m = small_span_model(31, dims=(2, 4, 3))
    f = random_features(32, t=4, n_feat=2)
    spec = RegularizerSpec(kind=kind, generator_kind="JSD",
                           perturbation=PerturbationConfig(radius=0.2, ascent_steps=1, step_size=0.02))
    res = span_penalty(m, f, spec, RandomSource(33))
    if kind == "vat":
        eps = res.adversarial_direction
    else:
        eps = replayed_draw(RandomSource(33).split(0), f.shape, 0.2)
    pb0, pe0 = span_distributions(m, f)
    fd = fd_span_grads(lambda mm: frozen_pair_divergence(mm, f, eps, pb0, pe0, "JSD"), m)
    assert_span_grads_close(res.param_grads, fd)


def test_quadratic_penalty_matches_divergence_at_small_radius():
    m = small_span_model(35, dims=(2, 4, 3))
    f = random_features(36, t=4, n_feat=2)
    eps = RandomSource(37).generator().standard_normal(f.shape)
    eps /= np.sqrt(np.sum(eps * eps))
    gen = generator("KL")
    q = span_quadratic_penalty(m, f, gen, eps)
    pb0, pe0 = span_distributions(m, f)
    t = 1e-4
    d = frozen_pair_divergence(m, f, t * eps, pb0, pe0, "KL")
    assert d / t**2 == pytest.approx(q, rel=1e-3, abs=1e-9)


@pytest.mark.parametrize("eps", [np.ones(5), np.ones((3, 4)), np.r_[np.nan, np.ones(11)].reshape(4, 3),
                                 np.r_[np.inf, np.ones(11)]], ids=["wrong_size", "transposed", "nan", "inf"])
def test_span_quadratic_penalty_rejects_bad_eps(eps):
    # (4, 3) features take a (4, 3) or flat (12,) eps; a (3, 4) one was reshaped and scored
    m = small_span_model(38)
    with pytest.raises(ValueError, match=r"^eps must hold finite entries in shape \(4, 3\) or \(12,\)"):
        span_quadratic_penalty(m, random_features(39, t=4), GENERATORS["KL"], eps)


def vjp_quadratic_penalty(model, features, gen, eps):
    """The quadratic form from rows of J_b and J_e, each one reverse pass."""
    tr = span_forward(model, features)
    t = tr.inputs.shape[0]
    eps_flat = np.asarray(eps, dtype=np.float64).reshape(-1)
    total = 0.0
    for k, probs in enumerate(tr.probs):
        jeps = np.empty(t)
        for i in range(t):
            seed = np.zeros(t)
            seed[i] = 1.0
            g_scores = np.zeros((2, t))
            g_scores[k] = mlp._softmax_vjp(probs, seed)
            _, fg = _scores_backward(model, tr, g_scores, want_param_grads=False)
            jeps[i] = fg.reshape(-1) @ eps_flat
        total += np.sum(jeps * jeps / np.maximum(probs, PROB_FLOOR))
    return float(0.5 * gen.curvature_at_one * total)


@pytest.mark.parametrize("dims", [(3, 4), (3, 5, 4), (2, 4, 3, 3)])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_quadratic_penalty_matches_vjp_assembled_jacobian(dims, kind):
    m = small_span_model(41, dims=dims)
    f = random_features(42, t=5, n_feat=dims[0])
    eps = random_features(43, t=5, n_feat=dims[0])
    gen = GENERATORS[kind]
    want = vjp_quadratic_penalty(m, f, gen, eps)
    assert want > 0
    assert span_quadratic_penalty(m, f, gen, eps) == pytest.approx(want, rel=1e-12, abs=0)


def test_apply_span_update_moves_parameters():
    m = small_span_model(39)
    _, grads = span_loss(m, random_features(40, t=4), 0, 1)
    m2 = apply_span_update(m, grads, 0.1)
    assert not np.array_equal(m2.scorers[0], m.scorers[0])
    assert np.allclose(m2.params, m.params - 0.1 * grads, atol=1e-15)
