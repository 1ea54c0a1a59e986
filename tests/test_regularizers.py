import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab.divergences import GENERATORS, PROB_FLOOR, _divergence_rows, f_divergence, generator
from pdrlab.regularizers import (
    PerturbationConfig,
    RegularizerSpec,
    _ascent_step,
    _project,
    jr_penalty,
    l2_vs_kl_bound_check,
    penalty_batch,
    perturbation_draws,
    quadratic_penalty,
    rpt_penalty,
    rpt_penalty_batch,
    search_inputs,
    vat_penalty,
    vat_penalty_batch,
)
from pdrlab.properties import _fd_param_grads as fd_param_grads
from pdrlab.properties import _grad_rel_err
from pdrlab.tensor import RandomRows, RandomSource, gaussian_rows, gaussian_vec


def small_model(seed=1, dims=(3, 5, 3)):
    return mlp.init_mlp(dims, RandomSource(seed))


def assert_grads_close(grads, fd, tol=1e-4):
    assert grads.shape == fd.shape
    assert _grad_rel_err(grads, fd) < tol


def stacked_trace(model, X, spec, draws):
    """The trace of the batch's stacked first pass."""
    return mlp.forward_batch(model, search_inputs(X, spec, draws))


def frozen_divergence(model, x, eps, p_clean, kind):
    """Penalty value at perturbation eps with the clean branch held constant,
    one value per slice of a stacked model."""
    gen = GENERATORS[kind]
    q = mlp.posterior(model, np.asarray(x) + eps)
    ratio = np.maximum(q, PROB_FLOOR) / np.maximum(p_clean, PROB_FLOOR)
    return np.sum(p_clean * gen.g(ratio), axis=-1)


# ---------------------------------------------------------------- configuration

def test_perturbation_config_validation():
    PerturbationConfig(radius=0.1, ascent_steps=0)
    with pytest.raises(ValueError):
        PerturbationConfig(norm_kind="l1")
    with pytest.raises(ValueError):
        PerturbationConfig(radius=-0.1)
    with pytest.raises(ValueError):
        PerturbationConfig(ascent_steps=-1)
    with pytest.raises(ValueError):
        PerturbationConfig(samples_per_example=0)
    for field in ("radius", "step_size", "init_std"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PerturbationConfig(**{field: bad})


@pytest.mark.parametrize("bad", [2.5, True, "1"])
@pytest.mark.parametrize("field", ["samples_per_example", "ascent_steps"])
def test_perturbation_counts_must_be_integers(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer in"):
        PerturbationConfig(**{field: bad})


def test_regularizer_spec_validation():
    RegularizerSpec(kind="vat", generator_kind="jsd")
    with pytest.raises(ValueError):
        RegularizerSpec(kind="dropout")
    with pytest.raises(ValueError):
        RegularizerSpec(kind="rpt", generator_kind="nope")
    with pytest.raises(ValueError, match="finite"):
        RegularizerSpec(kind="rpt", alpha=np.nan)
    with pytest.raises(ValueError, match="nonnegative"):
        RegularizerSpec(kind="vat", alpha=-5.0)
    RegularizerSpec(kind="vat", alpha=0.0)


# ---------------------------------------------------------------- jacobian penalty

def test_jr_penalty_is_squared_frobenius_norm():
    m = small_model(3)
    x = np.array([0.4, -0.2, 0.7])
    res = jr_penalty(m, x)
    jac = mlp.input_jacobian(m, x)
    assert res.value == pytest.approx(float(np.sum(jac * jac)), abs=1e-12)
    assert res.adversarial_direction is None


def test_jr_penalty_grads_match_fd():
    m = small_model(5, dims=(2, 4, 2))
    x = np.array([0.3, 0.6])

    def value(mm):
        j = mlp.input_jacobian(mm, x)
        return np.sum(j * j, axis=(-2, -1))

    res = jr_penalty(m, x)
    assert_grads_close(res.param_grads, fd_param_grads(value, m))


# ---------------------------------------------------------------- random penalty

def test_rpt_vanishes_as_radius_shrinks():
    m = small_model(7)
    x = np.array([0.1, 0.5, -0.3])
    spec = RegularizerSpec(kind="rpt", perturbation=PerturbationConfig(radius=1e-9))
    assert rpt_penalty(m, x, spec, RandomSource(1)).value < 1e-12


def test_rpt_value_matches_manual_draw():
    m = small_model(11)
    x = np.array([0.2, -0.4, 0.9])
    spec = RegularizerSpec(kind="rpt", generator_kind="KL",
                           perturbation=PerturbationConfig(radius=0.2))
    rng = RandomSource(4).split(9)
    res = rpt_penalty(m, x, spec, rng)
    eps = gaussian_vec(rng.split(0), 3, 0.2)  # draw s=0, same stream discipline
    p = mlp.posterior(m, x)
    assert res.value == pytest.approx(frozen_divergence(m, x, eps, p, "KL"), abs=1e-12)
    assert res.value >= -1e-12


def test_rpt_multi_sample_is_the_mean():
    m = small_model(13)
    x = np.array([0.0, 0.3, -0.8])
    rng = RandomSource(6).split(2)
    p = mlp.posterior(m, x)
    singles = []
    for s in range(4):
        eps = gaussian_vec(rng.split(s), 3, 0.15)
        singles.append(frozen_divergence(m, x, eps, p, "JSD"))
    spec = RegularizerSpec(kind="rpt", generator_kind="JSD",
                           perturbation=PerturbationConfig(radius=0.15, samples_per_example=4))
    res = rpt_penalty(m, x, spec, rng)
    assert res.value == pytest.approx(np.mean(singles), abs=1e-12)


def test_rpt_is_deterministic():
    m = small_model(17)
    x = np.array([0.5, 0.5, 0.5])
    spec = RegularizerSpec(kind="rpt", perturbation=PerturbationConfig(radius=0.3))
    a = rpt_penalty(m, x, spec, RandomSource(8))
    b = rpt_penalty(m, x, spec, RandomSource(8))
    assert a.value == b.value
    assert np.array_equal(a.param_grads, b.param_grads)


def test_rpt_grads_match_fd_with_frozen_clean_branch():
    # default stop-gradient semantics: the clean posterior is a constant
    m = small_model(19, dims=(2, 4, 3))
    x = np.array([0.4, -0.6])
    rng = RandomSource(10)
    eps = gaussian_vec(rng.split(0), 2, 0.25)
    p_clean = mlp.posterior(m, x)
    spec = RegularizerSpec(kind="rpt", generator_kind="KL",
                           perturbation=PerturbationConfig(radius=0.25))
    res = rpt_penalty(m, x, spec, rng)
    fd = fd_param_grads(lambda mm: frozen_divergence(mm, x, eps, p_clean, "KL"), m)
    assert_grads_close(res.param_grads, fd)


def test_rpt_batch_values_ignore_batch_composition():
    m = small_model(29)
    X = RandomSource(14).generator().standard_normal((3, 3))
    spec = RegularizerSpec(kind="rpt", perturbation=PerturbationConfig(radius=0.2))
    rngs = [RandomSource(14).split(1, 0, i) for i in range(3)]
    draws = perturbation_draws("rpt", RandomRows.of(rngs), 3, spec.perturbation)
    full, _, _ = rpt_penalty_batch(m, stacked_trace(m, X, spec, draws), spec, draws)
    # same example with the same stream, different batch around it; the draw
    # is identical, only GEMM rounding differs between batch shapes
    solo_draws = perturbation_draws("rpt", RandomRows.of([rngs[1]]), 3, spec.perturbation)
    assert np.array_equal(solo_draws[:, 0], draws[:, 1])
    solo, _, _ = rpt_penalty_batch(m, stacked_trace(m, X[1:2], spec, solo_draws), spec, solo_draws)
    assert full[1] == pytest.approx(solo[0], abs=1e-12)


# ---------------------------------------------------------------- adversarial penalty

def test_vat_zero_steps_is_a_projected_draw():
    m = small_model(31)
    x = np.array([0.6, -0.1, 0.2])
    cfg = PerturbationConfig(radius=0.1, ascent_steps=0, init_std=1e-5)
    spec = RegularizerSpec(kind="vat", generator_kind="KL", perturbation=cfg)
    rng = RandomSource(16)
    res = vat_penalty(m, x, spec, rng)
    raw = gaussian_vec(rng.split(0), 3, 1e-5)
    want = 0.1 * raw / np.linalg.norm(raw)
    assert np.allclose(res.adversarial_direction, want, atol=1e-15)
    p = mlp.posterior(m, x)
    assert res.value == pytest.approx(frozen_divergence(m, x, want, p, "KL"), abs=1e-12)


def test_vat_direction_lands_on_the_sphere():
    m = small_model(37)
    x = np.array([0.3, 0.3, -0.9])
    spec = RegularizerSpec(kind="vat",
                           perturbation=PerturbationConfig(radius=0.25, ascent_steps=2, step_size=0.025))
    res = vat_penalty(m, x, spec, RandomSource(18))
    assert np.linalg.norm(res.adversarial_direction) == pytest.approx(0.25, abs=1e-12)


def test_vat_linf_projection_is_a_clip():
    m = small_model(41)
    x = np.array([0.1, 0.1, 0.1])
    spec = RegularizerSpec(kind="vat",
                           perturbation=PerturbationConfig(radius=0.05, norm_kind="linf",
                                                           ascent_steps=3, step_size=0.1))
    res = vat_penalty(m, x, spec, RandomSource(20))
    assert np.max(np.abs(res.adversarial_direction)) <= 0.05 + 1e-15


def test_vat_search_beats_its_own_starting_point():
    # K=1 at step eta = radius/10 rarely falls below the projected start
    m = small_model(43, dims=(2, 8, 2))
    x = np.array([0.4, 0.2])
    search = RegularizerSpec(kind="vat",
                             perturbation=PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01))
    start = RegularizerSpec(kind="vat",
                            perturbation=PerturbationConfig(radius=0.1, ascent_steps=0))
    wins = 0
    for trial in range(40):
        rng = RandomSource(100 + trial)
        found = vat_penalty(m, x, search, rng).value
        init = vat_penalty(m, x, start, rng).value
        wins += found >= init - 1e-12
    # the acceptance-grade rate over random instances lives in the vat suite;
    # this fixed instance is allowed a few losses
    assert wins >= 36


def test_vat_grads_match_fd_with_frozen_direction():
    m = small_model(47, dims=(2, 4, 3))
    x = np.array([0.8, -0.4])
    spec = RegularizerSpec(kind="vat", generator_kind="JSD",
                           perturbation=PerturbationConfig(radius=0.2, ascent_steps=1, step_size=0.02))
    res = vat_penalty(m, x, spec, RandomSource(22))
    eps = res.adversarial_direction
    p_clean = mlp.posterior(m, x)
    fd = fd_param_grads(lambda mm: frozen_divergence(mm, x, eps, p_clean, "JSD"), m)
    assert_grads_close(res.param_grads, fd)


def test_vat_batch_matches_single_example():
    m = small_model(53)
    X = RandomSource(24).generator().standard_normal((3, 3))
    spec = RegularizerSpec(kind="vat",
                           perturbation=PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01))
    rngs = [RandomSource(30 + i) for i in range(3)]
    draws = perturbation_draws("vat", RandomRows.of(rngs), 3, spec.perturbation)
    values, _, deltas, _ = vat_penalty_batch(m, stacked_trace(m, X, spec, draws), spec, draws)
    for i in range(3):
        single = vat_penalty(m, X[i], spec, rngs[i])
        assert values[i] == pytest.approx(single.value, abs=1e-12)
        assert np.allclose(deltas[i], single.adversarial_direction, atol=1e-12)


# ---------------------------------------------------------------- the shared search

def loop_rpt_penalty_batch(model, tr, spec, draws):
    """rpt with its own average loop over the (samples_per_example, B, n)
    draws, as written before the search was shared with the span head."""
    gen = generator(spec.generator_kind)
    cfg = spec.perturbation
    scale = 1.0 / cfg.samples_per_example
    acc = np.zeros(model.params.size)
    values = np.zeros(tr.inputs.shape[0])
    for s in range(cfg.samples_per_example):
        trn = mlp.forward_batch(model, tr.inputs + draws[s])
        vals, seed = _divergence_rows(gen, trn.posteriors, tr.posteriors)
        values += vals
        grads, _ = mlp.backward_scalar_of_posterior_batch(model, trn, seed)
        acc += scale * grads
    values /= cfg.samples_per_example
    return values, acc


def loop_vat_penalty_batch(model, tr, spec, draws):
    """vat with its own ascent loop from the (1, B, n) draws, which also took
    the parameter gradient at every ascent step, as written before the search
    was shared."""
    gen = generator(spec.generator_kind)
    cfg = spec.perturbation
    delta = draws[0]
    for _ in range(cfg.ascent_steps):
        trn = mlp.forward_batch(model, tr.inputs + delta)
        _, seed = _divergence_rows(gen, trn.posteriors, tr.posteriors)
        _, asc = mlp.backward_scalar_of_posterior_batch(model, trn, seed)
        delta = _ascent_step(delta, asc, cfg)
    delta = _project(delta, cfg)
    trn = mlp.forward_batch(model, tr.inputs + delta)
    values, seed = _divergence_rows(gen, trn.posteriors, tr.posteriors)
    grads, _ = mlp.backward_scalar_of_posterior_batch(model, trn, seed)
    return values, grads, delta


# The "-False" id suffix is kept from when this test also ran a through_clean=True half.
@pytest.mark.parametrize("samples", [1, 3], ids=lambda s: f"{s}-False")
@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("norm_kind", ["l2", "linf"])
@pytest.mark.parametrize("gen_kind", ["KL", "JSD"])
@pytest.mark.parametrize("kind", ["rpt", "vat"])
def test_shared_search_matches_the_loops_it_replaced(kind, gen_kind, norm_kind, steps, samples):
    m = small_model(67, dims=(3, 6, 4))
    X = RandomSource(68).generator().standard_normal((5, 3))
    tr = mlp.forward_batch(m, X)
    rows = RandomRows.of([RandomSource(69).split(i) for i in range(5)])
    cfg = PerturbationConfig(radius=0.3, norm_kind=norm_kind, ascent_steps=steps, step_size=0.05,
                             samples_per_example=samples)
    spec = RegularizerSpec(kind=kind, generator_kind=gen_kind, perturbation=cfg)
    draws = perturbation_draws(kind, rows, 3, cfg)
    # rpt draws samples_per_example streams of std radius, vat one start of std init_std
    want_draws = ([gaussian_rows(rows.split(s), 3, cfg.radius) for s in range(samples)] if kind == "rpt"
                  else [gaussian_rows(rows.split(0), 3, cfg.init_std)])
    assert np.array_equal(draws, np.stack(want_draws))
    stacked = stacked_trace(m, X, spec, draws)
    if kind == "rpt":
        got, want = rpt_penalty_batch(m, stacked, spec, draws), loop_rpt_penalty_batch(m, tr, spec, draws)
    else:
        got, want = vat_penalty_batch(m, stacked, spec, draws), loop_vat_penalty_batch(m, tr, spec, draws)
        assert np.array_equal(got[2], want[2])
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# ---------------------------------------------------------------- dispatch and bounds

def test_penalty_batch_dispatch():
    m = small_model(59)
    X = RandomSource(26).generator().standard_normal((2, 3))
    tr = mlp.forward_batch(m, X)
    rows = RandomRows.of([RandomSource(40 + i) for i in range(2)])
    draws = {kind: perturbation_draws(kind, rows, 3, PerturbationConfig(radius=0.1)) for kind in ("rpt", "vat")}
    _, seed = mlp.cross_entropy_seed(tr, np.array([0, 2]), np.array([1.0, 0.5]))
    want_clean, _ = mlp._backward_from_logits(m, tr, seed)
    for kind in ("jr", "rpt", "vat"):
        spec = RegularizerSpec(kind=kind, perturbation=PerturbationConfig(radius=0.1))
        stacked = stacked_trace(m, X, spec, draws.get(kind))
        values, grads, clean_grads = penalty_batch(m, stacked, spec, draws.get(kind), seed)
        assert values.shape == (2,)
        assert grads.shape == m.params.shape
        # the clean seed rides along in the penalty's backward, with its own call's bytes
        assert np.array_equal(clean_grads, want_clean)
        assert not penalty_batch(m, stacked, spec, draws.get(kind))[2].any()
    # jr draws nothing, so it needs no draws
    stacked = stacked_trace(m, X, RegularizerSpec(kind="jr"), None)
    values, _, _ = penalty_batch(m, stacked, RegularizerSpec(kind="jr"), None)
    assert np.array_equal(values, penalty_batch(m, stacked, RegularizerSpec(kind="jr"), draws["rpt"])[0])
    with pytest.raises(ValueError):
        penalty_batch(m, stacked, RegularizerSpec(kind="none"), draws["rpt"])
    with pytest.raises(ValueError, match="needs the .1 \\+ D, B, n. trace of search_inputs"):
        penalty_batch(m, tr, RegularizerSpec(kind="rpt"), draws["rpt"])
    for kind in ("none", "jr"):
        with pytest.raises(ValueError, match=f"no perturbation draws for kind '{kind}'"):
            perturbation_draws(kind, rows, 3, PerturbationConfig())


@pytest.mark.parametrize("fn, own, kind", [
    (fn, own, kind)
    for fn, own in ((rpt_penalty, "rpt"), (vat_penalty, "vat"), (rpt_penalty_batch, "rpt"), (vat_penalty_batch, "vat"))
    for kind in ("none", "jr", "rpt", "vat") if kind != own
], ids=lambda v: getattr(v, "__name__", v))
def test_penalty_rejects_a_spec_of_another_kind(fn, own, kind):
    m = small_model(59)
    x = RandomSource(26).generator().standard_normal(3)
    if fn in (rpt_penalty, vat_penalty):
        args = (x, RandomSource(40))
    else:
        args = (mlp.forward(m, x), perturbation_draws(own, RandomRows.of([RandomSource(40)]), 3, PerturbationConfig()))
    with pytest.raises(ValueError, match=f"needs a spec of kind '{own}', got '{kind}'"):
        fn(m, args[0], RegularizerSpec(kind), args[1])


@pytest.mark.parametrize("fn, args", [
    (jr_penalty, ()),
    (rpt_penalty, (RegularizerSpec("rpt"), RandomSource(40))),
    (vat_penalty, (RegularizerSpec("vat"), RandomSource(40))),
    (l2_vs_kl_bound_check, (0.1, 5, RandomSource(28))),
], ids=["jr_penalty", "rpt_penalty", "vat_penalty", "l2_vs_kl_bound_check"])
def test_one_example_functions_reject_a_parameter_stack(fn, args):
    # each would otherwise fail inside numpy, with a message that names no stack
    models = [small_model(s) for s in (1, 2)]
    stack = mlp.MlpModel(models[0].layer_dims, np.stack([m.params for m in models]))
    with pytest.raises(ValueError, match=f"^{fn.__name__} takes one model, not a parameter stack of 2$"):
        fn(stack, np.array([0.2, 0.4, -0.1]), *args)


@pytest.mark.parametrize("eps", [np.ones(2), np.ones(4), np.ones((1, 3)), np.array([0.3, np.nan, -0.2]),
                                 np.array([0.3, np.inf, -0.2])], ids=["short", "long", "row", "nan", "inf"])
def test_quadratic_penalty_rejects_bad_eps(eps):
    m = small_model(61)
    with pytest.raises(ValueError, match=r"^eps must hold finite entries in shape \(3,\)"):
        quadratic_penalty(m, np.array([0.5, -0.5, 0.1]), generator("SHL"), eps)


def test_quadratic_penalty_closed_form():
    m = small_model(61)
    x = np.array([0.5, -0.5, 0.1])
    eps = np.array([0.3, 0.1, -0.2])
    gen = generator("SHL")
    jac = mlp.input_jacobian(m, x)
    f = np.maximum(mlp.posterior(m, x), PROB_FLOOR)
    want = 0.5 * 0.5 * float((jac @ eps) @ ((jac @ eps) / f))
    assert quadratic_penalty(m, x, gen, eps) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("dims", [(3, 3), (3, 5, 3), (4, 6, 5, 3), (2, 8, 8, 2)])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_quadratic_penalty_matches_assembled_jacobian(dims, kind):
    m = small_model(63, dims=dims)
    x = gaussian_vec(RandomSource(64), dims[0])
    eps = gaussian_vec(RandomSource(65), dims[0])
    gen = GENERATORS[kind]
    jeps = mlp.input_jacobian(m, x) @ eps
    f = np.maximum(mlp.posterior(m, x), PROB_FLOOR)
    want = 0.5 * gen.curvature_at_one * float(np.sum(jeps * jeps / f))
    assert want > 0
    assert quadratic_penalty(m, x, gen, eps) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["KL", "RKL", "SHL", "JSD"])
def test_divergence_approaches_quadratic_at_small_radius(kind):
    m = small_model(67, dims=(2, 5, 3))
    x = np.array([0.3, -0.7])
    eps = np.array([0.8, 0.6])
    gen = GENERATORS[kind]
    q = quadratic_penalty(m, x, gen, eps)
    t = 1e-4
    d = f_divergence(gen, mlp.posterior(m, x + t * eps), mlp.posterior(m, x))
    assert d / t**2 == pytest.approx(q, rel=1e-3, abs=1e-9)


def test_bound_check_gaps_are_nonnegative():
    m = small_model(71, dims=(3, 6, 3))
    x = np.array([0.2, 0.4, -0.1])
    # one minimum over every link of both chains; a NaN in any link fails the comparison
    assert l2_vs_kl_bound_check(m, x, radius=0.1, trials=50, rng=RandomSource(28)) >= -1e-10


@pytest.mark.parametrize("trials", [0, -1, 2.5])
def test_bound_check_rejects_a_bad_trial_count(trials):
    # no draw would leave the Frobenius-spectral link alone; 2.5 draws are not a count
    with pytest.raises(ValueError, match=r"^trials must be an integer in \[1, inf\)"):
        l2_vs_kl_bound_check(small_model(71), np.array([0.2, 0.4, -0.1]), 0.1, trials, RandomSource(28))
