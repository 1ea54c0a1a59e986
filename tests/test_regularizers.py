import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab.divergences import GENERATORS, PROB_FLOOR, f_divergence, generator
from pdrlab.regularizers import (
    PerturbationConfig,
    RegularizerSpec,
    jr_penalty,
    l2_vs_kl_bound_check,
    penalty_batch,
    quadratic_penalty,
    rpt_penalty,
    rpt_penalty_batch,
    vat_penalty,
    vat_penalty_batch,
)
from pdrlab.tensor import RandomRows, RandomSource, gaussian_vec


def small_model(seed=1, dims=(3, 5, 3)):
    return mlp.init_mlp(dims, RandomSource(seed))


def fd_param_grads(value_fn, model, h=1e-5):
    wg = [np.zeros_like(w) for w in model.weights]
    bg = [np.zeros_like(b) for b in model.biases]

    def shifted(l, idx, delta, bias):
        ws = [w.copy() for w in model.weights]
        bs = [b.copy() for b in model.biases]
        (bs if bias else ws)[l][idx] += delta
        return mlp.MlpModel(model.layer_dims, tuple(ws), tuple(bs))

    for l, w in enumerate(model.weights):
        for idx in np.ndindex(w.shape):
            wg[l][idx] = (value_fn(shifted(l, idx, h, False)) - value_fn(shifted(l, idx, -h, False))) / (2 * h)
    for l, b in enumerate(model.biases):
        for idx in np.ndindex(b.shape):
            bg[l][idx] = (value_fn(shifted(l, idx, h, True)) - value_fn(shifted(l, idx, -h, True))) / (2 * h)
    return wg, bg


def assert_grads_close(bundle, fd_w, fd_b, tol=1e-4):
    scale = max(1e-8, max(np.max(np.abs(g)) for g in list(fd_w) + list(fd_b)))
    for got, want in zip(bundle.weight_grads, fd_w):
        assert np.max(np.abs(got - want)) / scale < tol
    for got, want in zip(bundle.bias_grads, fd_b):
        assert np.max(np.abs(got - want)) / scale < tol


def frozen_divergence(model, x, eps, p_clean, kind):
    """Penalty value at perturbation eps with the clean branch held constant."""
    gen = GENERATORS[kind]
    q = mlp.posterior(model, np.asarray(x) + eps)
    ratio = np.maximum(q, PROB_FLOOR) / np.maximum(p_clean, PROB_FLOOR)
    return float(np.sum(p_clean * gen.g(ratio)))


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


def test_regularizer_spec_validation():
    RegularizerSpec(kind="vat", generator_kind="jsd")
    with pytest.raises(ValueError):
        RegularizerSpec(kind="dropout")
    with pytest.raises(ValueError):
        RegularizerSpec(kind="rpt", generator_kind="nope")


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
        return float(np.sum(j * j))

    res = jr_penalty(m, x)
    fd_w, fd_b = fd_param_grads(value, m)
    assert_grads_close(res.param_grads, fd_w, fd_b)


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
    for ga, gb in zip(a.param_grads.weight_grads, b.param_grads.weight_grads):
        assert np.array_equal(ga, gb)


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
    fd_w, fd_b = fd_param_grads(lambda mm: frozen_divergence(mm, x, eps, p_clean, "KL"), m)
    assert_grads_close(res.param_grads, fd_w, fd_b)


def test_rpt_through_clean_grads_match_fd():
    m = small_model(23, dims=(2, 4, 3))
    x = np.array([-0.2, 0.7])
    rng = RandomSource(12)
    eps = gaussian_vec(rng.split(0), 2, 0.25)
    spec = RegularizerSpec(kind="rpt", generator_kind="SHL", through_clean=True,
                           perturbation=PerturbationConfig(radius=0.25))
    res = rpt_penalty(m, x, spec, rng)

    def value(mm):
        gen = GENERATORS["SHL"]
        return f_divergence(gen, mlp.posterior(mm, x + eps), mlp.posterior(mm, x))

    fd_w, fd_b = fd_param_grads(value, m)
    assert_grads_close(res.param_grads, fd_w, fd_b)


def test_rpt_batch_values_ignore_batch_composition():
    m = small_model(29)
    X = RandomSource(14).generator().standard_normal((3, 3))
    spec = RegularizerSpec(kind="rpt", perturbation=PerturbationConfig(radius=0.2))
    rngs = [RandomSource(14).split(1, 0, i) for i in range(3)]
    full, _ = rpt_penalty_batch(m, mlp.forward_batch(m, X), spec, RandomRows.of(rngs))
    # same example with the same stream, different batch around it; the draw
    # is identical, only GEMM rounding differs between batch shapes
    solo, _ = rpt_penalty_batch(m, mlp.forward_batch(m, X[1:2]), spec, RandomRows.of([rngs[1]]))
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
    fd_w, fd_b = fd_param_grads(lambda mm: frozen_divergence(mm, x, eps, p_clean, "JSD"), m)
    assert_grads_close(res.param_grads, fd_w, fd_b)


def test_vat_batch_matches_single_example():
    m = small_model(53)
    X = RandomSource(24).generator().standard_normal((3, 3))
    spec = RegularizerSpec(kind="vat",
                           perturbation=PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01))
    rngs = [RandomSource(30 + i) for i in range(3)]
    values, _, deltas = vat_penalty_batch(m, mlp.forward_batch(m, X), spec, RandomRows.of(rngs))
    for i in range(3):
        single = vat_penalty(m, X[i], spec, rngs[i])
        assert values[i] == pytest.approx(single.value, abs=1e-12)
        assert np.allclose(deltas[i], single.adversarial_direction, atol=1e-12)


# ---------------------------------------------------------------- dispatch and bounds

def test_penalty_batch_dispatch():
    m = small_model(59)
    X = RandomSource(26).generator().standard_normal((2, 3))
    tr = mlp.forward_batch(m, X)
    rngs = RandomRows.of([RandomSource(40 + i) for i in range(2)])
    for kind in ("jr", "rpt", "vat"):
        spec = RegularizerSpec(kind=kind, perturbation=PerturbationConfig(radius=0.1))
        values, grads = penalty_batch(m, tr, spec, rngs)
        assert values.shape == (2,)
        assert len(grads.weight_grads) == len(m.weights)
    with pytest.raises(ValueError):
        penalty_batch(m, tr, RegularizerSpec(kind="none"), rngs)


def test_quadratic_penalty_closed_form():
    m = small_model(61)
    x = np.array([0.5, -0.5, 0.1])
    eps = np.array([0.3, 0.1, -0.2])
    gen = generator("SHL")
    jac = mlp.input_jacobian(m, x)
    f = np.maximum(mlp.posterior(m, x), PROB_FLOOR)
    want = 0.5 * 0.5 * float((jac @ eps) @ ((jac @ eps) / f))
    assert quadratic_penalty(m, x, gen, eps) == pytest.approx(want, abs=1e-14)


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
    chk = l2_vs_kl_bound_check(m, x, radius=0.1, trials=50, rng=RandomSource(28))
    assert chk.worst_gap >= -1e-10
    assert chk.min_kl_l1_gap >= -1e-10
    assert chk.min_l1_l2_gap >= -1e-10
    assert chk.min_spectral_gap >= -1e-10
    assert chk.min_frobenius_gap >= -1e-10
