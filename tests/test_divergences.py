import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrlab.divergences import (
    GENERATOR_KINDS,
    GENERATORS,
    JENSEN_SHANNON,
    KL,
    REVERSE_KL,
    SQUARED_HELLINGER,
    f_divergence,
    f_divergence_grad_wrt_phat,
    generator,
    kl_divergence,
    l1_distance,
    l2_distance,
    pinsker_gap,
)

P_HALF = np.array([0.5, 0.5])
P_QUARTER = np.array([0.25, 0.75])


def interior_pairs(draw_seed, n=200, m=3):
    """Strictly interior simplex pairs, safely above the probability floor."""
    rng = np.random.default_rng(draw_seed)
    a = rng.random((n, m)) + 1e-3
    b = rng.random((n, m)) + 1e-3
    return a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- frozen oracles

def test_kl_value_frozen():
    # 0.25*g(2) + 0.75*g(2/3) with g(t) = t ln t, equal to 0.5*ln(4/3)
    assert f_divergence(KL, P_HALF, P_QUARTER) == pytest.approx(0.143841036225890, abs=1e-12)
    assert f_divergence(KL, P_HALF, P_QUARTER) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)


def test_kl_value_swapped_frozen():
    # 0.75*ln 3 - ln 2
    assert f_divergence(KL, P_QUARTER, P_HALF) == pytest.approx(0.130812035941137, abs=1e-12)
    assert f_divergence(KL, P_QUARTER, P_HALF) == pytest.approx(0.75 * math.log(3.0) - math.log(2.0), abs=1e-15)


def test_shl_value_frozen():
    # 2 - 2*(sqrt(1/8) + sqrt(3/8))
    want = 2.0 - 2.0 * (math.sqrt(0.125) + math.sqrt(0.375))
    assert f_divergence(SQUARED_HELLINGER, P_HALF, P_QUARTER) == pytest.approx(want, abs=1e-15)
    assert f_divergence(SQUARED_HELLINGER, P_HALF, P_QUARTER) == pytest.approx(0.0681483474219, abs=1e-12)


def test_kl_grad_frozen():
    g = f_divergence_grad_wrt_phat(KL, P_HALF, P_QUARTER)
    assert np.allclose(g, [math.log(2.0) + 1.0, math.log(2.0 / 3.0) + 1.0], atol=1e-15)


def test_pinsker_gap_frozen():
    # KL([1,0],[.5,.5]) = .5 g(2) + .5 g(1e-12 / .5) with g(t) = t ln t, since the
    # zero entry is floored at 1e-12: ln 2 + 1e-12 ln(2e-12). The L1 distance is 1.
    want = 2.0 * (math.log(2.0) + 1e-12 * math.log(2e-12)) - 1.0
    assert pinsker_gap(np.array([1.0, 0.0]), P_HALF) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind,want", [("KL", 1.0), ("RKL", 1.0), ("SHL", 0.5), ("JSD", 0.25)])
def test_curvature_at_one_frozen(kind, want):
    gen = GENERATORS[kind]
    assert gen.curvature_at_one == want
    assert gen.g_double_prime(np.array([1.0]))[0] == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------- generator shape

@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generator_vanishes_at_one(kind):
    gen = GENERATORS[kind]
    assert gen.g(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generator_derivatives_match_fd(kind):
    gen = GENERATORS[kind]
    t = np.array([0.11, 0.5, 1.0, 1.7, 4.0])
    h = 1e-6
    fd1 = (gen.g(t + h) - gen.g(t - h)) / (2 * h)
    fd2 = (gen.g_prime(t + h) - gen.g_prime(t - h)) / (2 * h)
    assert np.allclose(gen.g_prime(t), fd1, rtol=1e-6, atol=1e-8)
    assert np.allclose(gen.g_double_prime(t), fd2, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generator_convex_on_midpoints(kind):
    gen = GENERATORS[kind]
    rng = np.random.default_rng(1)
    a = rng.uniform(0.05, 5.0, 300)
    b = rng.uniform(0.05, 5.0, 300)
    mid = gen.g(0.5 * (a + b))
    assert np.all(mid <= 0.5 * (gen.g(a) + gen.g(b)) + 1e-12)


def test_generator_lookup():
    assert generator("kl") is KL
    assert generator("Jsd") is JENSEN_SHANNON
    with pytest.raises(ValueError):
        generator("hellinger3")


# ---------------------------------------------------------------- core identities

@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_self_divergence_is_exactly_zero(kind):
    p, _ = interior_pairs(2, n=50)
    gen = GENERATORS[kind]
    for row in p:
        assert f_divergence(gen, row, row) == 0.0


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_nonnegative_on_interior_pairs(kind):
    a, b = interior_pairs(3, n=500)
    vals = f_divergence(GENERATORS[kind], a, b)
    assert vals.shape == (500,)
    assert vals.min() >= -1e-12


def test_kl_generator_matches_direct_formula():
    a, b = interior_pairs(4, n=300)
    direct = np.sum(a * np.log(a / b), axis=-1)  # interior pairs: the floor never acts
    assert np.allclose(f_divergence(KL, a, b), direct, atol=1e-12)
    assert np.array_equal(kl_divergence(a, b), f_divergence(KL, a, b))


def test_reverse_kl_is_kl_with_arguments_swapped():
    a, b = interior_pairs(5, n=300)
    assert np.allclose(f_divergence(REVERSE_KL, a, b), f_divergence(KL, b, a), atol=1e-12)


@pytest.mark.parametrize("kind", ["JSD", "SHL"])
def test_symmetric_generators(kind):
    a, b = interior_pairs(6, n=300)
    gen = GENERATORS[kind]
    assert np.allclose(f_divergence(gen, a, b), f_divergence(gen, b, a), atol=1e-12)


def test_jsd_bounded_by_ln2():
    a, b = interior_pairs(7, n=500, m=5)
    assert f_divergence(JENSEN_SHANNON, a, b).max() <= math.log(2.0) + 1e-12
    # the bound is approached by nearly disjoint supports
    near = f_divergence(JENSEN_SHANNON, np.array([1 - 1e-9, 1e-9]), np.array([1e-9, 1 - 1e-9]))
    assert near > math.log(2.0) - 1e-6


def test_jsd_is_mixture_of_kls():
    a, b = interior_pairs(8, n=200)
    m = 0.5 * (a + b)
    want = 0.5 * kl_divergence(a, m) + 0.5 * kl_divergence(b, m)
    assert np.allclose(f_divergence(JENSEN_SHANNON, a, b), want, atol=1e-12)


def test_l1_l2_distances():
    assert l1_distance(P_HALF, P_QUARTER) == pytest.approx(0.5, abs=1e-15)
    assert l2_distance(P_HALF, P_QUARTER) == pytest.approx(0.25 * math.sqrt(2.0), abs=1e-15)
    a, b = interior_pairs(9, n=200)
    assert np.all(l2_distance(a, b) <= l1_distance(a, b) + 1e-15)


def test_pinsker_holds_on_interior_pairs():
    a, b = interior_pairs(10, n=500, m=4)
    assert pinsker_gap(a, b).min() >= -1e-12


# ---------------------------------------------------------------- hypothesis sweep

simplex_entries = st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=2, max_size=6)


@settings(max_examples=200, deadline=None)
@given(simplex_entries, simplex_entries, st.sampled_from(GENERATOR_KINDS))
def test_divergence_properties_random(raw_p, raw_q, kind):
    k = min(len(raw_p), len(raw_q))
    p = np.array(raw_p[:k]) / sum(raw_p[:k])
    q = np.array(raw_q[:k]) / sum(raw_q[:k])
    gen = GENERATORS[kind]
    d = f_divergence(gen, p, q)
    assert d >= -1e-12
    assert f_divergence(gen, p, p) == 0.0
    if kind in ("JSD", "SHL"):
        assert d == pytest.approx(f_divergence(gen, q, p), abs=1e-12)


# ---------------------------------------------------------------- edges and errors

@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_boundary_pairs_stay_finite(kind):
    gen = GENERATORS[kind]
    hard = [np.array([1.0, 0.0]), np.array([1e-16, 1.0 - 1e-16]), P_HALF]
    for p in hard:
        for q in hard:
            assert math.isfinite(f_divergence(gen, p, q))
            assert np.all(np.isfinite(f_divergence_grad_wrt_phat(gen, p, q)))


def test_batch_values_match_loop():
    a, b = interior_pairs(11, n=20)
    batch = f_divergence(KL, a, b)
    for i in range(20):
        assert batch[i] == f_divergence(KL, a[i], b[i])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        f_divergence(KL, np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))


def test_non_simplex_rejected():
    with pytest.raises(ValueError):
        f_divergence(KL, np.array([0.5, 0.6]), P_HALF)
    with pytest.raises(ValueError):
        f_divergence(KL, P_HALF, np.array([0.7, 0.4]))


@pytest.mark.parametrize("call, fragment", [
    (lambda: f_divergence(KL, 1.0, 1.0), "first distribution"),
    (lambda: f_divergence(KL, P_HALF, 0.5), "second distribution"),
    (lambda: kl_divergence(1.0, 1.0), "first distribution"),
    (lambda: f_divergence_grad_wrt_phat(KL, P_HALF, 1.0), "second distribution"),
    (lambda: pinsker_gap(np.float64(1.0), P_HALF), "first distribution"),
], ids=["f_divergence", "f_divergence-reference", "kl_divergence", "grad", "pinsker_gap"])
def test_scalar_distribution_rejected(call, fragment):
    with pytest.raises(ValueError, match=f"{fragment} must be an array of probabilities, got a scalar"):
        call()
