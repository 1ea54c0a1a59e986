import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrlab.tensor import (
    RandomRows,
    RandomSource,
    as_mat,
    check_simplex,
    frobenius_norm,
    gaussian_rows,
    gaussian_vec,
    log_sum_exp,
    permutation,
    softmax,
    spectral_norm,
)


def test_random_source_is_pure():
    rng = RandomSource(7)
    a = rng.generator().standard_normal(5)
    b = rng.generator().standard_normal(5)
    # drawing twice from one source must give the same values
    assert np.array_equal(a, b)


def test_split_same_path_same_stream():
    rng = RandomSource(3)
    assert rng.split(1, 2) == rng.split(1, 2)
    assert rng.split(1, 2) != rng.split(2, 1)
    assert rng.split(0) != rng.split(1)


def test_split_path_is_not_flattened():
    # (1, 2) and (1)(2) must agree; a single joint key must not collide
    rng = RandomSource(11)
    assert rng.split(1).split(2) == rng.split(1, 2)
    assert rng.split(1, 2) != rng.split(12)


def test_split_independence_across_seeds():
    x = RandomSource(1).split(4).generator().standard_normal(3)
    y = RandomSource(2).split(4).generator().standard_normal(3)
    assert not np.allclose(x, y)


def test_gaussian_vec_basic():
    v = gaussian_vec(RandomSource(5).split(0), 1000, 2.0)
    assert v.shape == (1000,)
    assert abs(v.std() - 2.0) < 0.2
    assert np.array_equal(v, gaussian_vec(RandomSource(5).split(0), 1000, 2.0))


# Frozen draws: a change here changes every rpt/vat run and verify report.
# Seeds are masked to 64 bits, so 2**63 + 7 and -12345 are ordinary keys.
@pytest.mark.parametrize("rng,n,std,want", [
    (RandomSource(0), 3, 1.0, [1.9549744116420429, -0.35891958307548716, 1.3099995278347734]),
    (RandomSource(1).split(1, 0, 5), 4, 0.3,
     [0.47703679932930065, 0.21259261520149506, 0.26521240140172125, -0.21714027583270384]),
    (RandomSource(2**63 + 7).split(2), 3, 1.0, [2.3805860364773, 0.5911856674441966, 0.3378622141637977]),
    (RandomSource(-12345).split(0), 5, 2.0,
     [-0.9768945895077702, 0.606263479045954, -0.24536487025124742, -0.3300462579680591,
      1.7931321138602214]),
])
def test_gaussian_vec_golden_values(rng, n, std, want):
    assert np.array_equal(gaussian_vec(rng, n, std), np.array(want))


def test_split_golden_stream():
    assert RandomSource(1).split(1, 0, 5).stream == 7687491980820276363


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 7, 2**64 - 1, -12345])
@pytest.mark.parametrize("path", [(), (0,), (1, 2), (1, 0, 5), (-1, 2**40), (3, 2**64 - 1)])
def test_split_rows_matches_scalar_split(seed, path):
    index = np.array([0, 5, 3, -2, 2**62, 199])
    rng = RandomSource(seed, stream=11)
    rows = rng.split(*path).split_rows(index)
    assert rows.streams.dtype == np.uint64 and rows.seeds.dtype == np.uint64
    want = [rng.split(*path, int(i)) for i in index]
    assert rows.streams.tolist() == [r.stream for r in want]
    assert rows.seeds.tolist() == [seed % 2**64] * index.size
    # row-wise split of mixed seeds and streams, by int and by per-row array
    mixed = [RandomSource(seed), RandomSource(-3, stream=2**64 - 5), RandomSource(2**63, stream=9)]
    by_int = RandomRows.of(mixed).split(*path)
    assert by_int.streams.tolist() == [r.split(*path).stream for r in mixed]
    by_array = RandomRows.of(mixed).split(np.array([4, -1, 2**62]), *path)
    assert by_array.streams.tolist() == [
        r.split(p, *path).stream for r, p in zip(mixed, (4, -1, 2**62))]
    with pytest.raises(TypeError):
        RandomRows.of(mixed).split(np.array([4.0, -1.0, 2.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 5])
def test_gaussian_rows_row_is_its_own_gaussian_vec(n):
    rng = RandomSource(2**64 - 3).split(1, 4)
    index = np.arange(40)
    singles = {int(i): gaussian_vec(rng.split(int(i)), n, 0.3) for i in index}
    reordered = np.random.default_rng(n).permutation(index)
    for batch in (index, reordered, reordered[:7], index[31:32]):
        draws = gaussian_rows(rng.split_rows(batch), n, 0.3)
        assert draws.shape == (batch.size, n)
        for i, row in zip(batch, draws):
            assert np.array_equal(row, singles[int(i)])
    # rows with different seeds in one batch
    mixed = [RandomSource(-1).split(2), RandomSource(5), RandomSource(2**63).split(0, 1)]
    draws = gaussian_rows(RandomRows.of(mixed), n)
    for r, row in zip(mixed, draws):
        assert np.array_equal(row, gaussian_vec(r, n))


def test_gaussian_vec_zero_std_is_exact_zero():
    assert np.array_equal(gaussian_vec(RandomSource(1), 4, 0.0), np.zeros(4))


@pytest.mark.parametrize("n,std", [(0, 1.0), (-1, 1.0), (3, -0.5), (3, float("nan"))])
def test_gaussian_vec_rejects_bad_args(n, std):
    with pytest.raises(ValueError):
        gaussian_vec(RandomSource(1), n, std)


def test_permutation_is_a_permutation():
    p = permutation(RandomSource(9).split(2), 50)
    assert sorted(p.tolist()) == list(range(50))
    assert np.array_equal(p, permutation(RandomSource(9).split(2), 50))


def test_permutation_empty_and_negative():
    assert permutation(RandomSource(1), 0).size == 0
    with pytest.raises(ValueError):
        permutation(RandomSource(1), -1)


def test_log_sum_exp_oracle():
    # frozen: lse([1000, 1000]) = 1000 + ln 2, naive exp overflows
    assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    assert log_sum_exp(np.array([0.0])) == 0.0


def test_log_sum_exp_batched_matches_rows():
    z = np.arange(12.0).reshape(3, 4)
    out = log_sum_exp(z)
    assert out.shape == (3,)
    for i in range(3):
        assert out[i] == pytest.approx(log_sum_exp(z[i]), abs=1e-15)


def test_softmax_oracle():
    # frozen: softmax([ln 1, ln 3]) = [1/4, 3/4]
    p = softmax(np.log(np.array([1.0, 3.0])))
    assert np.allclose(p, [0.25, 0.75], atol=1e-15)


def test_softmax_extreme_logits_stay_finite():
    p = softmax(np.array([800.0, -800.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-30, max_value=30),
)
def test_softmax_shift_invariance_and_simplex(logits, shift):
    z = np.array(logits)
    p = softmax(z)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)
    assert np.allclose(p, softmax(z + shift), atol=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(ValueError):
        softmax(np.array([0.0, float("nan")]))


def test_check_simplex_accepts_and_rejects():
    check_simplex(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        check_simplex(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        check_simplex(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        check_simplex(np.array([np.inf, 0.0]))


def test_as_mat_shapes():
    assert as_mat([[1, 2]]).dtype == np.float64
    with pytest.raises(ValueError):
        as_mat([1.0, 2.0])
    with pytest.raises(ValueError):
        as_mat([[1.0, float("inf")]])


def test_frobenius_norm_oracle():
    m = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert frobenius_norm(m) == pytest.approx(5.0, abs=1e-15)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    for shape in [(3, 3), (5, 2), (2, 7)]:
        m = rng.standard_normal(shape)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(want, rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 4))) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert spectral_norm(np.zeros((3, 0))) == 0.0


def test_spectral_norm_never_exceeds_frobenius():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((4, 5))
        assert spectral_norm(m) <= frobenius_norm(m) + 1e-12
