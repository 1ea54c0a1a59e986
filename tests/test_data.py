import math

import numpy as np
import pytest

from pdrlab.data import (
    UNLABELED,
    Dataset,
    apply_domain_shift,
    make_gaussian_mixture,
    make_spurious_pair,
    make_two_moons,
    read_csv,
    withhold_labels,
    write_csv,
)


def moons_core_rule(features: np.ndarray) -> np.ndarray:
    """Label by the nearest noiseless moon arc, using only the first two dims.

    This is the (near-)ideal rule on two-moons geometry; it ignores any
    extra feature dimensions.
    """
    pts = np.asarray(features, dtype=np.float64)[:, :2]
    t = np.linspace(0.0, np.pi, 512)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    d0 = np.min(np.sum((pts[:, None, :] - upper[None]) ** 2, axis=2), axis=1)
    d1 = np.min(np.sum((pts[:, None, :] - lower[None]) ** 2, axis=2), axis=1)
    return (d1 < d0).astype(np.int64)


# ---------------------------------------------------------------- dataset

def test_labels_are_a_read_only_int64_vector():
    raw = np.array([0, UNLABELED, 1], dtype=np.int32)
    ds = Dataset(np.zeros((3, 2)), raw, 2, {})
    assert ds.labels.dtype == np.int64 and ds.labels.shape == (3,)
    assert not ds.labels.flags.writeable
    raw[0] = 1  # the dataset holds its own copy
    assert ds.labels.tolist() == [0, UNLABELED, 1]
    assert ds.labeled_indices().tolist() == [0, 2]


def test_features_are_a_read_only_copy():
    raw = np.zeros((3, 2))
    ds = Dataset(raw, [0, 1, 0], 2, {})
    raw[0, 0] = 1.0  # the caller's array stays writable
    assert ds.features is not raw
    assert ds.features[0, 0] == 0.0
    assert not ds.features.flags.writeable


def test_labels_below_the_sentinel_are_rejected():
    with pytest.raises(ValueError, match="labels must lie in"):
        Dataset(np.zeros((2, 2)), (0, -2), 2, {})


def test_labels_at_or_above_the_class_count_are_rejected():
    with pytest.raises(ValueError, match="labels must lie in"):
        Dataset(np.zeros((2, 2)), (0, 2), 2, {})


@pytest.mark.parametrize("labels", [(0.0, 1.0), (0, None), (True, False), ("0", "1")])
def test_non_integer_labels_are_rejected(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        Dataset(np.zeros((2, 2)), labels, 2, {})


def test_labels_must_match_the_example_count():
    with pytest.raises(ValueError, match="example count"):
        Dataset(np.zeros((3, 2)), (0, 1), 2, {})
    with pytest.raises(ValueError, match="example count"):
        Dataset(np.zeros((2, 2)), [[0, 1]], 2, {})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected(bad):
    ds = make_two_moons(40, 0.1, seed=1)
    features = ds.features.copy()
    features[4, 1] = bad
    with pytest.raises(ValueError, match="features have non-finite entries"):
        Dataset(features, ds.labels, 2, ds.provenance)


# ---------------------------------------------------------------- two moons

def test_moons_counts_and_balance():
    ds = make_two_moons(201, 0.1, seed=3)
    assert ds.n_examples == 201
    assert ds.n_classes == 2
    assert np.sum(ds.labels == 0) == 101  # ceil(n/2) in class 0
    assert np.sum(ds.labels == 1) == 100


def test_moons_noiseless_geometry():
    ds = make_two_moons(10, 0.0, seed=1)
    # upper arc starts at (1, 0); lower arc starts at (0, 0.5)
    assert np.allclose(ds.features[0], [1.0, 0.0], atol=1e-15)
    n0 = 5
    assert np.allclose(ds.features[n0], [0.0, 0.5], atol=1e-15)
    # upper moon points sit on the unit circle
    upper = ds.features[:n0]
    assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)


def test_moons_noise_is_seeded():
    a = make_two_moons(50, 0.3, seed=9)
    b = make_two_moons(50, 0.3, seed=9)
    c = make_two_moons(50, 0.3, seed=10)
    assert np.array_equal(a.features, b.features)
    assert not np.allclose(a.features, c.features)


def test_moons_rejects_bad_args():
    with pytest.raises(ValueError):
        make_two_moons(0, 0.1, 1)
    for noise in (-0.1, math.nan, math.inf):  # a NaN must not pass as "no noise"
        with pytest.raises(ValueError, match="noise_std"):
            make_two_moons(10, noise, 1)


def test_spurious_pair_rejects_bad_noise():
    for noise in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="core_noise"):
            make_spurious_pair(10, noise, 1)


def test_moons_core_rule_is_exact_on_noiseless_arcs():
    ds = make_two_moons(80, 0.0, seed=1)
    got = moons_core_rule(ds.features)
    assert np.array_equal(got, ds.labels)


# ---------------------------------------------------------------- gaussian mixture

def test_mixture_counts_and_labels():
    ds = make_gaussian_mixture(10, k=3, dim=4, separation=3.0, seed=2)
    assert ds.n_examples == 10
    assert ds.n_classes == 3
    assert np.bincount(ds.labels).tolist() == [4, 3, 3]


def test_mixture_means_are_equidistant():
    sep = 6.0
    ds = make_gaussian_mixture(6000, k=3, dim=3, separation=sep, seed=5)
    y = ds.labels
    centers = np.stack([ds.features[y == c].mean(axis=0) for c in range(3)])
    for a in range(3):
        for b in range(a + 1, 3):
            # sample means wobble by ~ sqrt(dim / (n/k))
            assert np.linalg.norm(centers[a] - centers[b]) == pytest.approx(sep, abs=0.15)


def test_mixture_needs_enough_dimensions():
    with pytest.raises(ValueError):
        make_gaussian_mixture(10, k=4, dim=2, separation=1.0, seed=1)
    with pytest.raises(ValueError):
        make_gaussian_mixture(10, k=1, dim=2, separation=1.0, seed=1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="separation must be finite and >= 0"):
            make_gaussian_mixture(10, k=2, dim=2, separation=bad, seed=1)


# ---------------------------------------------------------------- domain shift

def test_shift_identity_is_bit_exact():
    ds = make_two_moons(30, 0.1, seed=4)
    out = apply_domain_shift(ds, angle=0.0, scale=1.0, seed=7)
    assert np.array_equal(out.features, ds.features)
    assert out.provenance["shift"] == {"angle": 0.0, "scale": 1.0, "seed": 7}


def test_shift_rotation_preserves_norms():
    ds = make_gaussian_mixture(40, k=2, dim=5, separation=2.0, seed=6)
    out = apply_domain_shift(ds, angle=0.9, scale=1.0, seed=8)
    assert np.allclose(np.linalg.norm(out.features, axis=1),
                       np.linalg.norm(ds.features, axis=1), atol=1e-12)
    assert not np.allclose(out.features, ds.features)


def test_shift_is_invertible():
    ds = make_two_moons(25, 0.2, seed=11)
    fwd = apply_domain_shift(ds, angle=0.7, scale=2.5, seed=13)
    back = apply_domain_shift(fwd, angle=-0.7, scale=1.0 / 2.5, seed=13)
    assert np.allclose(back.features, ds.features, atol=1e-12)


def test_shift_validation():
    ds = make_two_moons(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        apply_domain_shift(ds, 0.1, 0.0, 1)
    one_dim = Dataset(np.zeros((3, 1)), (0, 1, 0), 2, {})
    with pytest.raises(ValueError):
        apply_domain_shift(one_dim, 0.1, 1.0, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            apply_domain_shift(ds, bad, 1.0, 1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            apply_domain_shift(ds, 0.1, bad, 1)


# ---------------------------------------------------------------- spurious pair

def test_spurious_pair_shortcut_alignment():
    train, ev = make_spurious_pair(100, core_noise=0.0, seed=3)
    y_tr = train.labels
    y_ev = ev.labels
    # shortcut column equals 2y-1 on train and is inverted on eval
    assert np.array_equal(train.features[:, 2], 2.0 * y_tr - 1.0)
    assert np.array_equal(ev.features[:, 2], -(2.0 * y_ev - 1.0))


def test_spurious_pair_marginals_match():
    train, ev = make_spurious_pair(80, core_noise=0.05, seed=4)
    # the shortcut's marginal value set is identical across splits
    assert set(train.features[:, 2]) == set(ev.features[:, 2]) == {-1.0, 1.0}
    assert train.provenance["split"] == "train"
    assert ev.provenance["split"] == "adversarial_eval"


def test_spurious_pair_core_is_still_moons():
    train, ev = make_spurious_pair(60, core_noise=0.0, seed=5)
    assert np.array_equal(moons_core_rule(train.features), train.labels)
    assert np.array_equal(moons_core_rule(ev.features), ev.labels)


def test_spurious_pair_noise_streams_differ_between_splits():
    train, ev = make_spurious_pair(60, core_noise=0.1, seed=6)
    assert not np.allclose(train.features[:, :2], ev.features[:, :2])


# ---------------------------------------------------------------- withholding

def test_withhold_keeps_rounded_count():
    ds = make_two_moons(101, 0.1, seed=7)
    out = withhold_labels(ds, 0.5, seed=8)
    kept = out.labels[out.labels != UNLABELED]
    assert len(kept) == round(0.5 * 101) == 50


def test_withhold_golden_kept_indices():
    # golden kept indices: the stratified choice must reproduce them exactly
    out = withhold_labels(make_two_moons(101, 0.1, seed=7), 0.5, seed=8)
    assert np.flatnonzero(out.labels != UNLABELED).tolist() == [
        0, 2, 5, 8, 9, 10, 12, 17, 18, 22, 25, 26, 27, 28, 29, 30, 31, 35, 37, 38, 40, 41, 44,
        46, 49, 51, 54, 57, 59, 60, 62, 66, 68, 70, 71, 73, 75, 76, 78, 80, 82, 83, 84, 89, 90,
        95, 96, 97, 98, 100]
    # class counts 14, 13, 13 at 0.45: floors 6, 5, 5, and classes 1 and 2 tie
    # on the largest remainder, so each gets one of the two leftover labels
    out = withhold_labels(make_gaussian_mixture(40, 3, 2, 3.0, seed=5), 0.45, seed=6)
    assert np.flatnonzero(out.labels != UNLABELED).tolist() == [
        1, 6, 9, 11, 12, 13, 14, 17, 18, 20, 25, 26, 27, 29, 34, 35, 36, 37]


def test_withhold_is_stratified():
    ds = make_two_moons(100, 0.1, seed=9)
    out = withhold_labels(ds, 0.3, seed=10)
    per_class = np.bincount(out.labels[out.labels != UNLABELED], minlength=2)
    # 50 per class at fraction 0.3 keeps 15 of each
    assert per_class.tolist() == [15, 15]


def test_withhold_edges():
    ds = make_two_moons(20, 0.1, seed=11)
    assert np.array_equal(withhold_labels(ds, 1.0, 1).labels, ds.labels)
    assert np.all(withhold_labels(ds, 0.0, 1).labels == UNLABELED)
    with pytest.raises(ValueError):
        withhold_labels(ds, 1.5, 1)
    with pytest.raises(ValueError):
        withhold_labels(withhold_labels(ds, 0.5, 1), 0.5, 1)


def test_withhold_is_seeded():
    ds = make_two_moons(60, 0.1, seed=12)
    a = withhold_labels(ds, 0.4, seed=13)
    b = withhold_labels(ds, 0.4, seed=13)
    c = withhold_labels(ds, 0.4, seed=14)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


# ---------------------------------------------------------------- csv round trip

def test_csv_round_trip_is_bit_exact(tmp_path):
    ds = withhold_labels(make_two_moons(40, 0.25, seed=15), 0.5, seed=16)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = read_csv(path)
    assert np.array_equal(back.features, ds.features)  # repr floats survive
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == 2


def test_csv_unlabeled_sentinel(tmp_path):
    ds = Dataset(np.array([[0.5, 1.5]]), (UNLABELED,), 2, {})
    path = tmp_path / "u.csv"
    write_csv(ds, path)
    text = path.read_text()
    assert text.splitlines()[1].endswith(f",{UNLABELED}")
    assert read_csv(path).labels.tolist() == [UNLABELED]


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n0.1,0.2,0\n0.3,oops,1\n")
    with pytest.raises(ValueError, match=":3:"):
        read_csv(path)

    path.write_text("f0,f1,label\n0.1,0.2\n")
    with pytest.raises(ValueError, match=":2:"):
        read_csv(path)

    path.write_text("f0,f1,label\n0.1,0.2,-4\n")
    with pytest.raises(ValueError, match="bad label"):
        read_csv(path)


def test_csv_header_and_empty_file_errors(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y,label\n0.1,0.2,0\n")
    with pytest.raises(ValueError, match="bad header"):
        read_csv(path)

    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path)

    path.write_text("f0,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(path)


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("f0,label\ninf,0\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_csv(path)
