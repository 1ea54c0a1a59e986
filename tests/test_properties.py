import collections
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab import divergences, properties, regularizers, spans, tensor
from pdrlab.divergences import GENERATORS, KL, kl_divergence, l1_distance, l2_distance
from pdrlab.properties import (
    SUITE_NAMES,
    PropertyResult,
    map_indexed,
    run_suite,
    worker_count,
)


def test_suite_names():
    assert SUITE_NAMES == ("divergence", "jacobian", "vat", "spans")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_at_small_trials(name):
    results = run_suite(name, trials=60, seed=1)
    assert results, "suite produced no checks"
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    for r in results:
        assert (r.slack >= 0) == r.passed


def test_all_runs_every_suite_in_order():
    all_results = run_suite("all", trials=40, seed=2)
    concat = []
    for name in SUITE_NAMES:
        concat.extend(r.name for r in run_suite(name, trials=40, seed=2))
    assert [r.name for r in all_results] == concat
    # Pins every line `verify` would print, so a refactor that claims to keep
    # them byte-identical is checked here. Like the tensor goldens it holds on
    # one platform and numpy build; a change that moves it must update it and
    # list the moved lines in CHANGES.md.
    text = "".join(f"{r.name} {r.slack!r} {r.detail}\n" for r in all_results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f46c5af47ee97030ac541ca0836a2e0425d06a24ef468d356832db2a12862a61")


def test_all_lines_are_pinned_at_verify_scale():
    # `verify --suite all --trials 1000 --seed 1`, whose lines a refactor must
    # keep byte-identical. Only trials >= 1000 lift n_chain, the vat_pair count,
    # the Pinsker chunks and the simplex blocks above their floors. Like the
    # other goldens, it holds only under the SIMD and BLAS dispatch it was
    # computed on (AVX-512 numpy loops, OpenBLAS SkylakeX kernels).
    text = "".join(f"{r.name} {r.slack!r} {r.detail}\n" for r in run_suite("all", trials=1000, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "71c65de2a2c7f4839d3651a721d81043cad054bda6ce519fff5ae18913a4ce69")


def test_suites_are_deterministic():
    a = run_suite("divergence", trials=50, seed=3)
    b = run_suite("divergence", trials=50, seed=3)
    assert [(r.name, r.slack) for r in a] == [(r.name, r.slack) for r in b]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", trials=10, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0, True])
def test_seed_outside_the_key_range_is_rejected(seed):
    # RandomSource keys a seed mod 2**64: -1 ran the rows of 2**64 - 1, and 2**64 + 1 those of 1
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, "):
        run_suite("divergence", trials=40, seed=seed)


@pytest.mark.parametrize("trials", [0, -5, 2000.5, True, "40"])
def test_trials_must_be_a_positive_integer(trials):
    # 2000.5 raised a TypeError from range, and True ran as 1
    with pytest.raises(ValueError, match=r"^trials must be an integer in \[1, "):
        run_suite("divergence", trials=trials, seed=1)


def test_largest_seed_runs():
    assert run_suite("divergence", trials=1, seed=2**64 - 1)


def test_corrupted_generator_is_caught(monkeypatch):
    # negative control: g(1) != 0 must trip the unit-value property
    monkeypatch.setitem(GENERATORS, "KL", replace(KL, g=lambda t: t * np.log(t) + 0.01))
    results = run_suite("divergence", trials=50, seed=1)
    failed = {r.name for r in results if not r.passed}
    assert "generator_unit_value_zero" in failed
    # self-divergence is no longer zero either
    assert "self_divergence_exactly_zero" in failed


def test_nonconvex_generator_is_caught(monkeypatch):
    bent = replace(
        KL,
        g=lambda t: -((t - 1.0) ** 2),
        g_prime=lambda t: -2.0 * (t - 1.0),
        g_double_prime=lambda t: -2.0 * np.ones_like(t),
    )
    monkeypatch.setitem(GENERATORS, "KL", bent)
    results = run_suite("divergence", trials=50, seed=1)
    failed = {r.name for r in results if not r.passed}
    assert "generator_convexity" in failed
    assert "divergence_nonnegative" in failed


def _failed(results):
    return {r.name for r in results if not r.passed}


def test_nan_slack_is_not_passed():
    assert not PropertyResult("nan_row", math.nan).passed
    assert PropertyResult("zero_row", -0.0).passed
    assert not PropertyResult("negative_row", -1e-300).passed


def _nan_above_three(monkeypatch):
    """KL wherever t <= 3, NaN above."""
    def nan_above(f):
        return lambda t: np.where(np.asarray(t) > 3.0, np.nan, f(t))

    gen = replace(KL, g=nan_above(KL.g), g_prime=nan_above(KL.g_prime),
                  g_double_prime=nan_above(KL.g_double_prime))
    monkeypatch.setitem(GENERATORS, "KL", gen)


def _nan_first_kl_value(monkeypatch):
    """NaN in the first KL value a suite computes: in the jacobian and spans
    suites that is one value of a decade row, at t = 1e-2."""
    clean, seen = properties.f_divergence, []

    def planted(gen, p_hat, p):
        value = clean(gen, p_hat, p)
        if gen.kind != "KL" or seen:
            return value
        seen.append(gen)
        return value * np.nan

    monkeypatch.setattr(properties, "f_divergence", planted)


@pytest.mark.parametrize("plant, suite, rows", [
    (_nan_above_three, "divergence", {"generator_convexity", "generator_derivatives_match_fd",
                                      "divergence_nonnegative", "divergence_grad_matches_fd"}),
    (_nan_first_kl_value, "jacobian", {"second_order_law_decades"}),
    (_nan_first_kl_value, "spans", {"span_second_order_law_decades"}),
], ids=["above_three-divergence", "first_kl_value-jacobian", "first_kl_value-spans"])
def test_nan_generator_values_are_caught(monkeypatch, plant, suite, rows):
    # the NaNs must not vanish from the folds
    plant(monkeypatch)
    assert rows <= _failed(run_suite(suite, trials=50, seed=1))


@pytest.mark.parametrize("owner, fn, suite, row", [
    (mlp, "backward_ce_batch", "jacobian", "ce_grads_match_fd"),
    (properties, "rpt_penalty", "vat", "rpt_grads_match_fd"),
    (spans, "span_penalty", "spans", "span_penalty_grads_match_fd"),
], ids=["backward_ce_batch", "rpt_penalty", "span_penalty"])
def test_nan_ce_gradient_is_caught(monkeypatch, owner, fn, suite, row):
    # one NaN parameter-gradient entry fails the FD row that checks it, and only that row
    clean = getattr(owner, fn)

    def one_nan_entry(grads):
        grads = grads.copy()
        grads[0] = np.nan
        return grads

    def planted(*args, **kwargs):
        out = clean(*args, **kwargs)
        if isinstance(out, tuple):  # backward_ce_batch: (losses, grads, input grads)
            return out[0], one_nan_entry(out[1]), out[2]
        return replace(out, param_grads=one_nan_entry(out.param_grads))

    monkeypatch.setattr(owner, fn, planted)
    assert _failed(run_suite(suite, trials=40, seed=1)) == {row}


@pytest.mark.parametrize("fn, k, row", [  # k: where the flat parameter grads sit in fn's result
    ("backward_ce_batch", 1, "ce_grads_match_fd"),
    ("backward_scalar_of_posterior_batch", 0, "posterior_scalar_grads_match_fd"),
    ("jacobian_sq_norm_grads_batch", 1, "jacobian_norm_grads_match_fd"),
])
def test_scaled_gradient_is_caught(monkeypatch, fn, k, row):
    # parameter grads 1e-3 too large, 10x the FD gate, fail their check and no other
    clean = getattr(mlp, fn)

    def scaled(*args, **kwargs):
        out = clean(*args, **kwargs)
        return out[:k] + ((1 + 1e-3) * out[k],) + out[k + 1:]

    monkeypatch.setattr(mlp, fn, scaled)
    assert _failed(run_suite("jacobian", trials=40, seed=1)) == {row}


@pytest.mark.parametrize("suite, seed", [("divergence", 89), ("jacobian", 104), ("jacobian", 139),
                                         ("jacobian", 786), ("vat", 317), ("vat", 809)])
def test_suite_passes_where_a_fixed_step_or_ratio_failed(suite, seed):
    # 89: central-difference truncation on an RKL instance with min p_hat = 9.3e-4;
    # 139: a directional derivative of 1.65e-6, so FD error looked large next to it;
    # 104 and 786: quadratic and cubic Taylor terms nearly cancel at t = 1e-2;
    # 317 and 809: rpt/vat parameter gradients of at most 8e-9, below what a
    # central difference at step 1e-5 resolves to 1e-4 relative
    assert _failed(run_suite(suite, trials=100, seed=seed)) == set()


@pytest.mark.parametrize("fn, row", [("rpt_penalty", "rpt_grads_match_fd"),
                                     ("vat_penalty", "vat_grads_match_fd")])
def test_scaled_penalty_gradient_is_caught(monkeypatch, fn, row):
    # the FD rows' scale floor must leave a 1e-3 gradient error visible
    clean = getattr(properties, fn)

    def scaled(*args, **kwargs):
        res = clean(*args, **kwargs)
        return replace(res, param_grads=(1 + 1e-3) * res.param_grads)

    monkeypatch.setattr(properties, fn, scaled)
    assert _failed(run_suite("vat", trials=40, seed=1)) == {row}


def test_scaled_divergence_gradient_is_caught(monkeypatch):
    clean = properties.f_divergence_grad_wrt_phat
    monkeypatch.setattr(properties, "f_divergence_grad_wrt_phat",
                        lambda gen, p_hat, p: (1 + 1e-5) * clean(gen, p_hat, p))
    assert _failed(run_suite("divergence", trials=40, seed=1)) == {"divergence_grad_matches_fd"}


@pytest.mark.parametrize("m, factor", [(5, 1 + 1e-5), (2, math.nan)], ids=["scaled_m5", "nan_m2"])
def test_divergence_gradient_error_in_one_class_count_is_caught(monkeypatch, m, factor):
    # the gradient row evaluates its instances once per class count, so an
    # error confined to one count must reach the row, a NaN included
    clean = properties.f_divergence_grad_wrt_phat

    def planted(gen, p_hat, p):
        grads = clean(gen, p_hat, p)
        return factor * grads if np.shape(p_hat)[-1] == m else grads

    monkeypatch.setattr(properties, "f_divergence_grad_wrt_phat", planted)
    assert _failed(run_suite("divergence", trials=40, seed=1)) == {"divergence_grad_matches_fd"}


@pytest.mark.parametrize("trials, seed, digest", [
    (1000, 1, "b3aaa174a1cc7c65296c2de5504baecb703d6db1da50bdace089f59bddb9ee55"),
    (100, 89, "3d2957e02baee2ab5916420d6a8e5a9deb9bf3a62b29c25f3b970474d8ae1ce8"),  # the steep RKL instance
])
def test_divergence_suite_lines_are_pinned(trials, seed, digest):
    # every line the divergence suite prints, pinned on one platform and numpy
    # build as test_all_runs_every_suite_in_order pins all four suites
    text = "".join(f"{r.name} {r.slack!r} {r.detail}\n" for r in properties.divergence_suite(trials, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_divergence_suite_evaluates_once_per_shape(monkeypatch):
    # per instance, the suite made 544 f_divergence and 400 gradient calls at
    # trials=100; the generator count shows that every instance still draws
    # from its own stream
    counts = collections.Counter()

    def count(owner, name):
        clean = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return clean(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(properties, "f_divergence")
    count(properties, "f_divergence_grad_wrt_phat")
    count(tensor.RandomSource, "generator")
    properties.divergence_suite(trials=100, seed=1)
    assert counts == {"f_divergence": 160, "f_divergence_grad_wrt_phat": 16, "generator": 459}


def _largest_entry_scaled(jac):
    jac = jac.copy()
    jac[np.unravel_index(np.argmax(np.abs(jac)), jac.shape)] *= 1 + 1e-5
    return jac


def _first_order_error(jac):
    # the posterior then moves by (J + 1e-5 max|J| I) eps to first order, not J eps
    return jac + 1e-5 * np.max(np.abs(jac)) * np.eye(*jac.shape)


# Every row that reads input_jacobian at a 1e-12 or first-order gate sees a
# planted Jacobian error, so the rows it fails are pinned as a set.
_JACOBIAN_ROWS = {"jacobian_rows_sum_to_zero", "jacobian_matches_fd",
                  "single_layer_jacobian_closed_form", "posterior_taylor_remainder_quadratic"}


@pytest.mark.parametrize("plant, row", [(_largest_entry_scaled, "jacobian_matches_fd"),
                                        (_first_order_error, "posterior_taylor_remainder_quadratic")])
def test_planted_jacobian_error_is_caught(monkeypatch, plant, row):
    clean = mlp.input_jacobian
    monkeypatch.setattr(mlp, "input_jacobian", lambda model, x: plant(clean(model, x)))
    results = {r.name: r for r in run_suite("jacobian", trials=40, seed=1)}
    assert {name for name, r in results.items() if not r.passed} == _JACOBIAN_ROWS
    assert results[row].slack < -1e-6


@pytest.mark.parametrize("seed", [34, 80521325])
def test_vat_suite_passes_where_the_plain_mc_mean_missed_the_gate(seed):
    # the 1000-draw plain mean of D read 0.108 and 0.136 relative error here
    assert _failed(run_suite("vat", trials=100, seed=seed)) == set()


def _scaled_gaussian_rows(factor):
    clean = tensor.gaussian_rows
    return lambda rows, n, std=1.0: clean(rows, n, std * factor)


def test_rpt_draw_scale_is_caught(monkeypatch):
    monkeypatch.setattr(regularizers, "gaussian_rows", _scaled_gaussian_rows(math.sqrt(2.0)))
    assert "rpt_mean_matches_quadratic_trace" in _failed(properties._rpt_mean_rows(tensor.RandomSource(1), 100))


def test_shared_kernel_draw_scale_is_caught(monkeypatch):
    # rpt_penalty and the replay both see the wrong scale, so D - Q stays small
    # and only the chi-square check of the draws can tell
    scaled = _scaled_gaussian_rows(math.sqrt(2.0))
    for module in (tensor, regularizers, properties):
        monkeypatch.setattr(module, "gaussian_rows", scaled)
    assert "rpt_draw_second_moment" in _failed(properties._rpt_mean_rows(tensor.RandomSource(1), 100))


def test_doubled_curvature_is_caught(monkeypatch):
    monkeypatch.setitem(GENERATORS, "KL", replace(KL, g_double_prime=lambda t: 2.0 / t))
    assert "rpt_mean_matches_quadratic_trace" in _failed(properties._rpt_mean_rows(tensor.RandomSource(1), 100))


def test_divergence_seed_error_is_caught(monkeypatch):
    # training, the span head and verify share one kernel, so verify sees its seeds
    clean = divergences._divergence_rows

    def scaled(gen, p_hat, p):
        values, seeds = clean(gen, p_hat, p)
        return values, seeds * (1 + 1e-5)

    for module in (divergences, regularizers, spans):
        monkeypatch.setattr(module, "_divergence_rows", scaled)
    assert "divergence_grad_matches_fd" in _failed(properties._divergence_grad_rows(tensor.RandomSource(1), 100))


def test_reported_ce_error_is_caught(monkeypatch):
    # the losses training sums into mean_ce are the values verify differentiates
    clean = mlp.cross_entropy
    monkeypatch.setattr(mlp, "cross_entropy", lambda logits, labels: clean(logits, labels) * (1 + 1e-3))
    assert "ce_grads_match_fd" in _failed(properties._param_grad_rows(tensor.RandomSource(1), 100))


@pytest.mark.parametrize("factor, check", [(1.01, "spectral_le_frobenius"),
                                           (0.999, "distance_and_jacobian_chains")])
def test_wrong_spectral_norm_is_caught(monkeypatch, factor, check):
    # too large breaks ||J||_2 <= ||J||_F; too small breaks ||J eps|| <= ||J||_2 ||eps||
    clean = tensor.spectral_norm
    for module in (properties, regularizers):
        monkeypatch.setattr(module, "spectral_norm", lambda mat: factor * clean(mat))
    group = {"spectral_le_frobenius": properties._input_jacobian_rows,
             "distance_and_jacobian_chains": properties._chain_rows}[check]
    assert check in _failed(group(tensor.RandomSource(1), 40))


def test_worker_count_env(monkeypatch):
    # the suites run on the calling thread; the variable that once set a pool size is ignored
    monkeypatch.delenv("PDR_LAB_THREADS", raising=False)
    assert worker_count() == 1
    for value in ("", "3", "-1", "lots"):
        monkeypatch.setenv("PDR_LAB_THREADS", value)
        assert worker_count() == 1


def test_map_indexed_keeps_order():
    out = map_indexed(lambda i: i * i, 100)
    assert out == [i * i for i in range(100)]
    assert map_indexed(lambda i: -i, 10) == [-i for i in range(10)]


def test_result_rows_have_details():
    results = run_suite("jacobian", trials=40, seed=4)
    by_name = {r.name: r for r in results}
    # decade report carries per-generator ratios for the human reader
    assert "second_order_law_decades" in by_name
    assert by_name["second_order_law_decades"].detail
    assert isinstance(results[0], PropertyResult)


def _bound_check_loop(model, x, radius, trials, rng):
    """The reference `l2_vs_kl_bound_check` must match bit for bit: one draw,
    one forward pass and one slack row per trial."""
    x = np.asarray(x, dtype=np.float64)
    tr = mlp.forward(model, x)
    p = tr.posteriors[0]
    jac = mlp.input_jacobian_batch(model, tr)[0]
    sp, fro = tensor.spectral_norm(jac), tensor.frobenius_norm(jac)
    gaps = np.empty((trials, 4))
    for t in range(trials):
        eps = tensor.gaussian_vec(rng.split(t), x.size, 1.0)
        eps *= radius / np.linalg.norm(eps)
        q = mlp.posterior(model, x + eps)
        l1, l2 = l1_distance(p, q), l2_distance(p, q)
        two_kl = 2.0 * kl_divergence(p, q)
        jeps_sq = float(np.sum((jac @ eps) ** 2))
        gaps[t] = (two_kl - l2 * l2, two_kl - l1 * l1, l1 * l1 - l2 * l2, (radius * sp) ** 2 - jeps_sq)
    return float(np.min(gaps, initial=radius * radius * (fro * fro - sp * sp)))


@pytest.mark.parametrize("trials", [1, 5, 50])
def test_bound_check_matches_the_per_draw_loop(trials):
    rng = tensor.RandomSource(11)
    for i in range(200):
        model, x = properties._model_instance(rng.split(25), i)
        want = _bound_check_loop(model, x, 0.1, trials, rng.split(25, i, 9))
        got = regularizers.l2_vs_kl_bound_check(model, x, 0.1, trials, rng.split(25, i, 9))
        assert got.hex() == want.hex(), (i, got, want)


def _steep_boundary_loop(rng, i):
    """The reference `properties._steep_boundary_instance` must match: draw and
    score one candidate at a time, and stop at the first that passes."""
    n_in, hidden, m = ((2, (5,), 2), (3, (6,), 2), (4, (5, 4), 2))[i % 3]
    base = properties._random_model(rng.split(i), n_in, hidden, m)
    model = mlp.MlpModel(base.layer_dims, mlp.pack_params(
        base.layer_dims, [w * 10.0 for w in base.weights], [b * 0.5 for b in base.biases]))
    for attempt in range(400):
        cand = tensor.gaussian_vec(rng.split(i, 7, attempt), n_in)
        if float(mlp.posterior(model, cand).min()) > 0.25:
            return model, cand
    return None, None


def test_steep_boundary_instance_matches_the_rejection_loop():
    found = 0
    for seed in (1, 2):
        rng = tensor.RandomSource(seed).split(33)
        for i in range(200):
            want_model, want_x = _steep_boundary_loop(rng, i)
            got_model, got_x = properties._steep_boundary_instance(rng, i)
            if want_model is None:
                assert got_model is None and got_x is None
                continue
            found += 1
            assert np.array_equal(got_model.params, want_model.params)
            assert got_x.tobytes() == want_x.tobytes()
    assert found >= 300  # most instances find a point near the boundary


def test_second_order_instance_forms_match_quadratic_penalty():
    rng = tensor.RandomSource(3).split(26)
    for i in range(200):
        model, x, eps, q = properties._second_order_instance(rng, i)
        for kind, gen in GENERATORS.items():
            assert q[kind] == regularizers.quadratic_penalty(model, x, gen, eps)


def _fd_param_grads_loop(value_fn, model):
    """The reference `properties._fd_param_grads` must match bit for bit: the
    per-parameter loop it replaced, 2P calls of value_fn on one model each."""
    h = properties._FD_STEP
    grads = np.empty(model.params.size)
    for k in range(model.params.size):
        up, down = model.params.copy(), model.params.copy()
        up[k] += h
        down[k] -= h
        grads[k] = (value_fn(model.with_params(up)) - value_fn(model.with_params(down))) / (2 * h)
    return grads


_stacked_fd_param_grads = properties._fd_param_grads  # the tests below patch the module's name


def _assert_fd_matches_loop(value_fn, model):
    got = _stacked_fd_param_grads(value_fn, model)
    want = _fd_param_grads_loop(value_fn, model)
    assert got.tobytes() == want.tobytes(), (value_fn.__code__, got - want)
    return got


def _checked_fd_calls(monkeypatch):
    """Route every properties._fd_param_grads call through the loop check;
    returns the count of calls per value function (by its code)."""
    calls = collections.Counter()

    def checked(value_fn, model):
        calls[value_fn.__code__] += 1
        return _assert_fd_matches_loop(value_fn, model)

    monkeypatch.setattr(properties, "_fd_param_grads", checked)
    return calls


@pytest.mark.parametrize("suite, seeds, n_rows", [("jacobian", (1, 2), 3), ("vat", (1, 2), 2),
                                                  ("spans", (1, 2, 3, 4), 2)], ids=["jacobian", "vat", "spans"])
def test_stacked_fd_matches_the_loop_on_every_verify_row(monkeypatch, suite, seeds, n_rows):
    calls = _checked_fd_calls(monkeypatch)
    for seed in seeds:
        run_suite(suite, trials=40, seed=seed)
    assert len(calls) == n_rows  # jacobian: ce, posterior-scalar, jr; vat: rpt, vat; spans: loss, penalty
    assert min(calls.values()) >= 100


def test_stacked_fd_matches_the_loop_on_criterion_04(monkeypatch, capsys):
    import test_acceptance as acceptance

    calls = _checked_fd_calls(monkeypatch)
    for offset in range(4):  # four seeds give each of its six rows 100 or more calls
        monkeypatch.setattr(acceptance, "RandomSource", lambda seed, offset=offset: tensor.RandomSource(seed + offset))
        acceptance.test_criterion_04_gradient_paths_match_finite_differences()
    capsys.readouterr()
    assert len(calls) == 6
    assert min(calls.values()) >= 100


def _negative_zero_model():
    model, x = properties._model_instance(tensor.RandomSource(3), 3)
    params = model.params.copy()
    params[[0, 5]] = -0.0
    return model.with_params(params), x


def test_stacked_fd_matches_the_loop_on_the_test_helpers():
    import test_model
    import test_regularizers
    import test_spans

    rng = tensor.RandomSource(12)
    instances = [properties._model_instance(rng, i) for i in range(100)] + [_negative_zero_model()]
    for i, (model, x) in enumerate(instances):
        eps = tensor.gaussian_vec(rng.split(i, 1), x.size, 0.2)
        p_clean = mlp.posterior(model, x)
        label = i % model.n_classes
        for value_fn in (lambda mm: test_model.jacobian_sq_norm(mm, x),
                         lambda mm: test_regularizers.frozen_divergence(mm, x, eps, p_clean, "JSD"),
                         lambda mm: properties._ce_at(mm, x, label),
                         lambda mm: properties._jacobian_sq_norm_at(mm, x)):
            _assert_fd_matches_loop(value_fn, model)
    for i in range(100):
        model = properties._random_span_model(rng.split(50, i), hidden=(4,), d=3)
        feats = rng.split(51, i).generator().standard_normal((4, model.n_features))
        eps = tensor.gaussian_vec(rng.split(52, i), feats.size, 0.3).reshape(feats.shape)
        pb0, pe0 = spans.span_distributions(model, feats)
        _assert_fd_matches_loop(lambda mm: test_spans.frozen_pair_divergence(mm, feats, eps, pb0, pe0, "JSD"),
                                model)


def test_fd_stack_rows_are_the_loops_stepped_copies():
    # params +- h I would turn the -0.0 entries of every other row into +0.0
    model, _ = _negative_zero_model()
    seen = []
    properties._fd_param_grads(lambda mm: seen.append(mm.params) or np.zeros(len(mm.params)), model)
    (stack,) = seen
    p = model.params.size
    assert stack.shape == (2 * p, p)
    for k in range(p):
        up, down = model.params.copy(), model.params.copy()
        up[k] += properties._FD_STEP
        down[k] -= properties._FD_STEP
        assert stack[k].tobytes() == up.tobytes() and stack[p + k].tobytes() == down.tobytes()
