"""Runnable property suites: every mathematical claim the library rests on.

Each suite returns PropertyResult rows; a row passes when its slack is
nonnegative (slack = how far the measurement stayed on the right side of its
threshold), so a NaN slack fails. The suites are deterministic in
(trials, seed) and are what the `verify` command runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as mlp
from .divergences import (
    GENERATORS,
    PROB_FLOOR,
    f_divergence,
    f_divergence_grad_wrt_phat,
    generator,
    kl_divergence,
    l1_distance,
    l2_distance,
    pinsker_gap,
)
from .regularizers import (
    PerturbationConfig,
    RegularizerSpec,
    jr_penalty,
    l2_vs_kl_bound_check,
    quadratic_penalty,
    rpt_penalty,
    vat_penalty,
)
from . import spans as sp
from .tensor import (
    RandomSource,
    frobenius_norm,
    gaussian_rows,
    gaussian_vec,
    log_sum_exp,
    softmax,
    spectral_norm,
)

SUITE_NAMES = ("divergence", "jacobian", "vat", "spans")
_FALSE_ALARM = 1e-6  # chance that rpt_draw_second_moment fails on correct draws


@dataclass
class PropertyResult:
    name: str
    slack: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.slack >= 0)  # False for a NaN slack


def _max_or_nan(*values: float) -> float:
    """max(values), or NaN if any value is NaN. Python's max and min keep a NaN
    only in first place, so a failed trial would drop out of a worst-case fold."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _min_or_nan(*values: float) -> float:
    """min(values), or NaN if any value is NaN (see _max_or_nan)."""
    return math.nan if any(math.isnan(v) for v in values) else min(values)


def worker_count() -> int:
    """1: trials run on the calling thread. A trial's cost is Python call overhead
    under the GIL, so a thread pool made verify no faster. bench/run.py records it."""
    return 1


def map_indexed(fn, n: int):
    """fn(i) for i in range(n), in index order (bench/workloads.py traces it)."""
    return [fn(i) for i in range(n)]


def _simplex_pairs(rng: RandomSource, n: int, m: int, scale: float):
    """Random simplex pairs with every entry above the probability floor."""
    g = rng.generator()
    lam = 1e-9  # uniform mix keeps entries >= 1e-10 > PROB_FLOOR
    a = softmax(scale * g.standard_normal((n, m)))
    b = softmax(scale * g.standard_normal((n, m)))
    return (1 - lam) * a + lam / m, (1 - lam) * b + lam / m


def _random_model(rng: RandomSource, n_in: int, hidden, m: int) -> mlp.MlpModel:
    """Generic small model: gentle weights, nonzero biases.

    The scale keeps third-order posterior terms within a decade of the
    quadratic ones, which the fixed-t decade checks presuppose.
    """
    dims = (n_in, *hidden, m)
    weights, biases = [], []
    for l in range(len(dims) - 1):
        g = rng.split(l).generator()
        weights.append(g.standard_normal((dims[l + 1], dims[l])) * (0.7 / np.sqrt(dims[l])))
        biases.append(g.standard_normal(dims[l + 1]) * 0.2)
    return mlp.MlpModel(dims, mlp.pack_params(dims, weights, biases))


_SHAPES = ((2, (), 2), (2, (5,), 2), (3, (6,), 3), (4, (5, 4), 3), (2, (8, 8), 2))


def _model_instance(rng: RandomSource, i: int):
    n_in, hidden, m = _SHAPES[i % len(_SHAPES)]
    model = _random_model(rng.split(i), n_in, hidden, m)
    x = gaussian_vec(rng.split(i, 7), n_in)
    return model, x


def _decade_law(divergence_at, q: float):
    """(drift slack, law slack, cubic-remainder ratio at t = 1e-3) of D(t) = t^2 q + O(t^3).

    The remainder ratio must not grow as t shrinks (one-sided: the cubic term
    may vanish), and D(1e-4) / t^2 must match q to 1e-3 relative.
    """
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        d = divergence_at(t)
        ratios.append(abs(d - t * t * q) / t ** 3)
    floor = 1e-3 * max(1.0, q)
    drift = 5.0 * _max_or_nan(ratios[0], ratios[1]) + floor - ratios[2]
    return drift, 1e-3 * max(q, 1e-9) - abs(d / t / t - q), ratios[1]


def _fd_param_grads(value_fn, model, h: float = 1e-5) -> np.ndarray:
    """Centered finite differences of value_fn over every entry of
    model.params, for any model with `params` and `with_params`.
    """
    grads = np.empty(model.params.size)
    for k in range(model.params.size):
        up, down = model.params.copy(), model.params.copy()
        up[k] += h
        down[k] -= h
        grads[k] = (value_fn(model.with_params(up)) - value_fn(model.with_params(down))) / (2 * h)
    return grads


def _grad_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max entry deviation of a flat analytic derivative from its FD estimate,
    relative to the largest FD entry."""
    scale = max(1e-8, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(analytic - fd))) / scale


# ---------------------------------------------------------------- divergence

def divergence_suite(trials: int = 1000, seed: int = 1, generators=None) -> list[PropertyResult]:
    gens = list(GENERATORS.values()) if generators is None else list(generators)
    rng = RandomSource(seed)
    out = []

    dev = _max_or_nan(*(abs(float(g.g(np.asarray(1.0)))) for g in gens))
    out.append(PropertyResult("generator_unit_value_zero", -dev, f"max |g(1)| = {dev:.3e}"))

    worst = math.inf
    for i in range(max(200, trials // 5)):
        g = rng.split(10, i).generator()
        t1, t2 = np.exp(g.uniform(-2.3, 2.3, size=2))
        for gen in gens:
            mid = float(gen.g(np.asarray(0.5 * (t1 + t2))))
            worst = _min_or_nan(worst, 0.5 * (float(gen.g(np.asarray(t1))) + float(gen.g(np.asarray(t2)))) - mid)
    out.append(PropertyResult("generator_convexity", worst + 1e-12, f"min midpoint slack = {worst:.3e}"))

    h = 1e-6
    err = 0.0
    for i in range(max(100, trials // 10)):
        t = float(np.exp(rng.split(11, i).generator().uniform(-1.6, 1.6)))
        for gen in gens:
            fd1 = (float(gen.g(np.asarray(t + h))) - float(gen.g(np.asarray(t - h)))) / (2 * h)
            fd2 = (float(gen.g_prime(np.asarray(t + h))) - float(gen.g_prime(np.asarray(t - h)))) / (2 * h)
            err = _max_or_nan(err, abs(fd1 - float(gen.g_prime(np.asarray(t)))) / max(1.0, abs(fd1)))
            err = _max_or_nan(err, abs(fd2 - float(gen.g_double_prime(np.asarray(t)))) / max(1.0, abs(fd2)))
    out.append(PropertyResult("generator_derivatives_match_fd", 1e-6 - err,
                              f"max relative deviation = {err:.3e}"))

    expected = {"KL": 1.0, "RKL": 1.0, "SHL": 0.5, "JSD": 0.25}
    dev = 0.0
    for gen in gens:
        dev = _max_or_nan(dev, abs(float(gen.g_double_prime(np.asarray(1.0))) - gen.curvature_at_one))
        if gen.kind in expected:
            dev = _max_or_nan(dev, abs(gen.curvature_at_one - expected[gen.kind]))
    out.append(PropertyResult("curvature_at_one", -dev, "g''(1) = 1, 1, 1/2, 1/4 for KL, RKL, SHL, JSD"))

    min_div = math.inf
    max_self = 0.0
    kl_dev = 0.0
    sym_dev = 0.0
    adj_dev = 0.0
    jsd_excess = -math.inf
    jsd_mix_dev = 0.0
    l1l2 = math.inf
    grad_err = 0.0
    block = max(1112, trials // 3)  # 9 blocks, >= 10k pairs total
    for m in (2, 3, 10):
        for scale in (0.5, 2.0, 6.0):
            p_hat, p = _simplex_pairs(rng.split(12, m, int(scale * 10)), block, m, scale)
            for gen in gens:
                vals = f_divergence(gen, p_hat, p)
                min_div = _min_or_nan(min_div, float(np.min(vals)))
                self_vals = f_divergence(gen, p, p)
                max_self = _max_or_nan(max_self, float(np.max(np.abs(self_vals))))
                # identities below hold on the exact formulas; keep them where
                # the probability floor cannot touch either distribution
                if scale <= 2.0 and gen.kind in ("JSD", "SHL"):
                    sym_dev = _max_or_nan(sym_dev, float(np.max(np.abs(vals - f_divergence(gen, p, p_hat)))))
            if scale <= 2.0 and any(g.kind == "KL" for g in gens):
                klg = generator("KL")
                direct = np.sum(p_hat * np.log(np.maximum(p_hat, PROB_FLOOR) / np.maximum(p, PROB_FLOOR)), axis=-1)
                kl_dev = _max_or_nan(kl_dev, float(np.max(np.abs(f_divergence(klg, p_hat, p) - direct))))
                if any(g.kind == "RKL" for g in gens):
                    adj_dev = _max_or_nan(adj_dev, float(np.max(np.abs(
                        f_divergence(generator("RKL"), p_hat, p) - f_divergence(klg, p, p_hat)))))
            if any(g.kind == "JSD" for g in gens) and scale <= 2.0:
                jg = generator("JSD")
                jv = f_divergence(jg, p_hat, p)
                jsd_excess = _max_or_nan(jsd_excess, float(np.max(jv)) - math.log(2.0))
                mid = 0.5 * (p_hat + p)
                mix = 0.5 * kl_divergence(p_hat, mid) + 0.5 * kl_divergence(p, mid)
                jsd_mix_dev = _max_or_nan(jsd_mix_dev, float(np.max(np.abs(jv - mix))))
            l1l2 = _min_or_nan(l1l2, float(np.min(l1_distance(p_hat, p) - l2_distance(p_hat, p))))
    out.append(PropertyResult("divergence_nonnegative", min_div + 1e-12,
                              f"min over kinds/pairs = {min_div:.3e}"))

    # entries below the floor are out of contract; the clamp must still keep
    # every value finite instead of overflowing the logs
    extreme = [np.array([1.0, 0.0]), np.array([1.0 - 1e-16, 1e-16]), np.array([0.5, 0.5])]
    finite_ok = True
    for a in extreme:
        for b in extreme:
            for gen in gens:
                v = f_divergence(gen, a, b)
                finite_ok = finite_ok and bool(np.isfinite(v))
    out.append(PropertyResult("floor_guard_keeps_values_finite", 0.0 if finite_ok else -1.0,
                              "zero and sub-floor entries never produce inf or nan"))
    out.append(PropertyResult("self_divergence_exactly_zero", -max_self, f"max |D(p, p)| = {max_self:.3e}"))
    out.append(PropertyResult("kl_matches_direct_formula", 1e-12 - kl_dev, f"max deviation = {kl_dev:.3e}"))
    out.append(PropertyResult("jsd_shl_symmetric", 1e-12 - sym_dev, f"max |D(a,b) - D(b,a)| = {sym_dev:.3e}"))
    out.append(PropertyResult("kl_rkl_swap_identity", 1e-12 - adj_dev, f"max deviation = {adj_dev:.3e}"))
    out.append(PropertyResult("jsd_bounded_by_ln2", 1e-12 - jsd_excess,
                              f"max D_JSD - ln 2 = {jsd_excess:.3e}"))
    out.append(PropertyResult("jsd_mixture_identity", 1e-12 - jsd_mix_dev,
                              f"max deviation from the two-KL form = {jsd_mix_dev:.3e}"))
    out.append(PropertyResult("l2_bounded_by_l1", l1l2, f"min l1 - l2 = {l1l2:.3e}"))

    def pinsker_chunk(i):
        ph, p = _simplex_pairs(rng.split(13, i), 200, (2, 3, 10)[i % 3], (0.5, 2.0, 8.0)[i % 3])
        return float(np.min(pinsker_gap(ph, p)))

    n_chunks = max(50, (10 * max(trials, 1000)) // 200 // 10)
    min_gap = _min_or_nan(*map_indexed(pinsker_chunk, n_chunks))
    out.append(PropertyResult("pinsker_inequality", min_gap + 1e-12,
                              f"min 2KL - l1^2 over {n_chunks * 200} pairs = {min_gap:.3e}"))

    for i in range(max(100, trials // 10)):
        g = rng.split(14, i).generator()
        m = int(g.integers(2, 6))
        p_hat = softmax(g.standard_normal(m))
        p = softmax(g.standard_normal(m))
        d = g.standard_normal(m)
        d -= d.mean()  # tangent to the simplex
        hh = 1e-6
        for gen in gens:
            fd = (f_divergence(gen, p_hat + hh * d, p) - f_divergence(gen, p_hat - hh * d, p)) / (2 * hh)
            an = float(f_divergence_grad_wrt_phat(gen, p_hat, p) @ d)
            grad_err = _max_or_nan(grad_err, abs(an - fd) / max(1.0, abs(fd)))
    out.append(PropertyResult("divergence_grad_matches_fd", 1e-6 - grad_err,
                              f"max relative deviation = {grad_err:.3e}"))
    return out


# ------------------------------------------------------------------ jacobian

def jacobian_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    rng = RandomSource(seed)
    out = []
    n_models = max(20, trials // 50)

    simplex_dev = 0.0
    shift_dev = 0.0
    lse_dev = 0.0
    for i in range(n_models):
        g = rng.split(20, i).generator()
        z = g.standard_normal(int(g.integers(2, 8))) * 3.0
        c = float(g.uniform(-10, 10))
        p = softmax(z)
        simplex_dev = _max_or_nan(simplex_dev, abs(float(p.sum()) - 1.0), -float(p.min()))
        shift_dev = _max_or_nan(shift_dev, float(np.max(np.abs(softmax(z + c) - p))))
        lse_dev = _max_or_nan(lse_dev, abs(log_sum_exp(z + c) - log_sum_exp(z) - c) / (1 + abs(c)))
    out.append(PropertyResult("softmax_on_simplex", 1e-12 - simplex_dev,
                              f"max deviation = {simplex_dev:.3e}"))
    out.append(PropertyResult("softmax_shift_invariant", 1e-12 - shift_dev,
                              f"max shift deviation = {shift_dev:.3e}"))
    out.append(PropertyResult("log_sum_exp_shift", 1e-12 - lse_dev,
                              f"max relative deviation = {lse_dev:.3e}"))

    row_sum_dev = 0.0
    jac_fd_err = 0.0
    sp_fro_slack = math.inf
    for i in range(n_models):
        model, x = _model_instance(rng.split(21), i)
        jac = mlp.input_jacobian(model, x)
        row_sum_dev = _max_or_nan(row_sum_dev, float(np.max(np.abs(jac.sum(axis=0)))))
        g = rng.split(21, i, 3).generator()
        d = g.standard_normal(x.size)
        d /= np.linalg.norm(d)
        h = 1e-5
        fd = (mlp.posterior(model, x + h * d) - mlp.posterior(model, x - h * d)) / (2 * h)
        jac_fd_err = _max_or_nan(jac_fd_err, _grad_rel_err(jac @ d, fd))
        sp_fro_slack = _min_or_nan(sp_fro_slack, frobenius_norm(jac) - spectral_norm(jac))
    out.append(PropertyResult("jacobian_rows_sum_to_zero", 1e-12 - row_sum_dev,
                              f"max |column sums| = {row_sum_dev:.3e}"))
    out.append(PropertyResult("jacobian_matches_fd", 1e-6 - jac_fd_err,
                              f"max relative deviation = {jac_fd_err:.3e}"))
    out.append(PropertyResult("spectral_le_frobenius", sp_fro_slack + 1e-12,
                              f"min frobenius - spectral = {sp_fro_slack:.3e}"))

    n_grad = max(50, trials // 20)
    ce_err = 0.0
    seed_err = 0.0
    jr_err = 0.0
    for i in range(n_grad):
        model, x = _model_instance(rng.split(22), i)
        g = rng.split(22, i, 5).generator()
        label = int(g.integers(model.n_classes))
        tr = mlp.forward(model, x)
        _, grads, _ = mlp.backward_ce(model, tr, label)
        fd = _fd_param_grads(lambda mm: mlp.backward_ce(mm, mlp.forward(mm, x), label)[0], model)
        ce_err = _max_or_nan(ce_err, _grad_rel_err(grads, fd))

        s = g.standard_normal(model.n_classes)
        grads, _ = mlp.backward_scalar_of_posterior(model, tr, s)
        fd = _fd_param_grads(lambda mm: float(mlp.posterior(mm, x) @ s), model)
        seed_err = _max_or_nan(seed_err, _grad_rel_err(grads, fd))

        res = jr_penalty(model, x)
        fd = _fd_param_grads(lambda mm: float(np.sum(mlp.input_jacobian(mm, x) ** 2)), model)
        jr_err = _max_or_nan(jr_err, _grad_rel_err(res.param_grads, fd))
    out.append(PropertyResult("ce_grads_match_fd", 1e-4 - ce_err, f"max relative deviation = {ce_err:.3e}"))
    out.append(PropertyResult("posterior_scalar_grads_match_fd", 1e-4 - seed_err,
                              f"max relative deviation = {seed_err:.3e}"))
    out.append(PropertyResult("jacobian_norm_grads_match_fd", 1e-4 - jr_err,
                              f"max relative deviation = {jr_err:.3e}"))

    closed_dev = 0.0
    for i in range(n_models):
        g = rng.split(23, i).generator()
        n_in, m = int(g.integers(2, 5)), int(g.integers(2, 5))
        model = _random_model(rng.split(23, i, 1), n_in, (), m)
        x = gaussian_vec(rng.split(23, i, 2), n_in)
        p = mlp.posterior(model, x)
        closed = (np.diag(p) - np.outer(p, p)) @ model.weights[0]
        closed_dev = _max_or_nan(closed_dev, float(np.max(np.abs(mlp.input_jacobian(model, x) - closed))))
    out.append(PropertyResult("single_layer_jacobian_closed_form", 1e-12 - closed_dev,
                              f"max deviation = {closed_dev:.3e}"))

    taylor_slack = math.inf
    for i in range(n_models):
        model, x = _model_instance(rng.split(24), i)
        eps = gaussian_vec(rng.split(24, i, 3), x.size)
        eps /= np.linalg.norm(eps)
        jac = mlp.input_jacobian(model, x)
        p = mlp.posterior(model, x)
        rems = []
        for t in (1e-2, 1e-3):
            rem = np.linalg.norm(mlp.posterior(model, x + t * eps) - p - t * (jac @ eps))
            rems.append(rem / t / t)
        taylor_slack = _min_or_nan(taylor_slack, 5.0 * rems[0] + 1e-6 - rems[1])
    out.append(PropertyResult("posterior_taylor_remainder_quadratic", taylor_slack,
                              f"min one-sided slack = {taylor_slack:.3e}"))

    n_chain = max(50, trials)

    def chain_point(i):
        model, x = _model_instance(rng.split(25), i)
        chk = l2_vs_kl_bound_check(model, x, radius=0.1, trials=5, rng=rng.split(25, i, 9))
        return _min_or_nan(chk.worst_gap, chk.min_kl_l1_gap, chk.min_l1_l2_gap,
                           chk.min_spectral_gap, chk.min_frobenius_gap)

    chain_worst = _min_or_nan(*map_indexed(chain_point, n_chain))
    out.append(PropertyResult("distance_and_jacobian_chains", chain_worst + 1e-10,
                              f"min slack across links over {n_chain} points = {chain_worst:.3e}"))

    ratio_details = []
    law_slack = math.inf
    drift_slack = math.inf
    n_law = max(25, trials // 10)
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        ratios_all = []
        for i in range(n_law):
            # split on the kind's position, not hash(kind): str hashes are
            # salted per process and would break cross-run determinism
            model, x, eps, q = _second_order_instance(rng.split(26, ki), i)
            p = mlp.posterior(model, x)
            drift, law, ratio = _decade_law(
                lambda t: f_divergence(gen, mlp.posterior(model, x + t * eps), p), q[kind])
            drift_slack = _min_or_nan(drift_slack, drift)
            law_slack = _min_or_nan(law_slack, law)
            ratios_all.append(ratio)
        ratio_details.append(f"{kind}:{np.mean(ratios_all):.2f}")
    out.append(PropertyResult("second_order_law_decades", _min_or_nan(law_slack, drift_slack),
                              "cubic-remainder ratios " + " ".join(ratio_details)))

    zero_dev = 0.0
    for kind, gen in GENERATORS.items():
        model, x = _model_instance(rng.split(27), 0)
        p = mlp.posterior(model, x)
        zero_dev = _max_or_nan(zero_dev, abs(f_divergence(gen, p, p)),
                       abs(quadratic_penalty(model, x, gen, np.zeros(x.size))))
    out.append(PropertyResult("penalty_zero_at_zero_perturbation", -zero_dev,
                              f"max |D(0)| and |Q(0)| = {zero_dev:.3e}"))
    return out


def _steep_boundary_instance(rng: RandomSource, i: int):
    """Binary classifier with strong logit gain, input near its boundary."""
    shapes = ((2, (5,), 2), (3, (6,), 2), (4, (5, 4), 2))
    n_in, hidden, m = shapes[i % 3]
    base = _random_model(rng.split(i), n_in, hidden, m)
    model = mlp.MlpModel(base.layer_dims, mlp.pack_params(
        base.layer_dims, [w * 10.0 for w in base.weights], [b * 0.5 for b in base.biases]))
    for attempt in range(400):
        cand = gaussian_vec(rng.split(i, 7, attempt), n_in)
        if float(mlp.posterior(model, cand).min()) > 0.25:
            return model, cand
    return None, None


def _second_order_instance(rng: RandomSource, i: int):
    """(model, x, unit eps, quadratic values per kind) with a well-sized form."""
    for attempt in range(50):
        model, x = _model_instance(rng.split(i, attempt), i)
        eps = gaussian_vec(rng.split(i, attempt, 1), x.size)
        eps /= np.linalg.norm(eps)
        q = {kind: quadratic_penalty(model, x, gen, eps) for kind, gen in GENERATORS.items()}
        if min(q.values()) > 1e-3:
            return model, x, eps, q
    raise RuntimeError("could not draw a non-degenerate quadratic form")


# ----------------------------------------------------------------------- vat

def vat_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    rng = RandomSource(seed)
    out = []

    tiny = 0.0
    for i in range(20):
        model, x = _model_instance(rng.split(30), i)
        spec = RegularizerSpec("rpt", "KL", perturbation=PerturbationConfig(radius=1e-8))
        tiny = _max_or_nan(tiny, rpt_penalty(model, x, spec, rng.split(30, i, 1)).value)
    out.append(PropertyResult("rpt_vanishes_with_radius", 1e-10 - tiny,
                              f"max value at radius 1e-8 = {tiny:.3e}"))

    # D(eps) = Q(eps) + O(c^3) for the quadratic form Q, whose mean over the
    # draws is `expected` exactly. So mean(D - Q) + E[Q] estimates E[D]
    # without the sampling noise of Q, which alone can exceed the 10% gate.
    mc_err = 0.0
    sq_norms = 0.0
    dof = 0
    c = 1e-3
    n_draws = max(1000, trials)
    for i, kind in enumerate(("KL", "JSD", "SHL")):
        model, x, eps, _ = _second_order_instance(rng.split(31), i)
        jac = mlp.input_jacobian(model, x)
        f = np.maximum(mlp.posterior(model, x), PROB_FLOOR)
        trace = float(np.sum(jac * jac / f[:, None]))
        gen = GENERATORS[kind]
        expected = 0.5 * gen.curvature_at_one * c * c * trace
        spec = RegularizerSpec(
            "rpt", kind,
            perturbation=PerturbationConfig(radius=c, samples_per_example=n_draws))
        src = rng.split(31, i, 8)
        mc = rpt_penalty(model, x, spec, src).value
        draws = gaussian_rows(src.split_rows(np.arange(n_draws)), x.size, c)  # rpt_penalty's draws
        q_mean = float(np.mean([quadratic_penalty(model, x, gen, e) for e in draws]))
        estimate = mc - q_mean + expected
        mc_err = _max_or_nan(mc_err, abs(estimate - expected) / expected)
        sq_norms += float(np.sum(draws * draws)) / (c * c)
        dof += draws.size
    out.append(PropertyResult("rpt_mean_matches_quadratic_trace", 0.10 - mc_err,
                              f"max relative deviation of {n_draws}-draw control-variate means = {mc_err:.3e}"))

    # D and Q share the draws, so a wrong draw scale moves both and the control
    # variate cannot see it. The squared norms over c^2 are chi-square with
    # `dof` degrees of freedom; by the Wilson-Hilferty approximation z below is
    # standard normal, and the row fails when its two-sided p-value is under
    # _FALSE_ALARM, which correct draws do with that probability.
    z = ((sq_norms / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    out.append(PropertyResult("rpt_draw_second_moment", p_value - _FALSE_ALARM,
                              f"sum |eps|^2 / c^2 = {sq_norms:.1f} over {dof} dof, z = {z:+.2f}, "
                              f"two-sided p = {p_value:.2e}"))

    def vat_pair(i):
        model, x = _model_instance(rng.split(32), i)
        pert = PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01)
        src = rng.split(32, i, 2)
        found = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert), src).value
        pert0 = PerturbationConfig(radius=0.1, ascent_steps=0, step_size=0.01)
        init = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert0), src).value
        return found, init

    n_tr = max(1000, trials)
    pairs = map_indexed(vat_pair, n_tr)
    wins = sum(1 for f, i0 in pairs if f >= i0)
    frac = wins / n_tr
    out.append(PropertyResult("vat_beats_initial_draw", frac - 0.95,
                              f"ascent won in {frac:.1%} of {n_tr} trials"))

    def rpt_vat_pair(i):
        # the search-vs-sampling gap is only visible where the divergence
        # actually bends within the radius, so test steep binary models at
        # points the posterior has not yet saturated
        model, x = _steep_boundary_instance(rng.split(33), i)
        if model is None:
            return None
        pert = PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01)
        src = rng.split(33, i, 2)
        v = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert), src).value
        r = rpt_penalty(model, x, RegularizerSpec("rpt", "KL", perturbation=pert), src).value
        return v, r

    pairs = [p for p in map_indexed(rpt_vat_pair, 200) if p is not None]
    v_mean = float(np.mean([p[0] for p in pairs]))
    r_mean = float(np.mean([p[1] for p in pairs]))
    out.append(PropertyResult("vat_mean_exceeds_rpt_mean", v_mean - r_mean,
                              f"mean found {v_mean:.3e} vs random {r_mean:.3e} over {len(pairs)} pairs"))

    dev = 0.0
    for i in range(20):
        model, x = _model_instance(rng.split(34), i)
        src = rng.split(34, i, 2)
        pert0 = PerturbationConfig(radius=0.05, ascent_steps=0)
        v0 = vat_penalty(model, x, RegularizerSpec("vat", "SHL", perturbation=pert0), src)
        delta = gaussian_vec(src.split(0), x.size, pert0.init_std)
        # normalize exactly as _project does; np.linalg.norm can differ by an ulp
        delta = pert0.radius * delta / np.sqrt(np.sum(delta * delta))
        direct = f_divergence(GENERATORS["SHL"], mlp.posterior(model, x + delta), mlp.posterior(model, x))
        dev = _max_or_nan(dev, abs(v0.value - direct))
    out.append(PropertyResult("vat_zero_steps_is_projected_draw", -dev, f"max |difference| = {dev:.3e}"))

    rpt_err = 0.0
    vat_err = 0.0
    for i in range(max(25, trials // 40)):
        model, x = _model_instance(rng.split(35), i)
        src = rng.split(35, i, 2)
        for kind in ("KL", "JSD"):
            gen = GENERATORS[kind]
            spec = RegularizerSpec("rpt", kind, perturbation=PerturbationConfig(radius=0.2))
            res = rpt_penalty(model, x, spec, src)
            eps = gaussian_vec(src.split(0), x.size, 0.2)
            p_clean = mlp.posterior(model, x)

            def frozen(mm, eps=eps, gen=gen, p_clean=p_clean):
                return f_divergence(gen, mlp.posterior(mm, x + eps), p_clean)

            rpt_err = _max_or_nan(rpt_err, _grad_rel_err(res.param_grads, _fd_param_grads(frozen, model)))

            vspec = RegularizerSpec("vat", kind,
                                    perturbation=PerturbationConfig(radius=0.2, ascent_steps=2))
            vres = vat_penalty(model, x, vspec, src)
            fd = _fd_param_grads(lambda mm: frozen(mm, eps=vres.adversarial_direction), model)
            vat_err = _max_or_nan(vat_err, _grad_rel_err(vres.param_grads, fd))
    out.append(PropertyResult("rpt_grads_match_fd", 1e-4 - rpt_err,
                              f"max relative deviation = {rpt_err:.3e}"))
    out.append(PropertyResult("vat_grads_match_fd", 1e-4 - vat_err,
                              f"max relative deviation = {vat_err:.3e}"))
    return out


# --------------------------------------------------------------------- spans

def _random_span_model(rng: RandomSource, n_feat=3, hidden=(6,), d=4) -> sp.SpanModel:
    base = sp.init_span_model((n_feat, *hidden, d), rng)
    n_enc = mlp.n_params(base.enc_dims)
    # rescale to generic size: the encoder by 1.3 (its biases start at zero),
    # the two scorers by 2
    return base.with_params(np.concatenate([base.params[:n_enc] * 1.3, base.params[n_enc:] * 2.0]))


def spans_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    rng = RandomSource(seed)
    out = []
    n_inst = max(50, trials // 20)

    joint_dev = 0.0
    perm_dev = 0.0
    for i in range(n_inst):
        model = _random_span_model(rng.split(40, i))
        g = rng.split(40, i, 1).generator()
        t = int(g.integers(2, 9))
        feats = g.standard_normal((t, model.n_features))
        joint_dev = _max_or_nan(joint_dev, abs(float(sp.joint_span_table(model, feats).sum()) - 1.0))
        perm = g.permutation(t)
        probs = sp.span_distributions(model, feats)
        perm_dev = _max_or_nan(perm_dev, float(np.max(np.abs(sp.span_distributions(model, feats[perm])
                                                              - probs[:, perm]))))
    out.append(PropertyResult("joint_span_table_normalizes", 1e-12 - joint_dev,
                              f"max |sum - 1| = {joint_dev:.3e}"))
    out.append(PropertyResult("position_permutation_equivariance", 1e-12 - perm_dev,
                              f"max deviation = {perm_dev:.3e}"))

    model = _random_span_model(rng.split(41))
    zero = sp.make_span_model(model.encoder, np.zeros_like(model.scorers))
    g = rng.split(41, 1).generator()
    t = 6
    feats = g.standard_normal((t, model.n_features))
    unif_dev = float(np.max(np.abs(sp.span_distributions(zero, feats) - 1.0 / t)))
    loss, _ = sp.span_loss(zero, feats, 2, 4)
    loss_dev = abs(loss - 2.0 * math.log(t))
    out.append(PropertyResult("zero_scorers_give_uniform", 1e-12 - _max_or_nan(unif_dev, loss_dev),
                              f"uniform dev {unif_dev:.2e}, loss dev {loss_dev:.2e}"))

    add_dev = 0.0
    for i in range(n_inst):
        model = _random_span_model(rng.split(42, i))
        g = rng.split(42, i, 1).generator()
        t = int(g.integers(2, 7))
        feats = g.standard_normal((t, model.n_features))
        spec = RegularizerSpec("rpt", "JSD", perturbation=PerturbationConfig(radius=0.3))
        src = rng.split(42, i, 2)
        res = sp.span_penalty(model, feats, spec, src)
        eps = gaussian_vec(src.split(0), feats.size, 0.3).reshape(feats.shape)
        tr = sp.span_forward(model, feats)
        trn = sp.span_forward(model, feats + eps)
        terms = f_divergence(GENERATORS["JSD"], trn.probs, tr.probs)  # begin, end
        add_dev = _max_or_nan(add_dev, abs(res.value - float(np.sum(terms))))
    out.append(PropertyResult("penalty_adds_begin_and_end_terms", 1e-12 - add_dev,
                              f"max deviation = {add_dev:.3e}"))

    law_slack = math.inf
    drift_slack = math.inf
    details = []
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        ratios_mean = []
        for i in range(max(10, trials // 40)):
            model = _random_span_model(rng.split(43, i))
            # positional split keeps draws stable across processes
            g = rng.split(43, i, ki).generator()
            t = 5
            feats = g.standard_normal((t, model.n_features))
            eps = g.standard_normal(feats.shape)
            eps /= np.sqrt(np.sum(eps * eps))
            q = sp.span_quadratic_penalty(model, feats, gen, eps)
            if q < 1e-3:
                continue
            tr = sp.span_forward(model, feats)

            def divergence_at(tt):
                trn = sp.span_forward(model, feats + tt * eps)
                return float(np.sum(f_divergence(gen, trn.probs, tr.probs)))

            drift, law, ratio = _decade_law(divergence_at, q)
            drift_slack = _min_or_nan(drift_slack, drift)
            law_slack = _min_or_nan(law_slack, law)
            ratios_mean.append(ratio)
        details.append(f"{kind}:{np.mean(ratios_mean):.2f}")
    out.append(PropertyResult("span_second_order_law_decades", _min_or_nan(law_slack, drift_slack),
                              "cubic-remainder ratios " + " ".join(details)))

    loss_err = 0.0
    pen_err = 0.0
    for i in range(max(25, trials // 40)):
        model = _random_span_model(rng.split(44, i), hidden=(4,), d=3)
        g = rng.split(44, i, 1).generator()
        t = 4
        feats = g.standard_normal((t, model.n_features))
        start, end = int(g.integers(t)), int(g.integers(t))
        _, grads = sp.span_loss(model, feats, start, end)
        fd = _fd_param_grads(lambda mm: sp.span_loss(mm, feats, start, end)[0], model)
        loss_err = _max_or_nan(loss_err, _grad_rel_err(grads, fd))

        spec = RegularizerSpec("vat", "KL",
                               perturbation=PerturbationConfig(radius=0.3, ascent_steps=1))
        src = rng.split(44, i, 2)
        res = sp.span_penalty(model, feats, spec, src)
        p_clean = sp.span_distributions(model, feats)
        delta = res.adversarial_direction

        def frozen(mm):
            trn = sp.span_forward(mm, feats + delta)
            return float(np.sum(f_divergence(GENERATORS["KL"], trn.probs, p_clean)))

        pen_err = _max_or_nan(pen_err, _grad_rel_err(res.param_grads, _fd_param_grads(frozen, model)))
    out.append(PropertyResult("span_loss_grads_match_fd", 1e-4 - loss_err,
                              f"max relative deviation = {loss_err:.3e}"))
    out.append(PropertyResult("span_penalty_grads_match_fd", 1e-4 - pen_err,
                              f"max relative deviation = {pen_err:.3e}"))

    model = _random_span_model(rng.split(45))
    g = rng.split(45, 1).generator()
    feats = g.standard_normal((5, model.n_features))
    loss0, grads = sp.span_loss(model, feats, 1, 3)
    stepped = sp.apply_span_update(model, grads, 1e-3)
    loss1, _ = sp.span_loss(stepped, feats, 1, 3)
    # the decrease must be strict, so equal losses get the negative float nearest zero
    drop = loss0 - loss1 if loss1 != loss0 else math.nextafter(0.0, -1.0)
    out.append(PropertyResult("loss_step_decreases", drop, f"{loss0:.6f} -> {loss1:.6f}"))
    return out


def run_suite(name: str, trials: int = 1000, seed: int = 1, generators=None) -> list[PropertyResult]:
    if name == "divergence":
        return divergence_suite(trials, seed, generators)
    if name == "jacobian":
        return jacobian_suite(trials, seed)
    if name == "vat":
        return vat_suite(trials, seed)
    if name == "spans":
        return spans_suite(trials, seed)
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, trials, seed))
        return out
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
