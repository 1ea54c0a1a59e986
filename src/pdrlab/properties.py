"""Runnable property suites: every mathematical claim the library rests on.

Each suite returns PropertyResult rows; a row passes when its slack is
nonnegative (slack = how far the measurement stayed on the right side of its
threshold), so a NaN slack fails. The suites are deterministic in
(trials, seed) and are what the `verify` command runs.

A suite is a tuple of row groups: module-level functions of (rng, trials),
each returning one row or the rows that share its instances, and drawing
only from its own `rng.split` tags: one group a tag in divergence 10-14,
jacobian 20-27, vat 30-35 and spans 40-45, except that 10 and 11 share one
with the two tagless generator rows. So a group called with RandomSource(seed) returns
exactly the rows its suite prints at that seed. A row draws each instance
from its own stream, in instance order; the divergence rows then evaluate
per shape, one call per generator (and class count), and fold in instance
order. `_max_row` and `_min_row` fold a row's values into its worst one and
the slack against its gate; `_fd_row` is `_max_row` over parameter-FD
errors, and `_decade_row` folds `_decade_law`'s check of
D(t) = t^2 q + O(t^3) at _DECADES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as mlp
from .divergences import (GENERATORS, PROB_FLOOR, f_divergence, f_divergence_grad_wrt_phat, generator, kl_divergence,
                          l1_distance, l2_distance, pinsker_gap)
from .regularizers import (PerturbationConfig, RegularizerSpec, _quadratic_form, jr_penalty, l2_vs_kl_bound_check,
                           quadratic_penalty, rpt_penalty, vat_penalty)
from . import spans as sp
from .tensor import RandomSource, frobenius_norm, gaussian_rows, gaussian_vec, log_sum_exp, softmax, spectral_norm

SUITE_NAMES = ("divergence", "jacobian", "vat", "spans")
_FALSE_ALARM = 1e-6  # chance that rpt_draw_second_moment fails on correct draws
_FD_STEP = 1e-5  # central-difference step of the parameter-FD rows
_FD_GATE = 1e-4  # relative error those rows allow
# rounding puts about 10 u / _FD_STEP (u = 2**-53, values of order one) into each
# FD entry, so a smaller largest entry cannot be resolved to _FD_GATE
_FD_SCALE_FLOOR = 10 * 2.0**-53 / (_FD_STEP * _FD_GATE)


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


def _max_row(name: str, gate: float, what: str, values, start: float = 0.0) -> PropertyResult:
    """The largest of start and values against an upper gate. A zero gate's
    slack is -worst, so an exact zero there prints slack=-0.000e+00."""
    worst = _max_or_nan(start, *values)
    return PropertyResult(name, gate - worst if gate else -worst, f"{what} = {worst:.3e}")


def _min_row(name: str, tol: float, what: str, values) -> PropertyResult:
    """The smallest of values against a lower gate of -tol."""
    worst = _min_or_nan(math.inf, *values)
    return PropertyResult(name, worst + tol, f"{what} = {worst:.3e}")


def _rows(groups, trials: int, seed: int) -> list[PropertyResult]:
    """The rows of each group in order, every group drawing from RandomSource(seed)."""
    rng = RandomSource(seed)
    return [row for group in groups for row in group(rng, trials)]


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


_DECADES = (1e-2, 1e-3, 1e-4)


def _drift_slack(ratios, floor: float) -> float:
    """Slack of r(1e-4) <= 5 max(r(1e-2), r(1e-3)) + floor for remainder ratios
    r at _DECADES. One-sided: the next-order term may vanish, or nearly cancel
    the leading one at a single t, so the ratio may fall."""
    return 5.0 * _max_or_nan(ratios[0], ratios[1]) + floor - ratios[2]


def _decade_law(values, q: float):
    """(drift slack, law slack, cubic-remainder ratio at t = 1e-3) of D(t) = t^2 q + O(t^3)
    for divergence values D(t) at _DECADES: the cubic-remainder ratios obey
    _drift_slack, and D(1e-4) / t^2 must match q to 1e-3 relative."""
    ratios = [abs(d - t * t * q) / t ** 3 for t, d in zip(_DECADES, values)]
    law = 1e-3 * max(q, 1e-9) - abs(values[2] / _DECADES[2] / _DECADES[2] - q)
    return _drift_slack(ratios, 1e-3 * max(1.0, q)), law, ratios[1]


def _decade_row(name: str, cases) -> PropertyResult:
    """One row over (kind, values at _DECADES, q) cases: the least _decade_law
    slack, and each kind of GENERATORS' mean cubic-remainder ratio."""
    law_slack = drift_slack = math.inf
    ratios = {kind: [] for kind in GENERATORS}
    for kind, values, q in cases:
        drift, law, ratio = _decade_law(values, q)
        drift_slack = _min_or_nan(drift_slack, drift)
        law_slack = _min_or_nan(law_slack, law)
        ratios[kind].append(ratio)
    return PropertyResult(name, _min_or_nan(law_slack, drift_slack), "cubic-remainder ratios " + " ".join(
        f"{kind}:{np.mean(r):.2f}" for kind, r in ratios.items()))


def _fd_param_grads(value_fn, model) -> np.ndarray:
    """Centered finite differences of value_fn over every entry of
    model.params, for any model with `params` and `with_params`.

    value_fn is called once, on the model holding the (2P, P) stack of
    params stepped up by _FD_STEP in entry k (row k) and down (row P + k),
    and returns its 2P values. Each row is a copy of params with one entry
    stepped, so a -0.0 elsewhere stays -0.0, as it does in the model alone.
    """
    p = model.params.size
    stack = np.tile(model.params, (2, p, 1))
    k = np.arange(p)
    stack[0, k, k] += _FD_STEP
    stack[1, k, k] -= _FD_STEP
    values = value_fn(model.with_params(stack.reshape(2 * p, p)))
    return (values[:p] - values[p:]) / (2 * _FD_STEP)


def _ce_at(model, x, label: int):
    """Cross-entropy of x at label, one value per slice of a stacked model."""
    return mlp.cross_entropy(mlp.forward(model, x).logits, [label])[..., 0]


def _jacobian_sq_norm_at(model, x):
    """||J||_F^2 of the posterior's input Jacobian at x, one value per slice."""
    jac = mlp.input_jacobian_batch(model, mlp.forward(model, x))
    return np.sum(jac ** 2, axis=(-2, -1))[..., 0]


def _grad_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max entry deviation of a flat analytic derivative from its FD estimate,
    relative to the largest FD entry or _FD_SCALE_FLOOR, whichever is larger."""
    scale = max(_FD_SCALE_FLOOR, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(analytic - fd))) / scale


def _fd_row(name: str, errs) -> PropertyResult:
    """One parameter-FD row: the worst _grad_rel_err of errs against _FD_GATE."""
    return _max_row(name, _FD_GATE, "max relative deviation", errs)


# ---------------------------------------------------------------- divergence

def _generator_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    gens = list(GENERATORS.values())
    unit = _max_row("generator_unit_value_zero", 0.0, "max |g(1)|",
                    (abs(float(g.g(np.asarray(1.0)))) for g in gens))

    t1, t2 = np.exp([rng.split(10, i).generator().uniform(-2.3, 2.3, size=2)
                     for i in range(max(200, trials // 5))]).T
    slack = np.stack([0.5 * (gen.g(t1) + gen.g(t2)) - gen.g(0.5 * (t1 + t2)) for gen in gens], axis=1)
    convex = _min_row("generator_convexity", 1e-12, "min midpoint slack", slack.ravel().tolist())

    h = 1e-6
    t = np.exp([rng.split(11, i).generator().uniform(-1.6, 1.6) for i in range(max(100, trials // 10))])
    errs = []
    for gen in gens:
        fd1 = (gen.g(t + h) - gen.g(t - h)) / (2 * h)
        fd2 = (gen.g_prime(t + h) - gen.g_prime(t - h)) / (2 * h)
        errs += [np.abs(fd1 - gen.g_prime(t)) / np.maximum(1.0, np.abs(fd1)),
                 np.abs(fd2 - gen.g_double_prime(t)) / np.maximum(1.0, np.abs(fd2))]
    fd = _max_row("generator_derivatives_match_fd", 1e-6, "max relative deviation",
                  np.stack(errs, axis=1).ravel().tolist())

    expected = {"KL": 1.0, "RKL": 1.0, "SHL": 0.5, "JSD": 0.25}
    curvature = _max_row("curvature_at_one", 0.0, "",
                         (abs(gen.curvature_at_one - expected[gen.kind]) for gen in gens))
    curvature.detail = "g''(1) = 1, 1, 1/2, 1/4 for KL, RKL, SHL, JSD"
    return [unit, convex, fd, curvature]


def _simplex_pair_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    gens = list(GENERATORS.values())
    min_div, max_self, kl_dev, sym_dev, adj_dev, jsd_excess, jsd_mix_dev, l1l2 = ([] for _ in range(8))
    block = max(1112, trials // 3)  # 9 blocks, >= 10k pairs total
    for m in (2, 3, 10):
        for scale in (0.5, 2.0, 6.0):
            p_hat, p = _simplex_pairs(rng.split(12, m, int(scale * 10)), block, m, scale)
            for gen in gens:
                vals = f_divergence(gen, p_hat, p)
                min_div.append(float(np.min(vals)))
                max_self.append(float(np.max(np.abs(f_divergence(gen, p, p)))))
                # identities below hold on the exact formulas; keep them where
                # the probability floor cannot touch either distribution
                if scale <= 2.0 and gen.kind in ("JSD", "SHL"):
                    sym_dev.append(float(np.max(np.abs(vals - f_divergence(gen, p, p_hat)))))
            if scale <= 2.0:
                klg = generator("KL")
                direct = np.sum(p_hat * np.log(np.maximum(p_hat, PROB_FLOOR) / np.maximum(p, PROB_FLOOR)), axis=-1)
                kl_dev.append(float(np.max(np.abs(f_divergence(klg, p_hat, p) - direct))))
                adj_dev.append(float(np.max(np.abs(
                    f_divergence(generator("RKL"), p_hat, p) - f_divergence(klg, p, p_hat)))))
                jv = f_divergence(generator("JSD"), p_hat, p)
                jsd_excess.append(float(np.max(jv)) - math.log(2.0))
                mid = 0.5 * (p_hat + p)
                mix = 0.5 * kl_divergence(p_hat, mid) + 0.5 * kl_divergence(p, mid)
                jsd_mix_dev.append(float(np.max(np.abs(jv - mix))))
            l1l2.append(float(np.min(l1_distance(p_hat, p) - l2_distance(p_hat, p))))

    # entries below the floor are out of contract; the clamp must still keep
    # every value finite instead of overflowing the logs
    extreme = [np.array([1.0, 0.0]), np.array([1.0 - 1e-16, 1e-16]), np.array([0.5, 0.5])]
    finite_ok = all(bool(np.isfinite(f_divergence(gen, a, b))) for a in extreme for b in extreme for gen in gens)
    return [
        _min_row("divergence_nonnegative", 1e-12, "min over kinds/pairs", min_div),
        PropertyResult("floor_guard_keeps_values_finite", 0.0 if finite_ok else -1.0,
                       "zero and sub-floor entries never produce inf or nan"),
        _max_row("self_divergence_exactly_zero", 0.0, "max |D(p, p)|", max_self),
        _max_row("kl_matches_direct_formula", 1e-12, "max deviation", kl_dev),
        _max_row("jsd_shl_symmetric", 1e-12, "max |D(a,b) - D(b,a)|", sym_dev),
        _max_row("kl_rkl_swap_identity", 1e-12, "max deviation", adj_dev),
        _max_row("jsd_bounded_by_ln2", 1e-12, "max D_JSD - ln 2", jsd_excess, start=-math.inf),
        _max_row("jsd_mixture_identity", 1e-12, "max deviation from the two-KL form", jsd_mix_dev),
        _min_row("l2_bounded_by_l1", 0.0, "min l1 - l2", l1l2),
    ]


def _pinsker_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    def pinsker_chunk(i):
        ph, p = _simplex_pairs(rng.split(13, i), 200, (2, 3, 10)[i % 3], (0.5, 2.0, 8.0)[i % 3])
        return float(np.min(pinsker_gap(ph, p)))

    n_chunks = max(50, (10 * max(trials, 1000)) // 200 // 10)
    return [_min_row("pinsker_inequality", 1e-12, f"min 2KL - l1^2 over {n_chunks * 200} pairs",
                     map_indexed(pinsker_chunk, n_chunks))]


def _divergence_grad_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    gens = list(GENERATORS.values())
    insts = []
    for i in range(max(100, trials // 10)):
        g = rng.split(14, i).generator()
        m = int(g.integers(2, 6))
        p_hat = softmax(g.standard_normal(m))
        p = softmax(g.standard_normal(m))
        d = g.standard_normal(m)
        insts.append((p_hat, p, d - d.mean()))  # d tangent to the simplex
    # Richardson (4 F(h/2) - F(h)) / 3 cancels the central difference's h^2
    # error, which grows like 1 / min(p_hat)^3 for RKL
    hh = 1e-6
    errs = np.empty((len(insts), len(gens)))
    for m in sorted({inst[0].size for inst in insts}):  # one stack per class count
        idx = [i for i, inst in enumerate(insts) if inst[0].size == m]
        p_hat, p, d = (np.array(a) for a in zip(*(insts[i] for i in idx)))
        pts = p_hat[:, None] + (hh * np.array([1.0, -1.0, 0.5, -0.5]))[:, None] * d[:, None]
        for j, gen in enumerate(gens):
            v = f_divergence(gen, pts, np.broadcast_to(p[:, None], pts.shape))
            fd = (4 * (v[:, 2] - v[:, 3]) / hh - (v[:, 0] - v[:, 1]) / (2 * hh)) / 3
            an = [row @ dk for row, dk in zip(f_divergence_grad_wrt_phat(gen, p_hat, p), d)]
            errs[idx, j] = np.abs(np.array(an) - fd) / np.maximum(1.0, np.abs(fd))
    return [_max_row("divergence_grad_matches_fd", 1e-6, "max relative deviation", errs.ravel().tolist())]


def divergence_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    """Rows over every generator in GENERATORS, the registry `generator` resolves."""
    return _rows((_generator_rows, _simplex_pair_rows, _pinsker_rows, _divergence_grad_rows), trials, seed)


# ------------------------------------------------------------------ jacobian

def _softmax_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    simplex_dev, shift_dev, lse_dev = [], [], []
    for i in range(max(20, trials // 50)):
        g = rng.split(20, i).generator()
        z = g.standard_normal(int(g.integers(2, 8))) * 3.0
        c = float(g.uniform(-10, 10))
        p = softmax(z)
        simplex_dev += [abs(float(p.sum()) - 1.0), -float(p.min())]
        shift_dev.append(float(np.max(np.abs(softmax(z + c) - p))))
        lse_dev.append(abs(log_sum_exp(z + c) - log_sum_exp(z) - c) / (1 + abs(c)))
    return [_max_row("softmax_on_simplex", 1e-12, "max deviation", simplex_dev),
            _max_row("softmax_shift_invariant", 1e-12, "max shift deviation", shift_dev),
            _max_row("log_sum_exp_shift", 1e-12, "max relative deviation", lse_dev)]


def _input_jacobian_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    row_sum_dev, jac_fd_err, sp_fro_slack = [], [], []
    for i in range(max(20, trials // 50)):
        model, x = _model_instance(rng.split(21), i)
        jac = mlp.input_jacobian(model, x)
        row_sum_dev.append(float(np.max(np.abs(jac.sum(axis=0)))))
        g = rng.split(21, i, 3).generator()
        d = g.standard_normal(x.size)
        d /= np.linalg.norm(d)
        h = 1e-5
        fd = (mlp.posterior(model, x + h * d) - mlp.posterior(model, x - h * d)) / (2 * h)
        # relative to ||J||_F ||d|| with ||d|| = 1: J d itself may be near zero
        fro = frobenius_norm(jac)
        jac_fd_err.append(float(np.max(np.abs(jac @ d - fd))) / fro)
        sp_fro_slack.append(fro - spectral_norm(jac))
    return [_max_row("jacobian_rows_sum_to_zero", 1e-12, "max |column sums|", row_sum_dev),
            _max_row("jacobian_matches_fd", 1e-6, "max |J d - FD| / ||J||_F", jac_fd_err),
            _min_row("spectral_le_frobenius", 1e-12, "min frobenius - spectral", sp_fro_slack)]


def _param_grad_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    ce_errs, seed_errs, jr_errs = [], [], []
    for i in range(max(50, trials // 20)):
        model, x = _model_instance(rng.split(22), i)
        g = rng.split(22, i, 5).generator()
        label = int(g.integers(model.n_classes))
        tr = mlp.forward(model, x)
        _, grads, _ = mlp.backward_ce_batch(model, tr, [label])
        fd = _fd_param_grads(lambda mm: _ce_at(mm, x, label), model)
        ce_errs.append(_grad_rel_err(grads, fd))

        s = g.standard_normal(model.n_classes)
        grads, _ = mlp.backward_scalar_of_posterior_batch(model, tr, s[None, :])
        # (S, 1, m) @ s: each slice rounds as the (m,) @ s dot of one model
        fd = _fd_param_grads(lambda mm: (mlp.forward(mm, x).posteriors @ s)[..., 0], model)
        seed_errs.append(_grad_rel_err(grads, fd))

        res = jr_penalty(model, x)
        fd = _fd_param_grads(lambda mm: _jacobian_sq_norm_at(mm, x), model)
        jr_errs.append(_grad_rel_err(res.param_grads, fd))
    return [_fd_row("ce_grads_match_fd", ce_errs),
            _fd_row("posterior_scalar_grads_match_fd", seed_errs),
            _fd_row("jacobian_norm_grads_match_fd", jr_errs)]


def _closed_form_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    devs = []
    for i in range(max(20, trials // 50)):
        g = rng.split(23, i).generator()
        n_in, m = int(g.integers(2, 5)), int(g.integers(2, 5))
        model = _random_model(rng.split(23, i, 1), n_in, (), m)
        x = gaussian_vec(rng.split(23, i, 2), n_in)
        p = mlp.posterior(model, x)
        closed = (np.diag(p) - np.outer(p, p)) @ model.weights[0]
        devs.append(float(np.max(np.abs(mlp.input_jacobian(model, x) - closed))))
    return [_max_row("single_layer_jacobian_closed_form", 1e-12, "max deviation", devs)]


def _taylor_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    slacks = []
    for i in range(max(20, trials // 50)):
        model, x = _model_instance(rng.split(24), i)
        eps = gaussian_vec(rng.split(24, i, 3), x.size)
        eps /= np.linalg.norm(eps)
        jac = mlp.input_jacobian(model, x)
        p = mlp.posterior(model, x)
        rems = [np.linalg.norm(mlp.posterior(model, x + t * eps) - p - t * (jac @ eps)) / t / t
                for t in _DECADES]
        slacks.append(_drift_slack(rems, 1e-6))
    return [_min_row("posterior_taylor_remainder_quadratic", 0.0, "min one-sided slack", slacks)]


def _chain_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    n_chain = max(50, trials)

    def chain_point(i):
        model, x = _model_instance(rng.split(25), i)
        return l2_vs_kl_bound_check(model, x, radius=0.1, trials=5, rng=rng.split(25, i, 9))

    return [_min_row("distance_and_jacobian_chains", 1e-10, f"min slack across links over {n_chain} points",
                     map_indexed(chain_point, n_chain))]


def _second_order_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    cases = []
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        for i in range(max(25, trials // 10)):
            # split on the kind's position, not hash(kind): str hashes are
            # salted per process and would break cross-run determinism
            model, x, eps, q = _second_order_instance(rng.split(26, ki), i)
            p = mlp.posterior(model, x)
            cases.append((kind, [f_divergence(gen, mlp.posterior(model, x + t * eps), p) for t in _DECADES], q[kind]))
    return [_decade_row("second_order_law_decades", cases)]


def _zero_perturbation_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    devs = []
    for gen in GENERATORS.values():
        model, x = _model_instance(rng.split(27), 0)
        p = mlp.posterior(model, x)
        devs += [abs(f_divergence(gen, p, p)), abs(quadratic_penalty(model, x, gen, np.zeros(x.size)))]
    return [_max_row("penalty_zero_at_zero_perturbation", 0.0, "max |D(0)| and |Q(0)|", devs)]


def jacobian_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    return _rows((_softmax_rows, _input_jacobian_rows, _param_grad_rows, _closed_form_rows, _taylor_rows,
                  _chain_rows, _second_order_rows, _zero_perturbation_rows), trials, seed)


def _steep_boundary_instance(rng: RandomSource, i: int):
    """Binary classifier with strong logit gain, input near its boundary."""
    shapes = ((2, (5,), 2), (3, (6,), 2), (4, (5, 4), 2))
    n_in, hidden, m = shapes[i % 3]
    base = _random_model(rng.split(i), n_in, hidden, m)
    model = mlp.MlpModel(base.layer_dims, mlp.pack_params(
        base.layer_dims, [w * 10.0 for w in base.weights], [b * 0.5 for b in base.biases]))
    cands = gaussian_rows(rng.split(i, 7).split_rows(np.arange(400)), n_in)
    ok = np.flatnonzero(mlp.forward_batch(model, cands).posteriors.min(axis=1) > 0.25)
    return (model, cands[ok[0]]) if ok.size else (None, None)


def _second_order_instance(rng: RandomSource, i: int):
    """(model, x, unit eps, quadratic values per kind) with a well-sized form."""
    for attempt in range(50):
        model, x = _model_instance(rng.split(i, attempt), i)
        eps = gaussian_vec(rng.split(i, attempt, 1), x.size)
        eps /= np.linalg.norm(eps)
        tr = mlp.forward(model, x)
        dz = mlp._tangent(model, tr, eps[None, :])
        q = {kind: _quadratic_form(gen, tr.posteriors, dz) for kind, gen in GENERATORS.items()}
        if min(q.values()) > 1e-3:
            return model, x, eps, q
    raise RuntimeError("could not draw a non-degenerate quadratic form")




# ----------------------------------------------------------------------- vat

def _rpt_radius_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    values = []
    for i in range(20):
        model, x = _model_instance(rng.split(30), i)
        spec = RegularizerSpec("rpt", "KL", perturbation=PerturbationConfig(radius=1e-8))
        values.append(rpt_penalty(model, x, spec, rng.split(30, i, 1)).value)
    return [_max_row("rpt_vanishes_with_radius", 1e-10, "max value at radius 1e-8", values)]


def _rpt_mean_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    # D(eps) = Q(eps) + O(c^3) for the quadratic form Q, whose mean over the
    # draws is `expected` exactly. So mean(D - Q) + E[Q] estimates E[D]
    # without the sampling noise of Q, which alone can exceed the 10% gate.
    mc_errs = []
    sq_norms = 0.0
    dof = 0
    c = 1e-3
    n_draws = max(1000, trials)
    for i, kind in enumerate(("KL", "JSD", "SHL")):
        model, x, eps, _ = _second_order_instance(rng.split(31), i)
        tr = mlp.forward(model, x)
        jac = mlp.input_jacobian(model, x)
        f = np.maximum(tr.posteriors[0], PROB_FLOOR)
        trace = float(np.sum(jac * jac / f[:, None]))
        gen = GENERATORS[kind]
        expected = 0.5 * gen.curvature_at_one * c * c * trace
        spec = RegularizerSpec(
            "rpt", kind,
            perturbation=PerturbationConfig(radius=c, samples_per_example=n_draws))
        src = rng.split(31, i, 8)
        mc = rpt_penalty(model, x, spec, src).value
        draws = gaussian_rows(src.split_rows(np.arange(n_draws)), x.size, c)  # rpt_penalty's draws
        dz = mlp._tangent(model, tr, draws[:, None, :])  # one-row tangents, stacked
        q_mean = _quadratic_form(gen, tr.posteriors, dz) / n_draws
        estimate = mc - q_mean + expected
        mc_errs.append(abs(estimate - expected) / expected)
        sq_norms += float(np.sum(draws * draws)) / (c * c)
        dof += draws.size

    # D and Q share the draws, so a wrong draw scale moves both and the control
    # variate cannot see it. The squared norms over c^2 are chi-square with
    # `dof` degrees of freedom; by the Wilson-Hilferty approximation z below is
    # standard normal, and the row fails when its two-sided p-value is under
    # _FALSE_ALARM, which correct draws do with that probability.
    z = ((sq_norms / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return [_max_row("rpt_mean_matches_quadratic_trace", 0.10,
                     f"max relative deviation of {n_draws}-draw control-variate means", mc_errs),
            PropertyResult("rpt_draw_second_moment", p_value - _FALSE_ALARM,
                           f"sum |eps|^2 / c^2 = {sq_norms:.1f} over {dof} dof, z = {z:+.2f}, "
                           f"two-sided p = {p_value:.2e}")]


def _vat_ascent_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    def vat_pair(i):
        model, x = _model_instance(rng.split(32), i)
        pert = PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01)
        src = rng.split(32, i, 2)
        found = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert), src).value
        pert0 = PerturbationConfig(radius=0.1, ascent_steps=0, step_size=0.01)
        init = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert0), src).value
        return found, init

    n_tr = max(1000, trials)
    frac = sum(1 for f, i0 in map_indexed(vat_pair, n_tr) if f >= i0) / n_tr
    return [PropertyResult("vat_beats_initial_draw", frac - 0.95, f"ascent won in {frac:.1%} of {n_tr} trials")]


def _vat_vs_rpt_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
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
    return [PropertyResult("vat_mean_exceeds_rpt_mean", v_mean - r_mean,
                           f"mean found {v_mean:.3e} vs random {r_mean:.3e} over {len(pairs)} pairs")]


def _vat_zero_step_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    devs = []
    for i in range(20):
        model, x = _model_instance(rng.split(34), i)
        src = rng.split(34, i, 2)
        pert0 = PerturbationConfig(radius=0.05, ascent_steps=0)
        v0 = vat_penalty(model, x, RegularizerSpec("vat", "SHL", perturbation=pert0), src)
        delta = gaussian_vec(src.split(0), x.size, pert0.init_std)
        # normalize exactly as _project does; np.linalg.norm can differ by an ulp
        delta = pert0.radius * delta / np.sqrt(np.sum(delta * delta))
        direct = f_divergence(GENERATORS["SHL"], mlp.posterior(model, x + delta), mlp.posterior(model, x))
        devs.append(abs(v0.value - direct))
    return [_max_row("vat_zero_steps_is_projected_draw", 0.0, "max |difference|", devs)]


def _penalty_grad_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    rpt_errs, vat_errs = [], []
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
                q = mlp.posterior(mm, x + eps)
                return f_divergence(gen, q, np.broadcast_to(p_clean, q.shape))

            rpt_errs.append(_grad_rel_err(res.param_grads, _fd_param_grads(frozen, model)))

            vspec = RegularizerSpec("vat", kind,
                                    perturbation=PerturbationConfig(radius=0.2, ascent_steps=2))
            vres = vat_penalty(model, x, vspec, src)
            fd = _fd_param_grads(lambda mm: frozen(mm, eps=vres.adversarial_direction), model)
            vat_errs.append(_grad_rel_err(vres.param_grads, fd))
    return [_fd_row("rpt_grads_match_fd", rpt_errs), _fd_row("vat_grads_match_fd", vat_errs)]


def vat_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    return _rows((_rpt_radius_rows, _rpt_mean_rows, _vat_ascent_rows, _vat_vs_rpt_rows, _vat_zero_step_rows,
                  _penalty_grad_rows), trials, seed)


# --------------------------------------------------------------------- spans

def _random_span_model(rng: RandomSource, n_feat=3, hidden=(6,), d=4) -> sp.SpanModel:
    base = sp.init_span_model((n_feat, *hidden, d), rng)
    n_enc = mlp.n_params(base.enc_dims)
    # rescale to generic size: the encoder by 1.3 (its biases start at zero),
    # the two scorers by 2
    return base.with_params(np.concatenate([base.params[:n_enc] * 1.3, base.params[n_enc:] * 2.0]))


def _span_table_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    joint_dev, perm_dev = [], []
    for i in range(max(50, trials // 20)):
        model = _random_span_model(rng.split(40, i))
        g = rng.split(40, i, 1).generator()
        t = int(g.integers(2, 9))
        feats = g.standard_normal((t, model.n_features))
        joint_dev.append(abs(float(sp.joint_span_table(model, feats).sum()) - 1.0))
        perm = g.permutation(t)
        probs = sp.span_distributions(model, feats)
        perm_dev.append(float(np.max(np.abs(sp.span_distributions(model, feats[perm]) - probs[:, perm]))))
    return [_max_row("joint_span_table_normalizes", 1e-12, "max |sum - 1|", joint_dev),
            _max_row("position_permutation_equivariance", 1e-12, "max deviation", perm_dev)]


def _zero_scorer_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    model = _random_span_model(rng.split(41))
    n_enc = mlp.n_params(model.enc_dims)
    zero = model.with_params(np.concatenate([model.params[:n_enc], np.zeros(model.scorers.size)]))
    g = rng.split(41, 1).generator()
    t = 6
    feats = g.standard_normal((t, model.n_features))
    unif_dev = float(np.max(np.abs(sp.span_distributions(zero, feats) - 1.0 / t)))
    loss, _ = sp.span_loss(zero, feats, 2, 4)
    loss_dev = abs(loss - 2.0 * math.log(t))
    row = _max_row("zero_scorers_give_uniform", 1e-12, "", (unif_dev, loss_dev))
    row.detail = f"uniform dev {unif_dev:.2e}, loss dev {loss_dev:.2e}"
    return [row]


def _span_penalty_sum_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    devs = []
    for i in range(max(50, trials // 20)):
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
        devs.append(abs(res.value - float(np.sum(terms))))
    return [_max_row("penalty_adds_begin_and_end_terms", 1e-12, "max deviation", devs)]


def _span_decade_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    cases = []
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        for i in range(max(10, trials // 40)):
            model = _random_span_model(rng.split(43, i))
            # positional split keeps draws stable across processes
            g = rng.split(43, i, ki).generator()
            feats = g.standard_normal((5, model.n_features))
            eps = g.standard_normal(feats.shape)
            eps /= np.sqrt(np.sum(eps * eps))
            q = sp.span_quadratic_penalty(model, feats, gen, eps)
            if q < 1e-3:
                continue
            probs = sp.span_forward(model, feats).probs
            cases.append((kind, [float(np.sum(f_divergence(gen, sp.span_forward(model, feats + t * eps).probs, probs)))
                                 for t in _DECADES], q))
    return [_decade_row("span_second_order_law_decades", cases)]


def _span_grad_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    loss_errs, pen_errs = [], []
    for i in range(max(25, trials // 40)):
        model = _random_span_model(rng.split(44, i), hidden=(4,), d=3)
        g = rng.split(44, i, 1).generator()
        t = 4
        feats = g.standard_normal((t, model.n_features))
        start, end = int(g.integers(t)), int(g.integers(t))
        _, grads = sp.span_loss(model, feats, start, end)
        fd = _fd_param_grads(
            lambda mm: mlp.cross_entropy(sp.span_forward(mm, feats).scores, [start, end]).sum(axis=-1), model)
        loss_errs.append(_grad_rel_err(grads, fd))

        spec = RegularizerSpec("vat", "KL",
                               perturbation=PerturbationConfig(radius=0.3, ascent_steps=1))
        src = rng.split(44, i, 2)
        res = sp.span_penalty(model, feats, spec, src)
        p_clean = sp.span_distributions(model, feats)
        delta = res.adversarial_direction

        def frozen(mm):
            q = sp.span_forward(mm, feats + delta).probs
            return np.sum(f_divergence(GENERATORS["KL"], q, np.broadcast_to(p_clean, q.shape)), axis=-1)

        pen_errs.append(_grad_rel_err(res.param_grads, _fd_param_grads(frozen, model)))
    return [_fd_row("span_loss_grads_match_fd", loss_errs), _fd_row("span_penalty_grads_match_fd", pen_errs)]


def _loss_step_rows(rng: RandomSource, trials: int) -> list[PropertyResult]:
    model = _random_span_model(rng.split(45))
    g = rng.split(45, 1).generator()
    feats = g.standard_normal((5, model.n_features))
    loss0, grads = sp.span_loss(model, feats, 1, 3)
    stepped = sp.apply_span_update(model, grads, 1e-3)
    loss1, _ = sp.span_loss(stepped, feats, 1, 3)
    # the decrease must be strict, so equal losses get the negative float nearest zero
    drop = loss0 - loss1 if loss1 != loss0 else math.nextafter(0.0, -1.0)
    return [PropertyResult("loss_step_decreases", drop, f"{loss0:.6f} -> {loss1:.6f}")]


def spans_suite(trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    return _rows((_span_table_rows, _zero_scorer_rows, _span_penalty_sum_rows, _span_decade_rows, _span_grad_rows,
                  _loss_step_rows), trials, seed)


def run_suite(name: str, trials: int = 1000, seed: int = 1) -> list[PropertyResult]:
    mlp._check_int(trials, "trials", 1, math.inf)
    mlp._check_int(seed, "seed", 0, 1 << 64)
    if name not in SUITE_NAMES + ("all",):
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    # looked up at call time, so a traced or patched suite is the one that runs
    return [r for suite in (SUITE_NAMES if name == "all" else (name,))
            for r in globals()[f"{suite}_suite"](trials, seed)]
