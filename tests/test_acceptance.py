"""End-to-end acceptance checks, one verdict line per shipping requirement.

Each test prints a single PASS/FAIL line with the measured quantities; the
assert repeats the line so failures carry the same detail. Tests 06-08
re-run frozen training protocols whose hyperparameters were fixed once by a
calibration run; the calibrated reference means sit in comments next to the
constants so drift is easy to diagnose. Before their verdicts they print
each seed's paired accuracy difference, since a gap between means can sit
well inside seed noise, with its mean and the exact p-value of a paired
sign-flip test. Everything here is deterministic in the seeds written below.
"""

import dataclasses
import functools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab import properties as props
from pdrlab import spans as sp
from pdrlab.cli import main as cli_main
from pdrlab.data import make_spurious_pair, make_two_moons, withhold_labels
from pdrlab.divergences import GENERATORS, PROB_FLOOR, f_divergence, generator
from pdrlab.regularizers import (
    PerturbationConfig,
    RegularizerSpec,
    jr_penalty,
    l2_vs_kl_bound_check,
    quadratic_penalty,
    rpt_penalty,
    vat_penalty,
)
from pdrlab.tensor import RandomSource, gaussian_vec
from pdrlab.trainer import TrainConfig, evaluate, init_model_for, train


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _sign_flip_p(diff, one_sided=False) -> float:
    """Exact p-value of the paired sign-flip randomization test that diff is
    centred on 0: the share of all 2^k sign patterns of its k entries whose sum
    reaches the observed sum, in absolute value, or from above when one_sided
    (Fisher 1935). It enumerates the patterns and draws no random number."""
    d = np.asarray(diff, dtype=np.float64)
    signs = 1 - 2 * ((np.arange(2 ** d.size)[:, None] >> np.arange(d.size)) & 1)
    sums, total = signs @ d, d.sum()
    tol = 1e-9 * (1.0 + np.abs(d).sum())  # a pattern that ties the observed sum may round below it
    return float(np.mean(sums >= total - tol if one_sided else np.abs(sums) >= abs(total) - tol))


def _paired(num: int, label: str, accs, base, margin=None):
    """Print accs - base per seed in percentage points, on how many seeds accs
    wins, ties and loses, the mean difference and its two-sided sign-flip p.
    A margin claim, accs >= base + margin pp with a signed margin, also gets
    the one-sided p of the differences minus the margin."""
    diff = 100 * (np.asarray(accs) - np.asarray(base))
    wins, ties = int(np.sum(diff > 0)), int(np.sum(diff == 0))
    line = (f"criterion {num:02d} paired {label}, pp by seed: " + " ".join(f"{d:+.2f}" for d in diff)
            + f"; wins/ties/losses {wins}/{ties}/{diff.size - wins - ties}"
            + f"; mean {np.mean(diff):+.2f} pp, two-sided p {_sign_flip_p(diff):.3f}")
    if margin is not None:
        line += f"; one-sided p of >= {margin:+g} pp {_sign_flip_p(diff - margin, one_sided=True):.3f}"
    print(line)


@pytest.mark.parametrize("diff, two_sided, one_sided", [
    ([0.5] * 10, 2 / 1024, 1 / 1024),  # every pattern but all-plus and all-minus sums lower
    ([1.0, 2.0, 3.0], 2 / 8, 1 / 8),
    ([3.0, -1.0], 1.0, 2 / 4),  # sums 2, 4, -4, -2 against the observed 2
    ([0.0] * 4, 1.0, 1.0),
    ([0.1, 0.2, -0.3], 1.0, 5 / 8),  # the sum rounds to 5.6e-17, yet (-0.1, -0.2, 0.3) ties it
])
def test_sign_flip_p_values(diff, two_sided, one_sided):
    assert _sign_flip_p(diff) == two_sided
    assert _sign_flip_p(diff, one_sided=True) == one_sided


@pytest.mark.parametrize("margin, label, p", [(-0.5, ">= -0.5 pp", 1 / 8), (-1, ">= -1 pp", 1 / 8),
                                              (5, ">= +5 pp", 1.0)])
def test_paired_line_tests_its_signed_margin(capsys, margin, label, p):
    # differences 2, 3 and 4 pp: minus -0.5 or -1 every one stays positive;
    # minus 5 they are -3, -2 and -1, which every sign pattern reaches
    _paired(7, "A - B", [0.52, 0.53, 0.54], [0.5, 0.5, 0.5], margin=margin)
    assert capsys.readouterr().out.rstrip().endswith(f"; one-sided p of {label} {p:.3f}")


# ------------------------------------------------------------------------ 01

def test_criterion_01_divergence_identities():
    t0 = time.time()
    rng = RandomSource(101)
    gens = list(GENERATORS.values())
    klg = generator("KL")
    min_div = math.inf
    max_self = 0.0
    kl_dev = 0.0
    sym_dev = 0.0
    jsd_excess = -math.inf
    n_pairs = 0
    for m in (2, 3, 10):
        p_hat, p = props._simplex_pairs(rng.split(m), 3334, m, 2.0)
        n_pairs += p.shape[0]
        direct = np.sum(p_hat * np.log(p_hat / p), axis=-1)
        kl_dev = props._max_or_nan(kl_dev, float(np.max(np.abs(f_divergence(klg, p_hat, p) - direct))))
        for gen in gens:
            vals = f_divergence(gen, p_hat, p)
            min_div = props._min_or_nan(min_div, float(np.min(vals)))
            max_self = props._max_or_nan(max_self, float(np.max(np.abs(f_divergence(gen, p, p)))))
            if gen.kind in ("JSD", "SHL"):
                sym_dev = props._max_or_nan(sym_dev, float(np.max(np.abs(vals - f_divergence(gen, p, p_hat)))))
            if gen.kind == "JSD":
                jsd_excess = props._max_or_nan(jsd_excess, float(np.max(vals)) - math.log(2.0))
    elapsed = time.time() - t0
    ok = (min_div >= -1e-12 and max_self == 0.0 and kl_dev <= 1e-12
          and jsd_excess <= 1e-12 and sym_dev <= 1e-12 and elapsed < 10.0)
    _verdict(1, "divergence identities", ok,
             f"{n_pairs} pairs x 4 kinds: min D {min_div:.1e}, self-D max {max_self:.1e}, "
             f"KL formula dev {kl_dev:.1e}, symmetry dev {sym_dev:.1e}, "
             f"JSD excess over ln2 {jsd_excess:.1e}, {elapsed:.1f}s")


# ------------------------------------------------------------------------ 02

def test_criterion_02_distance_and_jacobian_chains():
    t0 = time.time()
    rng = RandomSource(102)
    worst = math.inf
    for i in range(1000):
        model, x = props._model_instance(rng, i)
        slack = l2_vs_kl_bound_check(model, x, radius=0.1, trials=1, rng=rng.split(9, i))
        worst = props._min_or_nan(worst, slack)  # Python's min would drop a NaN slack
    elapsed = time.time() - t0
    ok = worst >= -1e-10 and elapsed < 60.0
    _verdict(2, "distance and jacobian chains", ok,
             f"1000 pairs at radius 0.1: min link slack {worst:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------------------ 03

def test_criterion_03_second_order_decade_law():
    t0 = time.time()
    base = RandomSource(103)
    law_slack = math.inf
    drift_slack = math.inf
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        rng = base.split(ki)
        for i in range(100):
            model, x, eps, q = props._second_order_instance(rng, i)
            p = mlp.posterior(model, x)
            values = [f_divergence(gen, mlp.posterior(model, x + t * eps), p) for t in props._DECADES]
            # boundedness is one-sided: the remainder ratio may shrink as the cubic term vanishes
            drift, law, _ = props._decade_law(values, q[kind])
            drift_slack = props._min_or_nan(drift_slack, drift)
            law_slack = props._min_or_nan(law_slack, law)
    elapsed = time.time() - t0
    ok = law_slack >= 0 and drift_slack >= 0 and elapsed < 120.0
    _verdict(3, "second-order decade law", ok,
             f"100 triples x 4 kinds: law slack {law_slack:.3e}, "
             f"boundedness slack {drift_slack:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------------------ 04

def test_criterion_04_gradient_paths_match_finite_differences():
    t0 = time.time()
    rng = RandomSource(104)
    errs = {}

    worst_ce = 0.0
    worst_jr = 0.0
    for i in range(50):
        model, x = props._model_instance(rng.split(1), i)
        g = rng.split(1, i, 5).generator()
        label = int(g.integers(model.n_classes))
        _, grads, _ = mlp.backward_ce_batch(model, mlp.forward(model, x), [label])
        fd = props._fd_param_grads(lambda mm: props._ce_at(mm, x, label), model)
        worst_ce = props._max_or_nan(worst_ce, props._grad_rel_err(grads, fd))

        res = jr_penalty(model, x)
        fd = props._fd_param_grads(lambda mm: props._jacobian_sq_norm_at(mm, x), model)
        worst_jr = props._max_or_nan(worst_jr, props._grad_rel_err(res.param_grads, fd))
    errs["ce"] = worst_ce
    errs["jr"] = worst_jr

    worst_rpt = 0.0
    worst_vat = 0.0
    for i in range(25):
        model, x = props._model_instance(rng.split(2), i)
        src = rng.split(2, i, 2)
        for kind in ("KL", "JSD"):
            gen = GENERATORS[kind]
            p_clean = mlp.posterior(model, x)

            def frozen(mm, eps):
                qv = mlp.posterior(mm, x + eps)  # one row per stacked model
                ratio = np.maximum(qv, PROB_FLOOR) / np.maximum(p_clean, PROB_FLOOR)
                return np.sum(p_clean * gen.g(ratio), axis=-1)

            spec = RegularizerSpec("rpt", kind, perturbation=PerturbationConfig(radius=0.2))
            res = rpt_penalty(model, x, spec, src)
            eps = gaussian_vec(src.split(0), x.size, 0.2)
            fd = props._fd_param_grads(lambda mm: frozen(mm, eps), model)
            worst_rpt = props._max_or_nan(worst_rpt, props._grad_rel_err(res.param_grads, fd))

            vspec = RegularizerSpec("vat", kind,
                                    perturbation=PerturbationConfig(radius=0.2, ascent_steps=2))
            vres = vat_penalty(model, x, vspec, src)
            fd = props._fd_param_grads(
                lambda mm: frozen(mm, vres.adversarial_direction), model)
            worst_vat = props._max_or_nan(worst_vat, props._grad_rel_err(vres.param_grads, fd))
    errs["rpt"] = worst_rpt
    errs["vat"] = worst_vat

    worst_sl = 0.0
    worst_sp = 0.0
    for i in range(25):
        model = props._random_span_model(rng.split(3, i), hidden=(4,), d=3)
        g = rng.split(3, i, 1).generator()
        feats = g.standard_normal((4, model.n_features))
        start, end = int(g.integers(4)), int(g.integers(4))
        _, grads = sp.span_loss(model, feats, start, end)
        fd = props._fd_param_grads(
            lambda mm: mlp.cross_entropy(sp.span_forward(mm, feats).scores, [start, end]).sum(axis=-1), model)
        worst_sl = props._max_or_nan(worst_sl, props._grad_rel_err(grads, fd))

        src = rng.split(3, i, 2)
        p_b, p_e = sp.span_distributions(model, feats)
        for mkind in ("rpt", "vat"):
            spec = RegularizerSpec(mkind, "KL",
                                   perturbation=PerturbationConfig(radius=0.3, ascent_steps=1))
            res = sp.span_penalty(model, feats, spec, src)
            # rpt has no search, so replay its draw stream for the frozen eps
            delta = (res.adversarial_direction if mkind == "vat"
                     else gaussian_vec(src.split(0), feats.size, 0.3).reshape(feats.shape))
            gen = GENERATORS["KL"]

            def frozen_span(mm):
                probs = sp.span_forward(mm, feats + delta).probs  # (S, 2, T) for a stack
                rb = np.maximum(probs[..., 0, :], PROB_FLOOR) / np.maximum(p_b, PROB_FLOOR)
                re = np.maximum(probs[..., 1, :], PROB_FLOOR) / np.maximum(p_e, PROB_FLOOR)
                return np.sum(p_b * gen.g(rb), axis=-1) + np.sum(p_e * gen.g(re), axis=-1)

            fd = props._fd_param_grads(frozen_span, model)
            worst_sp = props._max_or_nan(worst_sp, props._grad_rel_err(res.param_grads, fd))
    errs["span_loss"] = worst_sl
    errs["span_penalty"] = worst_sp

    elapsed = time.time() - t0
    ok = all(v < 1e-4 for v in errs.values()) and elapsed < 120.0
    _verdict(4, "gradient paths vs finite differences", ok,
             ", ".join(f"{k} {v:.1e}" for k, v in errs.items()) + f", {elapsed:.1f}s")


# ------------------------------------------------------------------------ 05

def test_criterion_05_adversarial_search_dominance():
    t0 = time.time()
    rng = RandomSource(105)
    pert = PerturbationConfig(radius=0.1, ascent_steps=1, step_size=0.01)
    pert0 = PerturbationConfig(radius=0.1, ascent_steps=0, step_size=0.01)
    wins = 0
    for i in range(1000):
        model, x = props._model_instance(rng.split(1), i)
        src = rng.split(1, i, 2)
        found = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert), src).value
        init = vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert0), src).value
        wins += found >= init

    # paired means live on steep binary boundaries, where the searched
    # direction is structurally better than an isotropic draw
    v_vals, r_vals = [], []
    i = 0
    while len(v_vals) < 200:
        model, x = props._steep_boundary_instance(rng.split(2), i)
        src = rng.split(2, i, 2)
        i += 1
        if model is None:
            continue
        v_vals.append(vat_penalty(model, x, RegularizerSpec("vat", "KL", perturbation=pert), src).value)
        r_vals.append(rpt_penalty(model, x, RegularizerSpec("rpt", "KL", perturbation=pert), src).value)
    v_mean, r_mean = float(np.mean(v_vals)), float(np.mean(r_vals))

    elapsed = time.time() - t0
    ok = wins >= 950 and v_mean >= r_mean and elapsed < 60.0
    _verdict(5, "adversarial search dominance", ok,
             f"search >= initial draw in {wins}/1000, mean found {v_mean:.3e} vs "
             f"mean random {r_mean:.3e} over 200 pairs, {elapsed:.1f}s")


# --------------------------------------------------------------------- 06-08
# Frozen trend protocols. Hyperparameters were calibrated once and must not
# be retuned here; thresholds are the shipped requirements. alpha scales
# inversely with the generator curvature g''(1) so every variant applies the
# same effective second-order strength (KL: 1, JSD: 1/4).

_TREND_EPOCHS = 600
_TREND_LR = 0.05
_TREND_HIDDEN = (64,)
_TREND_BATCH = 32
_TREND_RADIUS = 0.3
_TREND_ALPHA_KL = 0.5
_TREND_ALPHA_JSD = 2.0
_TREND_SEEDS = range(1, 11)


def _trend_pert():
    return PerturbationConfig(radius=_TREND_RADIUS, ascent_steps=1,
                              step_size=_TREND_RADIUS / 10, init_std=1e-5,
                              samples_per_example=1)


def _trend_variants():
    return {
        "STD": RegularizerSpec(kind="none"),
        "RPT_KL": RegularizerSpec("rpt", "KL", alpha=_TREND_ALPHA_KL, perturbation=_trend_pert()),
        "RPT_JSD": RegularizerSpec("rpt", "JSD", alpha=_TREND_ALPHA_JSD, perturbation=_trend_pert()),
        "VAT_KL": RegularizerSpec("vat", "KL", alpha=_TREND_ALPHA_KL, perturbation=_trend_pert()),
        "VAT_JSD": RegularizerSpec("vat", "JSD", alpha=_TREND_ALPHA_JSD, perturbation=_trend_pert()),
    }


def _train_moons(spec, seed, ds=None):
    data = make_two_moons(200, 0.25, seed=seed) if ds is None else ds
    cfg = TrainConfig(epochs=_TREND_EPOCHS, batch_size=_TREND_BATCH, seed=seed,
                      learning_rate=_TREND_LR, regularizer=spec)
    run = train(init_model_for(data, _TREND_HIDDEN, seed=seed), data, cfg)
    test = make_two_moons(1000, 0.25, seed=1000 + seed)
    return evaluate(run.model, test).accuracy


@functools.lru_cache(maxsize=None)
def _trend_accuracy(spec, seed):
    """Test accuracy of one criterion-06 run; criterion 08's fully labeled STD
    baseline is the same run (same data, init seed and config), so it is shared."""
    return _train_moons(spec, seed)


def test_criterion_06_in_domain_trend():
    # calibrated means: STD 92.21, RPT_KL 93.07, RPT_JSD 93.35,
    #                   VAT_KL 93.29, VAT_JSD 93.85
    t0 = time.time()
    accs = {name: [_trend_accuracy(spec, s) for s in _TREND_SEEDS]
            for name, spec in _trend_variants().items()}
    means = {name: float(np.mean(a)) for name, a in accs.items()}
    elapsed = time.time() - t0
    others = {k: v for k, v in means.items() if k != "STD"}
    for name in others:
        _paired(6, f"{name} - STD", accs[name], accs["STD"], margin=-0.5)
    _paired(6, "VAT_JSD - VAT_KL", accs["VAT_JSD"], accs["VAT_KL"], margin=-0.5)
    ok = (means["VAT_JSD"] >= means["VAT_KL"] - 0.005
          and min(others.values()) >= means["STD"] - 0.005
          and max(others.values()) >= means["STD"] + 0.01
          and elapsed < 600.0)
    _verdict(6, "in-domain trend", ok,
             ", ".join(f"{k} {100 * v:.2f}" for k, v in means.items()) + f", {elapsed:.0f}s")


def test_criterion_07_spurious_bias_robustness():
    # calibrated means on the inverted-shortcut split: STD 0.00, VAT_KL 50.70;
    # the radius must span the +/-1 shortcut gap or the 1-step search never
    # sees the cliff (gradient masking on the saturated shortcut posterior)
    t0 = time.time()
    vat_spec = RegularizerSpec("vat", "KL", alpha=1.0,
                               perturbation=PerturbationConfig(radius=2.0, ascent_steps=1,
                                                               step_size=0.2, init_std=1e-5,
                                                               samples_per_example=1))
    accs = {"STD": [], "VAT_KL": []}
    for s in _TREND_SEEDS:
        tr, ev = make_spurious_pair(400, 0.05, seed=s)
        for name, spec in (("STD", RegularizerSpec(kind="none")), ("VAT_KL", vat_spec)):
            cfg = TrainConfig(epochs=150, batch_size=32, seed=s, learning_rate=0.02,
                              regularizer=spec)
            run = train(init_model_for(tr, (16,), seed=s), tr, cfg)
            accs[name].append(evaluate(run.model, ev).accuracy)
    std, vat = float(np.mean(accs["STD"])), float(np.mean(accs["VAT_KL"]))
    elapsed = time.time() - t0
    ok = vat >= std + 0.05 and elapsed < 600.0
    _paired(7, "VAT_KL - STD", accs["VAT_KL"], accs["STD"], margin=5)
    _verdict(7, "spurious-bias robustness", ok,
             f"adversarial-eval STD {100 * std:.2f} vs VAT_KL {100 * vat:.2f}, {elapsed:.0f}s")


def test_criterion_08_semi_supervised_matches_fully_labeled():
    # calibrated means: STD fully labeled 92.21, VAT_KL half labels 93.04,
    # VAT_JSD half labels 92.90; the penalty covers unlabeled rows, so the
    # best VAT run must land within 1pp of (here: above) the labeled baseline
    # (its STD runs are criterion 06's, shared through _trend_accuracy)
    t0 = time.time()
    std_accs, kl_accs, jsd_accs = [], [], []
    for s in _TREND_SEEDS:
        ds = make_two_moons(200, 0.25, seed=s)
        semi = withhold_labels(ds, 0.5, seed=s)
        std_accs.append(_trend_accuracy(RegularizerSpec(kind="none"), s))
        kl_accs.append(_train_moons(
            RegularizerSpec("vat", "KL", alpha=_TREND_ALPHA_KL, perturbation=_trend_pert()),
            s, ds=semi))
        jsd_accs.append(_train_moons(
            RegularizerSpec("vat", "JSD", alpha=_TREND_ALPHA_JSD, perturbation=_trend_pert()),
            s, ds=semi))
    std = float(np.mean(std_accs))
    best = max(float(np.mean(kl_accs)), float(np.mean(jsd_accs)))
    elapsed = time.time() - t0
    ok = best >= std - 0.01 and elapsed < 600.0
    _paired(8, "VAT_KL half labels - STD", kl_accs, std_accs, margin=-1)
    _paired(8, "VAT_JSD half labels - STD", jsd_accs, std_accs, margin=-1)
    _verdict(8, "semi-supervised vs fully labeled", ok,
             f"best VAT at half labels {100 * best:.2f} vs fully labeled STD {100 * std:.2f}, "
             f"{elapsed:.0f}s")


# ------------------------------------------------------------------------ 09

def test_criterion_09_byte_identical_determinism(tmp_path):
    t0 = time.time()
    data = tmp_path / "moons.csv"
    assert cli_main(["gen-data", "two-moons", "--n", "60", "--noise", "0.2",
                     "--seed", "7", "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data}\nseed = 5\nepochs = 3\nbatch_size = 16\n"
                   "model.hidden = 8\nregularizer.kind = vat\n"
                   "regularizer.divergence = JSD\nregularizer.alpha = 0.5\n")

    blobs = []
    for tag in ("a", "b"):
        m = tmp_path / f"model_{tag}.json"
        mx = tmp_path / f"metrics_{tag}.json"
        r = subprocess.run([sys.executable, "-m", "pdrlab.cli", "train", "--config", str(cfg),
                            "--quiet", "--deterministic-output",
                            "--model-out", str(m), "--metrics-out", str(mx)],
                           capture_output=True)
        assert r.returncode == 0, r.stderr.decode()
        blobs.append((m.read_bytes(), mx.read_bytes()))
    train_same = blobs[0] == blobs[1]

    # verify must be stable across separate processes too (fresh hash salt)
    outs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "pdrlab.cli", "verify", "--suite", "all",
                            "--trials", "25", "--seed", "11"], capture_output=True)
        assert r.returncode == 0, r.stderr.decode()
        outs.append(r.stdout)
    verify_same = outs[0] == outs[1] and len(outs[0]) > 0

    elapsed = time.time() - t0
    ok = train_same and verify_same
    _verdict(9, "byte-identical determinism", ok,
             f"train outputs identical: {train_same}, verify output identical: {verify_same}, "
             f"{elapsed:.0f}s")


# ------------------------------------------------------------------------ 10

def test_criterion_10_span_joint_and_decade_law():
    t0 = time.time()
    rng = RandomSource(110)
    joint_dev = 0.0
    for i in range(200):
        model = props._random_span_model(rng.split(1, i))
        g = rng.split(1, i, 1).generator()
        t = int(g.integers(2, 9))
        feats = g.standard_normal((t, model.n_features))
        joint_dev = props._max_or_nan(joint_dev, abs(float(sp.joint_span_table(model, feats).sum()) - 1.0))

    law_slack = math.inf
    drift_slack = math.inf
    for ki, (kind, gen) in enumerate(GENERATORS.items()):
        done = 0
        i = 0
        while done < 15:
            model = props._random_span_model(rng.split(2, ki, i))
            g = rng.split(3, ki, i).generator()
            i += 1
            feats = g.standard_normal((5, model.n_features))
            eps = g.standard_normal(feats.shape)
            eps /= np.sqrt(np.sum(eps * eps))
            q = sp.span_quadratic_penalty(model, feats, gen, eps)
            if q < 1e-3:
                continue
            done += 1
            probs = sp.span_forward(model, feats).probs
            values = []
            for tt in props._DECADES:
                trn = sp.span_forward(model, feats + tt * eps)
                values.append(f_divergence(gen, trn.probs[0], probs[0]) + f_divergence(gen, trn.probs[1], probs[1]))
            drift, law, _ = props._decade_law(values, q)
            drift_slack = props._min_or_nan(drift_slack, drift)
            law_slack = props._min_or_nan(law_slack, law)
    elapsed = time.time() - t0
    ok = joint_dev <= 1e-12 and law_slack >= 0 and drift_slack >= 0 and elapsed < 60.0
    _verdict(10, "span joint table and decade law", ok,
             f"200 joints, max |sum - 1| {joint_dev:.1e}; summed-curvature law slack "
             f"{law_slack:.3e}, boundedness slack {drift_slack:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------- NaN controls

def _nan_kl_values(monkeypatch):
    nan_g = dataclasses.replace(GENERATORS["KL"], g=lambda t: np.full(np.shape(t), np.nan))
    monkeypatch.setitem(GENERATORS, "KL", nan_g)


def _nan_ce_grads(monkeypatch):
    clean = mlp.backward_ce_batch

    def planted(*args, **kwargs):
        losses, grads, xg = clean(*args, **kwargs)
        return losses, np.full_like(grads, np.nan), xg

    monkeypatch.setattr(mlp, "backward_ce_batch", planted)


@pytest.mark.parametrize("criterion, plant", [
    (test_criterion_01_divergence_identities, _nan_kl_values),
    (test_criterion_03_second_order_decade_law, _nan_kl_values),
    (test_criterion_04_gradient_paths_match_finite_differences, _nan_ce_grads),
    (test_criterion_10_span_joint_and_decade_law, _nan_kl_values),
], ids=["01", "03", "04", "10"])
def test_planted_nan_fails_the_criterion(monkeypatch, criterion, plant):
    # a NaN measurement must fail its verdict, not drop out of a worst-case fold
    plant(monkeypatch)
    with pytest.raises(AssertionError, match="FAIL"):
        criterion()
