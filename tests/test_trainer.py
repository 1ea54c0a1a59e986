import math

import numpy as np
import pytest

from pdrlab import model as mlp
from pdrlab import trainer
from pdrlab.data import UNLABELED, Dataset, make_two_moons, withhold_labels
from pdrlab.regularizers import PerturbationConfig, RegularizerSpec
from pdrlab.tensor import RandomSource
from pdrlab.trainer import (
    TrainConfig,
    adam_init,
    adam_step,
    evaluate,
    init_model_for,
    metrics_to_dict,
    train,
)


def tiny_moons(n=40, noise=0.15, seed=1):
    return make_two_moons(n, noise, seed)


def quick_config(**kw):
    base = dict(epochs=3, batch_size=16, seed=1, learning_rate=0.02)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=8, seed=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=0, seed=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=8, seed=1, optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=8, seed=1, lr_decay="cosine")
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=8, seed=1, learning_rate=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(epochs=1, batch_size=8, seed=1, learning_rate=bad)


def test_init_model_for_sizes_from_dataset():
    ds = tiny_moons()
    m = init_model_for(ds, (8, 4), seed=2)
    assert m.layer_dims == (2, 8, 4, 2)
    m2 = init_model_for(ds, (8, 4), seed=2)
    assert np.array_equal(m.weights[0], m2.weights[0])


# ---------------------------------------------------------------- adam oracle

def test_adam_first_step_is_signlike():
    m = mlp.init_mlp((2, 2), RandomSource(1))
    state = adam_init(m)
    gw, gb = np.array([[0.5, -2.0], [0.0, 1e-3]]), np.array([3.0, -4.0])
    g = mlp.pack_params(m.layer_dims, (gw,), (gb,))
    state2, upd = adam_step(state, g, learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert state2[0] == 1
    upd_w, upd_b = mlp.unflatten(m.layer_dims, upd)
    # after bias correction the first update is lr * g / (|g| + eps)
    want = 0.1 * gw / (np.abs(gw) + 1e-8)
    want[0, 0] = 0.1 * 0.5 / (0.5 + 1e-8)
    assert np.allclose(upd_w[0], want, atol=1e-12)
    assert np.allclose(upd_b[0], 0.1 * np.sign(gb), atol=1e-6)


def test_adam_second_step_matches_hand_formula():
    m = mlp.init_mlp((2, 2), RandomSource(2))
    state = adam_init(m)
    g1 = mlp.pack_params(m.layer_dims, (np.full((2, 2), 1.0),), (np.zeros(2),))
    g2 = mlp.pack_params(m.layer_dims, (np.full((2, 2), -0.5),), (np.zeros(2),))
    state, _ = adam_step(state, g1, 0.1)
    _, upd = adam_step(state, g2, 0.1)
    b1, b2 = 0.9, 0.999
    mhat = (b1 * (1 - b1) * 1.0 + (1 - b1) * (-0.5)) / (1 - b1**2)
    vhat = (b2 * (1 - b2) * 1.0 + (1 - b2) * 0.25) / (1 - b2**2)
    want = 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(mlp.unflatten(m.layer_dims, upd)[0][0], want, atol=1e-12)


# ---------------------------------------------------------------- evaluate

def test_evaluate_matches_manual_computation():
    ds = tiny_moons(n=30)
    m = init_model_for(ds, (6,), seed=3)
    rep = evaluate(m, ds)
    tr = mlp.forward_batch(m, ds.features)
    y = ds.labels
    acc = float(np.mean(np.argmax(tr.posteriors, axis=1) == y))
    ce = float(np.mean(-np.log(tr.posteriors[np.arange(30), y])))
    assert rep.accuracy == pytest.approx(acc, abs=1e-12)
    assert rep.mean_ce == pytest.approx(ce, rel=1e-10)
    assert rep.n_labeled == 30


def test_evaluate_uses_only_labeled_rows():
    ds = withhold_labels(tiny_moons(n=20), 0.5, seed=4)
    m = init_model_for(ds, (4,), seed=5)
    assert evaluate(m, ds).n_labeled == 10


def test_evaluate_errors():
    ds = tiny_moons(n=10)
    m = init_model_for(ds, (4,), seed=6)
    with pytest.raises(ValueError):
        evaluate(m, Dataset(np.zeros((2, 3)), (0, 1), 2, {}))
    all_unlabeled = Dataset(ds.features, (UNLABELED,) * 10, 2, {})
    with pytest.raises(ValueError):
        evaluate(m, all_unlabeled)
    three_class = Dataset(ds.features, (0, 1, 2) + (0,) * 7, 3, {})
    with pytest.raises(ValueError):
        evaluate(m, three_class)


# ---------------------------------------------------------------- training loop

def test_train_is_deterministic():
    ds = tiny_moons()
    cfg = quick_config(regularizer=RegularizerSpec(kind="vat", alpha=0.5,
                                                   perturbation=PerturbationConfig(radius=0.2)))
    m0 = init_model_for(ds, (6,), seed=cfg.seed)
    a = train(m0, ds, cfg)
    b = train(m0, ds, cfg)
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)
    assert a.epochs == b.epochs
    assert a.run_id != b.run_id  # volatile fields still differ


def test_training_reduces_loss_on_easy_data():
    ds = tiny_moons(n=60, noise=0.05)
    cfg = quick_config(epochs=30, learning_rate=0.05)
    run = train(init_model_for(ds, (8,), seed=1), ds, cfg)
    assert run.epochs[-1]["mean_ce"] < run.epochs[0]["mean_ce"]
    assert run.final["train_accuracy"] >= 0.95


def test_total_loss_is_ce_plus_alpha_penalty():
    ds = tiny_moons(n=30)
    spec = RegularizerSpec(kind="rpt", alpha=2.5, perturbation=PerturbationConfig(radius=0.3))
    run = train(init_model_for(ds, (5,), seed=2), ds, quick_config(regularizer=spec))
    for rec in run.epochs:
        assert rec["total_loss"] == pytest.approx(rec["mean_ce"] + 2.5 * rec["mean_penalty"], abs=1e-12)
        assert rec["mean_penalty"] >= 0.0


def test_zero_alpha_matches_no_penalty_weights():
    # alpha = 0 adds exact zeros to every update, so parameters agree bitwise
    ds = tiny_moons(n=24)
    m0 = init_model_for(ds, (5,), seed=3)
    plain = train(m0, ds, quick_config())
    spec = RegularizerSpec(kind="vat", alpha=0.0, perturbation=PerturbationConfig(radius=0.2))
    zeroed = train(m0, ds, quick_config(regularizer=spec))
    for wa, wb in zip(plain.model.weights, zeroed.model.weights):
        assert np.array_equal(wa, wb)
    assert zeroed.epochs[0]["mean_penalty"] > 0.0


def test_jr_training_shrinks_jacobian_norm():
    ds = tiny_moons(n=50, noise=0.2)
    cfg_std = quick_config(epochs=25, learning_rate=0.05)
    spec = RegularizerSpec(kind="jr", alpha=2.0)
    cfg_jr = quick_config(epochs=25, learning_rate=0.05, regularizer=spec)
    m0 = init_model_for(ds, (8,), seed=4)
    run_std = train(m0, ds, cfg_std)
    run_jr = train(m0, ds, cfg_jr)

    def mean_sq_norm(model):
        tr = mlp.forward_batch(model, ds.features)
        values, _ = mlp.jacobian_sq_norm_grads_batch(model, tr)
        return float(values.mean())

    assert mean_sq_norm(run_jr.model) < mean_sq_norm(run_std.model)


def test_semi_supervised_uses_unlabeled_rows():
    ds = withhold_labels(tiny_moons(n=40), 0.5, seed=5)
    spec = RegularizerSpec(kind="vat", alpha=1.0, perturbation=PerturbationConfig(radius=0.2))
    run = train(init_model_for(ds, (6,), seed=6), ds, quick_config(regularizer=spec))
    # penalty averages over all rows, ce only over the labeled half
    assert run.final["mean_penalty"] > 0.0
    assert run.final["train_accuracy"] > 0.0


def test_all_unlabeled_without_penalty_is_an_error():
    ds = tiny_moons(n=10)
    unlabeled = Dataset(ds.features, (UNLABELED,) * 10, 2, dict(ds.provenance))
    m0 = init_model_for(ds, (4,), seed=7)
    with pytest.raises(ValueError, match="nothing to optimize"):
        train(m0, unlabeled, quick_config())
    # with a penalty the run is well defined
    spec = RegularizerSpec(kind="rpt", alpha=1.0, perturbation=PerturbationConfig(radius=0.2))
    run = train(m0, unlabeled, quick_config(regularizer=spec))
    assert run.final["mean_ce"] == 0.0
    assert "train_accuracy" not in run.final


def test_eval_sets_are_tracked_per_epoch():
    ds = tiny_moons(n=30)
    holdout = tiny_moons(n=20, seed=9)
    run = train(init_model_for(ds, (5,), seed=8), ds, quick_config(),
                eval_sets={"holdout": holdout})
    for rec in run.epochs:
        assert "eval_holdout_accuracy" in rec


def test_sgd_and_linear_decay_run():
    ds = tiny_moons(n=30, noise=0.05)
    cfg = quick_config(epochs=40, optimizer="sgd", learning_rate=0.5, lr_decay="linear")
    run = train(init_model_for(ds, (6,), seed=9), ds, cfg)
    assert run.epochs[-1]["mean_ce"] < run.epochs[0]["mean_ce"]


def test_train_validates_dataset_against_model(monkeypatch):
    ds = tiny_moons(n=10)
    wrong = mlp.init_mlp((3, 4, 2), RandomSource(1))
    with pytest.raises(ValueError):
        train(wrong, ds, quick_config())
    narrow = mlp.init_mlp((2, 4, 1), RandomSource(1))
    with pytest.raises(ValueError):
        train(narrow, ds, quick_config())

    def no_epoch(*args):
        raise AssertionError("an epoch started before the eval sets were checked")

    monkeypatch.setattr(trainer, "permutation", no_epoch)
    model = mlp.init_mlp((2, 4, 2), RandomSource(1))
    bad_sets = {
        "u": Dataset(ds.features, (UNLABELED,) * 10, 2, {}),
        "m": Dataset(np.zeros((10, 4)), (0, 1) * 5, 2, {}),
        "c": Dataset(ds.features, (0, 1, 2) + (0,) * 7, 3, {}),
    }
    for name, bad in bad_sets.items():
        with pytest.raises(ValueError, match=f"eval set '{name}'"):
            train(model, ds, quick_config(), eval_sets={"ok": ds, name: bad})


# ---------------------------------------------------------------- metrics doc

def test_metrics_to_dict_deterministic_mode():
    ds = tiny_moons(n=20)
    run = train(init_model_for(ds, (4,), seed=10), ds, quick_config())
    full = metrics_to_dict(run)
    det = metrics_to_dict(run, deterministic=True)
    assert "run_id" in full and "wall_clock_seconds" in full
    assert "run_id" not in det and "wall_clock_seconds" not in det
    assert det["config"]["epochs"] == 3
    assert det["provenance"]["generator"] == "two-moons"
    assert det["final"] == full["final"]
