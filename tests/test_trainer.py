import hashlib
import json
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
    with pytest.raises(TypeError):
        TrainConfig(epochs=1, batch_size=8, seed=1, optimizer="rmsprop")
    with pytest.raises(TypeError):
        TrainConfig(epochs=1, batch_size=8, seed=1, lr_decay="cosine")
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=8, seed=1, learning_rate=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(epochs=1, batch_size=8, seed=1, learning_rate=bad)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0, True])
def test_seed_outside_the_key_range_is_rejected(seed):
    # RandomSource keys a seed mod 2**64: seed -1 trained the bytes of 2**64 - 1
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, "):
        TrainConfig(seed=seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("bad", [2.5, True, "1"])
@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_counts_must_be_integers(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer in"):
        TrainConfig(**{field: bad})


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
    state2, upd = adam_step(state, g, learning_rate=0.1)
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
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, int), 2, {})
    for kind in ("none", "jr"):
        cfg = TrainConfig(epochs=1, regularizer=RegularizerSpec(kind))
        with pytest.raises(ValueError, match="dataset has no examples"):
            train(model, empty, cfg)


def test_overflowed_second_moment_is_divergence():
    ds = tiny_moons(n=20)
    huge = Dataset(ds.features * 1e160, ds.labels, ds.n_classes, {})  # CE grads square past 1e308
    with pytest.raises(ValueError, match="batch 0, in the parameter update: Adam's second moment"):
        train(init_model_for(huge, (), seed=1), huge, quick_config())  # no tanh to saturate


@pytest.mark.parametrize("name, failing_call, message, kind", [
    *[pytest.param("penalty_batch", 3, "training diverged at epoch 0, batch 2, in the penalty: planted", kind,
                   id=f"penalty_batch-{kind}") for kind in ("jr", "rpt", "vat")],
    # draws do not depend on the model, so a draw error is no divergence of the run
    *[pytest.param("perturbation_draws", 2, "planted", kind, id=f"perturbation_draws-{kind}")
      for kind in ("rpt", "vat")],
])
def test_a_failure_names_where_it_happened(monkeypatch, name, failing_call, message, kind):
    real, calls = getattr(trainer, name), []

    def fails_once(*args):
        calls.append(args)
        if len(calls) == failing_call:
            raise ValueError("planted")
        return real(*args)

    monkeypatch.setattr(trainer, name, fails_once)
    ds = tiny_moons(n=60)
    spec = RegularizerSpec(kind, alpha=1.0, perturbation=PerturbationConfig(radius=0.2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(init_model_for(ds, (4,), seed=1), ds, quick_config(regularizer=spec))
    assert len(calls) == failing_call


@pytest.mark.parametrize("kind", ["rpt", "vat"])
def test_an_overflowing_perturbation_fails_in_the_penalty(kind):
    # the clean and perturbed rows share one pass, but a failure that the
    # clean rows alone do not raise still names the penalty
    spec = RegularizerSpec(kind, alpha=1.0, perturbation=PerturbationConfig(radius=1e308, init_std=1e308,
                                                                            ascent_steps=0))
    ds = tiny_moons()
    message = "training diverged at epoch 0, batch 0, in the penalty: input matrix has non-finite entries"
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(init_model_for(ds, (4,), seed=1), ds, quick_config(regularizer=spec))


# (spec, forward passes a step): one for the clean rows and every rpt draw,
# plus one per vat ascent step after the first and one at the found point
_PASSES = {
    "none": (RegularizerSpec("none"), 1),
    "jr": (RegularizerSpec("jr"), 1),
    "rpt_1_sample": (RegularizerSpec("rpt"), 1),
    "rpt_3_samples": (RegularizerSpec("rpt", perturbation=PerturbationConfig(samples_per_example=3)), 1),
    **{f"vat_{k}_steps": (RegularizerSpec("vat", perturbation=PerturbationConfig(ascent_steps=k)), k + 1)
       for k in (0, 1, 3)},
}


@pytest.mark.parametrize("name", list(_PASSES))
def test_forward_passes_per_step(monkeypatch, name):
    spec, per_step = _PASSES[name]
    real, calls = mlp.forward_batch, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mlp, "forward_batch", counted)
    ds = withhold_labels(tiny_moons(n=45), 0.3, seed=4)
    train(init_model_for(ds, (4,), seed=1), ds, quick_config(regularizer=spec), eval_sets={"holdout": tiny_moons(n=20)})
    # 3 epochs of 3 batches, then each epoch scores the training and the holdout set
    assert len(calls) == 3 * 3 * per_step + 3 * 2


@pytest.mark.parametrize("call", [
    lambda stack, ds, path: train(stack, ds, quick_config()),
    lambda stack, ds, path: evaluate(stack, ds),
    lambda stack, ds, path: mlp.save_model(stack, path),
], ids=["train", "evaluate", "save_model"])
def test_single_model_entry_points_reject_a_parameter_stack(tmp_path, call):
    ds = tiny_moons(n=10)
    models = [init_model_for(ds, (4,), seed=s) for s in range(3)]
    stack = mlp.MlpModel(models[0].layer_dims, np.stack([m.params for m in models]))
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="takes one model, not a parameter stack of 3"):
        call(stack, ds, path)
    assert not path.exists()


# Trained bytes pinned across commits: a change to the draw streams, the batch
# order or the arithmetic of a step moves these digests. The data set has
# unlabeled rows, 45 rows make a partial last batch of 16, and an eval set is
# scored after every epoch. Bytes are pinned for one platform and numpy build
# (see the tensor module docstring).
_PINNED_RUNS = {
    "none": (RegularizerSpec("none"),
             "8686396b211cea06a5b64bc8f860a421ec5034361c4efc7750b8264ec4daacc8",
             "4d507992a5ff1231115079380305e0305bde5d233067ecfd27399562208c0b52"),
    "jr": (RegularizerSpec("jr", alpha=0.5),
           "a970c877a6e8bf6d7d3d605b05c2491b418b59ddc25bea5c5da9fba24c3ef5ad",
           "3b09b12983262bd14429d90eecd6776dc6b1b1d3976a4249e31a9d3e286cb903"),
    "rpt_kl_3_samples": (
        RegularizerSpec("rpt", "KL", alpha=1.0, perturbation=PerturbationConfig(radius=0.3, samples_per_example=3)),
        "0952cbad188ea291bf820be3289f5c65781015144b484aca713984b8127e5e59",
        "50f99228c0f7272acd1944b99bd3f8d23455ca3b117a618f01686e7bef714311"),
    "vat_jsd": (
        RegularizerSpec("vat", "JSD", alpha=2.0, perturbation=PerturbationConfig(radius=0.2, step_size=0.02)),
        "929fdcada09ff738ea5d0fe83b4db8b14d5b96ccfe0deebbc80d1d4ac93f1e32",
        "76f8ffcdd70004ad03d42a235506ffef0f83cb8f08a06e6fac15a211c80979c1"),
    "vat_linf_3_steps": (
        RegularizerSpec("vat", "KL", alpha=1.0,
                        perturbation=PerturbationConfig(radius=0.1, norm_kind="linf", ascent_steps=3, step_size=0.05)),
        "46807cc1b61aaa4ace38490c278b08b8041db2fac5d40ecf17b0f7e3c89710e5",
        "c847b9776f9be3ef458265c4b1989f480465cee3907f9e90886785c769505105"),
    # the only path whose first pass holds a projected draw
    "vat_kl_0_steps": (
        RegularizerSpec("vat", "KL", alpha=1.0, perturbation=PerturbationConfig(radius=0.2, ascent_steps=0)),
        "1eeb30b228ccf5916acee947c6aa38c4e7e74d4a9b988f1da689c2cafaaf8bfe",
        "aad0a1d6c3ea35d0d46796d3f038dff39c90ee48951b2f779acc4476a02a7e91"),
    # the acceptance protocol's shape
    "rpt_jsd_1_sample": (
        RegularizerSpec("rpt", "JSD", alpha=1.0, perturbation=PerturbationConfig(radius=0.3, samples_per_example=1)),
        "d5d638550bd21a290c81f0d0df0268b4caef5f97e0a49b5205bb3120b0d80bd5",
        "3744e9f47cc766f7d49302dad4854b65bb2e24e03bb817947a64b0834c771068"),
}


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_trained_bytes_are_pinned(name):
    spec, params_sha, epochs_sha = _PINNED_RUNS[name]
    ds = withhold_labels(make_two_moons(45, 0.2, seed=3), 0.3, seed=4)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=5, learning_rate=0.05, regularizer=spec)
    run = train(init_model_for(ds, (6,), seed=5), ds, cfg, eval_sets={"holdout": make_two_moons(20, 0.2, seed=9)})
    assert hashlib.sha256(run.model.params.tobytes()).hexdigest() == params_sha
    assert hashlib.sha256(json.dumps(run.epochs).encode()).hexdigest() == epochs_sha


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
