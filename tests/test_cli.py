import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pdrlab import cli
from pdrlab.cli import ConfigError, main, parse_config
from pdrlab.data import UNLABELED, read_csv
from pdrlab.properties import PropertyResult
from pdrlab.regularizers import PerturbationConfig, RegularizerSpec
from pdrlab.trainer import TrainConfig

TRAIN_CONFIG = """\
# tiny run, enough to exercise the whole pipeline
data = {data}
seed = 3
epochs = 2
batch_size = 16
model.hidden = 6
optimizer.learning_rate = 0.02
regularizer.kind = vat
regularizer.divergence = JSD
regularizer.alpha = 0.5
perturbation.radius = 0.2
"""


def run_main(argv):
    """main() for handler paths; usage errors surface as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------- gen-data

def test_gen_data_two_moons(tmp_path, capsys):
    out = tmp_path / "moons.csv"
    code = run_main(["gen-data", "two-moons", "--n", "50", "--noise", "0.2",
                     "--seed", "4", "--out", str(out)])
    assert code == 0
    assert "wrote 50 examples" in capsys.readouterr().out
    ds = read_csv(out)
    assert ds.n_examples == 50
    assert ds.n_features == 2


def test_gen_data_labeled_fraction(tmp_path):
    out = tmp_path / "half.csv"
    assert run_main(["gen-data", "two-moons", "--n", "40", "--labeled-fraction", "0.5",
                     "--out", str(out)]) == 0
    ds = read_csv(out)
    assert np.sum(ds.labels != UNLABELED) == 20


def test_gen_data_bias_pair(tmp_path):
    train, ev = tmp_path / "train.csv", tmp_path / "eval.csv"
    assert run_main(["gen-data", "bias-pair", "--n", "30", "--core-noise", "0.05",
                     "--train-out", str(train), "--eval-out", str(ev)]) == 0
    assert read_csv(train).n_features == 3
    assert read_csv(ev).n_features == 3


def test_gen_data_bias_pair_requires_both_outputs(tmp_path, capsys):
    assert run_main(["gen-data", "bias-pair", "--train-out", str(tmp_path / "t.csv")]) == 1
    assert "config error" in capsys.readouterr().err


def test_gen_data_shift_round_trips_through_csv(tmp_path):
    plain = tmp_path / "plain.csv"
    shifted = tmp_path / "shifted.csv"
    run_main(["gen-data", "gaussian-mixture", "--n", "30", "--out", str(plain)])
    run_main(["gen-data", "gaussian-mixture", "--n", "30", "--shift-angle", "0.5",
              "--out", str(shifted)])
    a, b = read_csv(plain), read_csv(shifted)
    assert np.array_equal(a.labels, b.labels)
    assert not (a.features == b.features).all()


def test_gen_data_bad_n(capsys):
    assert run_main(["gen-data", "two-moons", "--n", "0", "--out", "x.csv"]) == 1
    capsys.readouterr()
    for flags in (["two-moons", "--noise", "-1"], ["gaussian-mixture", "--classes", "1"],
                  ["two-moons", "--shift-scale", "0"],
                  ["gaussian-mixture", "--classes", "5", "--dim", "2"],
                  ["two-moons", "--noise", "nan"], ["two-moons", "--noise", "inf"],
                  ["bias-pair", "--core-noise", "-0.5"], ["bias-pair", "--core-noise", "nan"],
                  ["gaussian-mixture", "--dim", "0"], ["gaussian-mixture", "--separation", "nan"],
                  ["gaussian-mixture", "--shift-angle", "0.5", "--classes", "2", "--dim", "1"],
                  ["two-moons", "--shift-angle", "nan"], ["two-moons", "--shift-scale", "nan"],
                  ["two-moons", "--shift-scale", "inf"]):
        assert run_main(["gen-data", *flags, "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert "pdrlab: config error" in err
        flag = [f for f in flags if f.startswith("--")][-1]  # the flag whose value is bad
        assert f"config error: {flag} must" in err, (flags, err)


def test_gen_data_without_out_is_config_error(capsys):
    assert run_main(["gen-data", "two-moons", "--n", "10"]) == 1
    assert "config error: two-moons needs --out" in capsys.readouterr().err


def test_gen_data_unknown_family_is_usage_error(tmp_path, capsys):
    assert run_main(["gen-data", "swiss-roll", "--out", "x.csv"]) == 1
    out = tmp_path / "d.csv"
    assert run_main(["gen-data", "two-moons", "--shift-seed", "3", "--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


# ---------------------------------------------------------------- train / eval

def test_train_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "train.csv"
    run_main(["gen-data", "two-moons", "--n", "60", "--noise", "0.15", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TRAIN_CONFIG.format(data=data))
    model_out = tmp_path / "model.json"
    metrics_out = tmp_path / "metrics.json"

    code = run_main(["train", "--config", str(cfg), "--model-out", str(model_out),
                     "--metrics-out", str(metrics_out)])
    out = capsys.readouterr().out
    assert code == 0
    assert "epoch   0" in out
    assert "final train accuracy" in out
    doc = json.loads(metrics_out.read_text())
    assert len(doc["epochs"]) == 2
    assert doc["config"]["regularizer"]["kind"] == "vat"

    code = run_main(["eval", "--model", str(model_out), "--data", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy" in out and "mean_ce" in out and "n_labeled 60" in out


def test_train_seed_override_changes_run(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", "40", "--out", str(data)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TRAIN_CONFIG.format(data=data))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run_main(["train", "--config", str(cfg), "--quiet", "--model-out", str(m1)])
    run_main(["train", "--config", str(cfg), "--quiet", "--seed", "99", "--model-out", str(m2)])
    capsys.readouterr()
    assert json.loads(m1.read_text())["weights"] != json.loads(m2.read_text())["weights"]


def test_train_metrics_deterministic_output_is_byte_identical(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", "40", "--out", str(data)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TRAIN_CONFIG.format(data=data))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_main(["train", "--config", str(cfg), "--quiet", "--deterministic-output",
              "--metrics-out", str(out1)])
    run_main(["train", "--config", str(cfg), "--quiet", "--deterministic-output",
              "--metrics-out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert "run_id" not in json.loads(out1.read_text())


@pytest.mark.parametrize("quiet", [False, True])
def test_train_with_no_labeled_row_reports_no_train_accuracy(tmp_path, capsys, quiet):
    data, labeled = tmp_path / "d.csv", tmp_path / "e.csv"
    run_main(["gen-data", "two-moons", "--n", "20", "--labeled-fraction", "0", "--out", str(data)])
    run_main(["gen-data", "two-moons", "--n", "20", "--seed", "2", "--out", str(labeled)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {data}\nepochs = 2\nregularizer.kind = vat\neval.test = {labeled}\n")
    model, metrics = tmp_path / "m.json", tmp_path / "metrics.json"
    capsys.readouterr()
    argv = ["train", "--config", str(cfg), "--model-out", str(model), "--metrics-out", str(metrics)]
    assert run_main(argv + ["--quiet"] * quiet) == 0
    out = capsys.readouterr().out
    assert "train_acc" not in out and "final train accuracy" not in out
    assert "final test accuracy" in out
    if quiet:
        assert "epoch" not in out
    else:
        assert "epoch   1" in out and "  test=" in out
    assert model.exists()
    assert "train_accuracy" not in json.loads(metrics.read_text())["final"]


def test_train_config_without_data_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epochs = 2\n")
    assert run_main(["train", "--config", str(cfg)]) == 1
    assert "config error: config is missing the data key" in capsys.readouterr().err


def test_train_empty_hidden_is_a_linear_model(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", "10", "--out", str(data)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {data}\nepochs = 1\nmodel.hidden =\n")
    model = tmp_path / "m.json"
    assert run_main(["train", "--config", str(cfg), "--quiet", "--model-out", str(model)]) == 0
    capsys.readouterr()
    assert json.loads(model.read_text())["layer_dims"] == [2, 2]


def test_train_missing_data_file_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = /nonexistent/never.csv\n")
    assert run_main(["train", "--config", str(cfg)]) == 3
    assert "pdrlab: error" in capsys.readouterr().err


def test_train_unusable_eval_set_exits_3_naming_it(tmp_path, capsys):
    data, unlabeled = tmp_path / "d.csv", tmp_path / "u.csv"
    run_main(["gen-data", "two-moons", "--n", "20", "--out", str(data)])
    run_main(["gen-data", "two-moons", "--n", "20", "--labeled-fraction", "0", "--out", str(unlabeled)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {data}\nepochs = 2\neval.u = {unlabeled}\n")
    capsys.readouterr()
    assert run_main(["train", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert "eval set 'u' has no labeled example" in err
    assert "epoch" not in out


# 30 rows fit in one batch, so the overflow first shows in the epoch-end evaluation
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("n, learning_rate", [(200, "1e306"), (200, "1e308"), (30, "1e308")])
def test_diverged_training_exits_3_and_writes_no_metrics(tmp_path, capsys, n, learning_rate):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", str(n), "--noise", "0.25", "--out", str(data)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {data}\nseed = 1\nepochs = 5\nbatch_size = 32\nmodel.hidden = 64\n"
                   f"optimizer.kind = sgd\noptimizer.learning_rate = {learning_rate}\n")
    metrics = tmp_path / "metrics.json"
    capsys.readouterr()
    code = run_main(["train", "--config", str(cfg), "--quiet", "--metrics-out", str(metrics)])
    err = capsys.readouterr().err
    assert code == 3
    assert "diverged at epoch" in err and "batch" in err
    assert not metrics.exists()


def test_train_bad_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = x.csv\nmomentum = 0.9\n")
    assert run_main(["train", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["perturbation.norm = l3", "perturbation.radius = -1",
                                  "regularizer.kind = foo", "regularizer.divergence = XYZ",
                                  "regularizer.through_clean = true",
                                  "regularizer.kind = jr\nregularizer.through_clean = true",
                                  "perturbation.radius = nan", "perturbation.eta = inf",
                                  "optimizer.learning_rate = nan", "optimizer.beta2 = -inf",
                                  "regularizer.alpha = nan", "optimizer.beta1 = 1",
                                  "optimizer.beta2 = 1.5", "optimizer.eps = 0",
                                  "regularizer.alpha = -5", "model.hidden = 4,x",
                                  "model.hidden = 0"])
def test_train_bad_config_value_is_config_error(tmp_path, capsys, line):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", "10", "--out", str(data)])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {data}\n{line}\n")
    capsys.readouterr()
    assert run_main(["train", "--config", str(cfg)]) == 1
    assert "pdrlab: config error" in capsys.readouterr().err


def test_eval_missing_model_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_main(["gen-data", "two-moons", "--n", "10", "--out", str(data)])
    capsys.readouterr()
    assert run_main(["eval", "--model", str(tmp_path / "nope.json"), "--data", str(data)]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------- config parser

def test_parse_config_values_and_comments():
    cfg = parse_config("epochs = 5  # comment\n\nperturbation.radius=0.25\neval.test = t.csv\n")
    assert cfg == {"epochs": 5, "perturbation.radius": 0.25, "eval.test": "t.csv"}


@pytest.mark.parametrize("text,fragment", [
    ("epochs", "key=value"),
    ("= 3", "empty key"),
    ("epochs = 2\nepochs = 3", "duplicate"),
    ("epochs = soon", "bad value"),
    ("turbo = on", "unknown key"),
    ("eval. = x.csv", "split name"),
    ("regularizer.through_clean = maybe", "bad value"),
    ("optimizer.beta1 = 0.9", "unknown key"),
    ("optimizer.beta2 = 0.999", "unknown key"),
    ("optimizer.eps = 1e-8", "unknown key"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_empty_config_builds_the_default_train_config():
    pert = PerturbationConfig(radius=0.1, norm_kind="l2", ascent_steps=1, step_size=1e-3,
                              init_std=1e-5, samples_per_example=1)
    reg = RegularizerSpec(kind="none", generator_kind="KL", alpha=1.0, perturbation=pert,
                          through_clean=False)
    want = TrainConfig(epochs=30, batch_size=32, seed=1, optimizer="adam", learning_rate=1e-2,
                       lr_decay="none", regularizer=reg)
    assert cli.build_train_config({}) == want == TrainConfig()
    assert cli.build_train_config({}, seed_override=5) == replace(want, seed=5)


def test_every_config_key_sets_its_field():
    cfg = parse_config(
        "data = d.csv\nmodel.hidden = 4\neval.test = t.csv\n"
        "seed = 7\nepochs = 3\nbatch_size = 5\nlr_decay = linear\noptimizer.kind = sgd\n"
        "optimizer.learning_rate = 0.5\nregularizer.kind = vat\nregularizer.divergence = JSD\n"
        "regularizer.alpha = 2\nregularizer.through_clean = true\nperturbation.radius = 0.3\n"
        "perturbation.norm = linf\nperturbation.steps = 2\nperturbation.eta = 0.01\n"
        "perturbation.init_std = 1e-4\nperturbation.samples = 3\n")
    pert = PerturbationConfig(radius=0.3, norm_kind="linf", ascent_steps=2, step_size=0.01,
                              init_std=1e-4, samples_per_example=3)
    reg = RegularizerSpec(kind="vat", generator_kind="JSD", alpha=2.0, perturbation=pert,
                          through_clean=True)
    assert cli.build_train_config(cfg) == TrainConfig(
        epochs=3, batch_size=5, seed=7, optimizer="sgd", learning_rate=0.5,
        lr_decay="linear", regularizer=reg)


# ---------------------------------------------------------------- divergence

@pytest.mark.parametrize("argv,want", [
    (["divergence", "--kind", "KL", "--p", "0.5,0.5", "--q", "0.25,0.75"], "0.143841036226"),
    (["divergence", "--kind", "KL", "--p", "0.5,0.5", "--q", "0.25,0.75", "--swap"], "0.130812035941"),
    (["divergence", "--kind", "SHL", "--p", "0.5,0.5", "--q", "0.25,0.75"], "0.0681483474219"),
    (["divergence", "--kind", "JSD", "--p", "0.5,0.5", "--q", "0.5,0.5"], "0"),
    (["divergence", "--kind", "KL", "--p", "1,0", "--q", "0.5,0.5"], "0.693147180533"),
])
def test_divergence_frozen_outputs(argv, want, capsys):
    assert run_main(argv) == 0
    assert capsys.readouterr().out.strip() == want


def test_divergence_swap_is_symmetric_for_jsd(capsys):
    run_main(["divergence", "--kind", "JSD", "--p", "0.1,0.9", "--q", "0.6,0.4"])
    plain = capsys.readouterr().out
    run_main(["divergence", "--kind", "JSD", "--p", "0.1,0.9", "--q", "0.6,0.4", "--swap"])
    assert capsys.readouterr().out == plain


def test_divergence_normalizes_tiny_drift(capsys):
    assert run_main(["divergence", "--p", "0.5000001,0.4999999", "--q", "0.5,0.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["divergence", "--p", "0.6,0.6", "--q", "0.5,0.5"],        # sums to 1.2
    ["divergence", "--p", "1.0", "--q", "1.0"],                # one entry
    ["divergence", "--p", "0.5,potato", "--q", "0.5,0.5"],     # not a number
    ["divergence", "--p", "0.5,0.5", "--q", "0.2,0.3,0.5"],    # length mismatch
    ["divergence", "--kind", "XYZ", "--p", "0.5,0.5", "--q", "0.5,0.5"],
    ["divergence", "--p=-0.5,1.5", "--q", "0.5,0.5"],          # negative entry
    ["divergence", "--kind", "KL", "--p", "0.5,0.5", "--q", "1,0"],   # reference has a zero
    ["divergence", "--p", "1,0", "--q", "0.5,0.5", "--swap"],         # --p is the reference
])
def test_divergence_bad_inputs_exit_one(argv, capsys):
    assert run_main(argv) == 1
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------- verify

def test_verify_small_run_passes(capsys):
    assert run_main(["verify", "--suite", "divergence", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "properties held" in out
    assert "FAIL" not in out


def test_verify_reports_failures_with_exit_two(monkeypatch, capsys):
    rows = [PropertyResult("broken_identity", -0.5, "observed drift"),
            PropertyResult("fine", 0.1, "")]
    monkeypatch.setattr(cli.props, "run_suite", lambda *a, **k: rows)
    assert run_main(["verify", "--suite", "divergence"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "broken_identity" in captured.err


@pytest.mark.parametrize("blank", ["", " ", "lots", "3"])
def test_verify_treats_blank_thread_env_as_unset(monkeypatch, capsys, blank):
    # verify reads no environment variable: any value of the old pool knob prints the same bytes
    argv = ["verify", "--suite", "divergence", "--trials", "10"]
    monkeypatch.delenv("PDR_LAB_THREADS", raising=False)
    assert run_main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("PDR_LAB_THREADS", blank)
    assert run_main(argv) == 0
    out = capsys.readouterr().out
    assert "properties held" in out
    assert out == unset


def test_verify_rejects_bad_trials(capsys):
    assert run_main(["verify", "--trials", "0"]) == 1
    capsys.readouterr()


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run_main(["verify", "--suite", "nonsense"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------- process level

def test_module_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "pdrlab.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_module_entry_point_divergence():
    proc = subprocess.run(
        [sys.executable, "-m", "pdrlab.cli", "divergence",
         "--p", "0.5,0.5", "--q", "0.25,0.75"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.143841036226"


def test_package_entry_point_runs_from_a_checkout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pdrlab", "divergence", "--p", "0.5,0.5", "--q", "0.25,0.75"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.143841036226"


def test_no_arguments_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "pdrlab.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
