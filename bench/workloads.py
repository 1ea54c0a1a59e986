"""The benchmark workloads, each driving pdrlab's public API.

A workload is built from a `Pdr` handle (the imported pdrlab modules) and the
workload seed; building it is the set-up that `setup_s` times. `op(i)` runs
one operation and returns (key, digest, detail): ops with the same key must
produce the same digest. Every call into pdrlab goes through a module
attribute, so wrappers the tracer installs there see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys

MODULES = ("tensor", "divergences", "model", "regularizers", "spans", "data",
           "trainer", "properties", "cli")


class Pdr:
    """pdrlab freshly imported: the package and its modules by short name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "pdrlab" or m.startswith("pdrlab.")]:
            del sys.modules[name]
        self.package = importlib.import_module("pdrlab")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"pdrlab.{name}"))

    def namespaces(self):
        return [self.package, *(getattr(self, m) for m in MODULES)]


def _rows(args, kwargs):
    return len(args[1])


# (metric prefix, module, class or None, attribute, rows-of-work function)
TRACED = [
    ("tensor.RandomSource.split", "tensor", "RandomSource", "split", None),
    ("tensor.RandomSource.generator", "tensor", "RandomSource", "generator", None),
    *[(f"tensor.{f}", "tensor", None, f, None)
      for f in ("gaussian_vec", "permutation", "softmax", "check_simplex", "spectral_norm")],
    *[(f"divergences.{f}", "divergences", None, f, None) for f in ("f_divergence", "kl_divergence")],
    ("model.MlpModel", "model", "MlpModel", "__init__", None),
    ("model.forward_batch", "model", None, "forward_batch", _rows),
    *[(f"model.{f}", "model", None, f, None)
      for f in ("forward", "backward_ce_batch", "backward_scalar_of_posterior_batch",
                "input_jacobian_batch", "jacobian_sq_norm_grads_batch", "apply_update")],
    *[(f"regularizers.{f}", "regularizers", None, f, None)
      for f in ("penalty_batch", "rpt_penalty_batch", "vat_penalty_batch", "rpt_penalty",
                "vat_penalty", "jr_penalty", "quadratic_penalty", "l2_vs_kl_bound_check")],
    *[(f"spans.{f}", "spans", None, f, None)
      for f in ("span_forward", "span_loss", "span_penalty", "span_quadratic_penalty",
                "apply_span_update")],
    *[(f"data.{f}", "data", None, f, None)
      for f in ("make_two_moons", "make_gaussian_mixture", "withhold_labels")],
    *[(f"trainer.{f}", "trainer", None, f, None) for f in ("train", "adam_step", "evaluate")],
    *[(f"properties.{f}", "properties", None, f, None)
      for f in ("divergence_suite", "jacobian_suite", "vat_suite", "spans_suite", "map_indexed")],
    ("cli.main", "cli", None, "main", None),
]

# Functions only set-up calls; their metrics are per set-up, all others per op.
SETUP_LAYERS = ("data.",)


class OpFailure(Exception):
    """An op ran but its output failed a correctness check."""


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _derived_seeds(tag: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{tag}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


class _Training:
    """One op trains every variant on one seed's data and checks the result."""

    name = ""
    n_seeds = 3  # ops cycle over these, so later ops re-check earlier digests

    def __init__(self, pd: Pdr, seed: int):
        self.pd = pd
        self.cases = [(s, *self.build(s)) for s in _derived_seeds(self.name, seed, self.n_seeds)]

    def op(self, i: int):
        seed, train_ds, test_ds, model0 = self.cases[i % len(self.cases)]
        tr, mlp = self.pd.trainer, self.pd.model
        chance = 1.0 / test_ds.n_classes
        detail = {}
        for variant, spec in self.variants().items():
            cfg = tr.TrainConfig(regularizer=spec, seed=seed, **self.config())
            run = tr.train(model0, train_ds, cfg)
            acc = tr.evaluate(run.model, test_ds).accuracy
            loss = run.final["total_loss"]
            if not (math.isfinite(acc) and math.isfinite(loss)):
                raise OpFailure(f"{variant} seed {seed}: non-finite accuracy {acc} or loss {loss}")
            if acc <= chance:
                raise OpFailure(f"{variant} seed {seed}: accuracy {acc} at or below chance {chance}")
            detail[variant] = {"accuracy": acc, "final_loss": loss,
                               "model_sha256": _sha(mlp.model_to_dict(run.model))}
        return seed, _sha(detail), detail


class MoonsProtocol(_Training):
    """Criterion 06's five variants with the frozen acceptance hyperparameters,
    at a reduced epoch count so one op is about a second."""

    name = "moons-protocol"
    epochs = 25

    def build(self, s):
        d = self.pd.data
        train_ds = d.make_two_moons(200, 0.25, seed=s)
        test_ds = d.make_two_moons(1000, 0.25, seed=1000 + s)
        return train_ds, test_ds, self.pd.trainer.init_model_for(train_ds, (64,), seed=s)

    def config(self):
        return {"epochs": self.epochs, "batch_size": 32, "learning_rate": 0.05}

    def variants(self):
        reg = self.pd.regularizers
        pert = reg.PerturbationConfig(radius=0.3, ascent_steps=1, step_size=0.03,
                                      init_std=1e-5, samples_per_example=1)
        return {
            "STD": reg.RegularizerSpec(kind="none"),
            "RPT_KL": reg.RegularizerSpec("rpt", "KL", alpha=0.5, perturbation=pert),
            "RPT_JSD": reg.RegularizerSpec("rpt", "JSD", alpha=2.0, perturbation=pert),
            "VAT_KL": reg.RegularizerSpec("vat", "KL", alpha=0.5, perturbation=pert),
            "VAT_JSD": reg.RegularizerSpec("vat", "JSD", alpha=2.0, perturbation=pert),
        }


class MixtureJr(_Training):
    """Ten-class Gaussian mixture with half its labels withheld, trained with
    the Jacobian penalty: per-class loops, no per-row Philox draws."""

    name = "mixture-jr"
    epochs = 20
    separation = 4.0

    def build(self, s):
        d = self.pd.data
        full = d.make_gaussian_mixture(400, 10, 16, self.separation, seed=s)
        train_ds = d.withhold_labels(full, 0.5, seed=s)
        test_ds = d.make_gaussian_mixture(1000, 10, 16, self.separation, seed=1000 + s)
        return train_ds, test_ds, self.pd.trainer.init_model_for(train_ds, (128,), seed=s)

    def config(self):
        return {"epochs": self.epochs, "batch_size": 32, "learning_rate": 0.01}

    def variants(self):
        return {"JR": self.pd.regularizers.RegularizerSpec("jr", alpha=0.1)}


class _Verify:
    """`pdrlab verify --suite <suite> --seed <workload seed>` in-process, once
    per suite; every op repeats the same commands, so every op must print the
    same bytes."""

    name = ""
    suites: tuple[str, ...] = ()
    trials = 100

    def __init__(self, pd: Pdr, seed: int):
        self.pd = pd
        self.seed = seed

    def op(self, i: int):
        texts = []
        for suite in self.suites:
            out = io.StringIO()
            argv = ["verify", "--suite", suite, "--trials", str(self.trials), "--seed", str(self.seed)]
            with contextlib.redirect_stdout(out):
                code = self.pd.cli.main(argv)
            text = out.getvalue()
            if code != 0:
                failing = [line.split()[1] for line in text.splitlines() if line.startswith("FAIL")]
                raise OpFailure(f"verify --suite {suite} --seed {self.seed} exited {code}; "
                                f"failing: {failing}")
            texts.append(text)
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        return self.seed, digest, {"lines": sum(t.count("\n") for t in texts)}


class VerifyDivergenceSpans(_Verify):
    """The divergence and spans suites: divergences, spans, the verify thread
    pool and the CLI, none of whose properties is known to fail on any seed."""

    name = "verify-divergence-spans"
    suites = ("divergence", "spans")


class VerifyAll(_Verify):
    """Every suite. Not listed in BENCHMARK.json: the jacobian and vat suites
    each hold a property that fails on some seeds (see README.md), so this
    workload reports `correct: false` on those seeds."""

    name = "verify-all"
    suites = ("all",)


WORKLOADS = {w.name: w for w in (MoonsProtocol, MixtureJr, VerifyDivergenceSpans, VerifyAll)}
