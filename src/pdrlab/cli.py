"""Command-line front end.

Exit codes: 0 success, 1 bad usage or bad config, 2 a verification suite or
input-distribution check failed, 3 runtime failure (missing or malformed
files, degenerate setups or diverged training runs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import data as dt
from . import model as mlp
from . import properties as props
from . import trainer as tr
from .divergences import GENERATOR_KINDS, PROB_FLOOR, f_divergence, generator
from .regularizers import PerturbationConfig, RegularizerSpec


class ConfigError(ValueError):
    """Bad key, value, or structure in a config file or flag value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdrlab", description="Posterior-stability training laboratory.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    gen.add_argument("family", choices=["two-moons", "gaussian-mixture", "bias-pair"])
    gen.add_argument("--n", type=int, default=400, help="number of examples")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--noise", type=float, default=0.1, help="two-moons noise std")
    gen.add_argument("--classes", type=int, default=3, help="gaussian-mixture classes")
    gen.add_argument("--dim", type=int, default=4, help="gaussian-mixture dimension")
    gen.add_argument("--separation", type=float, default=3.0, help="gaussian-mixture mean spread")
    gen.add_argument("--core-noise", type=float, default=0.15, help="bias-pair core noise std")
    gen.add_argument("--shift-angle", type=float, default=0.0, help="rotation applied after sampling")
    gen.add_argument("--shift-scale", type=float, default=1.0, help="scale applied after sampling")
    gen.add_argument("--labeled-fraction", type=float, default=1.0,
                     help="fraction of rows that keep their label")
    gen.add_argument("--out", help="output CSV (two-moons, gaussian-mixture)")
    gen.add_argument("--train-out", help="bias-pair training CSV")
    gen.add_argument("--eval-out", help="bias-pair evaluation CSV")

    train = sub.add_parser("train", help="train a classifier from a config file")
    train.add_argument("--config", required=True, help="flat key=value config file")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")
    train.add_argument("--metrics-out", help="write a metrics JSON here")
    train.add_argument("--model-out", help="write the trained model JSON here")
    train.add_argument("--deterministic-output", action="store_true",
                       help="omit run id and wall clock from the metrics JSON")
    train.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")

    ev = sub.add_parser("eval", help="evaluate a saved model on a CSV dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)

    div = sub.add_parser("divergence", help="divergence between two distributions")
    div.add_argument("--kind", default="KL", help="one of " + ", ".join(GENERATOR_KINDS))
    div.add_argument("--p", required=True, help="comma-separated perturbed distribution")
    div.add_argument("--q", required=True, help="comma-separated reference distribution")
    div.add_argument("--swap", action="store_true", help="exchange the two arguments")

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", default="all", choices=list(props.SUITE_NAMES) + ["all"])
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=1)
    return parser


# ----------------------------------------------------------------- config

# key: (value type, "section.field" it sets on TrainConfig ("train"), its
# RegularizerSpec or its PerturbationConfig; None for keys read elsewhere)
_SCALARS = {
    "data": (str, None),
    "seed": (int, "train.seed"),
    "epochs": (int, "train.epochs"),
    "batch_size": (int, "train.batch_size"),
    "lr_decay": (str, "train.lr_decay"),
    "model.hidden": (str, None),
    "optimizer.kind": (str, "train.optimizer"),
    "optimizer.learning_rate": (float, "train.learning_rate"),
    "regularizer.kind": (str, "regularizer.kind"),
    "regularizer.divergence": (str, "regularizer.generator_kind"),
    "regularizer.alpha": (float, "regularizer.alpha"),
    "regularizer.through_clean": (bool, "regularizer.through_clean"),
    "perturbation.radius": (float, "perturbation.radius"),
    "perturbation.norm": (str, "perturbation.norm_kind"),
    "perturbation.steps": (int, "perturbation.ascent_steps"),
    "perturbation.eta": (float, "perturbation.step_size"),
    "perturbation.init_std": (float, "perturbation.init_std"),
    "perturbation.samples": (int, "perturbation.samples_per_example"),
}


def parse_config(text: str) -> dict:
    """Flat key=value lines; # starts a comment; eval.<name> keys hold CSV paths."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key.startswith("eval."):
            if not key[5:]:
                raise ConfigError(f"line {lineno}: eval. needs a split name")
            cfg[key] = value
            continue
        if key not in _SCALARS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _SCALARS[key][0]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError
                cfg[key] = value.lower() == "true"
            else:
                cfg[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key}") from None
    return cfg


def _parse_hidden(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"model.hidden must be comma-separated integers, got {text!r}") from None
    if any(d <= 0 for d in dims):
        raise ConfigError(f"model.hidden entries must be positive, got {text!r}")
    return dims


def build_train_config(cfg: dict, seed_override=None) -> tr.TrainConfig:
    """TrainConfig from the keys present in cfg; every field no key sets keeps
    its dataclass default."""
    args = {"train": {}, "regularizer": {}, "perturbation": {}}
    for key, value in cfg.items():
        target = _SCALARS.get(key, (None, None))[1]  # eval.* keys set no field
        if target:
            section, name = target.split(".")
            args[section][name] = value
    if seed_override is not None:
        args["train"]["seed"] = seed_override
    try:
        pert = PerturbationConfig(**args["perturbation"])
        reg = RegularizerSpec(perturbation=pert, **args["regularizer"])
        return tr.TrainConfig(regularizer=reg, **args["train"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------- commands

def _cmd_gen_data(args) -> int:
    moons, mixture, pair = (args.family == f for f in ("two-moons", "gaussian-mixture", "bias-pair"))
    min_dim = max(1, args.classes - 1)  # the equidistant means span classes - 1 dims
    shifted = args.shift_angle != 0.0 or args.shift_scale != 1.0
    rules = (  # (flag, value, ok, rule); NaN fails every comparison, so it fails every rule
        ("--n", args.n, args.n > 0, "be positive"),
        ("--labeled-fraction", args.labeled_fraction, 0.0 <= args.labeled_fraction <= 1.0, "lie in [0, 1]"),
        ("--shift-angle", args.shift_angle, math.isfinite(args.shift_angle), "be finite"),
        ("--shift-scale", args.shift_scale, 0.0 < args.shift_scale < math.inf, "be finite and positive"),
        ("--noise", args.noise, not moons or 0.0 <= args.noise < math.inf, "be finite and >= 0"),
        ("--core-noise", args.core_noise, not pair or 0.0 <= args.core_noise < math.inf, "be finite and >= 0"),
        ("--classes", args.classes, not mixture or args.classes >= 2, "be >= 2"),
        ("--dim", args.dim, not mixture or args.dim >= min_dim, f"be >= {min_dim} for {args.classes} classes"),
        ("--dim", args.dim, not mixture or args.dim >= 2 or not shifted, "be >= 2 for a domain shift"),
        ("--separation", args.separation, not mixture or 0.0 <= args.separation < math.inf, "be finite and >= 0"))
    for flag, value, ok, rule in rules:
        if not ok:
            raise ConfigError(f"{flag} must {rule}, got {value}")
    if args.family == "bias-pair" and not (args.train_out and args.eval_out):
        raise ConfigError("bias-pair needs --train-out and --eval-out")
    if args.family != "bias-pair" and not args.out:
        raise ConfigError(f"{args.family} needs --out")
    try:  # the dataset functions reject a bad flag value with a ValueError
        if args.family == "bias-pair":
            train, eval_ds = dt.make_spurious_pair(args.n, args.core_noise, args.seed)
            outputs = [(_post_gen(train, args, shifted), args.train_out), (eval_ds, args.eval_out)]
        elif args.family == "two-moons":
            outputs = [(_post_gen(dt.make_two_moons(args.n, args.noise, args.seed), args, shifted), args.out)]
        else:
            ds = dt.make_gaussian_mixture(args.n, args.classes, args.dim, args.separation, args.seed)
            outputs = [(_post_gen(ds, args, shifted), args.out)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for ds, path in outputs:
        dt.write_csv(ds, path)
        print(f"wrote {ds.n_examples} examples to {path}")
    return 0


def _post_gen(ds: dt.Dataset, args, shifted: bool) -> dt.Dataset:
    if shifted:  # the rotation plane is seeded one past the dataset
        ds = dt.apply_domain_shift(ds, args.shift_angle, args.shift_scale, args.seed + 1)
    if args.labeled_fraction < 1.0:
        ds = dt.withhold_labels(ds, args.labeled_fraction, args.seed)
    return ds


def _cmd_train(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if "data" not in cfg:
        raise ConfigError("config is missing the data key")
    ds = dt.read_csv(cfg["data"])
    config = build_train_config(cfg, args.seed)
    hidden = _parse_hidden(cfg.get("model.hidden", "16"))
    model0 = tr.init_model_for(ds, hidden, config.seed)
    eval_sets = {key[5:]: dt.read_csv(path) for key, path in sorted(cfg.items())
                 if key.startswith("eval.")}
    run = tr.train(model0, ds, config, eval_sets=eval_sets or None)
    # (per-epoch label, final label, record key); no labeled row, no train accuracy
    accuracies = [(name, name, f"eval_{name}_accuracy") for name in sorted(eval_sets)]
    if "train_accuracy" in run.final:
        accuracies.insert(0, ("train_acc", "train", "train_accuracy"))
    if not args.quiet:
        for rec in run.epochs:
            extras = "".join(f"  {label}={rec[key]:.4f}" for label, _, key in accuracies)
            print(f"epoch {rec['epoch']:3d}  ce={rec['mean_ce']:.6f}  "
                  f"penalty={rec['mean_penalty']:.6f}{extras}")
    for _, label, key in accuracies:
        print(f"final {label} accuracy {run.final[key]:.12g}")
    if args.model_out:
        mlp.save_model(run.model, args.model_out)
        print(f"wrote model to {args.model_out}")
    if args.metrics_out:
        payload = tr.metrics_to_dict(run, deterministic=args.deterministic_output)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_eval(args) -> int:
    model = mlp.load_model(args.model)
    ds = dt.read_csv(args.data)
    report = tr.evaluate(model, ds)
    print(f"accuracy {report.accuracy:.12g}")
    print(f"mean_ce {report.mean_ce:.12g}")
    print(f"n_labeled {report.n_labeled}")
    return 0


def _parse_distribution(text: str, flag: str) -> np.ndarray:
    parts = [part.strip() for part in text.split(",")]
    try:
        vals = np.array([float(part) for part in parts], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if vals.size < 2:
        raise ConfigError(f"{flag} needs at least two entries")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise ConfigError(f"{flag} entries must be finite and nonnegative")
    total = float(vals.sum())
    if abs(total - 1.0) > 1e-6:
        raise ConfigError(f"{flag} sums to {total:.9g}, more than 1e-6 away from 1")
    return vals / total


def _cmd_divergence(args) -> int:
    try:
        gen = generator(args.kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    p = _parse_distribution(args.p, "--p")
    q = _parse_distribution(args.q, "--q")
    if p.size != q.size:
        raise ConfigError(f"--p has {p.size} entries but --q has {q.size}")
    ref = "--q"
    if args.swap:
        p, q, ref = q, p, "--p"
    # each term is weighted by the reference, so one where it is floored would drop out
    if np.any(q < PROB_FLOOR):
        raise ConfigError(f"{ref} is the reference: its entries must be at least {PROB_FLOOR:g}")
    print(f"{f_divergence(gen, p, q):.12g}")
    return 0


def _cmd_verify(args) -> int:
    if args.trials <= 0:
        raise ConfigError("--trials must be positive")
    results = props.run_suite(args.suite, trials=args.trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  slack={r.slack:+.3e}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties held")
    if failed:
        print("verification failed: " + ", ".join(failed), file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "divergence": _cmd_divergence,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"pdrlab: config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"pdrlab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
