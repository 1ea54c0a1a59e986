"""pdrlab benchmark: one workload, closed loop with one client, in one process.

    python3 bench/run.py --workload moons-protocol --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1    # each workload in its own process

With --trace 0 the run sets up the workload several times (setup_s is the
median), then runs ops back to back for --seconds and reports the end-to-end
metrics. With --trace 1 it runs untraced ops for half the time, installs the
tracer, sets up once more and runs traced ops for the other half, and reports
per-layer metrics plus the tracing overhead. Human-readable lines go first;
the last line of stdout is the JSON result. A full record (environment stamp,
digests, quartiles) is written to bench/out/, and traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
from workloads import SETUP_LAYERS, TRACED, WORKLOADS, OpFailure, Pdr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9


class Ops:
    """Runs ops in a closed loop and checks each op's digest against every
    earlier op with the same key, across phases."""

    def __init__(self):
        self.seen = {}
        self.records = []  # dicts: phase, key, digest, seconds, error

    def run(self, workload, seconds: float, phase: str) -> list[float]:
        durations = []
        t_end = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            key = digest = detail = error = None
            try:
                key, digest, detail = workload.op(i)
            except OpFailure as exc:
                error = str(exc)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None and self.seen.setdefault(key, digest) != digest:
                error = f"digest of key {key} differs from an earlier op"
            self.records.append({"phase": phase, "key": key, "digest": digest, "seconds": dt,
                                 "error": error, "detail": detail})
            durations.append(dt)
            i += 1
        return durations

    def failures(self):
        return [r for r in self.records if r["error"] is not None]

    def digests(self):
        return {str(k): d for k, d in self.seen.items()}

    def details(self):
        out = {}
        for r in self.records:
            if r["error"] is None:
                out.setdefault(str(r["key"]), r["detail"])
        return out


def _timing(values) -> dict:
    q1, q2, q3 = harness.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _setup(cls, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # so no set-up pays for collecting an earlier one's garbage
        t0 = time.perf_counter()
        pd = Pdr()
        workload = cls(pd, seed)
        times.append(time.perf_counter() - t0)
    return pd, workload, times


def _trace(cls, pd, seed, seconds, ops):
    tracer = harness.Tracer()
    namespaces = pd.namespaces()
    bindings = 0
    for name, module, cls_name, attr, rows in TRACED:
        owner = getattr(pd, module)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        bindings += tracer.install(name, owner, attr, namespaces, rows)
    try:
        workload = cls(pd, seed)
        setup_spans = tracer.spans()
        tracer.clear()
        durations = ops.run(workload, seconds, "traced")
        op_spans = tracer.spans()
    finally:
        restored = tracer.restore()
    return tracer.names, setup_spans, op_spans, durations, restored, bindings


def _write_spans(path, names, setup_spans, op_spans):
    np.savez(path, names=np.array(names), columns=np.array(harness.SPAN_FIELDS),
             setup=setup_spans, ops=op_spans)


def _trace_metrics(names, setup_spans, op_spans, n_ops, overhead):
    per_setup = harness.layer_totals(setup_spans, names)
    per_op = harness.layer_totals(op_spans, names)
    metrics = {}
    for name in names:
        if name.startswith(SETUP_LAYERS):
            agg, unit = per_setup[name], "setup"
        else:
            agg, unit = {k: v / n_ops for k, v in per_op[name].items()}, "op"
        metrics[f"{name}.calls"] = {"value": agg["calls"], "unit": f"calls/{unit}"}
        metrics[f"{name}.self_s"] = {"value": agg["self_s"], "unit": f"s/{unit}"}
    metrics["model.forward_batch.rows"] = {
        "value": per_op["model.forward_batch"]["rows"] / n_ops, "unit": "rows/op"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def run_workload(args) -> int:
    if not (SRC / "pdrlab" / "__init__.py").is_file():
        print(f"bench: no pdrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    pd, workload, setup_times = _setup(cls, args.seed)
    if not Path(pd.package.__file__).resolve().is_relative_to(SRC):
        print(f"bench: pdrlab imported from {pd.package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = Ops()
    record = {"stamp": harness.stamp(ROOT, args.workload, args.seed, np.__version__),
              "verify_workers": pd.properties.worker_count(),
              "trace": args.trace, "seconds": args.seconds,
              "setup_s": _timing(setup_times)}
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    OUT.mkdir(exist_ok=True)
    checks_ok = True
    if not args.trace:
        durations = ops.run(workload, args.seconds, "untraced")
        record["run_s"] = _timing(durations)
        rss = harness.peak_rss_mb()
        metrics = {
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "run_s": {"value": record["run_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        r = record["run_s"]
        lines += [
            f"  setup_s      {record['setup_s']['median']:.6f} s   (median of {SETUP_REPEATS} set-ups)",
            f"  run_s        {r['median']:.6f} s   (median of {r['n']} ops; "
            f"q1 {r['q1']:.6f}, q3 {r['q3']:.6f})",
            f"  peak_rss_mb  {rss:.1f} MB",
        ]
    else:
        untraced = ops.run(workload, args.seconds / 2, "untraced")
        names, setup_spans, op_spans, traced, restored, bindings = _trace(
            cls, pd, args.seed, args.seconds / 2, ops)
        _write_spans(OUT / f"spans-{args.workload}.npz", names, setup_spans, op_spans)
        base = {r["key"]: r["digest"] for r in ops.records if r["phase"] == "untraced"}
        compared = [r for r in ops.records if r["phase"] == "traced" and r["key"] in base]
        same = bool(compared) and all(r["digest"] == base[r["key"]] for r in compared)
        overhead = harness.median(traced) / harness.median(untraced)
        metrics = _trace_metrics(names, setup_spans, op_spans, len(traced), overhead)
        record["run_s"] = {"untraced": _timing(untraced), "traced": _timing(traced)}
        record["trace_check"] = {"digests_equal": same, "ops_compared": len(compared),
                                 "restored": restored, "bindings": bindings,
                                 "spans": len(setup_spans) + len(op_spans)}
        checks_ok = same and restored
        lines += [
            f"  run_s untraced {harness.median(untraced):.6f} s ({len(untraced)} ops), "
            f"traced {harness.median(traced):.6f} s ({len(traced)} ops): "
            f"overhead x{overhead:.3f}",
            f"  traced digests equal untraced: {same} ({len(compared)} ops compared); "
            f"{bindings} bindings restored: {restored}; "
            f"{len(setup_spans) + len(op_spans)} spans",
        ]
        lines += [f"  {k:<52} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
                  if v["value"]]

    failures = ops.failures()
    frac = harness.failed_frac(len(ops.records), len(failures))
    lines.append(f"  failed_frac  {frac:.4f} frac ({len(failures)} of {len(ops.records)} ops)")
    lines += [f"  FAILED op {r['phase']} key {r['key']}: {r['error']}" for r in failures]
    lines += [f"  digest {k}: {d}" for k, d in ops.digests().items()]
    record.update(metrics=metrics, digests=ops.digests(), details=ops.details(),
                  attempted=len(ops.records), failed_frac=frac, failures=[r["error"] for r in failures])
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    correct = checks_ok and not failures and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(ops.records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
