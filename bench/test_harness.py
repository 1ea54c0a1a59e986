"""Tests for the benchmark's own arithmetic: self time, quartiles, failure
counting, and the tracer's install/restore.

    python3 -m pytest bench/test_harness.py -q
"""

import json
import statistics
import threading
import types
from pathlib import Path

import pytest

import harness
from run import Ops, _trace_metrics
from workloads import TRACED, OpFailure


class ManualClock:
    """Per-thread clock that only moves when a test advances it."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def advance(self, dt):
        self._local.now = self() + dt


def _totals(tracer):
    return harness.layer_totals(tracer.spans(), tracer.names)


def test_nested_self_time_subtracts_direct_children_only():
    clock = ManualClock()
    tr = harness.Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        leaf()

    def outer():
        clock.advance(0.5)
        inner()
        inner()
        clock.advance(0.25)

    leaf, inner, outer = tr.wrap("leaf", leaf), tr.wrap("inner", inner), tr.wrap("outer", outer)
    outer()
    t = _totals(tr)
    assert t["leaf"] == {"calls": 2, "self_s": 2.0, "rows": 0}
    assert t["inner"]["calls"] == 2 and t["inner"]["self_s"] == 4.0
    assert t["outer"]["calls"] == 1 and t["outer"]["self_s"] == 0.75
    spans = {s[0]: s for s in tr.spans()}
    roots = [s for s in spans.values() if s[4] == -1]
    assert [tr.names[int(s[1])] for s in roots] == ["outer"]
    # self times add up to the root's duration
    assert sum(v["self_s"] for v in t.values()) == roots[0][3] - roots[0][2]


def test_threaded_spans_nest_within_their_own_thread():
    clock = ManualClock()
    tr = harness.Tracer(clock)
    barrier = threading.Barrier(2, timeout=10)

    def inner(dt):
        barrier.wait()  # both threads are inside inner at once
        clock.advance(dt)

    def outer(dt):
        clock.advance(1.0)
        inner(dt)

    inner, outer = tr.wrap("inner", inner), tr.wrap("outer", outer)
    threads = [threading.Thread(target=outer, args=(dt,)) for dt in (2.0, 3.0)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)

    spans = tr.spans()
    by_id = {s[0]: s for s in spans}
    assert len(spans) == 4 and len({s[5] for s in spans}) == 2
    for s in spans:
        if s[4] >= 0:
            assert by_id[s[4]][5] == s[5], "parent is on another thread"
            assert tr.names[int(by_id[s[4]][1])] == "outer"
    t = harness.layer_totals(spans, tr.names)
    assert t["outer"] == {"calls": 2, "self_s": 2.0, "rows": 0}
    assert t["inner"] == {"calls": 2, "self_s": 5.0, "rows": 0}


def test_rows_and_exceptions_are_recorded():
    tr = harness.Tracer()

    def batch(model, X):
        if not X:
            raise ValueError("empty")
        return len(X)

    batch = tr.wrap("batch", batch, rows=lambda a, k: len(a[1]))
    batch(None, [1, 2, 3])
    batch(None, [4])
    with pytest.raises(ValueError):
        batch(None, [])
    t = _totals(tr)["batch"]
    assert t["calls"] == 3 and t["rows"] == 4


def test_self_time_needs_every_parent():
    orphan = [[1, 0, 0.0, 1.0, 7, 1, 0]]  # parent 7 was never recorded
    with pytest.raises(ValueError):
        harness.layer_totals(orphan, ["f"])
    assert harness.layer_totals([], ["f"]) == {"f": {"calls": 0, "self_s": 0.0, "rows": 0}}


def test_install_patches_every_binding_and_restores_identity():
    def f(x):
        return x + 1

    home = types.ModuleType("home")
    home.f = f
    other = types.ModuleType("other")
    other.g = f  # same object under another name
    other.h = lambda x: x

    class Box:
        def method(self):
            return 7

    original_method = Box.__dict__["method"]
    tr = harness.Tracer()
    assert tr.install("home.f", home, "f", [home, other]) == 2
    assert tr.install("Box.method", Box, "method", [home, other]) == 1
    assert home.f is other.g and home.f is not f
    assert home.f(1) == 2 and other.g(2) == 3 and Box().method() == 7
    assert _totals(tr)["home.f"]["calls"] == 2
    assert tr.restore()
    assert home.f is f and other.g is f and Box.__dict__["method"] is original_method


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert harness.quartiles(values) == (2.75, 5.5, 8.25)
    assert list(harness.quartiles(values)) == statistics.quantiles(values, n=4)
    assert harness.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_failed_frac():
    assert harness.failed_frac(10, 0) == 0.0
    assert harness.failed_frac(12, 3) == 0.25
    assert harness.failed_frac(1, 1) == 1.0
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            harness.failed_frac(attempted, failed)


def test_ops_count_raised_failed_and_nondeterministic_ops():
    class Scripted:
        def __init__(self, script):
            self.script = iter(script)

        def op(self, i):
            kind, key, digest = next(self.script)
            if kind == "fail":
                raise OpFailure("accuracy at chance")
            if kind == "crash":
                raise RuntimeError("boom")
            return key, digest, {}

    wl = Scripted([("ok", 1, "a"), ("ok", 2, "b"), ("ok", 1, "a"), ("fail", 1, None),
                   ("ok", 1, "z"), ("crash", 2, None), ("ok", 2, "b"), ("ok", 3, "c")])
    ops = Ops()
    for phase in ("untraced",) * 4 + ("traced",) * 4:
        assert len(ops.run(wl, 0.0, phase)) == 1  # seconds=0 still runs one op
    errors = [r["error"] for r in ops.failures()]
    assert len(ops.records) == 8 and len(errors) == 3
    assert errors[0] == "accuracy at chance"
    assert errors[1] == "digest of key 1 differs from an earlier op"
    assert errors[2] == "RuntimeError: boom"
    assert harness.failed_frac(len(ops.records), len(errors)) == 3 / 8
    assert ops.digests() == {"1": "a", "2": "b", "3": "c"}


def test_benchmark_json_lists_exactly_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [name for name, *_ in TRACED]
    metrics = _trace_metrics(names, [], [], n_ops=1, overhead=1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["per_layer"])
