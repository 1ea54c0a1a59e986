"""Benchmark arithmetic and tracing, independent of pdrlab (stdlib + numpy).

- `median`, `quartiles`, `failed_frac`: the summary statistics every run
  reports.
- `Tracer`: timing wrappers installed from outside the program. It patches
  every namespace that binds a function, keeps one span per call in memory
  (name, start, end, parent, thread id, rows of work), and restores the
  original objects afterwards.
- `layer_totals`: calls, self time (per thread) and rows per function.
- `stamp`: the environment a result was measured in.
"""

from __future__ import annotations

import functools
import itertools
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array

import numpy as np

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "rows")

THREAD_ENV = ("PDR_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them.

    A single value is its own three quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted and attempted >= 1, "
                         f"got failed={failed}, attempted={attempted}")
    return failed / attempted


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans around calls into named functions, recorded from outside.

    Each thread appends to its own buffer, so spans from a worker pool never
    interleave; a span's parent is the innermost open span on the same
    thread (-1 for a root). Span ids are unique across threads. A buffer is
    a flat float64 array with the SPAN_FIELDS of each span in turn, so a
    million spans take 56 MB.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.spans = array("d")
            st.tid = threading.get_ident()
            with self._buffers_lock:
                self._buffers.append(st.spans)
        return st

    def wrap(self, name: str, fn, rows=None):
        """Wrapper that records one span per call to fn.

        rows(args, kwargs) -> int, if given, is stored with the span as the
        amount of work the call did.
        """
        name_id = len(self.names)
        self.names.append(name)
        clock, ids, state = self.clock, self._ids, self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            sid = next(ids)
            parent = st.stack[-1] if st.stack else -1
            work = rows(args, kwargs) if rows is not None else 0
            st.stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                st.spans.extend((sid, name_id, t0, t1, parent, st.tid, work))

        return traced

    def install(self, name: str, owner, attr: str, namespaces, rows=None) -> int:
        """Replace owner.attr, and every other binding of the same object in
        namespaces, by one traced wrapper. Returns the number of bindings."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, rows)
        targets = [(owner, attr)]
        for ns in namespaces:
            if ns is owner:
                continue
            targets += [(ns, k) for k, v in list(vars(ns).items()) if v is original]
        for ns, key in targets:
            self._patches.append((ns, key, original))
            setattr(ns, key, traced)
        return len(targets)

    def restore(self) -> bool:
        """Put every original object back; True if each binding is the very
        object it was before install."""
        patches, self._patches = self._patches, []
        for ns, key, original in reversed(patches):
            setattr(ns, key, original)
        return all(getattr(ns, key) is original for ns, key, original in patches)

    def spans(self) -> np.ndarray:
        """All finished spans, one row each, columns as in SPAN_FIELDS."""
        with self._buffers_lock:
            flat = np.concatenate([np.frombuffer(b, dtype=np.float64) for b in self._buffers]
                                  or [np.empty(0)])
        return flat.reshape(-1, len(SPAN_FIELDS))

    def clear(self) -> None:
        with self._buffers_lock:
            for buf in self._buffers:
                del buf[:]


def layer_totals(spans: np.ndarray, names) -> dict[str, dict[str, float]]:
    """Per name: calls, self time and rows. Self time is a span's duration
    minus the durations of its direct children, which share its thread."""
    sid, name_id, t0, t1, parent, _, work = np.asarray(spans, dtype=np.float64).reshape(
        -1, len(SPAN_FIELDS)).T
    duration = t1 - t0
    child = parent >= 0
    order = np.argsort(sid)
    parent_row = order[np.minimum(np.searchsorted(sid, parent[child], sorter=order), sid.size - 1)]
    if np.any(sid[parent_row] != parent[child]):
        raise ValueError("a span's parent is not among the spans")
    self_s = duration.copy()
    np.subtract.at(self_s, parent_row, duration[child])
    idx = name_id.astype(np.int64)
    calls = np.bincount(idx, minlength=len(names))
    self_total = np.bincount(idx, weights=self_s, minlength=len(names))
    rows = np.bincount(idx, weights=work, minlength=len(names))
    return {n: {"calls": int(calls[k]), "self_s": float(self_total[k]), "rows": int(rows[k])}
            for k, n in enumerate(names)}


def _git(root, *args):
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(root, workload: str, seed: int, numpy_version: str) -> dict:
    """Where and on what a result was measured."""
    top = _git(root, "rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(root)
    status = _git(root, "status", "--porcelain") if in_repo else None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git(root, "rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
