"""The names bench/run.py looks up in pdrlab still resolve.

The benchmark traces every (module, class, attribute) in `TRACED` of
bench/workloads.py and records `properties.worker_count()`, so renaming or
deleting one of them breaks the benchmark; this test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def traced_names():
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave bench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
    return [(module, cls_name, attr) for _, module, cls_name, attr, _ in workloads.TRACED]


@pytest.mark.parametrize("module,cls_name,attr", traced_names() + [("properties", None, "worker_count")])
def test_bench_names_resolve(module, cls_name, attr):
    owner = importlib.import_module(f"pdrlab.{module}")
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr, None))
