"""The names and config fields bench/run.py uses in pdrlab still exist.

The benchmark traces every (module, class, attribute) in `TRACED` of
bench/workloads.py, records `properties.worker_count()`, and builds each
training workload's `TrainConfig` from its `config()` and `variants()`, so
renaming or deleting one of them breaks the benchmark; these tests fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode  # leave bench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
    return workloads


def traced_names():
    return [(module, cls_name, attr) for _, module, cls_name, attr, _ in load_workloads().TRACED]


def training_workloads():
    return [name for name, cls in load_workloads().WORKLOADS.items() if hasattr(cls, "variants")]


@pytest.mark.parametrize("module,cls_name,attr", traced_names() + [("properties", None, "worker_count")])
def test_bench_names_resolve(module, cls_name, attr):
    owner = importlib.import_module(f"pdrlab.{module}")
    if cls_name is not None:
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr, None))


def test_bench_tracer_sees_what_run_suite_calls(monkeypatch):
    # the tracer replaces module attributes, so run_suite must reach each traced
    # properties name through the module, not through a table built at import
    properties = importlib.import_module("pdrlab.properties")
    calls = {}
    for module, _, attr in traced_names():
        if module == "properties":
            clean, calls[attr] = getattr(properties, attr), 0

            def counted(*args, _attr=attr, _clean=clean, **kwargs):
                calls[_attr] += 1
                return _clean(*args, **kwargs)

            monkeypatch.setattr(properties, attr, counted)
    properties.run_suite("all", trials=1, seed=1)
    assert calls and all(n > 0 for n in calls.values()), calls


@pytest.mark.parametrize("name", training_workloads())
def test_bench_training_configs_build(name):
    workloads = load_workloads()
    # the live modules, not workloads.Pdr(), which re-imports pdrlab
    pd = SimpleNamespace(**{m: importlib.import_module(f"pdrlab.{m}") for m in workloads.MODULES})
    workload = object.__new__(workloads.WORKLOADS[name])  # skips building the datasets
    workload.pd = pd
    variants = workload.variants()  # builds each RegularizerSpec and PerturbationConfig
    assert variants
    for spec in variants.values():
        assert isinstance(spec.perturbation, pd.regularizers.PerturbationConfig)
        pd.trainer.TrainConfig(regularizer=spec, seed=1, **workload.config())  # as `op` builds it
