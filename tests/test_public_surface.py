"""The public surface: each layer module's ``__all__``, re-exported whole by
the package, covers what the behavioural spec and the benchmark use."""

import importlib
import importlib.util
import json
import pathlib
import re

import numpy as np

import gaussqfi as gq

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"gaussqfi.{name}") is not None


def test_every_export_resolves_once():
    assert len(gq.__all__) == len(set(gq.__all__))
    for name in gq.__all__:
        assert hasattr(gq, name), name


def test_spec_and_benchmark_names_are_exported():
    for rel in ("tests/test_acceptance.py", "benchmarks/workloads.py"):
        used = set(re.findall(r"\bgq\.([A-Za-z_]\w*)", (ROOT / rel).read_text()))
        assert used, rel
        for name in used:
            if _is_submodule(name):  # e.g. gq.cli, reached as a module
                continue
            assert name in gq.__all__, f"{rel} uses gq.{name}"


def test_traced_layer_metrics_name_exported_functions():
    # The traced run wraps only what a layer module lists in __all__, so a
    # per-layer metric on a name missing there would silently read nothing.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    not_layers = set()
    for metric in bench["per_layer"]:
        layer, *qualname, _stat = metric["name"].split(".")
        if not _is_submodule(layer):
            not_layers.add(layer)
            continue
        mod = importlib.import_module(f"gaussqfi.{layer}")
        assert qualname and qualname[0] in mod.__all__, metric["name"]
        obj = mod
        for part in qualname:
            obj = getattr(obj, part)
        assert callable(obj) and obj.__module__ == mod.__name__, metric["name"]
    assert not_layers == {"setup", "trace"}


def test_tracer_annotations_bind_to_current_signatures():
    # The traced run annotates some spans from the call's bound arguments
    # (build_state's pad, sweep_rows' jobs); each must still bind.
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    vac = gq.GaussianModelPoint(np.zeros(4), np.eye(4), np.zeros(4), np.zeros((4, 4)))
    calls = {
        "fock.build_state": ((vac, 8), {}),
        "cli.sweep_rows": ((gq.builtin_family("thermal"), np.array([2.0])), {"jobs": 2}),
    }
    assert set(tracer.ANNOTATIONS) == set(calls)
    for name, note in tracer.ANNOTATIONS.items():
        layer, qualname = name.split(".", 1)
        fn = getattr(importlib.import_module(f"gaussqfi.{layer}"), qualname)
        args, kwargs = calls[name]
        assert float(note(fn, args, kwargs)) > 0, name
