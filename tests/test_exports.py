"""The package's public names, and what importing the package pulls in.

``spotar.__all__`` is what ``import *`` gives, and the runtime needs
nothing beyond the standard library.  The benchmark's tracer wraps
functions and methods by name, so those names must exist too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import spotar

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# Removing a public name, or adding one, is a decision; this list makes it visible.
PUBLIC = [
    "CostModel", "Edge", "HeuristicKind", "Histogram", "JointDist", "Mode", "Network", "Node",
    "Path", "Query", "SolveResult", "TrajectoryRecord", "WeightStore", "__version__",
    "build_min_tree", "build_store", "convolve", "dominates", "exact_spotar", "gen_instance",
    "load_network", "load_store", "load_trajectories", "make_heuristic", "make_path",
    "min_cost", "path_cost", "save_store", "solve", "verify_instances",
]


def test_all_is_pinned():
    assert sorted(spotar.__all__) == sorted(PUBLIC)


def test_every_name_in_all_resolves():
    assert len(set(spotar.__all__)) == len(spotar.__all__)
    missing = [name for name in spotar.__all__ if not hasattr(spotar, name)]
    assert missing == []


def test_star_import_gives_exactly_all():
    namespace: dict[str, object] = {}
    exec("from spotar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spotar.__all__)
    assert all(namespace[name] is getattr(spotar, name) for name in namespace)


# Imports every module of the package in a fresh interpreter and prints,
# one per line, the modules that this added to ``sys.modules``.
_IMPORT_ALL = """
import sys
before = set(sys.modules)
import importlib, pkgutil, spotar
for info in pkgutil.iter_modules(spotar.__path__):
    importlib.import_module("spotar." + info.name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_runtime_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    added = proc.stdout.split()
    assert "spotar.weights" in added and "spotar.cli" in added
    allowed = {*sys.stdlib_module_names, "spotar"}
    outside = [name for name in added if name.partition(".")[0] not in allowed]
    assert outside == []


def _tracer_module():
    """The benchmark's ``citybench/tracer.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location("citybench_tracer", ROOT / "citybench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_target_and_reports_every_per_layer_metric():
    """A target the tracer cannot find is skipped at run time, and the
    per-layer metrics that need it silently drop out of the benchmark's
    result, so a renamed or deleted target fails here instead."""
    tracer = _tracer_module()
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.missing == []
    finally:
        tr.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    reported = set(tracer.LAYER_METRICS) | {"solver.self_s", "trace.overhead_ratio"}
    assert {m["name"] for m in declared} <= reported


def test_tracer_counts_what_each_layer_does(tmp_path):
    """Besides the targets, the tracer reads attributes of their results, some
    with a default (an ``sp`` bound's ``tree``), so a renamed attribute
    would count nothing while every name still resolves.  Traced: the sample
    store is built, saved and loaded, and one query is solved with each bound."""
    tracer = _tracer_module()
    tr = tracer.Tracer()
    data = ROOT / "tests" / "data"
    try:
        tr.install()
        net = spotar.load_network(str(data / "sample_network.csv"))
        records = spotar.load_trajectories(net, str(data / "sample_trajectories.csv"))
        spotar.save_store(spotar.build_store(net, records), str(tmp_path / "weights.json"))
        model = spotar.CostModel(spotar.load_store(str(tmp_path / "weights.json")), spotar.Mode.PACE)
        for kind in spotar.HeuristicKind:
            spotar.solve(net, model, kind, spotar.Query("s", "d", 22))
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr, 1.0)
    counted = [
        "heuristic.tree_nodes",
        "heuristic.bound_calls",
        "solver.expanded_labels",
        "solver.transcript_events",
        "weights.stored_paths",
    ]
    assert {name: metrics[name][0] for name in counted if metrics[name][0] <= 0} == {}
