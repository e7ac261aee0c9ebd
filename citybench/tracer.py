"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``spotar`` with
wrappers that count calls and time them, and restores the originals on
``uninstall``.  A function imported into several modules (``path_cost``
lives in ``weights`` and is imported by ``solver`` and ``cli``) is
replaced wherever the same object is bound.  A name that no longer
exists is skipped and reported as missing rather than failing the run.

Timed wrappers form spans: a span's self time is its duration minus the
time of the timed spans it directly encloses.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, timed); the attribute path may name a method.
TARGETS = (
    ("spotar.weights", "path_cost", True),
    ("spotar.dist", "convolve", True),
    ("spotar.dist", "dominates", False),
    ("spotar.solver", "check_dominance", True),
    ("spotar.solver", "solve", True),
    ("spotar.solver", "SearchQueue.push", True),
    ("spotar.heuristic", "make_heuristic", True),
    ("spotar.heuristic", "TreeBound.get_min", True),
    ("spotar.heuristic", "StraightLineBound.get_min", True),
    ("spotar.dist", "Histogram.__init__", False),
    ("spotar.dist", "JointDist.__init__", False),
    ("spotar.network", "load_network", True),
    ("spotar.network", "Network.distance_m", False),
    ("spotar.weights", "load_trajectories", True),
    ("spotar.weights", "build_store", True),
    ("spotar.weights", "save_store", True),
    ("spotar.weights", "load_store", True),
)

BOUNDS = ("TreeBound.get_min", "StraightLineBound.get_min")

# per-layer metric -> (unit, wrapped names it needs, value from calls, total time, extras)
LAYER_METRICS = {
    "weights.path_cost_calls": ("count", ("path_cost",), lambda c, t, x: c["path_cost"]),
    "weights.path_cost_s": ("s", ("path_cost",), lambda c, t, x: t["path_cost"]),
    "weights.path_cost_us": ("us", ("path_cost",), lambda c, t, x: 1e6 * t["path_cost"] / max(1, c["path_cost"])),
    "weights.path_cost_mean_edges": ("edges", ("path_cost",), lambda c, t, x: x["path_edges"] / max(1, c["path_cost"])),
    "dist.convolve_calls": ("count", ("convolve",), lambda c, t, x: c["convolve"]),
    "dist.convolve_s": ("s", ("convolve",), lambda c, t, x: t["convolve"]),
    "dist.dominates_calls": ("count", ("dominates",), lambda c, t, x: c["dominates"]),
    "solver.dominance_s": ("s", ("check_dominance",), lambda c, t, x: t["check_dominance"]),
    "dist.histogram_inits": ("count", ("Histogram.__init__",), lambda c, t, x: c["Histogram.__init__"]),
    "dist.joint_inits": ("count", ("JointDist.__init__",), lambda c, t, x: c["JointDist.__init__"]),
    "heuristic.bound_calls": ("count", BOUNDS, lambda c, t, x: sum(c[b] for b in BOUNDS)),
    "heuristic.bound_s": ("s", ("make_heuristic",) + BOUNDS,
                          lambda c, t, x: t["make_heuristic"] + sum(t[b] for b in BOUNDS)),
    "heuristic.tree_nodes": ("count", ("make_heuristic",), lambda c, t, x: x["tree_nodes"]),
    "solver.solve_s": ("s", ("solve",), lambda c, t, x: t["solve"]),
    "solver.expanded_labels": ("count", ("solve",), lambda c, t, x: x["expanded_labels"]),
    "solver.pushes": ("count", ("SearchQueue.push",), lambda c, t, x: c["SearchQueue.push"]),
    "solver.expand_per_push": ("ratio", ("solve", "SearchQueue.push"),
                               lambda c, t, x: x["expanded_labels"] / max(1, c["SearchQueue.push"])),
    "solver.transcript_events": ("count", ("solve",), lambda c, t, x: x["transcript_events"]),
    "network.load_s": ("s", ("load_network",), lambda c, t, x: t["load_network"]),
    "network.distance_calls": ("count", ("Network.distance_m",), lambda c, t, x: c["Network.distance_m"]),
    "weights.load_trajectories_s": ("s", ("load_trajectories",), lambda c, t, x: t["load_trajectories"]),
    "weights.build_store_s": ("s", ("build_store",), lambda c, t, x: t["build_store"]),
    "weights.save_store_s": ("s", ("save_store",), lambda c, t, x: t["save_store"]),
    "weights.load_store_s": ("s", ("load_store",), lambda c, t, x: t["load_store"]),
    "weights.stored_paths": ("count", ("build_store", "load_store"), lambda c, t, x: x["stored_paths"]),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []

    def _observe(self, name: str, args: tuple, result: object) -> None:
        """Record what a call's arguments or result say about its layer."""
        if name == "path_cost":
            self.extra["path_edges"] += len(args[1].edges)
        elif name == "solve":
            self.extra["expanded_labels"] += result.expanded_labels
            self.extra["transcript_events"] += len(result.transcript)
        elif name == "make_heuristic":
            tree = getattr(result, "tree", None)
            if tree is not None:
                self.extra["tree_nodes"] += len(tree.mins)
        elif name in ("build_store", "load_store"):
            # the workload's own store is the largest one built or loaded
            self.extra["stored_paths"] = max(self.extra["stored_paths"], len(result.stored_paths()))

    def _wrap(self, name: str, fn, timed: bool):
        tracer = self
        calls = self.calls
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                tracer.total[name] += dur
                tracer.self_time[name] += dur - child
                if stack:
                    stack[-1] += dur
            tracer._observe(name, args, result)
            return result

        return spanned

    def install(self) -> None:
        for module_name, attr_path, timed in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, leaf = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                if attr_path not in self.missing:
                    self.missing.append(attr_path)
                continue
            wrapper = self._wrap(attr_path, original, timed)
            if parents:
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "spotar":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(tr: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; those whose wrapped names no longer exist are left out."""
    out = {
        name: (value(tr.calls, tr.total, tr.extra), unit)
        for name, (unit, needs, value) in LAYER_METRICS.items()
        if not set(needs) & set(tr.missing)
    }
    if "solve" not in tr.missing:
        out["solver.self_s"] = (tr.self_time["solve"], "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
