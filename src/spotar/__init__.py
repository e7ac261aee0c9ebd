"""Reliable routing under travel-time uncertainty.

Learns per-edge and per-sub-path travel-time distributions from
trajectories, then finds the route that maximizes the probability of
arriving within a time budget.
"""

from .dist import Histogram, JointDist, convolve, dominates, min_cost
from .heuristic import HeuristicKind, build_min_tree, make_heuristic
from .network import Edge, Network, Node, Path, Query, load_network, make_path
from .oracle import exact_spotar, gen_instance, verify_instances
from .solver import SolveResult, solve
from .weights import (
    CostModel,
    Mode,
    TrajectoryRecord,
    WeightStore,
    build_store,
    load_store,
    load_trajectories,
    path_cost,
    save_store,
)

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "Edge",
    "HeuristicKind",
    "Histogram",
    "JointDist",
    "Mode",
    "Network",
    "Node",
    "Path",
    "Query",
    "SolveResult",
    "TrajectoryRecord",
    "WeightStore",
    "build_min_tree",
    "build_store",
    "convolve",
    "dominates",
    "exact_spotar",
    "gen_instance",
    "load_network",
    "load_store",
    "load_trajectories",
    "make_heuristic",
    "make_path",
    "min_cost",
    "path_cost",
    "save_store",
    "solve",
    "verify_instances",
    "__version__",
]
