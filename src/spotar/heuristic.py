"""Lower bounds on the remaining travel time to a destination.

Both bounds answer ``get_min(node)``: the fewest time units any trip
from that node to the destination can take.  The tree bound is exact
(a backward shortest-path tree over per-edge minimum times, cut off at
the budget); the straight-line bound is cheaper but looser (crow-flight
distance at the network's top speed).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

from .dist import Histogram
from .network import Network
from .weights import WeightStore


class HeuristicKind(enum.Enum):
    SP = "sp"  # backward minimum-time tree
    BA = "ba"  # straight-line distance at top speed

    @classmethod
    def parse(cls, text: str) -> HeuristicKind:
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown heuristic {text!r}; expected 'sp' or 'ba'") from None


@dataclass(frozen=True)
class MinTree:
    """Minimum travel times (in units) from every node to ``dest``.

    Nodes whose minimum exceeds ``budget`` are absent.  ``next_hop``
    gives the first edge of a minimal route for every reachable node
    except the destination itself.
    """

    dest: str
    budget: int
    mins: dict[str, int]
    next_hop: dict[str, str]

    def get_min(self, node_id: str) -> int | None:
        return self.mins.get(node_id)


def build_min_tree(net: Network, store: WeightStore, dest: str, budget: int) -> MinTree:
    """Backward Dijkstra from ``dest`` over per-edge minimum times.

    Nothing beyond the budget is queued: an entry is pushed only when its
    time is at most ``budget``.  Entries within the budget are popped in
    the order an uncut search would pop them, so ``mins`` and
    ``next_hop`` are the uncut tree's, restricted to the budget.
    """
    if not net.has_node(dest):
        raise ValueError(f"unknown node {dest!r}")
    mins: dict[str, int] = {}
    next_hop: dict[str, str] = {}
    heap: list[tuple[int, str, str | None]] = [(0, dest, None)] if budget >= 0 else []
    push, pop = heapq.heappush, heapq.heappop
    min_time, in_edges = store.min_time, net.in_edges
    while heap:
        d, node, via = pop(heap)
        if node in mins:
            continue
        mins[node] = d
        if via is not None:
            next_hop[node] = via
        for e in in_edges(node):
            if e.from_node not in mins:
                t = d + min_time(e.edge_id)
                if t <= budget:
                    push(heap, (t, e.from_node, e.edge_id))
    return MinTree(dest, budget, mins, next_hop)


class TreeBound:
    """Exact remaining-time minimum, served from a :class:`MinTree`."""

    def __init__(self, tree: MinTree) -> None:
        self.tree = tree

    def get_min(self, node_id: str) -> int | None:
        return self.tree.get_min(node_id)


class StraightLineBound:
    """Crow-flight distance at the network's top speed, floored to units.

    Never exceeds the tree bound as long as edge lengths dominate the
    straight-line distance between their endpoints.  Each node's value is
    computed once and remembered; a bound serves one destination, so one
    solve.
    """

    def __init__(self, net: Network, dest: str) -> None:
        if not net.has_node(dest):
            raise ValueError(f"unknown node {dest!r}")
        if net.max_speed <= 0.0:
            raise ValueError("network has no edges; straight-line bound is undefined")
        self._net = net
        self._dest = dest
        self._units_per_m = 1.0 / (net.max_speed * net.delta)
        self._mins: dict[str, int] = {}

    def get_min(self, node_id: str) -> int | None:
        found = self._mins.get(node_id)
        if found is None:
            found = self._mins[node_id] = math.floor(
                self._net.distance_m(node_id, self._dest) * self._units_per_m
            )
        return found


def make_heuristic(
    kind: HeuristicKind, net: Network, store: WeightStore, dest: str, budget: int
) -> TreeBound | StraightLineBound:
    """Build the bound of the requested kind for one destination/budget."""
    if kind is HeuristicKind.SP:
        return TreeBound(build_min_tree(net, store, dest, budget))
    return StraightLineBound(net, dest)


def arrival_prob(cost: Histogram, node_min: int | None, budget: int) -> float:
    """Chance that a partial trip still fits the budget.

    Sums the path-so-far mass over times ``k`` with
    ``k + node_min <= budget``, which is one CDF lookup.  This is the
    search's priority: an upper bound on the completion probability of
    any extension.  It is exactly ``1.0`` when the whole support fits
    (see :meth:`Histogram.cdf`), which is then the true bound, and never
    above it.
    """
    if node_min is None:
        return 0.0
    return cost.cdf(budget - node_min)
