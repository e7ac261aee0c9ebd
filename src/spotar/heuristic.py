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

from .network import Network
from .weights import WeightStore, _no_weight


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
    """Minimum travel times (in units) from every node to one destination.

    Nodes whose minimum exceeds the budget the tree was built for are absent.
    """

    mins: dict[str, int]

    def get_min(self, node_id: str) -> int | None:
        return self.mins.get(node_id)


def build_min_tree(net: Network, store: WeightStore, dest: str, budget: int) -> MinTree:
    """Backward Dijkstra from ``dest`` over per-edge minimum times.

    Nothing beyond the budget is queued: an entry is pushed only when its
    time is at most ``budget``.  Entries within the budget are popped in
    the order an uncut search would pop them, so ``mins`` is the uncut
    tree's, restricted to the budget.
    """
    if not net.has_node(dest):
        raise ValueError(f"unknown node {dest!r}")
    mins: dict[str, int] = {}
    heap: list[tuple[int, str]] = [(0, dest)] if budget >= 0 else []
    push, pop = heapq.heappush, heapq.heappop
    # read straight from the store's and the network's tables, one lookup per edge
    min_times, in_edges = store._min_times, net._in
    while heap:
        d, node = pop(heap)
        if node in mins:
            continue
        mins[node] = d
        for e in in_edges[node]:
            if e.from_node not in mins:
                try:
                    t = d + min_times[e.edge_id]
                except KeyError:
                    raise _no_weight(e.edge_id) from None
                if t <= budget:
                    push(heap, (t, e.from_node))
    return MinTree(mins)


class TreeBound:
    """Exact remaining-time minimum, served from a :class:`MinTree`."""

    def __init__(self, tree: MinTree) -> None:
        self.tree = tree
        self._mins = tree.mins

    def get_min(self, node_id: str) -> int | None:
        return self._mins.get(node_id)


class StraightLineBound:
    """Crow-flight distance at the network's top speed, floored to units.

    Never exceeds the tree bound, and is consistent (it drops by at most
    an edge's minimum time along the edge), as long as every edge's
    minimum time is at least the crow-flight time between its endpoints
    at the top speed.  Edge lengths of at least the straight-line
    distance give that only for edges that fall back to their
    speed-limit time: an observed time can beat it.  Each node's value
    is computed once and remembered; a bound serves one destination, so
    one solve.
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
    if kind is HeuristicKind.BA:
        return StraightLineBound(net, dest)
    raise ValueError(f"heuristic {kind!r} is not a HeuristicKind")
