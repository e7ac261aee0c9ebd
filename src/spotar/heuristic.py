"""Lower bounds on the remaining travel time to a destination.

Both bounds answer ``get_min(node)``: the fewest time units any trip
from that node to the destination can take.  The tree bound is exact
(a backward shortest-path tree over per-edge minimum times, cut off at
the budget); the straight-line bound is cheaper but looser (crow-flight
distance at the fastest crow-flight speed any edge's minimum time
implies).  Both are consistent on every store, and both refuse a store
not built for the network (see :meth:`~spotar.weights.WeightStore._fit`).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

from .network import Network
from .weights import WeightStore


class HeuristicKind(enum.Enum):
    SP = "sp"  # backward minimum-time tree
    BA = "ba"  # straight-line distance at the store's fastest crow-flight speed

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
    store._fit(net)
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
                t = d + min_times[e.edge_id]
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
    """Crow-flight distance to the destination at speed ``V``, floored to units.

    ``V`` is the largest ``crow(e) / min_time(e)`` over the network's
    edges, in meters per grid unit, raised by a relative 1e-9 so that
    float rounding cannot break the inequality below.  It is computed on
    first use and kept on the store beside the network the store last
    fitted.  The bound is ``h(u) = floor(crow(u, dest) / V)``, or 0 where
    ``V`` is 0, and it is consistent on every store: every edge ``e`` from
    ``u`` to ``w`` has ``crow(e) / V <= min_time(e)``, and
    :meth:`~spotar.network.Network.distance_m` is a metric, so
    ``crow(u, dest) / V <= min_time(e) + crow(w, dest) / V``, and flooring
    keeps ``h(u) <= min_time(e) + h(w)`` since ``min_time(e)`` is whole.
    With ``h(dest) = 0`` the bound is admissible.  Each node's value is
    computed once and remembered; a bound serves one destination, so one
    solve.
    """

    def __init__(self, net: Network, store: WeightStore, dest: str) -> None:
        store._fit(net)
        if not net.has_node(dest):
            raise ValueError(f"unknown node {dest!r}")
        speed = store._crow_speed
        if speed is None:
            min_times, crow = store._min_times, net.distance_m
            speed = store._crow_speed = max(
                (crow(e.from_node, e.to_node) / min_times[e.edge_id] for e in net._edges.values()),
                default=0.0,
            ) * (1.0 + 1e-9)
        self._net = net
        self._dest = dest
        self._units_per_m = 1.0 / speed if speed else 0.0
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
        return StraightLineBound(net, store, dest)
    raise ValueError(f"heuristic {kind!r} is not a HeuristicKind")
