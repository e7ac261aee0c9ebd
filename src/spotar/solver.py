"""Best-first search for the most reliable path under a time budget.

Labels are node-simple partial paths ordered by their priority: the
probability mass that could still make the budget if the rest of the
trip took only its minimum time (see :func:`spotar.heuristic.arrival_prob`),
with ties going to the label nearest the destination.  One step
expands a prefix, the source's empty one first.  Extensions that reach
the destination immediately challenge the incumbent answer and are
never queued, and the search stops as soon as the best queued priority
cannot beat it.  A candidate whose cost is dominated by a queued
label's at the same node is dropped, in ``PACE`` mode only where no
stored unit can still re-cover either label's last edges (see
:func:`check_dominance`).  An extension whose stored units share no
overlap mass has no cost distribution; it is skipped and
recorded as a ``skip-inconsistent`` event.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import dist
from .dist import Histogram, min_cost
from .heuristic import HeuristicKind, arrival_prob, make_heuristic
from .network import Network, Path, Query
from .weights import CostModel, FoldStep, InconsistentWeightsError, Mode, extend_cost


@dataclass(slots=True)
class Label:
    """A partial path under consideration.

    ``edges`` are the path's edge ids.  ``cost`` is its travel-time
    distribution, equal to ``path_cost(model, Path(edges))``.  ``state`` is what
    :func:`spotar.weights.extend_cost` returned with it, and an extension
    derives its cost from it: in ``EDGE`` mode the state is the cost and
    an extension is one convolution; in ``PACE`` mode it is the cover
    units with the fold state after each, and an extension keeps the
    steps of the leading units its cover shares with this path and
    folds the one unit after them.  ``node_min`` is the bound's
    fewest remaining time units from ``end_node`` to the destination,
    and ``r``, the queue priority, is
    ``arrival_prob(cost, node_min, budget)``; among equal ``r`` the
    queue prefers the smaller ``node_min``.  ``visited`` holds every
    node on the path for cycle avoidance.  ``settled`` says whether the
    label takes part in dominance (see :func:`check_dominance`).
    """

    edges: tuple[str, ...]
    end_node: str
    cost: Histogram
    state: Histogram | tuple[FoldStep, ...]
    node_min: int
    r: float
    visited: frozenset[str]
    settled: bool = True
    alive: bool = True


class SearchEvent(NamedTuple):
    """One step of the search, for transcripts and debugging.

    ``solve`` records each event as a plain tuple that is a positional
    prefix of these fields, running up to the last field the kind uses
    with ``None`` in the fields it leaves empty, so ``SearchEvent(*raw)``
    is the event.  Each kind has one shape:

    * ``push``, ``pop``, ``break``, ``candidate``, ``incumbent`` and
      ``dominated-drop``: ``(kind, path, None, value)``;
    * ``skip-cycle`` and ``skip-inconsistent``: ``(kind, path, edge)``;
    * ``dominated-out``: ``(kind, path)``;
    * ``prune``: ``(kind, path, edge, None, ik_min, path_min, node_min)``.

    ``path`` is the prefix being expanded where ``edge`` is set, so an
    edge out of the source is skipped or pruned with path ``()`` and
    ``path_min`` 0.
    """

    kind: str
    path: tuple[str, ...] | None = None
    edge: str | None = None
    value: float | None = None
    ik_min: int | None = None
    path_min: int | None = None
    node_min: int | None = None


@dataclass(frozen=True)
class SolveResult:
    """Answer plus the counters the benchmark reports.

    ``events`` holds the search's steps as the plain tuples ``solve``
    recorded, each a positional prefix of :class:`SearchEvent`'s fields
    (the layout is given there); ``transcript`` turns them into
    :class:`SearchEvent` values on first read and keeps them.
    """

    path: Path | None
    probability: float
    explored_edges: int
    expanded_labels: int
    wall_time_s: float
    events: tuple[tuple, ...]
    explored_edge_ids: frozenset[str]

    @cached_property
    def transcript(self) -> tuple[SearchEvent, ...]:
        return tuple(SearchEvent(*raw) for raw in self.events)


class SearchQueue:
    """Max-priority label queue with lazy deletion and per-node views."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, tuple[str, ...], Label]] = []
        self._by_node: dict[str, list[Label]] = {}

    def push(self, label: Label) -> None:
        heapq.heappush(
            self._heap, (-label.r, label.node_min, len(label.edges), label.edges, label)
        )
        self._by_node.setdefault(label.end_node, []).append(label)

    def pop(self) -> Label | None:
        """Remove and return the highest-priority live label, if any.

        Ties in ``r`` break toward the smaller ``node_min`` (the end node
        nearest the destination, as A* breaks ties toward the goal), then
        toward shorter paths, then lexicographic edge ids, so runs are
        reproducible.  No two entries tie on all four: a search pushes
        each path at most once, because every pushed path is the
        source's empty path or a popped label's path plus one edge, and
        each label is popped at most once.

        The stopping rule needs only that the popped label has the
        largest ``r`` among live labels, so the order among equal ``r``
        is free.  Heading for the destination there finds a path that
        makes the budget for certain early, and because
        :meth:`~spotar.dist.Histogram.cdf` is exactly ``1.0`` once the
        whole support fits and never above it, an incumbent at ``1.0``
        ends the search at the next pop.

        The same order lets a label whose ``r`` is below the incumbent
        stay queued: it is popped only once every label that could still
        beat the incumbent is gone, and the stopping rule then ends the
        search on it (see :func:`solve`).
        """
        while self._heap:
            label = heapq.heappop(self._heap)[-1]
            if label.alive:
                label.alive = False
                return label
        return None

    def remove(self, label: Label) -> None:
        label.alive = False

    def labels_at(self, node_id: str) -> list[Label]:
        """Live labels ending at a node, oldest first."""
        found = [lab for lab in self._by_node.get(node_id, ()) if lab.alive]
        self._by_node[node_id] = found
        return found


def check_dominance(queue: SearchQueue, candidate: Label) -> list[Label] | None:
    """Compare a candidate against queued labels at the same node.

    Returns ``None`` when an existing label has the same cost or a
    first-order stochastically dominating one: the candidate can be
    discarded, since with identical remaining choices it can never do
    better.  Otherwise returns the queued labels the candidate
    dominates, which are discarded instead (empty when the costs are
    incomparable).

    Only settled labels are compared.  In ``EDGE`` mode every label is
    settled: an extension's cost is the label's cost convolved with the
    added edges' weights, and convolving two costs with the same
    distribution keeps first-order dominance.  In ``PACE`` mode a label
    is settled when no stored path weight starts inside its edges and
    runs past its end (:meth:`~spotar.weights.WeightStore.is_settled`).
    Every cover unit an extension adds then starts at or after the
    label's end, so it is conditioned only on the added edges, and the
    extension's cost is again the label's cost convolved with a
    distribution of the added edges alone.  An unsettled label's
    extension can re-cover its last edges and condition on their times,
    so two labels ordered by their total times can swap order once
    extended; an unsettled label is kept without a comparison.
    """
    dominated: list[Label] = []
    if not candidate.settled:
        return dominated
    for other in queue.labels_at(candidate.end_node):
        if not other.settled:
            continue
        if other.cost == candidate.cost or dist.dominates(other.cost, candidate.cost):
            return None
        if dist.dominates(candidate.cost, other.cost):
            dominated.append(other)
    return dominated


def solve(net: Network, model: CostModel, heuristic: HeuristicKind, query: Query) -> SolveResult:
    """Find the path maximizing the chance of arriving within the budget.

    Returns a no-path result (probability 0) when nothing can make it.

    One step expands a prefix: the source is the empty prefix, and every
    popped label is the prefix of its path.  A label whose priority falls
    below the incumbent stays queued until the stopping rule ends the
    search; removing it the moment the incumbent passed it would change
    no answer, no expansion and no explored edge:

    * the queue pops the largest ``r`` first, so such a label (``r`` below
      the incumbent's probability) can be popped only once every label
      that could still beat the incumbent is gone, and then the stopping
      rule (``r <= best_prob``) ends the search on it;
    * it drops a candidate for dominance only if that candidate's ``r``
      is at most its own: both end at the same node, so they share
      ``node_min``, and first-order dominance gives the kept label the
      higher ``cdf`` at every time.  That candidate could never be
      expanded either;
    * a candidate that dominates it removes a label that would never be
      expanded.

    First-hop labels pass through :func:`check_dominance` like any
    other, which is sound for settled labels and changes nothing where
    no two edges join the source to the same node.
    """
    t0 = time.perf_counter()
    for node_id in (query.source, query.dest):
        if not net.has_node(node_id):
            raise ValueError(f"unknown node {node_id!r}")
    store = model.store
    edge_mode = model.mode is Mode.EDGE
    bound = make_heuristic(heuristic, net, store, query.dest, query.budget)
    events: list[tuple] = []
    record = events.append
    queue = SearchQueue()
    explored: set[str] = set()
    expanded = 0
    best_path: Path | None = None
    best_prob = 0.0

    def expand(
        path: tuple[str, ...],
        node: str,
        state: Histogram | tuple[FoldStep, ...] | None,
        visited: frozenset[str],
        path_min: int,
    ) -> None:
        nonlocal best_path, best_prob
        for e in net.out_edges(node):
            if e.to_node in visited:
                record(("skip-cycle", path, e.edge_id))
                continue
            ik = store.min_time(e.edge_id)
            node_min = bound.get_min(e.to_node)
            if node_min is None or ik + path_min + node_min > query.budget:
                record(("prune", path, e.edge_id, None, ik, path_min, node_min))
                continue
            edges = path + (e.edge_id,)
            explored.add(e.edge_id)
            try:
                cost, ext_state = extend_cost(model, state, edges)
            except InconsistentWeightsError:
                record(("skip-inconsistent", path, e.edge_id))
                continue
            if e.to_node == query.dest:
                prob = cost.cdf(query.budget)
                record(("candidate", edges, None, prob))
                if prob > best_prob:
                    best_path, best_prob = Path(edges), prob
                    record(("incumbent", edges, None, prob))
                continue
            candidate = Label(
                edges=edges,
                end_node=e.to_node,
                cost=cost,
                state=ext_state,
                node_min=node_min,
                r=arrival_prob(cost, node_min, query.budget),
                visited=visited | {e.to_node},
                settled=edge_mode or store.is_settled(edges),
            )
            dominated = check_dominance(queue, candidate)
            if dominated is None:
                record(("dominated-drop", edges, None, candidate.r))
                continue
            for other in dominated:
                queue.remove(other)
                record(("dominated-out", other.edges))
            record(("push", edges, None, candidate.r))
            queue.push(candidate)

    expand((), query.source, None, frozenset((query.source,)), 0)
    while (label := queue.pop()) is not None:
        if best_path is not None and label.r <= best_prob:
            record(("break", label.edges, None, label.r))
            break
        expanded += 1
        record(("pop", label.edges, None, label.r))
        expand(label.edges, label.end_node, label.state, label.visited, min_cost(label.cost))

    return SolveResult(
        path=best_path,
        probability=best_prob,
        explored_edges=len(explored),
        expanded_labels=expanded,
        wall_time_s=time.perf_counter() - t0,
        events=tuple(events),
        explored_edge_ids=frozenset(explored),
    )
