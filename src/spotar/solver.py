"""Best-first search for the most reliable path under a time budget.

Labels are node-simple partial paths ordered by their priority: the
probability mass that could still make the budget if the rest of the
trip took only its minimum time, with ties going to the label nearest
the destination.  In ``EDGE`` mode a label keeps its cost only up to
the last time that can still make the budget.  One step expands a
prefix, the source's empty one first.  Extensions that reach the
destination immediately challenge the incumbent answer and are never
queued, and the search stops as soon as the best queued priority cannot
beat it.  A candidate whose cost is dominated by a queued label's at the
same node is dropped, in ``PACE`` mode only where no stored unit can
still re-cover either label's last edges (see :func:`check_dominance`).  An extension whose stored units
share no overlap mass has no cost distribution; it is skipped and
recorded as a ``skip-inconsistent`` event.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import dist
from .dist import Histogram, _derived, min_cost, times_cdf
from .heuristic import HeuristicKind, make_heuristic
from .network import Network, Path, Query
from .weights import (
    CostModel,
    FoldStep,
    InconsistentWeightsError,
    Mode,
    extend_cost,
)


@dataclass(slots=True)
class Label:
    """A partial path under consideration.

    ``edges`` are the path's edge ids.  ``cost`` and ``state`` are what
    :func:`spotar.weights.extend_cost` returned for them.  In ``EDGE``
    mode the cost is a travel-time :class:`Histogram` and the state is the
    cost: an extension is one convolution.  The cost, of one edge or many,
    is ``path_cost(model, Path(edges))`` kept up to the label's limit,
    ``budget - node_min``: equal to it, bit for bit, at every time up to
    the limit, with the rest of the mass in one entry at ``limit + 1``,
    there whenever ``path_cost`` has mass past the limit (see
    :func:`~spotar.weights.extend_cost`).  No completion can use that
    rest: it takes at least ``node_min`` more units, so only times up to
    the limit can still make the budget.  In ``PACE`` mode the cost is the
    path's per-total times ``{total: probability}``, unsorted, and the
    state is the cover units with the fold state after each: an extension
    keeps the steps of the leading units its cover shares with this path
    and folds the one unit after them.

    ``node_min`` is the bound's fewest remaining time units from
    ``end_node`` to the destination.  ``r``, the queue priority, is the
    cost's ``cdf`` at ``budget - node_min``, read from the per-total
    times in ``PACE`` mode: an upper bound on the probability of any
    extension, except for an unsettled ``PACE`` label (see :func:`solve`).
    Among equal ``r`` the queue prefers the smaller ``node_min``.  ``visited`` holds every node on the path for
    cycle avoidance.  ``settled`` says whether the label takes part in
    dominance (see :func:`check_dominance`).
    """

    edges: tuple[str, ...]
    end_node: str
    cost: Histogram | dict[int, float]
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

    def labels_at(self, node_id: str) -> list[Label]:
        """Live labels ending at a node, oldest first."""
        queued = self._by_node.get(node_id)
        if not queued:
            return []
        found = self._by_node[node_id] = [lab for lab in queued if lab.alive]
        return found


def check_dominance(queue: SearchQueue, candidate: Label) -> list[Label] | None:
    """Compare a candidate against queued labels at the same node.

    Returns ``None`` when an existing label has the same cost or a
    first-order stochastically dominating one: the candidate can be
    discarded, since with identical remaining choices it can never do
    better.  Otherwise returns the queued labels the candidate
    dominates, which are discarded instead (empty when the costs are
    incomparable).

    Only settled labels are compared, as :class:`Histogram` values in
    grid units.  In ``EDGE`` mode every label is settled, and its cost
    is compared as it is: kept up to the limit ``budget - node_min``, the
    same for every label at the node, with the rest of its mass at
    ``limit + 1`` (see :class:`Label`).  In ``PACE`` mode each call
    builds, and nothing keeps, the histogram of a label's per-total
    times.  Comparing kept costs is sound because both bounds are
    admissible on every store (see :mod:`spotar.heuristic`).
    Every completion from the node takes some ``s >= node_min`` units,
    independent of the label's time, and makes the budget with
    probability ``sum_s P(s) * F(budget - s)``, where ``F`` is the
    label's ``cdf``; it reads ``F`` only at times up to the limit, where
    the kept cost is exact.  So a label whose kept cost
    is the same or dominates another's gives every completion at least
    that label's probability.  The entries at ``limit + 1`` hold total
    masses: comparing them can only make a decision stricter or block
    it, and the part up to the limit justifies any decision left.  In
    ``PACE`` mode a label is settled when no stored path weight starts
    inside its edges and runs past its end, that is when no suffix of its
    edges is a proper prefix of a stored key.  Every cover unit an
    extension adds then starts at or after the label's end, so it is
    conditioned only on the added edges, and the extension's cost is
    again the label's cost convolved with a distribution of the added
    edges alone.  An unsettled label's extension can re-cover its last
    edges and condition on their times, so two labels ordered by their
    total times can swap order once extended; an unsettled label is kept
    without a comparison.
    """
    dominated: list[Label] = []
    if not candidate.settled:
        return dominated
    mine = None
    for other in queue.labels_at(candidate.end_node):
        if not other.settled:
            continue
        theirs = other.cost if type(other.cost) is Histogram else _derived(other.cost)
        if mine is None:
            mine = candidate.cost if type(candidate.cost) is Histogram else _derived(candidate.cost)
        if theirs == mine or dist.dominates(theirs, mine):
            return None
        if dist.dominates(mine, theirs):
            dominated.append(other)
    return dominated


def solve(net: Network, model: CostModel, heuristic: HeuristicKind, query: Query) -> SolveResult:
    """Find the path maximizing the chance of arriving within the budget.

    Returns a no-path result (probability 0) when nothing can make it.
    A store not built for ``net``, on its grid and for exactly its edges, is
    refused before the search starts (see :meth:`~spotar.weights.WeightStore._fit`).

    A label's priority ``r`` is its cost's ``cdf`` at ``budget -
    node_min``: the mass of the path so far at times ``k`` with ``k +
    node_min <= budget``.  Every completion of the path takes at least
    ``node_min`` more units, so in ``EDGE`` mode, and in ``PACE`` mode
    for a settled label, whose extensions add time to its cost without
    changing it, ``r`` is an upper bound on the probability of any
    extension.  It is exactly ``1.0`` when the whole support fits, which
    is then the true bound, and never above it.  An unsettled ``PACE``
    label's extension can re-cover its last edges with a stored unit
    whose times are faster, so there ``r`` can fall short of it.  In
    ``PACE`` mode ``r``, a candidate's probability and the minimum a
    popped label adds to the prune test are read from the per-total
    times, unsorted, with the :class:`Histogram` rule
    (:func:`~spotar.dist.times_cdf` and the smallest total), so they equal
    what the sorted histogram gives bit for bit.

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

    In ``EDGE`` mode a label ending at ``w`` keeps its cost only up to
    ``limit = budget - node_min(w)``, with the rest of its mass at
    ``limit + 1`` (see :class:`Label`).  The kept entries are exact by
    induction from the first edge's, which are its weight's.  Both bounds
    are consistent on every edge ``e`` from ``v`` to ``w``, that is
    ``node_min(v) <= min_time(e) + node_min(w)`` (see
    :mod:`spotar.heuristic`), so every sum up to ``w``'s limit adds a
    time of the parent no later than ``limit(w) - min_time(e) <=
    limit(v)``: the parent's exact entries, added in the same order as in
    the whole convolution, while the parent's rest adds only past ``w``'s
    limit.  What the search reads is then unchanged: ``r`` and a
    candidate's probability read entries up to the limit (a candidate's
    ``node_min`` is 0, so its limit is the budget) and whether any mass
    lies past it, which the rest entry says; the minimum a popped label
    adds to the prune test is at most its limit, because the prune
    pushed it only then, so it is an exact entry.  Dominance compares
    the kept costs (see :func:`check_dominance`).  All of this holds
    unless products of probabilities underflow, below the smallest
    normal float (see :func:`~spotar.dist.convolve`).
    """
    t0 = time.perf_counter()
    store = model.store
    store._fit(net)
    for node_id in (query.source, query.dest):
        if not net.has_node(node_id):
            raise ValueError(f"unknown node {node_id!r}")
    edge_mode = model.mode is Mode.EDGE
    within, least = (Histogram.cdf, min_cost) if edge_mode else (times_cdf, min)
    # a PACE label is settled when none of its last max_stored_len - 1 suffixes is an open prefix
    open_prefixes = store._open_prefixes
    suffixes = [slice(-k, None) for k in range(1, store.max_stored_len)]
    min_times = store._min_times
    bound = make_heuristic(heuristic, net, store, query.dest, query.budget)
    events: list[tuple] = []
    record = events.append
    queue = SearchQueue()
    explored: set[str] = set()
    expanded = 0
    best_path: Path | None = None
    best_prob = 0.0

    budget, dest = query.budget, query.dest
    out_edges, get_min = net._out, bound.get_min

    def expand(
        path: tuple[str, ...],
        node: str,
        state: Histogram | tuple[FoldStep, ...] | None,
        visited: frozenset[str],
        path_min: int,
    ) -> None:
        nonlocal best_path, best_prob
        # the prune test ik + path_min + node_min > budget, with path_min moved across
        slack = budget - path_min
        for e in out_edges[node]:
            to_node = e.to_node
            if to_node in visited:
                record(("skip-cycle", path, e.edge_id))
                continue
            ik = min_times[e.edge_id]
            node_min = get_min(to_node)
            if node_min is None or ik + node_min > slack:
                record(("prune", path, e.edge_id, None, ik, path_min, node_min))
                continue
            edges = path + (e.edge_id,)
            explored.add(e.edge_id)
            limit = budget - node_min
            try:
                cost, ext_state = extend_cost(model, state, edges, limit)
            except InconsistentWeightsError:
                record(("skip-inconsistent", path, e.edge_id))
                continue
            if to_node == dest:
                prob = within(cost, budget)
                record(("candidate", edges, None, prob))
                if prob > best_prob:
                    best_path, best_prob = Path(edges), prob
                    record(("incumbent", edges, None, prob))
                continue
            candidate = Label(
                edges,
                to_node,
                cost,
                ext_state,
                node_min,
                within(cost, limit),
                visited | {to_node},
                edge_mode or open_prefixes.isdisjoint(map(edges.__getitem__, suffixes)),
            )
            dominated = check_dominance(queue, candidate)
            if dominated is None:
                record(("dominated-drop", edges, None, candidate.r))
                continue
            for other in dominated:
                other.alive = False
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
        expand(label.edges, label.end_node, label.state, label.visited, least(label.cost))

    return SolveResult(
        path=best_path,
        probability=best_prob,
        explored_edges=len(explored),
        expanded_labels=expanded,
        wall_time_s=time.perf_counter() - t0,
        events=tuple(events),
        explored_edge_ids=frozenset(explored),
    )
