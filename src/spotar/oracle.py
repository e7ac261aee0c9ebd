"""Ground truth and test instruments: brute force and generation.

Everything here is independent of the search: the exact answer comes
from full path enumeration, and the instance generator produces small
strongly connected networks with correlated trajectories from a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .heuristic import HeuristicKind, build_min_tree
from .network import Edge, Network, Node, Path, Query, make_path
from .solver import solve
from .weights import (
    CostModel,
    InconsistentWeightsError,
    Mode,
    TrajectoryRecord,
    build_store,
    path_cost,
)

VERIFY_TOL = 1e-9


class EnumerationLimitError(RuntimeError):
    """Raised when brute force would enumerate too many paths."""


ENUMERATION_LIMIT = 100_000


def enumerate_simple_paths(net: Network, query: Query) -> list[Path]:
    """All node-simple paths from source to destination, DFS order.

    The walk never enters the destination, so it needs no cap on edges.
    Raises :class:`EnumerationLimitError` beyond ``ENUMERATION_LIMIT`` paths.
    """
    for node_id in (query.source, query.dest):
        if not net.has_node(node_id):
            raise ValueError(f"unknown node {node_id!r}")
    out: list[Path] = []

    def walk(node: str, edges: tuple[str, ...], visited: frozenset[str]) -> None:
        for e in net.out_edges(node):
            if e.to_node in visited:
                continue
            grown = edges + (e.edge_id,)
            if e.to_node == query.dest:
                out.append(Path(grown))
                if len(out) > ENUMERATION_LIMIT:
                    raise EnumerationLimitError(f"more than {ENUMERATION_LIMIT} simple paths")
                continue
            walk(e.to_node, grown, visited | {e.to_node})

    walk(query.source, (), frozenset((query.source,)))
    return out


def exact_spotar(net: Network, model: CostModel, query: Query) -> tuple[Path | None, float]:
    """Brute-force answer: evaluate every simple path, keep the best.

    Ties prefer fewer edges, then lexicographic edge ids.  Paths whose
    stored units share no overlap mass have no cost and are skipped.
    Returns ``(None, 0.0)`` when no path can make the budget at all.
    """
    best_path: Path | None = None
    best_prob = 0.0
    for p in enumerate_simple_paths(net, query):
        try:
            prob = path_cost(model, p).cdf(query.budget)
        except InconsistentWeightsError:
            continue
        if prob <= 0.0:
            continue
        if best_path is None:
            best_path, best_prob = p, prob
            continue
        if prob > best_prob or (
            prob == best_prob
            and (len(p.edges), p.edges) < (len(best_path.edges), best_path.edges)
        ):
            best_path, best_prob = p, prob
    return best_path, best_prob


_SPEEDS = (5.0, 8.0, 10.0, 12.5, 15.0)
_BASE_LAT = 57.0
_BASE_LON = 9.92


def gen_instance(
    seed: int,
    *,
    nodes: int = 8,
    density: float = 0.3,
    joint_fraction: float = 0.5,
    min_support: int = 10,
) -> tuple[Network, list[TrajectoryRecord]]:
    """Deterministic random instance: network plus trajectories.

    The network is strongly connected (a hidden cycle through every
    node) with extra edges controlled by ``density``.  Edge lengths are
    exact multiples of speed times the grid unit, and no observed time
    beats an edge's nominal minimum, so the straight-line bound stays
    admissible by construction.

    Every edge has one fast and one strictly slower observed time, and
    every generated route is traversed at least once wholly fast and
    once wholly slow.  Stored sub-path weights therefore always share
    overlap times wherever they meet: any covering of any path can be
    fused.  About ``joint_fraction`` of the routes carry enough
    repeated traversals to become stored path weights at
    ``min_support``; the rest stay sparse and only shape edge weights.
    """
    if nodes < 3:
        raise ValueError(f"need at least 3 nodes, got {nodes}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 0.0 <= joint_fraction <= 1.0:
        raise ValueError(f"joint_fraction must be in [0, 1], got {joint_fraction}")
    rng = random.Random(seed)
    extent_lat = 160.0 * math.sqrt(nodes) / 111_320.0
    extent_lon = extent_lat / math.cos(math.radians(_BASE_LAT))
    node_objs = [
        Node(
            f"n{i:03d}",
            _BASE_LAT + rng.uniform(0.0, extent_lat),
            _BASE_LON + rng.uniform(0.0, extent_lon),
        )
        for i in range(nodes)
    ]
    placed = Network(node_objs, [], 1.0)

    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    order = [n.node_id for n in node_objs]
    rng.shuffle(order)
    for i, u in enumerate(order):
        v = order[(i + 1) % len(order)]
        pairs.append((u, v))
        seen.add((u, v))
    extras = max(0, round(2.5 * nodes * density) + rng.randint(-1, 1))
    ids = [n.node_id for n in node_objs]
    for _ in range(extras):
        for _attempt in range(30):
            u, v = rng.choice(ids), rng.choice(ids)
            if u != v and (u, v) not in seen:
                pairs.append((u, v))
                seen.add((u, v))
                break

    edges: list[Edge] = []
    fast_time: dict[str, int] = {}
    slow_time: dict[str, int] = {}
    for i, (u, v) in enumerate(pairs):
        speed = rng.choice(_SPEEDS)
        tau = max(1, math.ceil(placed.distance_m(u, v) / speed)) + rng.randint(0, 2)
        eid = f"e{i:03d}"
        edges.append(Edge(eid, u, v, tau * speed, speed))
        fast_time[eid] = tau + rng.randint(0, 1)
        slow_time[eid] = tau + rng.randint(2, 5)
    net = Network(node_objs, edges, 1.0)

    records: list[TrajectoryRecord] = []
    for _route in range(max(2, round(nodes * 0.8))):
        edge_ids: list[str] = []
        for _attempt in range(4):
            cur = rng.choice(ids)
            visited = {cur}
            edge_ids = []
            target = rng.randint(2, 6)
            while len(edge_ids) < target:
                options = [e for e in net.out_edges(cur) if e.to_node not in visited]
                if not options:
                    break
                e = rng.choice(options)
                edge_ids.append(e.edge_id)
                visited.add(e.to_node)
                cur = e.to_node
            if len(edge_ids) >= 2:
                break
        if len(edge_ids) < 2:
            continue
        route = make_path(net, edge_ids)
        fast = tuple(fast_time[eid] for eid in edge_ids)
        slow = tuple(slow_time[eid] for eid in edge_ids)
        if rng.random() < joint_fraction:
            c_fast = min_support // 2 + rng.randint(1, 6)
            c_slow = min_support // 2 + rng.randint(1, 6)
            c_fast += max(0, min_support - c_fast - c_slow)
        else:
            c_fast = rng.randint(1, 3)
            c_slow = rng.randint(1, 3)
        records.append(TrajectoryRecord(route, fast, c_fast))
        records.append(TrajectoryRecord(route, slow, c_slow))
    return net, records


@dataclass(frozen=True)
class VerifyCase:
    """One solver-vs-brute-force comparison.

    ``achieved_prob`` re-evaluates the solver's returned path from
    scratch, so a match certifies both the probability and the path.
    """

    instance_seed: int
    mode: Mode
    heuristic: HeuristicKind
    query: Query
    solver_prob: float
    oracle_prob: float
    achieved_prob: float

    @property
    def match(self) -> bool:
        return (
            abs(self.solver_prob - self.oracle_prob) <= VERIFY_TOL
            and abs(self.achieved_prob - self.solver_prob) <= VERIFY_TOL
        )


def verify_instances(
    seed: int,
    instances: int,
    *,
    nodes: int = 8,
    density: float = 0.3,
    joint_fraction: float = 0.5,
    min_support: int = 10,
    max_unit_len: int = 8,
) -> list[VerifyCase]:
    """Cross-check the search against brute force on seeded instances.

    Every instance is solved for one random query under all four
    method combinations (both modes, both bounds).  ``max_unit_len`` caps
    the stored sub-paths; a small cap makes the pace fold drop times out
    of its remembered window more often.
    """
    cases: list[VerifyCase] = []
    for i in range(instances):
        inst_seed = seed + i
        net, recs = gen_instance(
            inst_seed,
            nodes=nodes,
            density=density,
            joint_fraction=joint_fraction,
            min_support=min_support,
        )
        store = build_store(
            net, recs, min_support=min_support, mode=Mode.PACE, max_unit_len=max_unit_len
        )
        qrng = random.Random(f"query-{inst_seed}")
        source, dest = qrng.sample(list(net.node_ids), 2)
        tree = build_min_tree(net, store, dest, 10**9)
        shortest = tree.get_min(source)
        assert shortest is not None  # the hidden cycle connects everything
        budget = shortest + qrng.randint(0, max(4, shortest))
        query = Query(source, dest, budget)
        for mode in (Mode.PACE, Mode.EDGE):
            model = CostModel(store, mode)
            _, oracle_prob = exact_spotar(net, model, query)
            for kind in (HeuristicKind.SP, HeuristicKind.BA):
                res = solve(net, model, kind, query)
                if res.path is None:
                    achieved = 0.0
                else:
                    achieved = path_cost(model, res.path).cdf(query.budget)
                cases.append(
                    VerifyCase(
                        instance_seed=inst_seed,
                        mode=mode,
                        heuristic=kind,
                        query=query,
                        solver_prob=res.probability,
                        oracle_prob=oracle_prob,
                        achieved_prob=achieved,
                    )
                )
    return cases
