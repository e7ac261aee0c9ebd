"""Seeded generator for the city benchmark's inputs.

Everything here is standard library and independent of ``spotar``: the
program under test only ever sees the files this module writes, in the
documented network CSV and trajectory text formats.

The city is a jittered grid of two-way streets, with some streets
missing and some one-way, faster arterials every few rows and columns,
and edge lengths a little longer than the straight line between their
ends (which keeps the crow-flight bound admissible).

The trajectory log comes from popular routes.  Routes take their grid
displacement in turn from a short list and must not detour, so every
seed gives routes of the same lengths and stores of nearly the same
size.  Each route has its own congestion profile: three regimes (free,
busy, jammed) with route-level probabilities, and per edge and regime
its own slow-down level, mostly the regime's own but sometimes one step
off.  A trip picks one regime for its whole length, so times along a
trip are correlated, while two routes sharing an edge disagree about it.
That is what real logs look like and what a generator with one fast and
one slow time per edge hides.  Trips cover a random contiguous window of
their route, and each edge of a trip is now and then one level off its
route's profile.  Single-edge observations add scattered outliers.

``city-pace`` and ``city-edge`` get the same files for the same seed.

Usage (writes ``network.csv``, ``trajectories.txt`` and ``queries.txt``)::

    python3 citybench/gen.py --workload city-pace --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import heapq
import math
import os
import random
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
LAT0, LON0 = 57.02, 9.90  # Aalborg, where the paper's trajectories come from
LEVELS = (1.0, 1.4, 2.0)  # slow-down of an edge when free, busy or jammed
BUCKETS_KM = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
SHAPES = ((1, 0), (2, 1), (3, 2), (5, 1))  # grid displacement (columns, rows) of a query, per bucket


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's inputs."""

    cols: int
    rows: int
    routes: int
    trips_per_route: int
    trip_edges: tuple[int, int]  # shortest and longest trip window, in edges
    route_shapes: tuple[tuple[int, int], ...]  # grid displacements of popular routes, used in turn
    outliers: int
    queries_per_cell: int  # per distance bucket and budget class
    buckets: tuple[tuple[float, float], ...] = BUCKETS_KM


# city-pace and city-edge share the network, the log and the candidate queries; city-pace takes the
# first 96 queries of each cell, city-edge the first 192.  Edge-mode latencies have a heavier tail, so
# its figures need more queries to repeat from seed to seed.
SPECS = {
    "city-pace": Spec(18, 18, 120, 60, (3, 5), ((3, 1), (2, 2), (4, 1), (3, 2)), 1000, 96),
    "city-edge": Spec(18, 18, 120, 60, (3, 5), ((3, 1), (2, 2), (4, 1), (3, 2)), 1000, 192),
    "cli-cold": Spec(18, 18, 360, 60, (2, 4), ((1, 1), (2, 1), (3, 1), (2, 2)), 3000, 13, BUCKETS_KM[:2]),
}


@dataclass(frozen=True)
class Node:
    node_id: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Edge:
    edge_id: str
    src: str
    dst: str
    length: float
    speed: float


@dataclass
class City:
    nodes: list[Node]
    edges: list[Edge]

    def __post_init__(self) -> None:
        self.node = {n.node_id: n for n in self.nodes}
        self.edge = {e.edge_id: e for e in self.edges}
        self.out: dict[str, list[Edge]] = {n.node_id: [] for n in self.nodes}
        for e in self.edges:
            self.out[e.src].append(e)


def distance_m(a: Node, b: Node) -> float:
    mean_lat = math.radians((a.lat + b.lat) / 2.0)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon) * math.cos(mean_lat)
    return EARTH_RADIUS_M * math.hypot(dlat, dlon)


def snap(seconds: float) -> int:
    """Grid time of a duration at one second per unit: half up, minimum 1."""
    return max(1, math.floor(seconds + 0.5))


def make_city(rng: random.Random, cols: int, rows: int, spacing_m: float = 700.0) -> City:
    m_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(LAT0))
    nodes = []
    for r in range(rows):
        for c in range(cols):
            y = r * spacing_m + rng.uniform(-25.0, 25.0)
            x = c * spacing_m + rng.uniform(-25.0, 25.0)
            nodes.append(Node(f"n{r:03d}_{c:03d}", LAT0 + y / m_per_deg_lat, LON0 + x / m_per_deg_lon))
    by_id = {n.node_id: n for n in nodes}
    edges: list[Edge] = []

    def street(a: str, b: str, arterial: bool) -> None:
        roll = rng.random()
        if roll < 0.06:
            return  # no street here
        speed = 13.9 if arterial else 8.3
        length = math.ceil(distance_m(by_id[a], by_id[b]) * rng.uniform(1.03, 1.15) * 10.0) / 10.0
        ends = [(a, b), (b, a)]
        if roll < 0.14:
            ends = [rng.choice(ends)]  # one-way street
        for src, dst in ends:
            edges.append(Edge(f"e{len(edges):05d}", src, dst, length, speed))

    for r in range(rows):
        for c in range(cols):
            here = f"n{r:03d}_{c:03d}"
            if c + 1 < cols:
                street(here, f"n{r:03d}_{c + 1:03d}", r % 5 == 0)
            if r + 1 < rows:
                street(here, f"n{r + 1:03d}_{c:03d}", c % 5 == 0)
    return City(nodes, edges)


def dijkstra(city: City, source: str, weight: dict[str, float]) -> tuple[dict[str, float], dict[str, str]]:
    """Forward shortest paths from ``source``; returns distances and the edge into each node."""
    dist = {source: 0.0}
    via: dict[str, str] = {}
    heap = [(0.0, source)]
    done: set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for e in city.out[node]:
            nd = d + weight[e.edge_id]
            if nd < dist.get(e.dst, math.inf):
                dist[e.dst] = nd
                via[e.dst] = e.edge_id
                heapq.heappush(heap, (nd, e.dst))
    return dist, via


def route_edges(city: City, via: dict[str, str], dest: str) -> list[str]:
    out = []
    node = dest
    while node in via:
        eid = via[node]
        out.append(eid)
        node = city.edge[eid].src
    return out[::-1]


def place(rng: random.Random, spec: Spec, shape: tuple[int, int]) -> tuple[str, str]:
    """A node pair ``shape`` grid steps apart, at a random place and in one of eight orientations."""
    while True:
        dc, dr = shape if rng.random() < 0.5 else shape[::-1]
        dc *= rng.choice((-1, 1))
        dr *= rng.choice((-1, 1))
        r0, c0 = rng.randrange(spec.rows), rng.randrange(spec.cols)
        r1, c1 = r0 + dr, c0 + dc
        if 0 <= r1 < spec.rows and 0 <= c1 < spec.cols:
            return f"n{r0:03d}_{c0:03d}", f"n{r1:03d}_{c1:03d}"


def shift(rng: random.Random, level: int, p: float) -> int:
    """``level``, moved one step up or down with probability ``p``."""
    if rng.random() >= p:
        return level
    return min(len(LEVELS) - 1, max(0, level + rng.choice((-1, 1))))


def make_log(rng: random.Random, city: City, spec: Spec) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """Trajectory records ``(count, ((edge, seconds), ...))`` in a fixed order."""
    freeflow = {e.edge_id: e.length / e.speed for e in city.edges}
    patterns: dict[tuple[tuple[str, int], ...], int] = {}
    made = 0
    while made < spec.routes:
        shape = spec.route_shapes[made % len(spec.route_shapes)]
        a, b = place(rng, spec, shape)
        # Route choice: free-flow time with a per-route taste for some streets.
        taste = {eid: t * rng.uniform(0.85, 1.25) for eid, t in freeflow.items()}
        _, via = dijkstra(city, a, taste)
        route = route_edges(city, via, b)
        if len(route) != sum(shape):
            continue  # keep every route of a shape equally long, so store sizes vary little
        made += 1
        weights = [rng.uniform(0.4, 0.7), rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)]
        # Per edge and regime, the level this route's traffic sees there.
        levels = [[shift(rng, k, 0.2) for _ in route] for k in range(3)]
        for _ in range(spec.trips_per_route):
            span = rng.randint(spec.trip_edges[0], min(spec.trip_edges[1], len(route)))
            start = rng.randint(0, len(route) - span)
            regime = rng.choices(range(3), weights)[0]
            trip = tuple(
                (route[i], snap(freeflow[route[i]] * LEVELS[shift(rng, levels[regime][i], 0.1)]))
                for i in range(start, start + span)
            )
            patterns[trip] = patterns.get(trip, 0) + 1
    edge_ids = [e.edge_id for e in city.edges]
    for _ in range(spec.outliers):
        eid = rng.choice(edge_ids)
        single = ((eid, snap(freeflow[eid] * rng.choice(LEVELS))),)
        patterns[single] = patterns.get(single, 0) + 1
    return [(count, trip) for trip, count in patterns.items()]


def edge_times(city: City, log) -> tuple[dict[str, int], dict[str, int]]:
    """Per-edge fastest and slowest observed grid time (free-flow time if unobserved)."""
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for _count, trip in log:
        for eid, sec in trip:
            t = snap(sec)
            lo[eid] = min(lo.get(eid, t), t)
            hi[eid] = max(hi.get(eid, t), t)
    for e in city.edges:
        if e.edge_id not in lo:
            lo[e.edge_id] = hi[e.edge_id] = snap(e.length / e.speed)
    return lo, hi


@dataclass(frozen=True)
class QuerySpec:
    source: str
    dest: str
    budget: int
    bucket: int
    loose: bool


def make_queries(rng: random.Random, city: City, log, spec: Spec) -> list[QuerySpec]:
    """Candidate queries, interleaved across distance buckets and budget classes.

    Within a bucket every query spans the same grid displacement (``SHAPES``);
    the seed picks where in the city it lies and which of the eight grid
    symmetries it takes, and its minimum-time route must not detour around
    missing streets.  On a grid the number of near-shortest routes, and so
    the search effort, depends mostly on that displacement, so fixing it
    keeps the work of a bucket alike from seed to seed and no single query
    takes a large share of a pass.

    A tight budget sits a sixth of the way from the fastest to the slowest
    observed time of the minimum-time route, so the best answer usually lies
    strictly between 0 and 1.  A loose budget is the least worst-case time
    of any route, so some path makes it for sure.  The list is longer than a
    workload needs: callers take queries from its front and skip the ones
    the program cannot answer, so the same seed always gives the same list.
    """
    lo, hi = edge_times(city, log)
    fastest = {k: float(v) for k, v in lo.items()}
    slowest = {k: float(v) for k, v in hi.items()}
    cells = [(b, loose) for b in range(len(spec.buckets)) for loose in (False, True)]
    out: list[QuerySpec] = []
    for _round in range(spec.queries_per_cell + max(8, spec.queries_per_cell // 4)):
        for b, loose in cells:
            bucket_lo, bucket_hi = spec.buckets[b]
            while True:
                s, d = place(rng, spec, SHAPES[b])
                km = distance_m(city.node[s], city.node[d]) / 1000.0
                if not bucket_lo <= km < bucket_hi:
                    continue
                _, via = dijkstra(city, s, fastest)
                if d not in via:
                    continue
                route = route_edges(city, via, d)
                if len(route) != sum(SHAPES[b]):
                    continue  # a detour around missing streets: the search region balloons
                fast = sum(lo[e] for e in route)
                slow = sum(hi[e] for e in route)
                if loose:
                    worst, _ = dijkstra(city, s, slowest)
                    budget = int(worst[d])
                else:
                    budget = fast + (slow - fast) // 6
                out.append(QuerySpec(s, d, budget, b, loose))
                break
    return out


def write_network(path: str, city: City) -> None:
    lines = ["#nodes"]
    lines += [f"{n.node_id},{n.lat:.7f},{n.lon:.7f}" for n in city.nodes]
    lines.append("#edges")
    lines += [f"{e.edge_id},{e.src},{e.dst},{e.length:.1f},{e.speed}" for e in city.edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_log(path: str, log) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for count, trip in log:
            fh.write(f"{count}," + ";".join(f"{eid}:{sec}" for eid, sec in trip) + "\n")


def write_queries(path: str, queries: list[QuerySpec]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(f"{q.source},{q.dest},{q.budget},{q.bucket},{'loose' if q.loose else 'tight'}\n")


def generate(workload: str, seed: int, out_dir: str) -> tuple[City, list, list[QuerySpec]]:
    """Write one workload's network, trajectory log and candidate queries for a seed."""
    spec = SPECS[workload]
    rng = random.Random(f"{'city' if workload.startswith('city') else workload}:{seed}")
    city = make_city(rng, spec.cols, spec.rows)
    log = make_log(rng, city, spec)
    queries = make_queries(rng, city, log, spec)
    os.makedirs(out_dir, exist_ok=True)
    write_network(os.path.join(out_dir, "network.csv"), city)
    write_log(os.path.join(out_dir, "trajectories.txt"), log)
    write_queries(os.path.join(out_dir, "queries.txt"), queries)
    return city, log, queries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the files into")
    args = parser.parse_args()
    city, log, queries = generate(args.workload, args.seed, args.out)
    print(
        f"{len(city.nodes)} nodes, {len(city.edges)} edges, {len(log)} trajectory records "
        f"({sum(c for c, _ in log)} trips), {len(queries)} candidate queries -> {args.out}"
    )


if __name__ == "__main__":
    main()
