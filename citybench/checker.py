"""Answer checker for the city benchmark, written apart from ``spotar``.

It imports nothing from the package under test.  It reads the network
CSV, the saved weight store (JSON) and the trajectory log itself, and
re-derives what an answer must satisfy from the documented rules:

* a returned path is a node-simple chain of network edges from the
  source to the destination, and its probability lies in [0, 1 + 1e-9];
* re-scored here, the path reaches the destination within the budget
  with the reported probability, to within ``TOL``.  Edge mode convolves
  independent edge histograms; pace mode greedily covers the path with
  stored sub-paths and conditions each unit on its overlap with the
  covered prefix;
* in edge mode a zero answer occurs exactly when the minimum possible
  travel time (a Dijkstra over per-edge minimum times) exceeds the
  budget; in pace mode that Dijkstra exceeding the budget implies a zero
  answer;
* per-edge histograms in the store equal the checker's own count of the
  trajectory log, and unobserved edges fall back to a point mass at
  their speed-limit time.

The pace fold below keeps, per state, the total so far and the times of
only as many trailing edges as the longest overlap in this path's cover
needs, which is a different bookkeeping from the program's.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

TOL = 1e-9


class CheckerInconsistent(Exception):
    """The documented fusion rule leaves no mass: overlapping units disagree."""


@dataclass
class Net:
    nodes: dict[str, tuple[float, float]]
    edges: dict[str, tuple[str, str, float, float]]  # id -> (from, to, length_m, speed_mps)

    def __post_init__(self) -> None:
        self.out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for eid, (src, _dst, _l, _v) in self.edges.items():
            self.out[src].append(eid)


@dataclass
class Store:
    delta: float
    edges: dict[str, dict[int, float]]
    joints: dict[tuple[str, ...], dict[tuple[int, ...], float]]
    fallback: set[str]

    def __post_init__(self) -> None:
        self.starting: dict[str, list[tuple[str, ...]]] = {}
        for key in self.joints:
            self.starting.setdefault(key[0], []).append(key)


def read_network(path: str) -> Net:
    nodes: dict[str, tuple[float, float]] = {}
    edges: dict[str, tuple[str, str, float, float]] = {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            f = [x.strip() for x in line.split(",")]
            if section == "nodes":
                nodes[f[0]] = (float(f[1]), float(f[2]))
            else:
                edges[f[0]] = (f[1], f[2], float(f[3]), float(f[4]))
    return Net(nodes, edges)


def read_store(path: str) -> Store:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edges = {eid: {int(t): float(p) for t, p in pairs} for eid, pairs in doc["edge_weights"].items()}
    joints = {
        tuple(entry["edges"]): {tuple(int(t) for t in row): float(p) for row, p in entry["rows"]}
        for entry in doc["path_weights"]
    }
    return Store(float(doc["delta"]), edges, joints, set(doc["fallback_edges"]))


def snap(seconds: float, delta: float) -> int:
    """Documented grid rule: half up, at least one unit."""
    return max(1, math.floor(seconds / delta + 0.5))


def count_log(path: str, delta: float) -> dict[str, dict[int, int]]:
    """Per-edge counts of grid times in a trajectory log."""
    counts: dict[str, dict[int, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(",")
            n = int(head)
            for step in rest.split(";"):
                eid, _, sec = step.partition(":")
                t = snap(float(sec), delta)
                per = counts.setdefault(eid.strip(), {})
                per[t] = per.get(t, 0) + n
    return counts


def check_edge_weights(net: Net, store: Store, counts: dict[str, dict[int, int]], edge_ids) -> list[str]:
    """Compare the store's histograms of ``edge_ids`` with counts taken from the log."""
    problems = []
    for eid in edge_ids:
        got = store.edges.get(eid)
        seen = counts.get(eid)
        if seen:
            total = sum(seen.values())
            want = {t: c / total for t, c in seen.items()}
        else:
            _s, _d, length, speed = net.edges[eid]
            want = {snap(length / speed, store.delta): 1.0}
        if got is None or set(got) != set(want) or any(abs(got[t] - want[t]) > TOL for t in want):
            problems.append(f"edge {eid}: store has {got}, log gives {want}")
        if (not seen) != (eid in store.fallback):
            problems.append(f"edge {eid}: fallback flag disagrees with the log")
    return problems


def min_time(net: Net, store: Store, source: str, dest: str) -> float:
    """Smallest possible travel time from ``source`` to ``dest`` (inf if unreachable)."""
    least = {eid: min(h) for eid, h in store.edges.items()}
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dest:
            return d
        if d > best[node]:
            continue
        for eid in net.out[node]:
            nxt = net.edges[eid][1]
            nd = d + least[eid]
            if nd < best.get(nxt, math.inf):
                best[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return math.inf


def path_problem(net: Net, source: str, dest: str, edges: list[str]) -> str | None:
    """Why ``edges`` is not a node-simple path from source to dest, or None."""
    if not edges:
        return "empty path"
    node = source
    seen = {source}
    for eid in edges:
        if eid not in net.edges:
            return f"unknown edge {eid}"
        src, dst, _l, _v = net.edges[eid]
        if src != node:
            return f"edge {eid} does not start at {node}"
        if dst in seen:
            return f"node {dst} visited twice"
        seen.add(dst)
        node = dst
    return None if node == dest else f"path ends at {node}, not {dest}"


def cover(store: Store, edges: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
    """Greedy left-to-right cover by stored units, as documented.

    Each step takes, among stored units that start after the previous
    unit's start and no later than the end of coverage and that match the
    path and extend coverage, the one ending furthest; ties go to the one
    starting earliest (larger overlap).  A lone edge fills in otherwise.
    """
    units: list[tuple[int, tuple[str, ...]]] = []
    covered = 0
    prev = -1
    while covered < len(edges):
        pick = (covered, (edges[covered],))
        reach = covered + 1
        for s in range(prev + 1, covered + 1):
            for unit in store.starting.get(edges[s], ()):
                end = s + len(unit)
                if covered < end <= len(edges) and edges[s:end] == unit:
                    if end > reach or (end == reach and s < pick[0]):
                        pick, reach = (s, unit), end
        units.append(pick)
        prev, covered = pick[0], reach
    return units


def edge_totals(store: Store, edges) -> dict[int, float]:
    dist = {0: 1.0}
    for eid in edges:
        nxt: dict[int, float] = {}
        for t, p in dist.items():
            for u, q in store.edges[eid].items():
                nxt[t + u] = nxt.get(t + u, 0.0) + p * q
        dist = nxt
    return dist


def pace_totals(store: Store, edges: tuple[str, ...]) -> dict[int, float]:
    """Total-time distribution of a path under the pace fusion rule."""
    units = cover(store, edges)
    overlaps = []
    covered = 0
    for start, unit in units:
        overlaps.append(covered - start)
        covered = start + len(unit)
    keep = max(overlaps)
    # state: (total time so far, times of the last `keep` covered edges) -> mass
    state: dict[tuple[int, tuple[int, ...]], float] = {(0, ()): 1.0}
    for (_start, unit), o in zip(units, overlaps):
        rows = store.joints[unit] if len(unit) > 1 else {(t,): p for t, p in store.edges[unit[0]].items()}
        by_head: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]] = {}
        for row, p in rows.items():
            by_head.setdefault(row[:o], []).append((row[o:], p))
        head_mass = {h: math.fsum(p for _r, p in rs) for h, rs in by_head.items()}
        nxt: dict[tuple[int, tuple[int, ...]], float] = {}
        for (total, tail), p in state.items():
            head = tail[len(tail) - o :] if o else ()
            if head not in by_head:
                continue
            for rest, q in by_head[head]:
                grown = tail + rest
                key = (total + sum(rest), grown[len(grown) - keep :] if keep else ())
                nxt[key] = nxt.get(key, 0.0) + p * q / head_mass[head]
        mass = math.fsum(nxt.values())
        if mass <= 1e-12:
            raise CheckerInconsistent(f"unit {unit} shares no mass with the covered prefix")
        state = {k: v / mass for k, v in nxt.items()}
    out: dict[int, float] = {}
    for (total, _tail), p in state.items():
        out[total] = out.get(total, 0.0) + p
    return out


def on_time(store: Store, mode: str, edges, budget: int) -> float:
    """Probability that the path's total time is at most ``budget``."""
    dist = pace_totals(store, tuple(edges)) if mode == "pace" else edge_totals(store, edges)
    return math.fsum(p for t, p in dist.items() if t <= budget)


def best_by_enumeration(net: Net, store: Store, mode: str, source: str, dest: str,
                        budget: int) -> tuple[float, tuple[str, ...] | None]:
    """Best on-time probability over every simple path, and the path; for tiny networks only."""
    best, best_path = 0.0, None
    stack = [(source, (), frozenset((source,)))]
    while stack:
        node, path, seen = stack.pop()
        for eid in net.out[node]:
            nxt = net.edges[eid][1]
            if nxt in seen:
                continue
            grown = path + (eid,)
            if nxt == dest:
                try:
                    score = on_time(store, mode, grown, budget)
                except CheckerInconsistent:
                    continue
                if score > best:
                    best, best_path = score, grown
            else:
                stack.append((nxt, grown, seen | {nxt}))
    return best, best_path


@dataclass
class Answer:
    path: list[str] | None
    probability: float


def answer_problem(net: Net, store: Store, mode: str, source: str, dest: str, budget: int, ans: Answer):
    """Check one answer on its own.  Returns (problem or None, checker's score)."""
    floor = min_time(net, store, source, dest)
    if ans.path is None:
        if ans.probability != 0.0:
            return f"no path but probability {ans.probability}", 0.0
        if mode == "edge" and floor <= budget:
            return f"no path although a trip can take {floor} <= {budget}", 0.0
        return None, 0.0
    problem = path_problem(net, source, dest, ans.path)
    if problem:
        return problem, 0.0
    if not 0.0 <= ans.probability <= 1.0 + TOL:
        return f"probability {ans.probability} outside [0, 1]", 0.0
    if floor > budget:
        return f"a path although no trip can take less than {floor} > {budget}", 0.0
    score = on_time(store, mode, ans.path, budget)
    if abs(score - ans.probability) > TOL:
        return f"reported {ans.probability!r}, path scores {score!r}", score
    return None, score
