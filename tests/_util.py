"""Shared helpers for the randomized tests.

The generators here return both a float-valued object from the package
and an exact :mod:`fractions` reference, so tests can compare library
arithmetic against arithmetic done without rounding.  The Monte-Carlo
sampler draws travel times straight from the stored weights, an
independent check of :func:`spotar.weights.path_cost`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from spotar.dist import Histogram
from spotar.network import Network, Node, Edge, Path
from spotar.weights import CostModel, Mode, TrajectoryRecord, _cover, _unit_table, path_cost

ExactHist = dict[int, Fraction]


def rand_hist(
    rng: random.Random,
    *,
    max_support: int = 4,
    max_time: int = 30,
) -> tuple[Histogram, ExactHist]:
    """Random histogram plus its exact rational twin."""
    k = rng.randint(1, max_support)
    times = rng.sample(range(1, max_time + 1), k)
    weights = [rng.randint(1, 9) for _ in times]
    total = sum(weights)
    entries = {t: w / total for t, w in zip(times, weights)}
    exact = {t: Fraction(w, total) for t, w in zip(times, weights)}
    return Histogram(entries), exact


def approx_dict(got, want, tol: float = 1e-9) -> None:
    """Assert that two mappings, or their ``(key, value)`` pairs, have the
    same keys and values within ``tol``."""
    got, want = dict(got), dict(want)
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v, abs=tol), k


def exact_convolve(a: ExactHist, b: ExactHist) -> ExactHist:
    out: ExactHist = {}
    for ta, pa in a.items():
        for tb, pb in b.items():
            out[ta + tb] = out.get(ta + tb, Fraction(0)) + pa * pb
    return out


def exact_cdf(h: ExactHist, t: int) -> Fraction:
    return sum((p for tt, p in h.items() if tt <= t), Fraction(0))


def tiny_network(
    edge_specs: list[tuple[str, str, str, float, float]],
    *,
    delta: float = 1.0,
    coords: dict[str, tuple[float, float]] | None = None,
) -> Network:
    """Network from ``(edge_id, from, to, length_m, speed_mps)`` rows.

    Node coordinates are synthesized on a small grid so straight-line
    distances stay below every edge length (keeping the distance-based
    bound honest by construction).  ``coords`` gives ``(lat, lon)`` for
    the nodes it names instead, and then keeping the bound honest is the
    caller's job.
    """
    names = []
    for _, u, v, _, _ in edge_specs:
        for name in (u, v):
            if name not in names:
                names.append(name)
    # Cluster the nodes within a few meters of each other: 1e-5 deg of
    # latitude is roughly one meter.
    coords = coords or {}
    nodes = [
        Node(name, *coords.get(name, (57.0 + 1e-5 * (i % 3), 9.9 + 1e-5 * (i // 3))))
        for i, name in enumerate(names)
    ]
    edges = [
        Edge(eid, u, v, length, speed)
        for eid, u, v, length, speed in edge_specs
    ]
    return Network(nodes, edges, delta=delta)


def conflicting_records(
    records: list[TrajectoryRecord], rng: random.Random
) -> list[TrajectoryRecord]:
    """The same traversals with every time shifted by a random 0-2 units.

    Routes then disagree on the times of edges they share, so some
    covers fuse stored units that share no overlap time.
    """
    return [
        TrajectoryRecord(r.path, tuple(t + rng.randint(0, 2) for t in r.times), r.count)
        for r in records
    ]


def fast_trip_records(
    records: list[TrajectoryRecord], rng: random.Random
) -> list[TrajectoryRecord]:
    """The same traversals with every time ``t`` cut to ``max(1, t - k)``
    for a random ``k`` of at most ``t // 2``, drawn in record order.

    Many trips then beat their edge's speed-limit time, as GPS logs do,
    so a bound that divides crow-flight distance by the top speed limit
    would overestimate the remaining time.
    """
    return [
        TrajectoryRecord(r.path, tuple(max(1, t - rng.randint(0, t // 2)) for t in r.times), r.count)
        for r in records
    ]


def _prep_sampler(model: CostModel, path: Path):
    """Build a closure drawing one total travel time for ``path``.

    The units are every edge on its own in ``EDGE`` mode and the path's
    cover in ``PACE`` mode.  Draws the first unit outright, then each
    following unit conditioned on the times already fixed for the shared
    edges; a partial draw whose shared times no following unit can match
    is thrown away and restarted.  This samples exactly the distribution
    :func:`spotar.weights.path_cost` computes.  A path whose stored
    units share no overlap mass would restart forever, so it raises
    :class:`InconsistentWeightsError` here instead.
    """
    if model.mode is Mode.EDGE:
        units = [(i, (eid,)) for i, eid in enumerate(path.edges)]
    else:
        path_cost(model, path)  # raises where every draw would be thrown away
        units = _cover(model.store, path.edges)
    plan: list[tuple[int, dict]] = []
    covered = 0
    for start, unit in units:
        overlap = covered - start
        table = _unit_table(model.store, unit, overlap)
        plan.append((overlap, {key: tuple(zip(*pairs)) for key, (_, pairs) in table.items()}))
        covered = start + len(unit)

    def draw(rng: random.Random) -> int:
        while True:
            times: list[int] = []
            for overlap, groups in plan:
                group = groups.get(tuple(times[len(times) - overlap :]))
                if group is None:
                    break
                rests, _, weights = group
                times += rng.choices(rests, weights=weights)[0]
            else:
                return sum(times)

    return draw


def mc_arrival_prob(
    model: CostModel, path: Path, budget: int, n: int, rng: random.Random
) -> float:
    """Monte-Carlo estimate of the on-time probability over ``n`` draws."""
    if n < 1:
        raise ValueError("n must be at least 1")
    draw = _prep_sampler(model, path)
    hits = sum(1 for _ in range(n) if draw(rng) <= budget)
    return hits / n
