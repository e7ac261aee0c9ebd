"""Tests for the remaining-time lower bounds."""

from __future__ import annotations

import heapq
import math
import random

import pytest

from spotar.dist import Histogram, min_cost
from spotar.heuristic import (
    HeuristicKind,
    StraightLineBound,
    TreeBound,
    build_min_tree,
    make_heuristic,
)
from spotar.network import Edge, Network, Node, Query
from spotar.oracle import gen_instance
from spotar.solver import solve
from spotar.weights import CostModel, Mode, build_store

from _util import fast_trip_records, rand_hist


def test_heuristic_kind_parse():
    assert HeuristicKind.parse("sp") is HeuristicKind.SP
    assert HeuristicKind.parse("BA") is HeuristicKind.BA
    with pytest.raises(ValueError):
        HeuristicKind.parse("astar")


def test_make_heuristic_and_solve_reject_a_kind_name(sample_net, sample_store, pace_model):
    """A bound name is not a :class:`HeuristicKind`, whichever bound it names."""
    with pytest.raises(ValueError, match="^heuristic 'sp' is not a HeuristicKind$"):
        make_heuristic("sp", sample_net, sample_store, "d", 22)
    with pytest.raises(ValueError, match="^heuristic 'sp' is not a HeuristicKind$"):
        solve(sample_net, pace_model, "sp", Query("s", "d", 22))


def test_min_tree_sample_values(sample_net, sample_store):
    tree = build_min_tree(sample_net, sample_store, "d", 22)
    assert tree.mins == {"s": 18, "e": 11, "r": 10, "q": 5, "f": 8, "d": 0}
    assert tree.get_min("s") == 18
    assert tree.get_min("d") == 0


def test_min_tree_budget_cutoff(sample_net, sample_store):
    tree = build_min_tree(sample_net, sample_store, "d", 15)
    assert "s" not in tree.mins  # 18 units of road is over the cap
    assert tree.get_min("s") is None
    assert tree.mins == {"e": 11, "r": 10, "q": 5, "f": 8, "d": 0}
    tight = build_min_tree(sample_net, sample_store, "d", 4)
    assert tight.mins == {"d": 0}


def test_min_tree_unknown_dest(sample_net, sample_store):
    with pytest.raises(ValueError):
        build_min_tree(sample_net, sample_store, "zz", 10)


def test_tree_bound_wraps_tree(sample_net, sample_store):
    h = make_heuristic(HeuristicKind.SP, sample_net, sample_store, "d", 22)
    assert isinstance(h, TreeBound)
    assert h.get_min("q") == 5
    assert h.get_min("d") == 0


def crow_speed(net, store):
    """The fastest crow-flight speed any edge's minimum time implies, in
    meters per grid unit, with the bound's relative slack."""
    return max(
        net.distance_m(net.edge(eid).from_node, net.edge(eid).to_node)
        / min_cost(store.edge_weight(eid))
        for eid in net.edge_ids
    ) * (1.0 + 1e-9)


def test_straight_line_bound_formula(sample_net, sample_store):
    """Every node, asked twice: the bound remembers each node's value."""
    h = make_heuristic(HeuristicKind.BA, sample_net, sample_store, "d", 22)
    assert isinstance(h, StraightLineBound)
    speed = crow_speed(sample_net, sample_store)
    for nid in [*sample_net.node_ids, *reversed(sample_net.node_ids)]:
        assert h.get_min(nid) == math.floor(sample_net.distance_m(nid, "d") * (1.0 / speed))
    assert h.get_min("d") == 0


def test_straight_line_speed_is_kept_per_network_and_store(sample_net, sample_store, monkeypatch):
    """The speed is computed once per (network, store) pair, and again for another network."""
    calls = []
    distance = Network.distance_m
    monkeypatch.setattr(Network, "distance_m", lambda net, a, b: calls.append((a, b)) or distance(net, a, b))
    nodes = [sample_net.node(n) for n in sample_net.node_ids]
    edges = [sample_net.edge(e) for e in sample_net.edge_ids]
    for net in (Network(nodes, edges), Network(nodes, edges)):
        calls.clear()
        StraightLineBound(net, sample_store, "d")
        assert len(calls) == net.num_edges()
        calls.clear()
        StraightLineBound(net, sample_store, "q")
        assert calls == []


def test_straight_line_bound_errors(sample_net, sample_store):
    with pytest.raises(ValueError, match="^unknown node 'zz'$"):
        StraightLineBound(sample_net, sample_store, "zz")


@pytest.mark.parametrize(
    "edges",
    [[], [Edge("x", "a", "b", 10.0, 5.0), Edge("y", "b", "a", 10.0, 5.0)]],
    ids=["no-edge", "zero-crow-edges"],
)
def test_bounds_agree_where_no_edge_has_crow_length(edges):
    """An edgeless network is no error for the straight-line bound: with
    no edge of positive crow-flight length it is 0 everywhere, and both
    bounds give the same answers."""
    net = Network([Node("a", 57.0, 9.9), Node("b", 57.0, 9.9), Node("c", 57.001, 9.9)], edges)
    model = CostModel(build_store(net, [], min_support=1), Mode.EDGE)
    line = StraightLineBound(net, model.store, "c")
    assert [line.get_min(n) for n in net.node_ids] == [0, 0, 0]
    for source, dest in (("a", "c"), ("a", "b")):
        query = Query(source, dest, 5)
        sp, ba = (solve(net, model, kind, query) for kind in HeuristicKind)
        assert (sp.path, sp.probability) == (ba.path, ba.probability)
        assert (ba.path is None) == (dest == "c" or not edges)


def test_straight_line_never_exceeds_tree(sample_net, sample_store):
    tree = build_min_tree(sample_net, sample_store, "d", 10**6)
    line = StraightLineBound(sample_net, sample_store, "d")
    for nid in sample_net.node_ids:
        assert line.get_min(nid) <= tree.get_min(nid)


def test_bounds_are_admissible_on_random_instances():
    # The tree is the exact minimum, and the straight line stays under
    # it, on generated networks as well.
    for seed in range(10):
        net, records = gen_instance(seed)
        store = build_store(net, records, min_support=10)
        rng = random.Random(seed)
        dest = rng.choice(list(net.node_ids))
        tree = build_min_tree(net, store, dest, 10**6)
        line = StraightLineBound(net, store, dest)
        for nid in net.node_ids:
            tmin = tree.get_min(nid)
            assert tmin is not None  # generated networks are strongly connected
            assert line.get_min(nid) <= tmin


def consistent_stores():
    """Stores of every kind the bounds must hold on: generated ones, and
    fast-trip ones whose trips beat their edges' speed-limit times."""
    for seed in range(20):
        net, records = gen_instance(seed, joint_fraction=0.9, min_support=2)
        for recs in (records, fast_trip_records(records, random.Random(seed))):
            yield net, build_store(net, recs, min_support=2, mode=Mode.PACE, max_unit_len=3)


def test_both_bounds_are_consistent_on_every_edge(sample_net, sample_store):
    """``h(dest) == 0`` and ``h(u) <= min_time(e) + h(w)`` on every edge ``e``
    from ``u`` to ``w``, for every destination, with both bounds.  The
    tree has no value at a node that cannot reach the destination, where
    the inequality holds with ``h(w)`` infinite."""
    checked = 0
    for net, store in [(sample_net, sample_store), *consistent_stores()]:
        for dest in net.node_ids:
            for kind in HeuristicKind:
                h = make_heuristic(kind, net, store, dest, 10**9)
                assert h.get_min(dest) == 0
                for eid in net.edge_ids:
                    e = net.edge(eid)
                    if h.get_min(e.to_node) is not None:
                        ik = min_cost(store.edge_weight(eid))
                        assert h.get_min(e.from_node) <= ik + h.get_min(e.to_node)
                        checked += 1
    assert checked > 5_000


def unbounded_tree(net, store, dest):
    """Plain backward Dijkstra with no budget; ties pop in the same order."""
    incoming = {}
    for eid in net.edge_ids:
        incoming.setdefault(net.edge(eid).to_node, []).append(net.edge(eid))
    mins = {}
    heap = [(0, dest)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in mins:
            continue
        mins[node] = d
        for e in incoming.get(node, ()):
            heapq.heappush(heap, (d + min_cost(store.edge_weight(e.edge_id)), e.from_node))
    return mins


def test_min_tree_is_the_unbounded_tree_cut_at_the_budget():
    """Budgets one below, at and one above every node's distance hit the ``<=`` edge."""
    checked = 0
    for seed in range(12):
        net, records = gen_instance(seed, nodes=9, density=0.2 + 0.05 * seed)
        store = build_store(net, records, min_support=10)
        dest = random.Random(seed).choice(list(net.node_ids))
        mins = unbounded_tree(net, store, dest)
        budgets = {-1, 10**9} | {d + k for d in mins.values() for k in (-1, 0, 1)}
        for budget in sorted(budgets):
            tree = build_min_tree(net, store, dest, budget)
            want = {n: d for n, d in mins.items() if d <= budget}
            assert tree.mins == want
            for nid in net.node_ids:
                assert tree.get_min(nid) == want.get(nid)
            checked += 1
    assert checked > 200


# A label's priority, the chance that the path so far still fits the
# budget once the bound's remaining minimum is added, is its cost's cdf
# at budget - node_min.


def test_arrival_prob_goldens(pace_model):
    from spotar.network import Path
    from spotar.weights import path_cost

    c14 = path_cost(pace_model, Path(("e1", "e4")))  # at node q, min 5 to go
    assert c14.cdf(22 - 5) == pytest.approx(0.8, abs=1e-9)
    c26 = path_cost(pace_model, Path(("e2", "e6")))
    assert c26.cdf(22 - 5) == pytest.approx(0.7, abs=1e-9)
    c1 = path_cost(pace_model, Path(("e1",)))  # at node e, min 11 to go
    assert c1.cdf(22 - 11) == 1.0


def test_arrival_prob_unreachable_and_exhausted():
    h = Histogram({5: 1.0})
    assert h.cdf(12 - 20) == 0.0  # more to go than the whole budget
    assert h.cdf(12 - 10) == 0.0  # 5 spent, 10 to go, 12 allowed
    assert h.cdf(12 - 7) == 1.0


def test_arrival_prob_equals_indicator_sum():
    rng = random.Random(513)
    for _ in range(200):
        h, _ = rand_hist(rng)
        node_min = rng.choice([0, rng.randint(1, 20)])
        budget = rng.randint(1, 40)
        want = math.fsum(p for t, p in h.items() if t + node_min <= budget)
        assert h.cdf(budget - node_min) == pytest.approx(want, abs=1e-12)
