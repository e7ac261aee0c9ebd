"""Tests for the remaining-time lower bounds."""

from __future__ import annotations

import heapq
import math
import random

import pytest

from spotar.dist import Histogram
from spotar.heuristic import (
    HeuristicKind,
    StraightLineBound,
    TreeBound,
    arrival_prob,
    build_min_tree,
    make_heuristic,
)
from spotar.network import Network, Node
from spotar.oracle import gen_instance
from spotar.weights import build_store

from _util import rand_hist


def test_heuristic_kind_parse():
    assert HeuristicKind.parse("sp") is HeuristicKind.SP
    assert HeuristicKind.parse("BA") is HeuristicKind.BA
    with pytest.raises(ValueError):
        HeuristicKind.parse("astar")


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


def test_straight_line_bound_formula(sample_net, sample_store):
    """Every node, asked twice: the bound remembers each node's value."""
    h = make_heuristic(HeuristicKind.BA, sample_net, sample_store, "d", 22)
    assert isinstance(h, StraightLineBound)
    for nid in [*sample_net.node_ids, *reversed(sample_net.node_ids)]:
        want = math.floor(
            sample_net.distance_m(nid, "d") / (sample_net.max_speed * sample_net.delta)
        )
        assert h.get_min(nid) == want
    assert h.get_min("d") == 0


def test_straight_line_bound_errors(sample_net):
    with pytest.raises(ValueError):
        StraightLineBound(sample_net, "zz")
    empty = Network([Node("a", 0, 0), Node("b", 0, 1)], [])
    with pytest.raises(ValueError):
        StraightLineBound(empty, "a")


def test_straight_line_never_exceeds_tree(sample_net, sample_store):
    tree = build_min_tree(sample_net, sample_store, "d", 10**6)
    line = StraightLineBound(sample_net, "d")
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
        line = StraightLineBound(net, dest)
        for nid in net.node_ids:
            tmin = tree.get_min(nid)
            assert tmin is not None  # generated networks are strongly connected
            assert line.get_min(nid) <= tmin


def unbounded_tree(net, store, dest):
    """Plain backward Dijkstra with no budget; ties pop in the same order."""
    mins = {}
    heap = [(0, dest)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in mins:
            continue
        mins[node] = d
        for e in net.in_edges(node):
            heapq.heappush(heap, (d + store.min_time(e.edge_id), e.from_node))
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


def test_arrival_prob_goldens(pace_model):
    from spotar.network import Path
    from spotar.weights import path_cost

    c14 = path_cost(pace_model, Path(("e1", "e4")))  # at node q, min 5 to go
    assert arrival_prob(c14, 5, 22) == pytest.approx(0.8, abs=1e-9)
    c26 = path_cost(pace_model, Path(("e2", "e6")))
    assert arrival_prob(c26, 5, 22) == pytest.approx(0.7, abs=1e-9)
    c1 = path_cost(pace_model, Path(("e1",)))  # at node e, min 11 to go
    assert arrival_prob(c1, 11, 22) == pytest.approx(1.0, abs=1e-9)


def test_arrival_prob_unreachable_and_exhausted():
    h = Histogram({5: 1.0})
    assert arrival_prob(h, None, 100) == 0.0
    assert arrival_prob(h, 10, 12) == 0.0  # 5 spent, 10 to go, 12 allowed
    assert arrival_prob(h, 7, 12) == 1.0


def test_arrival_prob_equals_indicator_sum():
    rng = random.Random(513)
    for _ in range(200):
        h, _ = rand_hist(rng)
        node_min = rng.choice([None, 0, rng.randint(1, 20)])
        budget = rng.randint(1, 40)
        want = math.fsum(
            p for t, p in h.items() if node_min is not None and t + node_min <= budget
        )
        assert arrival_prob(h, node_min, budget) == pytest.approx(want, abs=1e-12)
