"""Tests for brute force, the sampler, and the instance generator."""

from __future__ import annotations

import math
import random
import statistics

import pytest

import spotar.dist
import spotar.oracle
from spotar.dist import Histogram, JointDist
from spotar.heuristic import HeuristicKind
from spotar.network import Path, Query, make_path
from spotar.oracle import (
    EnumerationLimitError,
    VerifyCase,
    enumerate_simple_paths,
    exact_spotar,
    gen_instance,
    verify_instances,
)
from spotar.weights import CostModel, Mode, WeightStore, build_store, path_cost

from _util import _prep_sampler, mc_arrival_prob


# ------------------------------------------------------------ brute force


def test_enumerate_simple_paths_order(sample_net):
    paths = enumerate_simple_paths(sample_net, Query("s", "d", 1))
    assert [p.edges for p in paths] == [
        ("e1", "e4", "e7", "e8"),
        ("e1", "e4", "e9"),
        ("e1", "e5", "e8"),
        ("e2", "e3", "e4", "e7", "e8"),
        ("e2", "e3", "e4", "e9"),
        ("e2", "e3", "e5", "e8"),
        ("e2", "e6", "e7", "e8"),
        ("e2", "e6", "e9"),
    ]


def test_enumerate_simple_paths_limit(sample_net, monkeypatch):
    monkeypatch.setattr(spotar.oracle, "ENUMERATION_LIMIT", 2)
    with pytest.raises(EnumerationLimitError, match="more than 2 simple paths"):
        enumerate_simple_paths(sample_net, Query("s", "d", 1))


def test_enumerate_simple_paths_unknown_node(sample_net):
    with pytest.raises(ValueError):
        enumerate_simple_paths(sample_net, Query("zz", "d", 1))


@pytest.mark.parametrize(
    "budget,edges,prob",
    [
        (22, ("e2", "e6", "e9"), 0.70),
        (21, ("e1", "e4", "e9"), 0.32),
        (20, ("e1", "e4", "e9"), 0.32),
        (18, ("e2", "e6", "e9"), 0.28),
    ],
)
def test_exact_spotar_goldens(sample_net, pace_model, budget, edges, prob):
    path, p = exact_spotar(sample_net, pace_model, Query("s", "d", budget))
    assert path.edges == edges
    assert p == pytest.approx(prob, abs=1e-9)


def test_exact_spotar_infeasible(sample_net, pace_model):
    path, p = exact_spotar(sample_net, pace_model, Query("s", "d", 15))
    assert path is None
    assert p == 0.0


def test_exact_spotar_edge_mode(sample_net, edge_model):
    path, p = exact_spotar(sample_net, edge_model, Query("s", "d", 22))
    assert path.edges == ("e2", "e6", "e9")
    assert p == pytest.approx(0.388, abs=1e-9)


def test_exact_spotar_big_budget_probability(sample_net, pace_model):
    path, p = exact_spotar(sample_net, pace_model, Query("s", "d", 60))
    assert p == pytest.approx(1.0, abs=1e-9)
    assert path_cost(pace_model, path).cdf(60) == pytest.approx(p, abs=1e-12)


def tie_model(edge_specs):
    from _util import tiny_network

    net = tiny_network(edge_specs)
    return net, CostModel(build_store(net, [], min_support=1), Mode.PACE)


def test_exact_spotar_tie_prefers_fewer_edges():
    # Point-mass edges make the on-time probabilities exactly equal, so
    # the tie rule is what decides: the one-edge route wins even though
    # it is slower.
    net, model = tie_model(
        [
            ("q1", "a", "b", 5.0, 5.0),
            ("q2", "a", "d", 20.0, 5.0),
            ("q3", "b", "d", 5.0, 5.0),
            ("r1", "a", "c", 5.0, 5.0),
            ("r2", "c", "d", 5.0, 5.0),
        ]
    )
    path, p = exact_spotar(net, model, Query("a", "d", 10))
    assert p == 1.0
    assert path.edges == ("q2",)


def test_exact_spotar_tie_prefers_lexicographic_edges():
    net, model = tie_model(
        [
            ("q1", "a", "b", 5.0, 5.0),
            ("q3", "b", "d", 5.0, 5.0),
            ("r1", "a", "c", 5.0, 5.0),
            ("r2", "c", "d", 5.0, 5.0),
        ]
    )
    path, p = exact_spotar(net, model, Query("a", "d", 10))
    assert p == 1.0
    assert path.edges == ("q1", "q3")


# -------------------------------------------------------------- sampling


def test_sample_total_time_stays_on_support(pace_model, edge_model):
    rng = random.Random(31)
    path = Path(("e1", "e4", "e9"))
    support = set(path_cost(pace_model, path).times())
    assert support == {19, 23, 25, 29}
    for _ in range(200):
        assert _prep_sampler(pace_model, path)(rng) in support
    edge_support = set(path_cost(edge_model, path).times())
    for _ in range(200):
        assert _prep_sampler(edge_model, path)(rng) in edge_support


def test_mc_arrival_prob_matches_closed_form(pace_model):
    path = Path(("e1", "e4", "e9"))
    want = path_cost(pace_model, path).cdf(23)
    assert want == pytest.approx(0.80, abs=1e-9)
    n = 20_000
    got = mc_arrival_prob(pace_model, path, 23, n, random.Random(7))
    se = math.sqrt(want * (1.0 - want) / n)
    assert abs(got - want) <= 3.0 * se


def test_mc_arrival_prob_matches_closed_form_edge_mode(edge_model):
    path = Path(("e2", "e6", "e9"))
    want = path_cost(edge_model, path).cdf(22)
    assert want == pytest.approx(0.388, abs=1e-9)
    n = 20_000
    got = mc_arrival_prob(edge_model, path, 22, n, random.Random(8))
    se = math.sqrt(want * (1.0 - want) / n)
    assert abs(got - want) <= 3.0 * se


@pytest.mark.parametrize("n", [0, -1])
def test_mc_arrival_prob_needs_a_draw(pace_model, n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        mc_arrival_prob(pace_model, Path(("e1", "e4", "e9")), 23, n, random.Random(7))


def partial_overlap_model():
    """Fusing drops one prefix, so the sampler must restart sometimes."""
    units = {
        ("u", "v"): JointDist(("u", "v"), {(1, 2): 0.5, (1, 3): 0.5}),
        ("v", "w"): JointDist(("v", "w"), {(2, 7): 0.5, (2, 9): 0.5}),
    }
    weights = {
        "u": Histogram({1: 1.0}),
        "v": Histogram({2: 0.5, 3: 0.5}),
        "w": Histogram({7: 0.5, 9: 0.5}),
    }
    store = WeightStore(
        delta=1.0,
        min_support=1,
        max_unit_len=8,
        mode=Mode.PACE,
        edge_weights=weights,
        path_weights=units,
    )
    return CostModel(store, Mode.PACE)


def test_mc_arrival_prob_with_rejected_draws():
    model = partial_overlap_model()
    path = Path(("u", "v", "w"))
    want = path_cost(model, path).cdf(10)
    assert want == pytest.approx(0.5, abs=1e-12)
    n = 10_000
    got = mc_arrival_prob(model, path, 10, n, random.Random(9))
    se = math.sqrt(want * (1.0 - want) / n)
    assert abs(got - want) <= 3.0 * se
    # The exact value pins the sequence of draws: any change to how the
    # sampler consumes the generator changes it.
    assert got == 0.4991


# ----------------------------------------------------------- generation


def test_gen_instance_is_deterministic():
    net_a, recs_a = gen_instance(5)
    net_b, recs_b = gen_instance(5)
    assert net_a.node_ids == net_b.node_ids
    for nid in net_a.node_ids:
        assert net_a.node(nid) == net_b.node(nid)
    assert net_a.edge_ids == net_b.edge_ids
    for eid in net_a.edge_ids:
        assert net_a.edge(eid) == net_b.edge(eid)
    assert recs_a == recs_b
    net_c, _ = gen_instance(6)
    assert any(net_a.node(n) != net_c.node(n) for n in net_a.node_ids)


def test_gen_instance_is_strongly_connected():
    for seed in range(20):
        net, _ = gen_instance(seed)
        start = net.node_ids[0]
        for direction in ("out", "in"):
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                edges = net.out_edges(node) if direction == "out" else net.in_edges(node)
                for e in edges:
                    nxt = e.to_node if direction == "out" else e.from_node
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == set(net.node_ids)


def test_gen_instance_default_size_fits_verification_budget():
    for seed in range(50):
        net, _ = gen_instance(seed)
        assert net.num_nodes() == 8
        assert 10 <= net.num_edges() <= 20


def test_gen_instance_edge_count_statistics():
    # At 6 nodes and low density the edge count concentrates around 9.
    counts = [gen_instance(seed, nodes=6, density=0.2)[0].num_edges() for seed in range(1000)]
    assert all(6 <= c <= 12 for c in counts)
    assert abs(statistics.fmean(counts) - 9.0) <= 0.5


def test_gen_instance_lengths_and_times_respect_speed_limits():
    for seed in range(10):
        net, records = gen_instance(seed)
        nominal = {}
        for eid in net.edge_ids:
            e = net.edge(eid)
            tau = e.length / e.speed_limit
            assert tau == int(tau)  # lengths are exact multiples
            assert tau >= 1
            nominal[eid] = int(tau)
        for rec in records:
            make_path(net, rec.path.edges)  # still a valid simple path
            for eid, t in zip(rec.path.edges, rec.times):
                assert t >= nominal[eid]


def test_gen_instance_routes_come_in_fast_slow_pairs():
    net, records = gen_instance(3)
    assert records, "expected at least one route"
    assert len(records) % 2 == 0
    for fast, slow in zip(records[0::2], records[1::2]):
        assert fast.path == slow.path
        assert all(a < b for a, b in zip(fast.times, slow.times))


def test_gen_instance_stores_fuse_on_any_path():
    # The advertised guarantee: every enumerable path can be costed in
    # both modes without inconsistent-overlap failures.
    rng = random.Random(99)
    for seed in range(10):
        net, records = gen_instance(seed)
        store = build_store(net, records, min_support=10)
        pace = CostModel(store, Mode.PACE)
        node_ids = list(net.node_ids)
        for _ in range(10):
            src, dst = rng.sample(node_ids, 2)
            short = [p for p in enumerate_simple_paths(net, Query(src, dst, 1)) if len(p) <= 5]
            for p in short[:10]:
                total = path_cost(pace, p)
                assert abs(math.fsum(q for _, q in total.items()) - 1.0) <= 1e-9


def test_gen_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_instance(0, nodes=2)
    with pytest.raises(ValueError):
        gen_instance(0, density=1.5)
    with pytest.raises(ValueError):
        gen_instance(0, joint_fraction=-0.1)


# --------------------------------------------------------- verification


def test_verify_case_match_property():
    q = Query("a", "b", 5)
    ok = VerifyCase(0, Mode.PACE, HeuristicKind.SP, q, 0.5, 0.5, 0.5)
    assert ok.match
    off = VerifyCase(0, Mode.PACE, HeuristicKind.SP, q, 0.5, 0.6, 0.5)
    assert not off.match
    lying = VerifyCase(0, Mode.PACE, HeuristicKind.SP, q, 0.5, 0.5, 0.4)
    assert not lying.match


def test_verify_instances_all_match():
    cases = verify_instances(0, 20)
    assert len(cases) == 80
    assert all(c.match for c in cases)
    combos = {(c.mode, c.heuristic) for c in cases}
    assert len(combos) == 4
    assert {c.instance_seed for c in cases} == set(range(20))


def test_verify_instances_catch_broken_dominance(monkeypatch):
    # Sanity check that the harness has teeth: flipping the dominance
    # direction silently corrupts the search, and the brute-force
    # comparison notices.
    real = spotar.dist.dominates
    monkeypatch.setattr(spotar.dist, "dominates", lambda a, b: real(b, a))
    cases = verify_instances(0, 20)
    assert any(not c.match for c in cases)


def test_verify_instances_varied_shapes():
    cases = verify_instances(7, 4, nodes=6, density=0.15, joint_fraction=0.8)
    assert len(cases) == 16
    assert all(c.match for c in cases)
