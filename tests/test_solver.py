"""Tests for the best-first search: goldens, events, and invariants."""

from __future__ import annotations

import hashlib
import random

import pytest

from spotar.dist import Histogram, JointDist
from spotar.heuristic import HeuristicKind, build_min_tree
from spotar.network import Query
from spotar.oracle import exact_spotar, gen_instance
from spotar.solver import Label, SearchEvent, SearchQueue, check_dominance, solve
from spotar.weights import CostModel, Mode, WeightStore, build_store, path_cost

from _util import conflicting_records, tiny_network


def events_of(result, kind):
    return [e for e in result.transcript if e.kind == kind]


# ------------------------------------------------------- sample goldens


def test_golden_run_budget_22(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    assert res.path.edges == ("e2", "e6", "e9")
    assert res.probability == pytest.approx(0.70, abs=1e-9)
    assert res.explored_edges == 5
    assert res.expanded_labels == 4
    assert res.explored_edge_ids == {"e1", "e2", "e4", "e6", "e9"}
    assert res.wall_time_s < 1.0


def test_golden_run_pop_order_and_incumbents(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    pops = [e.path for e in events_of(res, "pop")]
    # e2 ends 10 units from d and e1 ends 11 away, so e2 goes first at r = 1.
    assert pops == [("e2",), ("e1",), ("e1", "e4"), ("e2", "e6")]
    incumbents = events_of(res, "incumbent")
    assert [e.path for e in incumbents] == [("e1", "e4", "e9"), ("e2", "e6", "e9")]
    assert incumbents[0].value == pytest.approx(0.32, abs=1e-9)
    assert incumbents[1].value == pytest.approx(0.70, abs=1e-9)
    assert len(events_of(res, "candidate")) == 2
    # The queue runs empty after the last pop: no label is left to stop on.
    assert events_of(res, "break") == []


def test_golden_run_prune_events(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    pruned = {
        (e.path, e.edge, e.ik_min, e.path_min, e.node_min)
        for e in events_of(res, "prune")
    }
    assert pruned == {
        (("e1",), "e5", 8, 8, 8),  # 8+8+8 = 24 > 22
        (("e2",), "e3", 11, 8, 11),  # 11+8+11 = 30 > 22
        (("e1", "e4"), "e7", 13, 14, 8),  # 13+14+8 = 35 > 22
        (("e2", "e6"), "e7", 13, 13, 8),  # 13+13+8 = 34 > 22
    }


def test_golden_run_budget_21_prefers_correlated_route(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 21))
    assert res.path.edges == ("e1", "e4", "e9")
    assert res.probability == pytest.approx(0.32, abs=1e-9)
    assert res.explored_edges == 5
    assert res.expanded_labels == 4
    # The slower route's completion is offered but never wins.
    cands = [e.value for e in events_of(res, "candidate")]
    assert cands[-1] == pytest.approx(0.28, abs=1e-9)


def test_golden_run_budget_20_stops_on_label_below_incumbent(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 20))
    assert res.path.edges == ("e1", "e4", "e9")
    assert res.probability == pytest.approx(0.32, abs=1e-9)
    assert res.explored_edges == 4
    assert res.expanded_labels == 2
    # The one-edge label over e2 can reach 0.2 at best, below the
    # incumbent's 0.32: it stays queued, and the search stops on it.
    assert [e.path for e in events_of(res, "push")] == [("e1",), ("e2",), ("e1", "e4")]
    assert ("e2",) not in [e.path for e in events_of(res, "pop")]
    (brk,) = events_of(res, "break")
    assert brk.path == ("e2",)
    assert brk.value == pytest.approx(0.2, abs=1e-9)


def test_golden_run_budget_18_init_prunes_first_edge(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 18))
    assert res.path.edges == ("e2", "e6", "e9")
    assert res.probability == pytest.approx(0.28, abs=1e-9)
    assert res.explored_edges == 3
    assert res.expanded_labels == 2
    pruned = events_of(res, "prune")[0]
    assert pruned.path == ()  # an edge out of the source
    assert pruned.edge == "e1"
    assert pruned.ik_min == 8
    assert pruned.path_min == 0
    assert pruned.node_min == 11  # 8 + 0 + 11 > 18


def test_golden_run_budget_15_is_infeasible(sample_net, pace_model):
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 15))
    assert res.path is None
    assert res.probability == 0.0
    assert res.explored_edges == 0
    assert res.expanded_labels == 0
    assert [(e.path, e.edge) for e in events_of(res, "prune")] == [((), "e1"), ((), "e2")]


def test_edge_mode_prefers_the_other_route(sample_net, edge_model):
    res = solve(sample_net, edge_model, HeuristicKind.SP, Query("s", "d", 22))
    assert res.path.edges == ("e2", "e6", "e9")
    assert res.probability == pytest.approx(0.388, abs=1e-9)


@pytest.mark.parametrize(
    "budget,sp_explored,ba_explored",
    [(22, 5, 7), (21, 5, 6), (20, 4, 6), (18, 3, 6), (15, 0, 3)],
)
def test_straight_line_bound_same_answer_more_search(
    sample_net, pace_model, budget, sp_explored, ba_explored
):
    sp = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", budget))
    ba = solve(sample_net, pace_model, HeuristicKind.BA, Query("s", "d", budget))
    assert ba.probability == pytest.approx(sp.probability, abs=1e-9)
    assert (ba.path is None) == (sp.path is None)
    if sp.path is not None:
        assert ba.path.edges == sp.path.edges
    assert sp.explored_edges == sp_explored
    assert ba.explored_edges == ba_explored
    assert sp.explored_edges <= ba.explored_edges
    assert sp.expanded_labels <= ba.expanded_labels


def test_probability_is_achieved_by_returned_path(sample_net, pace_model, edge_model):
    for model in (pace_model, edge_model):
        for budget in (18, 20, 21, 22, 30):
            res = solve(sample_net, model, HeuristicKind.SP, Query("s", "d", budget))
            assert res.path is not None
            again = path_cost(model, res.path).cdf(budget)
            assert res.probability == pytest.approx(again, abs=1e-12)


def test_probability_is_exactly_the_path_cost_on_random_instances():
    """Costs built label by label equal the from-scratch cost of the answer bit for bit."""
    rng = random.Random(11)
    answered = 0
    for seed in range(10):
        net, records = gen_instance(seed, nodes=9, density=0.7, joint_fraction=0.9)
        if seed % 2:
            records = conflicting_records(records, rng)
        store = build_store(net, records, min_support=10)
        for _ in range(3):
            source, dest = rng.sample(list(net.node_ids), 2)
            shortest = build_min_tree(net, store, dest, 10**9).get_min(source)
            query = Query(source, dest, shortest + rng.randint(0, shortest))
            for mode in Mode:
                model = CostModel(store, mode)
                for kind in HeuristicKind:
                    res = solve(net, model, kind, query)
                    if res.path is None:
                        assert res.probability == 0.0
                        continue
                    assert res.probability == path_cost(model, res.path).cdf(query.budget)
                    answered += 1
    assert answered >= 100


def test_search_effort_is_pinned():
    """Answers and search effort on 200 small stores, pinned bit for bit.

    A change to the search that keeps every answer but expands or
    explores more (or less) moves the totals, and any other drift moves
    the digest.
    """
    digest = hashlib.sha256()
    expanded = explored = 0
    for i in range(100):
        net, records = gen_instance(i, joint_fraction=0.9, min_support=2)
        for recs in (records, conflicting_records(records, random.Random(i))):
            store = build_store(net, recs, min_support=2, mode=Mode.PACE, max_unit_len=3)
            qrng = random.Random(f"query-{i}")
            source, dest = qrng.sample(list(net.node_ids), 2)
            shortest = build_min_tree(net, store, dest, 10**9).get_min(source)
            query = Query(source, dest, shortest + qrng.randint(0, max(4, shortest)))
            for mode in (Mode.PACE, Mode.EDGE):
                model = CostModel(store, mode)
                for kind in (HeuristicKind.SP, HeuristicKind.BA):
                    res = solve(net, model, kind, query)
                    path = res.path.edges if res.path else None
                    row = (path, res.probability.hex(), res.expanded_labels, res.explored_edges)
                    digest.update(repr(row).encode())
                    expanded += res.expanded_labels
                    explored += res.explored_edges
    assert (expanded, explored) == (1218, 2529)
    assert digest.hexdigest() == "48654f763be62d2a80889298c4b71acda63e867d3c08828b91cf5f50b56d5508"


def test_solver_is_deterministic(sample_net, pace_model):
    a = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    b = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    assert a.transcript == b.transcript
    assert a.path == b.path
    assert a.probability == b.probability
    assert a.explored_edge_ids == b.explored_edge_ids


def test_solver_rejects_unknown_nodes(sample_net, pace_model):
    with pytest.raises(ValueError):
        solve(sample_net, pace_model, HeuristicKind.SP, Query("zz", "d", 10))
    with pytest.raises(ValueError):
        solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "zz", 10))


# ------------------------------------------------- pinned transcripts
#
# Whole transcripts, event for event.  Together they hold every event
# kind but ``skip-inconsistent`` (see test_inconsistent_weights.py), so
# a value recorded in the wrong slot of any kind changes one of them.

E = SearchEvent


def assert_transcript(res, expected):
    assert all(type(e) is SearchEvent for e in res.transcript)
    assert res.transcript == tuple(expected)
    assert res.transcript == res.transcript


@pytest.mark.parametrize(
    "kind,budget,expected",
    [
        (HeuristicKind.SP, 22, [
            E("push", ("e1",), value=1.0),
            E("push", ("e2",), value=1.0),
            E("pop", ("e2",), value=1.0),
            E("prune", ("e2",), edge="e3", ik_min=11, path_min=8, node_min=11),
            E("push", ("e2", "e6"), value=0.7),
            E("pop", ("e1",), value=1.0),
            E("push", ("e1", "e4"), value=0.8),
            E("prune", ("e1",), edge="e5", ik_min=8, path_min=8, node_min=8),
            E("pop", ("e1", "e4"), value=0.8),
            E("prune", ("e1", "e4"), edge="e7", ik_min=13, path_min=14, node_min=8),
            E("candidate", ("e1", "e4", "e9"), value=0.32000000000000006),
            E("incumbent", ("e1", "e4", "e9"), value=0.32000000000000006),
            E("pop", ("e2", "e6"), value=0.7),
            E("prune", ("e2", "e6"), edge="e7", ik_min=13, path_min=13, node_min=8),
            E("candidate", ("e2", "e6", "e9"), value=0.7),
            E("incumbent", ("e2", "e6", "e9"), value=0.7),
        ]),
        (HeuristicKind.BA, 22, [
            E("push", ("e1",), value=1.0),
            E("push", ("e2",), value=1.0),
            E("pop", ("e1",), value=1.0),
            E("push", ("e1", "e4"), value=1.0),
            E("push", ("e1", "e5"), value=1.0),
            E("pop", ("e1", "e4"), value=1.0),
            E("prune", ("e1", "e4"), edge="e7", ik_min=13, path_min=14, node_min=2),
            E("candidate", ("e1", "e4", "e9"), value=0.32000000000000006),
            E("incumbent", ("e1", "e4", "e9"), value=0.32000000000000006),
            E("pop", ("e1", "e5"), value=1.0),
            E("prune", ("e1", "e5"), edge="e8", ik_min=8, path_min=16, node_min=0),
            E("pop", ("e2",), value=1.0),
            E("push", ("e2", "e3"), value=0.2),
            E("push", ("e2", "e6"), value=1.0),
            E("pop", ("e2", "e6"), value=1.0),
            E("prune", ("e2", "e6"), edge="e7", ik_min=13, path_min=13, node_min=2),
            E("candidate", ("e2", "e6", "e9"), value=0.7),
            E("incumbent", ("e2", "e6", "e9"), value=0.7),
            E("break", ("e2", "e3"), value=0.2),
        ]),
        (HeuristicKind.SP, 18, [
            E("prune", (), edge="e1", ik_min=8, path_min=0, node_min=11),
            E("push", ("e2",), value=0.2),
            E("pop", ("e2",), value=0.2),
            E("prune", ("e2",), edge="e3", ik_min=11, path_min=8, node_min=11),
            E("push", ("e2", "e6"), value=0.7),
            E("pop", ("e2", "e6"), value=0.7),
            E("prune", ("e2", "e6"), edge="e7", ik_min=13, path_min=13, node_min=8),
            E("candidate", ("e2", "e6", "e9"), value=0.27999999999999997),
            E("incumbent", ("e2", "e6", "e9"), value=0.27999999999999997),
        ]),
    ],
    ids=["sp-22", "ba-22", "sp-18"],
)
def test_golden_transcript_is_pinned(sample_net, pace_model, kind, budget, expected):
    res = solve(sample_net, pace_model, kind, Query("s", "d", budget))
    assert_transcript(res, expected)


# ----------------------------------------------------- synthetic events


def fallback_model(edge_specs, coords=None):
    """Model over a tiny network where every edge is a point mass."""
    net = tiny_network(edge_specs, coords=coords)
    store = build_store(net, [], min_support=1)
    return net, CostModel(store, Mode.PACE)


def test_break_event_when_top_priority_cannot_beat_incumbent():
    # A direct one-unit edge answers the query from the source; the
    # queued detour label's bound only ties the incumbent, so the search
    # stops the moment it reaches the top of the queue.
    net, model = fallback_model(
        [("m1", "a", "d", 5.0, 5.0), ("m2", "a", "b", 5.0, 5.0), ("m3", "b", "d", 5.0, 5.0)]
    )
    res = solve(net, model, HeuristicKind.SP, Query("a", "d", 2))
    assert res.path.edges == ("m1",)
    assert res.probability == pytest.approx(1.0, abs=1e-12)
    assert res.expanded_labels == 0
    (brk,) = events_of(res, "break")
    assert brk.path == ("m2",)
    assert brk.value == pytest.approx(1.0, abs=1e-12)


def certain_grid():
    """A 4 x 4 one-way grid from ``g00`` to ``g33``: 20 routes of 6 edges.

    Every edge is 100 m at 10 m/s, a point mass at 10 units, so each
    route takes 60 units.  Nodes sit on a real grid, 55 m apart north to
    south and 30 m east to west, so the straight-line bound says how far
    each node is from ``g33`` and stays below the edge lengths.
    """
    coords = {f"g{r}{c}": (57.0 - 0.0005 * r, 9.9 + 0.0005 * c) for r in range(4) for c in range(4)}
    specs = [(f"s{r}{c}", f"g{r}{c}", f"g{r + 1}{c}", 100.0, 10.0) for r in range(3) for c in range(4)]
    specs += [(f"e{r}{c}", f"g{r}{c}", f"g{r}{c + 1}", 100.0, 10.0) for r in range(4) for c in range(3)]
    return fallback_model(specs, coords=coords)


def test_ba_stops_after_the_first_certain_incumbent():
    # At a budget of 90 every label has r = 1.  Ordered by length, the
    # queue would go breadth-first and expand 13 labels before reaching
    # g33; ordered by node_min it heads for g33 and expands one label per
    # node on the way.  The incumbent at exactly 1.0 then stops the
    # search at the next pop.
    net, model = certain_grid()
    res = solve(net, model, HeuristicKind.BA, Query("g00", "g33", 90))
    assert res.path.edges == ("s00", "s10", "e20", "e21", "s22", "e32")
    assert res.probability == 1.0
    assert res.expanded_labels == 5
    assert [e.path for e in events_of(res, "incumbent")] == [res.path.edges]
    (brk,) = events_of(res, "break")
    assert brk.path == ("s00", "s10", "e20", "e21", "e22")
    assert brk.value == 1.0
    kinds = [e.kind for e in res.transcript]
    assert kinds[-3:] == ["candidate", "incumbent", "break"]


def test_sp_and_ba_agree_on_probability_not_path():
    # Among paths of equal probability the answer is the first one
    # found, and each bound heads for g33 along its own ties: both
    # answers are certain, along different routes.
    net, model = certain_grid()
    sp = solve(net, model, HeuristicKind.SP, Query("g00", "g33", 90))
    ba = solve(net, model, HeuristicKind.BA, Query("g00", "g33", 90))
    assert sp.probability == ba.probability == 1.0
    assert sp.path.edges != ba.path.edges


def weights_model(edge_specs, weights, path_weights=None):
    """Pace model over a tiny network with the given edge and stored path weights."""
    net = tiny_network(edge_specs)
    store = WeightStore(
        delta=1.0,
        min_support=1,
        max_unit_len=4,
        mode=Mode.PACE,
        edge_weights={eid: Histogram(h) for eid, h in weights.items()},
        path_weights={key: JointDist(key, rows) for key, rows in (path_weights or {}).items()},
    )
    return net, CostModel(store, Mode.PACE)


MERGE = [("p1", "a", "b", 5.0, 5.0), ("p2", "a", "c", 5.0, 5.0), ("p3", "b", "m", 5.0, 5.0),
         ("p4", "c", "m", 5.0, 5.0), ("p5", "m", "d", 5.0, 5.0)]


def two_way_merge(b_mid, c_mid):
    """Two branches meeting at ``m`` before ``d``; ``b_mid`` and ``c_mid``
    are the weights of ``p3`` (``b -> m``) and ``p4`` (``c -> m``).

    Each is 1 or 9 units, and every other edge takes 1 unit.  With ``sp``
    and a budget of 10, ``p1`` and ``p2`` have ``r = 1`` but a label at
    ``m`` only ``P(p3 = 1)`` or ``P(p4 = 1)``, so the queue takes ``p2``
    while ``p1,p3`` waits at ``m``, and the branches meet there.
    """
    return weights_model(MERGE, {"p1": {1: 1.0}, "p2": {1: 1.0}, "p3": b_mid, "p4": c_mid, "p5": {1: 1.0}})


def test_dominated_candidate_is_dropped():
    net, model = two_way_merge({1: 0.6, 9: 0.4}, {1: 0.5, 9: 0.5})
    res = solve(net, model, HeuristicKind.SP, Query("a", "d", 10))
    assert res.path.edges == ("p1", "p3", "p5")
    assert res.probability == pytest.approx(0.6, abs=1e-12)
    (drop,) = events_of(res, "dominated-drop")
    assert drop.path == ("p2", "p4")
    assert events_of(res, "dominated-out") == []


def test_dominating_candidate_replaces_queued_label():
    net, model = two_way_merge({1: 0.5, 9: 0.5}, {1: 0.6, 9: 0.4})  # the later arrival is faster
    res = solve(net, model, HeuristicKind.SP, Query("a", "d", 10))
    assert res.path.edges == ("p2", "p4", "p5")
    assert res.probability == pytest.approx(0.6, abs=1e-12)
    (out,) = events_of(res, "dominated-out")
    assert out.path == ("p1", "p3")
    assert events_of(res, "dominated-drop") == []


def test_equal_cost_candidate_is_dropped():
    net, model = two_way_merge({1: 0.5, 9: 0.5}, {1: 0.5, 9: 0.5})
    res = solve(net, model, HeuristicKind.SP, Query("a", "d", 10))
    assert res.path.edges == ("p1", "p3", "p5")
    (drop,) = events_of(res, "dominated-drop")
    assert drop.path == ("p2", "p4")


def test_unsettled_labels_are_kept_out_of_dominance():
    # p1,p3 beats p2,p4 on total time at m, but both end inside a stored
    # unit that runs on to d: (p3,p5) pairs a fast p3 with a slow p5, and
    # (p4,p5) a fast p4 with a fast p5, so only p2,p4,p5 can make it.
    # Dropping p2,p4 for dominance would answer no path.
    weights = {"p1": {1: 1.0}, "p2": {1: 1.0}, "p3": {1: 0.6, 9: 0.4},
               "p4": {1: 0.5, 9: 0.5}, "p5": {1: 0.5, 9: 0.5}}
    joints = {("p3", "p5"): {(1, 9): 0.6, (9, 1): 0.4}, ("p4", "p5"): {(1, 1): 0.5, (9, 9): 0.5}}
    net, model = weights_model(MERGE, weights, joints)
    assert not model.store.is_settled(("p1", "p3"))
    assert exact_spotar(net, model, Query("a", "d", 10))[0].edges == ("p2", "p4", "p5")
    for kind in (HeuristicKind.SP, HeuristicKind.BA):
        res = solve(net, model, kind, Query("a", "d", 10))
        assert res.path.edges == ("p2", "p4", "p5")
        assert res.probability == pytest.approx(0.5, abs=1e-12)
        assert events_of(res, "dominated-drop") == events_of(res, "dominated-out") == []


def test_self_loop_edges_are_skipped():
    net, model = fallback_model(
        [("loop", "a", "a", 5.0, 5.0), ("out", "a", "d", 5.0, 5.0)]
    )
    res = solve(net, model, HeuristicKind.SP, Query("a", "d", 5))
    assert res.path.edges == ("out",)
    assert any(e.edge == "loop" for e in events_of(res, "skip-cycle"))


def test_source_without_outgoing_edges():
    net, model = fallback_model([("w", "d", "z", 10.0, 5.0)])
    res = solve(net, model, HeuristicKind.SP, Query("z", "d", 10))
    assert res.path is None
    assert res.probability == 0.0
    assert res.explored_edges == 0
    assert res.transcript == ()


@pytest.mark.parametrize(
    "make,kind,budget,expected",
    [
        (lambda: two_way_merge({1: 0.6, 9: 0.4}, {1: 0.5, 9: 0.5}), HeuristicKind.SP, 10, [
            E("push", ("p1",), value=1.0),
            E("push", ("p2",), value=1.0),
            E("pop", ("p1",), value=1.0),
            E("push", ("p1", "p3"), value=0.6),
            E("pop", ("p2",), value=1.0),
            E("dominated-drop", ("p2", "p4"), value=0.5),
            E("pop", ("p1", "p3"), value=0.6),
            E("candidate", ("p1", "p3", "p5"), value=0.6),
            E("incumbent", ("p1", "p3", "p5"), value=0.6),
        ]),
        (lambda: two_way_merge({1: 0.5, 9: 0.5}, {1: 0.6, 9: 0.4}), HeuristicKind.SP, 10, [
            E("push", ("p1",), value=1.0),
            E("push", ("p2",), value=1.0),
            E("pop", ("p1",), value=1.0),
            E("push", ("p1", "p3"), value=0.5),
            E("pop", ("p2",), value=1.0),
            E("dominated-out", ("p1", "p3")),
            E("push", ("p2", "p4"), value=0.6),
            E("pop", ("p2", "p4"), value=0.6),
            E("candidate", ("p2", "p4", "p5"), value=0.6),
            E("incumbent", ("p2", "p4", "p5"), value=0.6),
        ]),
        (lambda: fallback_model([("loop", "a", "a", 5.0, 5.0), ("out", "a", "d", 5.0, 5.0)]),
         HeuristicKind.SP, 5, [
            E("skip-cycle", (), edge="loop"),
            E("candidate", ("out",), value=1.0),
            E("incumbent", ("out",), value=1.0),
        ]),
        (lambda: fallback_model(
            [("m1", "a", "d", 5.0, 5.0), ("m2", "a", "b", 5.0, 5.0), ("m3", "b", "d", 5.0, 5.0)]
        ), HeuristicKind.SP, 2, [
            E("candidate", ("m1",), value=1.0),
            E("incumbent", ("m1",), value=1.0),
            E("push", ("m2",), value=1.0),
            E("break", ("m2",), value=1.0),
        ]),
    ],
    ids=["dominated-drop", "dominated-out", "skip-cycle", "break"],
)
def test_synthetic_transcript_is_pinned(make, kind, budget, expected):
    net, model = make()
    assert_transcript(solve(net, model, kind, Query("a", "d", budget)), expected)


# -------------------------------------------------- queue and dominance


def label(edges, end, entries, r, node_min=0):
    cost = Histogram(entries)
    return Label(
        edges=tuple(edges),
        end_node=end,
        cost=cost,
        state=cost,
        node_min=node_min,
        r=r,
        visited=frozenset(),
    )


def test_queue_orders_by_priority_then_node_min_then_length_then_edges():
    q = SearchQueue()
    a = label(("z",), "n1", {1: 1.0}, 0.5, node_min=0)
    b = label(("b", "c"), "n2", {1: 1.0}, 0.9, node_min=3)
    c = label(("a",), "n3", {1: 1.0}, 0.9, node_min=3)
    d = label(("b",), "n4", {1: 1.0}, 0.9, node_min=3)
    e = label(("y", "x", "w"), "n5", {1: 1.0}, 0.9, node_min=2)
    f = label(("c",), "n6", {1: 1.0}, 0.9, node_min=4)
    for lab in (a, b, c, d, e, f):
        q.push(lab)
    assert q.pop() is e  # 0.9 and the nearest end node, though three edges
    assert q.pop() is c  # 0.9, node_min 3, one edge, "a" before "b"
    assert q.pop() is d
    assert q.pop() is b  # 0.9, node_min 3, but two edges
    assert q.pop() is f  # 0.9 but the farthest end node
    assert q.pop() is a  # node_min 0 does not lift a lower priority
    assert q.pop() is None


def test_queue_remove():
    q = SearchQueue()
    a = label(("a",), "n", {1: 1.0}, 0.9)
    b = label(("b",), "n", {2: 1.0}, 0.5)
    q.push(a)
    q.push(b)
    q.remove(a)
    q.remove(a)  # removing twice is harmless
    assert q.labels_at("n") == [b]
    assert q.pop() is b
    assert q.pop() is None


def test_queue_labels_at_oldest_first():
    q = SearchQueue()
    a = label(("a",), "n", {1: 1.0}, 0.1)
    b = label(("b",), "n", {2: 1.0}, 0.9)
    q.push(a)
    q.push(b)
    assert q.labels_at("n") == [a, b]
    assert q.labels_at("other") == []
    q.pop()  # removes b (higher priority)
    assert q.labels_at("n") == [a]


def test_check_dominance_decisions():
    q = SearchQueue()
    existing = label(("x",), "n", {2: 1.0}, 0.9)
    q.push(existing)
    same = label(("y",), "n", {2: 1.0}, 0.9)
    assert check_dominance(q, same) is None
    worse = label(("y",), "n", {3: 1.0}, 0.9)
    assert check_dominance(q, worse) is None
    better = label(("y",), "n", {1: 1.0}, 0.9)
    assert check_dominance(q, better) == [existing]
    crossing = label(("y",), "n", {1: 0.5, 4: 0.5}, 0.9)
    assert check_dominance(q, crossing) == []
    elsewhere = label(("y",), "m", {3: 1.0}, 0.9)
    assert check_dominance(q, elsewhere) == []


def test_check_dominance_can_replace_several():
    q = SearchQueue()
    slow_a = label(("x",), "n", {5: 1.0}, 0.9)
    slow_b = label(("y",), "n", {6: 1.0}, 0.8)
    q.push(slow_a)
    q.push(slow_b)
    fast = label(("z",), "n", {1: 1.0}, 0.9)
    out = check_dominance(q, fast)
    assert set(map(id, out)) == {id(slow_a), id(slow_b)}
