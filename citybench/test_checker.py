"""Tests of the benchmark's answer checker.

    python3 -m pytest citybench/test_checker.py

The store below is the six-node sample's (``tests/data``), written out by
hand from its trajectory log, so the checker is tested against
hand-computed values rather than against the program it checks.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(os.path.dirname(HERE), "tests", "data")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import repro  # noqa: E402

# Edge histograms and joints of the sample log at one second per unit, min support 10.
SAMPLE_STORE = {
    "format": "spotar-weights",
    "version": 1,
    "delta": 1.0,
    "min_support": 10,
    "max_unit_len": 8,
    "mode": "pace",
    "fallback_edges": ["e3", "e7", "e8"],
    "edge_weights": {
        "e1": [[8, 0.9], [10, 0.1]],
        "e2": [[8, 0.2], [11, 0.8]],
        "e3": [[11, 1.0]],
        "e4": [[6, 0.8], [10, 0.2]],
        "e5": [[8, 0.8], [10, 0.2]],
        "e6": [[5, 0.7], [9, 0.3]],
        "e7": [[13, 1.0]],
        "e8": [[8, 1.0]],
        "e9": [[5, 0.4], [9, 0.6]],
    },
    "path_weights": [
        {"edges": ["e1", "e4"], "rows": [[[8, 6], 0.8], [[10, 10], 0.2]]},
        {"edges": ["e2", "e6"], "rows": [[[8, 5], 0.7], [[11, 9], 0.3]]},
    ],
}


@pytest.fixture()
def sample(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(SAMPLE_STORE))
    net = checker.read_network(os.path.join(DATA, "sample_network.csv"))
    return net, checker.read_store(str(path))


def test_acceptance_values_at_budget_22(sample):
    _net, store = sample
    assert checker.on_time(store, "pace", ["e2", "e6", "e9"], 22) == pytest.approx(0.7, abs=1e-12)
    assert checker.on_time(store, "edge", ["e2", "e6", "e9"], 22) == pytest.approx(0.388, abs=1e-12)


def test_pace_totals_fuse_the_stored_joint(sample):
    _net, store = sample
    totals = checker.pace_totals(store, ("e2", "e6", "e9"))
    assert totals == pytest.approx({18: 0.28, 22: 0.42, 25: 0.12, 29: 0.18})
    assert checker.cover(store, ("e2", "e6", "e9")) == [(0, ("e2", "e6")), (2, ("e9",))]


def test_edge_weights_match_the_log_count(sample):
    net, store = sample
    counts = checker.count_log(os.path.join(DATA, "sample_trajectories.csv"), 1.0)
    assert checker.check_edge_weights(net, store, counts, sorted(net.edges)) == []
    store.edges["e9"] = {5: 0.5, 9: 0.5}
    assert len(checker.check_edge_weights(net, store, counts, ["e9"])) == 1


def test_min_time_and_path_shape(sample):
    net, store = sample
    assert checker.min_time(net, store, "s", "d") == 18
    assert checker.path_problem(net, "s", "d", ["e2", "e6", "e9"]) is None
    assert "does not start" in checker.path_problem(net, "s", "d", ["e2", "e9"])
    assert "ends at" in checker.path_problem(net, "s", "d", ["e2", "e6"])


def test_answer_rules(sample):
    net, store = sample
    good = checker.Answer(["e2", "e6", "e9"], 0.7)
    assert checker.answer_problem(net, store, "pace", "s", "d", 22, good)[0] is None
    wrong = checker.Answer(["e2", "e6", "e9"], 0.388)
    assert "scores" in checker.answer_problem(net, store, "pace", "s", "d", 22, wrong)[0]
    # Edge mode: a zero answer is wrong when some trip can make the budget ...
    none = checker.Answer(None, 0.0)
    assert checker.answer_problem(net, store, "edge", "s", "d", 18, none)[0] is not None
    # ... and right when none can.
    assert checker.answer_problem(net, store, "edge", "s", "d", 17, none)[0] is None
    assert checker.answer_problem(net, store, "pace", "s", "d", 18, none)[0] is None


def _repro_store(case, tmp_path):
    """The reproducer's store, written by hand from its log."""
    if case is repro.DOMINANCE:
        doc = dict(SAMPLE_STORE, fallback_edges=[], edge_weights={
            "e1": [[1, 1.0]], "e2": [[1, 1.0]], "e3": [[1, 1.0]], "e4": [[2, 1.0]], "e5": [[1, 0.5], [10, 0.5]]},
            path_weights=[{"edges": list(key), "rows": [[list(row), 1.0]]} for key, row in (
                (("e1", "e2"), (1, 1)), (("e1", "e2", "e5"), (1, 1, 10)), (("e2", "e5"), (1, 10)),
                (("e3", "e4"), (1, 2)), (("e3", "e4", "e5"), (1, 2, 1)), (("e4", "e5"), (2, 1)))])
    elif case is repro.PRIORITY:
        doc = dict(SAMPLE_STORE, fallback_edges=[], edge_weights={
            "x1": [[1, 0.5], [5, 0.3], [10, 0.2]], "x2": [[1, 1.0]], "y1": [[3, 0.7], [8, 0.3]]},
            path_weights=[{"edges": ["x1", "x2"], "rows": [[[1, 1], 1.0]]}])
    else:
        doc = dict(SAMPLE_STORE, fallback_edges=[], edge_weights={
            "z1": [[5, 1.0]], "z2": [[5, 0.5], [9, 0.5]], "z3": [[5, 1.0]]},
            path_weights=[{"edges": ["z1", "z2"], "rows": [[[5, 5], 1.0]]},
                          {"edges": ["z2", "z3"], "rows": [[[9, 5], 1.0]]}])
    net_path, log_path = repro.write(case, str(tmp_path))
    store_path = tmp_path / "store.json"
    store_path.write_text(json.dumps(doc))
    net, store = checker.read_network(net_path), checker.read_store(str(store_path))
    counts = checker.count_log(log_path, 1.0)
    assert checker.check_edge_weights(net, store, counts, sorted(net.edges)) == []
    return net, store


def test_priority_reproducer_optimum(tmp_path):
    net, store = _repro_store(repro.PRIORITY, tmp_path)
    source, dest, budget = repro.PRIORITY["query"]
    assert checker.best_by_enumeration(net, store, "pace", source, dest, budget) == (pytest.approx(1.0), ("x1", "x2"))
    assert checker.on_time(store, "pace", ["y1"], budget) == pytest.approx(0.7)


def test_dominance_reproducer_optimum(tmp_path):
    net, store = _repro_store(repro.DOMINANCE, tmp_path)
    source, dest, budget = repro.DOMINANCE["query"]
    assert checker.best_by_enumeration(net, store, "pace", source, dest, budget) == (1.0, ("e3", "e4", "e5"))
    # the path through the dominating prefix e1,e2 is forced to be late
    assert checker.on_time(store, "pace", ["e1", "e2", "e5"], budget) == 0.0


def test_inconsistent_reproducer_has_no_mass(tmp_path):
    net, store = _repro_store(repro.INCONSISTENT, tmp_path)
    with pytest.raises(checker.CheckerInconsistent):
        checker.pace_totals(store, ("z1", "z2", "z3"))
    source, dest, budget = repro.INCONSISTENT["query"]
    assert checker.best_by_enumeration(net, store, "pace", source, dest, budget) == (0.0, None)
