"""A store meets a network in one check: the same grid and exactly its edges.

Every entry point that takes both refuses a store built for another
network with one message, before any search work: ``solve`` in every
mode and with either bound, both bounds on their own, and the ``query``
and ``bench`` commands.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import spotar.cli
import spotar.solver as solver_module
from spotar.cli import main
from spotar.heuristic import HeuristicKind, StraightLineBound, build_min_tree
from spotar.network import Edge, Network, Query
from spotar.solver import solve
from spotar.weights import CostModel, Mode, StoreError, build_store

DATA = pathlib.Path(__file__).parent / "data"
NETWORK = DATA / "sample_network.csv"
TRAJECTORIES = str(DATA / "sample_trajectories.csv")


def network_like(net, *, extra=(), drop=(), delta=None):
    """``net`` with edges added and removed, or on another grid."""
    nodes = [net.node(n) for n in net.node_ids]
    edges = [net.edge(e) for e in net.edge_ids if e not in drop] + list(extra)
    return Network(nodes, edges, delta=net.delta if delta is None else delta)


# (misfit, how the sample network is changed, the whole message)
MISFITS = [
    (
        "missing weight",
        {"extra": [Edge("ex", "s", "d", 100.0, 8.0)]},
        "1 network edges have no weight (first 'ex')",
    ),
    ("extra stored edge", {"drop": ["e3", "e7"]}, "2 stored edges are not in the network (first 'e3')"),
    ("another grid", {"delta": 2.0}, "the network's time unit is 2.0 s but the store's is 1.0 s"),
]


@pytest.fixture
def store(sample_net, sample_records):
    """A store of the sample network's own, so no other test sees its record."""
    return build_store(sample_net, sample_records, min_support=10, mode=Mode.PACE)


def started(*args, **kwargs):
    raise AssertionError("search work started before the store was checked")


@pytest.fixture
def no_search(monkeypatch):
    """Any search work fails the test: a bound being built, an edge being
    followed or a crow-flight distance being taken."""
    monkeypatch.setattr(solver_module, "make_heuristic", started)
    monkeypatch.setattr(Network, "out_edges", started)
    monkeypatch.setattr(Network, "distance_m", started)


def refused(message):
    return pytest.raises(StoreError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("misfit, change, message", MISFITS, ids=[m[0] for m in MISFITS])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("kind", list(HeuristicKind))
def test_solve_refuses_a_misfit_before_searching(
    sample_net, store, no_search, misfit, change, message, mode, kind
):
    net = network_like(sample_net, **change)
    with refused(message):
        solve(net, CostModel(store, mode), kind, Query("s", "d", 22))


@pytest.mark.parametrize("misfit, change, message", MISFITS, ids=[m[0] for m in MISFITS])
def test_both_bounds_refuse_a_misfit(sample_net, store, no_search, misfit, change, message):
    net = network_like(sample_net, **change)
    with refused(message):
        build_min_tree(net, store, "d", 22)
    with refused(message):
        StraightLineBound(net, store, "d")
    assert store._fitted is None


@pytest.mark.parametrize(
    "misfit, change, message",
    [
        ("missing weight", lambda text: text + "ex,s,d,100,8.0\n", "1 network edges have no weight (first 'ex')"),
        ("extra stored edge", lambda text: text.replace("e3,r,e,44,4.0\n", ""),
         "1 stored edges are not in the network (first 'e3')"),
    ],
    ids=["missing weight", "extra stored edge"],
)
def test_query_and_bench_refuse_a_misfit_naming_both_files(
    tmp_path, capsys, monkeypatch, misfit, change, message
):
    """The commands load the network on the store's grid, so only the edge
    sets can differ; the message is the library's after the file names."""
    store_file = str(tmp_path / "weights.json")
    assert main(["build", "--network", str(NETWORK), "--trajectories", TRAJECTORIES, "--out", store_file]) == 0
    capsys.readouterr()
    other = tmp_path / "other.csv"
    other.write_text(change(NETWORK.read_text()))
    monkeypatch.setattr(spotar.cli, "solve", started)
    monkeypatch.setattr(spotar.cli.bench_mod, "run_bench", started)
    for argv in (
        ["query", "--source", "s", "--dest", "d", "--budget", "22"],
        ["bench", "--out", str(tmp_path / "rows.csv")],
    ):
        assert main([*argv, "--network", str(other), "--store", store_file]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: store {store_file} was not built for network {other}: {message}"
        ]


def test_the_edge_sets_are_compared_once_per_network_object(sample_net, store):
    """The network that passed last is remembered by identity: checking it
    again compares nothing, another network object is compared again, and
    a failed check keeps the record and its crow-flight speed."""
    net = network_like(sample_net)
    store._fit(net)
    assert store._fitted is net
    StraightLineBound(net, store, "d")
    speed = store._crow_speed
    assert speed > 0.0

    # changed in place after its check, ``net`` is not compared again ...
    net._edges["ex"] = Edge("ex", "s", "d", 100.0, 8.0)
    store._fit(net)
    # ... while a new network with the same edges is
    with refused("1 network edges have no weight (first 'ex')"):
        store._fit(network_like(net))
    assert (store._fitted, store._crow_speed) == (net, speed)

    other = network_like(sample_net)
    store._fit(other)
    assert (store._fitted, store._crow_speed) == (other, None)
    StraightLineBound(other, store, "d")
    assert store._crow_speed == speed
    # ``net`` is no longer the record, so it is compared again and now fails
    with refused("1 network edges have no weight (first 'ex')"):
        store._fit(net)
    assert store._fitted is other
