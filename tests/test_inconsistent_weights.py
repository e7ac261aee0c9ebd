"""Paths whose stored units disagree on every shared time have no cost.

The stored joints of ``z1,z2`` and ``z2,z3`` put ``z2`` at 5 and at 9
respectively, so fusing them over ``z2`` leaves no mass and the only
route ``z1,z2,z3`` cannot be evaluated.  The search and brute force
must both skip it and answer no path, the command line must say so
rather than fail, and the sampler must raise rather than redraw forever.
"""

from __future__ import annotations

import random

import pytest

from spotar.cli import main
from spotar.heuristic import HeuristicKind
from spotar.network import Path, Query, load_network
from spotar.oracle import exact_spotar
from spotar.solver import solve
from spotar.weights import (
    CostModel,
    InconsistentWeightsError,
    Mode,
    build_store,
    load_trajectories,
)

from _util import mc_arrival_prob

NETWORK = """#nodes
a,57.0000000,9.9000000
b,57.0000000,9.9010000
c,57.0000000,9.9020000
d,57.0000000,9.9030000
#edges
z1,a,b,70.0,10.0
z2,b,c,70.0,10.0
z3,c,d,70.0,10.0
"""

TRAJECTORIES = """10,z1:5;z2:5
10,z2:9;z3:5
"""

QUERY = Query("a", "d", 100)


@pytest.fixture()
def files(tmp_path):
    net_file = tmp_path / "network.csv"
    log_file = tmp_path / "trajectories.txt"
    net_file.write_text(NETWORK)
    log_file.write_text(TRAJECTORIES)
    return str(net_file), str(log_file)


def z_model(files):
    net = load_network(files[0])
    store = build_store(net, load_trajectories(net, files[1]), min_support=10, mode=Mode.PACE)
    return net, CostModel(store, Mode.PACE)


@pytest.mark.parametrize("kind", [HeuristicKind.SP, HeuristicKind.BA])
def test_solve_skips_inconsistent_path(files, kind):
    net, model = z_model(files)
    res = solve(net, model, kind, QUERY)
    assert res.path is None
    assert res.probability == 0.0
    assert (res.path, res.probability) == exact_spotar(net, model, QUERY)
    skipped = [ev for ev in res.transcript if ev.kind == "skip-inconsistent"]
    assert [(ev.path, ev.edge) for ev in skipped] == [(("z1", "z2"), "z3")]


def test_query_prints_no_path(files, tmp_path, capsys):
    store = str(tmp_path / "weights.json")
    assert main(["build", "--network", files[0], "--trajectories", files[1], "--out", store]) == 0
    capsys.readouterr()
    rc = main(["query", "--network", files[0], "--store", store,
               "--source", "a", "--dest", "d", "--budget", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[:2] == ["path NONE", "probability 0"]


def test_sampler_raises_on_inconsistent_path(files):
    net, model = z_model(files)
    with pytest.raises(InconsistentWeightsError):
        mc_arrival_prob(model, Path(("z1", "z2", "z3")), 100, 10, random.Random(0))
    assert mc_arrival_prob(model, Path(("z1", "z2")), 100, 10, random.Random(0)) == 1.0
