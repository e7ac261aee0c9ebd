"""Malformed inputs through ``cli.main``: exit 1, one ``error:`` line, no traceback."""

from __future__ import annotations

import json
import pathlib

import pytest

from spotar.cli import main

DATA = pathlib.Path(__file__).parent / "data"
NETWORK = str(DATA / "sample_network.csv")
TRAJECTORIES = str(DATA / "sample_trajectories.csv")
QUERY = ["--source", "s", "--dest", "d", "--budget", "22"]


@pytest.fixture(scope="module")
def store_doc(tmp_path_factory):
    """The sample store as a JSON document (edge ``e1`` is {8: .9, 10: .1};
    stored paths ``e1,e4`` and ``e2,e6``)."""
    out = tmp_path_factory.mktemp("store") / "weights.json"
    assert main(["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _set_time(doc, value):
    doc["edge_weights"]["e1"][0][0] = value


def _set_rows(doc, rows):
    doc["path_weights"][0]["rows"] = rows


# (case, change to the store document, text the error line must contain)
STORE_CASES = [
    ("edge_weights is a list", lambda d: d.update(edge_weights=[]), "edge_weights must be an object"),
    ("fallback_edges is a string", lambda d: d.update(fallback_edges="e3"), "fallback_edges must be a list"),
    ("time 8.7", lambda d: _set_time(d, 8.7), "edge 'e1': travel time 8.7 is not an integer"),
    ("time '8'", lambda d: _set_time(d, "8"), "edge 'e1': travel time '8' is not an integer"),
    ("time true", lambda d: _set_time(d, True), "edge 'e1': travel time True is not an integer"),
    (
        "NaN probability",
        lambda d: d["edge_weights"]["e1"][0].__setitem__(1, float("nan")),
        "edge 'e1': probability nan is not finite",
    ),
    (
        "negative probability",
        lambda d: d["edge_weights"].update(e1=[[8, 1.1], [10, -0.1]]),
        "edge 'e1': negative probability -0.1",
    ),
    (
        "duplicate time",
        lambda d: d["edge_weights"].update(e1=[[8, 0.5], [8, 0.4], [10, 0.1]]),
        "edge 'e1': histogram lists 8 twice",
    ),
    (
        "duplicate row",
        lambda d: _set_rows(d, [[[8, 6], 0.4], [[8, 6], 0.4], [[10, 10], 0.2]]),
        "stored path ('e1', 'e4'): joint lists (8, 6) twice",
    ),
    (
        "row of the wrong width",
        lambda d: _set_rows(d, [[[8, 6, 6], 0.8], [[10, 10], 0.2]]),
        "stored path ('e1', 'e4'): each row must be a list of 2 times",
    ),
    (
        "key repeats an edge",
        lambda d: d["path_weights"][0].update(edges=["e1", "e1"], rows=[[[8, 8], 0.8], [[10, 10], 0.2]]),
        "stored path ('e1', 'e1'): an edge appears twice",
    ),
    (
        "row time outside its edge's support",
        lambda d: _set_rows(d, [[[9, 6], 0.8], [[10, 10], 0.2]]),
        "has times for 'e1' outside its edge weight",
    ),
    (
        "mass 0.9",
        lambda d: d["edge_weights"].update(e1=[[8, 0.8], [10, 0.1]]),
        "edge 'e1': total mass",
    ),
]


def _single_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error:")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


@pytest.mark.parametrize("case, change, expected", STORE_CASES, ids=[c[0] for c in STORE_CASES])
def test_query_rejects_malformed_store(store_doc, tmp_path, capsys, case, change, expected):
    doc = json.loads(json.dumps(store_doc))
    change(doc)
    store = tmp_path / "bad.json"
    store.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 1
    assert expected in _single_error_line(capsys)


def test_build_rejects_infinite_trajectory_time(tmp_path, capsys):
    trajectories = tmp_path / "trajectories.csv"
    trajectories.write_text("5,e1:inf;e4:6\n")
    argv = ["build", "--network", NETWORK, "--trajectories", str(trajectories)]
    assert main([*argv, "--out", str(tmp_path / "w.json")]) == 1
    assert "line 1: duration inf is not finite" in _single_error_line(capsys)


def test_query_loads_indented_store(store_doc, tmp_path, capsys):
    store = tmp_path / "indented.json"
    store.write_text(json.dumps(store_doc, sort_keys=True, indent=2) + "\n")
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["path e2,e6,e9", "probability 0.7"]
