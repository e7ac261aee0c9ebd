"""Malformed inputs through ``cli.main``: exit 1, one ``error:`` line, no traceback."""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from spotar.cli import main
from spotar.dist import DistributionError, Histogram, JointDist
from spotar.network import NetworkFormatError, load_network
from spotar.weights import (
    StoreFormatError,
    TrajectoryFormatError,
    build_store,
    load_store,
    load_trajectories,
    save_store,
)

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


def _add_three_edge_path(doc):
    """A stored path of 3 edges, whose times fit its edges, in a store whose
    ``max_unit_len`` is 2."""
    doc["max_unit_len"] = 2
    doc["path_weights"].append({"edges": ["e1", "e4", "e9"], "rows": [[[8, 6, 5], 1.0]]})


# stores whose weights break a promise of their header (case, change, message)
HEADER_PROMISE_CASES = [
    ("stored path longer than max_unit_len", _add_three_edge_path,
     "malformed store: stored path weight ('e1', 'e4', 'e9') spans more than max_unit_len 2 edges"),
    ("edge mode with stored paths", lambda d: d.update(mode="edge"),
     "malformed store: an edge-mode store holds stored path weight ('e1', 'e4')"),
]

# (case, change to the store document, text the error line must contain)
STORE_CASES = [
    ("version true", lambda d: d.update(version=True), "unsupported version True"),
    ("version 1.0", lambda d: d.update(version=1.0), "unsupported version 1.0"),
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
    ("min_support 2.7", lambda d: d.update(min_support=2.7), "min_support 2.7 is not an integer of at least 1"),
    ("min_support '10'", lambda d: d.update(min_support="10"),
     "min_support '10' is not an integer of at least 1"),
    ("min_support true", lambda d: d.update(min_support=True),
     "min_support True is not an integer of at least 1"),
    ("min_support -3", lambda d: d.update(min_support=-3), "min_support -3 is not an integer of at least 1"),
    ("max_unit_len 0", lambda d: d.update(max_unit_len=0), "max_unit_len 0 is not an integer of at least 2"),
    ("max_unit_len 2.9", lambda d: d.update(max_unit_len=2.9),
     "max_unit_len 2.9 is not an integer of at least 2"),
    ("delta '1.0'", lambda d: d.update(delta="1.0"), "delta '1.0' is not a number"),
    ("delta true", lambda d: d.update(delta=True), "delta True is not a number"),
    ("delta 10**400", lambda d: d.update(delta=10**400),
     "malformed store: delta must be positive and finite, got an int too large for a float"),
    ("fallback edge id 3", lambda d: d.update(fallback_edges=[3]), "fallback_edges must hold edge ids"),
    ("path weight is a list", lambda d: d.update(path_weights=[[]]), "path_weights must hold objects"),
    ("stored path edges are a string", lambda d: d["path_weights"][0].update(edges="e1,e4"),
     "the edges of a stored path must be a list"),
    ("entries are an object", lambda d: d["edge_weights"].update(e1={"8": 1.0}),
     "edge 'e1': entries must be a list of lists"),
    ("entry of three items", lambda d: d["edge_weights"].update(e1=[[8, 0.9, 1], [10, 0.1]]),
     "edge 'e1': an entry is not a pair"),
    ("stored path listed twice", lambda d: d["path_weights"].append(d["path_weights"][0]),
     "stored path ('e1', 'e4') appears twice"),
    ("fallback edge with no weight", lambda d: d.update(fallback_edges=["nope"]),
     "fallback edge 'nope' has no weight"),
    ("fallback edge listed twice", lambda d: d.update(fallback_edges=["e3", "e3", "e7", "e8"]),
     "fallback_edges lists 'e3' twice"),
    *HEADER_PROMISE_CASES,
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


@pytest.mark.parametrize(
    "case, change, expected", HEADER_PROMISE_CASES, ids=[c[0] for c in HEADER_PROMISE_CASES]
)
def test_load_store_refuses_a_store_that_breaks_its_header(store_doc, tmp_path, case, change, expected):
    """A saved store edited so that its weights break a promise of its
    header is refused by the loader, as the constructor refuses it."""
    doc = json.loads(json.dumps(store_doc))
    change(doc)
    store = tmp_path / "bad.json"
    store.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError) as loaded:
        load_store(str(store))
    assert str(loaded.value) == expected


def test_query_rejects_a_store_nested_too_deep_for_the_parser(tmp_path, capsys):
    """The JSON parser gives up on deep nesting with a ``RecursionError``,
    which is reported as invalid JSON like any other parse error."""
    store = tmp_path / "deep.json"
    store.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 1
    assert _single_error_line(capsys).startswith("error: not valid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "first_bad, later_bad, expected",
    [
        (
            lambda d: d["edge_weights"].update(e1=[[8, 0.5], [8, 0.4], [10, 0.1]]),
            lambda d: d["edge_weights"].update(e4=[[6, 0.8], [10, 0.1]]),
            "edge 'e1': histogram lists 8 twice",
        ),
        (
            lambda d: d["edge_weights"].update(e1=[[8, 0.8], [10, 0.1]]),
            lambda d: _set_rows(d, [[[8, 6], 0.4], [[8, 6], 0.4], [[10, 10], 0.2]]),
            "edge 'e1': total mass",
        ),
        (
            lambda d: d["edge_weights"].update(e1=[[8, 0.8], [10, 0.1]]),
            lambda d: d["edge_weights"].update(e4=[[6.5, 0.8], [10, 0.2]]),
            "edge 'e1': total mass",
        ),
        (
            lambda d: d["edge_weights"].update(e1=[[8, 0.5], [8, 0.4], [10, 0.1]]),
            lambda d: _set_rows(d, [[[8, 6, 6], 0.8], [[10, 10], 0.2]]),
            "edge 'e1': histogram lists 8 twice",
        ),
        (
            lambda d: d["edge_weights"].update(e1=[[10, 0.1], [8, 0.9]]),
            lambda d: d["edge_weights"].update(e4=[[6.5, 0.8], [10, 0.2]]),
            "edge 'e4': travel time 6.5 is not an integer",
        ),
    ],
    ids=[
        "repeated time before mass 0.9",
        "mass 0.9 before duplicate row",
        "mass 0.9 before time 6.5",
        "repeated time before row of the wrong width",
        "unsorted but valid before time 6.5",
    ],
)
def test_load_store_names_first_bad_object(store_doc, tmp_path, first_bad, later_bad, expected):
    """With two changed objects, the error names the first bad one in document
    order, whichever of their rules a check over all objects would find first;
    an object that is only out of order is not bad."""
    doc = json.loads(json.dumps(store_doc))
    first_bad(doc)
    later_bad(doc)
    store = tmp_path / "bad.json"
    store.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError) as loaded:
        load_store(str(store))
    assert str(loaded.value).startswith(expected)


def test_build_rejects_infinite_trajectory_time(tmp_path, capsys):
    trajectories = tmp_path / "trajectories.csv"
    trajectories.write_text("5,e1:inf;e4:6\n")
    argv = ["build", "--network", NETWORK, "--trajectories", str(trajectories)]
    assert main([*argv, "--out", str(tmp_path / "w.json")]) == 1
    assert "line 1: duration inf is not finite" in _single_error_line(capsys)


def test_build_rejects_a_trajectory_time_too_long_for_the_grid(tmp_path, capsys):
    """A finite duration whose count of grid units overflows a float is
    refused by line, like an infinite one."""
    trajectories = tmp_path / "trajectories.csv"
    trajectories.write_text("1,e1:1e300\n")
    argv = ["build", "--network", NETWORK, "--trajectories", str(trajectories), "--delta", "1e-10"]
    assert main([*argv, "--out", str(tmp_path / "w.json")]) == 1
    assert "line 1: duration 1e+300 is too long for a grid of 1e-10 s" in _single_error_line(capsys)


def test_build_names_the_bad_trajectory_file_and_line(tmp_path, capsys):
    trajectories = tmp_path / "trajectories.csv"
    trajectories.write_text("80,e1:8;e4:6\n# a comment\n1,zz:5\n")
    argv = ["build", "--network", NETWORK, "--trajectories", str(trajectories)]
    assert main([*argv, "--out", str(tmp_path / "w.json")]) == 1
    assert _single_error_line(capsys) == f"error: {trajectories}: line 3: unknown edge 'zz'"


def test_build_and_query_name_the_bad_network_file(store_doc, tmp_path, capsys):
    """A value the network refuses names the file; a line that does not
    parse names the file and the line."""
    store = tmp_path / "weights.json"
    store.write_text(json.dumps(store_doc))
    for old, new, expected in (
        ("e1,s,e,64,8.0", "e1,s,e,-5,8.0", "edge 'e1' has length -5.0, not a positive finite number"),
        ("e1,s,e,64,8.0", "e1,s,e,64", "line 9: expected edge_id,from,to,length_m,speed_mps"),
    ):
        network = _network_with(tmp_path, old, new)
        argv = ["build", "--network", network, "--trajectories", TRAJECTORIES, "--out", str(tmp_path / "w.json")]
        assert main(argv) == 1
        assert _single_error_line(capsys) == f"error: {network}: {expected}"
        assert main(["query", "--network", network, "--store", str(store), *QUERY]) == 1
        assert _single_error_line(capsys) == f"error: {network}: {expected}"


def test_query_rejects_a_store_with_an_integer_too_long_to_convert(store_doc, tmp_path, capsys):
    """The JSON parser refuses an integer of more than 4,300 digits with a
    plain ``ValueError``, which is reported as invalid JSON like any other
    parse error."""
    store = tmp_path / "long.json"
    store.write_text(json.dumps(store_doc).replace('"min_support": 10', '"min_support": ' + "1" * 5000))
    with pytest.raises(StoreFormatError, match="^not valid JSON: Exceeds the limit"):
        load_store(str(store))
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 1
    assert _single_error_line(capsys).startswith("error: not valid JSON: Exceeds the limit")


def test_loaders_name_a_file_that_is_not_utf8(store_doc, tmp_path, capsys):
    """A byte that is not UTF-8 is each loader's own format error, naming
    the network or trajectory file; the store's reads as JSON that does
    not parse.  ``build`` and ``query`` print it as one ``error:`` line."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff" + pathlib.Path(NETWORK).read_bytes())
    store = tmp_path / "weights.json"
    store.write_text(json.dumps(store_doc))
    net = load_network(NETWORK)
    named = f"{bad}: not UTF-8 text: invalid start byte"
    with pytest.raises(NetworkFormatError, match=f"^{named}$"):
        load_network(str(bad))
    with pytest.raises(TrajectoryFormatError, match=f"^{named}$"):
        load_trajectories(net, str(bad))
    not_json = "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    with pytest.raises(StoreFormatError, match=f"^{not_json}$"):
        load_store(str(bad))
    out = ["--out", str(tmp_path / "w.json")]
    for argv, expected in (
        (["build", "--network", str(bad), "--trajectories", TRAJECTORIES, *out], named),
        (["build", "--network", NETWORK, "--trajectories", str(bad), *out], named),
        (["query", "--network", str(bad), "--store", str(store), *QUERY], named),
        (["query", "--network", NETWORK, "--store", str(bad), *QUERY], not_json),
    ):
        assert main(argv) == 1
        assert _single_error_line(capsys) == f"error: {expected}"


def _mutants(data: bytes, rng: random.Random, n: int):
    """``n`` copies of ``data``, each with one to three byte edits: a byte
    overwritten, deleted or inserted, or a run of up to 8 bytes repeated.
    A new byte is any byte half of the time, and one of ``data``'s otherwise."""
    for _ in range(n):
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out))
            byte = rng.randrange(256) if rng.random() < 0.5 else rng.choice(data)
            kind = rng.randrange(4)
            if kind == 0:
                out[i] = byte
            elif kind == 1:
                del out[i]
            elif kind == 2:
                out.insert(i, byte)
            else:
                out[i:i] = out[i:i + rng.randint(1, 8)]
        yield bytes(out)


def test_loaders_raise_only_their_format_error_on_mutated_bytes(tmp_path):
    """Seeded byte mutations of the sample network, the sample trajectories
    and a store saved from them either load or raise that loader's own
    format error, never another exception."""
    net = load_network(NETWORK)
    saved = tmp_path / "weights.json"
    save_store(build_store(net, load_trajectories(net, TRAJECTORIES)), str(saved))
    rng = random.Random(3207)
    target = tmp_path / "mutant"
    for source, load, error in (
        (NETWORK, load_network, NetworkFormatError),
        (TRAJECTORIES, lambda path: load_trajectories(net, path), TrajectoryFormatError),
        (str(saved), load_store, StoreFormatError),
    ):
        outcomes = {"loaded": 0, "refused": 0, "not utf-8": 0}
        for data in _mutants(pathlib.Path(source).read_bytes(), rng, 2000):
            target.write_bytes(data)
            try:
                load(str(target))
                outcomes["loaded"] += 1
            except error:
                outcomes["refused"] += 1
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                outcomes["not utf-8"] += 1
        assert min(outcomes.values()) > 0, (source, outcomes)


def test_query_loads_indented_store(store_doc, tmp_path, capsys):
    store = tmp_path / "indented.json"
    store.write_text(json.dumps(store_doc, sort_keys=True, indent=2) + "\n")
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["path e2,e6,e9", "probability 0.7"]


def _network_with(tmp_path, old, new):
    """The sample network with one line changed."""
    text = pathlib.Path(NETWORK).read_text()
    assert old in text
    path = tmp_path / "network.csv"
    path.write_text(text.replace(old, new))
    return str(path)


# (case, changed network line, text the error line must contain)
NETWORK_CASES = [
    ("infinite length", ("e1,s,e,64,8.0", "e1,s,e,inf,8.0"), "edge 'e1' has length inf"),
    ("infinite speed limit", ("e1,s,e,64,8.0", "e1,s,e,64,inf"), "edge 'e1' has speed limit inf"),
    ("NaN latitude", ("q,57.04805,9.91030", "q,nan,9.91030"), "node 'q' has a coordinate that is not finite"),
    (
        "infinite longitude",
        ("q,57.04805,9.91030", "q,57.04805,-inf"),
        "node 'q' has a coordinate that is not finite",
    ),
]


@pytest.mark.parametrize("case, line, expected", NETWORK_CASES, ids=[c[0] for c in NETWORK_CASES])
def test_build_and_query_reject_non_finite_network_values(
    store_doc, tmp_path, capsys, case, line, expected
):
    network = _network_with(tmp_path, *line)
    store = tmp_path / "weights.json"
    store.write_text(json.dumps(store_doc))
    capsys.readouterr()
    argv = ["build", "--network", network, "--trajectories", TRAJECTORIES, "--out", str(tmp_path / "w.json")]
    assert main(argv) == 1
    assert expected in _single_error_line(capsys)
    assert main(["query", "--network", network, "--store", str(store), *QUERY]) == 1
    assert expected in _single_error_line(capsys)


@pytest.mark.parametrize("delta", ["inf", "nan", "0"])
def test_build_rejects_bad_delta(tmp_path, capsys, delta):
    out = tmp_path / "w.json"
    argv = ["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out)]
    assert main([*argv, "--delta", delta]) == 1
    assert f"delta must be positive and finite, got {float(delta)!r}" in _single_error_line(capsys)
    assert not out.exists()


def test_query_rejects_infinite_store_delta(store_doc, tmp_path, capsys):
    store = tmp_path / "weights.json"
    store.write_text(json.dumps(dict(store_doc, delta=float("inf"))))
    capsys.readouterr()
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY]) == 1
    assert "delta must be positive and finite, got inf" in _single_error_line(capsys)


# One rejection table for both ways in: each bad entry, given to the
# constructor, raises DistributionError with the message; written into a
# store, it makes load_store raise StoreFormatError with the stored
# object's name followed by the same message.  A histogram's entries are
# (time, probability) pairs and stand for edge 'e1'; a joint's are
# (row, probability) pairs over its edges and stand for the first stored path.
NAN, INF = float("nan"), float("inf")
ENTRY_CASES = [
    ("time 0", None, [(0, 0.9), (10, 0.1)], "travel time 0 is below the grid minimum of 1"),
    ("time 2.5", None, [(2.5, 0.9), (10, 0.1)], "travel time 2.5 is not an integer"),
    ("time True", None, [(True, 0.9), (10, 0.1)], "travel time True is not an integer"),
    ("time '8'", None, [("8", 0.9), (10, 0.1)], "travel time '8' is not an integer"),
    ("row time 0", ("e1", "e4"), [((8, 0), 0.8), ((10, 10), 0.2)],
     "travel time 0 is below the grid minimum of 1"),
    ("row time True", ("e1", "e4"), [((8, True), 0.8), ((10, 10), 0.2)],
     "travel time True is not an integer"),
    ("probability -0.1", None, [(8, 1.1), (10, -0.1)], "negative probability -0.1"),
    ("probability NaN", None, [(8, NAN), (10, 0.1)], "probability nan is not finite"),
    ("probability inf", None, [(8, INF), (10, 0.1)], "probability inf is not finite"),
    ("probability True", None, [(8, True), (10, 0.0)], "probability True is not a number"),
    ("probability 10**400", None, [(8, 10**400), (10, 0.1)], "an integer probability is too large for a float"),
    ("probability '0.5'", None, [(8, "0.5"), (10, 0.5)], "probability '0.5' is not a number"),
    ("row probability NaN", ("e1", "e4"), [((8, 6), NAN), ((10, 10), 0.2)], "probability nan is not finite"),
    ("row probability 10**400", ("e1", "e4"), [((8, 6), 10**400), ((10, 10), 0.2)],
     "an integer probability is too large for a float"),
    ("row probability True", ("e1", "e4"), [((8, 6), True), ((10, 10), 0.0)],
     "probability True is not a number"),
    # a Mapping cannot repeat a key, but two keys can hold the same times
    ("repeated row", ("e1", "e4"), [((8, 6), 0.4), (range(8, 5, -2), 0.4), ((10, 10), 0.2)],
     "joint lists (8, 6) twice"),
    ("mass 0.9", None, [(8, 0.8), (10, 0.1)], f"total mass {0.8 + 0.1!r} differs from 1 by more than 1e-09"),
    ("joint mass 0.9", ("e1", "e4"), [((8, 6), 0.7), ((10, 10), 0.2)],
     f"total mass {0.7 + 0.2!r} differs from 1 by more than 1e-09"),
    ("row of the wrong width", ("e1", "e4"), [((8, 6, 6), 0.8), ((10, 10), 0.2)],
     "each row must be a list of 2 times"),
    ("key repeats an edge", ("e1", "e1"), [((8, 8), 0.8), ((10, 10), 0.2)], "an edge appears twice"),
]


@pytest.mark.parametrize("case, edges, entries, message", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_constructors_and_load_store_reject_alike(store_doc, tmp_path, case, edges, entries, message):
    doc = json.loads(json.dumps(store_doc))
    with pytest.raises(DistributionError) as built:
        if edges is None:
            Histogram(dict(entries))
        else:
            JointDist(edges, dict(entries))
    assert str(built.value) == message
    if edges is None:
        name = "edge 'e1'"
        doc["edge_weights"]["e1"] = [[t, p] for t, p in entries]
    else:
        name = f"stored path {edges!r}"
        doc["path_weights"][0] = {"edges": list(edges), "rows": [[list(row), p] for row, p in entries]}
    store = tmp_path / "bad.json"
    store.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError) as loaded:
        load_store(str(store))
    assert str(loaded.value) == f"{name}: {message}"


def test_edge_query_on_a_store_whose_weights_drift_within_the_tolerance(store_doc, tmp_path, capsys):
    """Every edge weight 0.9e-9 short of mass 1 loads, and an edge-mode
    query over it answers: the mass of a cost convolved from several such
    weights drifts past ``MASS_TOL``, so it is not checked again."""
    doc = json.loads(json.dumps(store_doc))
    for entries in doc["edge_weights"].values():
        entries[0][1] -= 0.9e-9
    store = tmp_path / "drifted.json"
    store.write_text(json.dumps(doc))
    load_store(str(store))
    assert main(["query", "--network", NETWORK, "--store", str(store), *QUERY, "--mode", "edge"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["path e2,e6,e9", "probability 0.38799999811"]


def test_verify_reports_the_enumeration_limit(capsys):
    """Brute force gives up on a dense instance with too many simple paths."""
    assert main(["verify", "--nodes", "24", "--density", "1.0", "--instances", "1"]) == 1
    assert _single_error_line(capsys) == "error: more than 100000 simple paths"
