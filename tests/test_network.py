"""Tests for network loading, validation, and path helpers."""

from __future__ import annotations

import math
import random

import pytest

from spotar.network import (
    EARTH_RADIUS_M,
    Edge,
    Network,
    NetworkFormatError,
    Node,
    PathError,
    Query,
    load_network,
    make_path,
)

from _util import tiny_network


def test_sample_network_shape(sample_net):
    assert sample_net.num_nodes() == 6
    assert sample_net.num_edges() == 9
    assert set(sample_net.node_ids) == {"s", "e", "r", "q", "f", "d"}
    assert sample_net.delta == 1.0


def test_sample_network_edge_attributes(sample_net):
    e9 = sample_net.edge("e9")
    assert e9.from_node == "q"
    assert e9.to_node == "d"
    assert e9.length == 32.5
    assert e9.speed_limit == 6.5


def test_rows_are_immutable_hashable_and_equal_by_fields(sample_net):
    e9, q = sample_net.edge("e9"), sample_net.node("q")
    for row, field in ((e9, "to_node"), (q, "lat")):
        with pytest.raises(AttributeError):
            setattr(row, field, "x")
    assert e9 == Edge("e9", "q", "d", 32.5, 6.5)
    assert q == Node("q", q.lat, q.lon)
    assert {e9: 1, q: 2}[Edge("e9", "q", "d", 32.5, 6.5)] == 1
    assert e9 != Edge("e9", "q", "d", 32.5, 7.0)


def test_out_and_in_edges_sorted_by_id(sample_net):
    assert [e.edge_id for e in sample_net.out_edges("s")] == ["e1", "e2"]
    assert [e.edge_id for e in sample_net.out_edges("e")] == ["e4", "e5"]
    assert sample_net.out_edges("d") == ()
    # the incoming edges, which the minimum-time tree walks backward, are ordered the same way
    assert [e.edge_id for e in sample_net._in["d"]] == ["e8", "e9"]
    assert sample_net._in["s"] == ()


def test_has_node_and_edge(sample_net):
    assert sample_net.has_node("q")
    assert not sample_net.has_node("zz")
    assert sample_net.has_edge("e5")
    assert not sample_net.has_edge("e99")


def test_distance_is_symmetric_and_matches_formula(sample_net):
    """Longitudes are scaled by one cosine, of the mean latitude of all nodes."""
    d1 = sample_net.distance_m("s", "d")
    d2 = sample_net.distance_m("d", "s")
    assert d1 == pytest.approx(d2, rel=1e-12)
    a = sample_net.node("s")
    b = sample_net.node("d")
    lats = [sample_net.node(n).lat for n in sample_net.node_ids]
    mean_lat = math.radians(sum(lats) / len(lats))
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon) * math.cos(mean_lat)
    assert d1 == EARTH_RADIUS_M * math.hypot(dlat, dlon)
    assert sample_net.distance_m("s", "s") == 0.0


def test_distance_is_a_metric_across_latitudes():
    """One fixed scale makes a planar metric: the triangle inequality holds
    on every triple, also where the nodes' latitudes are far apart."""
    rng = random.Random(7)
    nodes = [Node(f"n{i}", rng.uniform(-60.0, 60.0), rng.uniform(-30.0, 30.0)) for i in range(12)]
    net = Network(nodes, [])
    ids = net.node_ids
    for a in ids:
        for b in ids:
            for c in ids:
                direct, via = net.distance_m(a, c), net.distance_m(a, b) + net.distance_m(b, c)
                assert direct <= via * (1.0 + 1e-12)


def test_straight_line_never_exceeds_edge_length(sample_net):
    # The sample's geometry is plausible: every edge is at least as long
    # as the straight line between its endpoints.
    for eid in sample_net.edge_ids:
        e = sample_net.edge(eid)
        assert sample_net.distance_m(e.from_node, e.to_node) <= e.length + 1e-9


@pytest.mark.parametrize(
    "nodes,edges",
    [
        ([Node("a", 0, 0), Node("a", 1, 1)], []),
        ([Node("a", 0, 0)], [Edge("x", "a", "b", 1.0, 1.0)]),
        ([Node("a", 0, 0)], [Edge("x", "b", "a", 1.0, 1.0)]),
        (
            [Node("a", 0, 0), Node("b", 0, 1)],
            [Edge("x", "a", "b", 1.0, 1.0), Edge("x", "b", "a", 1.0, 1.0)],
        ),
        ([Node("a", 0, 0), Node("b", 0, 1)], [Edge("x", "a", "b", 0.0, 1.0)]),
        ([Node("a", 0, 0), Node("b", 0, 1)], [Edge("x", "a", "b", 1.0, -2.0)]),
    ],
)
def test_network_validation_errors(nodes, edges):
    with pytest.raises(NetworkFormatError):
        Network(nodes, edges)


def test_network_rejects_bad_delta():
    with pytest.raises(NetworkFormatError):
        Network([Node("a", 0, 0)], [], delta=0.0)
    # an int too large for a float is refused by the same rule, not by float()
    with pytest.raises(NetworkFormatError, match="^delta must be positive and finite, got an int too large"):
        Network([Node("a", 0, 0)], [], delta=10**5000)


def test_make_path_accepts_valid_sequences(sample_net):
    p = make_path(sample_net, ["e2", "e6", "e9"])
    assert p.edges == ("e2", "e6", "e9")
    assert p == make_path(sample_net, ("e2", "e6", "e9"))


@pytest.mark.parametrize(
    "ids",
    [
        [],
        ["e1", "e1"],
        ["nope"],
        ["e1", "e2"],  # e2 starts at s, e1 ends at e
        ["e9", "e8"],  # e8 starts at f, e9 ends at d
    ],
)
def test_make_path_rejects_bad_sequences(sample_net, ids):
    with pytest.raises(PathError):
        make_path(sample_net, ids)




def test_query_validation():
    q = Query("s", "d", 22)
    assert (q.source, q.dest, q.budget) == ("s", "d", 22)
    with pytest.raises(ValueError):
        Query("s", "s", 10)
    with pytest.raises(ValueError):
        Query("s", "d", 0)
    with pytest.raises(ValueError):
        Query("s", "d", 7.5)
    with pytest.raises(ValueError):
        Query("s", "d", True)


def test_load_network_ignores_blanks_and_strips_fields(tmp_path):
    text = "#nodes\n a , 57.0 , 9.9 \n\nb,57.001,9.901\n#edges\n x , a , b , 120 , 10 \n"
    f = tmp_path / "net.csv"
    f.write_text(text)
    net = load_network(str(f))
    assert set(net.node_ids) == {"a", "b"}
    assert net.edge("x").length == 120.0


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("#vertices\na,0,0\n", 1),
        ("a,0,0\n", 1),
        ("#nodes\na,0\n", 2),
        ("#nodes\na,zero,0\n", 2),
        ("#nodes\na,0,0\n#edges\nx,a,a,5\n", 4),
        ("#nodes\na,0,0\n#edges\nx,a,a,5,fast\n", 4),
    ],
)
def test_load_network_reports_line_numbers(tmp_path, text, lineno):
    f = tmp_path / "net.csv"
    f.write_text(text)
    with pytest.raises(NetworkFormatError, match=f"line {lineno}"):
        load_network(str(f))


def test_load_network_requires_nodes(tmp_path):
    f = tmp_path / "net.csv"
    f.write_text("#edges\n")
    with pytest.raises(NetworkFormatError):
        load_network(str(f))


def test_tiny_network_helper_geometry():
    net = tiny_network([("x", "a", "b", 40.0, 5.0), ("y", "b", "c", 55.0, 11.0)])
    assert set(net.node_ids) == {"a", "b", "c"}
    for eid in net.edge_ids:
        e = net.edge(eid)
        assert net.distance_m(e.from_node, e.to_node) < e.length
