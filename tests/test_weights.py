"""Tests for trajectory aggregation, stores, and path cost assembly."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import pathlib
import random

import pytest

import spotar.weights as weights_module
from spotar.dist import (
    MASS_TOL,
    DistributionError,
    Histogram,
    JointDist,
    _derived,
    convolve,
    min_cost,
    times_cdf,
)
from spotar.heuristic import HeuristicKind
from spotar.network import Path, Query, load_network, make_path
from spotar.oracle import enumerate_simple_paths, gen_instance
from spotar.solver import solve
from spotar.weights import (
    CostModel,
    InconsistentWeightsError,
    Mode,
    StoreError,
    StoreFormatError,
    TrajectoryFormatError,
    TrajectoryRecord,
    WeightStore,
    _FUSE_TOL,
    _cover,
    _extend_cover,
    _fold,
    _fold_times,
    build_store,
    extend_cost,
    grid_seconds,
    load_store,
    load_trajectories,
    path_cost,
    save_store,
)

from _util import approx_dict, conflicting_records, tiny_network


# ---------------------------------------------------------------- parsing


def test_grid_seconds_rounds_half_up():
    assert grid_seconds(8.0, 1.0) == 8
    assert grid_seconds(8.49, 1.0) == 8
    assert grid_seconds(8.5, 1.0) == 9
    assert grid_seconds(89.9, 60.0) == 1
    assert grid_seconds(90.0, 60.0) == 2
    assert grid_seconds(0.0, 1.0) == 1  # grid minimum
    assert grid_seconds(0.2, 60.0) == 1
    with pytest.raises(ValueError):
        grid_seconds(-1.0, 1.0)


def test_grid_seconds_rejects_non_finite():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            grid_seconds(bad, 1.0)


def test_mode_parse():
    assert Mode.parse("edge") is Mode.EDGE
    assert Mode.parse("PACE") is Mode.PACE
    with pytest.raises(ValueError):
        Mode.parse("both")


def test_trajectory_record_validation(sample_net):
    p = Path(("e1", "e4"))
    TrajectoryRecord(p, (8, 6), 80)
    with pytest.raises(ValueError):
        TrajectoryRecord(p, (8,), 80)
    with pytest.raises(ValueError):
        TrajectoryRecord(p, (8, 0), 80)
    with pytest.raises(ValueError):
        TrajectoryRecord(p, (8, True), 80)
    with pytest.raises(ValueError):
        TrajectoryRecord(p, (8, 6), 0)
    # a list is not hashable, so build_store could not count it
    with pytest.raises(ValueError, match=r"^times \[8, 6\] are not a tuple$"):
        TrajectoryRecord(p, [8, 6], 80)
    with pytest.raises(ValueError, match=r"^path edges \['e1', 'e4'\] are not a tuple$"):
        TrajectoryRecord(Path(["e1", "e4"]), (8, 6), 80)


def test_load_trajectories_sample(sample_net, sample_records):
    assert len(sample_records) == 10
    first = sample_records[0]
    assert first.path.edges == ("e1", "e4")
    assert first.times == (8, 6)
    assert first.count == 80
    assert sum(r.count for r in sample_records) == 255
    assert sample_records[-1].path.edges == ("e9",)
    assert sample_records[-1].times == (9,)


# bad trajectory line -> the loader's message after its line number
BAD_LINES = {
    "no-comma-here": "expected 'count,edge:seconds;...'",
    "x,e1:5": "invalid literal for int() with base 10: 'x'",
    "1,e1-5": "step 'e1-5' is missing ':'",
    "1,zz:5": "unknown edge 'zz'",
    "1,e1:8;e6:5": "edge 'e6' starts at 'r' but 'e1' ends at 'e'",
    "1,e1:-5": "negative duration -5.0",
    "0,e1:5": "count 0 is not a positive integer",
    "-3,e1:5": "count -3 is not a positive integer",
    "1,e1:8;e1:6": "repeated edge in ('e1', 'e1')",
    "1,e1:nan": "duration nan is not finite",
    "1,e1:8;": "step '' is missing ':'",
    "0,e1:8;e4:6": "count 0 is not a positive integer",
    # two faults: the steps and the path are checked before the count
    "0,zz:5": "unknown edge 'zz'",
    "0,e1-5": "step 'e1-5' is missing ':'",
}

# good lines that share the bad lines' steps and edge sequences
GOOD_LINES = ("1,e1:8;e4:6", "1,e1:5", "1,e1:6", "2,e1:8")


def _load_error(tmp_path, net, lines) -> tuple[str, str]:
    """The message of the error loading ``lines`` raises, and the file's path."""
    f = tmp_path / "t.csv"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectories(net, str(f))
    return str(err.value), str(f)


@pytest.mark.parametrize("line", list(BAD_LINES))
def test_load_trajectories_rejects_bad_lines(tmp_path, sample_net, line):
    message, where = _load_error(tmp_path, sample_net, ["# header comment", line])
    assert message == f"{where}: line 2: {BAD_LINES[line]}"


@pytest.mark.parametrize("line", list(BAD_LINES))
def test_load_trajectories_rejects_bad_lines_after_good_ones(tmp_path, sample_net, line):
    """A bad line whose steps and edges good lines have already shown is
    refused with the same message: only what passed is remembered."""
    lines = ["# header comment", *GOOD_LINES, line]
    message, where = _load_error(tmp_path, sample_net, lines)
    assert message == f"{where}: line {len(lines)}: {BAD_LINES[line]}"


def test_load_trajectories_snaps_to_grid(tmp_path, sample_net):
    f = tmp_path / "t.csv"
    f.write_text("2,e1:8.4;e4:6.5\n")
    (rec,) = load_trajectories(sample_net, str(f))
    assert rec.times == (8, 7)


def _as_text(records, seconds) -> str:
    """Trajectory lines for ``records``, each time written as ``seconds(t, i)``
    for the record's ``i``-th line."""
    return "".join(
        f"{r.count}," + ";".join(f"{e}:{seconds(t, i)}" for e, t in zip(r.path.edges, r.times)) + "\n"
        for i, r in enumerate(records)
    )


@pytest.mark.parametrize("seed", range(12))
def test_load_trajectories_round_trips_generated_records(tmp_path, seed):
    """Generated records written as text, in whole seconds or in fractions
    that snap to the same units, load back equal field by field; the
    instances repeat their routes, so most steps and paths are met again."""
    net, plain = gen_instance(seed)
    for name, records in (("plain", plain), ("conflicting", conflicting_records(plain, random.Random(seed)))):
        for kind, seconds in (
            ("whole", lambda t, i: t),
            ("fractional", lambda t, i: t - 0.5 if i % 2 else t + 0.25),  # both snap to t
        ):
            f = tmp_path / f"{name}-{kind}.txt"
            f.write_text(_as_text(records, seconds))
            loaded = load_trajectories(net, str(f))
            assert len(loaded) == len(records)
            for got, want in zip(loaded, records):
                assert type(got) is TrajectoryRecord
                assert got.path == want.path and type(got.path.edges) is tuple
                assert got.times == want.times and type(got.times) is tuple
                assert set(map(type, got.times)) == {int}
                assert got.count == want.count and type(got.count) is int


# ------------------------------------------------------------- the store


def test_build_store_edge_weights(sample_store):
    expect = {
        "e1": {8: 0.9, 10: 0.1},
        "e2": {8: 0.2, 11: 0.8},
        "e3": {11: 1.0},
        "e4": {6: 0.8, 10: 0.2},
        "e5": {8: 0.8, 10: 0.2},
        "e6": {5: 0.7, 9: 0.3},
        "e7": {13: 1.0},
        "e8": {8: 1.0},
        "e9": {5: 0.4, 9: 0.6},
    }
    assert set(sample_store.edge_ids()) == set(expect)
    for eid, want in expect.items():
        approx_dict(sample_store.edge_weight(eid).items(), want)


def test_build_store_fallback_edges(sample_store):
    # Edges never observed get a point mass at length over speed limit.
    assert sample_store.fallback_edges == {"e3", "e7", "e8"}


def test_build_store_path_weights(sample_store):
    assert set(sample_store.stored_paths()) == {("e1", "e4"), ("e2", "e6")}
    approx_dict(
        sample_store.path_weight(("e1", "e4")).rows(),
        {(8, 6): 0.8, (10, 10): 0.2},
    )
    approx_dict(
        sample_store.path_weight(("e2", "e6")).rows(),
        {(8, 5): 0.7, (11, 9): 0.3},
    )
    assert sample_store.max_stored_len == 2


def test_build_store_min_support_threshold(sample_net, sample_records):
    # The two-edge pattern over e2,e6 is seen 10 times: present at 10,
    # gone at 11 while the 100-trip pattern stays.
    at_11 = build_store(sample_net, sample_records, min_support=11)
    assert set(at_11.stored_paths()) == {("e1", "e4")}
    at_101 = build_store(sample_net, sample_records, min_support=101)
    assert at_101.stored_paths() == ()
    with pytest.raises(ValueError):
        build_store(sample_net, sample_records, min_support=0)


def test_build_store_edge_mode_keeps_no_paths(sample_net, sample_records):
    store = build_store(sample_net, sample_records, min_support=1, mode=Mode.EDGE)
    assert store.stored_paths() == ()
    assert store.mode is Mode.EDGE
    approx_dict(store.edge_weight("e1").items(), {8: 0.9, 10: 0.1})


def test_build_store_window_spans(sample_net):
    # A five-edge trajectory contributes every window of 2..max_unit_len
    # edges: 4 + 3 + 2 + 1 = 10 windows unrestricted, 4 + 3 = 7 when
    # capped at 3.
    rec = TrajectoryRecord(Path(("e2", "e3", "e4", "e7", "e8")), (8, 11, 6, 13, 8), 10)
    full = build_store(sample_net, [rec], min_support=10)
    assert len(full.stored_paths()) == 10
    capped = build_store(sample_net, [rec], min_support=10, max_unit_len=3)
    assert len(capped.stored_paths()) == 7
    assert all(len(k) <= 3 for k in capped.stored_paths())
    with pytest.raises(ValueError):
        build_store(sample_net, [rec], max_unit_len=1)


def _coarse_store(tmp_path) -> WeightStore:
    """The sample store built on a sixty-second grid from the sample
    trajectories with every duration scaled by sixty."""
    data = pathlib.Path(__file__).parent / "data"
    lines = []
    for rec_line in (data / "sample_trajectories.csv").read_text().splitlines():
        if not rec_line or rec_line.startswith("#"):
            continue
        head, rest = rec_line.split(",", 1)
        steps = []
        for step in rest.split(";"):
            eid, sec = step.split(":")
            steps.append(f"{eid}:{float(sec) * 60.0}")
        lines.append(f"{head},{';'.join(steps)}")
    scaled = tmp_path / "scaled.csv"
    scaled.write_text("\n".join(lines) + "\n")
    coarse_net = load_network(str(data / "sample_network.csv"), delta=60.0)
    return build_store(coarse_net, load_trajectories(coarse_net, str(scaled)), min_support=10)


def test_build_store_coarser_grid_equivalent(tmp_path):
    # Scaling every duration by sixty and loading on a sixty-second grid
    # lands on identical unit values.
    coarse = _coarse_store(tmp_path)
    assert coarse.delta == 60.0
    approx_dict(coarse.edge_weight("e1").items(), {8: 0.9, 10: 0.1})
    approx_dict(
        coarse.path_weight(("e1", "e4")).rows(), {(8, 6): 0.8, (10, 10): 0.2}
    )


@pytest.mark.parametrize("kind", list(HeuristicKind))
@pytest.mark.parametrize("mode", list(Mode))
def test_solve_rejects_a_store_on_another_grid(tmp_path, sample_net, kind, mode):
    """A budget counts units of one ``delta``, which the network and the
    store must share: a one-second network with a sixty-second store is
    refused, naming both units, rather than answered."""
    model = CostModel(_coarse_store(tmp_path), mode)
    with pytest.raises(ValueError, match=r"1\.0 s.*60\.0 s"):
        solve(sample_net, model, kind, Query("s", "d", 22))


def test_store_validation_errors():
    h = Histogram({5: 1.0})
    ok = dict(delta=1.0, min_support=1, max_unit_len=8, mode=Mode.PACE)
    with pytest.raises(StoreError, match=r"^stored weight keyed \('a', 'b'\) covers \('a', 'c'\)$"):
        WeightStore(
            **ok,
            edge_weights={"a": h, "b": h, "c": h},
            path_weights={("a", "b"): JointDist(("a", "c"), {(5, 5): 1.0})},
        )
    with pytest.raises(StoreError, match=r"^stored path weight \('a',\) must span at least 2 edges$"):
        WeightStore(
            **ok,
            edge_weights={"a": h},
            path_weights={("a",): JointDist(("a",), {(5,): 1.0})},
        )
    with pytest.raises(StoreError, match=r"^stored weight \('a', 'b'\) uses edge 'b' with no weight$"):
        WeightStore(
            **ok,
            edge_weights={"a": h},
            path_weights={("a", "b"): JointDist(("a", "b"), {(5, 5): 1.0})},
        )
    outside = r"^stored weight \('a', 'b'\) has times for 'b' outside its edge weight$"
    with pytest.raises(StoreError, match=outside):
        WeightStore(
            **ok,
            edge_weights={"a": h, "b": h},
            path_weights={("a", "b"): JointDist(("a", "b"), {(5, 6): 1.0})},
        )
    # two misfits, given out of key order: the first in key order is named
    with pytest.raises(StoreError, match=r"^stored weight \('a', 'c'\) has times for 'a' outside"):
        WeightStore(
            **ok,
            edge_weights={"a": h, "b": h, "c": h},
            path_weights={
                ("b", "c"): JointDist(("b", "c"), {(5, 6): 1.0}),
                ("a", "c"): JointDist(("a", "c"), {(6, 5): 1.0}),
            },
        )
    with pytest.raises(StoreError, match="fallback edge 'b' has no weight"):
        WeightStore(**ok, edge_weights={"a": h}, path_weights={}, fallback_edges=["a", "b"])


def test_store_keeps_its_header_promises():
    """A stored path may span at most ``max_unit_len`` edges, and an
    ``edge``-mode store holds no stored path; the first misfit in key
    order is named."""
    h = Histogram({5: 1.0})
    edges = {"a": h, "b": h, "c": h, "d": h}
    two = {key: JointDist(key, {(5, 5): 1.0}) for key in (("c", "d"), ("b", "c"))}
    three = {key: JointDist(key, {(5, 5, 5): 1.0}) for key in (("b", "c", "d"), ("a", "b", "c"))}
    header = dict(delta=1.0, min_support=1, max_unit_len=2, mode=Mode.PACE)
    assert WeightStore(**header, edge_weights=edges, path_weights=two).max_stored_len == 2
    too_long = r"^stored path weight \('a', 'b', 'c'\) spans more than max_unit_len 2 edges$"
    with pytest.raises(StoreError, match=too_long):
        WeightStore(**header, edge_weights=edges, path_weights=two | three)
    header["max_unit_len"] = 3
    assert WeightStore(**header, edge_weights=edges, path_weights=two | three).max_stored_len == 3
    header["mode"] = Mode.EDGE
    assert WeightStore(**header, edge_weights=edges, path_weights={}).stored_paths() == ()
    with pytest.raises(StoreError, match=r"^an edge-mode store holds stored path weight \('b', 'c'\)$"):
        WeightStore(**header, edge_weights=edges, path_weights=two)


# (field, bad value); each is rejected with a message that starts with the field
BAD_HEADERS = [
    ("delta", 0.0),
    ("delta", float("nan")),
    ("delta", "1.0"),
    ("delta", True),
    ("min_support", 0),
    ("min_support", 2.7),
    ("min_support", True),
    ("max_unit_len", 1),
    ("mode", "pace"),
    ("delta", 10**400),
]


@pytest.mark.parametrize("field, value", BAD_HEADERS, ids=[f"{f}={v!r:.20}" for f, v in BAD_HEADERS])
def test_store_rejects_a_bad_header(field, value):
    """The constructor checks the header of a store made directly, as it
    does for every built or loaded one: nothing is coerced or truncated."""
    header = {**dict(delta=1.0, min_support=1, max_unit_len=8, mode=Mode.PACE), field: value}
    with pytest.raises(ValueError) as bad:
        WeightStore(**header, edge_weights={"a": Histogram({5: 1.0})}, path_weights={})
    assert str(bad.value).startswith(field)


@pytest.mark.parametrize(
    "field, value", [("min_support", 2.5), ("mode", "pace"), ("max_unit_len", 2.5), ("max_unit_len", 1)]
)
def test_build_store_rejects_a_bad_header(sample_net, sample_records, field, value):
    """A built store meets the constructor's header rules, checked before
    any record is counted: a fractional support is not truncated, a mode
    name is not taken for a mode, and a fractional unit length does not
    reach the windows of a trip of three or more edges."""
    records = [*sample_records, TrajectoryRecord(make_path(sample_net, ["e2", "e3", "e4"]), (8, 11, 6), 3)]
    with pytest.raises(StoreError, match=f"^{field} {value!r} is not "):
        build_store(sample_net, records, **{field: value})


def test_store_lookup_errors(sample_store):
    with pytest.raises(StoreError):
        sample_store.edge_weight("e99")
    with pytest.raises(StoreError):
        sample_store.path_weight(("e1", "e5"))
    assert "e1" in sample_store.edge_ids()
    assert "e99" not in sample_store.edge_ids()
    assert ("e1", "e4") in sample_store.stored_paths()
    assert ("e1", "e5") not in sample_store.stored_paths()


def test_min_time_is_the_first_time_of_each_edge_weight(tmp_path):
    """After a build and after a load, for plain and shifted trajectories.

    The search reads each edge's minimum from ``_min_times``; an edge the
    store does not weigh has none, and ``edge_weight`` names it.
    """
    rng = random.Random(31)
    for seed in range(6):
        net, records = gen_instance(seed, nodes=7, density=0.5, joint_fraction=0.9)
        for recs in (records, conflicting_records(records, rng)):
            built = build_store(net, recs, min_support=2)
            out = tmp_path / f"{seed}.json"
            save_store(built, str(out))
            for store in (built, load_store(str(out))):
                assert store._min_times == {
                    eid: min_cost(store.edge_weight(eid)) for eid in store.edge_ids()
                }
                with pytest.raises(StoreError, match="no weight for edge 'e99'"):
                    store.edge_weight("e99")


def test_build_store_rejects_unknown_edge(sample_net, sample_records):
    """Of two unknown edges in different records, the one in the earlier
    record is named, wherever the edges fall in the records."""
    other = tiny_network([("zz", "a", "b", 10.0, 5.0)])
    rec = load_like(other)
    with pytest.raises(StoreError):
        build_store(sample_net, [rec])
    first = TrajectoryRecord(Path(("e1", "zz")), (8, 5), 1)
    second = TrajectoryRecord(Path(("aa", "e4")), (5, 6), 20)
    records = [*sample_records, first, second]
    for mode in Mode:
        with pytest.raises(StoreError, match="^trajectory uses unknown edge 'zz'$"):
            build_store(sample_net, records, mode=mode)
        with pytest.raises(StoreError, match="^trajectory uses unknown edge 'aa'$"):
            build_store(sample_net, [second, *records], mode=mode)


def test_build_store_rejects_a_kept_window_over_a_repeated_edge(sample_net, sample_records):
    """A record whose path repeats an edge (made directly, not through
    ``make_path``) feeds the edge histograms and, once its window has the
    support to be kept, is refused as the joint constructor refuses it."""
    looped = TrajectoryRecord(Path(("e1", "e1")), (8, 10), 5)
    store = build_store(sample_net, [*sample_records, looped], min_support=10)
    assert ("e1", "e1") not in store.stored_paths()
    approx_dict(store.edge_weight("e1").items(), {8: 185 / 210, 10: 25 / 210})
    with pytest.raises(DistributionError, match="^an edge appears twice$"):
        build_store(sample_net, [*sample_records, looped], min_support=5)


def load_like(net):
    eid = net.edge_ids[0]
    return TrajectoryRecord(Path((eid,)), (2,), 1)


def test_save_load_round_trip(tmp_path, sample_store):
    out = tmp_path / "weights.json"
    save_store(sample_store, str(out))
    again = load_store(str(out))
    assert again.delta == sample_store.delta
    assert again.min_support == sample_store.min_support
    assert again.max_unit_len == sample_store.max_unit_len
    assert again.mode is sample_store.mode
    assert again.fallback_edges == sample_store.fallback_edges
    assert again.edge_ids() == sample_store.edge_ids()
    for eid in sample_store.edge_ids():
        assert again.edge_weight(eid) == sample_store.edge_weight(eid)
    assert again.stored_paths() == sample_store.stored_paths()
    for key in sample_store.stored_paths():
        assert again.path_weight(key) == sample_store.path_weight(key)


def test_save_store_is_deterministic(tmp_path, sample_net, sample_records, sample_store):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_store(sample_store, str(a))
    save_store(build_store(sample_net, sample_records, min_support=10), str(b))
    assert a.read_bytes() == b.read_bytes()
    # Round-tripping through load does not change the bytes either.
    c = tmp_path / "c.json"
    save_store(load_store(str(a)), str(c))
    assert a.read_bytes() == c.read_bytes()


def test_built_store_bytes_are_pinned(tmp_path, sample_net, sample_records):
    """The saved bytes of stores built from seeded instances, plain and
    shifted, in both modes and over a range of unit lengths and supports,
    then of the sample store, pinned: a change to how ``build_store``
    counts or divides moves the digest, down to the last bit of a
    probability."""
    digest = hashlib.sha256()
    out = tmp_path / "w.json"
    for seed in range(12):
        net, records = gen_instance(
            seed, nodes=6 + seed % 4, density=0.5, joint_fraction=0.9, min_support=2 + seed % 9
        )
        for recs in (records, conflicting_records(records, random.Random(seed))):
            for mode in Mode:
                for max_unit_len in (2, 3, 4, 8):
                    for min_support in (1, 2, 10):
                        store = build_store(
                            net, recs, min_support=min_support, mode=mode, max_unit_len=max_unit_len
                        )
                        save_store(store, str(out))
                        digest.update(out.read_bytes())
    save_store(build_store(sample_net, sample_records, min_support=10), str(out))
    digest.update(out.read_bytes())
    assert digest.hexdigest() == "f4d4df8ba492a842b6c8770ab902cc7095bc611a7b9a049589d115c18e0fdfa3"


def test_save_store_writes_compact_json(tmp_path, sample_store):
    out = tmp_path / "w.json"
    save_store(sample_store, str(out))
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert ", " not in text and '": ' not in text


def test_load_store_reads_indented_layout(tmp_path, sample_store):
    compact = tmp_path / "compact.json"
    save_store(sample_store, str(compact))
    indented = tmp_path / "indented.json"
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(json.loads(compact.read_text()), fh, sort_keys=True, indent=2)
        fh.write("\n")
    again = load_store(str(indented))
    assert again.edge_ids() == sample_store.edge_ids()
    assert again.stored_paths() == sample_store.stored_paths()
    for key in sample_store.stored_paths():
        assert again.path_weight(key) == sample_store.path_weight(key)
    resaved = tmp_path / "resaved.json"
    save_store(again, str(resaved))
    assert resaved.read_bytes() == compact.read_bytes()


def test_max_stored_len_is_longest_key(tmp_path):
    for seed in range(4):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.8)
        store = build_store(net, records, min_support=10)
        assert store.stored_paths()
        longest = max(len(k) for k in store.stored_paths())
        assert store.max_stored_len == longest
        out = tmp_path / f"w{seed}.json"
        save_store(store, str(out))
        assert load_store(str(out)).max_stored_len == longest
    edge_only = build_store(net, records, mode=Mode.EDGE)
    assert edge_only.stored_paths() == ()
    assert edge_only.max_stored_len == 1


def test_load_store_rejects_bad_documents(tmp_path):
    f = tmp_path / "w.json"
    f.write_text("{ not json")
    with pytest.raises(StoreFormatError):
        load_store(str(f))
    f.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(StoreFormatError):
        load_store(str(f))
    f.write_text(json.dumps({"format": "spotar-weights", "version": 99}))
    with pytest.raises(StoreFormatError):
        load_store(str(f))
    f.write_text(json.dumps({"format": "spotar-weights", "version": 1}))
    with pytest.raises(StoreFormatError):
        load_store(str(f))


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_store_refuses_a_version_that_only_equals_1(tmp_path, sample_store, version):
    """``True == 1 == 1.0`` in Python, but only the integer 1 is version 1."""
    f = tmp_path / "w.json"
    save_store(sample_store, str(f))
    doc = json.loads(f.read_text())
    assert doc["version"] == 1 and type(doc["version"]) is int
    doc["version"] = version
    f.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError, match=f"^unsupported version {version!r}$"):
        load_store(str(f))


@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_leave_gc_as_they_found_it(tmp_path, sample_store, monkeypatch, enabled):
    """The store and trajectory loaders run with the cyclic collector paused
    and leave it as they found it, also when they raise."""
    good = tmp_path / "w.json"
    save_store(sample_store, str(good))
    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["edge_weights"]["e1"] = [[8, 0.8], [10, 0.1]]
    bad.write_text(json.dumps(doc))
    bad_log = tmp_path / "bad.txt"
    bad_log.write_text("1,e1:8;e4:6\n1,e1:8;e9:6\n")
    data = pathlib.Path(__file__).parent / "data"
    during = []
    monkeypatch.setattr(weights_module, "make_path", lambda *a: during.append(gc.isenabled()) or make_path(*a))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_store(str(good))
        assert gc.isenabled() is enabled
        net = load_network(str(data / "sample_network.csv"))
        assert gc.isenabled() is enabled
        with pytest.raises(StoreFormatError, match="edge 'e1': total mass"):
            load_store(str(bad))
        assert gc.isenabled() is enabled
        assert load_trajectories(net, str(data / "sample_trajectories.csv"))
        assert gc.isenabled() is enabled
        with pytest.raises(TrajectoryFormatError, match="line 2"):
            load_trajectories(net, str(bad_log))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)


def _assert_same_store(got, want):
    assert (got.delta, got.min_support, got.max_unit_len, got.mode, got.fallback_edges) == (
        want.delta, want.min_support, want.max_unit_len, want.mode, want.fallback_edges
    )
    assert got.edge_ids() == want.edge_ids()
    assert got.stored_paths() == want.stored_paths()
    assert got.max_stored_len == want.max_stored_len
    for eid in want.edge_ids():
        assert got.edge_weight(eid) == want.edge_weight(eid)
        assert list(got.edge_weight(eid).items()) == list(want.edge_weight(eid).items())
    for key in want.stored_paths():
        assert got.path_weight(key) == want.path_weight(key)
        assert list(got.path_weight(key).rows()) == list(want.path_weight(key).rows())


def test_loaded_objects_equal_public_constructions(tmp_path, sample_store):
    """``load_store`` builds its objects without the public constructors; they
    equal, entry for entry and in the same order, what those constructors
    build from the same entries given in reverse order."""
    stores = [sample_store]
    for seed in range(4):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.8)
        stores += [build_store(net, records, min_support=10), build_store(net, records, mode=Mode.EDGE)]
    assert sum(len(s.stored_paths()) for s in stores) > 20
    for i, store in enumerate(stores):
        out = tmp_path / f"w{i}.json"
        save_store(store, str(out))
        loaded = load_store(str(out))
        for eid in loaded.edge_ids():
            h = loaded.edge_weight(eid)
            public = Histogram(dict(reversed(list(h.items()))))
            assert h == public
            assert list(h.items()) == list(public.items())
        for key in loaded.stored_paths():
            j = loaded.path_weight(key)
            public = JointDist(j.edges, dict(reversed(list(j.rows()))))
            assert j == public
            assert list(j.rows()) == list(public.rows())
        _assert_same_store(loaded, store)


def test_bulk_build_equals_object_by_object_walk(tmp_path, monkeypatch, sample_store):
    """Every store ``save_store`` writes is built by the bulk passes, and the
    walk over one object at a time, which they fall back to, builds the same."""
    from spotar import weights

    stores = [sample_store]
    for seed in range(3):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.8)
        stores.append(build_store(net, records, min_support=10))
    bulk = weights._objects_in_bulk
    built = []
    for i, store in enumerate(stores):
        out = tmp_path / f"w{i}.json"
        save_store(store, str(out))
        monkeypatch.setattr(weights, "_objects_in_bulk", lambda *a: built.append(bulk(*a)) or built[-1])
        fast = load_store(str(out))
        assert built[-1] is not None
        monkeypatch.setattr(weights, "_objects_in_bulk", lambda *a: None)
        _assert_same_store(fast, load_store(str(out)))
        _assert_same_store(fast, store)


def test_load_store_sorts_drops_zeros_and_converts(tmp_path, sample_store):
    """Entries out of order, zero probabilities and integer probabilities
    load as the public constructors would build them."""
    out = tmp_path / "w.json"
    save_store(sample_store, str(out))
    doc = json.loads(out.read_text())
    doc["edge_weights"]["e1"] = [[10, 0.1], [9, 0.0], [8, 0.9]]
    doc["edge_weights"]["e3"] = [[11, 1]]
    doc["path_weights"][0]["rows"] = [[[10, 10], 0.2], [[8, 10], 0], [[8, 6], 0.8]]
    out.write_text(json.dumps(doc))
    loaded = load_store(str(out))
    _assert_same_store(loaded, sample_store)
    assert type(dict(loaded.edge_weight("e3").items())[11]) is float


def test_cost_model_requires_path_weights_for_pace(sample_net, sample_records):
    edge_store = build_store(sample_net, sample_records, mode=Mode.EDGE)
    CostModel(edge_store, Mode.EDGE)
    with pytest.raises(StoreError):
        CostModel(edge_store, Mode.PACE)


def test_cost_model_rejects_a_mode_name(sample_store):
    """A mode name is not a :class:`Mode`; ``Mode.parse`` turns one into it."""
    with pytest.raises(ValueError, match="^mode 'edge' is not a Mode$"):
        CostModel(sample_store, "edge")


# ------------------------------------------------------------- coverings


def test_coarsest_combination_sample(sample_store, sample_net):
    def cover(*ids):
        return [unit for _, unit in _cover(sample_store, ids)]

    assert cover("e1") == [("e1",)]
    assert cover("e1", "e4") == [("e1", "e4")]
    assert cover("e1", "e4", "e9") == [("e1", "e4"), ("e9",)]
    assert cover("e2", "e6", "e9") == [("e2", "e6"), ("e9",)]
    assert cover("e2", "e6", "e7", "e8") == [("e2", "e6"), ("e7",), ("e8",)]
    assert cover("e2", "e3") == [("e2",), ("e3",)]


def unit_store(edge_weights, units):
    """Store with hand-picked stored units."""
    return WeightStore(
        delta=1.0,
        min_support=1,
        max_unit_len=8,
        mode=Mode.PACE,
        edge_weights=edge_weights,
        path_weights={tuple(j.edges): j for j in units},
    )


def fifty_fifty(*times):
    assert len(times) == 2
    return Histogram({times[0]: 0.5, times[1]: 0.5})


def chain_store():
    """Four-edge chain with units A-B, B-C-D, and C-D stored."""
    h = fifty_fifty(1, 2)
    units = [
        JointDist(("A", "B"), {(1, 1): 0.5, (2, 2): 0.5}),
        JointDist(("B", "C", "D"), {(1, 1, 1): 0.5, (2, 2, 2): 0.5}),
        JointDist(("C", "D"), {(1, 1): 0.5, (2, 2): 0.5}),
    ]
    return unit_store({"A": h, "B": h, "C": h, "D": h}, units)


def test_cover_prefers_reach_then_overlap():
    store = chain_store()
    # Both B-C-D and C-D finish the job; the one overlapping the
    # covered prefix wins the tie.
    assert _cover(store, ("A", "B", "C", "D")) == [(0, ("A", "B")), (1, ("B", "C", "D"))]


def test_cover_prefers_longest_unit():
    h = fifty_fifty(1, 2)
    units = [
        JointDist(("A", "B"), {(1, 1): 0.5, (2, 2): 0.5}),
        JointDist(("A", "B", "C"), {(1, 1, 1): 0.5, (2, 2, 2): 0.5}),
    ]
    store = unit_store({"A": h, "B": h, "C": h}, units)
    assert _cover(store, ("A", "B", "C")) == [(0, ("A", "B", "C"))]
    # A unit longer than the remaining path cannot be used.
    assert _cover(store, ("A", "B")) == [(0, ("A", "B"))]


def test_cover_structure_invariants(sample_store):
    for ids in [("e1", "e4", "e9"), ("e2", "e6", "e7", "e8"), ("e2", "e3", "e5", "e8")]:
        units = _cover(sample_store, ids)
        covered = 0
        prev_start = -1
        for s, unit in units:
            assert prev_start < s <= covered  # overlaps stay inside the last unit
            assert ids[s : s + len(unit)] == unit
            assert s + len(unit) > covered
            prev_start = s
            covered = s + len(unit)
        assert covered == len(ids)


def min_units_dp(store, edges):
    """Fewest units that can cover ``edges``, ignoring the greedy order.

    Classic interval-cover dynamic program over (stored units plus
    single edges); a lower bound for any covering the greedy could emit.
    """
    n = len(edges)
    stored = set(store.stored_paths())
    placements = []
    for s in range(n):
        placements.append((s, s + 1))
        for e in range(s + 2, n + 1):
            if edges[s:e] in stored:
                placements.append((s, e))
    best = [0] + [n + 99] * n
    for c in range(n):
        if best[c] > n:
            continue
        for s, e in placements:
            if s <= c < e and best[c] + 1 < best[e]:
                best[e] = best[c] + 1
    return best[n]


def test_cover_uses_fewest_units_possible():
    rng = random.Random(411)
    checked = 0
    for seed in range(12):
        net, records = gen_instance(seed, nodes=7, density=0.35)
        store = build_store(net, records, min_support=10)
        node_ids = list(net.node_ids)
        for _ in range(6):
            src, dst = rng.sample(node_ids, 2)
            paths = enumerate_simple_paths(net, Query(src, dst, 1))  # 7 nodes: at most 6 edges
            for p in paths[:4]:
                units = _cover(store, p.edges)
                assert len(units) == min_units_dp(store, p.edges)
                checked += 1
    assert checked >= 100


def greedy_cover(store, edges):
    """Reference cover: a greedy left-to-right scan of every stored unit.

    Each step considers the stored units that start inside the covered
    prefix, strictly after the previous unit's start, and extend coverage;
    it picks the one reaching furthest, breaking ties toward the larger
    overlap, and falls back to a single edge when no stored unit helps.
    """
    by_first = {}
    for key in store.stored_paths():
        by_first.setdefault(key[0], []).append(key)
    n = len(edges)
    units = []
    covered = 0
    prev_start = -1
    while covered < n:
        best = best_unit = None
        for s in range(prev_start + 1, covered + 1):
            for cand in by_first.get(edges[s], ()):
                end = s + len(cand)
                if end <= covered or end > n or edges[s:end] != cand:
                    continue
                key = (end, covered - s)
                if best is None or key > best:
                    best, best_unit = key, (s, cand)
        if best_unit is None:
            best_unit = (covered, (edges[covered],))
        units.append(best_unit)
        prev_start = best_unit[0]
        covered = best_unit[0] + len(best_unit[1])
    return units


def test_cover_by_extension_equals_greedy_scan():
    """Each extension step turns the prefix's cover into the path's greedy
    cover, on plain and conflicting stores whose longest units span 2 to 5 edges."""
    rng = random.Random(412)
    extensions = replaced = 0
    for seed in range(40):
        net, records = gen_instance(seed, nodes=6 + seed % 5, density=0.5, joint_fraction=0.9)
        for recs in (records, conflicting_records(records, rng)):
            store = build_store(
                net, recs, min_support=(1, 2, 10)[seed % 3], max_unit_len=2 + seed % 4
            )
            for p in random_simple_paths(net, rng, 8):
                units = []
                for n in range(1, len(p.edges) + 1):
                    k, unit = _extend_cover(store, units, p.edges[:n])
                    replaced += k < len(units)
                    units = units[:k] + [unit]
                    assert units == greedy_cover(store, p.edges[:n])
                    extensions += 1
                assert _cover(store, p.edges) == units
    assert extensions >= 3000
    assert replaced >= 500


def test_one_extension_replaces_two_units():
    """With A-B and B-C-D-E stored, A,B,C,D covers as AB|C|D and adding E
    gives AB|BCDE: the new unit replaces two, and AB's step is kept."""
    h = fifty_fifty(1, 2)
    units = [
        JointDist(("A", "B"), {(1, 1): 0.5, (2, 2): 0.5}),
        JointDist(("B", "C", "D", "E"), {(1, 1, 1, 1): 0.5, (2, 2, 2, 2): 0.5}),
    ]
    model = CostModel(unit_store({e: h for e in "ABCDE"}, units), Mode.PACE)
    edges = ("A", "B", "C", "D", "E")
    assert _cover(model.store, edges[:4]) == [(0, ("A", "B")), (2, ("C",)), (3, ("D",))]
    assert _cover(model.store, edges) == [(0, ("A", "B")), (1, ("B", "C", "D", "E"))]
    assert _cover(model.store, edges) == greedy_cover(model.store, edges)
    state = None
    for n in range(1, 6):
        parent = state
        cost, state = extend_cost(model, state, edges[:n])
        assert _derived(cost) == path_cost(model, Path(edges[:n]))
    assert [step[:2] for step in state] == [(0, ("A", "B")), (1, ("B", "C", "D", "E"))]
    assert len(parent) == 3 and state[0] is parent[0]
    approx_dict(cost.items(), {5: 0.5, 10: 0.5}, tol=1e-12)


# ----------------------------------------------------------- path costs


def test_path_cost_edge_mode_convolves(sample_net, edge_model, sample_store):
    got = path_cost(edge_model, Path(("e1", "e4")))
    want = convolve(sample_store.edge_weight("e1"), sample_store.edge_weight("e4"))
    assert got == want
    approx_dict(got.items(), {14: 0.72, 16: 0.08, 18: 0.18, 20: 0.02})


def test_a_first_edge_is_kept_to_its_limit_as_a_longer_path_is():
    """A one-edge cost is the edge's weight convolved onto the empty path's,
    so the mass past the limit is one entry at ``limit + 1``, added from the
    last time down as :func:`convolve` adds it for every longer path.  At
    limits 0 and 1 that sum is not the ``fsum`` of the same probabilities."""
    weight = Histogram({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4})
    model = CostModel(unit_store({"e": weight}, []), Mode.EDGE)

    def kept(limit):
        cost, state = extend_cost(model, None, ("e",), limit)
        assert state is cost
        return [(t, p.hex()) for t, p in cost.items()]

    hexed = lambda *entries: [(t, p.hex()) for t, p in entries]
    assert kept(0) == hexed((1, 0.4 + 0.3 + 0.2 + 0.1)) == [(1, "0x1.fffffffffffffp-1")]
    assert kept(1) == hexed((1, 0.1), (2, 0.4 + 0.3 + 0.2))
    assert kept(1)[1] == (2, "0x1.cccccccccccccp-1")
    assert math.fsum((0.1, 0.2, 0.3, 0.4)) == 1.0
    assert math.fsum((0.2, 0.3, 0.4)).hex() == "0x1.ccccccccccccdp-1"
    assert kept(2) == hexed((1, 0.1), (2, 0.2), (3, 0.4 + 0.3))
    assert kept(3) == hexed((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4))
    assert kept(4) == kept(None) == hexed(*weight.items())
    assert path_cost(model, Path(("e",))) == weight

    # an exact rest: two times past the limit, then only the last one, already at limit + 1
    weight = Histogram({2: 0.25, 5: 0.25, 7: 0.125, 9: 0.375})
    model = CostModel(unit_store({"e": weight}, []), Mode.EDGE)
    assert kept(5) == hexed((2, 0.25), (5, 0.25), (6, 0.5))
    assert kept(1) == hexed((2, 1.0))
    assert kept(8) == kept(9) == kept(12) == hexed(*weight.items())


@pytest.mark.parametrize("mode", list(Mode))
def test_path_cost_refuses_a_path_with_no_edges(mode):
    model = CostModel(unit_store({"e": Histogram({1: 1.0})}, []), mode)
    with pytest.raises(ValueError, match="a path with no edges has no cost"):
        path_cost(model, Path(()))


def test_path_cost_pace_uses_stored_correlation(pace_model):
    got = path_cost(pace_model, Path(("e1", "e4")))
    approx_dict(got.items(), {14: 0.8, 20: 0.2})


def test_path_cost_pace_golden_three_edges(pace_model):
    approx_dict(
        path_cost(pace_model, Path(("e1", "e4", "e9"))).items(),
        {19: 0.32, 23: 0.48, 25: 0.08, 29: 0.12},
    )
    approx_dict(
        path_cost(pace_model, Path(("e2", "e6", "e9"))).items(),
        {18: 0.28, 22: 0.42, 25: 0.12, 29: 0.18},
    )


def overlap_store():
    """Two stored units sharing an edge, with disagreeing marginals."""
    units = [
        JointDist(("e1", "e4"), {(8, 6): 0.8, (10, 10): 0.2}),
        JointDist(("e4", "e9"), {(6, 5): 0.5, (6, 9): 0.3, (10, 9): 0.2}),
    ]
    weights = {
        "e1": Histogram({8: 0.8, 10: 0.2}),
        "e4": Histogram({6: 0.8, 10: 0.2}),
        "e9": Histogram({5: 0.5, 9: 0.5}),
    }
    store = unit_store(weights, units)
    return CostModel(store, Mode.PACE)


def test_fusion_conditions_on_the_overlap():
    model = overlap_store()
    path = Path(("e1", "e4", "e9"))
    assert _cover(model.store, path.edges) == [(0, ("e1", "e4")), (1, ("e4", "e9"))]
    approx_dict(path_cost(model, path).items(), {19: 0.5, 23: 0.3, 29: 0.2}, tol=1e-12)


def test_fusion_renormalizes_partial_matches():
    units = [
        JointDist(("u", "v"), {(1, 2): 0.5, (1, 3): 0.5}),
        JointDist(("v", "w"), {(2, 7): 0.5, (2, 9): 0.5}),
    ]
    weights = {
        "u": Histogram({1: 1.0}),
        "v": Histogram({2: 0.5, 3: 0.5}),
        "w": Histogram({7: 0.5, 9: 0.5}),
    }
    model = CostModel(unit_store(weights, units), Mode.PACE)
    path = Path(("u", "v", "w"))
    # The second unit only covers v=2; the v=3 prefix is dropped and the
    # survivors are renormalized.
    approx_dict(path_cost(model, path).items(), {10: 0.5, 12: 0.5}, tol=1e-12)


def test_fusion_with_no_shared_mass_raises():
    units = [
        JointDist(("u", "v"), {(1, 2): 0.5, (1, 3): 0.5}),
        JointDist(("v", "w"), {(4, 7): 1.0}),
    ]
    weights = {
        "u": Histogram({1: 1.0}),
        "v": Histogram({2: 0.4, 3: 0.4, 4: 0.2}),
        "w": Histogram({7: 1.0}),
    }
    model = CostModel(unit_store(weights, units), Mode.PACE)
    path = Path(("u", "v", "w"))
    with pytest.raises(InconsistentWeightsError):
        path_cost(model, path)


def test_chain_store_cost():
    model = CostModel(chain_store(), Mode.PACE)
    got = path_cost(model, Path(("A", "B", "C", "D")))
    # Perfect correlation through the shared edge: all fast or all slow.
    approx_dict(got.items(), {4: 0.5, 8: 0.5}, tol=1e-12)


def test_path_cost_of_stored_path_is_exactly_its_weight(sample_store, pace_model):
    for key in sample_store.stored_paths():
        by_total = {}
        for row, p in sample_store.path_weight(key).rows():
            by_total[sum(row)] = by_total.get(sum(row), 0.0) + p
        assert path_cost(pace_model, Path(key)) == Histogram(by_total)


def test_path_cost_matches_explicit_joint_on_random_instances():
    rng = random.Random(412)
    checked = 0
    for seed in range(8):
        net, records = gen_instance(seed)
        model = CostModel(build_store(net, records, min_support=10), Mode.PACE)
        node_ids = list(net.node_ids)
        for _ in range(5):
            src, dst = rng.sample(node_ids, 2)
            short = [p for p in enumerate_simple_paths(net, Query(src, dst, 1)) if len(p.edges) <= 5]
            for p in short[:5]:
                approx_dict(path_cost(model, p).items(), joint_cost(model.store, p.edges).items(), tol=1e-12)
                checked += 1
    assert checked >= 80


def random_simple_paths(net, rng, count, max_edges=7):
    """Random walks that never revisit a node, each at least two edges long."""
    node_ids = list(net.node_ids)
    paths = []
    while len(paths) < count:
        cur = rng.choice(node_ids)
        visited = {cur}
        edges = []
        while len(edges) < max_edges:
            options = [e for e in net.out_edges(cur) if e.to_node not in visited]
            if not options:
                break
            e = rng.choice(options)
            edges.append(e.edge_id)
            visited.add(e.to_node)
            cur = e.to_node
        if len(edges) >= 2:
            paths.append(Path(tuple(edges)))
    return paths


def test_extend_cost_along_random_paths():
    """Extending edge by edge equals ``path_cost``; pace costs match the explicit
    joint's (:func:`joint_cost`).

    Short stored units make covers of several overlapping units longer
    than the fold's remembered window.
    """
    rng = random.Random(77)
    for seed in range(12):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.8)
        store = build_store(net, records, min_support=10, max_unit_len=(8, 2, 3)[seed % 3])
        edge, pace = CostModel(store, Mode.EDGE), CostModel(store, Mode.PACE)
        for p in random_simple_paths(net, rng, 10):
            edge_state = pace_state = None
            for k in range(1, len(p.edges) + 1):
                prefix = Path(p.edges[:k])
                edge_cost, edge_state = extend_cost(edge, edge_state, prefix.edges)
                assert edge_cost == path_cost(edge, prefix)
                pace_cost, pace_state = extend_cost(pace, pace_state, prefix.edges)
                approx_dict(pace_cost.items(), joint_cost(store, prefix.edges).items(), tol=MASS_TOL)


def test_resumed_fold_equals_fold_from_scratch():
    """A pace extension resumed from its parent's steps is bit-identical to ``path_cost``:
    the histogram of the per-total times it returns equals ``path_cost``'s.

    Redrawn times make routes disagree on the edges they share, so some
    paths cannot be fused: the extension must raise exactly where the
    from-scratch fold does.  Every extension must keep the parent's
    step objects for the units both covers share and add exactly one
    step, its steps must follow the reference cover, and some extensions
    must complete a stored unit that replaces units of the parent's cover.
    """
    rng = random.Random(5)
    resumed = replaced = inconsistent = 0
    for seed in range(8):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.9)
        for recs in (records, conflicting_records(records, rng)):
            model = CostModel(build_store(net, recs, min_support=10), Mode.PACE)
            for p in random_simple_paths(net, rng, 30):
                state = None
                for k in range(1, len(p.edges) + 1):
                    prefix = Path(p.edges[:k])
                    try:
                        want = path_cost(model, prefix)
                    except InconsistentWeightsError:
                        with pytest.raises(InconsistentWeightsError):
                            extend_cost(model, state, prefix.edges)
                        inconsistent += 1
                        break
                    cost, grown = extend_cost(model, state, prefix.edges)
                    assert type(cost) is dict and 0.0 not in cost.values()
                    assert _derived(cost) == want
                    assert [step[:2] for step in grown] == greedy_cover(model.store, prefix.edges)
                    if state is not None:
                        shared = 0
                        while shared < len(state) and state[shared][:2] == grown[shared][:2]:
                            assert grown[shared] is state[shared]
                            shared += 1
                        assert len(grown) == shared + 1
                        resumed += 1
                        replaced += shared < len(state)
                    state = grown
    assert resumed >= 1000
    assert replaced >= 200
    assert inconsistent >= 20


def reference_fold(store, state, covered, s, unit, window=None):
    """The fold with states keyed ``(done, tail)``: ``done`` is the elapsed
    time of the edges that have left the remembered tail.

    Returns the state after folding the cover unit ``unit`` at index ``s``
    onto ``state``, the state once ``covered`` edges are covered, and
    whether some grown tail dropped more times than the old tail held.
    The tail remembers ``window`` times, by default as many as
    :func:`_fold` remembers.
    """
    if window is None:
        window = store.max_stored_len - 1
    o = covered - s
    cut = max(0, min(window, covered) + len(unit) - o - window)
    if len(unit) == 1:
        rows = [((t,), p) for t, p in store.edge_weight(unit[0]).items()]
    else:
        rows = list(store.path_weight(unit).rows())
    if o:
        groups = {}
        for row, p in rows:
            groups.setdefault(row[:o], []).append((row[o:], p))
        table = {}
        for key, pairs in groups.items():
            mass = 0.0
            for _, p in pairs:
                mass += p
            table[key] = (mass, pairs)
    else:
        table = {(): (1.0, rows)}
    new = {}
    for (done, tail), p in state.items():
        group = table.get(tail[len(tail) - o :])
        if group is None:
            continue
        denom, pairs = group
        for rest, up in pairs:
            grown = tail + rest
            nkey = (done + sum(grown[:cut]), grown[cut:])
            new[nkey] = new.get(nkey, 0.0) + p * up / denom
    if s:
        total = math.fsum(new.values())
        if total <= _FUSE_TOL:
            raise InconsistentWeightsError("no shared mass")
        if abs(total - 1.0) > _FUSE_TOL:
            new = {nkey: p / total for nkey, p in new.items()}
    return new, cut > min(window, covered)


def reference_fold_cost(store, state):
    out = {}
    for (done, tail), p in state.items():
        t = done + sum(tail)
        out[t] = out.get(t, 0.0) + p
    return _derived(out)


def joint_cost(store, edges):
    """Total-time distribution of the explicit joint of ``edges``' times: the
    reference fold over the reference cover, with the whole path as its
    window, so that the tail keeps the time of every edge."""
    state, covered = {(0, ()): 1.0}, 0
    for s, unit in greedy_cover(store, edges):
        state, _ = reference_fold(store, state, covered, s, unit, window=len(edges))
        covered = s + len(unit)
    return reference_fold_cost(store, state)


def test_fold_keyed_by_total_equals_reference_fold():
    """Each fold step equals the ``(done, tail)`` fold with keys mapped to
    ``(done + sum(tail), tail)``: same entries, same order, ``==`` values.

    Paths run over plain stores and stores with shifted times, whose
    longest units span 2, 3, 4 and 8 edges; both folds must raise on the
    same prefixes, and some unit must grow a tail past the whole window.
    """
    rng = random.Random(1010)
    steps_checked = skipped = inconsistent = 0
    for seed in range(24):
        net, records = gen_instance(seed, nodes=7 + seed % 4, density=0.5, joint_fraction=0.9)
        for recs in (records, conflicting_records(records, rng)):
            store = build_store(net, recs, min_support=2, max_unit_len=(2, 3, 4, 8)[seed % 4])
            for p in random_simple_paths(net, rng, 10, max_edges=8):
                steps, ref = (), []
                for n in range(1, len(p.edges) + 1):
                    k, (s, unit) = _extend_cover(store, steps, p.edges[:n])
                    if k:
                        state, covered = ref[k - 1], steps[k - 1][0] + len(steps[k - 1][1])
                    else:
                        state, covered = {(0, ()): 1.0}, 0
                    try:
                        want, grew_past = reference_fold(store, state, covered, s, unit)
                    except InconsistentWeightsError:
                        with pytest.raises(InconsistentWeightsError):
                            _fold(store, steps[:k], s, unit)
                        inconsistent += 1
                        break
                    steps = _fold(store, steps[:k], s, unit)
                    ref[k:] = [want]
                    got = list(steps[-1][2].items())
                    assert got == [((done + sum(tail), tail), q) for (done, tail), q in want.items()]
                    assert _derived(_fold_times(steps)) == reference_fold_cost(store, want)
                    steps_checked += 1
                    skipped += grew_past
    assert steps_checked >= 2000
    assert skipped >= 150
    assert inconsistent >= 20


def assert_times_read_as_their_histogram(times):
    """The solver's reads of per-total times equal the sorted histogram's,
    bit for bit, at every time from below the minimum to past the maximum."""
    hist = _derived(times)
    assert 0.0 not in times.values()
    assert min(times) == min_cost(hist)
    for t in range(min(times) - 1, max(times) + 2):
        assert times_cdf(times, t).hex() == hist.cdf(t).hex()


def test_per_total_times_read_as_their_histogram():
    """``times_cdf`` and the smallest total of the per-total times that
    ``extend_cost`` returns equal ``Histogram.cdf`` and ``min_cost`` of
    their histogram, on random paths and where a total underflows to 0.

    The underflow store has two edges whose slowest and fastest times
    have probability 1e-200, so the fold's products at totals 2 and 18
    underflow to ``0.0``; both totals must be dropped, which moves the
    minimum to 6 and the time at which the ``cdf`` is exactly 1 to 14.
    """
    tiny = {1: 1e-200, 5: 1.0, 9: 1e-200}
    model = CostModel(unit_store({"a": Histogram(tiny), "b": Histogram(tiny)}, []), Mode.PACE)
    times, state = extend_cost(model, extend_cost(model, None, ("a",))[1], ("a", "b"))
    assert [p for (total, _), p in state[-1][2].items() if total in (2, 18)] == [0.0, 0.0]
    assert sorted(times) == [6, 10, 14]
    assert times == _fold_times(state)
    assert [times_cdf(times, t) for t in (5, 6, 14)] == [0.0, 2e-200, 1.0]
    assert_times_read_as_their_histogram(times)
    # a hand-built state whose smallest and largest totals carry no mass
    steps = ((0, ("a", "b"), {(7, (3, 4)): 0.25, (2, (1, 1)): 0.0, (5, (2, 3)): 0.75, (9, (4, 5)): 0.0}),)
    assert _fold_times(steps) == {7: 0.25, 5: 0.75}
    assert_times_read_as_their_histogram(_fold_times(steps))

    rng = random.Random(2024)
    checked = 0
    for seed in range(10):
        net, records = gen_instance(seed, nodes=8, density=0.6, joint_fraction=0.9, min_support=2)
        for recs in (records, conflicting_records(records, rng)):
            model = CostModel(build_store(net, recs, min_support=2, max_unit_len=2 + seed % 3), Mode.PACE)
            for p in random_simple_paths(net, rng, 10):
                state = None
                for n in range(1, len(p.edges) + 1):
                    try:
                        times, state = extend_cost(model, state, p.edges[:n])
                    except InconsistentWeightsError:
                        break
                    assert_times_read_as_their_histogram(times)
                    checked += 1
    assert checked >= 500


def test_settled_prefix_extends_by_an_independent_suffix():
    """A settled prefix's extensions cost the prefix convolved with the suffix alone.

    This is what makes pace dominance between settled labels sound: two
    settled labels at one node reach the same continuation through the
    same suffix distribution.  A prefix is settled when no suffix of it
    is a proper prefix of a stored key, and some prefixes must be
    unsettled.
    """
    rng = random.Random(41)
    counts = {True: 0, False: 0}
    for seed in range(12):
        net, records = gen_instance(seed, nodes=10, density=0.6, joint_fraction=0.8)
        store = build_store(net, records, min_support=10, max_unit_len=(4, 2, 3)[seed % 3])
        model = CostModel(store, Mode.PACE)
        open_prefixes = {key[:j] for key in store.stored_paths() for j in range(1, len(key))}
        for p in random_simple_paths(net, rng, 10):
            for n in range(1, len(p.edges)):
                head = p.edges[:n]
                settled = all(head[s:] not in open_prefixes for s in range(n))
                counts[settled] += 1
                if settled:
                    joined = convolve(path_cost(model, Path(head)), path_cost(model, Path(p.edges[n:])))
                    approx_dict(path_cost(model, p).items(), joined.items(), tol=1e-12)
    assert counts[True] and counts[False]
