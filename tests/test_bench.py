"""Tests for the benchmark harness."""

from __future__ import annotations

import dataclasses

import pytest

from spotar.bench import (
    AGG_FIELDS,
    DEFAULT_BUCKETS,
    DEFAULT_BUDGETS,
    METHODS,
    BenchConfig,
    BenchConfigError,
    BenchRow,
    aggregate,
    gen_queries,
    load_config,
    parse_config,
    read_rows,
    run_bench,
    write_aggregates,
    write_rows,
)
from spotar.oracle import gen_instance
from spotar.weights import build_store


@pytest.fixture(scope="module")
def bench_instance():
    net, records = gen_instance(42, nodes=12, density=0.3)
    store = build_store(net, records, min_support=10)
    return net, store


BENCH_CFG = BenchConfig(
    budgets=(120, 180, 260),
    buckets=((0.0, 0.26), (0.26, 0.53)),
    queries_per_cell=4,
    seed=5,
)


@pytest.fixture(scope="module")
def bench_rows(bench_instance):
    net, store = bench_instance
    return run_bench(net, store, BENCH_CFG)


# --------------------------------------------------------- configuration


def test_default_config():
    cfg = BenchConfig()
    assert cfg.budgets == DEFAULT_BUDGETS == (300, 500, 700, 1000)
    assert cfg.buckets == DEFAULT_BUCKETS == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
    assert cfg.queries_per_cell == 5
    assert set(cfg.methods) == set(METHODS) == {"sp+pace", "sp+edge", "ba+pace", "ba+edge"}
    assert cfg.seed == 0


def test_parse_config_full():
    cfg = parse_config(
        """
        # sweep description
        budgets = 100, 200
        buckets = 0-0.5, 0.5-1.5
        queries_per_cell = 3
        methods = sp+pace, ba+pace
        seed = 9
        """
    )
    assert cfg.budgets == (100, 200)
    assert cfg.buckets == ((0.0, 0.5), (0.5, 1.5))
    assert cfg.queries_per_cell == 3
    assert cfg.methods == ("sp+pace", "ba+pace")
    assert cfg.seed == 9


def test_parse_config_partial_keeps_defaults():
    cfg = parse_config("seed = 4\n")
    assert cfg.seed == 4
    assert cfg.budgets == DEFAULT_BUDGETS
    assert cfg.methods == tuple(METHODS)


@pytest.mark.parametrize(
    "text",
    [
        "budgets 100",
        "budgets = ",
        "budgets = 100, x",
        "budgets = 0",
        "buckets = 1km",
        "buckets = 2-1",
        "queries_per_cell = 0",
        "methods = sp+magic",
        "colour = blue",
    ],
)
def test_parse_config_rejects_bad_input(text):
    with pytest.raises(BenchConfigError):
        parse_config(text)


def test_load_config(tmp_path):
    f = tmp_path / "bench.cfg"
    f.write_text("budgets = 50\nqueries_per_cell = 1\n")
    cfg = load_config(str(f))
    assert cfg.budgets == (50,)
    assert cfg.queries_per_cell == 1


# -------------------------------------------------------------- queries


def test_gen_queries_structure(bench_instance):
    net, _ = bench_instance
    queries = gen_queries(net, BENCH_CFG)
    assert len(queries) == 3 * 2 * 4
    for bq in queries:
        assert bq.budget in BENCH_CFG.budgets
        km = net.distance_m(bq.query.source, bq.query.dest) / 1000.0
        assert bq.bucket_lo <= km < bq.bucket_hi
        assert bq.query.budget == bq.budget
    cells = {(bq.budget, bq.bucket_lo, bq.query_id) for bq in queries}
    assert len(cells) == len(queries)


def test_gen_queries_deterministic(bench_instance):
    net, _ = bench_instance
    assert gen_queries(net, BENCH_CFG) == gen_queries(net, BENCH_CFG)


def test_gen_queries_unsatisfiable_bucket(bench_instance):
    net, _ = bench_instance
    cfg = dataclasses.replace(BENCH_CFG, buckets=((5.0, 6.0),))
    with pytest.raises(BenchConfigError):
        gen_queries(net, cfg)


# ----------------------------------------------------------------- runs


def test_run_bench_row_counts(bench_rows):
    assert len(bench_rows) == 96
    per_method = {}
    for row in bench_rows:
        per_method[row.method] = per_method.get(row.method, 0) + 1
    assert per_method == {m: 24 for m in METHODS}


def test_run_bench_row_invariants(bench_rows):
    outcomes = {"zero": 0, "partial": 0, "sure": 0}
    for row in bench_rows:
        assert 0.0 <= row.probability <= 1.0 + 1e-12
        assert (row.path_edges == 0) == (row.probability == 0.0)
        assert row.explored_edges >= 0
        assert row.expanded_labels >= 0
        assert row.wall_time_s >= 0.0
        if row.probability == 0.0:
            outcomes["zero"] += 1
        elif row.probability < 0.999:
            outcomes["partial"] += 1
        else:
            outcomes["sure"] += 1
    # The frozen scenario exercises all three outcome shapes.
    assert all(v > 0 for v in outcomes.values()), outcomes


def test_run_bench_heuristics_agree_on_probability(bench_rows):
    by_key = {(r.method, r.budget, r.bucket_lo, r.query_id): r for r in bench_rows}
    compared = 0
    for (method, budget, lo, qid), row in by_key.items():
        if not method.startswith("sp+"):
            continue
        twin = by_key["ba" + method[2:], budget, lo, qid]
        assert twin.probability == pytest.approx(row.probability, abs=1e-9)
        assert row.explored_edges <= twin.explored_edges
        compared += 1
    assert compared == 48


def test_run_bench_deterministic_modulo_wall_time(bench_instance, bench_rows):
    net, store = bench_instance
    again = run_bench(net, store, BENCH_CFG)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    assert [strip(r) for r in again] == [strip(r) for r in bench_rows]


# ------------------------------------------------------------------ csv


def test_write_read_rows_round_trip(tmp_path, bench_rows):
    f = tmp_path / "rows.csv"
    write_rows(bench_rows, str(f))
    header = f.read_text().splitlines()[0]
    assert header == "method,budget,bucket_lo,bucket_hi,query_id,probability,wall_time_s,explored_edges,expanded_labels,path_edges"
    back = read_rows(str(f))
    assert len(back) == len(bench_rows)
    for a, b in zip(back, bench_rows):
        assert a.method == b.method
        assert a.budget == b.budget
        assert (a.bucket_lo, a.bucket_hi) == (b.bucket_lo, b.bucket_hi)
        assert a.query_id == b.query_id
        assert a.probability == pytest.approx(b.probability, abs=1e-9)
        assert a.explored_edges == b.explored_edges
        assert a.expanded_labels == b.expanded_labels
        assert a.path_edges == b.path_edges


def test_row_csv_stable_across_runs(tmp_path, bench_instance, bench_rows):
    net, store = bench_instance
    strip = lambda rows: [dataclasses.replace(r, wall_time_s=0.0) for r in rows]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_rows(strip(bench_rows), str(a))
    write_rows(strip(run_bench(net, store, BENCH_CFG)), str(b))
    assert a.read_bytes() == b.read_bytes()


def agg_fixture_rows():
    def row(method, budget, prob, explored, expanded):
        return BenchRow(
            method=method,
            budget=budget,
            bucket_lo=0.0,
            bucket_hi=1.0,
            query_id=0,
            probability=prob,
            wall_time_s=0.5,
            explored_edges=explored,
            expanded_labels=expanded,
            path_edges=3,
        )

    return [
        row("sp+pace", 10, 0.5, 4, 2),
        row("sp+pace", 10, 0.7, 6, 4),
        row("sp+pace", 20, 1.0, 2, 1),
        row("ba+pace", 10, 0.5, 8, 5),
    ]


def test_aggregate_means():
    aggs = aggregate(agg_fixture_rows())
    assert len(aggs) == 3
    first = aggs[0]
    assert first.method == "sp+pace"
    assert first.budget == 10
    assert first.queries == 2
    assert first.mean_probability == pytest.approx(0.6, abs=1e-12)
    assert first.mean_explored_edges == pytest.approx(5.0, abs=1e-12)
    assert first.mean_expanded_labels == pytest.approx(3.0, abs=1e-12)
    assert first.mean_wall_time_s == pytest.approx(0.5, abs=1e-12)


def test_write_aggregates(tmp_path):
    f = tmp_path / "agg.csv"
    write_aggregates(agg_fixture_rows(), str(f))
    lines = f.read_text().splitlines()
    assert lines[0] == ",".join(AGG_FIELDS)
    assert len(lines) == 4
    assert lines[1].startswith("sp+pace,10,0,1,2,0.6,")
