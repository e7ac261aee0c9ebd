"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import spotar.cli
import spotar.dist
import spotar.oracle
from spotar.cli import main
from spotar.weights import Mode, load_store

DATA = pathlib.Path(__file__).parent / "data"
NETWORK = str(DATA / "sample_network.csv")
TRAJECTORIES = str(DATA / "sample_trajectories.csv")


@pytest.fixture(scope="module")
def store_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("store") / "weights.json"
    rc = main(["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out)])
    assert rc == 0
    return str(out)


def run_query(store_file, *extra):
    argv = [
        "query",
        "--network",
        NETWORK,
        "--store",
        store_file,
        "--source",
        "s",
        "--dest",
        "d",
        *extra,
    ]
    return main(argv)


# ---------------------------------------------------------------- build


def test_build_summary(tmp_path, capsys):
    out = tmp_path / "weights.json"
    rc = main(["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "network: 6 nodes, 9 edges",
        "trajectories: 10 records, 255 traversals",
        "edge weights: 6 measured, 3 fallback",
        "path weights: 2 stored (min support 10)",
        f"store written to {out}",
    ]
    store = load_store(str(out))
    assert store.mode is Mode.PACE
    assert set(store.stored_paths()) == {("e1", "e4"), ("e2", "e6")}


def test_build_edge_mode_and_min_support(tmp_path, capsys):
    out = tmp_path / "weights.json"
    rc = main(
        [
            "build",
            "--network",
            NETWORK,
            "--trajectories",
            TRAJECTORIES,
            "--out",
            str(out),
            "--mode",
            "edge",
            "--min-support",
            "3",
        ]
    )
    assert rc == 0
    assert "path weights: 0 stored (min support 3)" in capsys.readouterr().out
    assert load_store(str(out)).mode is Mode.EDGE


def test_build_empty_trajectories_warns(tmp_path, capsys):
    empty = tmp_path / "none.csv"
    empty.write_text("# nothing observed\n")
    out = tmp_path / "weights.json"
    rc = main(["build", "--network", NETWORK, "--trajectories", str(empty), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning: no trajectories" in captured.err
    assert "edge weights: 0 measured, 9 fallback" in captured.out


def test_build_bad_inputs_exit_1(tmp_path, capsys):
    out = tmp_path / "weights.json"
    rc = main(["build", "--network", "missing.csv", "--trajectories", TRAJECTORIES, "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(
        [
            "build",
            "--network",
            NETWORK,
            "--trajectories",
            TRAJECTORIES,
            "--out",
            str(out),
            "--mode",
            "wrong",
        ]
    )
    assert rc == 1


# ---------------------------------------------------------------- query


def test_query_golden(store_file, capsys):
    rc = run_query(store_file, "--budget", "22")
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path e2,e6,e9"
    assert lines[1] == "probability 0.7"
    assert lines[2] == "explored_edges 5"
    assert lines[3] == "expanded_labels 4"
    assert lines[4].startswith("wall_time_s 0.")


def test_query_no_path(store_file, capsys):
    rc = run_query(store_file, "--budget", "15")
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path NONE"
    assert lines[1] == "probability 0"
    assert lines[2] == "explored_edges 0"


def test_query_edge_mode(store_file, capsys):
    rc = run_query(store_file, "--budget", "22", "--mode", "edge")
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path e2,e6,e9"
    assert lines[1] == "probability 0.388"


def test_query_straight_line_heuristic(store_file, capsys):
    rc = run_query(store_file, "--budget", "22", "--heuristic", "ba")
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path e2,e6,e9"
    assert lines[1] == "probability 0.7"
    assert lines[2] == "explored_edges 6"


def test_query_on_the_store_grid(tmp_path, capsys):
    """``query`` loads the network at the store's ``delta``, so a store
    built at 60 seconds per unit is searched on that grid."""
    out = tmp_path / "coarse.json"
    argv = ["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out)]
    assert main([*argv, "--delta", "60"]) == 0
    capsys.readouterr()
    assert run_query(str(out), "--budget", "3") == 0
    assert capsys.readouterr().out.splitlines()[0] == "path e1,e4,e9"


def test_query_dump_dist(store_file, capsys):
    rc = run_query(store_file, "--budget", "22", "--dump-dist")
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[5:] == ["18:0.28", "22:0.42", "25:0.12", "29:0.18"]


def test_query_dump_explored(store_file, tmp_path, capsys):
    target = tmp_path / "explored.txt"
    rc = run_query(store_file, "--budget", "22", "--dump-explored", str(target))
    assert rc == 0
    capsys.readouterr()
    assert target.read_text().splitlines() == ["e1", "e2", "e4", "e6", "e9"]


def test_query_errors(store_file, capsys):
    assert run_query(store_file, "--budget", "22", "--source", "zz") == 1
    assert "error:" in capsys.readouterr().err
    assert run_query(store_file, "--budget", "0") == 1
    assert run_query(store_file, "--budget", "22", "--heuristic", "warp") == 1


def test_store_for_another_network_is_rejected(store_file, tmp_path, capsys):
    """``query`` and ``bench`` refuse a store whose edge ids differ from the network's."""
    other = tmp_path / "other.csv"
    other.write_text(pathlib.Path(NETWORK).read_text().replace("e9,q,d", "e10,q,d"))
    for argv in (
        ["query", "--source", "s", "--dest", "d", "--budget", "22"],
        ["bench", "--out", str(tmp_path / "rows.csv")],
    ):
        assert main([*argv, "--network", str(other), "--store", store_file]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: store {store_file} was not built for network {other}: "
            "1 network edges have no weight (first 'e10'); "
            "1 stored edges are not in the network (first 'e9')"
        ]


def test_usage_errors(capsys):
    assert main(["query", "--network", NETWORK]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


# ---------------------------------------------------------------- bench


def test_bench_writes_rows_and_aggregates(store_file, tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "budgets = 18, 22\nbuckets = 0-0.05\nqueries_per_cell = 2\nmethods = sp+pace, ba+pace\nseed = 1\n"
    )
    rows_csv = tmp_path / "rows.csv"
    agg_csv = tmp_path / "agg.csv"
    rc = main(
        [
            "bench",
            "--network",
            NETWORK,
            "--store",
            store_file,
            "--config",
            str(cfg),
            "--out",
            str(rows_csv),
            "--agg",
            str(agg_csv),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"8 rows written to {rows_csv}" in out
    assert f"aggregates written to {agg_csv}" in out
    with open(rows_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["method"] for r in rows} == {"sp+pace", "ba+pace"}
    assert agg_csv.read_text().splitlines()[0].startswith("method,budget,")


BENCH_SWEEP = "budgets = 18, 22\nbuckets = 0-0.05\nqueries_per_cell = 2\nseed = 1\n"


def run_bench_cli(store, tmp_path, config_text):
    """``spotar bench`` on the sample network with ``config_text``: its exit
    code, and its rows without their wall times, or ``None`` when it wrote none."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config_text)
    rows_csv = tmp_path / "rows.csv"
    rows_csv.unlink(missing_ok=True)
    rc = main(["bench", "--network", NETWORK, "--store", store, "--config", str(cfg), "--out", str(rows_csv)])
    rows = None
    if rows_csv.exists():
        with open(rows_csv, newline="", encoding="utf-8") as fh:
            rows = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in csv.DictReader(fh)]
    return rc, rows


@pytest.fixture(scope="module")
def edge_store_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("edge-store") / "weights.json"
    argv = ["build", "--network", NETWORK, "--trajectories", TRAJECTORIES, "--out", str(out), "--mode", "edge"]
    assert main(argv) == 0
    return str(out)


def test_bench_on_an_edge_store_runs_the_edge_methods(edge_store_file, tmp_path, capsys):
    """With ``methods`` omitted, a store built with ``--mode edge`` runs the two
    methods it can evaluate, each on every query."""
    capsys.readouterr()
    rc, rows = run_bench_cli(edge_store_file, tmp_path, BENCH_SWEEP)
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [f"8 rows written to {tmp_path / 'rows.csv'}"]
    assert [r["method"] for r in rows] == ["sp+edge"] * 4 + ["ba+edge"] * 4


def test_bench_refuses_a_named_pace_method_on_an_edge_store(edge_store_file, tmp_path, capsys):
    capsys.readouterr()
    rc, rows = run_bench_cli(edge_store_file, tmp_path, BENCH_SWEEP + "methods = sp+edge, ba+pace\n")
    assert rc == 1
    assert rows is None
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: store was built without path weights; cannot evaluate in pace mode"
    ]
    assert captured.out == ""


def test_bench_on_a_pace_store_runs_every_method(store_file, tmp_path, capsys):
    """With ``methods`` omitted, a pace store's output is that of all four named."""
    rc, omitted = run_bench_cli(store_file, tmp_path, BENCH_SWEEP)
    assert rc == 0
    every = "methods = sp+pace, sp+edge, ba+pace, ba+edge\n"
    rc, named = run_bench_cli(store_file, tmp_path, BENCH_SWEEP + every)
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"16 rows written to {tmp_path / 'rows.csv'}"] * 2
    assert omitted == named
    assert [r["method"] for r in omitted[::4]] == ["sp+pace", "sp+edge", "ba+pace", "ba+edge"]


def test_bench_on_a_one_node_network(tmp_path, capsys):
    """With one node there is no query to draw."""
    network = tmp_path / "one.csv"
    network.write_text("#nodes\nn1,57.0,9.9\n#edges\n")
    log = tmp_path / "none.txt"
    log.write_text("")
    store = tmp_path / "weights.json"
    assert main(["build", "--network", str(network), "--trajectories", str(log), "--out", str(store)]) == 0
    capsys.readouterr()
    argv = ["bench", "--network", str(network), "--store", str(store), "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: network has fewer than 2 nodes"]
    assert captured.out == ""


def test_bench_bad_config(store_file, tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("budgets = nope\n")
    rc = main(
        [
            "bench",
            "--network",
            NETWORK,
            "--store",
            store_file,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "rows.csv"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------- verify


def test_verify_reports_ok(capsys):
    rc = main(["verify", "--seed", "0", "--instances", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13  # 3 instances x 4 method combos + summary
    assert lines[0].startswith("seed=0 mode=pace heuristic=sp query=")
    assert all(line.endswith(" ok") for line in lines[:-1])
    assert lines[-1] == "checked 12 cases: 12 ok, 0 mismatches"


# The four runs of the CI workflow's brute-force steps, with the sha256 of
# their output: any change to an answer, or to how one is printed, moves one.
CI_VERIFY_RUNS = [
    (
        "--seed 0 --instances 200",
        "654765d0fcfb815462d4b5e6f5cd5845b6b8734e79514268a63a774c717156a0",
    ),
    (
        "--seed 1 --instances 200 --joint-fraction 0.9 --min-support 2",
        "ec4c6bcad03782a68cf95c2156d7ed91b5f4b5019631d8f14213ca44fb495491",
    ),
    (
        "--seed 1 --instances 200 --joint-fraction 0.9 --min-support 2 --max-unit-len 3",
        "12271d938c5c11bc90fd66d8492d18af3450fecbc509d614816d71958c538698",
    ),
    (
        "--seed 2 --instances 200 --nodes 10 --density 0.6",
        "bcb6580decb1f62ef73ce22cddfb330d2dbd90f6e9b53c7abf212538a0e52100",
    ),
    (
        "--seed 3 --instances 200 --nodes 10 --density 0.6 --joint-fraction 0.9 --min-support 2",
        "c644ffb4c0bcf4aa268411012eedfd821d92312b41436ed9786d838e7f3624e0",
    ),
]


def test_ci_runs_exactly_the_pinned_verify_commands():
    """The workflow's ``verify`` steps and ``CI_VERIFY_RUNS`` list the same runs, in order."""
    workflow = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    runs = re.findall(r"python -m spotar\.cli verify (.+)$", workflow.read_text(), re.MULTILINE)
    assert runs == [args for args, _ in CI_VERIFY_RUNS]


@pytest.mark.parametrize(
    "args, digest",
    CI_VERIFY_RUNS,
    ids=["default", "dense", "dense-short-units", "dense-network", "dense-network-dense-store"],
)
def test_ci_verify_output_is_pinned(capsys, args, digest):
    assert main(["verify", *args.split()]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "checked 800 cases: 800 ok, 0 mismatches"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_zero_instances(capsys):
    rc = main(["verify", "--instances", "0"])
    assert rc == 0
    assert "warning: no instances" in capsys.readouterr().err


def test_verify_passes_max_unit_len_to_the_store(monkeypatch, capsys):
    real = spotar.oracle.build_store
    spans = []

    def build(*args, **kwargs):
        spans.append(kwargs["max_unit_len"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spotar.oracle, "build_store", build)
    argv = ["verify", "--seed", "1", "--instances", "2", "--joint-fraction", "0.9", "--min-support", "2"]
    assert main(argv) == 0
    assert main(argv + ["--max-unit-len", "3"]) == 0
    assert spans == [8, 8, 3, 3]
    assert capsys.readouterr().out.splitlines()[-1] == "checked 8 cases: 8 ok, 0 mismatches"
    assert main(argv + ["--max-unit-len", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: max_unit_len 1 is not an integer of at least 2")


def test_verify_detects_mutation(monkeypatch, capsys):
    real = spotar.dist.dominates
    monkeypatch.setattr(spotar.dist, "dominates", lambda a, b: real(b, a))
    rc = main(["verify", "--seed", "0", "--instances", "20"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "0 mismatches" not in out.splitlines()[-1]


# ------------------------------------------------------------ packaging


def run_module(*argv):
    """``python -m spotar.cli`` in a new process, importing this package."""
    src = str(pathlib.Path(spotar.cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "spotar.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_module_entry_point(store_file, tmp_path):
    proc = run_module(
        "query", "--network", NETWORK, "--store", store_file, "--source", "s", "--dest", "d", "--budget", "22"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "path e2,e6,e9"


def test_module_entry_point_returns_the_exit_code():
    proc = run_module("verify", "--instances", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "checked 8 cases: 8 ok, 0 mismatches"
    proc = run_module("verify", "--bogus")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("usage error:")
