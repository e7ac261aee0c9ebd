"""Acceptance checks for the routing engine.

Every test here certifies one release criterion end to end and prints a
single ``PASS``/``FAIL`` line (run ``pytest tests/test_acceptance.py -v -s``
to see them).  Checks are collected first and asserted last, so the
verdict line is emitted even when a criterion fails.
"""

from __future__ import annotations

import collections
import csv
import math
import random
import time

from _util import mc_arrival_prob, rand_hist

from spotar.bench import BenchConfig, ROW_FIELDS, run_bench
from spotar.cli import main
from spotar.dist import Histogram, convolve, dominates, min_cost
from spotar.heuristic import HeuristicKind, StraightLineBound, build_min_tree
from spotar.network import Query, make_path
from spotar.oracle import enumerate_simple_paths, gen_instance, verify_instances
from spotar.solver import solve
from spotar.weights import CostModel, Mode, build_store, path_cost

TOL = 1e-9


def check(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def verdict(name: str, problems: list[str]) -> None:
    if problems:
        print(f"FAIL {name}: " + "; ".join(problems))
    else:
        print(f"PASS {name}")
    assert not problems, f"{name}: " + "; ".join(problems)


def close(h: Histogram, expected: dict[int, float], tol: float = TOL) -> bool:
    got = dict(h.items())
    return got.keys() == expected.keys() and all(abs(got[t] - p) <= tol for t, p in expected.items())


def test_reference_query_returns_reliable_path(sample_net, pace_model):
    """Budget-22 query on the sample network: answer, runner-up, speed."""
    problems: list[str] = []
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    check(problems, res.path is not None and res.path.edges == ("e2", "e6", "e9"), f"path {res.path}")
    check(problems, abs(res.probability - 0.70) <= TOL, f"probability {res.probability}")
    incumbents = [(e.path, e.value) for e in res.transcript if e.kind == "incumbent"]
    runner_up = [v for p, v in incumbents if p == ("e1", "e4", "e9")]
    check(problems, len(runner_up) == 1, f"incumbents {incumbents}")
    if runner_up:
        check(problems, abs(runner_up[0] - 0.32) <= TOL, f"runner-up prob {runner_up[0]}")
    check(problems, res.wall_time_s < 1.0, f"wall time {res.wall_time_s}")
    verdict("golden-query", problems)


def test_distribution_goldens_match_hand_calculations(sample_net, sample_store, pace_model):
    """Convolution, fused path costs, arrival bounds, dominance."""
    problems: list[str] = []

    got = convolve(Histogram({8: 0.9, 10: 0.1}), Histogram({8: 0.8, 10: 0.2}))
    check(problems, close(got, {16: 0.72, 18: 0.26, 20: 0.02}), f"convolve {dict(got.items())}")

    upper = path_cost(pace_model, make_path(sample_net, ("e1", "e4", "e9")))
    check(
        problems,
        close(upper, {19: 0.32, 23: 0.48, 25: 0.08, 29: 0.12}),
        f"upper-route cost {dict(upper.items())}",
    )
    lower = path_cost(pace_model, make_path(sample_net, ("e2", "e6", "e9")))
    check(
        problems,
        close(lower, {18: 0.28, 22: 0.42, 25: 0.12, 29: 0.18}),
        f"lower-route cost {dict(lower.items())}",
    )

    tree = build_min_tree(sample_net, sample_store, "d", 22)
    cases = [
        (("e1", "e4"), tree.get_min("q"), 0.80),
        (("e2", "e6"), tree.get_min("q"), 0.70),
        (("e1",), tree.get_min("e"), 1.0),
    ]
    for path, node_min, want in cases:
        got_p = path_cost(pace_model, make_path(sample_net, path)).cdf(22 - node_min)
        check(problems, abs(got_p - want) <= TOL, f"priority of {path} = {got_p}, want {want}")

    a = Histogram({14: 0.8, 20: 0.2})
    b = Histogram({13: 0.7, 20: 0.3})
    check(problems, not dominates(a, b) and not dominates(b, a), "pair should be incomparable")
    verdict("hand-goldens", problems)


def test_search_prunes_exactly_the_hopeless_extensions(sample_net, pace_model):
    """The two doomed detours are cut by integer bound checks, no label built."""
    problems: list[str] = []
    res = solve(sample_net, pace_model, HeuristicKind.SP, Query("s", "d", 22))
    pruned = {e.edge: e for e in res.transcript if e.kind == "prune"}

    check(problems, "e5" in pruned, "no prune event for e5")
    if "e5" in pruned:
        ev = pruned["e5"]
        check(
            problems,
            ev.path_min + ev.ik_min == 16 and ev.node_min == 8 and 16 + 8 > 22,
            f"e5 bound {ev.path_min}+{ev.ik_min}+{ev.node_min}",
        )
    check(problems, "e3" in pruned, "no prune event for e3")
    if "e3" in pruned:
        ev = pruned["e3"]
        check(
            problems,
            (ev.path_min, ev.ik_min, ev.node_min) == (8, 11, 11) and (8 + 11) + 11 > 22,
            f"e3 bound {ev.path_min}+{ev.ik_min}+{ev.node_min}",
        )
    verdict("pruning-transcript", problems)


def test_solver_matches_brute_force_on_random_instances():
    """100 instances x 4 method combos against exhaustive enumeration."""
    problems: list[str] = []
    started = time.perf_counter()
    cases = verify_instances(0, 100)
    elapsed = time.perf_counter() - started
    check(problems, len(cases) == 400, f"expected 400 cases, got {len(cases)}")
    bad = [c for c in cases if not c.match]
    for c in bad[:5]:
        problems.append(
            f"seed {c.instance_seed} {c.mode.value}/{c.heuristic.value}: "
            f"solver {c.solver_prob:.12f} vs oracle {c.oracle_prob:.12f}"
        )
    if len(bad) > 5:
        problems.append(f"...and {len(bad) - 5} more mismatches")
    check(problems, elapsed < 60.0, f"took {elapsed:.1f}s")
    verdict("oracle-equivalence", problems)


def test_path_model_matches_observed_totals_where_edges_do_not(
    sample_net, sample_records, pace_model, edge_model
):
    """Fused joints reproduce measured totals exactly; independence cannot."""
    problems: list[str] = []
    totals: collections.Counter[int] = collections.Counter()
    for rec in sample_records:
        if rec.path.edges == ("e1", "e4"):
            totals[sum(rec.times)] += rec.count
    n = sum(totals.values())
    empirical = Histogram({t: c / n for t, c in totals.items()})

    route = make_path(sample_net, ("e1", "e4"))
    joint_cost = path_cost(pace_model, route)
    check(problems, joint_cost == empirical, f"{dict(joint_cost.items())} != {dict(empirical.items())}")

    edge_cost = dict(path_cost(edge_model, route).items())
    observed = dict(empirical.items())
    l1 = sum(abs(edge_cost.get(t, 0.0) - observed.get(t, 0.0)) for t in edge_cost.keys() | observed.keys())
    check(problems, l1 > 0.0, "independent model should not match correlated data")
    for phantom in (16, 18):
        check(
            problems,
            edge_cost.get(phantom, 0.0) > 0.0 and observed.get(phantom, 0.0) == 0.0,
            f"expected phantom mass at {phantom}",
        )
    verdict("ground-truth-alignment", problems)


def test_lower_bounds_hold_and_tighter_bound_explores_less():
    """Both bounds never exceed the true minimum; the tree bound searches less."""
    problems: list[str] = []

    compared = 0
    for seed in range(10):
        net, recs = gen_instance(seed)
        store = build_store(net, recs, min_support=10)
        nodes = sorted(net.node_ids)
        rng = random.Random(600 + seed)
        while compared < (seed + 1) * 100:
            node, dest = rng.sample(nodes, 2)
            budget = rng.randint(5, 150)
            true_min = min(
                sum(min_cost(store.edge_weight(e)) for e in path.edges)
                for path in enumerate_simple_paths(net, Query(node, dest, budget))
            )
            tree_min = build_min_tree(net, store, dest, budget).get_min(node)
            if tree_min is None:
                check(problems, true_min > budget, f"seed {seed}: dropped reachable node {node}")
                continue
            ba_min = StraightLineBound(net, store, dest).get_min(node)
            check(problems, tree_min <= true_min, f"seed {seed}: tree {tree_min} > true {true_min}")
            check(problems, ba_min <= tree_min, f"seed {seed}: crow {ba_min} > tree {tree_min}")
            compared += 1
    check(problems, compared == 1000, f"only {compared} bound comparisons")

    net, recs = gen_instance(42, nodes=12, density=0.3)
    store = build_store(net, recs, min_support=10)
    cfg = BenchConfig(
        budgets=(120, 180, 260), buckets=((0.0, 0.26), (0.26, 0.53)), queries_per_cell=4, seed=5
    )
    rows = run_bench(net, store, cfg)
    by_key = {(r.method, r.budget, r.bucket_lo, r.query_id): r for r in rows}
    pairs = 0
    for (method, budget, lo, qid), sp_row in by_key.items():
        if not method.startswith("sp+"):
            continue
        ba_row = by_key[("ba" + method[2:], budget, lo, qid)]
        check(
            problems,
            sp_row.explored_edges <= ba_row.explored_edges,
            f"{method} query {qid}@{budget}: {sp_row.explored_edges} > {ba_row.explored_edges}",
        )
        pairs += 1
    check(problems, pairs == len(rows) // 2, f"only {pairs} benchmark pairs")
    verdict("heuristic-bounds", problems)


def test_distribution_algebra_invariants(sample_net, pace_model):
    """Mass conservation, convolution laws, MC check."""
    problems: list[str] = []
    rng = random.Random(77)

    chain, _ = rand_hist(rng)
    for _ in range(200):
        step, _ = rand_hist(rng)
        chain = convolve(chain, step)
    drift = abs(math.fsum(p for _, p in chain.items()) - 1.0)
    check(problems, drift <= TOL, f"mass drift {drift} after 200 convolutions")

    for _ in range(100):
        a, _ = rand_hist(rng)
        b, _ = rand_hist(rng)
        c, _ = rand_hist(rng)
        check(problems, close(convolve(a, b), dict(convolve(b, a).items()), 1e-12), "not commutative")
        check(
            problems,
            close(convolve(convolve(a, b), c), dict(convolve(a, convolve(b, c)).items()), 1e-12),
            "not associative",
        )

    n = 100_000
    route = make_path(sample_net, ("e1", "e4", "e9"))
    want = path_cost(pace_model, route).cdf(23)
    got = mc_arrival_prob(pace_model, route, 23, n, random.Random(7))
    sigma = (want * (1.0 - want) / n) ** 0.5
    check(
        problems,
        abs(got - want) <= 3.0 * sigma,
        f"monte-carlo {got} vs exact {want} (3 sigma = {3.0 * sigma:.5f})",
    )
    verdict("algebra-invariants", problems)


def test_benchmark_output_is_deterministic(tmp_path, capsys):
    """Two benchmark runs with one seed emit identical rows, timing aside."""
    problems: list[str] = []
    store_path = tmp_path / "weights.json"
    data = __file__.rsplit("/", 1)[0] + "/data"
    rc = main(
        [
            "build",
            "--network",
            f"{data}/sample_network.csv",
            "--trajectories",
            f"{data}/sample_trajectories.csv",
            "--out",
            str(store_path),
        ]
    )
    check(problems, rc == 0, "store build failed")
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text("budgets = 18, 22\nbuckets = 0-0.05\nqueries_per_cell = 3\nseed = 2\n")

    outputs: list[list[list[str]]] = []
    drop = ROW_FIELDS.index("wall_time_s")
    for run in ("first", "second"):
        out_csv = tmp_path / f"{run}.csv"
        rc = main(
            [
                "bench",
                "--network",
                f"{data}/sample_network.csv",
                "--store",
                str(store_path),
                "--config",
                str(cfg_path),
                "--out",
                str(out_csv),
            ]
        )
        check(problems, rc == 0, f"{run} bench run failed")
        with open(out_csv, newline="") as fh:
            outputs.append([row[:drop] + row[drop + 1 :] for row in csv.reader(fh)])
    capsys.readouterr()
    check(problems, len(outputs[0]) == 25, f"expected 24 rows + header, got {len(outputs[0]) - 1}")
    check(problems, outputs[0] == outputs[1], "benchmark rows differ between runs")
    verdict("bench-determinism", problems)
