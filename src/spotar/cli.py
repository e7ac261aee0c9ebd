"""Command-line interface.

Subcommands: ``build`` turns a network plus trajectories into a weight
store, ``query`` answers one routing question, ``bench`` sweeps budgets
and distance buckets, and ``verify`` cross-checks the search against
brute force on generated instances.

Exit codes: 0 on success (including a no-path answer and an empty
verification), 1 on usage or input errors, 2 when verification finds a
mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .dist import format_histogram
from .heuristic import HeuristicKind
from .network import Network, Query, load_network
from .oracle import EnumerationLimitError, verify_instances
from .solver import solve
from .weights import (
    CostModel,
    Mode,
    StoreError,
    WeightStore,
    build_store,
    load_store,
    load_trajectories,
    path_cost,
    save_store,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spotar", description="Reliable routing under travel-time uncertainty")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[], help="aggregate trajectories into a weight store")
    p.add_argument("--network", required=True, help="network CSV file")
    p.add_argument("--trajectories", required=True, help="trajectory text file")
    p.add_argument("--out", required=True, help="where to write the store (JSON)")
    p.add_argument("--delta", type=float, default=1.0, help="seconds per time unit (default 1)")
    p.add_argument("--min-support", type=int, default=10, help="trips needed to store a sub-path")
    p.add_argument("--mode", default="pace", help="edge or pace (default pace)")
    p.add_argument("--max-unit-len", type=int, default=8, help="longest stored sub-path, in edges")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="most reliable path for one trip")
    p.add_argument("--network", required=True)
    p.add_argument("--store", required=True, help="weight store written by build")
    p.add_argument("--source", required=True)
    p.add_argument("--dest", required=True)
    p.add_argument("--budget", type=int, required=True,
                   help="time budget in the store's time units (delta seconds each, set by build --delta)")
    p.add_argument("--heuristic", default="sp",
                   help="sp (minimum-time tree) or ba (straight line at the store's fastest crow-flight speed)")
    p.add_argument("--mode", default=None, help="edge or pace (default: the store's mode)")
    p.add_argument("--dump-dist", action="store_true", help="also print the answer's travel-time distribution")
    p.add_argument("--dump-explored", metavar="FILE", help="write explored edge ids, one per line")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="sweep budgets and distance buckets")
    p.add_argument("--network", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--config", help="bench config file (key = value)")
    p.add_argument("--out", required=True, help="per-query row CSV")
    p.add_argument("--agg", help="per-cell aggregate CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="cross-check the search against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--joint-fraction", type=float, default=0.5)
    p.add_argument("--min-support", type=int, default=10)
    p.add_argument("--max-unit-len", type=int, default=8, help="longest stored sub-path, in edges")
    p.set_defaults(func=cmd_verify)
    return parser


def cmd_build(args: argparse.Namespace) -> int:
    net = load_network(args.network, delta=args.delta)
    records = load_trajectories(net, args.trajectories)
    if not records:
        print("warning: no trajectories; all edges use speed-limit fallback", file=sys.stderr)
    store = build_store(
        net,
        records,
        min_support=args.min_support,
        mode=Mode.parse(args.mode),
        max_unit_len=args.max_unit_len,
    )
    save_store(store, args.out)
    measured = len(store.edge_ids()) - len(store.fallback_edges)
    print(f"network: {net.num_nodes()} nodes, {net.num_edges()} edges")
    print(f"trajectories: {len(records)} records, {sum(r.count for r in records)} traversals")
    print(f"edge weights: {measured} measured, {len(store.fallback_edges)} fallback")
    print(f"path weights: {len(store.stored_paths())} stored (min support {store.min_support})")
    print(f"store written to {args.out}")
    return 0


def _load_store_and_network(args: argparse.Namespace) -> tuple[WeightStore, Network]:
    """Load ``--store`` and ``--network``, the network on the store's grid,
    and check that the store was built for it, naming both files."""
    store = load_store(args.store)
    net = load_network(args.network, delta=store.delta)
    try:
        store._fit(net)
    except StoreError as exc:
        raise StoreError(f"store {args.store} was not built for network {args.network}: {exc}") from None
    return store, net


def cmd_query(args: argparse.Namespace) -> int:
    store, net = _load_store_and_network(args)
    mode = Mode.parse(args.mode) if args.mode else store.mode
    model = CostModel(store, mode)
    query = Query(args.source, args.dest, args.budget)
    result = solve(net, model, HeuristicKind.parse(args.heuristic), query)
    if result.path is None:
        print("path NONE")
        print("probability 0")
    else:
        print(f"path {','.join(result.path.edges)}")
        print(f"probability {result.probability:.12g}")
    print(f"explored_edges {result.explored_edges}")
    print(f"expanded_labels {result.expanded_labels}")
    print(f"wall_time_s {result.wall_time_s:.6f}")
    if args.dump_dist and result.path is not None:
        print(format_histogram(path_cost(model, result.path)))
    if args.dump_explored:
        with open(args.dump_explored, "w", encoding="utf-8") as fh:
            for eid in sorted(result.explored_edge_ids):
                fh.write(eid + "\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    store, net = _load_store_and_network(args)
    cfg = bench_mod.load_config(args.config) if args.config else bench_mod.BenchConfig()
    rows = bench_mod.run_bench(net, store, cfg)
    bench_mod.write_rows(rows, args.out)
    print(f"{len(rows)} rows written to {args.out}")
    if args.agg:
        bench_mod.write_aggregates(rows, args.agg)
        print(f"aggregates written to {args.agg}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 1:
        print("warning: no instances to verify", file=sys.stderr)
        return 0
    cases = verify_instances(
        args.seed,
        args.instances,
        nodes=args.nodes,
        density=args.density,
        joint_fraction=args.joint_fraction,
        min_support=args.min_support,
        max_unit_len=args.max_unit_len,
    )
    mismatches = 0
    for case in cases:
        verdict = "ok" if case.match else "MISMATCH"
        if not case.match:
            mismatches += 1
        print(
            f"seed={case.instance_seed} mode={case.mode.value} heuristic={case.heuristic.value} "
            f"query={case.query.source}->{case.query.dest}@{case.query.budget} "
            f"solver={case.solver_prob:.9f} oracle={case.oracle_prob:.9f} {verdict}"
        )
    print(f"checked {len(cases)} cases: {len(cases) - mismatches} ok, {mismatches} mismatches")
    return 2 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
