"""City-scale SPOTAR benchmark: one workload, one seed, one closed-loop client.

    python3 citybench/run.py --workload city-pace --seed 1 --seconds 30 --trace 0

Workloads (see README.md):

* ``city-pace`` -- one operation is one ``solve`` under ``Mode.PACE``; every
  query is solved with both the ``sp`` and the ``ba`` bound.
* ``city-edge`` -- the same network and queries under ``Mode.EDGE`` on a
  store built without joints.
* ``cli-cold`` -- one operation is one ``spotar query`` as the command
  line runs it after interpreter start (load store, load network, solve,
  print), on a pace store built from a larger log of short trips.

This process generates the inputs from the seed, sets up once, checks
the store, and answers every query once with each bound, untimed, and
checks the answers.  Then it starts ``measure.py``, which sets up again
(timed, several times), repeats whole rounds of the checked operations
until ``--seconds`` have passed and must give the checked answers in
every round.  A query's latency is the median over rounds of its times
at reference speed (see ``measure.py``).  With
``--trace 1`` the measured process runs two untraced rounds and one
traced round instead and reports per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checker
import gen
import measure
import repro

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("city-pace", "city-edge", "cli-cold")
SETUP_REPEATS = 7
IWE = measure.IWE
PRIORITY = "pace-priority"
DOMINANCE = "pace-dominance"
FAULTS = {
    IWE: "solve lets InconsistentWeightsError escape, so one extension whose stored "
    "units share no overlap mass aborts the whole query (spotar query exits 1)",
    PRIORITY: "pace-mode priority cdf(budget - node_min) is not an upper bound on "
    "extensions, so the incumbent purge or the stopping rule drops a better path",
    DOMINANCE: "dominance compares total times only, but a pace-mode extension depends "
    "on the label's last edges, so a label whose extension is better is removed",
}
BenchError = measure.BenchError


def read_queries(path: str) -> list[tuple[str, str, int, str]]:
    """Queries as ``(source, dest, budget, cell)``, in file order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            source, dest, budget, bucket, klass = line.strip().split(",")
            out.append((source, dest, int(budget), f"{bucket}-{klass}"))
    return out


class Bench:
    def __init__(self, spotar, workload: str, seed: int, work: str) -> None:
        self.spotar = spotar
        self.workload = workload
        self.seed = seed
        self.work = work
        self.use_cli = workload == "cli-cold"
        self.mode = "edge" if workload == "city-edge" else "pace"
        self.files = {name: os.path.join(work, name) for name in ("network.csv", "trajectories.txt", "store.json")}
        self.ops = measure.Ops(spotar)
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.skipped: dict[str, int] = {}

    def check_store(self, store) -> None:
        """The store against the checker's count of the log, and its own round trip."""
        weights = self.spotar.weights
        cnet = checker.read_network(self.files["network.csv"])
        cstore = checker.read_store(self.files["store.json"])
        counts = checker.count_log(self.files["trajectories.txt"], cstore.delta)
        self.problems += checker.check_edge_weights(cnet, cstore, counts, sorted(cnet.edges))
        again = os.path.join(self.work, "store-again.json")
        twice = os.path.join(self.work, "store-twice.json")
        loaded = weights.load_store(self.files["store.json"])
        weights.save_store(loaded, again)
        weights.save_store(store, twice)
        blobs = []
        for path in (self.files["store.json"], again, twice):
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        if not blobs[0] == blobs[1] == blobs[2]:
            self.problems.append("save_store output differs between saves or after a load")
        same = (
            loaded.edge_ids() == store.edge_ids()
            and all(loaded.edge_weight(e) == store.edge_weight(e) for e in store.edge_ids())
            and loaded.stored_paths() == store.stored_paths()
            and all(loaded.path_weight(k) == store.path_weight(k) for k in store.stored_paths())
            and loaded.fallback_edges == store.fallback_edges
        )
        if not same:
            self.problems.append("load_store(save_store(s)) does not reproduce s")
        self.cnet, self.cstore = cnet, cstore

    # ------------------------------------------------------------ operations

    def spec(self, kind: str, heuristic: str, source: str, dest: str, budget: int,
             files: dict[str, str] | None = None, prefix: str = "") -> dict:
        """One operation as ``measure.Ops.make`` takes it."""
        return {"name": f"{prefix}{source}->{dest}@{budget}/{heuristic}", "kind": kind, "mode": self.mode,
                "files": files or self.files, "heuristic": heuristic, "source": source, "dest": dest,
                "budget": budget, "expected": None, "fault": None}

    def answer(self, spec: dict):
        op = self.ops.make(spec)
        return op.read(op.run())

    def pick_queries(self, per_cell: int) -> list[dict]:
        """Warm-up and answer check: the first ``per_cell`` queries of each cell.

        Both bounds' operations of a query run once untimed; each answer is
        checked on its own and against the other.  A query that shows the
        signature of a known fault is left out and counted by fault, and the
        next query of its cell takes its place, so every seed gives the same
        number of operations and failed operations are the same share of
        every run.  Any other wrong answer is a problem.
        """
        kind = "query" if self.use_cli else "solve"
        taken: dict[str, int] = {}
        specs: list[dict] = []
        candidates = read_queries(os.path.join(self.work, "queries.txt"))
        for source, dest, budget, cell in candidates:
            if taken.get(cell, 0) == per_cell:
                continue
            pair = [self.spec(kind, h, source, dest, budget) for h in ("sp", "ba")]
            answers = [self.answer(s) for s in pair]
            fault = self.known_fault(pair, answers)
            if fault is not None:
                self.skipped[fault] = self.skipped.get(fault, 0) + 1
                continue
            for s, ans in zip(pair, answers):
                s["expected"] = ans
            specs += pair
            taken[cell] = taken.get(cell, 0) + 1
        short = sorted({c[3] for c in candidates if taken.get(c[3], 0) < per_cell})
        if short:
            raise BenchError(f"too few answerable queries in cells {short}")
        return specs

    def known_fault(self, pair: list[dict], answers: list) -> str | None:
        """The known fault one query's pair of answers shows, if any; other faults are problems."""
        q = pair[0]
        args = (self.cnet, self.cstore, self.mode, q["source"], q["dest"], q["budget"])
        scored = []
        hit = None
        for s, ans in zip(pair, answers):
            if isinstance(ans, str):
                if ans in FAULTS:  # the exception itself is the signature
                    hit = ans
                else:
                    self.problems.append(f"{s['name']}: {ans}")
                continue
            problem, score = checker.answer_problem(*args, checker.Answer(*ans))
            if problem:
                self.problems.append(f"{s['name']}: {problem}")
            scored.append((score, s, ans))
        if hit is not None or len(scored) < 2:
            return hit
        (low, low_spec, low_ans), (high, _, high_ans) = sorted(scored, key=lambda x: x[0])
        if high - low <= checker.TOL:
            return None
        fault, why = self.lost_by(low_spec, low_ans, high_ans[0], high)
        if fault is None:
            self.problems.append(f"{q['name'][:-3]}: {low_spec['heuristic']} scores {low!r}, "
                                 f"the other bound {high!r}; {why}")
        return fault

    def lost_by(self, low_spec: dict, low_ans: list, better: list[str], better_score: float) -> tuple[str | None, str]:
        """Which known fault made the ``low_spec`` search miss path ``better``: ``(fault, "")`` or ``(None, why)``.

        Re-solves the query in this process and reads the transcript.  Only
        pace mode has such faults.  Their signatures, for the prefixes of
        ``better``:

        * pace-dominance: the search removed a prefix for dominance,
          although its completion ``better`` beats the answer;
        * pace-priority: the search queued a prefix with a priority below
          ``better_score``, so the priority did not bound its extensions,
          and lost that label to the incumbent purge or the stopping rule:
          it was never expanded and never removed for dominance.

        Anything else, such as an expanded prefix whose extension was not
        kept, is not a known fault.
        """
        if low_spec["mode"] != "pace":
            return None, "no known edge-mode fault splits the bounds"
        res = self.ops.make(dict(low_spec, kind="solve")).run()
        # the command line prints 12 significant digits
        if res == IWE or (list(res.path.edges) if res.path else None) != low_ans[0] \
                or abs(res.probability - low_ans[1]) > checker.TOL:
            return None, "re-solving gave another answer"
        pushed, expanded, dominated = {}, set(), set()
        for ev in res.transcript:
            if ev.kind == "push":
                pushed[ev.path] = ev.value
            elif ev.kind == "pop":
                expanded.add(ev.path)
            elif ev.kind in ("dominated-drop", "dominated-out"):
                dominated.add(ev.path)
        prefixes = [tuple(better[:k]) for k in range(1, len(better))]
        if any(p in dominated for p in prefixes):
            return DOMINANCE, ""
        deepest = None
        for p in prefixes:
            if p not in pushed:
                break
            deepest = p
        if deepest is None:
            return None, "the better path's first edge was never queued"
        if deepest in expanded:
            return None, f"{','.join(deepest)} was expanded but its extension was not kept"
        if pushed[deepest] >= better_score - checker.TOL:
            return None, f"{','.join(deepest)} was lost although its priority bounds the better path"
        return PRIORITY, ""

    def repro_ops(self) -> list[dict]:
        """This workload's fixed reproducers: checked once here, and failing every round.

        Each reproducer's optimum comes from enumerating every simple path,
        and a lower answer must show its case's fault signature.
        """
        cases = {"city-pace": (repro.PRIORITY, repro.DOMINANCE), "cli-cold": (repro.INCONSISTENT,)}
        specs = []
        for case in cases.get(self.workload, ()):
            name = f"repro-{case['fault']}"
            files = dict(zip(("network.csv", "trajectories.txt"), repro.write(case, os.path.join(self.work, name))))
            files["store.json"] = os.path.join(self.work, name, "store.json")
            measure.build(self.spotar, files)
            source, dest, budget = case["query"]
            cnet, cstore = checker.read_network(files["network.csv"]), checker.read_store(files["store.json"])
            best, best_path = checker.best_by_enumeration(cnet, cstore, "pace", source, dest, budget)
            for h in ("sp",) if self.use_cli else ("sp", "ba"):
                s = self.spec("query" if self.use_cli else "solve", h, source, dest, budget, files, name + ":")
                s["mode"] = "pace"
                ans = s["expected"] = self.answer(s)
                specs.append(s)
                if isinstance(ans, str):
                    fault, why = ans, ans
                else:
                    problem, score = checker.answer_problem(cnet, cstore, "pace", source, dest, budget,
                                                            checker.Answer(*ans))
                    if problem:
                        self.problems.append(f"{s['name']}: {problem}")
                    if problem or score >= best - checker.TOL:
                        continue
                    fault, why = self.lost_by(s, ans, list(best_path), best)
                if fault == case["fault"]:
                    s["fault"] = fault
                else:
                    self.problems.append(f"{s['name']}: expected {case['fault']}, got {why}")
        return specs

    def prepare(self) -> list[dict]:
        """Generate inputs, set up once, check the store and pick the operations."""
        city, log, _ = gen.generate(self.workload, self.seed, self.work)
        fixed = self.repro_ops()
        net, store = measure.setup(self.spotar, self.workload, self.files)
        if self.use_cli:
            store = self.spotar.weights.load_store(self.files["store.json"])
        else:
            self.ops.add_model(self.files, self.mode, net, store)
        self.check_store(store)
        self.notes.append(
            f"inputs: {len(city.nodes)} nodes, {len(city.edges)} edges, {len(log)} trajectory records "
            f"({sum(c for c, _ in log)} trips), {len(store.stored_paths())} stored sub-paths, "
            f"{self.store_mb():.3f} MiB store"
        )
        ops = self.pick_queries(gen.SPECS[self.workload].queries_per_cell)
        skipped = ", ".join(f"{k} {v}" for k, v in sorted(self.skipped.items())) or "none"
        self.notes.append(f"queries: {len(ops) // 2} used, left out for known faults: {skipped}")
        return ops + fixed

    def store_mb(self) -> float:
        return os.path.getsize(self.files["store.json"]) / 2**20


def run_measured(bench: Bench, ops: list[dict], args) -> dict:
    """Time the operations in a fresh process (``measure.py``) and return what it reports."""
    spec = {"src": SRC, "workload": bench.workload, "mode": bench.mode, "files": bench.files,
            "setup_repeats": SETUP_REPEATS, "trace": args.trace, "seconds": args.seconds, "ops": ops}
    path = os.path.join(bench.work, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), path],
                              stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("measure.py did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"measure.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def times(per_op: list[list[float]], setups: list[float], ops: list[dict]) -> dict:
    """The time metrics from each operation's times over rounds and the set-up times."""
    medians = [statistics.median(t) for t in per_op]
    lat = [m * 1e3 for m, op in zip(medians, ops) if op["fault"] is None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        # operations per second when each takes its median time, which a slow spell in one round barely moves
        "queries_per_s": (len(ops) / sum(medians), "1/s"),
    }


def measure_run(bench: Bench, args) -> dict:
    ops = bench.prepare()
    got = run_measured(bench, ops, args)
    bench.problems += got["problems"]
    rounds = got["rounds"]
    if args.trace:
        metrics = {k: tuple(v) for k, v in got["layers"].items()}
        if got["missing"]:
            bench.notes.append(f"missing (no longer in spotar): {', '.join(got['missing'])}")
    else:
        metrics = {**times(got["times"], got["setups"], ops),
                   "peak_rss_mb": (got["peak_rss_mb"], "MB"),
                   "store_mb": (bench.store_mb(), "MB")}
        raw = times(got["raw_times"], got["raw_setups"], ops)
        bench.notes.append("wall-clock times, not at reference speed: " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    failing = [op for op in ops if op["fault"] is not None]
    bench.notes.append(f"rounds: {rounds} of {len(ops)} operations")
    for op in failing:
        bench.notes.append(f"fails every round: {op['name']}: {op['fault']}: {FAULTS[op['fault']]}")
    return {
        "correct": not bench.problems,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="City-scale SPOTAR benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spotar", "__init__.py")):
        print(f"error: the spotar sources are not at {SRC}", file=sys.stderr)
        return 2
    spotar = measure.load_spotar(SRC)
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    bench = Bench(spotar, args.workload, args.seed, work)
    try:
        result = measure_run(bench, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}")
    for note in bench.notes:
        print(note)
    for problem in bench.problems[:20]:
        print(f"WRONG: {problem}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
