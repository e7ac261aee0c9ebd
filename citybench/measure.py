"""The measured process of the city benchmark, and the ``spotar`` calls it times.

    python3 citybench/measure.py SPEC.json

``run.py`` generates the inputs, checks the program's answers and picks
the operations; then it starts this script to time them.  So the process
whose peak memory is reported holds ``spotar``, its inputs and the
timings, but no generator and no checker.  The spec (written by
``run.py``) names the workload, its files, the operations with the
answers ``run.py`` checked, the length of the run and whether to trace.

This process sets up ``setup_repeats`` times (once, traced, with
``trace``), then repeats whole rounds, at least ``MIN_ROUNDS``, and
stops at the round boundary nearest to ``seconds``.  With ``trace`` it
runs ``MIN_ROUNDS`` untraced rounds and one traced round instead.  Every
round must repeat the checked answers.  There is no untimed warm-up
round: ``run.py`` has answered every operation once already, and a
query's latency is the median of its rounds, which leaves out a slow
first round.  The last line of standard output is one JSON object: the
set-up times, every operation's time per round, the number of rounds,
any answers that differed, the peak resident set, and with ``trace``
the per-layer metrics.

It reports every time twice: as measured, and at reference speed.  The
speed of pure Python on a shared host can wander by a factor of two for
spells of seconds to minutes, so measured times of two runs of the same
code can differ by more than a change to the program would move them.
``Speed`` times a fixed piece of pure-Python work (``reference_work``,
about 0.8 ms) every ``SAMPLE_EVERY`` seconds while the operations run,
and around each set-up.  A time at reference speed is the measured time
scaled by ``REFERENCE_S`` over the reference's median time in the
samples nearest to it: what the time would have been had the machine
run the reference in ``REFERENCE_S``.  The samples cost about 2 % of the
run.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import tracer

MIN_ROUNDS = 2
MIN_SUPPORT = 10
CITY_UNIT_LEN = 4  # longest stored sub-path for the city stores, in edges
IWE = "inconsistent-weights"
REFERENCE_S = 0.0008  # the reference work's time at reference speed
SAMPLE_EVERY = 0.05  # seconds between speed samples while operations run
NEAREST = 4  # speed samples taken on each side of a measured time


class BenchError(Exception):
    """The benchmark cannot run: missing sources or unusable inputs."""


def load_spotar(src: str):
    sys.path.insert(0, src)
    for name in ("cli", "heuristic", "network", "solver", "weights"):
        importlib.import_module("spotar." + name)
    return sys.modules["spotar"]


def cli_call(spotar, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spotar.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build(spotar, files: dict[str, str]) -> None:
    """``spotar build`` through the command line's entry point."""
    code, _out, err = cli_call(spotar, [
        "build", "--network", files["network.csv"], "--trajectories", files["trajectories.txt"],
        "--out", files["store.json"], "--min-support", str(MIN_SUPPORT)])
    if code != 0:
        raise BenchError(f"spotar build exited {code}: {err.strip()}")


def setup(spotar, workload: str, files: dict[str, str]):
    """What happens before the first query can be answered; returns (network, store), or Nones for the CLI."""
    net_mod, weights = spotar.network, spotar.weights
    if workload == "cli-cold":
        build(spotar, files)
        return None, None
    mode = weights.Mode.EDGE if workload == "city-edge" else weights.Mode.PACE
    net = net_mod.load_network(files["network.csv"])
    records = weights.load_trajectories(net, files["trajectories.txt"])
    store = weights.build_store(net, records, min_support=MIN_SUPPORT, mode=mode, max_unit_len=CITY_UNIT_LEN)
    weights.save_store(store, files["store.json"])
    return net, weights.load_store(files["store.json"])


REFERENCE_DOC = json.dumps({"paths": [
    {"key": [f"e{i}", f"e{i + 1}"], "times": [[t, 1.0 / (t + 1)] for t in range(12)]} for i in range(24)]})


def reference_work() -> float:
    """Fixed work of the kinds the program does: a histogram convolution,
    string-keyed dictionary lookups, and parsing a small store-like JSON
    document into normalised histograms, as loading a store does."""
    a = [1.0 / (i + 1) for i in range(120)]
    b = [0.25, 0.5, 0.25] * 8
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    index = {f"e{i}": (i, i * 0.5) for i in range(96)}
    total = 0.0
    for k in range(1024):
        total += index.get(f"e{k % 128}", (0, 0.0))[1]
    built = []
    for path in json.loads(REFERENCE_DOC)["paths"]:
        probs = {int(t): float(p) for t, p in path["times"]}
        mass = sum(probs.values())
        built.append((tuple(path["key"]), {t: p / mass for t, p in probs.items()}))
    return sum(out) + total + len(built)


class Speed:
    """Samples of the reference work's time, taken while the operations run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Sample if ``SAMPLE_EVERY`` seconds have passed since the last sample."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY:
            self.sample()

    def scale(self, at: float) -> float:
        """``REFERENCE_S`` over the median of the ``2 * NEAREST`` samples nearest to time ``at``."""
        i = bisect.bisect_left(self.starts, at)
        lo = max(0, min(i - NEAREST, len(self.seconds) - 2 * NEAREST))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + 2 * NEAREST])


@dataclass
class Op:
    """One operation: a callable and a reader of its result.

    ``read`` gives ``[edges or None, probability]``, or the name of the
    known fault the operation hit, or any other error as text.
    """

    name: str
    run: Callable[[], object]
    read: Callable[[object], list | str]
    times: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)


class Ops:
    """Builds operations from their specs, loading each network and store once."""

    def __init__(self, spotar) -> None:
        self.spotar = spotar
        self.models: dict[tuple[str, str], tuple[object, object]] = {}

    def add_model(self, files: dict[str, str], mode: str, net, store) -> None:
        self.models[files["store.json"], mode] = (net, self.spotar.weights.CostModel(store, self.spotar.weights.Mode(mode)))

    def model(self, files: dict[str, str], mode: str):
        key = (files["store.json"], mode)
        if key not in self.models:
            net = self.spotar.network.load_network(files["network.csv"])
            self.add_model(files, mode, net, self.spotar.weights.load_store(files["store.json"]))
        return self.models[key]

    def make(self, spec: dict) -> Op:
        """``spec``: name, kind (solve or query), mode, files, heuristic, source, dest, budget."""
        if spec["kind"] == "query":
            return self.query_op(spec)
        spotar = self.spotar
        net, model = self.model(spec["files"], spec["mode"])
        kind = spotar.heuristic.HeuristicKind.parse(spec["heuristic"])
        query = spotar.network.Query(spec["source"], spec["dest"], spec["budget"])

        def call():
            try:
                return spotar.solver.solve(net, model, kind, query)
            except spotar.weights.InconsistentWeightsError:
                return IWE

        def read(res):
            if res == IWE:
                return IWE
            return [list(res.path.edges) if res.path is not None else None, res.probability]

        return Op(spec["name"], call, read)

    def query_op(self, spec: dict) -> Op:
        files = spec["files"]
        argv = ["query", "--network", files["network.csv"], "--store", files["store.json"],
                "--source", spec["source"], "--dest", spec["dest"], "--budget", str(spec["budget"]),
                "--heuristic", spec["heuristic"]]

        def read(res):
            code, out, err = res
            if code != 0:
                return IWE if "share no mass" in err else f"exit {code}: {err.strip()}"
            fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
            path = None if fields["path"] == "NONE" else fields["path"].split(",")
            return [path, float(fields["probability"])]

        return Op(spec["name"], lambda: cli_call(self.spotar, argv), read)


def run_round(ops: list[Op], expected: list, problems: list[str], speed: Speed) -> None:
    """One timed pass over every op, sampling the speed between ops."""
    for op, want in zip(ops, expected):
        speed.tick()
        t0 = time.perf_counter()
        res = op.run()
        op.times.append(time.perf_counter() - t0)
        op.starts.append(t0)
        got = op.read(res)
        if got != want:
            problems.append(f"{op.name}: answered {got}, checked answer {want}")


def at_speed(op: Op, speed: Speed, rounds: range) -> list[float]:
    """The op's times in ``rounds`` at reference speed."""
    return [op.times[r] * speed.scale(op.starts[r]) for r in rounds]


def timed_setup(spotar, workload: str, files: dict[str, str], speed: Speed):
    """Set up once between speed samples; returns (network, store, raw seconds, seconds at reference speed)."""
    for _ in range(NEAREST):
        speed.sample()
    t0 = time.perf_counter()
    net, store = setup(spotar, workload, files)
    took = time.perf_counter() - t0
    for _ in range(NEAREST):
        speed.sample()
    return net, store, took, took * speed.scale(t0 + took / 2)


def measure(spec: dict) -> dict:
    spotar = load_spotar(spec["src"])
    files, workload = spec["files"], spec["workload"]
    tr = tracer.Tracer() if spec["trace"] else None
    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(1 if tr else spec["setup_repeats"]):
        if tr:
            tr.install()
        net, store, raw, scaled = timed_setup(spotar, workload, files, speed)
        raw_setups.append(raw)
        setups.append(scaled)
        if tr:
            tr.uninstall()
    ops_maker = Ops(spotar)
    if net is not None:
        ops_maker.add_model(files, spec["mode"], net, store)
    ops = [ops_maker.make(o) for o in spec["ops"]]
    expected = [o["expected"] for o in spec["ops"]]
    problems: list[str] = []
    gc.collect()
    rounds = 0
    t_start = time.perf_counter()
    spent = 0.0
    # stop at the round boundary nearest to ``seconds``
    while rounds < MIN_ROUNDS or (not tr and spent + spent / rounds / 2 < spec["seconds"]):
        run_round(ops, expected, problems, speed)
        rounds += 1
        spent = time.perf_counter() - t_start
    for _ in range(NEAREST):
        speed.sample()
    times = [at_speed(op, speed, range(rounds)) for op in ops]
    raw_times = [list(op.times) for op in ops]
    layers, missing = None, []
    if tr:
        plain = len(ops) / sum(statistics.median(t) for t in times)
        tr.install()
        try:
            run_round(ops, expected, problems, speed)
        finally:
            tr.uninstall()
        for _ in range(NEAREST):
            speed.sample()
        traced = len(ops) / sum(t for op in ops for t in at_speed(op, speed, range(rounds, rounds + 1)))
        rounds += 1
        layers = tracer.layer_metrics(tr, traced / plain)
        missing = tr.missing
    return {
        "setups": setups,
        "raw_setups": raw_setups,
        "times": times,
        "raw_times": raw_times,
        "rounds": rounds,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "missing": missing,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = measure(spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
