"""Benchmark harness: query sweeps over budgets and distance buckets.

A bench run takes one network and one weight store, generates the same
queries for every method (method = heuristic kind + cost mode), solves
them all, and writes per-query rows plus per-cell aggregates as CSV.
Rows are deterministic apart from the wall-time column.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, fields
from statistics import fmean

from .heuristic import HeuristicKind
from .network import Network, Query
from .solver import solve
from .weights import CostModel, Mode, WeightStore

METHODS: dict[str, tuple[HeuristicKind, Mode]] = {
    "sp+pace": (HeuristicKind.SP, Mode.PACE),
    "sp+edge": (HeuristicKind.SP, Mode.EDGE),
    "ba+pace": (HeuristicKind.BA, Mode.PACE),
    "ba+edge": (HeuristicKind.BA, Mode.EDGE),
}

ALL_METHODS = tuple(METHODS)  # the default; run_bench reads this very tuple as "omitted"
DEFAULT_BUDGETS = (300, 500, 700, 1000)
DEFAULT_BUCKETS = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0))


class BenchConfigError(ValueError):
    """Raised for unusable bench configurations."""


@dataclass(frozen=True)
class BenchConfig:
    """What to sweep: budgets in time units, buckets in km of
    straight-line source-destination distance.  Omitted ``methods``
    run every method the store can evaluate."""

    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    buckets: tuple[tuple[float, float], ...] = DEFAULT_BUCKETS
    queries_per_cell: int = 5
    methods: tuple[str, ...] = ALL_METHODS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise BenchConfigError(f"budgets must be positive, got {self.budgets!r}")
        for lo, hi in self.buckets:
            if not 0.0 <= lo < hi:
                raise BenchConfigError(f"bad bucket [{lo}, {hi})")
        if self.queries_per_cell < 1:
            raise BenchConfigError("queries_per_cell must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise BenchConfigError(f"unknown method {m!r}; known: {sorted(METHODS)}")


def parse_config(text: str) -> BenchConfig:
    """Parse ``key = value`` lines; ``#`` comments and blanks ignored.

    Keys: budgets (comma-separated ints), buckets (``lo-hi`` pairs in
    km, comma-separated), queries_per_cell, methods, seed.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise BenchConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        val = val.strip()
        try:
            if key == "budgets":
                values[key] = tuple(int(x) for x in val.split(","))
            elif key == "buckets":
                buckets = []
                for part in val.split(","):
                    lo, sep2, hi = part.partition("-")
                    if not sep2:
                        raise ValueError(f"bucket {part!r} is missing '-'")
                    buckets.append((float(lo), float(hi)))
                values[key] = tuple(buckets)
            elif key == "queries_per_cell":
                values[key] = int(val)
            elif key == "methods":
                values[key] = tuple(m.strip() for m in val.split(","))
            elif key == "seed":
                values[key] = int(val)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise BenchConfigError(f"line {lineno}: {exc}") from None
    return BenchConfig(**values)  # type: ignore[arg-type]


def load_config(path: str) -> BenchConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class BenchQuery:
    budget: int
    bucket_lo: float
    bucket_hi: float
    query_id: int
    query: Query


@dataclass(frozen=True)
class BenchRow:
    method: str
    budget: int
    bucket_lo: float
    bucket_hi: float
    query_id: int
    probability: float
    wall_time_s: float
    explored_edges: int
    expanded_labels: int
    path_edges: int


ROW_FIELDS = tuple(f.name for f in fields(BenchRow))


def gen_queries(net: Network, cfg: BenchConfig) -> list[BenchQuery]:
    """Sample node pairs per (budget, bucket) cell, seeded by the config.

    A cell whose bucket no node pair can satisfy raises
    :class:`BenchConfigError`.
    """
    rng = random.Random(cfg.seed)
    ids = list(net.node_ids)
    if len(ids) < 2:
        raise BenchConfigError("network has fewer than 2 nodes")
    out: list[BenchQuery] = []
    for budget in cfg.budgets:
        for lo, hi in cfg.buckets:
            for qid in range(cfg.queries_per_cell):
                for _attempt in range(5000):
                    source, dest = rng.choice(ids), rng.choice(ids)
                    if source == dest:
                        continue
                    km = net.distance_m(source, dest) / 1000.0
                    if lo <= km < hi:
                        out.append(BenchQuery(budget, lo, hi, qid, Query(source, dest, budget)))
                        break
                else:
                    raise BenchConfigError(f"no node pair with distance in [{lo}, {hi}) km")
    return out


def run_bench(net: Network, store: WeightStore, cfg: BenchConfig) -> list[BenchRow]:
    """Solve every generated query under every configured method."""
    queries = gen_queries(net, cfg)
    rows: list[BenchRow] = []
    names = cfg.methods
    if names is ALL_METHODS and store.mode is not Mode.PACE:  # a named pace method raises
        names = tuple(m for m in names if METHODS[m][1] is Mode.EDGE)
    for name in names:
        kind, mode = METHODS[name]
        model = CostModel(store, mode)
        for bq in queries:
            res = solve(net, model, kind, bq.query)
            rows.append(
                BenchRow(
                    method=name,
                    budget=bq.budget,
                    bucket_lo=bq.bucket_lo,
                    bucket_hi=bq.bucket_hi,
                    query_id=bq.query_id,
                    probability=res.probability,
                    wall_time_s=res.wall_time_s,
                    explored_edges=res.explored_edges,
                    expanded_labels=res.expanded_labels,
                    path_edges=len(res.path.edges) if res.path else 0,
                )
            )
    return rows


@dataclass(frozen=True)
class AggRow:
    method: str
    budget: int
    bucket_lo: float
    bucket_hi: float
    queries: int
    mean_probability: float
    mean_wall_time_s: float
    mean_explored_edges: float
    mean_expanded_labels: float


AGG_FIELDS = tuple(f.name for f in fields(AggRow))


def aggregate(rows: list[BenchRow]) -> list[AggRow]:
    """Mean per (method, budget, bucket) cell, in row order of first use."""
    cells: dict[tuple[str, int, float, float], list[BenchRow]] = {}
    for row in rows:
        cells.setdefault((row.method, row.budget, row.bucket_lo, row.bucket_hi), []).append(row)
    out = []
    for (method, budget, lo, hi), group in cells.items():
        out.append(
            AggRow(
                method=method,
                budget=budget,
                bucket_lo=lo,
                bucket_hi=hi,
                queries=len(group),
                mean_probability=fmean(r.probability for r in group),
                mean_wall_time_s=fmean(r.wall_time_s for r in group),
                mean_explored_edges=fmean(r.explored_edges for r in group),
                mean_expanded_labels=fmean(r.expanded_labels for r in group),
            )
        )
    return out


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(records: list, names: tuple[str, ...], path: str) -> None:
    """One CSV line of ``names``, then one line per record of those fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in records:
            writer.writerow([_fmt(getattr(record, name)) for name in names])


def write_rows(rows: list[BenchRow], path: str) -> None:
    _write_csv(rows, ROW_FIELDS, path)


def write_aggregates(rows: list[BenchRow], path: str) -> None:
    _write_csv(aggregate(rows), AGG_FIELDS, path)
