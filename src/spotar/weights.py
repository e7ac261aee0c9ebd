"""Travel-time weight stores learned from trajectories.

A weight store holds one histogram per edge plus, optionally, joint
distributions for frequently traversed sub-paths.  A cost model wraps a
store with an evaluation mode: ``EDGE`` treats edges as independent and
convolves their histograms; ``PACE`` covers a path with the longest
stored sub-paths available and fuses them on their overlaps, preserving
the correlations the store has evidence for.

Raw trajectory times are in seconds; they are snapped to the network's
time grid (``delta`` seconds per unit, round half up, minimum 1 unit)
when loaded.
"""

from __future__ import annotations

import enum
import gc
import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from operator import itemgetter

from .dist import (
    DistributionError,
    Histogram,
    JointDist,
    _check_delta,
    _check_edges,
    _check_probs,
    _check_times,
    _derived,
    _distinct_edges_in_bulk,
    _entries,
    _entries_in_bulk,
    _row_times,
    convolve,
    min_cost,
    point_mass,
)
from .network import Network, Path, PathError, make_path

STORE_FORMAT = "spotar-weights"
STORE_VERSION = 1
_FUSE_TOL = 1e-12


class StoreError(ValueError):
    """Raised for lookups or constructions that violate store rules."""


def _no_weight(edge_id: str) -> StoreError:
    """The error for a lookup of an edge that the store has no weight for."""
    return StoreError(f"no weight for edge {edge_id!r}")


class StoreFormatError(StoreError):
    """Raised when a serialized store fails to parse or validate."""


class InconsistentWeightsError(StoreError):
    """Raised when overlapping stored weights share no probability mass."""


class TrajectoryFormatError(ValueError):
    """Raised when a trajectory file fails to parse or validate."""


class Mode(enum.Enum):
    """How path costs are assembled from stored weights."""

    EDGE = "edge"
    PACE = "pace"

    @classmethod
    def parse(cls, text: str) -> Mode:
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown mode {text!r}; expected 'edge' or 'pace'") from None


def grid_seconds(seconds: float, delta: float) -> int:
    """Snap a duration in seconds to the time grid (half-up, minimum 1)."""
    if not math.isfinite(seconds):
        raise ValueError(f"duration {seconds!r} is not finite")
    if seconds < 0:
        raise ValueError(f"negative duration {seconds!r}")
    units = seconds / delta + 0.5
    if units == math.inf:
        raise ValueError(f"duration {seconds!r} is too long for a grid of {delta!r} s")
    return max(1, math.floor(units))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One observed traversal pattern: a path, per-edge times in units,
    and how many trips showed exactly this pattern."""

    path: Path
    times: tuple[int, ...]
    count: int = 1

    def __post_init__(self) -> None:
        for name, value in (("path edges", self.path.edges), ("times", self.times)):
            if not isinstance(value, tuple):  # build_store counts them as dict keys
                raise ValueError(f"{name} {value!r} are not a tuple")
        if len(self.times) != len(self.path.edges):
            raise ValueError(
                f"{len(self.times)} times for {len(self.path.edges)} edges"
            )
        _check_times(self.times)
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count {self.count!r} is not a positive integer")


def load_trajectories(net: Network, path: str) -> list[TrajectoryRecord]:
    """Read trajectories from text: ``count,edge:seconds;edge:seconds``.

    One record per line; blank lines and ``#`` comments are skipped.
    Edges must form a valid path in ``net``; times are snapped to the
    network's grid.  Errors carry 1-based line numbers.
    """
    records: list[TrajectoryRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, rest = line.partition(",")
            if not sep:
                raise TrajectoryFormatError(f"line {lineno}: expected 'count,edge:seconds;...'")
            try:
                count = int(head)
                edge_ids: list[str] = []
                units: list[int] = []
                for step in rest.split(";"):
                    eid, sep2, sec = step.partition(":")
                    if not sep2:
                        raise ValueError(f"step {step!r} is missing ':'")
                    edge_ids.append(eid.strip())
                    units.append(grid_seconds(float(sec), net.delta))
                record = TrajectoryRecord(make_path(net, edge_ids), tuple(units), count)
            except (ValueError, PathError) as exc:
                raise TrajectoryFormatError(f"line {lineno}: {exc}") from None
            records.append(record)
    return records


def _check_header(delta: object, min_support: object, max_unit_len: object, mode: object) -> float:
    """``delta`` as a float, after checking the header rules of every store
    (see :class:`WeightStore`)."""
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise StoreError(f"delta {delta!r} is not a number")
    for name, value, least in (("min_support", min_support, 1), ("max_unit_len", max_unit_len, 2)):
        if type(value) is not int or value < least:
            raise StoreError(f"{name} {value!r} is not an integer of at least {least}")
    if not isinstance(mode, Mode):
        raise StoreError(f"mode {mode!r} is not a Mode")
    return _check_delta(delta)


class WeightStore:
    """Edge histograms plus joint weights for stored sub-paths.

    Their times count units of ``delta`` seconds, which the store
    records: the distributions hold no resolution of their own.  Every
    store, built, loaded or made directly, meets the checks here:
    ``delta`` is a positive, finite number, not a ``bool``;
    ``min_support`` is an ``int`` of at least 1 and ``max_unit_len`` one
    of at least 2, neither a ``bool``; ``mode`` is a :class:`Mode`; and
    the weights fit together, which one loop, :meth:`_check_fit`, checks.
    """

    __slots__ = (
        "delta",
        "min_support",
        "max_unit_len",
        "mode",
        "fallback_edges",
        "_edge_weights",
        "_path_weights",
        "_max_len",
        "_open_prefixes",
        "_min_times",
    )

    def __init__(
        self,
        *,
        delta: float,
        min_support: int,
        max_unit_len: int,
        mode: Mode,
        edge_weights: Mapping[str, Histogram],
        path_weights: Mapping[tuple[str, ...], JointDist],
        fallback_edges: Iterable[str] = (),
    ) -> None:
        self.delta = _check_header(delta, min_support, max_unit_len, mode)
        self.min_support = min_support
        self.max_unit_len = max_unit_len
        self.mode = mode
        self._edge_weights = dict(sorted(edge_weights.items()))
        self._path_weights = dict(sorted(path_weights.items()))
        self.fallback_edges = frozenset(fallback_edges)
        unweighted = self.fallback_edges - self._edge_weights.keys()
        if unweighted:
            raise StoreError(f"fallback edge {min(unweighted)!r} has no weight")
        self._check_fit()
        self._max_len = max(map(len, self._path_weights), default=1)
        # a path is settled when none of its suffixes is one of these (see spotar.solver)
        self._open_prefixes = frozenset(key[:j] for key in self._path_weights for j in range(1, len(key)))
        self._min_times = {eid: min_cost(h) for eid, h in self._edge_weights.items()}

    def _check_fit(self) -> None:
        """Check that every stored weight fits the store, naming the first
        misfit in key order: its key is its edges, at least two, each with
        an edge weight whose times hold the joint's column for that edge."""
        supports: dict[str, set[int]] = {}
        for key, j in self._path_weights.items():
            if j.edges != key:
                raise StoreError(f"stored weight keyed {key!r} covers {j.edges!r}")
            if len(key) < 2:
                raise StoreError(f"stored path weight {key!r} must span at least 2 edges")
            for eid, column in zip(key, zip(*j._rows)):
                support = supports.get(eid)
                if support is None:
                    if eid not in self._edge_weights:
                        raise StoreError(f"stored weight {key!r} uses edge {eid!r} with no weight")
                    support = supports[eid] = set(self._edge_weights[eid].times())
                if not support.issuperset(column):
                    raise StoreError(
                        f"stored weight {key!r} has times for {eid!r} outside its edge weight"
                    )

    def edge_weight(self, edge_id: str) -> Histogram:
        try:
            return self._edge_weights[edge_id]
        except KeyError:
            raise _no_weight(edge_id) from None

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._edge_weights)

    def path_weight(self, edges: Sequence[str]) -> JointDist:
        try:
            return self._path_weights[tuple(edges)]
        except KeyError:
            raise StoreError(f"no stored weight for path {tuple(edges)!r}") from None

    def stored_paths(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._path_weights)

    @property
    def max_stored_len(self) -> int:
        """Edge span of the longest stored path weight (1 if none)."""
        return self._max_len

    def __repr__(self) -> str:
        return (
            f"WeightStore({len(self._edge_weights)} edges, "
            f"{len(self._path_weights)} stored paths, mode={self.mode.value})"
        )


def build_store(
    net: Network,
    records: Iterable[TrajectoryRecord],
    *,
    min_support: int = 10,
    mode: Mode = Mode.PACE,
    max_unit_len: int = 8,
) -> WeightStore:
    """Aggregate trajectories into a weight store.

    Every edge observation feeds that edge's histogram.  In ``PACE``
    mode, every contiguous window of 2..``max_unit_len`` edges inside a
    trajectory feeds a joint candidate; candidates traversed end-to-end
    by at least ``min_support`` trips are kept.  Edges with no
    observations at all fall back to a point mass at their speed-limit
    travel time.

    The header is checked first, by the :class:`WeightStore` constructor's
    rules.  One pass over the records then adds each record's count to
    one flat count per (edge, time) and one per (window edges, window
    times); the counts are regrouped per edge and per window by
    :func:`_shares`.  The histograms and joints are built without the
    public constructors' entry checks, which these entries cannot fail:
    every time is an ``int`` of at least 1, as a :class:`TrajectoryRecord`
    holds; every probability is a share in ``(0, 1]``; each group's keys
    are distinct and sorted; and each share is its exact value rounded by
    at most half an ulp, so a group's shares sum to 1 within about 1e-16,
    far inside ``MASS_TOL``.  What construction does not imply is checked:
    an edge the network lacks (the first in record order is named), a
    kept window over a repeated edge (only a :class:`Path` not made by
    :func:`~spotar.network.make_path` holds one), and a share that
    underflows to 0.0, which is dropped as the constructors drop it.
    """
    _check_header(net.delta, min_support, max_unit_len, mode)
    edge_counts: dict[tuple[str, int], int] = {}
    path_counts: dict[tuple[tuple[str, ...], tuple[int, ...]], int] = {}
    windows: dict[int, list[slice]] = {}  # trip length -> its windows' slices
    pace = mode is Mode.PACE
    for rec in records:
        edges, times, count = rec.path.edges, rec.times, rec.count
        for key in zip(edges, times):
            edge_counts[key] = edge_counts.get(key, 0) + count
        if pace:
            spans = windows.get(len(edges))
            if spans is None:
                n = len(edges)
                spans = windows[n] = [
                    slice(s, s + span)
                    for span in range(2, min(n, max_unit_len) + 1)
                    for s in range(n - span + 1)
                ]
            for w in spans:
                key = (edges[w], times[w])
                path_counts[key] = path_counts.get(key, 0) + count
    unknown = next(filterfalse(net.has_edge, dict.fromkeys(map(itemgetter(0), edge_counts))), None)
    if unknown is not None:
        raise StoreError(f"trajectory uses unknown edge {unknown!r}")
    edge_weights: dict[str, Histogram] = {}
    fallback: set[str] = set()
    observed = _shares(edge_counts, 1)
    for eid in net.edge_ids:
        entries = observed.get(eid)
        if entries is not None:
            edge_weights[eid] = Histogram._checked(entries)
        else:
            fallback.add(eid)
            e = net.edge(eid)
            edge_weights[eid] = point_mass(grid_seconds(e.length / e.speed_limit, net.delta))
    kept = _shares(path_counts, min_support)
    if not _distinct_edges_in_bulk(list(kept)):
        for key in kept:
            _check_edges(key)
    return WeightStore(
        delta=net.delta,
        min_support=min_support,
        max_unit_len=max_unit_len,
        mode=mode,
        edge_weights=edge_weights,
        path_weights=dict(zip(kept, map(JointDist._checked, kept, kept.values()))),
        fallback_edges=fallback,
    )


def _shares(counts: dict[tuple, int], least: int) -> dict:
    """``{ident: {key: share}}`` from trip counts keyed ``(ident, key)``.

    A share is the key's count over the total of its ident's counts;
    idents whose total is below ``least`` are left out.  Each ident's keys
    are sorted, and a share that underflowed to 0.0 is dropped.
    """
    groups: dict = {}
    for (ident, key), c in counts.items():
        group = groups.get(ident)
        if group is None:
            groups[ident] = {key: c}
        else:
            group[key] = c
    out = {}
    for ident, group in groups.items():
        total = sum(group.values())
        if total >= least:
            shares = {k: group[k] / total for k in sorted(group)}
            out[ident] = shares if 0.0 not in shares.values() else {k: p for k, p in shares.items() if p}
    return out


def save_store(store: WeightStore, path: str) -> None:
    """Write a store as deterministic compact JSON (sorted keys, no spaces)."""
    doc = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "delta": store.delta,
        "min_support": store.min_support,
        "max_unit_len": store.max_unit_len,
        "mode": store.mode.value,
        "fallback_edges": sorted(store.fallback_edges),
        "edge_weights": {
            eid: [[t, p] for t, p in store.edge_weight(eid).items()]
            for eid in store.edge_ids()
        },
        "path_weights": [
            {
                "edges": list(key),
                "rows": [[list(row), p] for row, p in store.path_weight(key).rows()],
            }
            for key in store.stored_paths()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _name(ident: str | tuple[str, ...]) -> str:
    """How an error names a stored object: an edge id or a stored path key."""
    return f"edge {ident!r}" if isinstance(ident, str) else f"stored path {ident!r}"


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value: object, kind: type, name: str):
    """``value``, which must be a JSON object, list or string as ``kind`` says."""
    if type(value) is not kind:
        raise StoreFormatError(f"{name} must be {_JSON_KINDS[kind]}, not {type(value).__name__}")
    return value


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, leaving it as it was found on exit.

    :func:`load_store` builds thousands of small objects, none of which
    can reach itself again, so the collections their allocation would
    trigger scan them all and find no cycle to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _objects_in_bulk(
    idents: list, n_edges: int, groups: list
) -> tuple[dict[str, Histogram], dict[tuple[str, ...], JointDist]] | None:
    """The edge weights and stored paths of a document, or ``None``.

    ``idents`` and ``groups`` are as in :func:`load_store`, with the
    ``n_edges`` edge weights first.  Each rule is one pass over all of
    the document's entries or objects: every entry is a pair, every row
    holds one time per edge of its path, the times and probabilities
    pass :func:`_check_times` and :func:`_check_probs`, the entries
    pass :func:`_entries_in_bulk`, and each path key has distinct edges
    and appears once.  The result is ``None`` when any pass fails.
    """
    if not set(map(type, groups)) <= {list}:
        return None
    counts = list(map(len, groups))
    flat = list(chain.from_iterable(groups))
    if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {2}):
        return None
    firsts = list(map(itemgetter(0), flat))
    split = sum(counts[:n_edges])
    times, rows = firsts[:split], firsts[split:]
    path_keys = idents[n_edges:]
    widths = chain.from_iterable(map(repeat, map(len, path_keys), counts[n_edges:]))
    if not (set(map(type, rows)) <= {list} and list(map(len, rows)) == list(widths)):
        return None
    try:
        _check_times(times + list(chain.from_iterable(rows)))
        probs = _check_probs(list(map(itemgetter(1), flat)))
    except DistributionError:
        return None
    edge_entries = _entries_in_bulk(times, probs[:split], counts[:n_edges])
    path_entries = _entries_in_bulk(list(map(tuple, rows)), probs[split:], counts[n_edges:])
    if (
        edge_entries is None
        or path_entries is None
        or not _distinct_edges_in_bulk(path_keys)
        or len(set(path_keys)) != len(path_keys)
    ):
        return None
    edge_weights = dict(zip(idents[:n_edges], map(Histogram._checked, edge_entries)))
    path_weights = dict(zip(path_keys, map(JointDist._checked, path_keys, path_entries)))
    return edge_weights, path_weights


def _objects_one_by_one(
    idents: list, groups: list
) -> tuple[dict[str, Histogram], dict[tuple[str, ...], JointDist]]:
    """What :func:`_objects_in_bulk` checks and builds, one object at a time in
    document order: every rule is applied to an object before the next, its
    entries are sorted and its zero probabilities dropped by :func:`_entries`,
    and the first object that breaks a rule raises, named."""
    edge_weights: dict[str, Histogram] = {}
    path_weights: dict[tuple[str, ...], JointDist] = {}
    for ident, entries in zip(idents, groups):
        edge = isinstance(ident, str)
        name = _name(ident)
        if type(entries) is not list or not set(map(type, entries)) <= {list}:
            raise StoreFormatError(f"{name}: entries must be a list of lists")
        if not set(map(len, entries)) <= {2}:
            raise StoreFormatError(f"{name}: an entry is not a pair")
        keys = list(map(itemgetter(0), entries))
        try:
            _check_times(keys if edge else _row_times(keys, len(ident)))
            probs = _check_probs(list(map(itemgetter(1), entries)))
            if edge:
                built = _entries(keys, probs, "histogram")
            else:
                built = _entries(list(map(tuple, keys)), probs, "joint")
                _check_edges(ident)
        except DistributionError as exc:
            raise StoreFormatError(f"{name}: {exc}") from None
        if edge:
            edge_weights[ident] = Histogram._checked(built)
        elif ident in path_weights:
            raise StoreFormatError(f"{name} appears twice")
        else:
            path_weights[ident] = JointDist._checked(ident, built)
    return edge_weights, path_weights


@_gc_paused()
def load_store(path: str) -> WeightStore:
    """Read a store written by :func:`save_store`, checking the whole document.

    The loader checks the document's shape (format, version, container
    types, the mode's name, ``fallback_edges``) and passes the header
    values as they are to the :class:`WeightStore` constructor, which
    checks them; its errors read ``malformed store:`` and their message.
    A stored object's entries follow the rules of the :class:`Histogram`
    and :class:`JointDist` constructors, checked by the same functions, and
    an error is their message after the object's name.  A document that
    passes the whole-document passes of :func:`_objects_in_bulk`, as every
    store :func:`save_store` writes does, is built by them alone; any other
    is walked one object at a time in document order, so the error names
    the first bad object.  The cyclic garbage collector is paused meanwhile:
    no object built can reach itself again, so a collection would free
    nothing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != STORE_FORMAT:
        raise StoreFormatError("missing or wrong format marker")
    if doc.get("version") != STORE_VERSION:
        raise StoreFormatError(f"unsupported version {doc.get('version')!r}")
    try:
        mode = Mode.parse(_expect(doc["mode"], str, "mode"))
        fallback = _expect(doc["fallback_edges"], list, "fallback_edges")
        if not set(map(type, fallback)) <= {str}:
            raise StoreFormatError("fallback_edges must hold edge ids")
        if len(set(fallback)) != len(fallback):
            twice = Counter(fallback).most_common(1)[0][0]
            raise StoreFormatError(f"fallback_edges lists {twice!r} twice")
        edge_docs = _expect(doc["edge_weights"], dict, "edge_weights")
        path_docs = _expect(doc["path_weights"], list, "path_weights")
        if not set(map(type, path_docs)) <= {dict}:
            raise StoreFormatError("path_weights must hold objects")
        key_lists = list(map(itemgetter("edges"), path_docs))
        if not set(map(type, key_lists)) <= {list}:
            raise StoreFormatError("the edges of a stored path must be a list")
        # Every stored object, edges first: its edge id or path key, and its JSON entries.
        idents = [*edge_docs, *map(tuple, key_lists)]
        groups = [*edge_docs.values(), *map(itemgetter("rows"), path_docs)]
        edge_weights, path_weights = _objects_in_bulk(
            idents, len(edge_docs), groups
        ) or _objects_one_by_one(idents, groups)
        return WeightStore(
            delta=doc["delta"],
            min_support=doc["min_support"],
            max_unit_len=doc["max_unit_len"],
            mode=mode,
            edge_weights=edge_weights,
            path_weights=path_weights,
            fallback_edges=fallback,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, StoreFormatError):
            raise
        raise StoreFormatError(f"malformed store: {exc}") from None


@dataclass(frozen=True)
class CostModel:
    """A weight store plus the mode used to evaluate path costs."""

    store: WeightStore
    mode: Mode

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode {self.mode!r} is not a Mode")
        if self.mode is Mode.PACE and self.store.mode is not Mode.PACE:
            raise StoreError("store was built without path weights; cannot evaluate in pace mode")


def _extend_cover(
    store: WeightStore, prefix: Sequence[tuple], edges: tuple[str, ...]
) -> tuple[int, tuple[int, tuple[str, ...]]]:
    """How the cover of ``edges`` follows from the cover of ``edges[:-1]``.

    ``prefix`` holds the prefix's cover units in order, each a tuple whose
    first two items are the unit's start index and edges, as in a
    :data:`FoldStep`.  Returns ``(k, (s, unit))``: the cover of ``edges``
    is the prefix's first ``k`` units followed by the unit ``edges[s:]``.

    The cover is greedy, left to right.  Each step looks at the stored
    units that start in its window ``(previous start, covered]`` and reach
    past ``covered``, and takes the one reaching furthest, then the one
    starting first, which overlaps the covered prefix most; the single
    edge at ``covered`` fills in when no stored unit helps.  Appending
    edge ``n`` only adds candidates that end at ``n + 1``, and such a
    candidate beats every other one of a step whose window holds its
    start, because no unit reaches further.  Let ``s`` be the smallest
    start with ``edges[s:]`` stored.  A step's unit starts inside its
    window, so the next window begins at or below the end of this one:
    the windows run from index 0 upwards without a gap, and the first
    window to hold ``s`` is that of the first step whose coverage before
    it reaches ``s``.  Every step before it sees no new candidate and
    chooses as it did for the prefix; that step takes ``edges[s:]``, which
    covers the whole path.  One extension can thus replace several of the
    prefix's units.  With no such ``s``, every step of the prefix chooses
    as before and one more step adds the new edge on its own.  A stored
    unit spans at most :attr:`WeightStore.max_stored_len` edges and never
    a single one, so at most ``max_stored_len - 1`` starts are looked up.
    """
    n = len(edges) - 1
    stored = store._path_weights
    for s in range(max(0, n + 1 - store.max_stored_len), n):
        if edges[s:] in stored:
            break
    else:
        return len(prefix), (n, edges[n:])
    k = covered = 0
    for step in prefix:
        if covered >= s:
            break
        covered = step[0] + len(step[1])
        k += 1
    return k, (s, edges[s:])


def _cover(store: WeightStore, edges: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
    """Cover of ``edges`` by stored units, as (start index, unit edges) pairs.

    Each prefix of ``edges`` in turn is covered by :func:`_extend_cover`
    from the cover of the prefix one edge shorter.
    """
    units: list[tuple[int, tuple[str, ...]]] = []
    for n in range(1, len(edges) + 1):
        k, unit = _extend_cover(store, units, edges[:n])
        units[k:] = [unit]
    return units


# overlap key -> (the key's mass, [(times of the remaining edges, their sum, probability)])
UnitTable = dict[tuple[int, ...], tuple[float, list[tuple[tuple[int, ...], int, float]]]]


def _unit_table(store: WeightStore, unit: tuple[str, ...], o: int) -> UnitTable:
    """The rows of one cover unit, grouped by the times of its first ``o`` edges.

    Fusion conditions a unit on its overlap with the unit before it: a
    prefix whose last ``o`` times are ``key`` continues with the rows of
    ``key``'s group, each weighted by its probability over the group's
    mass.  A row holds the times of the unit's remaining edges, summed
    once here, and the probability.  With no overlap there is one group,
    keyed ``()``, whose mass is exactly 1.  A group's mass is summed left
    to right in row order.  A one-edge unit only ever starts where
    coverage ends, so it never overlaps the unit before it; its rows are
    read straight from the edge histogram, which the store has already
    validated.
    """
    if len(unit) == 1:
        return {(): (1.0, [((t,), t, p) for t, p in store.edge_weight(unit[0])._entries.items()])}
    rows = store._path_weights[unit]._rows.items()  # a cover unit of two or more edges is a stored key
    if not o:
        return {(): (1.0, [(row, sum(row), p) for row, p in rows])}
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, float]]] = {}
    for row, p in rows:
        rest = row[o:]
        groups.setdefault(row[:o], []).append((rest, sum(rest), p))
    table: UnitTable = {}
    for key, group in groups.items():
        mass = 0.0
        for _, _, p in group:
            mass += p
        table[key] = (mass, group)
    return table


# One step of the pace fold: a cover unit's start index and edges, and the
# fold state after it, {(total time, recent per-edge times): probability},
# where the total is the elapsed time of every edge the cover has reached.
FoldStep = tuple[int, tuple[str, ...], dict[tuple[int, tuple[int, ...]], float]]


def _fold(
    store: WeightStore, steps: tuple[FoldStep, ...], s: int, unit: tuple[str, ...]
) -> tuple[FoldStep, ...]:
    """``steps`` followed by the step of the cover unit ``unit`` at index ``s``.

    ``steps`` are the fold steps of the cover units before the new one.
    A state maps (total time, recent per-edge times) to probability.  The
    total is the elapsed time of every covered edge; the remembered tail
    holds the times of the last ``min(window, covered)`` edges, where the
    window is one less than the longest stored unit, which is all a
    future overlap can reach back to.  A unit's state depends only on the
    state before it, the unit and the store, so a path's steps are its
    prefix's steps for the units both covers share, plus one new step.
    All tails in a state have the same length, so the number of leading
    times a grown tail drops is the same for every entry: an entry's new
    key adds the row's sum to the total and appends the row's times to
    the tail's kept times.  When a unit that overlaps nothing brings more
    new edges than the window holds, the tail is dropped whole and the
    table's rows are trimmed once.  Overlapping units that agree on no
    overlap time raise :class:`InconsistentWeightsError`.
    """
    if steps:
        start, last, state = steps[-1]
        covered = start + len(last)
    else:
        state, covered = {(0, ()): 1.0}, 0
    window = store.max_stored_len - 1
    o = covered - s
    kept = min(window, covered)
    cut = max(0, kept + len(unit) - o - window)
    table = _unit_table(store, unit, o)
    skip = cut - kept
    if skip > 0:  # only a unit with no overlap grows the tail by more than the window
        table = {(): (1.0, [(rest[skip:], more, up) for rest, more, up in table[()][1]])}
    group = table[()] if not o else None
    new: dict[tuple[int, tuple[int, ...]], float] = {}
    for (total, tail), p in state.items():
        if o:
            group = table.get(tail[kept - o :])
            if group is None:
                continue
        denom, rows = group
        head = tail[cut:]
        for rest, more, up in rows:
            nkey = (total + more, head + rest)
            new[nkey] = new.get(nkey, 0.0) + p * up / denom
    # the first unit is taken as stored; only a fused unit can lose mass
    if s:
        mass = math.fsum(new.values())
        if mass <= _FUSE_TOL:
            raise InconsistentWeightsError(
                f"overlapping weights for {unit!r} share no mass with the prefix"
            )
        if abs(mass - 1.0) > _FUSE_TOL:
            new = {nkey: p / mass for nkey, p in new.items()}
    return steps + ((s, unit, new),)


def _fold_times(steps: tuple[FoldStep, ...]) -> dict[int, float]:
    """Per-total times of the last fold state: ``{total: probability}``.

    Each total's probability is summed left to right in state order, and
    totals whose probability underflowed to zero are dropped.  The totals
    are not sorted; :func:`~spotar.dist._derived` turns them into the
    path's cost :class:`Histogram`.
    """
    out: dict[int, float] = {}
    for (total, _), p in steps[-1][2].items():
        out[total] = out.get(total, 0.0) + p
    if 0.0 in out.values():
        out = {t: p for t, p in out.items() if p}
    return out


def path_cost(model: CostModel, path: Path) -> Histogram:
    """Distribution of a path's total travel time, evaluated from scratch.

    ``EDGE`` mode convolves the edge histograms left to right and ``PACE``
    mode folds the cover units from an empty start, as :func:`extend_cost`
    does from a parent's steps.  The joint of the per-edge times is never
    materialized.
    """
    store = model.store
    if model.mode is Mode.EDGE:
        cost = store.edge_weight(path.edges[0])
        for eid in path.edges[1:]:
            cost = convolve(cost, store.edge_weight(eid))
        return cost
    steps: tuple[FoldStep, ...] = ()
    for s, unit in _cover(store, path.edges):
        steps = _fold(store, steps, s, unit)
    return _derived(_fold_times(steps))


def extend_cost(
    model: CostModel,
    prefix_state: Histogram | tuple[FoldStep, ...] | None,
    edges: tuple[str, ...],
    limit: int | None = None,
) -> tuple[Histogram | dict[int, float], Histogram | tuple[FoldStep, ...]]:
    """Cost of the path ``edges`` and the state to extend it by, from the state of its prefix.

    ``prefix_state`` is what this function returned for ``edges`` minus
    its last edge, or ``None`` for a one-edge path.  In ``EDGE`` mode the
    cost is also the state: the prefix cost is convolved with the last
    edge's weight, which is the last step of the left fold
    :func:`path_cost` performs, so without a ``limit`` the cost is the
    :func:`path_cost` histogram exactly.  With one, the convolution keeps
    the cost only up to ``limit`` and puts the rest of its mass at
    ``limit + 1`` (see :func:`~spotar.dist.convolve`).  A one-edge path's
    cost is its edge's weight, whole, and ``PACE`` mode ignores the limit.
    In ``PACE`` mode the state is the fold steps.  The new edge can change
    the end of the cover: :func:`_extend_cover` finds how many of the
    prefix's units the path keeps and the one unit after them, and only
    that unit is folded, onto the kept units' steps.  The cost is then
    the per-total times of :func:`_fold_times`, unsorted, whose
    :func:`~spotar.dist._derived` histogram is the :func:`path_cost`
    histogram exactly: the search reads its priorities and minimum from
    them and sorts them only when it compares two labels for dominance.
    """
    store = model.store
    if model.mode is Mode.EDGE:
        weight = store.edge_weight(edges[-1])
        cost = weight if prefix_state is None else convolve(prefix_state, weight, limit)
        return cost, cost
    steps = prefix_state or ()
    k, (s, unit) = _extend_cover(store, steps, edges)
    steps = _fold(store, steps[:k], s, unit)
    return _fold_times(steps), steps
