"""Discrete travel-time distributions on an integer time grid.

A :class:`Histogram` maps integer travel times, counted in grid units,
to probabilities.  A :class:`JointDist` extends this to whole paths:
each row assigns one travel time to every edge of the path, so
correlations between edges are preserved.  A distribution has no
resolution of its own: the network and the weight store hold ``delta``
(seconds per unit), each checked where it enters, and
:func:`spotar.solver.solve` checks that the two agree.  All operations
are exact dictionary arithmetic on sparse supports; nothing is binned
or interpolated after construction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import ge, itemgetter, sub

MASS_TOL = 1e-9
_DOM_EPS = 1e-12
_INT = frozenset((int,))
_NUMBER = frozenset((float, int))


class DistributionError(ValueError):
    """Raised for invalid supports, masses or resolutions."""


def _check_delta(delta: float) -> float:
    """``delta`` as a float, after checking that it is positive and finite
    as a float: an ``int`` too large for one is refused too."""
    if not 0.0 < delta < math.inf:
        raise DistributionError(f"delta must be positive and finite, got {delta!r}")
    try:
        return float(delta)
    except OverflowError:
        raise DistributionError(
            "delta must be positive and finite, got an int too large for a float"
        ) from None


def _check_times(times: Sequence[object]) -> None:
    """Check that every one of ``times`` is an ``int`` (not a ``bool``) of at least 1.

    Each property is one C-level pass over all of the values; the values
    are walked only to name a bad one.
    """
    if not _INT.issuperset(map(type, times)):
        bad = next(t for t in times if type(t) is not int)
        raise DistributionError(f"travel time {bad!r} is not an integer")
    if times and min(times) < 1:
        raise DistributionError(f"travel time {min(times)} is below the grid minimum of 1")


def _check_probs(probs: Sequence[object]) -> Sequence[float]:
    """``probs`` as floats, after checking that each is a finite, non-negative
    ``float`` or ``int``, one C-level pass per property as in :func:`_check_times`."""
    types = set(map(type, probs))
    if not types <= _NUMBER:
        bad = next(p for p in probs if type(p) not in (float, int))
        raise DistributionError(f"probability {bad!r} is not a number")
    try:
        finite = all(map(math.isfinite, probs))
    except OverflowError:
        raise DistributionError("an integer probability is too large for a float") from None
    if not finite:
        bad = next(p for p in probs if not math.isfinite(p))
        raise DistributionError(f"probability {bad!r} is not finite")
    if probs and min(probs) < 0.0:
        raise DistributionError(f"negative probability {min(probs)!r}")
    return probs if int not in types else list(map(float, probs))


def _check_mass(entries: Mapping[object, float], what: str) -> None:
    """Check that ``entries``, positive probabilities, are not empty and sum to 1."""
    if not entries:
        raise DistributionError(f"{what} has no probability mass")
    mass = math.fsum(entries.values())
    if abs(mass - 1.0) > MASS_TOL:
        raise DistributionError(f"total mass {mass!r} differs from 1 by more than {MASS_TOL}")


def _row_times(rows: Sequence[object], width: int) -> list[object]:
    """The times of ``rows``, one after another, after checking that each
    row is a list or tuple of ``width`` times."""
    if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {width}):
        raise DistributionError(f"each row must be a list of {width} times")
    return list(chain.from_iterable(rows))


def _check_edges(edges: tuple[str, ...]) -> None:
    """Check that a joint's ``edges`` are at least one and distinct."""
    if not edges:
        raise DistributionError("a joint needs at least one edge")
    if len(set(edges)) != len(edges):
        raise DistributionError("an edge appears twice")


def _entries(keys: Sequence, probs: Sequence[float], what: str) -> dict:
    """``{key: probability}`` of a histogram (``what`` is ``"histogram"``)
    or a joint (``"joint"``) whose keys passed :func:`_check_times` and whose
    probabilities are what :func:`_check_probs` returned: sorted by key,
    with zero probabilities dropped.

    No key may appear twice and the mass must be 1.
    """
    entries = dict(sorted(zip(keys, probs), key=itemgetter(0)))
    if len(entries) != len(keys):
        twice = Counter(keys).most_common(1)[0][0]
        raise DistributionError(f"{what} lists {twice!r} twice")
    if 0.0 in probs:
        entries = {k: p for k, p in entries.items() if p}
    _check_mass(entries, what)
    return entries


def _entries_in_bulk(keys: list, probs: list[float], counts: list[int]) -> list[dict] | None:
    """What :func:`_entries` returns for each of several objects, or ``None``.

    The objects' keys and probabilities lie one after another in ``keys``
    and ``probs``, ``counts[i]`` entries for object ``i``; all keys are of
    one kind, times or rows.  The objects are checked together, one
    C-level pass per rule: a key may be no larger than the one before it
    only where a new object starts, no probability is zero, and each
    object's mass is 1 within ``MASS_TOL``.  The result is ``None`` when
    any rule fails; the caller then gives each object to :func:`_entries`,
    which sorts, drops zeros or raises for it.
    """
    if 0.0 in probs:
        return None
    ends = list(accumulate(counts))
    if not set(ends).issuperset(compress(count(1), map(ge, keys, islice(keys, 1, None)))):
        return None
    spans = list(map(slice, accumulate(counts, initial=0), ends))
    groups = list(map(probs.__getitem__, spans))
    if max(map(abs, map(sub, map(math.fsum, groups), repeat(1.0))), default=0.0) > MASS_TOL:
        return None
    return list(map(dict, map(zip, map(keys.__getitem__, spans), groups)))


def _distinct_edges_in_bulk(keys: list[tuple[str, ...]]) -> bool:
    """Whether every one of ``keys`` passes :func:`_check_edges`."""
    lengths = list(map(len, keys))
    return 0 not in lengths and list(map(len, map(set, keys))) == lengths


class Histogram:
    """Probability mass over integer travel times, in grid units.

    The entries follow the rules of a stored edge weight, checked by the
    same functions and reported with the same messages as in
    :func:`spotar.weights.load_store`: every time an ``int`` (not a
    ``bool``) of at least 1, every probability a finite, non-negative
    ``float`` or ``int`` (not a ``bool``), and the total mass 1 within
    ``MASS_TOL``.  Zero-probability entries are dropped.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, float]) -> None:
        times = list(entries)
        _check_times(times)
        probs = _check_probs(list(entries.values()))
        self._entries = _entries(times, probs, "histogram")

    @classmethod
    def _checked(cls, entries: dict[int, float]) -> Histogram:
        """Histogram over entries that are already checked and sorted by time;
        nothing is validated again."""
        self = object.__new__(cls)
        self._entries = entries
        return self

    def items(self) -> Iterator[tuple[int, float]]:
        """Yield (time, probability) pairs in increasing time order."""
        return iter(self._entries.items())

    def times(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def cdf(self, t: int) -> float:
        """Probability of a travel time of at most ``t`` units (see :func:`_cdf`)."""
        entries = self._entries
        return _cdf(entries, next(reversed(entries)), t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self._entries == other._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Histogram({self._entries!r})"


def _cdf(times: Mapping[int, float], last: int, t: int) -> float:
    """Probability of a time of at most ``t``, from ``{time: probability}``
    in any order, whose largest time is ``last``.

    Exactly ``1.0`` when ``t`` is at or past ``last``, whatever the
    probabilities sum to; below it, the ``fsum`` of the probabilities at
    times up to ``t``, clamped to at most ``1.0``.  So a path that makes
    the budget for certain scores exactly ``1.0``, and no score exceeds
    it: an answer at ``1.0`` cannot be beaten, which lets the search stop
    there.  ``fsum`` is exactly rounded, so the order of ``times`` does
    not change the result.
    """
    if t >= last:
        return 1.0
    return min(1.0, math.fsum(compress(times.values(), map(t.__ge__, times))))


def times_cdf(times: Mapping[int, float], t: int) -> float:
    """:meth:`Histogram.cdf` of the histogram over ``times``, without building it.

    ``times`` maps travel times, in any order, to positive probabilities,
    as the entries of a :func:`_derived` histogram before they are sorted.
    """
    return _cdf(times, max(times), t)


def _derived(out: dict[int, float]) -> Histogram:
    """Histogram over ``out``, probabilities at sums of the times, in grid
    units, of checked histograms or joints.

    Such times are integers of at least 1 already, so they are not checked
    again.  Float arithmetic can underflow a probability to zero, so zero
    entries are dropped, and the entries are sorted by time.  The mass is
    not checked again.  It was checked where the data entered, and each
    checked weight may be up to ``MASS_TOL`` off 1, so a cost combined from
    several of them may drift further: a check here would reject paths of a
    store that :func:`spotar.weights.load_store` accepts.
    """
    if 0.0 in out.values():
        out = {t: p for t, p in out.items() if p}
    return Histogram._checked({t: out[t] for t in sorted(out)})


def point_mass(t: int) -> Histogram:
    """Histogram that assigns probability 1 to a single travel time."""
    return Histogram({t: 1.0})


def min_cost(h: Histogram) -> int:
    """Smallest travel time carrying positive probability."""
    return next(iter(h._entries))


def convolve(a: Histogram, b: Histogram, limit: int | None = None) -> Histogram:
    """Distribution of the sum of two independent travel times on one grid.

    The loops run over ``b``'s times from the largest down and, for each,
    over ``a``'s times from the smallest up, so every sum adds its
    products in increasing time of ``a``, starting from 0.0.

    With a ``limit``, the sum is kept exactly up to ``limit`` and the rest
    of its mass is one entry at ``limit + 1``.  The loop over ``a`` stops
    at the last sum within the limit, so no product above it is computed,
    and every kept sum adds the same products in the same order as
    without a limit: it is equal bit for bit.  The rest is the sum, over
    ``b``'s times ``tb``, of ``b``'s probability at ``tb`` times ``a``'s
    mass past ``limit - tb``.  Rounding is monotone, so each of its terms
    is at least every product above the limit that it stands for, and
    the entry is there whenever the full sum has mass above the limit.
    Where every such product underflows to 0.0, the full sum has no
    entry there, as :func:`_derived` drops it.  The rest is then 0.0, and
    no entry is added, unless some of its terms stay above 0.0, which
    needs products below the smallest normal float (about 1e-308): only
    then does the rest keep an entry the full sum lacks.  ``a`` may
    itself be kept so, with its rest at its own ``limit + 1``; the rest
    then counts as mass at that time.
    """
    ea, eb = a._entries, b._entries
    items_a = ea.items()
    out: dict[int, float] = {}
    get = out.get
    if limit is None or next(reversed(ea)) + next(reversed(eb)) <= limit:
        for tb, pb in reversed(eb.items()):
            for ta, pa in items_a:
                t = ta + tb
                out[t] = get(t, 0.0) + pa * pb
        return _derived(out)
    times_a = list(ea)
    n = len(times_a)
    tails = list(accumulate(reversed(ea.values())))  # tails[i]: a's mass at its last i + 1 times
    rest = 0.0
    for tb, pb in reversed(eb.items()):
        fit = bisect_right(times_a, limit - tb)
        if fit < n:
            rest += pb * tails[n - 1 - fit]
        for ta, pa in items_a if fit == n else islice(items_a, fit):
            t = ta + tb
            out[t] = get(t, 0.0) + pa * pb
    if rest:
        out[limit + 1] = rest
    return _derived(out)


def clip(h: Histogram, limit: int) -> Histogram:
    """``h`` kept up to ``limit``, with the rest of its mass at ``limit + 1``.

    ``h`` itself when its last time is at most ``limit + 1``: then at
    most that one entry lies past the limit, already where the rest
    goes, and the ``fsum`` of one probability is that probability.
    Otherwise the rest is the ``fsum`` of the probabilities past the
    limit.  It keeps a single edge's weight as :func:`convolve` with a
    ``limit`` keeps a sum, and returns a sum kept so as it is.
    """
    entries = h._entries
    if next(reversed(entries)) <= limit + 1:
        return h
    kept = {t: p for t, p in entries.items() if t <= limit}
    kept[limit + 1] = math.fsum(p for t, p in entries.items() if t > limit)
    return Histogram._checked(kept)


def dominates(a: Histogram, b: Histogram) -> bool:
    """First-order stochastic dominance of ``a`` over ``b``.

    True when the cumulative distribution of ``a`` is at least that of
    ``b`` at every time and strictly greater somewhere, i.e. ``a`` is
    never slower and sometimes faster.  Equal distributions do not
    dominate each other.  When ``a`` starts later than ``b``, the first
    time compared is ``b``'s first, where ``a`` has no mass yet: the
    answer is ``False`` there unless ``b``'s first probability is within
    the tolerance, so that case returns at once.
    """
    ea, eb = a._entries, b._entries
    first_b = next(iter(eb))
    if next(iter(ea)) > first_b and eb[first_b] > _DOM_EPS:
        return False
    cum_a = 0.0
    cum_b = 0.0
    strict = False
    for t in sorted(ea.keys() | eb.keys()):
        cum_a += ea.get(t, 0.0)
        cum_b += eb.get(t, 0.0)
        if cum_a < cum_b - _DOM_EPS:
            return False
        if cum_a > cum_b + _DOM_EPS:
            strict = True
    return strict


def format_histogram(h: Histogram) -> str:
    """Plain-text dump: one ``time:probability`` line per entry, sorted."""
    return "\n".join(f"{t}:{p:.12g}" for t, p in h.items())


class JointDist:
    """Joint probability mass over the per-edge travel times of a path.

    ``edges`` fixes the coordinate order; every row is a tuple with one
    travel time per edge, in grid units.  The edges must be distinct, and the rows
    follow the rules of a stored path weight, checked as in
    :class:`Histogram` with the messages of
    :func:`spotar.weights.load_store`.
    """

    __slots__ = ("_edges", "_rows")

    def __init__(self, edges: Sequence[str], rows: Mapping[tuple[int, ...], float]) -> None:
        edge_tuple = tuple(edges)
        _check_edges(edge_tuple)
        keys = list(map(tuple, rows))
        _check_times(_row_times(keys, len(edge_tuple)))
        probs = _check_probs(list(rows.values()))
        self._edges = edge_tuple
        self._rows = _entries(keys, probs, "joint")

    @classmethod
    def _checked(cls, edges: tuple[str, ...], rows: dict[tuple[int, ...], float]) -> JointDist:
        """Joint over distinct ``edges`` and rows that are already checked and
        sorted; nothing is validated again."""
        self = object.__new__(cls)
        self._edges = edges
        self._rows = rows
        return self

    @property
    def edges(self) -> tuple[str, ...]:
        return self._edges

    def rows(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield (time-vector, probability) pairs in row-sorted order."""
        return iter(self._rows.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDist):
            return NotImplemented
        return self._edges == other._edges and self._rows == other._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"JointDist({self._edges!r}, {self._rows!r})"
