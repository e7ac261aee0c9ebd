"""Tests for the discrete distribution layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from spotar.dist import (
    _DOM_EPS,
    DistributionError,
    Histogram,
    JointDist,
    _entries,
    _entries_in_bulk,
    clip,
    convolve,
    dominates,
    format_histogram,
    min_cost,
    point_mass,
)

from _util import approx_dict, exact_cdf, exact_convolve, rand_hist


def test_histogram_basics():
    h = Histogram({10: 0.25, 2: 0.5, 7: 0.25})
    assert h.times() == (2, 7, 10)
    assert list(h.items()) == [(2, 0.5), (7, 0.25), (10, 0.25)]
    assert len(h) == 3


def test_histogram_drops_zero_entries():
    h = Histogram({3: 1.0, 9: 0.0})
    assert h.times() == (3,)


def generator_cdf(h, t):
    """Reference CDF: exactly 1.0 at or past the last time, and below it the
    fsum of the probabilities at times up to ``t``, clamped to 1.0."""
    if t >= h.times()[-1]:
        return 1.0
    return min(1.0, math.fsum(p for tt, p in h.items() if tt <= t))


def test_cdf_equals_the_generator_sum():
    """Below the first time, at each time, between times and past the last."""
    rng = random.Random(2107)
    hists = [rand_hist(rng, max_support=12, max_time=40)[0] for _ in range(300)]
    hists.append(Histogram({t: 0.1 for t in range(1, 11)}))  # a sum that rounds
    for h in hists:
        times = h.times()
        probes = {0, times[0] - 1, times[-1] + 1, times[-1] + 50}
        for t in times:
            probes |= {t, t + 1}
        for t in sorted(probes):
            assert h.cdf(t) == generator_cdf(h, t)


def test_cdf_of_convolutions_is_at_most_one_and_exactly_one_at_the_end():
    """Convolved masses drift from 1 by rounding; the cdf never shows it."""
    rng = random.Random(2108)
    rounded = 0
    for _ in range(300):
        total = rand_hist(rng, max_support=6, max_time=20)[0]
        for _ in range(rng.randint(1, 4)):
            total = convolve(total, rand_hist(rng, max_support=6, max_time=20)[0])
        times = total.times()
        rounded += math.fsum(p for _, p in total.items()) != 1.0
        assert all(total.cdf(t) <= 1.0 for t in times)
        assert total.cdf(times[-1]) == 1.0
        assert total.cdf(times[-1] + 7) == 1.0
    assert rounded  # some of these masses really do round away from 1


def test_histogram_cdf_steps():
    h = Histogram({2: 0.5, 7: 0.25, 10: 0.25})
    assert h.cdf(1) == 0.0
    assert h.cdf(2) == pytest.approx(0.5, abs=1e-15)
    assert h.cdf(6) == pytest.approx(0.5, abs=1e-15)
    assert h.cdf(7) == pytest.approx(0.75, abs=1e-15)
    assert h.cdf(10) == pytest.approx(1.0, abs=1e-15)
    assert h.cdf(99) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "entries",
    [
        {},
        {0: 1.0},
        {-3: 1.0},
        {2.5: 1.0},
        {True: 1.0},
        {3: -0.1, 4: 1.1},
        {3: 0.4},
        {3: 0.6, 4: 0.6},
        {3: Fraction(1)},
    ],
)
def test_histogram_rejects_bad_entries(entries):
    with pytest.raises(DistributionError):
        Histogram(entries)


def test_constructors_reject_nan_probability():
    with pytest.raises(DistributionError, match="not finite"):
        Histogram({3: float("nan"), 4: 1.0})
    with pytest.raises(DistributionError, match="not finite"):
        JointDist(("a", "b"), {(1, 2): float("nan"), (2, 2): 1.0})


def test_histogram_mass_tolerance_is_tight():
    Histogram({3: 0.5, 4: 0.5 + 5e-10})  # inside the mass tolerance
    with pytest.raises(DistributionError):
        Histogram({3: 0.5, 4: 0.5 + 5e-9})


def test_histogram_equality():
    a = Histogram({3: 0.5, 4: 0.5})
    b = Histogram({4: 0.5, 3: 0.5})
    assert a == b
    assert a != Histogram({3: 0.5, 5: 0.5})


def test_point_mass_and_min_cost():
    h = point_mass(11)
    assert list(h.items()) == [(11, 1.0)]
    assert min_cost(h) == 11
    assert min_cost(Histogram({8: 0.9, 10: 0.1})) == 8


def test_convolve_golden_pair():
    # Sum of {8: .9, 10: .1} and {8: .8, 10: .2}.
    a = Histogram({8: 0.9, 10: 0.1})
    b = Histogram({8: 0.8, 10: 0.2})
    approx_dict(convolve(a, b).items(), {16: 0.72, 18: 0.26, 20: 0.02})


def test_convolve_matches_exact_enumeration():
    rng = random.Random(2101)
    for _ in range(200):
        a, ea = rand_hist(rng)
        b, eb = rand_hist(rng)
        want = exact_convolve(ea, eb)
        approx_dict(convolve(a, b).items(), {t: float(p) for t, p in want.items()}, tol=1e-12)


def test_convolve_commutative_and_associative():
    rng = random.Random(2102)
    for _ in range(100):
        a, _ = rand_hist(rng)
        b, _ = rand_hist(rng)
        c, _ = rand_hist(rng)
        ab = convolve(a, b)
        ba = convolve(b, a)
        approx_dict(ab.items(), ba.items(), tol=1e-12)
        left = convolve(ab, c)
        right = convolve(a, convolve(b, c))
        approx_dict(left.items(), right.items(), tol=1e-12)


def test_convolve_equals_public_histogram_of_raw_sums():
    """``convolve`` skips the time checks, so its result must equal, entry
    for entry and in order, the validated histogram of the same sums."""
    rng = random.Random(2104)
    cases = [(rand_hist(rng)[0], rand_hist(rng)[0]) for _ in range(200)]
    # 1e-200 squared underflows to zero: the entry must be dropped, as the
    # public constructor drops it
    tiny = Histogram({1: 1e-200, 2: 1.0})
    cases.append((tiny, tiny))
    for a, b in cases:
        raw: dict[int, float] = {}
        for ta, pa in a.items():
            for tb, pb in b.items():
                raw[ta + tb] = raw.get(ta + tb, 0.0) + pa * pb
        got, want = convolve(a, b), Histogram(raw)
        assert got == want
        assert list(got.items()) == list(want.items())
    assert convolve(tiny, tiny).times() == (3, 4)


def test_convolve_with_a_limit_keeps_the_sum_up_to_it():
    """Up to the limit the entries are the unlimited sum's, bit for bit;
    past it there is one entry, at ``limit + 1``, exactly when the sum has
    mass there, and it holds that mass.  Convolving a kept sum again, with
    a limit at most its own plus the added weight's minimum, keeps the
    entries of the whole sum up to the new limit, bit for bit."""
    rng = random.Random(2105)
    kept_rest = 0
    for _ in range(300):
        a = rand_hist(rng, max_support=8, max_time=40)[0]
        b = rand_hist(rng, max_support=5, max_time=20)[0]
        c = rand_hist(rng, max_support=5, max_time=20)[0]
        whole = convolve(a, b)
        assert convolve(a, b, None) == whole
        limit = rng.randint(1, max(whole.times()) + 2)
        got = dict(convolve(a, b, limit).items())
        past = [p for t, p in whole.items() if t > limit]
        assert {t: p for t, p in got.items() if t <= limit} == {
            t: p for t, p in whole.items() if t <= limit
        }
        assert [t for t in got if t > limit] == ([limit + 1] if past else [])
        if past:
            assert got[limit + 1] == pytest.approx(math.fsum(past), rel=1e-12)
            kept_rest += 1
        then = limit + rng.randint(0, min_cost(c))
        twice = dict(convolve(convolve(a, b, limit), c, then).items())
        assert {t: p for t, p in twice.items() if t <= then} == {
            t: p for t, p in convolve(whole, c).items() if t <= then
        }
    assert kept_rest >= 100


def test_convolve_with_a_limit_adds_no_entry_for_underflowed_mass():
    """Past the limit of 6 the only product, 1e-200 squared, underflows to
    0.0: the unlimited sum has no entry there, and neither has the kept one."""
    a = Histogram({1: 1.0, 5: 1e-200})
    assert convolve(a, a, 6) == convolve(a, a) == Histogram({2: 1.0, 6: 2e-200})
    assert convolve(a, a, 5) == Histogram({2: 1.0, 6: 2e-200})


def reference_convolve(a, b, limit=None):
    """``convolve`` as a plain double loop, as ``(time, probability.hex())``
    pairs in time order: ``b``'s times from the largest down, ``a``'s from
    the smallest up, each sum from 0.0.  Past the limit, ``pb`` times
    ``a``'s mass past ``limit - tb``, that mass a running sum from ``a``'s
    last time down, added into one entry at ``limit + 1``."""
    out, rest, cut = {}, 0.0, False
    for tb, pb in reversed(list(b.items())):
        tail, past = 0.0, False
        for ta, pa in reversed(list(a.items())):
            if limit is not None and ta + tb > limit:
                tail, past = tail + pa, True
        if past:
            rest, cut = rest + pb * tail, True
        for ta, pa in a.items():
            if limit is None or ta + tb <= limit:
                out[ta + tb] = out.get(ta + tb, 0.0) + pa * pb
    if cut and rest:
        out[limit + 1] = rest
    return [(t, p.hex()) for t, p in sorted(out.items()) if p]


def test_convolve_matches_a_plain_double_loop_bit_for_bit():
    """A point mass of probability exactly 1.0, on either side or both,
    is a shift; a one-entry weight just below 1.0 is not, and takes the
    general loop.  Every case is checked at limits below the first sum,
    inside, at the last sum and past it.  The tails ``[0.1, 0.2, 0.3,
    0.4]`` and ``[0.2, 0.3, 0.4]`` added from the last time down give
    0.9999999999999999 and 0.8999999999999999, where ``math.fsum`` gives
    1.0 and 0.9, so a rest computed with ``fsum`` fails."""
    certain = Histogram({2: 1.0})
    below_one = Histogram({5: 1 - 2**-53})
    spread = Histogram({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4})
    three = Histogram({2: 0.75, 4: 0.125, 7: 0.125})
    carries_rest = convolve(spread, three, 6)  # its rest sits at 7
    assert 7 in dict(carries_rest.items())
    assert math.fsum([0.1, 0.2, 0.3, 0.4]) != 0.4 + 0.3 + 0.2 + 0.1
    cases = [
        (spread, certain), (certain, spread), (certain, certain), (certain, Histogram({9: 1.0})),
        (spread, below_one), (below_one, three), (below_one, below_one), (below_one, certain),
        (carries_rest, certain), (certain, carries_rest), (carries_rest, three), (spread, three),
        (three, spread), (spread, spread),
    ]
    for a, b in cases:
        first = min(a.times()) + min(b.times())
        last = max(a.times()) + max(b.times())
        for limit in (None, first - 3, first - 1, first, (first + last) // 2, last - 1, last, last + 4):
            got = [(t, p.hex()) for t, p in convolve(a, b, limit).items()]
            assert got == reference_convolve(a, b, limit), (a, b, limit)
    # the shift keeps the other operand's probabilities; below 1.0 they change
    assert dict(convolve(three, certain).items()) == {4: 0.75, 6: 0.125, 9: 0.125}
    assert dict(convolve(three, below_one).items())[7] != 0.75
    assert dict(convolve(spread, certain, 3).items()) == {3: 0.1, 4: 0.8999999999999999}
    assert dict(convolve(certain, spread, 2).items()) == {3: 0.9999999999999999}


def test_clip_keeps_a_histogram_up_to_the_limit():
    h = Histogram({2: 0.25, 5: 0.25, 7: 0.125, 9: 0.375})
    assert clip(h, 9) is h
    assert clip(h, 12) is h
    assert clip(h, 8) is h  # only the last time lies past the limit, at limit + 1
    assert dict(clip(h, 5).items()) == {2: 0.25, 5: 0.25, 6: 0.5}
    assert dict(clip(h, 1).items()) == {2: 1.0}
    assert clip(clip(h, 5), 5) == clip(h, 5)
    rng = random.Random(2106)
    for _ in range(100):
        a, b = rand_hist(rng, max_support=8)[0], rand_hist(rng)[0]
        limit = rng.randint(2, 40)
        clipped, kept = dict(clip(convolve(a, b), limit).items()), dict(convolve(a, b, limit).items())
        assert clipped.keys() == kept.keys()
        assert clipped == {t: pytest.approx(p, rel=1e-12) if t > limit else p for t, p in kept.items()}


def grid_dominates(a, b):
    """Reference dominance test over the union of both supports, reading
    every time through the public accessors."""
    pa, pb = dict(a.items()), dict(b.items())
    cum_a = cum_b = 0.0
    strict = False
    for t in sorted(pa.keys() | pb.keys()):
        cum_a += pa.get(t, 0.0)
        cum_b += pb.get(t, 0.0)
        if cum_a < cum_b - _DOM_EPS:
            return False
        if cum_a > cum_b + _DOM_EPS:
            strict = True
    return strict


def test_dominates_equals_grid_reference():
    rng = random.Random(2105)
    pairs = []
    for _ in range(300):
        a, _ = rand_hist(rng, max_time=12)
        b, _ = rand_hist(rng, max_time=12)
        pairs += [(a, b), (a, Histogram(dict(a.items())))]
    for _ in range(100):
        a, _ = rand_hist(rng, max_time=6)
        b, _ = rand_hist(rng, max_time=6)
        shift = max(a.times()) + rng.randint(0, 3)  # disjoint supports
        pairs.append((a, Histogram({t + shift: p for t, p in b.items()})))
    for _ in range(100):
        # a mass of at most _DOM_EPS moved one time later: within the tolerance
        a, _ = rand_hist(rng, max_support=5, max_time=8)
        entries = dict(a.items())
        t = rng.choice(list(entries))
        gap = min(entries[t], _DOM_EPS) * rng.choice((0.5, 1.0))
        entries[t] -= gap
        entries[t + 1] = entries.get(t + 1, 0.0) + gap
        pairs.append((a, Histogram(entries)))
    for a, b in pairs:
        assert dominates(a, b) == grid_dominates(a, b)
        assert dominates(b, a) == grid_dominates(b, a)
    assert any(dominates(a, b) for a, b in pairs)
    assert not any(dominates(a, b) or dominates(b, a) for a, b in pairs[1:600:2])


@pytest.mark.parametrize("first", [_DOM_EPS / 2, _DOM_EPS, 2 * _DOM_EPS, 0.25])
def test_dominates_later_start_equals_grid(first):
    """``a`` starts after ``b``: with ``b``'s first probability within the
    tolerance the walk goes on past ``b``'s first time, above it it stops."""
    b = Histogram({2: first, 4: 0.5, 6: 0.5 - first})
    for a in (
        Histogram({3: 0.5, 4: 0.5}),
        Histogram({3: 1.0}),
        Histogram({4: 0.5, 6: 0.5}),
        Histogram({4: 0.5, 6: 0.5 - first, 7: first}),
        Histogram({9: 1.0}),
    ):
        assert dominates(a, b) == grid_dominates(a, b)
        assert dominates(b, a) == grid_dominates(b, a)
    assert dominates(Histogram({3: 0.5, 4: 0.5}), b) is (first <= _DOM_EPS)


def test_dominates_strictly_faster():
    fast = Histogram({2: 1.0})
    slow = Histogram({3: 1.0})
    assert dominates(fast, slow)
    assert not dominates(slow, fast)


def test_dominates_equal_is_false_both_ways():
    a = Histogram({3: 0.5, 6: 0.5})
    b = Histogram({3: 0.5, 6: 0.5})
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_incomparable_pair():
    # One is more likely to be fast, the other has a better worst tail
    # start; the cumulative curves cross, so neither wins everywhere.
    a = Histogram({14: 0.8, 20: 0.2})
    b = Histogram({13: 0.7, 20: 0.3})
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_mixed_support():
    a = Histogram({2: 0.5, 5: 0.5})
    b = Histogram({2: 0.5, 7: 0.5})
    assert dominates(a, b)
    assert not dominates(b, a)


def test_dominates_matches_exact_cdf_comparison():
    rng = random.Random(2103)
    for _ in range(300):
        a, ea = rand_hist(rng, max_time=12)
        b, eb = rand_hist(rng, max_time=12)
        grid = sorted(set(ea) | set(eb))
        ge_everywhere = all(exact_cdf(ea, t) >= exact_cdf(eb, t) for t in grid)
        gt_somewhere = any(exact_cdf(ea, t) > exact_cdf(eb, t) for t in grid)
        want = ge_everywhere and gt_somewhere
        assert dominates(a, b) == want


def test_format_histogram():
    h = Histogram({10: 0.1, 8: 0.9})
    assert format_histogram(h) == "8:0.9\n10:0.1"


def test_joint_basics():
    j = JointDist(("a", "b"), {(8, 6): 0.8, (10, 10): 0.2})
    assert j.edges == ("a", "b")
    assert list(j.rows()) == [((8, 6), 0.8), ((10, 10), 0.2)]
    assert len(j) == 2


@pytest.mark.parametrize(
    "edges,rows",
    [
        ((), {(): 1.0}),
        (("a", "a"), {(1, 2): 1.0}),
        (("a", "b"), {(1,): 1.0}),
        (("a", "b"), {(1, 0): 1.0}),
        (("a", "b"), {(1, 2): -0.5, (1, 3): 1.5}),
        (("a", "b"), {(1, 2): 0.7}),
        (("a", "b"), {}),
    ],
)
def test_joint_rejects_bad_rows(edges, rows):
    with pytest.raises(DistributionError):
        JointDist(edges, rows)


def test_long_convolution_chain_keeps_mass():
    rng = random.Random(2106)
    total = point_mass(1)
    for _ in range(50):
        h, _ = rand_hist(rng, max_support=3, max_time=9)
        total = convolve(total, h)
    assert abs(math.fsum(p for _, p in total.items()) - 1.0) <= 1e-9
    assert total.cdf(10**6) == pytest.approx(1.0, abs=1e-9)


def test_exact_fraction_reference_self_check():
    # Guard the test helpers themselves: the rational twin really is
    # the same distribution.
    rng = random.Random(2107)
    h, exact = rand_hist(rng)
    assert sum(exact.values()) == Fraction(1)
    assert set(h.times()) == set(exact)


def _random_object(rng: random.Random, rows: bool) -> tuple[list, list[float]]:
    """Keys and probabilities of one object, in store order or, now and then,
    out of order, with a repeated key, a zero probability or the wrong mass."""
    n = rng.randint(1, 5)
    keys = sorted({tuple(rng.randint(1, 4) for _ in range(2)) if rows else rng.randint(1, 9)
                   for _ in range(n)})
    probs = [1.0 / len(keys)] * len(keys)
    fault = rng.randrange(8)
    if fault == 0 and len(keys) > 1:
        keys.reverse()
    elif fault == 1 and len(keys) > 1:
        keys[1] = keys[0]
    elif fault == 2:
        keys, probs = keys + [keys[-1] * 2 if not rows else (9, 9)], probs + [0.0]
    elif fault == 3:
        probs[0] += 0.1
    elif fault == 4:
        keys, probs = [], []
    return keys, probs


@pytest.mark.parametrize("rows", [False, True])
def test_entries_in_bulk_equals_entries_object_by_object(rows):
    """The bulk passes give, entry for entry and in order, what ``_entries``
    gives for each object, or ``None`` when an object needs sorting, drops a
    zero or breaks a rule."""
    rng = random.Random(5)
    taken = fell_back = 0
    for _ in range(400):
        objects = [_random_object(rng, rows) for _ in range(rng.randint(0, 4))]
        keys = [k for ks, _ in objects for k in ks]
        probs = [p for _, ps in objects for p in ps]
        bulk = _entries_in_bulk(keys, probs, [len(ks) for ks, _ in objects])
        if bulk is None:
            fell_back += 1
            assert any(
                ks != sorted(set(ks)) or 0.0 in ps or abs(math.fsum(ps) - 1.0) > 1e-9
                for ks, ps in objects
            )
            continue
        taken += 1
        assert len(bulk) == len(objects)
        for got, (ks, ps) in zip(bulk, objects):
            want = _entries(ks, ps, "joint")
            assert list(got.items()) == list(want.items())
    assert taken > 50 and fell_back > 50
