"""The bounded enumeration oracles.

These are the referees for the symbolic layer, so they get their own
worked examples with every expected value derived by hand in the
assertions rather than by calling back into the code under test.
"""

import tracemalloc
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_100, wide_supernaturals
from steinitz import (
    INF,
    BZPair,
    ChainPoint,
    ConstructionStuck,
    ExpMap,
    Family,
    PrimeSet,
    Sieve,
    Supernatural,
    TruncatedCone,
    additively_closed,
    chain_from_points,
    check_point_conditions,
    cone_contains,
    cone_enumerate,
    int_divides,
    member,
    oracle,
    smonoid_to_sieve,
    unit_residues,
    verify_member_decision,
)
from steinitz import sieve as sieve_module
from steinitz._primes import factorize


def pow2_pair():
    return BZPair(1, Supernatural.from_exponents({2: INF}))


# ------------------------------------------------------------- chain points


def test_chain_point_validation():
    ChainPoint((2, 6, 18), Sieve.full())
    with pytest.raises(ValueError):
        ChainPoint((2, 5), Sieve.full())
    with pytest.raises(ValueError):
        ChainPoint((0,), Sieve.full())
    assert ChainPoint((3,), Sieve.full()).levels() == (1, 3)


# --------------------------------------------------------- truncated cones


def test_from_pair_window_and_tail():
    cone = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 4, 64)
    assert len(cone.elements) == 16
    assert cone.elements == cone_enumerate(pow2_pair(), 4, 64)
    # membership outside the enumeration window still answers
    assert cone.member(Fraction(1, 1024))
    assert not cone.member(Fraction(1, 3))


def test_from_chain_membership():
    cone = TruncatedCone.from_chain(ChainPoint((2, 6), Sieve.full()), 4, 6)
    assert cone.member(Fraction(5, 6))
    assert not cone.member(Fraction(1, 4))
    assert Fraction(1, 6) in cone.elements
    for q in cone.elements:
        assert cone.member(q)
        assert q.numerator <= 4 and q.denominator <= 6


def test_from_elements_membership():
    cone = TruncatedCone.from_elements([1, Fraction(1, 2)], Sieve.full(), 2, 2)
    assert cone.member(Fraction(1, 2))
    assert not cone.member(Fraction(3, 2))


# ----------------------------------------------------- the point conditions


def test_point_conditions_on_integers():
    cone = TruncatedCone.from_elements(range(1, 11), Sieve.full(), 10, 1)
    report = check_point_conditions(cone)
    assert report.verified()
    assert report.free
    assert len(report.rank_one.witnesses) == 55
    assert report.rank_one.unresolved == ()


def test_point_conditions_verified_dyadic():
    cone = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 4, 720)
    report = check_point_conditions(cone)
    assert report.verified()
    for a, a2, b, c, c2 in report.rank_one.witnesses:
        assert a == b * c and a2 == b * c2
        assert c == 1 or Sieve.of(2).contains(c)
        assert c2 == 1 or Sieve.of(2).contains(c2)
        assert cone.member(b)


def test_point_conditions_unresolved():
    # powers of 3 in the denominators but only even monoid factors:
    # any shared lower element would need an even c with 3c a power
    # of 3, so every off-diagonal pair stays open
    pair = BZPair(1, Supernatural.from_exponents({3: INF}))
    cone = TruncatedCone.from_pair(pair, Sieve.of(2), 4, 100)
    report = check_point_conditions(cone, search_bound=2000)
    assert report.free
    assert not report.verified()
    assert (Fraction(1, 3), Fraction(1)) in report.rank_one.unresolved


# --------------------------------------------------------- member decisions


def test_verify_member_frozen():
    x = Supernatural.from_exponents({2: INF, 3: INF, 5: 2})
    refuted = verify_member_decision(x, Sieve.of(10))
    assert refuted.consistent is False and refuted.witness == 25
    ok = verify_member_decision(x, Sieve.of(6))
    assert ok.consistent is True and ok.witness is None
    assert not member(x, Sieve.of(10)) and member(x, Sieve.of(6))


def test_verify_member_refutes_finite_points():
    ev = verify_member_decision(Supernatural.from_int(12), Sieve.of(2))
    assert not ev.consistent
    assert ev.witness == 4
    # at factor bound 3, 4 is the first value of the second divisor window
    ev = verify_member_decision(Supernatural.from_int(12), Sieve.of(2), 20, 3)
    assert (ev.consistent, ev.witness) == (False, 4)


def test_verify_member_rejects_full_sieve():
    with pytest.raises(ValueError):
        verify_member_decision(Supernatural.all_infinite(), Sieve.full())


# --------------------------------------------------------- additive closure


def test_additively_closed_frozen():
    bad = TruncatedCone.from_elements(
        [1, Fraction(1, 2), 2, 3], Sieve.full(), 3, 2
    )
    assert not additively_closed(bad)  # 1/2 + 1 = 3/2 is missing
    good = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 4, 8)
    assert additively_closed(good)


def test_chain_truncation_additively_closed():
    # over the full numerical semigroup of 3 and 5 the levels absorb
    # all pairwise sums; over just the multiples of 3 or 5 they do not
    # (1/2 + 5/6 = 4/3 would need 8 in the monoid)
    semigroup, exact = smonoid_to_sieve((3, 5))
    assert exact
    cone = TruncatedCone.from_chain(ChainPoint((2, 6), semigroup), 12, 720)
    assert len(cone.elements) == 26
    assert additively_closed(cone)
    bare = TruncatedCone.from_chain(ChainPoint((2, 6), Sieve.of(3, 5)), 12, 720)
    assert len(bare.elements) == 21
    assert not additively_closed(bare)


# ------------------------------------------------------- chain construction


def test_chain_from_points_frozen():
    c = chain_from_points(Sieve.full(), [1, Fraction(1, 2), Fraction(1, 6)])
    assert c.stages == (2, 6)
    c2 = chain_from_points(Sieve.full(), [Fraction(1, 4), Fraction(1, 6)])
    assert c2.stages == (3,)


def test_chain_from_points_covers_seeds(rng):
    for _ in range(40):
        seeds = [
            Fraction(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(4)
        ]
        c = chain_from_points(Sieve.full(), seeds)
        scale = 1 / seeds[0]
        for q in seeds:
            lifted = [q * scale * l for l in c.levels()]
            assert any(
                x.denominator == 1 and x >= 1 for x in lifted
            ), (seeds, c.stages, q)


def test_chain_from_points_respects_monoid():
    c = chain_from_points(Sieve.of(7), [1, Fraction(1, 2)], search_bound=40)
    assert c.stages == (14,)
    # the growth factor and the lifted seed both landed on multiples of 7
    assert Sieve.of(7).contains(14) and Sieve.of(7).contains(7)


def test_chain_from_points_stuck():
    with pytest.raises(ConstructionStuck) as exc:
        chain_from_points(Sieve.of(4), [1, Fraction(1, 6)], search_bound=20)
    assert exc.value.seed == Fraction(1, 6)


def test_chain_from_points_validation():
    with pytest.raises(ValueError):
        chain_from_points(Sieve.full(), [])
    with pytest.raises(ValueError):
        chain_from_points(Sieve.full(), [Fraction(-1, 2)])


# ------------------------------------------- the walks against their old form
#
# The walks run in integers over per-call membership tables.  Below are the
# pre-table walks, kept verbatim apart from returning plain tuples, as a
# reference: the new walks must return the same reports on drawn cones,
# points and sieves.  Moduli reach 60 and exception primes 100, past the
# conftest generators.

WALK = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_point_conditions(cone, search_bound=10_000):
    elems = cone.elements
    ms = cone.monoid.members_upto(200)[:8]
    free = all(
        a * c != a * cp
        for a in elems[:8]
        for i, c in enumerate(ms)
        for cp in ms[i + 1 :]
    )
    wits = []
    unres = []
    for i in range(len(elems)):
        for j in range(i, len(elems)):
            a, a2 = elems[i], elems[j]
            if i == j:
                wits.append((a, a2, a, 1, 1))
                continue
            cross1 = a.numerator * a2.denominator
            cross2 = a2.numerator * a.denominator
            g = gcd(cross1, cross2)
            # c must be a multiple of step or c' = a2*c/a is not integral
            step, ratio = cross1 // g, cross2 // g
            c, c2 = step, ratio
            found = None
            while c <= search_bound:
                if (c == 1 or cone.monoid.contains(c)) and (
                    c2 == 1 or cone.monoid.contains(c2)
                ):
                    b = a / c
                    if cone.member(b):
                        found = (a, a2, b, c, c2)
                        break
                c += step
                c2 += ratio
            if found is None:
                unres.append((a, a2))
            else:
                wits.append(found)
    return free, not unres, tuple(wits), tuple(unres)


def reference_member_decision(s, sieve, div_bound=10_000, factor_bound=10_000):
    cands = [n for n in range(1, factor_bound + 1) if sieve.contains(n)]
    last = None

    def completes(c, nfac):
        need = dict(factorize(c))
        for q, e in nfac.items():
            need[q] = need.get(q, 0) + e
        return all(e <= s.exps.value_at(q) for q, e in need.items())

    for n in range(1, div_bound + 1):
        if not int_divides(n, s):
            continue
        nfac = dict(factorize(n))
        if last is not None and completes(last, nfac):
            continue
        for c in cands:
            if completes(c, nfac):
                last = c
                break
        else:
            return False, n
    return True, None


def reference_chain_elements(chain, num_bound, den_bound):
    seen = set()
    for l in chain.levels():
        for c in chain.monoid.members_upto(num_bound * l):
            q = Fraction(c, l)
            if q.numerator <= num_bound and q.denominator <= den_bound:
                seen.add(q)
    return tuple(sorted(seen))


def reference_chain_member(chain, q):
    for l in chain.levels():
        x = q * l
        if x.denominator == 1 and x >= 1 and chain.monoid.contains(int(x)):
            return True
    return False


def reference_chain_stages(monoid, seeds, search_bound):
    seeds = [Fraction(q) for q in seeds]
    scale = 1 / seeds[0]
    chain = []

    def covered(q):
        for l in [1] + chain:
            x = q * l
            if x.denominator == 1 and x >= 1 and (x == 1 or monoid.contains(int(x))):
                return True
        return False

    for q in [q * scale for q in seeds]:
        if covered(q):
            continue
        base = chain[-1] if chain else 1
        step = base * q.denominator // gcd(base, q.denominator)
        t = step
        while t <= search_bound:
            grow = t // base
            lifted = q * t
            if t != base and (grow == 1 or monoid.contains(grow)):
                if lifted == 1 or monoid.contains(int(lifted)):
                    chain.append(t)
                    break
            t += step
        else:
            return q / scale
    return tuple(chain)


@st.composite
def families(draw):
    m = draw(st.integers(1, 60))
    classes = frozenset(draw(st.sets(st.sampled_from(unit_residues(m)))))
    include = frozenset(draw(st.sets(st.sampled_from(PRIMES_TO_100), max_size=3)))
    exclude = frozenset(draw(st.sets(st.sampled_from(PRIMES_TO_100), max_size=3))) - include
    primes = PrimeSet(m, classes, include, exclude)
    k = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    exp = ExpMap(
        k,
        {r: draw(st.integers(1, 3)) for r in unit_residues(k)},
        {p: draw(st.integers(1, 3)) for p in (2, 3) if k % p == 0},
    )
    return Family(draw(st.sampled_from((1, 1, 2, 3, 4, 6, 10))), primes, exp)


@st.composite
def proper_sieves(draw):
    gens = tuple(draw(st.lists(st.integers(2, 60), max_size=3)))
    fams = tuple(draw(st.lists(families(), max_size=2)))
    return Sieve(gens, fams)


@st.composite
def pair_cones(draw, monoids=proper_sieves()):
    """A pair's cone: wide denominators, a scale of primes below 15."""
    monoid = draw(monoids)
    num, den = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    dens = draw(wide_supernaturals())
    scale = 1
    for p in draw(st.sets(st.sampled_from(PRIMES_TO_100[:6]), max_size=2)):
        if dens.exponent(p) == 0:
            scale *= p
    return TruncatedCone.from_pair(BZPair(scale, dens), monoid, num * scale, den)


@st.composite
def cones(draw):
    monoid = draw(proper_sieves() | st.just(Sieve.full()))
    kind = draw(st.sampled_from(("pair", "chain", "elements")))
    if kind == "pair":
        return draw(pair_cones(st.just(monoid)))
    num, den = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    if kind == "chain":
        stages, c = [], 1
        for f in draw(st.lists(st.integers(2, 4), max_size=2)):
            c *= f
            stages.append(c)
        return TruncatedCone.from_chain(ChainPoint(tuple(stages), monoid), num, den)
    elems = draw(
        st.lists(st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
                 min_size=1, max_size=8)
    )
    return TruncatedCone.from_elements(elems, monoid, num, den)


def walked(report, bound):
    """Candidates walked, counted from the report alone."""
    total = 0
    for a, a2, _b, c, _c2 in report.witnesses:
        cross1, cross2 = a.numerator * a2.denominator, a2.numerator * a.denominator
        total += c // (cross1 // gcd(cross1, cross2)) if a != a2 else 1
    for a, a2 in report.unresolved:
        cross1, cross2 = a.numerator * a2.denominator, a2.numerator * a.denominator
        total += bound // (cross1 // gcd(cross1, cross2))
    return total


# a small table cap sends the walks past their tables, as a large bound would
caps = st.sampled_from((oracle.TABLE_CAP, 2, 16, 64))


@WALK
@given(cones(), st.integers(0, 400), caps)
def test_point_conditions_match_reference(cone, bound, cap):
    with patch.object(oracle, "TABLE_CAP", cap):
        rep = check_point_conditions(cone, bound)
    got = (rep.free, rep.rank_one.verified, rep.rank_one.witnesses, rep.rank_one.unresolved)
    assert got == reference_point_conditions(cone, bound)
    assert rep.rank_one.steps == walked(rep.rank_one, bound)


def all_primes_family(cofactor, exp):
    return Family(cofactor, PrimeSet.all_primes(), ExpMap(1, {0: exp}, {}))


@WALK
@given(wide_supernaturals(), proper_sieves(), st.integers(0, 300), st.integers(0, 300))
# instances 2*p^2 past the divisor bound; 8 | s, but no instance completes it
@example(Supernatural.from_exponents({2: 3, 3: INF, 5: 1}),
         Sieve((), (all_primes_family(2, 2),)), 40, 300)
# the factor bound stops below the only generator
@example(Supernatural.from_exponents({2: INF}), Sieve.of(4), 50, 3)
# no instance p divides s = 1
@example(Supernatural.one(), Sieve((), (all_primes_family(1, 1),)), 300, 300)
def test_member_decision_matches_reference(s, sieve, div_bound, factor_bound):
    ev = verify_member_decision(s, sieve, div_bound, factor_bound)
    assert (ev.consistent, ev.witness) == reference_member_decision(
        s, sieve, div_bound, factor_bound
    )


@WALK
@given(proper_sieves() | st.just(Sieve.full()), st.lists(st.integers(2, 4), max_size=2),
       st.integers(1, 5), st.integers(1, 30), st.lists(
           st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12),
           max_size=6), caps)
def test_chain_walks_match_reference(monoid, factors, num, den, probes, cap):
    stages, c = [], 1
    for f in factors:
        c *= f
        stages.append(c)
    chain = ChainPoint(tuple(stages), monoid)
    cone = TruncatedCone.from_chain(chain, num, den)
    assert cone.elements == reference_chain_elements(chain, num, den)
    for q in probes:
        assert cone.member(q) == reference_chain_member(chain, q)
    if probes:
        want = reference_chain_stages(monoid, probes, 200)
        try:
            with patch.object(oracle, "TABLE_CAP", cap):
                got = chain_from_points(monoid, probes, 200).stages
        except ConstructionStuck as exc:
            got = exc.seed
        assert got == want


@WALK
@given(proper_sieves() | st.just(Sieve.full()), st.integers(-2, 400))
def test_membership_table_matches_contains(sieve, bound):
    members = [n for n in range(1, bound + 1) if sieve.contains(n)]
    assert sieve.members_upto(bound) == members
    window = sieve.membership_window(1, bound, 1)
    assert window == bytearray(sieve.contains(n) for n in range(1, bound + 1))
    # every small bound too, so an instance at the bound itself is met
    for b in range(min(bound, 60)):
        assert sieve.members_upto(b) == [n for n in members if n <= b]


# a cap of 3 sends every family of a strided window to the per-value test
@WALK
@given(proper_sieves(), st.integers(1, 500), st.integers(0, 80), st.integers(1, 40),
       st.sampled_from((sieve_module.TABLE_CAP, 3)))
def test_membership_window_matches_contains(sieve, lo, count, stride, cap):
    with patch.object(sieve_module, "TABLE_CAP", cap):
        window = sieve.membership_window(lo, count, stride)
    assert window == bytearray(sieve.contains(lo + k * stride) for k in range(count))


def test_negative_walk_leaves_factorize_cache_alone():
    # criterion 7's negative case at its full bound, on the window {1/9, 1/3, 1}
    pair = BZPair(1, Supernatural.from_exponents({3: INF}))
    cone = TruncatedCone.from_pair(pair, Sieve.of(2), 1, 9)
    before = factorize.cache_info().currsize
    report = check_point_conditions(cone, search_bound=200_000)
    assert not report.verified()
    assert factorize.cache_info().currsize == before


def test_large_bounds_cost_what_the_walk_uses():
    # each walk stops at once; none may first build a table of its bound
    tracemalloc.start()
    try:
        cone = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 2, 4)
        assert check_point_conditions(cone, search_bound=10**8).verified()
        c = chain_from_points(Sieve.full(), [1, Fraction(1, 2)], search_bound=10**8)
        assert c.stages == (2,)
        ev = verify_member_decision(Supernatural.from_int(2), Sieve.of(4), div_bound=10**8)
        assert (ev.consistent, ev.witness) == (False, 1)
        ev = verify_member_decision(
            Supernatural.from_exponents({2: INF}), Sieve.of(4), factor_bound=10**7
        )
        assert (ev.consistent, ev.witness) == (True, None)
        assert tracemalloc.get_traced_memory()[1] < 4 * oracle.TABLE_CAP
    finally:
        tracemalloc.stop()


def test_rank_one_steps_frozen():
    # (1/2, 1): step 1, ratio 2, and c = 1 is allowed: c' = 2, b = 1/2
    cone = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 1, 4)
    rep = check_point_conditions(cone, search_bound=50).rank_one
    assert (Fraction(1, 2), Fraction(1), Fraction(1, 2), 1, 2) in rep.witnesses
    # every one of the six pairs takes its first candidate
    assert len(rep.witnesses) == 6 and rep.steps == 6
    stuck = check_point_conditions(
        TruncatedCone.from_pair(BZPair(1, Supernatural.from_exponents({3: INF})), Sieve.of(2), 1, 3),
        search_bound=30,
    ).rank_one
    # (1/3, 1): step 1, so all 30 candidates, plus the two diagonal ones
    assert stuck.unresolved == ((Fraction(1, 3), Fraction(1)),) and stuck.steps == 32
    # a negative bound walks no candidate: only the two diagonal steps
    none = check_point_conditions(
        TruncatedCone.from_pair(BZPair(1, Supernatural.from_exponents({3: INF})), Sieve.of(2), 1, 3),
        search_bound=-5,
    ).rank_one
    assert none.unresolved == stuck.unresolved and none.steps == 2


# ------------------------------------------------------ membership windows
#
# The rank-one walk reads its candidates out of strided membership windows
# that double in length up to TABLE_CAP.  Pair cones over a single prime
# power have few elements and ratios up to 2 * 5^4, so their long walks
# cross several windows at the bounds drawn here, and a patched cap holds
# the windows short.


@st.composite
def far_cones(draw):
    # over sieve(16), sieve(81) or sieve(125) the first c in the monoid
    # lies past the first slice of 64 candidates
    gens = st.sampled_from((2, 3, 6, 16, 81, 125)).map(Sieve.of)
    monoid = draw(proper_sieves() | gens)
    p = draw(st.sampled_from((2, 3, 5)))
    dens = Supernatural.from_exponents({p: draw(st.sampled_from((1, 3, INF)))})
    num, den = draw(st.integers(1, 2)), p ** draw(st.integers(1, 4))
    return TruncatedCone.from_pair(BZPair(1, dens), monoid, num, den)


LATE = TruncatedCone.from_pair(
    BZPair(1, Supernatural.from_exponents({3: INF})), Sieve.of(81), 2, 27
)
# descending elements: every off-diagonal pair then has step > ratio, and
# with a cap of 64, c leaves the table before c' does; (1, 1/3) over
# sieve(27) is first witnessed at c = 81, c' = 27
ETAL = TruncatedCone(LATE.elements[::-1], Sieve.of(27), 2, 27, LATE.predicate)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(far_cones(), st.integers(0, 400), caps)
# (1/3, 1) over sieve(81) is first witnessed at c = 81, in the second slice
@example(LATE, 400, oracle.TABLE_CAP)
@example(LATE, 400, 64)
@example(ETAL, 400, 64)
def test_long_walks_match_reference(cone, bound, cap):
    with patch.object(oracle, "TABLE_CAP", cap):
        rep = check_point_conditions(cone, bound)
    got = (rep.free, rep.rank_one.verified, rep.rank_one.witnesses, rep.rank_one.unresolved)
    assert got == reference_point_conditions(cone, bound)
    assert rep.rank_one.steps == walked(rep.rank_one, bound)


def window_lengths(longest=None):
    """Patch membership_window to record the length of every window read,
    failing at once on a window longer than longest."""
    lengths = []
    real = Sieve.membership_window

    def spy(self, lo, count, stride):
        assert longest is None or count <= longest, f"a window of {count} values"
        lengths.append(count)
        return real(self, lo, count, stride)

    return lengths, patch.object(Sieve, "membership_window", spy)


def test_negative_walk_reads_only_bounded_windows():
    # (1, 3^inf) over the multiples of the primes 1 mod 4, on the window
    # {1/9, 1/3, 1}: the family's cofactor 1 leaves no period to read, so
    # every pair walks all 10,000 candidates out of windows, none longer
    # than the cap, and no value is left for Sieve.contains
    pair = BZPair(1, Supernatural.from_exponents({3: INF}))
    primes = PrimeSet(4, frozenset({1}), frozenset(), frozenset())
    monoid = Sieve((), (Family(1, primes, ExpMap(1, {0: 1}, {})),))
    cone = TruncatedCone.from_pair(pair, monoid, 1, 9)
    lengths, spy = window_lengths()
    with spy, patch.object(oracle, "TABLE_CAP", 1_000), patch.object(
        Sieve, "contains", autospec=True, side_effect=Sieve.contains
    ) as calls:
        report = check_point_conditions(cone, search_bound=10_000)
    assert calls.call_count == 0
    assert len(report.rank_one.unresolved) == 3 and report.rank_one.steps == 3 + 3 * 10_000
    # members_upto(200) for freeness, then the walk's windows: two per
    # span of 64, 128, 256, 512, then 1,000 at a time up to 10,000
    assert lengths[0] == 200 and max(lengths[1:]) == 1_000
    assert sum(lengths[1:]) == 3 * 2 * 10_000
    # criterion 7's negative case over sieve(2) on the same window: each
    # pair reads its first two windows, then one period of k, 2, for c and
    # for c' (k even for c in sieve(2), k odd for b's denominator), and no
    # more
    cone = TruncatedCone.from_pair(pair, Sieve.of(2), 1, 9)
    lengths, spy = window_lengths()
    with spy, patch.object(
        Sieve, "contains", autospec=True, side_effect=Sieve.contains
    ) as calls:
        again = check_point_conditions(cone, search_bound=10_000)
    assert again.rank_one == report.rank_one and calls.call_count == 0
    assert lengths == [200] + [64, 64, 2, 2] * 3


def test_first_candidate_witness_reads_only_the_first_windows():
    # (1/256, 1): step 1, ratio 256 > 64; c = 1 and c' = 256 already witness
    # it, so every pair reads its first two windows of 64 candidates and no
    # more
    cone = TruncatedCone.from_pair(pow2_pair(), Sieve.of(2), 1, 256)
    lengths, spy = window_lengths()
    with spy:
        rep = check_point_conditions(cone, search_bound=2_000).rank_one
    assert (Fraction(1, 256), Fraction(1), Fraction(1, 256), 1, 256) in rep.witnesses
    # 9 elements, 36 pairs
    assert rep.verified and lengths == [200] + [64] * 2 * 36


# ------------------------------------------------------- the period proof
#
# A pair's walk with no witness in its first windows stops there when one
# period of k shows that no k >= 2 can serve (oracle._closed).  The proof
# is checked here against the plain walk beyond the period, and against
# member: a pair with no witness at any bound means the cone is no point.


def closed_pairs(cone, bound):
    """The (a, a2, step, ratio) of the cone whose walk to the bound the
    period test proves empty past k = 1."""
    out = []
    for i, a in enumerate(cone.elements):
        for a2 in cone.elements[i + 1 :]:
            cross1, cross2 = a.numerator * a2.denominator, a2.numerator * a.denominator
            g = gcd(cross1, cross2)
            step, ratio = cross1 // g, cross2 // g
            if oracle._closed(cone, a, step, ratio, bound // step):
                out.append((a, a2, step, ratio))
    return out


CRITERION_7_NEGATIVE = TruncatedCone.from_pair(
    BZPair(1, Supernatural.from_exponents({3: INF})), Sieve.of(2), 4, 720
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pair_cones())
@example(CRITERION_7_NEGATIVE)
# (9, 9/2) over sieve(6): step 2, ratio 1, so 6 | k, and the scale 3 divides
# b = 9/(2k) only while 9 does not divide k; k = 6 is a witness
@example(TruncatedCone.from_pair(BZPair(3, pow2_pair().denominators), Sieve.of(6), 9, 2))
def test_closed_pairs_have_no_witness(cone):
    pair, monoid = cone.pair, cone.monoid
    closed = closed_pairs(cone, 3_000)
    for a, a2, step, ratio in closed:
        for k in range(2, 3_000 // step + 1):
            c, c2 = k * step, k * ratio
            assert not (
                monoid.contains(c) and monoid.contains(c2) and cone_contains(pair, a / c)
            ), (str(pair), str(monoid), a, a2, k)
    if closed:
        assert not member(pair.denominators, monoid), (str(pair), str(monoid))


def test_huge_finite_exponent_closes_at_once():
    # 2^(2**70) is a finite exponent: the walks compare it, never raise 2 to it
    huge = Supernatural.from_exponents({2: 2**70, 3: INF})
    cone = TruncatedCone.from_pair(BZPair(1, huge), Sieve.of(2), 1, 9)
    rep = check_point_conditions(cone, search_bound=10**6).rank_one
    assert rep.verified and rep.steps == walked(rep, 10**6)
    # over sieve(6), (1/5, 1) needs 6 | k for c and 3 not dividing k for
    # b = 1/(5k), so no pair ever has a witness; the period test leaves out
    # the 2-adic condition, whose period 2^(2**70 + 1) is past the cap
    huge = Supernatural.from_exponents({2: 2**70, 5: INF})
    cone = TruncatedCone.from_pair(BZPair(1, huge), Sieve.of(6), 1, 25)
    lengths, spy = window_lengths()
    with spy:
        rep = check_point_conditions(cone, search_bound=10**6).rank_one
    assert len(rep.unresolved) == len(cone.elements) * (len(cone.elements) - 1) // 2
    assert rep.steps == walked(rep, 10**6)
    assert not member(huge, Sieve.of(6))
    # each pair reads its first two windows and two masks of one period, 6
    assert sum(lengths[1:]) == len(rep.unresolved) * (2 * 64 + 2 * 6)


def test_criterion_7_negative_cone_at_a_huge_bound():
    # 63 pairs of the window have no witness at any bound; every pair reads
    # its first two windows of 64, and each open one a period of 2 for c and
    # for c', so a walk towards the bound fails at its first longer window
    bound = 10**12
    lengths, spy = window_lengths(longest=200)
    with spy:
        rep = check_point_conditions(CRITERION_7_NEGATIVE, search_bound=bound).rank_one
    assert len(rep.unresolved) == 63 and not rep.verified
    assert rep.steps == walked(rep, bound)
    n = len(CRITERION_7_NEGATIVE.elements)
    assert lengths[0] == 200 and sum(lengths[1:]) == 128 * n * (n - 1) // 2 + 4 * 63
