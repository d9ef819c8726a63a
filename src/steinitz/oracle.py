"""Brute-force evidence for the symbolic decision procedures.

Everything in this module works by bounded enumeration over ordinary
integers and fractions, independently of the classwise algebra, so its
verdicts can confront the closed-form answers in tests.  Bounded means
bounded: a Consistent or Verified verdict is evidence at the stated
bounds, not a proof, and refutations always carry a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Callable, Iterator, Mapping, Sequence

from ._primes import factorize, power_upto, primes_upto
from .cones import BZPair, cone_enumerate
from .errors import ConstructionStuck
from .sieve import Sieve
from .supernat import INF, Exp, Supernatural, divides_exponents
from .topology import PointClass, _as_supernatural


@dataclass(frozen=True)
class ChainPoint:
    """A divisor chain c1 | c2 | ... over a monoid of integers.

    Denotes the union of the monoid's sets of fractions at each level:
    the members themselves, then members over c1, then over c2, and so
    on.  The stages need not belong to the monoid.
    """

    stages: tuple[int, ...]
    monoid: Sieve

    def __post_init__(self):
        prev = 1
        for c in self.stages:
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"stage must be a positive integer, got {c!r}")
            if c % prev != 0:
                raise ValueError(f"stage {c} is not a multiple of {prev}")
            prev = c

    def levels(self) -> tuple[int, ...]:
        return (1,) + self.stages


@dataclass(frozen=True, eq=False)
class TruncatedCone:
    """A bounded window onto a set of positive rationals.

    elements lists every member whose reduced numerator and denominator
    fit the bounds; membership beyond the window is answered by the
    carried predicate (rank-one witnesses routinely fall outside), which
    takes a reduced fraction as its numerator and denominator ints.
    """

    elements: tuple[Fraction, ...]
    monoid: Sieve
    num_bound: int
    den_bound: int
    predicate: Callable[[int, int], bool] = field(repr=False, compare=False)

    def member(self, q: Fraction) -> bool:
        q = Fraction(q)
        return self.predicate(q.numerator, q.denominator)

    @classmethod
    def from_pair(
        cls, pair: BZPair, monoid: Sieve, num_bound: int, den_bound: int
    ) -> "TruncatedCone":
        """The window of the pair's cone.  Beyond it, u/v is a member when
        the scale divides u and v divides the denominators, found by
        trial division of v (divides_exponents, as cone_enumerate tests
        each denominator) once v's power of 2 fits the denominators'
        exponent at 2, read once per cone; the predicate keeps no state.
        """
        elems = cone_enumerate(pair, num_bound, den_bound)
        scale, exp = pair.scale, pair.denominators.exps.value_at
        two = exp(2)

        def mem(u: int, v: int) -> bool:
            if u <= 0:
                raise ValueError(f"need a positive rational, got {Fraction(u, v)}")
            return (
                u % scale == 0
                and (v & -v).bit_length() - 1 <= two
                and divides_exponents(v, exp)
            )

        return cls(elems, monoid, num_bound, den_bound, mem)

    @classmethod
    def from_chain(
        cls, chain: ChainPoint, num_bound: int, den_bound: int
    ) -> "TruncatedCone":
        """The window of the chain's union of levels, read off one
        membership table of the monoid up to num_bound times the top
        level; the predicate keeps that table and asks Sieve.contains,
        unmemoized, about larger values."""
        levels = chain.levels()
        has = _Lookup(chain.monoid, num_bound * levels[-1], memo=False)
        seen = set()
        for l in levels:
            for c in compress(range(num_bound * l + 1), has.table):
                g = gcd(c, l)
                if c // g <= num_bound and l // g <= den_bound:
                    seen.add((c // g, l // g))

        def mem(u: int, v: int) -> bool:
            return u > 0 and any(u * l % v == 0 and has(u * l // v) for l in levels)

        elems = tuple(sorted(Fraction(u, v) for u, v in seen))
        return cls(elems, chain.monoid, num_bound, den_bound, mem)

    @classmethod
    def from_elements(
        cls, elems: Sequence[Fraction], monoid: Sieve, num_bound: int, den_bound: int
    ) -> "TruncatedCone":
        s = frozenset(Fraction(e) for e in elems)
        pairs = frozenset((q.numerator, q.denominator) for q in s)
        return cls(
            tuple(sorted(s)), monoid, num_bound, den_bound, lambda u, v: (u, v) in pairs
        )


@dataclass(frozen=True)
class RankOneReport:
    """Per-pair witnesses that any two elements share a lower element.

    steps counts the candidates c walked over all pairs: c // step for a
    pair with a witness (1 on the diagonal), search_bound // step for an
    unresolved one (none for a negative bound).
    """

    verified: bool
    witnesses: tuple[tuple[Fraction, Fraction, Fraction, int, int], ...]
    unresolved: tuple[tuple[Fraction, Fraction], ...]
    steps: int


@dataclass(frozen=True)
class PointReport:
    free: bool
    rank_one: RankOneReport

    def verified(self) -> bool:
        return self.free and self.rank_one.verified


def check_point_conditions(
    cone: TruncatedCone, search_bound: int = 10_000
) -> PointReport:
    """Search for the flatness witnesses that make the cone a point.

    Freeness: distinct monoid elements must move an element to distinct
    places (sampled; it always holds for positive rationals, but the
    check is honest).  Rank one: for every ordered pair (a, a') of
    elements there must be b in the cone and monoid-or-one factors
    c, c' with a = b*c and a' = b*c'.  The witness search walks the
    forced arithmetic progression for c smallest-first, so reports are
    deterministic; pairs with no witness within the budget are listed
    as unresolved, not failed.

    The walk order and the report are those of the plain walk over
    Fractions and Sieve.contains; only the work per step is less.  The
    walk is in integers over one membership table of the monoid, first
    of search_bound bytes (at most TABLE_CAP).  While c and c' both lie
    in the table, the candidates are read out of two strided slices of
    it, ANDed as ints, and only those with both factors in the
    monoid-or-one send b = a/c to the cone's predicate, as a reduced
    numerator and denominator (_first_pair).  When c' leaves the table,
    the table grows by doubling, up to TABLE_CAP; values past that go
    to Sieve.contains one step at a time (through a memo kept for this
    call when the monoid has families).  Only those values, in a monoid
    with families, reach the global factorize cache.
    """
    elems = cone.elements
    ms = cone.monoid.members_upto(200)[:8]
    # a*c and a*c' share a's denominator, so compare numerators
    free = all(
        a.numerator * c != a.numerator * cp
        for a in elems[:8]
        for i, c in enumerate(ms)
        for cp in ms[i + 1 :]
    )
    ok = _Lookup(cone.monoid, min(search_bound, TABLE_CAP), one=True)
    test = cone.predicate
    wits = []
    unres = []
    steps = 0
    for i, a in enumerate(elems):
        an, ad = a.numerator, a.denominator
        wits.append((a, a, a, 1, 1))
        steps += 1
        for a2 in elems[i + 1 :]:
            cross1 = an * a2.denominator
            cross2 = a2.numerator * ad
            g = gcd(cross1, cross2)
            # c must be a multiple of step or c' = a2*c/a is not integral
            step, ratio = cross1 // g, cross2 // g
            found = _first_pair(ok, step, ratio, search_bound // step, an, ad, test)
            if found is None:
                unres.append((a, a2))
                steps += max(search_bound, 0) // step
            else:
                c, c2 = found
                g = gcd(an, c)
                wits.append((a, a2, Fraction(an // g, ad * c // g), c, c2))
                steps += c // step
    report = RankOneReport(not unres, tuple(wits), tuple(unres), steps)
    return PointReport(free, report)


@dataclass(frozen=True)
class MemberEvidence:
    """Outcome of the divisor-completion scan; witness is the failing divisor."""

    consistent: bool
    witness: int | None


def verify_member_decision(
    x: PointClass | Supernatural,
    sieve: Sieve,
    div_bound: int = 10_000,
    factor_bound: int = 10_000,
) -> MemberEvidence:
    """Confront a membership claim with bounded divisor completion.

    The point of a proper sieve contains the class of s only if every
    integer divisor n of s completes to c*n dividing s for some c in
    the sieve.  Scanning n ascending and witnesses c ascending keeps
    the refuting divisor, when one exists within the bounds, the
    smallest one.

    The scan order and the evidence are those of the plain scan that
    factors every n and c.  The divisors of s come from a table of
    factor_bound bytes, cleared at the multiples of p^(e+1) for each
    prime p of finite exponent e in s, and past it from tables of
    doubling size, as far as the scan gets.  When the last completing
    c fails for n, n is factored (once, by trial division) and the next
    c is read off a copy of the first table cleared at the multiples of
    p^(e-k+1) for each p^k exactly dividing n.  The candidates come
    from the sieve's membership table and s's exponents from a memo
    kept for this call; no global cache is used.
    """
    s = _as_supernatural(x)
    if sieve.contains(1):
        raise ValueError("the full sieve admits every point; nothing to check")
    cands = sieve.members_upto(factor_bound)
    exp = _Memo(s.exps.value_at)
    divides = _divisor_table(max(factor_bound, 1), exp)
    last: int | None = None
    last_fac: tuple[tuple[int, int], ...] = ()

    def completes(n: int) -> bool:
        # n | s already, so c*n | s holds iff it holds at the primes of c
        for q, e in last_fac:
            while n % q == 0:
                n //= q
                e += 1
            if e > exp[q]:
                return False
        return True

    for n in _divisors(div_bound, exp, divides):
        if last is not None and completes(n):
            continue
        room = divides[: factor_bound + 1]
        for q, k in _factor(n):
            e = exp[q]
            if e != INF and (d := power_upto(q, e - k + 1, factor_bound)):
                _strike(room, d)
        last = next((c for c in cands if room[c]), None)
        if last is None:
            return MemberEvidence(False, n)
        last_fac = _factor(last)
    return MemberEvidence(True, None)


def additively_closed(cone: TruncatedCone) -> bool:
    """Are all in-window pairwise sums themselves listed?"""
    have = set(cone.elements)
    elems = cone.elements
    for i in range(len(elems)):
        for j in range(i, len(elems)):
            q = elems[i] + elems[j]
            if (
                q.numerator <= cone.num_bound
                and q.denominator <= cone.den_bound
                and q not in have
            ):
                return False
    return True


def chain_from_points(
    monoid: Sieve, seeds: Sequence[Fraction], search_bound: int = 10_000
) -> ChainPoint:
    """Grow a divisor chain whose levels absorb all the seeds.

    The first seed is rescaled to 1; each later uncovered seed extends
    the chain by the smallest multiple of the current stage that both
    divides into the monoid-or-one and turns the seed into a
    monoid-or-one numerator.  Deterministic by the smallest-first walk,
    which runs in integers over one membership table of search_bound
    bytes (at most TABLE_CAP); values beyond it are looked up as in
    check_point_conditions.
    """
    seeds = [Fraction(q) for q in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    for q in seeds:
        if q <= 0:
            raise ValueError(f"need positive seeds, got {q}")
    has = _Lookup(monoid, min(search_bound, TABLE_CAP), one=True)
    first = seeds[0]
    chain: list[int] = []
    for seed in seeds:
        q = seed / first
        u, v = q.numerator, q.denominator
        if any(u * l % v == 0 and has(u * l // v) for l in [1] + chain):
            continue
        base = chain[-1] if chain else 1
        step = base * v // gcd(base, v)
        for t in range(step, search_bound + 1, step):
            if t != base and has(t // base) and has(u * (t // v)):
                chain.append(t)
                break
        else:
            raise ConstructionStuck(seed)
    return ChainPoint(tuple(chain), monoid)


# plain trial division: the walks factor rarely and must not fill the
# global factorize cache
_factor = factorize.__wrapped__

# The largest table a walk builds up front.  A walk may stop at its first
# candidate, so a large search bound must not cost its size in memory
# before the first step; values above the table are looked up one by one.
TABLE_CAP = 1 << 20


class _Memo(dict):
    """The values of fn, each computed on first lookup."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Lookup:
    """Sieve membership for one walk: a table up to bound (at least 1).

    A walk that needs more asks the table to grow (grow), which rebuilds
    it by doubling, up to TABLE_CAP.  Above the table, values go to
    Sieve.contains: through a memo kept for the walk when the sieve has
    families and memo is set, directly otherwise (without families,
    contains only tests the generators).  With one=True, 1 counts as a
    member too (the walks' monoid-or-one), in every table built.
    """

    def __init__(self, sieve: Sieve, bound: int, one: bool = False, memo: bool = True):
        self.sieve, self.one = sieve, one
        self._build(max(bound, 1))
        if memo and sieve.families:
            self.above = _Memo(sieve.contains).__getitem__
        else:
            self.above = sieve.contains

    def _build(self, bound: int) -> None:
        self.bound = bound
        self.table = self.sieve.membership_table(bound)
        if self.one:
            self.table[1] = 1

    def grow(self, need: int, most: int) -> bool:
        """Rebuild the table up to need or more: twice its bound, but no
        more than most or TABLE_CAP.  False, with the table as it was,
        when need is past TABLE_CAP."""
        if need > TABLE_CAP:
            return False
        self._build(min(max(2 * self.bound, need), most, TABLE_CAP))
        return True

    def __call__(self, n: int) -> bool:
        return self.table[n] if n <= self.bound else self.above(n)


# The candidates a rank-one walk reads in its first pair of table slices;
# each later pair is twice as long, so a walk that stops early reads little.
_FIRST_SLICE = 64


def _first_pair(
    ok: _Lookup,
    step: int,
    ratio: int,
    count: int,
    an: int,
    ad: int,
    test: Callable[[int, int], bool],
) -> tuple[int, int] | None:
    """The first (c, c') = (j*step, j*ratio), j = 1 .. count, with c and c'
    in ok and an/(ad*c) accepted by test (given reduced), or None.

    While c and c' both lie in ok's table, the candidates are read out
    of the strided slices table[j*step::step] and table[j*ratio::ratio]:
    ANDed as ints (SWAR, Lamport, CACM 1975), they leave a byte set at
    each j with both factors in ok, and only those j reach test, in
    ascending order.  When c' (or c) leaves the table, the table grows
    to cover it; past TABLE_CAP the walk goes on one step at a time,
    with ok.above for the values above the table.
    """
    hi = max(step, ratio)
    j, span = 1, _FIRST_SLICE
    while j <= count:
        last = min(count, ok.bound // hi, j + span - 1)
        if last < j:
            if ok.grow(j * hi, count * hi):
                continue
            break
        table = ok.table
        both = int.from_bytes(table[j * step : last * step + 1 : step], "little") & (
            int.from_bytes(table[j * ratio : last * ratio + 1 : ratio], "little")
        )
        if both:
            for k in compress(range(j, last + 1), both.to_bytes(last - j + 1, "little")):
                c = k * step
                g = gcd(an, c)
                if test(an // g, ad * c // g):
                    return c, k * ratio
        j, span = last + 1, 2 * span
    table, top, above = ok.table, ok.bound, ok.above
    c2 = (j - 1) * ratio
    for c in range(j * step, count * step + 1, step):
        c2 += ratio
        if (table[c] if c <= top else above(c)) and (table[c2] if c2 <= top else above(c2)):
            g = gcd(an, c)
            if test(an // g, ad * c // g):
                return c, c2
    return None


def _strike(table: bytearray, d: int) -> None:
    """Clear the table at the multiples of d."""
    table[d::d] = bytes((len(table) - 1) // d)


def _divisor_table(bound: int, exp: Mapping[int, Exp]) -> bytearray:
    """table[n] == 1 iff n divides the supernatural number, for 1 <= n <= bound.

    Cleared at the multiples of p^(e+1) for each prime p <= bound of
    finite exponent e.  The exponents are read in one pass over the
    primes, and every strike copies its zeros out of one buffer.
    """
    table = bytearray(b"\x01") * (bound + 1)
    table[0] = 0
    zeros = bytearray(bound // 2)
    primes = primes_upto(bound)
    for p, e in zip(primes, map(exp.__getitem__, primes)):
        if e != INF and (d := power_upto(p, e + 1, bound)):
            table[d::d] = zeros[: bound // d]
    return table


def _divisors(bound: int, exp: Mapping[int, Exp], table: bytearray) -> Iterator[int]:
    """The n <= bound dividing the supernatural number, ascending.

    Read off the given divisor table first, then off tables of doubling
    size, so memory follows how far the scan gets, not the bound.
    """
    done = 0
    while done < bound:
        top = min(len(table) - 1, bound)
        yield from compress(range(done + 1, top + 1), memoryview(table)[done + 1 :])
        done = top
        if done < bound:
            table = _divisor_table(min(2 * done, bound), exp)
