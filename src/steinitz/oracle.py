"""Brute-force evidence for the symbolic decision procedures.

Everything in this module works by bounded enumeration over ordinary
integers and fractions, independently of the classwise algebra, so its
verdicts can confront the closed-form answers in tests.  Bounded means
bounded: a Consistent or Verified verdict is evidence at the stated
bounds, not a proof, and so is a refutation.  verify_member_decision
refutes with a divisor that no sieve member up to its factor bound
completes; a larger member may still complete it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from ._primes import factorize, power_upto, primes_upto
from .cones import BZPair, cone_enumerate
from .errors import ConstructionStuck
from .sieve import TABLE_CAP, Sieve
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
    takes a reduced fraction as its numerator and denominator ints.  A
    from_pair cone keeps its pair (else None) so walks may stop early.
    """

    elements: tuple[Fraction, ...]
    monoid: Sieve
    num_bound: int
    den_bound: int
    predicate: Callable[[int, int], bool] = field(repr=False, compare=False)
    pair: BZPair | None = field(default=None, repr=False, compare=False)

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

        return cls(elems, monoid, num_bound, den_bound, mem, pair)

    @classmethod
    def from_chain(
        cls, chain: ChainPoint, num_bound: int, den_bound: int
    ) -> "TruncatedCone":
        """The window of the chain's union of levels, read off one
        membership window of the monoid over 1 .. num_bound times the top
        level; the predicate asks Sieve.contains."""
        levels, monoid = chain.levels(), chain.monoid
        has = monoid.membership_window(1, num_bound * levels[-1], 1)
        seen = set()
        for l in levels:
            for c in compress(range(1, num_bound * l + 1), has):
                g = gcd(c, l)
                if c // g <= num_bound and l // g <= den_bound:
                    seen.add((c // g, l // g))

        def mem(u: int, v: int) -> bool:
            return u > 0 and any(
                u * l % v == 0 and monoid.contains(u * l // v) for l in levels
            )

        elems = tuple(sorted(Fraction(u, v) for u, v in seen))
        return cls(elems, monoid, num_bound, den_bound, mem)

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
    unresolved one, walked or closed by a period (none for a negative bound).
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
    walk is in integers: the candidates c = k*step and c' = k*ratio are
    read out of two strided membership windows of the monoid, ANDed as
    ints, and only the k with both factors in the monoid-or-one send
    b = a/c to the cone's predicate, as a reduced numerator and
    denominator (_both_members).  The windows double in length up to
    TABLE_CAP, so memory stays bounded at any search bound and a walk
    that stops early reads little.  Only a monoid family too wide to
    sieve in a window sends values to the global factorize cache.  On a
    from_pair cone, a walk with no witness in its first windows stops
    there, unresolved, when one period of k proves it (_closed).
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
    monoid, test = cone.monoid, cone.predicate
    wits = []
    unres = []
    steps = 0
    for i, a in enumerate(elems):
        an, ad = a.numerator, a.denominator
        closed = cone.pair and partial(_closed, cone, a)
        wits.append((a, a, a, 1, 1))
        steps += 1
        for a2 in elems[i + 1 :]:
            cross1 = an * a2.denominator
            cross2 = a2.numerator * ad
            g = gcd(cross1, cross2)
            # c must be a multiple of step or c' = a2*c/a is not integral
            step, ratio = cross1 // g, cross2 // g
            walk = _both_members(monoid, step, ratio, search_bound // step, closed)
            for k in chain.from_iterable(walk):
                c = k * step
                g = gcd(an, c)
                if test(an // g, ad * c // g):
                    wits.append((a, a2, Fraction(an // g, ad * c // g), c, k * ratio))
                    steps += k
                    break
            else:
                unres.append((a, a2))
                steps += max(search_bound, 0) // step
    report = RankOneReport(not unres, tuple(wits), tuple(unres), steps)
    return PointReport(free, report)


@dataclass(frozen=True)
class MemberEvidence:
    """Outcome of the divisor-completion scan.

    witness is the least divisor n <= div_bound of s that no member
    c <= factor_bound of the sieve completes to c*n dividing s, or None:
    equally, that no generator g <= factor_bound (finite, or a family
    instance) completes, since g | c and g is itself a member.  A member
    past factor_bound may still complete it, so a refutation holds at
    the bounds, not beyond them.
    """

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
    the sieve.  Scanning n ascending keeps the refuting divisor, when
    one exists within the bounds, the smallest one.

    The evidence is that of the plain scan over the members c <=
    factor_bound, read through the generators g <= factor_bound instead
    (see MemberEvidence).  Those dividing s are read off the first
    divisor window, over 1 .. max(min(div_bound, factor_bound), largest
    generator); later divisors come from windows of doubling length, as
    far as the scan gets.  The generator that completed the last divisor
    is tried first, then each in turn; each is factored by trial division
    once, and no global cache is used.
    """
    s = _as_supernatural(x)
    if sieve.contains(1):
        raise ValueError("the full sieve admits every point; nothing to check")
    exp = s.exps.value_at
    gens = sieve._generators_upto(factor_bound, factor_bound)[0]
    divides = _divisor_window(1, max(min(div_bound, factor_bound), *gens, 1), exp)
    gens = [g for g in gens if divides[g - 1]]
    factor = cache(_factor)

    def completes(g: int, n: int) -> bool:
        # n | s already, so g*n | s holds iff it holds at the primes of g
        for q, e in factor(g):
            while n % q == 0:
                n //= q
                e += 1
            if e > exp(q):
                return False
        return True

    last: int | None = None
    for n in _divisors(div_bound, exp, divides):
        if last is None or not completes(last, n):
            last = next((g for g in gens if completes(g, n)), None)
            if last is None:
                return MemberEvidence(False, n)
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
    monoid-or-one numerator.  Deterministic by the smallest-first walk
    over the multiples t of that step, which reads t/base and u*t/v out
    of strided membership windows as check_point_conditions does.
    """
    seeds = [Fraction(q) for q in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    for q in seeds:
        if q <= 0:
            raise ValueError(f"need positive seeds, got {q}")
    first = seeds[0]
    stages: list[int] = []
    for seed in seeds:
        q = seed / first
        u, v = q.numerator, q.denominator
        if any(
            u * l % v == 0 and (u * l == v or monoid.contains(u * l // v))
            for l in [1] + stages
        ):
            continue
        base = stages[-1] if stages else 1
        step = base * v // gcd(base, v)
        # t = base never passes: its test is the coverage test at level base
        ks = chain.from_iterable(
            _both_members(monoid, step // base, u * step // v, search_bound // step)
        )
        k = next(ks, None)
        if k is None:
            raise ConstructionStuck(seed)
        stages.append(k * step)
    return ChainPoint(tuple(stages), monoid)


# plain trial division: the walks factor rarely and must not fill the
# global factorize cache
_factor = factorize.__wrapped__

# The values of k in a walk's first pair of membership windows; each later
# pair is twice as long, up to TABLE_CAP, so a walk that stops early reads
# little.
_FIRST_SLICE = 64


def _both_members(
    monoid: Sieve, x: int, y: int, count: int, closed: Callable[..., bool] | None = None
) -> Iterator[Iterator[int]]:
    """The k = 1 .. count with k*x and k*y both in the monoid-or-one,
    ascending, as one iterator per pair of windows.

    Each pair is two strided membership windows of the monoid (1 counts
    as a member), ANDed as ints (SWAR, Lamport, CACM 1975); a window is
    read only when the walk gets to it.  The walk stops after the first
    pair when closed(x, y, count) proves that no later k serves the caller.
    """

    def bits(lo: int, n: int, stride: int) -> int:
        window = monoid.membership_window(lo, n, stride)
        if lo == 1:
            window[0] = 1
        return int.from_bytes(window, "little")

    j, span = 1, _FIRST_SLICE
    while j <= count:
        n = min(span, TABLE_CAP, count - j + 1)
        both = bits(j * x, n, x) & bits(j * y, n, y)
        if both:
            yield compress(range(j, j + n), both.to_bytes(n, "little"))
        if j == 1 and closed and closed(x, y, count):
            return
        j, span = j + n, 2 * span


def _closed(cone: TruncatedCone, a: Fraction, step: int, ratio: int, count: int) -> bool:
    """True proves that no k in 2 .. count gives c = k*step, c' = k*ratio
    in the monoid and b = a/c in the cone of the pair.

    Three necessary conditions are periodic in k: c and c' are multiples
    of a generator or family cofactor; at each of their primes p where
    the denominators' exponent e_p is finite, b's denominator has at most
    e_p factors p; the scale divides b's numerator.  The last two read
    v_p(k) <= t = u + v_p(a's numerator) - v_p(step) for a (p, u) in
    limits, and fail on the multiples of p^(t+1) if it is <= TABLE_CAP.
    """
    divs = cone.monoid.finite_gens + tuple(f.cofactor for f in cone.monoid.families)
    period = lcm(*(g // gcd(g, x) for g in divs for x in (step, ratio)))
    if not divs or 1 in divs or period > TABLE_CAP:
        return False
    na, da, sa = (dict(_factor(x)) for x in (a.numerator, a.denominator, step))
    # each prime of a g divides g // gcd(g, step), hence the period, or step
    primes = {p for p, _ in _factor(period) + _factor(step) if any(g % p == 0 for g in divs)}
    exp = cone.pair.denominators.exps.value_at
    limits = [(q, -s) for q, s in _factor(cone.pair.scale)]
    limits += [(p, exp(p) - da.get(p, 0)) for p in primes if exp(p) != INF]
    ds = (power_upto(p, max(u + na.get(p, 0) - sa.get(p, 0) + 1, 0), TABLE_CAP) for p, u in limits)
    strikes = [d for d in ds if d]
    period = lcm(period, *strikes)
    if period > TABLE_CAP or period >= count:
        return False
    window = Sieve(divs).membership_window
    mask = window(step, period, step)
    for d in strikes:
        mask[d - 1 :: d] = bytes(period // d)
    both = int.from_bytes(mask, "little") & int.from_bytes(window(ratio, period, ratio), "little")
    return not both


def _divisor_window(lo: int, count: int, exp: Callable[[int], Exp]) -> bytearray:
    """window[i] == 1 iff lo + i divides the supernatural number, for
    0 <= i < count (lo >= 1).

    Cleared at the multiples of p^(e+1) for each prime p up to the top
    of finite exponent e.  The exponents are read in one pass over the
    primes, and every strike copies its zeros out of one buffer.
    """
    window = bytearray(b"\x01") * count
    top = lo + count - 1
    zeros = bytearray(count // 2 + 1)
    primes = primes_upto(top)
    for p, e in zip(primes, map(exp, primes)):
        if e != INF and (d := power_upto(p, e + 1, top)):
            start = -lo % d
            window[start::d] = zeros[: (count - 1 - start) // d + 1]
    return window


def _divisors(bound: int, exp: Callable[[int], Exp], window: bytearray) -> Iterator[int]:
    """The n <= bound dividing the supernatural number, ascending.

    Read off the given divisor window over 1 .. len(window) first, then
    off windows of doubling length over the next values, so memory
    follows how far the scan gets, not the bound.
    """
    lo, top = 1, min(len(window), bound)
    while True:
        yield from compress(range(lo, top + 1), window)
        if top >= bound:
            return
        lo, top = top + 1, min(2 * top, bound)
        window = _divisor_window(lo, top - lo + 1, exp)
