"""Points of the divisibility site and the opens that separate them.

A point is the equivalence class of a supernatural number under
"equal infinite part, finitely many finite disagreements".  A sieve S
determines a basic open whose members are decided here without any
enumeration: the class of s lies in the open of S exactly when

  (a) some finite generator's support sits inside the infinite support
      of s, or
  (b) some family's cofactor support sits inside it and the family's
      prime set meets it, or
  (c) some family's cofactor support sits inside it and the family
      exponent is, on infinitely many of the family's primes, at most
      the exponent of s.

Sufficiency: each case yields arbitrarily large products of members of
S all dividing s (case (a): powers of the generator; (b) and (c):
instances at ever-new primes).  Necessity: an infinite sequence of
members of S with product dividing s must reuse one generator or one
family infinitely often, forcing (a), (b), or (c) by pigeonhole on
where the instances' primes land.  Everything in sight only depends on
the infinite part of s up to finitely many primes, so membership is
invariant on the equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._primes import support
from .errors import NotIncomparable, NotSeparable
from .sieve import Family, Sieve
from .supernat import INF, ExpMap, PrimeSet, Supernatural, align, unit_residues


@dataclass(frozen=True, eq=False)
class PointClass:
    """A point: the class of a representative supernatural number."""

    rep: Supernatural

    def __eq__(self, other):
        if not isinstance(other, PointClass):
            return NotImplemented
        return self.rep.equivalent(other.rep)

    def __hash__(self):
        # equivalent representatives have the same canonical class values;
        # at the other primes they agree on whether the exponent is
        # infinite, so key on the primes where that departs from the class
        e = self.rep.exps
        m, values = e.modulus, e.class_values
        departs = frozenset(
            p
            for p, v in e.exceptions.items()
            if (v == INF) != (m % p != 0 and values[p % m] == INF)
        )
        return hash((m, e.values_hash, departs))

    def __str__(self) -> str:
        return f"[{self.rep}]"


def _as_supernatural(x) -> Supernatural:
    return x.rep if isinstance(x, PointClass) else x


def _exponent_class_fits(fam: Family, s: Supernatural) -> bool:
    # case (c): a whole residue class of the family's primes where the
    # family exponent does not exceed the exponent of s
    _, (inside, need, have), _ = align(fam.primes, fam.exponents, s.exps)
    return any(i and e <= v for i, e, v in zip(inside, need, have))


def member(x: PointClass | Supernatural, sieve: Sieve) -> bool:
    """Does the point lie in the basic open determined by the sieve?"""
    s = _as_supernatural(x)
    if sieve.contains(1):
        return True
    inf_supp = s.infinite_support()
    for g in sieve.finite_gens:
        if all(inf_supp.contains(p) for p in support(g)):
            return True
    for fam in sieve.families:
        if not all(inf_supp.contains(p) for p in support(fam.cofactor)):
            continue
        if fam.primes.intersects(inf_supp):
            return True
        if _exponent_class_fits(fam, s):
            return True
    return False


def member_intersection(
    x: PointClass | Supernatural, first: Sieve, second: Sieve
) -> bool:
    """Membership in the intersection of two basic opens.

    Decided conjunctively; never forms the product sieve, so it works
    even for pairs whose product is not representable.
    """
    return member(x, first) and member(x, second)


def incomparable(x: PointClass | Supernatural, y: PointClass | Supernatural) -> bool:
    """Neither representative weakly divides the other."""
    a, b = _as_supernatural(x), _as_supernatural(y)
    return not a.weakly_divides(b) and not b.weakly_divides(a)


def separating_side(
    x: PointClass | Supernatural,
    y: PointClass | Supernatural,
    prime_budget: int = 100_000,
) -> Sieve:
    """An open containing x and avoiding y; needs x not weakly below y.

    Two constructions.  When x has an infinite-exponent prime that y
    lacks, the sieve of that single prime works.  Otherwise the failure
    of weak divisibility is carried by infinitely many primes where the
    finite exponent of x strictly exceeds that of y; the family pinning
    x's exponents on those primes admits x (case (c)) but every instance
    overshoots y.
    """
    sx, sy = _as_supernatural(x), _as_supernatural(y)
    if sx.weakly_divides(sy):
        raise NotSeparable("the first point weakly divides the second")
    diff = sx.infinite_support().difference(sy.infinite_support())
    if not diff.is_empty():
        p = diff.first_member(prime_budget)
        return Sieve((p,), ())
    m, (a, b), primes = align(sx.exps, sy.exps)
    units = unit_residues(m)
    over = {r: va for r, va, vb in zip(units, a, b) if vb != INF and va > vb}
    x_at, y_at = sx.exps.value_at, sy.exps.value_at
    want = frozenset(
        p for p in primes if y_at(p) != INF and x_at(p) != INF and x_at(p) > y_at(p)
    )
    dominated = PrimeSet(m, frozenset(over), want, frozenset(primes - want))
    # weak divisibility failed with matching infinite supports, so some
    # whole residue class dominates; the set is infinite
    assert dominated.is_infinite()
    pinned = dict.fromkeys(support(m), 1)
    pinned.update((p, x_at(p)) for p in want)
    exp = ExpMap(m, {r: over.get(r, 1) for r in units}, pinned)
    fam = Family(1, dominated, exp)
    return Sieve((), (fam,)).normalize()


@dataclass(frozen=True)
class SeparationWitness:
    """Two basic opens splitting a pair of incomparable points."""

    left: Sieve
    right: Sieve
    x_in_left: bool
    y_in_left: bool
    y_in_right: bool
    x_in_right: bool


def separating_sieves(
    x: PointClass | Supernatural,
    y: PointClass | Supernatural,
    prime_budget: int = 100_000,
) -> SeparationWitness:
    """Opens L and R with x in L only and y in R only; verified."""
    if not incomparable(x, y):
        raise NotIncomparable("the points are related by weak divisibility")
    left = separating_side(x, y, prime_budget)
    right = separating_side(y, x, prime_budget)
    w = SeparationWitness(
        left,
        right,
        member(x, left),
        member(y, left),
        member(y, right),
        member(x, right),
    )
    if not (w.x_in_left and not w.y_in_left and w.y_in_right and not w.x_in_right):
        raise AssertionError(f"separation postcondition failed: {w}")
    return w
