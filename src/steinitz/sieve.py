"""Sieves: multiplicatively upward-closed sets of positive integers.

A sieve here is a finite union of divisibility cones g*N together with
prime-indexed families {m * p^e(p) : p in I} for an infinite prime set
I.  Finitely many generators alone cannot express the families, and the
families are what the separation and density arguments need.

The normal form keeps only divisibility-minimal finite generators,
folds a family's finitely many special primes (includes and live
exceptions) into finite generators, and drops semantically empty
families, so structural equality of normal forms is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from math import gcd, lcm
from typing import Iterable

from ._primes import factorize, power_upto, primes_upto, support
from .errors import NonCoprimeGenerators, UnsupportedProduct
from .supernat import INF, ExpMap, PrimeSet, align, unit_residues

# The longest membership window the oracle's walks read at once, and the
# widest prime range a family's window sieves: a walk may stop at its first
# candidate, so a large search bound must not cost its size in memory.
TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class Family:
    """The instances {cofactor * p^e(p) : p in primes}, e(p) finite >= 1."""

    cofactor: int
    primes: PrimeSet
    exponents: ExpMap

    def __post_init__(self):
        if not isinstance(self.cofactor, int) or self.cofactor < 1:
            raise ValueError(f"cofactor must be a positive integer, got {self.cofactor!r}")
        m, (inside, exps), primes = align(self.primes, self.exponents)
        for r, i, v in zip(unit_residues(m), inside, exps):
            if i and (v == INF or v < 1):
                raise ValueError(f"family exponent {v} at class {r} must be a finite value >= 1")
        for p in primes:
            if self.primes.contains(p):
                v = self.exponents.value_at(p)
                if v == INF or v < 1:
                    raise ValueError(f"family exponent {v} at prime {p} must be a finite value >= 1")

    def instance(self, p: int) -> int:
        """The generator this family contributes at member prime p."""
        if not self.primes.contains(p):
            raise ValueError(f"{p} is not in the family's prime set")
        return self.cofactor * p ** int(self.exponents.value_at(p))

    def split(self, primes: Iterable[int]) -> tuple[list[int], PrimeSet | None]:
        """Fold the family's members among the given primes out of it.

        Returns the instances at those members, ascending by prime, and
        the family's remaining prime set (None when nothing remains).
        """
        ps = self.primes
        folded = frozenset(p for p in primes if ps.contains(p))
        if folded:
            ps = PrimeSet(ps.modulus, ps.classes, ps.include - folded, ps.exclude | folded)
        return [self.instance(p) for p in sorted(folded)], (None if ps.is_empty() else ps)

    def covers(self, n: int) -> bool:
        """Does some instance divide n?  c * p^e | n iff c | n and p^e | n // c."""
        if n % self.cofactor:
            return False
        for p, k in factorize(n // self.cofactor):
            if self.primes.contains(p) and k >= self.exponents.value_at(p):
                return True
        return False

    def __str__(self) -> str:
        # the literal form carries only class values; refuse when a member
        # prime's exceptional exponent would be lost by printing
        em = self.exponents
        live = [
            p
            for p in em.exceptions
            if self.primes.contains(p)
            and not (em.modulus % p == 0 and em.value_at(p) == 1)
        ]
        if live:
            raise ValueError(
                "no literal form for a family with live exceptional exponents; normalize first"
            )
        if em.modulus == 1:
            exp = str(int(em.class_values[0]))
        else:
            inner = ", ".join(
                f"{r}:{int(em.class_values[r])}" for r in unit_residues(em.modulus)
            )
            exp = f"{{{inner} mod {em.modulus}}}"
        return f"family(cofactor={self.cofactor}; primes={self.primes}; exp={exp})"


def _family_key(f: Family):
    return (
        f.cofactor,
        f.primes.modulus,
        tuple(sorted(f.primes.classes)),
        tuple(sorted(f.primes.include)),
        tuple(sorted(f.primes.exclude)),
        f.exponents.modulus,
        tuple(sorted(f.exponents.class_values.items())),
        tuple(sorted(f.exponents.exceptions.items())),
    )


@dataclass(frozen=True)
class Sieve:
    finite_gens: tuple[int, ...] = ()
    families: tuple[Family, ...] = ()

    def __post_init__(self):
        for g in self.finite_gens:
            if not isinstance(g, int) or g < 1:
                raise ValueError(f"generator must be a positive integer, got {g!r}")
        for f in self.families:
            if not isinstance(f, Family):
                raise ValueError(f"expected a Family, got {f!r}")

    @classmethod
    def full(cls) -> "Sieve":
        return cls((1,), ())

    @classmethod
    def empty(cls) -> "Sieve":
        return cls((), ())

    @classmethod
    def of(cls, *gens: int) -> "Sieve":
        return cls(tuple(gens), ()).normalize()

    def contains(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"need a positive integer, got {n}")
        # a plain loop, 4x cheaper than a generator expression: the chain
        # cones' predicates and the chain walk's coverage check ask here
        # value by value
        for g in self.finite_gens:
            if n % g == 0:
                return True
        for f in self.families:
            if f.covers(n):
                return True
        return False

    def membership_window(self, lo: int, count: int, stride: int) -> bytearray:
        """window[k] == 1 iff lo + k*stride is in the sieve, for 0 <= k < count.

        Each finite generator and each family instance cofactor * p^e(p)
        up to the window's top divides lo + k*stride on one progression
        of k: its start comes from one modular inverse, its marks from one
        slice assignment.  A family whose member primes would run past
        max(count, TABLE_CAP) is the one exception: it tests the values
        left unmarked one by one (Family.covers, factoring each value
        over the cofactor), so a window never costs more than its own
        bytes and a prime sieve of that size.
        """
        if lo < 1 or stride < 1:
            raise ValueError(f"need a positive start and stride, got {lo} and {stride}")
        window = bytearray(max(count, 0))
        gens, wide = self._generators_upto(lo + (count - 1) * stride, max(count, TABLE_CAP))
        ones = bytearray(b"\x01") * count
        for g in gens:
            d = gcd(stride, g)
            if lo % d == 0:
                m = g // d
                k = -(lo // d) * pow(stride // d, -1, m) % m
                window[k::m] = ones[: len(range(k, count, m))]
        for f in wide:
            for k in range(count):
                if not window[k]:
                    window[k] = f.covers(lo + k * stride)
        return window

    def _generators_upto(self, top: int, cap: int) -> tuple[list[int], list[Family]]:
        """The finite generators and family instances cofactor * p^e(p) at
        most top, and the families left out as wide: those whose member
        primes would run past cap.  No family is wide at cap >= top.
        """
        gens = [g for g in self.finite_gens if g <= top]
        wide = []
        for f in self.families:
            c, em = f.cofactor, f.exponents
            # a member prime p with c * p^e(p) <= top lies below 2^ceil(b/e)
            # for the least member exponent e, b being top // c's bit length
            vals = (*em.class_values.values(), *em.exceptions.values())
            e = int(min((v for v in vals if v != INF and v >= 1), default=1))
            reach = min(top // c, 1 << -(-(top // c).bit_length() // e))
            if reach > cap:
                wide.append(f)
                continue
            for p in filter(f.primes.contains, primes_upto(reach)):
                if d := power_upto(p, int(em.value_at(p)), top // c):
                    gens.append(c * d)
        return gens, wide

    def members_upto(self, bound: int) -> list[int]:
        return list(compress(range(1, bound + 1), self.membership_window(1, bound, 1)))

    def is_full(self) -> bool:
        return self.contains(1)

    def is_proper(self) -> bool:
        return not self.contains(1)

    def is_empty_sieve(self) -> bool:
        s = self.normalize()
        return not s.finite_gens and not s.families

    def normalize(self) -> "Sieve":
        gens = sorted(set(self.finite_gens))
        if 1 in gens:
            return Sieve((1,), ())
        fams: list[Family] = []
        for fam in self.families:
            em = fam.exponents
            instances, rest = fam.split(set(fam.primes.include) | set(em.exceptions))
            gens.extend(instances)
            if rest is None:
                continue
            clean = ExpMap(
                em.modulus, em.class_values, {q: 1 for q in support(em.modulus)}
            )
            nf = Family(fam.cofactor, rest, clean)
            if nf not in fams:
                fams.append(nf)
        gens = sorted(set(gens))
        if 1 in gens:
            return Sieve((1,), ())
        kept = [g for g in gens if not any(h != g and g % h == 0 for h in gens)]
        fams.sort(key=_family_key)
        kept = [g for g in kept if not any(f.covers(g) for f in fams)]
        # a family whose cofactor is a multiple of a generator only restates
        # multiples of that generator
        fams = [f for f in fams if not any(f.cofactor % g == 0 for g in kept)]
        return Sieve(tuple(kept), tuple(fams))

    def union(self, other: "Sieve") -> "Sieve":
        return Sieve(
            self.finite_gens + other.finite_gens, self.families + other.families
        ).normalize()

    def product(self, other: "Sieve") -> "Sieve":
        """Pairwise-lcm sieve: contains n iff both operands contain n.

        Partial: two family-carrying operands would need a family
        indexed by pairs of primes, which this representation cannot
        express.
        """
        if self.families and other.families:
            raise UnsupportedProduct(
                "both operands carry prime-indexed families; the pairwise-lcm "
                "set is not expressible here"
            )
        gens = [lcm(g, h) for g in self.finite_gens for h in other.finite_gens]
        plain, fam_side = (self, other) if other.families else (other, self)
        fams = []
        for x in plain.finite_gens:
            for fam in fam_side.families:
                instances, rest = fam.split(support(x * fam.cofactor))
                gens.extend(lcm(x, i) for i in instances)
                if rest is not None:
                    fams.append(Family(lcm(x, fam.cofactor), rest, fam.exponents))
        return Sieve(tuple(gens), tuple(fams)).normalize()

    def transport(self, c: int) -> "Sieve":
        """The sieve {n : c*n lands in this sieve}."""
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"need a positive integer, got {c!r}")
        gens = [g // gcd(g, c) for g in self.finite_gens]
        fams = []
        for fam in self.families:
            instances, rest = fam.split(support(c))
            gens.extend(i // gcd(i, c) for i in instances)
            if rest is not None:
                cofactor = fam.cofactor // gcd(fam.cofactor, c)
                fams.append(Family(cofactor, rest, fam.exponents))
        return Sieve(tuple(gens), tuple(fams)).normalize()

    def __str__(self) -> str:
        s = self.normalize()
        parts = []
        if s.finite_gens or not s.families:
            parts.append("sieve(" + ",".join(str(g) for g in s.finite_gens) + ")")
        parts.extend(str(f) for f in s.families)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Numerical monoids (additively closed) and their sieve of multiples

# at most 128 generator tuples, each keeping one value per residue of its
# smallest generator (the benchmark's small monoids use about 70 tuples)
@lru_cache(maxsize=128)
def _apery(gens: tuple[int, ...]) -> tuple[float | int, ...]:
    """w[r]: the least member congruent to r mod a = gens[0] (gens ascending),
    INF for none; n >= 0 is a member iff n >= w[n % a] (Nijenhuis 1979).

    Round robin (Bocker and Liptak, Algorithmica 2007): each further
    generator b walks each cycle of r -> r + b mod a once, starting from
    the least value on it.
    """
    a = gens[0]
    w: list[float | int] = [INF] * a
    w[0] = 0
    for b in gens[1:]:
        d = gcd(a, b)
        for p in range(d):
            n = min(w[p::d])
            if n == INF:
                continue
            for _ in range(a // d - 1):
                n += b
                r = n % a
                n = min(n, w[r])
                w[r] = n
    return tuple(w)


@dataclass(frozen=True)
class SMonoidPresentation:
    """A numerical monoid given by finitely many additive generators."""

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if not isinstance(g, int) or g < 1:
                raise ValueError(f"generator must be a positive integer, got {g!r}")
        object.__setattr__(self, "generators", gens)

    def contains(self, n: int) -> bool:
        if n < 0:
            raise ValueError(f"need a nonnegative integer, got {n}")
        w = _apery(self.generators)
        return n >= w[n % len(w)]

    def frobenius_number(self) -> int:
        """Largest integer outside the monoid; -1 when there is none."""
        gens = self.generators
        if reduce(gcd, gens) != 1:
            raise NonCoprimeGenerators(
                f"generators {gens} share a common factor; every large "
                "integer in between is missed"
            )
        # w[r] - a is the largest integer of class r outside the monoid
        # (Brauer and Shockley 1962); w[0] - a = -a is below every other
        return max(_apery(gens)) - gens[0]

    def to_sieve(self, search_bound: int | None = None) -> tuple[Sieve, bool]:
        """The sieve with the same positive members, plus an exactness flag.

        Strategy: the monoid is closed under integer multiples, so its
        positive part is the union of g*N over its divisibility-minimal
        members.  Every prime above the largest gap is such a member;
        the remaining minimal members have all prime factors below the
        gap, and any such member n has n/p outside the monoid for its
        smallest prime p, which caps n by gap * (largest prime <= gap).
        The flag reports whether the search covered that cap.
        """
        gens = self.generators
        if reduce(gcd, gens) != 1:
            raise NonCoprimeGenerators(
                f"generators {gens} share a common factor; the sieve of a "
                "multiple-closed set needs coprime generators"
            )
        frob = self.frobenius_number()
        if frob < 1:
            return Sieve.full(), True
        small = primes_upto(frob)
        cap = frob * small[-1] if small else frob
        bound = cap if search_bound is None else min(search_bound, cap)
        exact = bound >= cap
        w, a = _apery(gens), gens[0]
        tbl = [n >= w[n % a] for n in range(bound + 1)]
        minimal = []
        for n in range(2, bound + 1):
            if not tbl[n]:
                continue
            ps = support(n)
            if any(p > frob for p in ps):
                continue
            if all(not tbl[n // p] for p in ps):
                minimal.append(n)
        fam = Family(
            1,
            PrimeSet(1, frozenset({0}), frozenset(), frozenset(small)),
            ExpMap(1, {0: 1}, {}),
        )
        return Sieve(tuple(minimal), (fam,)).normalize(), exact


def smonoid_contains(generators: tuple[int, ...] | list[int], n: int) -> bool:
    return SMonoidPresentation(tuple(generators)).contains(n)


def smonoid_to_sieve(
    generators: tuple[int, ...] | list[int], search_bound: int | None = None
) -> tuple[Sieve, bool]:
    return SMonoidPresentation(tuple(generators)).to_sieve(search_bound)
