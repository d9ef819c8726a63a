"""Supernatural (Steinitz) numbers with exact residue-class exponent maps.

A supernatural number is a formal product over all primes p of p^e(p),
where each exponent e(p) is a natural number or infinity.  The exponent
assignment is stored exactly: one value per unit residue class modulo a
stored modulus, plus finitely many per-prime exceptions.  Dirichlet's
theorem on primes in arithmetic progressions keeps every nonempty class
infinite, which is what makes the classwise decision procedures here
sound and complete.

Construction is canonical.  The stored modulus is the minimal period of
the class values (of class membership, for a prime set), and only the
exceptions the classes cannot express are kept.  Each value therefore
has one representation: structural equality is semantic equality,
values hash, and equal values print the same literal.

Every operation on several maps goes through align(), which yields the
lcm of their moduli, each map's values on the unit classes of that
modulus, and the finitely many primes where some map may depart from
its class value.  Deciding classwise over the classes plus a finite
scan over those primes decides for every prime.

Cost: a map at modulus m has phi(m) classes (92,160 at 255255).  The
work per class runs in passes of builtins over the unit residues (map,
zip, compress, len, min, countOf) with operator functions as combiners;
only lcm's maximum is a Python function, as the builtin max costs more
per call.  Python loops run over exceptional primes, over the fibres
that the search for a smaller modulus visits (it stops at the first
that disagrees), and over the classes only to name a bad one in an
error.  The one cache per modulus is unit_residues: a tuple of phi(m)
ints for each of at most 128 moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import lcm
from operator import add, and_, countOf, eq, gt, le, mod, or_
from typing import Callable, Iterator, Mapping

from ._primes import factorize, is_prime, iter_primes, primes_upto, support
from .errors import SearchBudgetExceeded

INF = math.inf

# An exponent: a nonnegative int, or INF.  Fractional maps also allow
# negative ints at exception primes.
Exp = float | int


def is_exp(v) -> bool:
    return v == INF or (isinstance(v, int) and not isinstance(v, bool))


def fmt_exp(v: Exp) -> str:
    return "inf" if v == INF else str(v)


# 128 moduli: folds over moduli up to 255255 touch about 70 distinct ones;
# one entry can hold ~10^5 residues, so the limit also caps memory.
@lru_cache(maxsize=128)
def unit_residues(modulus: int) -> tuple[int, ...]:
    """Residues coprime to the modulus; (0,) when the modulus is 1."""
    # sieve: cross out the multiples of each prime of the modulus
    units = bytearray(b"\x01") * modulus
    for p in support(modulus) if modulus > 1 else ():
        units[::p] = bytes(len(range(0, modulus, p)))
    return tuple(compress(range(modulus), units))


def _coarsened(values: Mapping[int, Exp], m: int, d: int) -> dict[int, Exp] | None:
    """The class values mod d, or None when they are not constant on the
    units mod m above some unit mod d."""
    out = {}
    for r in unit_residues(d):
        for s in range(r, m, d):
            v = values.get(s)
            if v is not None and out.setdefault(r, v) != v:
                return None
    return out


# ---------------------------------------------------------------------------
# Exponent maps


@dataclass(frozen=True)
class ExpMap:
    """Prime -> exponent map, piecewise constant on residue classes.

    value(p) is exceptions[p] when present, else class_values[p % modulus].
    Invariants enforced at construction:
      - class_values covers exactly the unit residues of the modulus;
      - every prime dividing the modulus appears in exceptions (its
        residue is not a unit, so the classes cannot speak for it);
      - the modulus is the minimal period of the class values: the map
        is re-expressed at the smallest divisor that carries them;
      - no removable exception: an exception at p not dividing the
        modulus is dropped when it equals the class value at p.
    """

    modulus: int
    class_values: Mapping[int, Exp]
    exceptions: Mapping[int, Exp]

    def __post_init__(self):
        m = self.modulus
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m!r}")
        values = dict(self.class_values)
        units = unit_residues(m)
        if len(values) != len(units) or not all(map(values.__contains__, units)):
            raise ValueError(
                f"class_values must cover exactly the unit residues mod {m}"
            )
        # values of type int pass as a group, the rest must equal INF (an
        # int never does); else the loop names the first class is_exp rejects
        exps = values.values()
        ints = countOf(map(type, exps), int)
        if ints != len(values) and ints + countOf(exps, INF) != len(values):
            for r, v in values.items():
                if not is_exp(v):
                    raise ValueError(f"bad exponent {v!r} at class {r}")
        primes = support(m)
        for p in primes:
            if p not in self.exceptions:
                raise ValueError(f"prime {p} divides modulus {m}; needs an exception")
        for q in primes:
            while m % q == 0 and (coarse := _coarsened(values, m, m // q)) is not None:
                m, values = m // q, coarse
        exceptions = {}
        for p, v in self.exceptions.items():
            if not is_prime(p):
                raise ValueError(f"exception key {p} is not prime")
            if not is_exp(v):
                raise ValueError(f"bad exponent {v!r} at prime {p}")
            # primes of the modulus stay mandatory; any other exception
            # only when it departs from its class
            if m % p == 0 or values[p % m] != v:
                exceptions[p] = v
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "class_values", values)
        object.__setattr__(self, "exceptions", exceptions)

    @cached_property
    def values_hash(self) -> int:
        """Hash of the class values, computed once: phi(m) items to scan."""
        return hash(frozenset(self.class_values.items()))

    def __hash__(self):
        return hash(
            (
                self.modulus,
                self.values_hash,
                frozenset(self.exceptions.items()),
            )
        )

    def value_at(self, p: int) -> Exp:
        if p in self.exceptions:
            return self.exceptions[p]
        return self.class_values[p % self.modulus]

    def refined(self, new_modulus: int) -> "ExpMap":
        """The map modulo a multiple of its modulus: the map itself, since
        construction always returns to the minimal modulus."""
        if new_modulus % self.modulus != 0:
            raise ValueError(f"{new_modulus} does not refine modulus {self.modulus}")
        return self

    def combine(self, other: "ExpMap", fn: Callable[[Exp, Exp], Exp]) -> "ExpMap":
        """Pointwise combination fn(self(p), other(p))."""
        m, (a, b), primes = align(self, other)
        values = dict(zip(unit_residues(m), map(fn, a, b)))
        exceptions = {p: fn(self.value_at(p), other.value_at(p)) for p in primes}
        return ExpMap(m, values, exceptions)

    def same_values(self, other: "ExpMap") -> bool:
        return self == other


# ---------------------------------------------------------------------------
# Sets of primes, same representation idea


@dataclass(frozen=True)
class PrimeSet:
    """A set of primes: unit residue classes plus finite include/exclude.

    Membership: p in include, or (p not in exclude and p % modulus in
    classes).  Construction reduces the modulus to the minimal period of
    the classes and trims include/exclude to what the classes miss or
    wrongly cover, so structural equality is semantic equality.
    """

    modulus: int = 1
    classes: frozenset[int] = frozenset()
    include: frozenset[int] = frozenset()
    exclude: frozenset[int] = frozenset()

    def __post_init__(self):
        m = self.modulus
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m!r}")
        units = set(unit_residues(m))
        classes = frozenset(self.classes)
        if not classes <= units:
            raise ValueError(f"classes {set(classes) - units} are not units mod {m}")
        inc = frozenset(self.include)
        exc = frozenset(self.exclude)
        for p in inc | exc:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if inc & exc:
            raise ValueError(f"include and exclude overlap: {sorted(inc & exc)}")
        # the classes hold whole fibres over the units mod d = m/q exactly
        # when they number |image| times the fibre size
        for q in support(m):
            while m % q == 0:
                d = m // q
                image = frozenset(map(d.__rmod__, classes))
                if len(image) * (q if d % q == 0 else q - 1) != len(classes):
                    break
                m, classes = d, image
        if m != self.modulus:
            # the old modulus's primes were members only through include;
            # their residues may now be member classes
            exc |= frozenset(support(self.modulus)) - inc
        inc = frozenset(p for p in inc if p % m not in classes)
        exc = frozenset(p for p in exc if p % m in classes)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "include", inc)
        object.__setattr__(self, "exclude", exc)

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls(1, frozenset({0}), frozenset(), frozenset())

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(1, frozenset(), frozenset(primes), frozenset())

    @classmethod
    def empty(cls) -> "PrimeSet":
        return cls(1, frozenset(), frozenset(), frozenset())

    def contains(self, p: int) -> bool:
        if p in self.include:
            return True
        if p in self.exclude:
            return False
        return p % self.modulus in self.classes

    def refined(self, new_modulus: int) -> "PrimeSet":
        """The set modulo a multiple of its modulus: the set itself, since
        construction always returns to the minimal modulus."""
        if new_modulus % self.modulus != 0:
            raise ValueError(f"{new_modulus} does not refine modulus {self.modulus}")
        return self

    def combine(self, other: "PrimeSet", fn: Callable[[bool, bool], bool]) -> "PrimeSet":
        """Boolean combination; fn(False, False) must be False."""
        m, (a, b), primes = align(self, other)
        classes = frozenset(compress(unit_residues(m), map(fn, a, b)))
        inc = frozenset(p for p in primes if fn(self.contains(p), other.contains(p)))
        return PrimeSet(m, classes, inc, primes - inc)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        return self.combine(other, or_)

    def intersection(self, other: "PrimeSet") -> "PrimeSet":
        return self.combine(other, and_)

    def difference(self, other: "PrimeSet") -> "PrimeSet":
        # on booleans, x > y is x and not y
        return self.combine(other, gt)

    def is_empty(self) -> bool:
        return not self.classes and not self.include

    def is_infinite(self) -> bool:
        # a nonempty unit class holds infinitely many primes (Dirichlet);
        # include/exclude adjust by finitely many
        return bool(self.classes)

    def subset_of(self, other: "PrimeSet") -> bool:
        return self.difference(other).is_empty()

    def intersects(self, other: "PrimeSet") -> bool:
        _, (a, b), primes = align(self, other)
        # a shared class is infinite; finite excludes cannot empty it
        return any(map(and_, a, b)) or any(
            self.contains(p) and other.contains(p) for p in primes
        )

    def members(self, bound: int) -> list[int]:
        """All member primes <= bound, ascending."""
        return [p for p in primes_upto(bound) if self.contains(p)]

    def first_member(self, prime_budget: int = 100_000) -> int:
        """Smallest member prime, scanning at most prime_budget primes."""
        for i, p in enumerate(iter_primes()):
            if i >= prime_budget:
                raise SearchBudgetExceeded(
                    f"no member among the first {prime_budget} primes"
                )
            if self.contains(p):
                return p
        raise AssertionError("unreachable")

    def __str__(self) -> str:
        if self.modulus == 1 and 0 in self.classes:
            base = "all"
        elif self.classes:
            inner = ",".join(str(r) for r in sorted(self.classes))
            base = f"classes({inner} mod {self.modulus})"
        else:
            base = ""
        inc = "{" + ",".join(str(p) for p in sorted(self.include)) + "}"
        exc = "{" + ",".join(str(p) for p in sorted(self.exclude)) + "}"
        parts = base
        if self.include or not base:
            parts = f"{parts} + {inc}" if base else inc
        if self.exclude:
            parts = f"{parts} - {exc}"
        return parts


def align(*maps: ExpMap | PrimeSet) -> tuple[int, list[Iterator], set[int]]:
    """Line up exponent maps and prime sets on their common modulus.

    Returns (m, columns, primes).  m is the lcm of the moduli.
    columns[i] iterates, once, over the value of maps[i] on each residue
    of unit_residues(m) in order: the class value for an ExpMap, class
    membership for a PrimeSet.  primes holds the primes of m and every
    exception, include and exclude, so each map agrees with its column
    at every prime outside it.  No refined map is built.
    """
    m = 1
    for x in maps:
        m = lcm(m, x.modulus)
    units = unit_residues(m)
    primes = set()
    columns = []
    for x in maps:
        k = x.modulus
        if isinstance(x, PrimeSet):
            primes.update(x.include, x.exclude, support(k))
            look = x.classes.__contains__
        else:
            # the exceptions of an ExpMap hold the primes of its modulus
            primes.update(x.exceptions)
            look = x.class_values.__getitem__
        columns.append(map(look, units if k == m else map(mod, units, repeat(k))))
    return m, columns, primes


# ---------------------------------------------------------------------------
# The numbers themselves


def _infinite(values: Mapping[int, Exp]) -> frozenset[int]:
    """The keys whose value is INF."""
    return frozenset(compress(values, map(eq, values.values(), repeat(INF))))


def _larger(x: Exp, y: Exp) -> Exp:
    # max(x, y), the first on a tie; mapped over the classes it costs
    # about 60 % of the builtin, which takes its arguments as a sequence
    return x if x >= y else y


def _same_infinity(x: Exp, y: Exp) -> bool:
    return (x == INF) == (y == INF)


def _infinity_met(x: Exp, y: Exp) -> bool:
    return y == INF or x != INF


@dataclass(frozen=True)
class Supernatural:
    """A formal product over all primes of p^e(p), e(p) in N or infinity."""

    exps: ExpMap

    def __post_init__(self):
        values = self.exps.class_values
        if min(values.values()) < 0:
            for r, v in values.items():
                if v < 0:
                    raise ValueError(f"negative exponent {v} not allowed at class {r}")
        for p, v in self.exps.exceptions.items():
            if v < 0:
                raise ValueError(f"negative exponent {v} not allowed at prime {p}")

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        if n < 1:
            raise ValueError(f"need a positive integer, got {n}")
        return cls(ExpMap(1, {0: 0}, dict(factorize(n))))

    @classmethod
    def from_exponents(
        cls, exps: Mapping[int, Exp], default: Exp = 0
    ) -> "Supernatural":
        return cls(ExpMap(1, {0: default}, dict(exps)))

    @classmethod
    def from_classes(
        cls,
        modulus: int,
        class_values: Mapping[int, Exp],
        exceptions: Mapping[int, Exp] | None = None,
    ) -> "Supernatural":
        return cls(ExpMap(modulus, dict(class_values), dict(exceptions or {})))

    @classmethod
    def one(cls) -> "Supernatural":
        return cls.from_exponents({})

    @classmethod
    def all_infinite(cls) -> "Supernatural":
        """The largest supernatural number: every exponent is infinite."""
        return cls.from_exponents({}, default=INF)

    def exponent(self, p: int) -> Exp:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return self.exps.value_at(p)

    def mul(self, other: "Supernatural") -> "Supernatural":
        return Supernatural(self.exps.combine(other.exps, add))

    __mul__ = mul

    def lcm(self, other: "Supernatural") -> "Supernatural":
        return Supernatural(self.exps.combine(other.exps, _larger))

    def _holds(
        self,
        other: "Supernatural",
        on_class: Callable[[Exp, Exp], bool],
        at_prime: Callable[[Exp, Exp], bool],
    ) -> bool:
        """on_class holds on every aligned class and at_prime at every
        prime where either map may leave its class value."""
        _, (a, b), primes = align(self.exps, other.exps)
        if not all(map(on_class, a, b)):
            return False
        x, y = self.exps.value_at, other.exps.value_at
        return all(at_prime(x(p), y(p)) for p in primes)

    def divides(self, other: "Supernatural") -> bool:
        return self._holds(other, le, le)

    def equivalent(self, other: "Supernatural") -> bool:
        """Same infinite part and only finitely many finite disagreements.

        Classwise: unequal class values disagree on infinitely many
        primes unless equal, so the classes must match exactly; the
        finitely many exceptional primes only need to agree on whether
        the exponent is infinite.
        """
        return self._holds(other, eq, _same_infinity)

    def weakly_divides(self, other: "Supernatural") -> bool:
        """Divides after a finite modification of the finite exponents.

        Holds exactly when the infinite support is contained in the
        other's, and on every residue class the other is infinite or at
        least as large; the finitely many exceptional violations can
        always be modified away.
        """
        return self._holds(other, le, _infinity_met)

    @cached_property
    def _infinite_support(self) -> PrimeSet:
        e = self.exps
        inc = _infinite(e.exceptions)
        return PrimeSet(e.modulus, _infinite(e.class_values), inc, e.exceptions.keys() - inc)

    def infinite_support(self) -> PrimeSet:
        """The primes carrying an infinite exponent."""
        return self._infinite_support

    def __str__(self) -> str:
        e = self.exps
        if e.modulus == 1 and not e.exceptions and e.class_values[0] == INF:
            return "sinf"
        return format_map(e)


@dataclass(frozen=True)
class FractionalSupernatural:
    """Like Supernatural, but finitely many exponents may be negative.

    Negative values live only at exception primes; the residue classes
    stay nonnegative, so the denominator is an ordinary integer.
    """

    exps: ExpMap

    def __post_init__(self):
        values = self.exps.class_values
        if min(values.values()) < 0:
            for r, v in values.items():
                if v < 0:
                    raise ValueError(
                        f"negative exponent {v} not allowed at class {r} "
                        "(denominators must be finite products)"
                    )

    @classmethod
    def from_exponents(
        cls, exps: Mapping[int, Exp], default: Exp = 0
    ) -> "FractionalSupernatural":
        return cls(ExpMap(1, {0: default}, dict(exps)))

    def exponent(self, p: int) -> Exp:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return self.exps.value_at(p)

    def negative_part(self) -> dict[int, int]:
        """Prime -> positive exponent of the denominator."""
        return {
            p: -v
            for p, v in self.exps.exceptions.items()
            if v != INF and v < 0
        }

    def __str__(self) -> str:
        return format_map(self.exps)


def format_map(e: ExpMap) -> str:
    """Canonical literal: terms by ascending prime, then the default.

    Construction keeps one representation per value, so equal maps
    print the same literal.
    """
    terms = [f"{p}^{fmt_exp(v)}" for p, v in sorted(e.exceptions.items())]
    head = " * ".join(terms) if terms else "one"
    if e.modulus == 1:
        v = e.class_values[0]
        if v == 0:
            return head
        return f"{head} ; default {fmt_exp(v)}"
    inner = ", ".join(
        f"{r}:{fmt_exp(e.class_values[r])}" for r in unit_residues(e.modulus)
    )
    return f"{head} ; default {{{inner}}} mod {e.modulus}"


def int_divides(n: int, s: Supernatural) -> bool:
    """Does the positive integer n divide the supernatural number s?"""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return divides_exponents(n, s.exps.value_at)


def divides_exponents(n: int, exp: Callable[[int], Exp]) -> bool:
    """Does n >= 1 divide the supernatural number with exponents exp(p)?

    Trial division of n by ascending primes, stopping at the first prime
    whose exponent in n is too large.  No factorization is cached, so a
    walk can ask about every integer up to its bound.
    """
    e = (n & -n).bit_length() - 1  # the power of 2 in one step
    if e and e > exp(2):
        return False
    n >>= e
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e > exp(p):
                return False
        p += 2
    return n == 1 or exp(n) >= 1
