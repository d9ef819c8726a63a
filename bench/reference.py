"""Plain per-prime reference answers for the benchmark's verdict checks.

Nothing here calls into steinitz.  The functions read the raw fields of
the objects the library returns (moduli, class dictionaries, exception
dictionaries, generator tuples) and evaluate the definitions point by
point.  A point is either one exceptional prime or one unit residue
class of the common modulus; a class stands for its infinitely many
primes (Dirichlet), which is why a class value is compared as a whole.

A "map" is anything with .modulus, .class_values and .exceptions: an
ExpMap, or the plain MapSpec the workloads draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm
from operator import eq, le

INF = math.inf


@dataclass(frozen=True)
class MapSpec:
    """Plain form of an exponent map, shaped like steinitz.ExpMap."""

    modulus: int
    class_values: dict
    exceptions: dict

    def key(self) -> tuple:
        return (self.modulus, sorted(self.class_values.items()), sorted(self.exceptions.items()))


@cache
def units(m: int) -> tuple[int, ...]:
    return tuple(r for r in range(m) if gcd(r, m) == 1)


@cache
def _factor(n: int) -> tuple:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def factor(n: int) -> dict[int, int]:
    return dict(_factor(n))


@cache
def primes_upto(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if _factor(p) == ((p, 1),))


# ---------------------------------------------------------------- exponents


def at_prime(em, p: int):
    exc = em.exceptions
    return exc[p] if p in exc else em.class_values[p % em.modulus]


def column(em, m: int):
    """The class values of em on the unit residues of m, in order."""
    cv, mm = em.class_values, em.modulus
    if mm == m:
        return map(cv.__getitem__, units(m))
    return (cv[r % mm] for r in units(m))


def exceptional_primes(*maps) -> set[int]:
    out: set[int] = set()
    for em in maps:
        out.update(em.exceptions)
        out.update(factor(em.modulus))
    return out


def common_modulus(*maps) -> int:
    return lcm(*(em.modulus for em in maps))


def divides(x, y) -> bool:
    m = common_modulus(x, y)
    return all(map(le, column(x, m), column(y, m))) and all(
        at_prime(x, p) <= at_prime(y, p) for p in exceptional_primes(x, y)
    )


def equivalent(x, y) -> bool:
    """Classes agree exactly; at finitely many primes only infinity matters."""
    m = common_modulus(x, y)
    return all(map(eq, column(x, m), column(y, m))) and all(
        (at_prime(x, p) == INF) == (at_prime(y, p) == INF) for p in exceptional_primes(x, y)
    )


def weakly_divides(x, y) -> bool:
    """On a class (infinitely many primes) y must be infinite or at least x,
    which is x <= y; at a single prime only an infinity of x must be met."""
    m = common_modulus(x, y)
    return all(map(le, column(x, m), column(y, m))) and all(
        at_prime(y, p) == INF or at_prime(x, p) != INF for p in exceptional_primes(x, y)
    )


def incomparable(x, y) -> bool:
    return not weakly_divides(x, y) and not weakly_divides(y, x)


def combine(fn, a, b) -> MapSpec:
    """Pointwise fn(a, b) on the lcm modulus."""
    m = common_modulus(a, b)
    cv = dict(zip(units(m), map(fn, column(a, m), column(b, m))))
    exc = {p: fn(at_prime(a, p), at_prime(b, p)) for p in exceptional_primes(a, b)}
    return MapSpec(m, cv, exc)


def same_values(z, p) -> bool:
    """z and p take the same value at every point."""
    if z.modulus == p.modulus:
        classes = z.class_values == p.class_values
    else:
        m = common_modulus(z, p)
        classes = all(map(eq, column(z, m), column(p, m)))
    return classes and all(at_prime(z, q) == at_prime(p, q) for q in exceptional_primes(z, p))


# ---------------------------------------------------------------- prime sets


def primeset_has_prime(ps, p: int) -> bool:
    if p in ps.include:
        return True
    if p in ps.exclude:
        return False
    return p % ps.modulus in ps.classes


# ---------------------------------------------------------------- sieves


def family_instance(fam, p: int) -> int:
    return fam.cofactor * p ** int(at_prime(fam.exponents, p))


def sieve_has(sieve, n: int) -> bool:
    """Is n a multiple of a finite generator or of some family instance?"""
    if any(n % g == 0 for g in sieve.finite_gens):
        return True
    return any(
        primeset_has_prime(f.primes, p) and n % family_instance(f, p) == 0
        for f in sieve.families
        for p, _ in _factor(n)
    )


def members(sieve, bound: int) -> bytes:
    """flags[n] == 1 iff n (0 < n <= bound) lies in the sieve."""
    flags = bytearray(bound + 1)
    steps = set(sieve.finite_gens)
    for fam in sieve.families:
        steps.update(
            family_instance(fam, p) for p in primes_upto(bound) if primeset_has_prime(fam.primes, p)
        )
    for g in steps:
        if g <= bound:
            flags[g::g] = b"\x01" * (bound // g)
    return bytes(flags)


def member(x, sieve) -> bool:
    """Does the point of the exponent map x lie in the open of the sieve?

    From the definition: arbitrarily large products of sieve members
    divide x exactly when one member's primes all carry an infinite
    exponent (a generator, or a family instance at a prime where x is
    infinite), or infinitely many family instances divide x.
    """
    def inf(p):
        return at_prime(x, p) == INF

    if 1 in sieve.finite_gens:
        return True
    if any(all(inf(p) for p in factor(g)) for g in sieve.finite_gens):
        return True
    for fam in sieve.families:
        if not all(inf(p) for p in factor(fam.cofactor)):
            continue
        em, ps = fam.exponents, fam.primes
        primes = exceptional_primes(x, em) | set(ps.include) | set(ps.exclude) | set(factor(ps.modulus))
        if any(primeset_has_prime(ps, p) and inf(p) for p in primes):
            return True
        m = lcm(x.modulus, em.modulus, ps.modulus)
        for r, e, v in zip(units(m), column(em, m), column(x, m)):
            if r % ps.modulus in ps.classes and e <= v:
                return True
    return False


# ---------------------------------------------------------------- monoids


def monoid_reach(gens, bound: int) -> list[bool]:
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    return reach


def frobenius(gens) -> int:
    bound = max(gens) * max(gens) + max(gens)
    reach = monoid_reach(gens, bound)
    gaps = [n for n in range(1, bound + 1) if not reach[n]]
    return gaps[-1] if gaps else -1
