"""Prime plumbing: primality tests, factorization, bounded enumeration.

Everything here is exact and deterministic.  The growable sieve keeps CLI
startup instant while letting callers walk as many primes as a search
budget allows.

is_prime is deterministic Miller-Rabin to the first 13 prime bases (2 to
41), after trial division by them; it stops at the first k bases once n is
below the least strong pseudoprime to all k.  It is exact for every n below
PRIME_TEST_LIMIT = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster,
Math. Comp. 2017), and at or above that cap it raises SearchBudgetExceeded.
factorize is trial division.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, prod
from typing import Iterator

from .errors import SearchBudgetExceeded


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return list(compress(range(bound + 1), flags))


def power_upto(p: int, k: int, bound: int) -> int:
    """p**k when it is at most bound, else 0 (never computes a huge power)."""
    return p**k if k < bound.bit_length() and p**k <= bound else 0


# Cache limits: a long-lived process must not grow without bound.  2^16
# entries hold the benchmark's working sets (at most ~17k factorizations,
# a few dozen primality tests) with room to spare.
CACHE_LIMIT = 1 << 16


# Miller-Rabin to the first k primes decides every n below the least
# strong pseudoprime to all k of them (OEIS A014233; k = 13: Sorenson and
# Webster, Math. Comp. 2017).  _EXACT_BELOW[k - 1] is that bound.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
PRIME_TEST_LIMIT = _EXACT_BELOW[-1]
_BASES_PRODUCT = prod(_BASES)


@lru_cache(maxsize=CACHE_LIMIT)
def is_prime(n: int) -> bool:
    """Is n prime?  Exact below PRIME_TEST_LIMIT: trial division by the
    13 bases, then Miller-Rabin to as many of them as n's size needs."""
    if n >= PRIME_TEST_LIMIT:
        raise SearchBudgetExceeded(
            f"primality of {n} is past the exact test's range (below {PRIME_TEST_LIMIT})"
        )
    if n < 2:
        return False
    # trial division by all 13 bases at once
    if gcd(n, _BASES_PRODUCT) > 1:
        return n < 43 and n in _BASES
    # no prime up to 41 divides n, so below 43^2 it is prime
    if n < 43 * 43:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, exact_below in zip(_BASES, _EXACT_BELOW):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < exact_below:
            break
    return True


@lru_cache(maxsize=CACHE_LIMIT)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=4096)
def support(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n."""
    return tuple(p for p, _ in factorize(n))


# Growable ascending prime list shared by iter_primes.
_grown: list[int] = primes_upto(1 << 10)


def iter_primes() -> Iterator[int]:
    """Yield 2, 3, 5, ... without a preset bound."""
    i = 0
    while True:
        while i >= len(_grown):
            _grow()
        yield _grown[i]
        i += 1


def _grow() -> None:
    bound = _grown[-1] * 2
    extra = primes_upto(bound)
    _grown.extend(p for p in extra if p > _grown[-1])


def nth_primes(count: int) -> list[int]:
    """The first `count` primes."""
    while len(_grown) < count:
        _grow()
    return _grown[:count]
