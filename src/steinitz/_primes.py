"""Prime plumbing: primality tests, factorization, bounded enumeration.

Everything here is exact and deterministic.  The growable sieve keeps CLI
startup instant while letting callers walk as many primes as a search
budget allows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def power_upto(p: int, k: int, bound: int) -> int:
    """p**k when it is at most bound, else 0 (never computes a huge power)."""
    return p**k if k < bound.bit_length() and p**k <= bound else 0


# Cache limits: a long-lived process must not grow without bound.  2^16
# entries hold the benchmark's working sets (at most ~17k factorizations,
# a few dozen primality tests) with room to spare.
CACHE_LIMIT = 1 << 16


@lru_cache(maxsize=CACHE_LIMIT)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    # trial division over 6k +- 1
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
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
