"""The prime utilities against naive trial division."""

import pytest

from steinitz._primes import (
    PRIME_TEST_LIMIT,
    factorize,
    is_prime,
    iter_primes,
    nth_primes,
    primes_upto,
    support,
)
from steinitz.errors import SearchBudgetExceeded


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_primes_upto_matches_trial_division():
    got = primes_upto(3000)
    want = [n for n in range(2, 3001) if naive_is_prime(n)]
    assert list(got) == want


def test_primes_upto_small_bounds():
    assert list(primes_upto(1)) == []
    assert list(primes_upto(2)) == [2]


def test_factorize_roundtrip():
    for n in range(1, 1500):
        fac = factorize(n)
        assert fac == naive_factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


def test_support():
    assert support(1) == ()
    assert support(12) == (2, 3)
    assert support(97) == (97,)


def test_iter_primes_prefix():
    it = iter_primes()
    first = [next(it) for _ in range(200)]
    assert first == list(primes_upto(first[-1]))


def test_nth_primes():
    assert nth_primes(5) == [2, 3, 5, 7, 11]
    assert len(nth_primes(1000)) == 1000
    assert nth_primes(1000)[-1] == 7919


def test_caches_are_bounded():
    from steinitz.supernat import unit_residues

    for cached in (is_prime, factorize, support, unit_residues):
        assert cached.cache_info().maxsize is not None, cached


def test_is_prime_matches_the_sieve_to_a_million():
    # the wrapped function, so the cache is neither filled nor consulted
    assert list(filter(is_prime.__wrapped__, range(10**6 + 1))) == primes_upto(10**6)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 4, 9 and 12 prime bases:
    # each passes those bases and fails the next one
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)


def test_is_prime_raises_past_its_exact_range():
    # the least strong pseudoprime to all 13 bases, where exactness ends
    assert PRIME_TEST_LIMIT == 3317044064679887385961981
    with pytest.raises(SearchBudgetExceeded):
        is_prime(3317044064679887385961981)
    with pytest.raises(SearchBudgetExceeded):
        is_prime(2**89 - 1)
