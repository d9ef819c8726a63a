"""The (scale, denominators) pair form and rank-one cone membership."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinitz import (
    INF,
    BZPair,
    ExpMap,
    FractionalSupernatural,
    Sieve,
    Supernatural,
    TruncatedCone,
    cone_contains,
    cone_enumerate,
    cones_isomorphic,
    frac_to_pair,
    int_divides,
    pair_to_frac,
)
from steinitz._primes import factorize

from conftest import SPARE_PRIMES, rand_supernatural, wide_supernaturals


def rand_fractional(rng):
    base = rand_supernatural(rng)
    exc = dict(base.exps.exceptions)
    for p in rng.sample(SPARE_PRIMES, rng.randrange(3)):
        exc[p] = -rng.randrange(1, 4)
    return FractionalSupernatural(ExpMap(base.exps.modulus, dict(base.exps.class_values), exc))


def rand_pair(rng):
    den = rand_supernatural(rng)
    scale = 1
    for p in SPARE_PRIMES:
        if den.exponent(p) == 0 and rng.random() < 0.4:
            scale *= p ** rng.randrange(1, 3)
    return BZPair(scale, den)


def cone_brute(pair, num_bound, den_bound):
    # generate scale*n/m directly from the definition, then reduce and
    # keep what lands in the window; a reduced member u/v is generated
    # at m = v, n = u/scale, so m up to den_bound is enough
    out = set()
    for m in range(1, den_bound + 1):
        if not int_divides(m, pair.denominators):
            continue
        for n in range(1, num_bound * m // pair.scale + 1):
            q = Fraction(pair.scale * n, m)
            if q.numerator <= num_bound and q.denominator <= den_bound:
                out.add(q)
    return tuple(sorted(out))


# -------------------------------------------------------------- pair form


def test_frozen_roundtrip():
    f = FractionalSupernatural(ExpMap(1, {0: 0}, {2: -3, 3: 1, 5: -1}))
    assert str(f) == "2^-3 * 3^1 * 5^-1"
    pair = frac_to_pair(f)
    assert pair.scale == 40
    assert pair.denominators == Supernatural.from_int(3)
    assert str(pair) == "(40, 3^1)"
    assert pair_to_frac(pair) == f


def test_roundtrip_randomized(rng):
    for _ in range(150):
        f = rand_fractional(rng)
        assert pair_to_frac(frac_to_pair(f)) == f
    for _ in range(150):
        pair = rand_pair(rng)
        assert frac_to_pair(pair_to_frac(pair)) == pair


def test_pair_coprimality_invariant(rng):
    for _ in range(80):
        pair = frac_to_pair(rand_fractional(rng))
        for p, _e in factorize(pair.scale):
            assert pair.denominators.exponent(p) == 0


def test_pair_validation():
    with pytest.raises(ValueError):
        BZPair(2, Supernatural.from_int(2))
    with pytest.raises(ValueError):
        BZPair(0, Supernatural.one())
    with pytest.raises(ValueError):
        BZPair(-3, Supernatural.one())


def test_negative_part():
    f = FractionalSupernatural(ExpMap(1, {0: 0}, {2: -3, 3: 1, 5: -1}))
    assert f.negative_part() == {2: 3, 5: 1}
    g = FractionalSupernatural(ExpMap(1, {0: 0}, {3: 2}))
    assert g.negative_part() == {}


# ------------------------------------------------------------------ cones


def test_cone_contains_frozen():
    pair = BZPair(1, Supernatural.from_exponents({2: INF}))
    assert cone_contains(pair, Fraction(1, 8))
    assert cone_contains(pair, Fraction(1, 1024))
    assert not cone_contains(pair, Fraction(1, 3))
    assert cone_contains(pair, Fraction(7, 4))


def test_cone_contains_needs_positive():
    pair = BZPair(1, Supernatural.one())
    with pytest.raises(ValueError):
        cone_contains(pair, Fraction(0))
    with pytest.raises(ValueError):
        cone_contains(pair, Fraction(-2, 3))


def test_cone_enumerate_frozen():
    pair = BZPair(1, Supernatural.from_exponents({2: INF}))
    got = cone_enumerate(pair, 3, 4)
    assert got == tuple(
        Fraction(a, b)
        for a, b in ((1, 4), (1, 2), (3, 4), (1, 1), (3, 2), (2, 1), (3, 1))
    )


def test_cone_enumerate_matches_brute(rng):
    for _ in range(40):
        pair = rand_pair(rng)
        nb, db = rng.randrange(2, 25), rng.randrange(1, 25)
        got = cone_enumerate(pair, nb, db)
        assert got == cone_brute(pair, nb, db), (str(pair), nb, db)
        for q in got:
            assert cone_contains(pair, q)


def divides_by_factorization(n, s):
    return all(e <= s.exponent(p) for p, e in factorize(n))


def cone_enumerate_by_fractions(pair, num_bound, den_bound):
    # the enumeration as first written: factorize each denominator, and
    # build a Fraction for each candidate
    out = []
    for v in range(1, den_bound + 1):
        if not divides_by_factorization(v, pair.denominators):
            continue
        for u in range(pair.scale, num_bound + 1, pair.scale):
            if Fraction(u, v).denominator == v:
                out.append(Fraction(u, v))
    return tuple(sorted(out))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(wide_supernaturals(), st.integers(1, 40), st.integers(1, 40), st.integers(1, 200))
def test_cone_enumerate_matches_fraction_loop(dens, scale, num_bound, den_bound):
    scale = prod(p**e for p, e in factorize(scale) if dens.exponent(p) == 0)
    pair = BZPair(scale, dens)
    assert cone_enumerate(pair, num_bound, den_bound) == cone_enumerate_by_fractions(
        pair, num_bound, den_bound
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_supernaturals(), st.integers(1, 10**6))
def test_int_divides_matches_factorization(s, n):
    assert int_divides(n, s) == divides_by_factorization(n, s)
    assert int_divides(n * 2**40, s) == divides_by_factorization(n * 2**40, s)


def test_from_pair_leaves_factorize_cache_alone():
    pair, monoid = BZPair(1, Supernatural.from_exponents({2: INF})), Sieve.of(2)
    factorize.cache_clear()  # else earlier tests may have cached 1..720 already
    cone = TruncatedCone.from_pair(pair, monoid, 4, 720)
    assert factorize.cache_info().currsize == 0
    assert len(cone.elements) == 4 * 10 - 2 * 9  # v = 2^0..2^9, u = 1..4 coprime to v


def test_cone_contains_matches_brute_membership(rng):
    for _ in range(30):
        pair = rand_pair(rng)
        window = set(cone_brute(pair, 24, 24))
        for u in range(1, 25):
            for v in range(1, 25):
                q = Fraction(u, v)
                if q.numerator <= 24 and q.denominator <= 24:
                    assert cone_contains(pair, q) == (q in window), (str(pair), q)


def test_cones_isomorphic():
    a = BZPair(1, Supernatural.from_exponents({2: INF}))
    b = BZPair(5, Supernatural.from_exponents({2: INF, 3: 1}))
    c = BZPair(1, Supernatural.from_exponents({3: INF}))
    assert cones_isomorphic(a, b)
    assert not cones_isomorphic(a, c)


def test_isomorphism_ignores_scale(rng):
    for _ in range(40):
        pair = rand_pair(rng)
        again = BZPair(1, pair.denominators)
        assert cones_isomorphic(pair, again)
