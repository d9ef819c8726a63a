"""Sieves, families, and numerical-semigroup presentations.

The load-bearing checks are the three integer-level laws, each verified
against an independently evaluated right-hand side:

    n in S.union(T)      iff  n in S or n in T
    n in S.product(T)    iff  n in S and n in T
    n in S.transport(c)  iff  n*c in S
"""

import pytest

from steinitz import (
    ExpMap,
    Family,
    NonCoprimeGenerators,
    PrimeSet,
    Sieve,
    SMonoidPresentation,
    UnsupportedProduct,
    smonoid_contains,
    smonoid_to_sieve,
)
from steinitz.cli import parse_sieve

from conftest import admissible_pair, rand_family, rand_sieve, written_at

N_WINDOW = 400


def contains_oracle(s, n):
    # a sieve member divides n: either a finite generator or some
    # family instance; instances at primes past n are too big already
    if any(n % g == 0 for g in s.finite_gens):
        return True
    for fam in s.families:
        for p in fam.primes.members(n):
            if n % fam.instance(p) == 0:
                return True
    return False


def test_contains_matches_instance_oracle(rng):
    for _ in range(60):
        s = rand_sieve(rng)
        for n in range(1, N_WINDOW):
            assert s.contains(n) == contains_oracle(s, n), (str(s), n)


def test_union_law(rng):
    for _ in range(40):
        a, b = rand_sieve(rng), rand_sieve(rng)
        u = a.union(b)
        for n in range(1, N_WINDOW):
            assert u.contains(n) == (a.contains(n) or b.contains(n))


def test_product_law(rng):
    for _ in range(40):
        a, b = admissible_pair(rng)
        p = a.product(b)
        for n in range(1, N_WINDOW):
            assert p.contains(n) == (a.contains(n) and b.contains(n)), (
                str(a),
                str(b),
                n,
            )


def test_product_of_two_families_unsupported(rng):
    a = Sieve((), (rand_family(rng),))
    b = Sieve((), (rand_family(rng),))
    with pytest.raises(UnsupportedProduct):
        a.product(b)


def test_transport_law(rng):
    for _ in range(40):
        s = rand_sieve(rng)
        c = rng.randrange(1, 60)
        t = s.transport(c)
        for n in range(1, N_WINDOW):
            assert t.contains(n) == s.contains(n * c), (str(s), c, n)


def test_transport_by_one_is_identity(rng):
    s = rand_sieve(rng)
    assert s.transport(1) == s


def test_normalize_preserves_membership(rng):
    for _ in range(40):
        gens = tuple(rng.randrange(2, 80) for _ in range(rng.randrange(4)))
        fams = tuple(rand_family(rng) for _ in range(rng.randrange(2)))
        raw = Sieve(gens, fams)
        norm = raw.normalize()
        for n in range(1, N_WINDOW):
            assert raw.contains(n) == norm.contains(n)
        assert norm.normalize() == norm


def test_normal_forms_frozen():
    assert str(Sieve.of(6, 12)) == "sieve(6)"
    assert str(Sieve.of(1, 7)) == "sieve(1)"
    assert str(Sieve.empty()) == "sieve()"
    assert str(Sieve.of(6).product(Sieve.of(10))) == "sieve(30)"


def test_family_fold_into_generators():
    # instances at explicitly included primes become plain generators
    f = Family(
        3,
        PrimeSet(1, frozenset(), frozenset({2, 5}), frozenset()),
        ExpMap(1, {0: 2}, {}),
    )
    s = Sieve((), (f,)).normalize()
    assert s == Sieve.of(12, 75)


def test_family_cofactor_under_generator_is_dropped():
    f_all1 = Family(1, PrimeSet.all_primes(), ExpMap(1, {0: 1}, {}))
    prod = Sieve.of(4).product(Sieve((), (f_all1,)))
    assert str(prod) == "sieve(4)"


def test_transport_can_fill_the_sieve():
    f_all2 = Family(1, PrimeSet.all_primes(), ExpMap(1, {0: 2}, {}))
    s = Sieve((), (f_all2,)).normalize()
    t = s.transport(4)
    assert t.is_full()
    assert str(t) == "sieve(1)"


def test_fullness_predicates():
    assert Sieve.full().is_full()
    assert Sieve.full().contains(1)
    assert not Sieve.of(2).contains(1)
    assert Sieve.of(2).is_proper()
    assert Sieve.empty().is_empty_sieve()
    assert Sieve.empty().is_proper()


def test_members_upto():
    assert Sieve.of(4).members_upto(20) == [4, 8, 12, 16, 20]
    assert Sieve.empty().members_upto(50) == []


def test_family_validation():
    with pytest.raises(ValueError):
        Family(0, PrimeSet.all_primes(), ExpMap(1, {0: 1}, {}))
    with pytest.raises(ValueError):
        Family(1, PrimeSet.all_primes(), ExpMap(1, {0: 0}, {}))


def test_family_instance():
    f = Family(6, PrimeSet.all_primes(), ExpMap(4, {1: 2, 3: 1}, {2: 1}))
    assert f.instance(5) == 6 * 25
    assert f.instance(7) == 6 * 7
    assert f.instance(2) == 12


def test_sieve_str_roundtrip(rng):
    for _ in range(120):
        s = rand_sieve(rng)
        assert parse_sieve(str(s)) == s, str(s)


def test_families_and_sieves_hash_structurally(rng):
    for _ in range(60):
        f = rand_family(rng)
        k = rng.choice((2, 3, 5))
        g = Family(
            f.cofactor,
            written_at(f.primes, k * f.primes.modulus),
            written_at(f.exponents, k * f.exponents.modulus),
        )
        assert (g, hash(g)) == (f, hash(f))
        s = Sieve((6,), (f,)).normalize()
        t = Sieve((6,), (g,)).normalize()
        assert (t, hash(t)) == (s, hash(s))
        assert len({s, t}) == 1


# ------------------------------------------------------ numerical monoids


def dp_reachable(gens, bound):
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(n >= g and reach[n - g] for g in gens)
    return reach


def naive_frobenius(gens):
    cap = max(gens) ** 2 + max(gens)
    reach = dp_reachable(gens, cap)
    return max(n for n in range(cap + 1) if not reach[n])


def test_smonoid_contains_matches_dp(rng):
    for gens in ((3, 5), (4, 7), (6, 9, 20), (2, 3), (5, 7, 9), (11, 13)):
        m = SMonoidPresentation(gens)
        reach = dp_reachable(gens, 400)
        for n in range(401):
            assert m.contains(n) == reach[n], (gens, n)
    for _ in range(20):
        gens = tuple(rng.randrange(2, 30) for _ in range(rng.randrange(1, 4)))
        m = SMonoidPresentation(gens)
        reach = dp_reachable(gens, 300)
        for n in range(301):
            assert m.contains(n) == reach[n], (gens, n)


def test_rep_tables_stay_bounded():
    from steinitz import sieve as sieve_module

    for a in range(2, 40):
        for b in (a + 1, a + 2, a + 3, a + 5):
            m = SMonoidPresentation((a, b))
            assert m.contains(a * b) and not m.contains(1)
    # 152 generator tuples, so the oldest Apery vectors were evicted
    assert sieve_module._apery.cache_info().currsize <= 128
    # an evicted vector is rebuilt on demand
    assert SMonoidPresentation((2, 3)).contains(7)


def test_frobenius_frozen_and_brute():
    assert SMonoidPresentation((3, 5)).frobenius_number() == 7
    assert SMonoidPresentation((4, 7)).frobenius_number() == 17
    assert SMonoidPresentation((6, 9, 20)).frobenius_number() == 43
    assert SMonoidPresentation((2, 3)).frobenius_number() == 1
    assert SMonoidPresentation((1,)).frobenius_number() == -1
    for gens in ((3, 7), (5, 8), (7, 11), (4, 9, 11)):
        assert SMonoidPresentation(gens).frobenius_number() == naive_frobenius(gens)


def test_frobenius_needs_coprime_generators():
    with pytest.raises(NonCoprimeGenerators):
        SMonoidPresentation((4, 6)).frobenius_number()
    with pytest.raises(NonCoprimeGenerators):
        SMonoidPresentation((5,)).frobenius_number()


def test_smonoid_sieve_frozen():
    s, exact = smonoid_to_sieve((3, 5))
    assert exact
    assert str(s) == "sieve(3,5,8,14,49) + family(cofactor=1; primes=all - {2,3,5,7}; exp=1)"
    s2, exact2 = smonoid_to_sieve((2, 3))
    assert exact2
    assert str(s2) == "family(cofactor=1; primes=all; exp=1)"
    s3, exact3 = smonoid_to_sieve((1,))
    assert exact3
    assert s3.is_full()


def test_smonoid_sieve_equivalence():
    for gens in ((3, 5), (2, 3), (4, 7), (6, 9, 20), (5, 7, 9)):
        s, exact = smonoid_to_sieve(gens)
        assert exact
        reach = dp_reachable(gens, 2000)
        for n in range(1, 2001):
            assert s.contains(n) == reach[n], (gens, n)


def test_smonoid_sieve_truncated_is_sound():
    s, exact = smonoid_to_sieve((3, 5), search_bound=10)
    assert not exact
    m = SMonoidPresentation((3, 5))
    for n in range(1, 500):
        if s.contains(n):
            assert m.contains(n)
    assert m.contains(14) and not s.contains(14)


def test_smonoid_module_helpers():
    assert smonoid_contains((3, 5), 8)
    assert not smonoid_contains((3, 5), 7)
