"""Exponent maps, prime sets, and the supernatural arithmetic.

The randomized checks compare every closed-form decision against the
definition evaluated prime by prime on a window.  Generator exceptions
all sit below 30 and moduli divide 12, so values at primes in
[200, 2000) are purely classwise and every residue class shows up many
times; a window verdict on that range decides the classwise tail.
"""

import math
import timeit
from functools import reduce

import pytest

from steinitz import (
    INF,
    ExpMap,
    FractionalSupernatural,
    PointClass,
    PrimeSet,
    SearchBudgetExceeded,
    Supernatural,
    int_divides,
    unit_residues,
)
from steinitz._primes import primes_upto
from steinitz.cli import parse_supernatural

from conftest import equivalent_variant, rand_primeset, rand_supernatural, written_at

WINDOW = tuple(primes_upto(2000))
TAIL = tuple(p for p in WINDOW if p >= 200)


def divides_oracle(x, y):
    return all(x.exponent(p) <= y.exponent(p) for p in WINDOW)


def equivalent_oracle(x, y):
    if any((x.exponent(p) == INF) != (y.exponent(p) == INF) for p in WINDOW):
        return False
    return all(x.exponent(p) == y.exponent(p) for p in TAIL)


def wd_oracle(x, y):
    # infinite support containment, then only finitely many finite drops
    if any(x.exponent(p) == INF and y.exponent(p) != INF for p in WINDOW):
        return False
    return all(
        y.exponent(p) == INF or x.exponent(p) <= y.exponent(p) for p in TAIL
    )


# ---------------------------------------------------------------- integers


def test_from_int_matches_integer_arithmetic(rng):
    for _ in range(300):
        n, m = rng.randrange(1, 500), rng.randrange(1, 500)
        sn, sm = Supernatural.from_int(n), Supernatural.from_int(m)
        assert sn.divides(sm) == (m % n == 0)
        assert sn.mul(sm) == Supernatural.from_int(n * m)
        assert sn.lcm(sm) == Supernatural.from_int(math.lcm(n, m))
        assert int_divides(n, sm) == (m % n == 0)


def test_finite_values_are_all_equivalent(rng):
    # no infinite part and finitely many nonzero exponents on each side
    for _ in range(50):
        n, m = rng.randrange(1, 10_000), rng.randrange(1, 10_000)
        assert Supernatural.from_int(n).equivalent(Supernatural.from_int(m))


def test_from_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        Supernatural.from_int(0)
    with pytest.raises(ValueError):
        Supernatural.from_int(-6)


# ------------------------------------------------------- pointwise algebra


def test_mul_lcm_divides_pointwise(rng):
    for _ in range(120):
        x, y = rand_supernatural(rng), rand_supernatural(rng)
        prod, join = x.mul(y), x.lcm(y)
        for p in WINDOW[:60]:
            assert prod.exponent(p) == x.exponent(p) + y.exponent(p)
            assert join.exponent(p) == max(x.exponent(p), y.exponent(p))
        assert x.divides(y) == divides_oracle(x, y)
        assert x.divides(prod) and y.divides(prod)
        assert x.divides(join) and y.divides(join)


def test_operator_mul_is_mul(rng):
    x, y = rand_supernatural(rng), rand_supernatural(rng)
    assert (x * y) == x.mul(y)


def test_equivalent_against_window_oracle(rng):
    pairs = []
    for _ in range(150):
        x = rand_supernatural(rng)
        pairs.append((x, rand_supernatural(rng)))
        pairs.append((x, equivalent_variant(rng, x)))
    for x, y in pairs:
        assert x.equivalent(y) == equivalent_oracle(x, y)


def test_weakly_divides_against_window_oracle(rng):
    for _ in range(150):
        x = rand_supernatural(rng)
        y = rand_supernatural(rng)
        assert x.weakly_divides(y) == wd_oracle(x, y)
        assert x.weakly_divides(x.mul(y)) == wd_oracle(x, x.mul(y))
        v = equivalent_variant(rng, x)
        assert x.weakly_divides(v) and v.weakly_divides(x)


def test_order_relations_chain(rng):
    # plain divisibility is the strongest, weak divisibility the coarsest
    for _ in range(100):
        x, y = rand_supernatural(rng), rand_supernatural(rng)
        if x.divides(y):
            assert x.weakly_divides(y)
        if x.equivalent(y):
            assert x.weakly_divides(y) and y.weakly_divides(x)
        if x.weakly_divides(y) and y.weakly_divides(x):
            assert x.equivalent(y)


def test_infinite_support_matches_exponents(rng):
    for _ in range(60):
        x = rand_supernatural(rng)
        supp = x.infinite_support()
        for p in WINDOW:
            assert supp.contains(p) == (x.exponent(p) == INF)


# ------------------------------------------------------------ frozen values


def test_str_of_integers():
    assert str(Supernatural.from_int(720)) == "2^4 * 3^2 * 5^1"
    assert str(Supernatural.from_int(1)) == "one"
    assert str(Supernatural.one()) == "one"


def test_str_of_full_infinite():
    assert str(Supernatural.all_infinite()) == "sinf"


def test_str_classwise():
    s = Supernatural.from_classes(4, {1: 2, 3: 1}, {2: 0})
    assert str(s) == "2^0 ; default {1:2, 3:1} mod 4"
    t = Supernatural.from_classes(1, {0: 2})
    assert str(t) == "one ; default 2"
    u = Supernatural.from_exponents({2: INF, 3: 4})
    assert str(u) == "2^inf * 3^4"


def test_worked_equivalences():
    one = Supernatural.one()
    assert Supernatural.from_int(720).equivalent(one)
    a = Supernatural.from_exponents({2: INF, 3: 5})
    b = Supernatural.from_exponents({2: INF, 7: 2})
    assert a.equivalent(b)
    assert not a.equivalent(Supernatural.from_exponents({3: INF}))
    assert a.lcm(b) == Supernatural.from_exponents({2: INF, 3: 5, 7: 2})


def test_worked_weak_divisibility():
    d2 = Supernatural.from_classes(1, {0: 2})
    d1 = Supernatural.from_classes(1, {0: 1})
    assert not d2.weakly_divides(d1)
    assert d1.weakly_divides(d2)


def test_all_infinite_absorbs(rng):
    top = Supernatural.all_infinite()
    for _ in range(20):
        x = rand_supernatural(rng)
        assert x.divides(top)
        assert x.mul(top) == top
        assert top.lcm(x) == top


# ------------------------------------------------------------ construction


def test_expmap_drops_removable_exceptions():
    em = ExpMap(4, {1: 2, 3: 1}, {2: 0, 5: 2})
    assert em.exceptions == {2: 0}
    em2 = ExpMap(4, {1: 2, 3: 1}, {2: 0, 5: 3})
    assert em2.exceptions == {2: 0, 5: 3}


def test_expmap_requires_modulus_primes():
    with pytest.raises(ValueError):
        ExpMap(4, {1: 0, 3: 0}, {})


def test_expmap_rejects_bad_keys():
    with pytest.raises(ValueError):
        ExpMap(4, {1: 0, 2: 0}, {2: 0})  # 2 is not a unit residue
    with pytest.raises(ValueError):
        ExpMap(1, {0: 0}, {4: 1})  # composite exception prime
    with pytest.raises(ValueError):
        ExpMap(1, {0: True}, {})  # bool is not an exponent


def test_supernatural_rejects_negative():
    with pytest.raises(ValueError):
        Supernatural.from_exponents({2: -1})


WIDE = 255255
WIDE_UNITS = unit_residues(WIDE)
WIDE_PINNED = {q: 0 for q in (3, 5, 7, 11, 13, 17)}
BAD_EXPONENTS = (True, False, 1.0, -INF, math.nan, "1", None)


def raises_message(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_expmap_names_the_first_bad_exponent():
    for v in BAD_EXPONENTS:
        raises_message(
            lambda: ExpMap(12, {1: 0, 5: v, 7: INF, 11: v}, {2: 0, 3: 0}),
            f"bad exponent {v!r} at class 5",
        )
        values = dict.fromkeys(WIDE_UNITS, 1)
        values[WIDE_UNITS[-1]] = v
        raises_message(
            lambda: ExpMap(WIDE, values, WIDE_PINNED),
            f"bad exponent {v!r} at class {WIDE_UNITS[-1]}",
        )
    for v in (2**70, INF):
        assert ExpMap(12, {1: 0, 5: v, 7: 1, 11: v}, {2: 0, 3: 0}).class_values[5] == v
        values = dict.fromkeys(WIDE_UNITS, 1)
        values[WIDE_UNITS[-1]] = v
        assert ExpMap(WIDE, values, WIDE_PINNED).class_values[WIDE_UNITS[-1]] == v


def test_expmap_needs_exactly_the_unit_residues():
    message = "class_values must cover exactly the unit residues mod 12"
    for values in (
        {1: 0, 5: 0, 7: 0},  # missing
        {1: 0, 5: 0, 7: 0, 11: 0, 3: 0},  # extra
        {1: 0, 5: 0, 7: 0, 3: 0},  # a non-unit in place of a unit
        {1: 0, 5: 0, 7: 0, 13: 0},  # out of range
    ):
        raises_message(lambda: ExpMap(12, values, {2: 0, 3: 0}), message)
    values = dict.fromkeys(WIDE_UNITS, 0)
    del values[WIDE_UNITS[-1]]
    raises_message(
        lambda: ExpMap(WIDE, values, WIDE_PINNED),
        f"class_values must cover exactly the unit residues mod {WIDE}",
    )
    values[0] = 0
    raises_message(
        lambda: ExpMap(WIDE, values, WIDE_PINNED),
        f"class_values must cover exactly the unit residues mod {WIDE}",
    )


def test_negative_class_messages():
    em = ExpMap(12, {1: 0, 5: -1, 7: 2, 11: -1}, {2: 0, 3: 0})
    raises_message(lambda: Supernatural(em), "negative exponent -1 not allowed at class 5")
    raises_message(
        lambda: FractionalSupernatural(em),
        "negative exponent -1 not allowed at class 5 (denominators must be finite products)",
    )
    raises_message(
        lambda: Supernatural(ExpMap(1, {0: 0}, {7: 1, 5: -3})),
        "negative exponent -3 not allowed at prime 5",
    )
    values = dict.fromkeys(WIDE_UNITS, INF)
    values[WIDE_UNITS[-1]] = -4
    raises_message(
        lambda: Supernatural(ExpMap(WIDE, values, WIDE_PINNED)),
        f"negative exponent -4 not allowed at class {WIDE_UNITS[-1]}",
    )


def test_wide_map_is_hashed_once():
    values = dict.fromkeys(WIDE_UNITS, 1)
    values[1] = 2
    a = ExpMap(WIDE, values, WIDE_PINNED)
    assert a.modulus == WIDE
    h = hash(a)
    # the 92,160 class values are hashed by the first call only
    assert min(timeit.repeat(lambda: hash(a), number=1, repeat=5)) < 1e-3
    assert hash(a) == h
    b = ExpMap(WIDE, dict(values), dict(WIDE_PINNED))
    assert a == b and hash(b) == h
    assert len({Supernatural(a), Supernatural(b)}) == 1
    moved = ExpMap(WIDE, values, {**WIDE_PINNED, 19: 5})
    assert moved != a
    values[1] = 3
    assert ExpMap(WIDE, values, WIDE_PINNED) != a
    # one finite exponent changed: an equivalent point, so the same hash
    x, y = PointClass(Supernatural(a)), PointClass(Supernatural(moved))
    assert x == y and hash(x) == hash(y)
    # a point hashes its representative's class values through the map
    assert min(timeit.repeat(lambda: hash(x), number=1, repeat=5)) < 1e-3


def test_unit_residues_match_gcd_definition():
    for m in (*range(3001), WIDE):
        assert unit_residues(m) == tuple(r for r in range(m) if math.gcd(r, m) == 1), m
    assert len(unit_residues(WIDE)) == 92160


def test_expmap_refined_preserves_values(rng):
    for _ in range(60):
        x = rand_supernatural(rng)
        m2 = x.exps.modulus * rng.choice((2, 3, 4, 6))
        r = x.exps.refined(m2)
        for p in WINDOW[:50]:
            assert r.value_at(p) == x.exps.value_at(p)


def test_semantic_equality_across_moduli():
    a = Supernatural.from_classes(2, {1: 3}, {2: 0})
    b = Supernatural.from_classes(4, {1: 3, 3: 3}, {2: 0})
    assert a == b
    assert not (a == Supernatural.from_classes(4, {1: 3, 3: 2}, {2: 0}))


def test_written_modulus_does_not_matter(rng):
    # one value, whatever multiple of its period it is written at: equal,
    # the same hash, the same literal, one element of a set
    for _ in range(80):
        k = rng.choice((2, 3, 5, 6, 35))
        x = rand_supernatural(rng)
        y = Supernatural(written_at(x.exps, k * x.exps.modulus))
        assert (y, hash(y), str(y)) == (x, hash(x), str(x))
        assert (y.exps, hash(y.exps)) == (x.exps, hash(x.exps))
        assert len({x, y}) == 1
        ps = rand_primeset(rng)
        qs = written_at(ps, k * ps.modulus)
        assert (qs, hash(qs), str(qs)) == (ps, hash(ps), str(ps))
        assert len({ps, qs}) == 1


def test_constant_maps_reduce_to_modulus_one():
    # exponent 1 everywhere, written at each prime modulus from 3 to 17
    ops = [
        Supernatural.from_classes(q, {r: 1 for r in range(1, q)}, {q: 1})
        for q in (3, 5, 7, 11, 13, 17)
    ]
    total = reduce(Supernatural.lcm, ops)
    assert total.exps.modulus == 1
    assert total == Supernatural.from_exponents({}, default=1)


# ---------------------------------------------------------------- PrimeSet


def test_primeset_str_forms():
    assert str(PrimeSet.all_primes()) == "all"
    assert str(PrimeSet.empty()) == "{}"
    assert str(PrimeSet.of(2, 3, 11)) == "{2,3,11}"
    assert str(PrimeSet(4, frozenset({1, 3}), frozenset(), frozenset())) == (
        "all - {2}"
    )
    full = PrimeSet(4, frozenset({1}), frozenset({2}), frozenset({5, 13}))
    assert str(full) == "classes(1 mod 4) + {2} - {5,13}"


def test_primeset_minimal_form():
    ps = PrimeSet(4, frozenset({1}), frozenset({5}), frozenset({7}))
    assert ps.include == frozenset()  # 5 already in class 1
    assert ps.exclude == frozenset()  # 7 was never in


def test_primeset_contains_matches_construction(rng):
    # membership must mean (class or include) and not exclude, whatever
    # minimal form the constructor rewrote the pieces into
    for _ in range(80):
        m = rng.choice((1, 2, 3, 4, 6, 12))
        units = unit_residues(m)
        classes = frozenset(r for r in units if rng.random() < 0.4)
        inc = frozenset(rng.sample((2, 3, 5, 7, 11, 13), rng.randrange(3)))
        exc = frozenset(rng.sample((17, 19, 23, 29), rng.randrange(3))) - inc
        ps = PrimeSet(m, classes, inc, exc)
        for p in primes_upto(300):
            want = (p % m in classes or p in inc) and p not in exc
            assert ps.contains(p) == want, (m, classes, inc, exc, p)
        assert ps.members(300) == [p for p in primes_upto(300) if ps.contains(p)]


def test_primeset_boolean_algebra(rng):
    for _ in range(80):
        a, b = rand_primeset(rng), rand_primeset(rng)
        u, i, d = a.union(b), a.intersection(b), a.difference(b)
        for p in WINDOW[:120]:
            assert u.contains(p) == (a.contains(p) or b.contains(p))
            assert i.contains(p) == (a.contains(p) and b.contains(p))
            assert d.contains(p) == (a.contains(p) and not b.contains(p))


def test_primeset_predicates_against_window(rng):
    for _ in range(80):
        a, b = rand_primeset(rng), rand_primeset(rng)
        assert a.subset_of(b) == all(b.contains(p) for p in a.members(2000))
        assert a.intersects(b) == any(b.contains(p) for p in a.members(2000))
        assert a.is_empty() == (not a.members(2000))
        # infinite means a whole class survives; in a window that is
        # indistinguishable from "has members past the includes"
        assert a.is_infinite() == any(p > 29 for p in a.members(2000))


def test_primeset_semantic_equality():
    odd_plus_two = PrimeSet(2, frozenset({1}), frozenset({2}), frozenset())
    assert odd_plus_two == PrimeSet.all_primes()
    assert PrimeSet.of(3) != PrimeSet.of(5)


def test_first_member():
    assert PrimeSet.of(31).first_member() == 31
    assert PrimeSet(4, frozenset({3}), frozenset(), frozenset()).first_member() == 3
    with pytest.raises(SearchBudgetExceeded):
        PrimeSet.of(31).first_member(prime_budget=5)


# ------------------------------------------------------------- round trips


def test_str_roundtrip_through_parser(rng):
    for _ in range(200):
        x = rand_supernatural(rng)
        assert parse_supernatural(str(x)) == x
    for n in (1, 2, 97, 720, 2**10):
        x = Supernatural.from_int(n)
        assert parse_supernatural(str(x)) == x
