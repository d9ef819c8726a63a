"""Point membership in basic opens, incomparability, and separation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinitz import (
    INF,
    ExpMap,
    Family,
    NotIncomparable,
    NotSeparable,
    PointClass,
    PrimeSet,
    SearchBudgetExceeded,
    Sieve,
    Supernatural,
    incomparable,
    member,
    member_intersection,
    separating_side,
    separating_sieves,
)
from steinitz._primes import support

from conftest import (
    PRIMES_TO_100,
    admissible_pair,
    equivalent_variant,
    incomparable_pair,
    rand_multiple,
    rand_sieve,
    rand_supernatural,
    wide_supernaturals,
    written_at,
)


def fam_all(exp):
    return Sieve((), (Family(1, PrimeSet.all_primes(), ExpMap(1, {0: exp}, {})),))


# ------------------------------------------------------------- membership


def test_worked_memberships():
    sinf = Supernatural.all_infinite()
    one = Supernatural.one()
    s = Supernatural.from_exponents({2: INF, 3: INF, 5: 2})
    assert member(sinf, Sieve.of(6))
    assert not member(one, Sieve.of(6))
    assert member(s, Sieve.of(6))
    assert not member(s, Sieve.of(10))
    ones = Supernatural.from_classes(1, {0: 1})
    assert member(ones, fam_all(1))
    assert not member(ones, Sieve.of(2))


def test_exponent_class_fit_without_infinite_part():
    twos = Supernatural.from_classes(1, {0: 2})
    assert member(twos, fam_all(2))
    assert member(twos, fam_all(1))
    assert not member(twos, fam_all(3))


def test_family_cofactor_gates_membership():
    fam = Family(6, PrimeSet.all_primes(), ExpMap(1, {0: 1}, {}))
    s = Sieve((), (fam,))
    assert member(Supernatural.from_exponents({2: INF, 3: INF}), s)
    assert not member(Supernatural.from_exponents({2: INF}), s)


def test_single_generator_law(rng):
    # the open of one generator admits exactly the points whose infinite
    # support swallows the generator's support
    for _ in range(40):
        n = rng.randrange(2, 80)
        x = rand_supernatural(rng)
        inf_supp = x.infinite_support()
        want = all(inf_supp.contains(p) for p in support(n))
        assert member(x, Sieve.of(n)) == want


def test_full_and_empty_sieves(rng):
    assert member(Supernatural.one(), Sieve.full())
    assert not member(Supernatural.all_infinite(), Sieve.empty())
    for _ in range(20):
        x = rand_supernatural(rng)
        assert member(x, Sieve.full())
        assert not member(x, Sieve.empty())


def test_membership_is_class_invariant(rng):
    for _ in range(80):
        x = rand_supernatural(rng)
        s = rand_sieve(rng)
        assert member(x, s) == member(equivalent_variant(rng, x), s)


def test_membership_is_upward_closed(rng):
    for _ in range(60):
        x = rand_supernatural(rng)
        s = rand_sieve(rng)
        if member(x, s):
            assert member(rand_multiple(rng, x), s)


def test_member_accepts_point_wrapper(rng):
    x = rand_supernatural(rng)
    s = rand_sieve(rng)
    assert member(PointClass(x), s) == member(x, s)


def test_intersection_is_conjunction(rng):
    for _ in range(60):
        a, b = admissible_pair(rng)
        x = rand_supernatural(rng)
        both = member_intersection(x, a, b)
        assert both == (member(x, a) and member(x, b))
        assert both == member(x, a.product(b))


def test_point_class_equality():
    a = PointClass(Supernatural.from_int(720))
    b = PointClass(Supernatural.one())
    assert a == b
    assert str(a) == "[2^4 * 3^2 * 5^1]"
    assert PointClass(Supernatural.all_infinite()) != a
    assert hash(a) == hash(b) and len({a, b}) == 1


def retouched(s, primes, values):
    """s with new finite exponents at the given primes where s is finite:
    always an equivalent point."""
    exc = dict(s.exps.exceptions)
    for p, v in zip(primes, values):
        if s.exponent(p) != INF:
            exc[p] = v
    return Supernatural(ExpMap(s.exps.modulus, dict(s.exps.class_values), exc))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(wide_supernaturals(), min_size=1, max_size=4),
    st.lists(st.sampled_from(PRIMES_TO_100), max_size=4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
    st.sampled_from((1, 2, 3, 5)),
)
def test_point_class_hash_agrees_with_equivalence(reps, primes, values, k):
    points = []
    for s in reps:
        variant = retouched(s, primes, values)
        wide = Supernatural(written_at(variant.exps, variant.exps.modulus * k))
        for t in (s, variant, wide):
            assert PointClass(t) == PointClass(s)
            assert hash(PointClass(t)) == hash(PointClass(s))
            points.append(PointClass(t))
    for x in points:
        for y in points:
            if x == y:
                assert hash(x) == hash(y)
    # a set keeps one point per equivalence class
    classes = []
    for x in points:
        if not any(x == y for y in classes):
            classes.append(x)
    assert len(set(points)) == len(classes)


# ---------------------------------------------------------- comparability


def test_incomparable_frozen_cases():
    two = Supernatural.from_exponents({2: INF})
    three = Supernatural.from_exponents({3: INF})
    assert incomparable(two, three)
    assert not incomparable(two, two.mul(three))
    assert not incomparable(two, two)


def test_incomparable_with_nested_infinite_support():
    # the infinite supports nest, yet a dominating residue class of
    # finite exponents blocks weak divisibility in the other direction
    x = Supernatural.from_classes(4, {1: 1, 3: 1}, {2: INF, 3: INF})
    y = Supernatural.from_classes(4, {1: 1, 3: 2}, {2: INF})
    assert y.infinite_support().subset_of(x.infinite_support())
    assert x.weakly_divides(y) is False
    assert y.weakly_divides(x) is False
    assert incomparable(x, y)


def test_generated_pairs_are_incomparable(rng):
    for mode in ("inf", "class", "mixed"):
        for _ in range(20):
            x, y, _ = incomparable_pair(rng, mode)
            assert incomparable(x, y)
            assert incomparable(y, x)


# -------------------------------------------------------------- separation


def test_separation_by_single_prime():
    two = Supernatural.from_exponents({2: INF})
    three = Supernatural.from_exponents({3: INF})
    assert separating_side(two, three) == Sieve.of(2)
    assert separating_side(three, two) == Sieve.of(3)


def test_separation_by_dominance_family():
    x = Supernatural.from_classes(4, {1: 3, 3: 1}, {2: 0})
    y = Supernatural.from_classes(4, {1: 1, 3: 3}, {2: 0})
    left = separating_side(x, y)
    right = separating_side(y, x)
    assert str(left) == "family(cofactor=1; primes=classes(1 mod 4); exp={1:3, 3:1 mod 4})"
    assert str(right) == "family(cofactor=1; primes=classes(3 mod 4); exp={1:1, 3:3 mod 4})"


def test_separation_mixed_branches():
    x = Supernatural.from_classes(4, {1: 1, 3: 1}, {2: INF, 3: INF})
    y = Supernatural.from_classes(4, {1: 1, 3: 2}, {2: INF})
    assert separating_side(x, y) == Sieve.of(3)
    right = separating_side(y, x)
    assert right.families and not right.finite_gens
    w = separating_sieves(x, y)
    assert w.x_in_left and not w.y_in_left
    assert w.y_in_right and not w.x_in_right


def test_separation_postconditions_randomized(rng):
    for mode in ("inf", "class", "mixed"):
        for _ in range(15):
            x, y, _ = incomparable_pair(rng, mode)
            w = separating_sieves(x, y)
            assert member(x, w.left) and not member(y, w.left)
            assert member(y, w.right) and not member(x, w.right)
            # and the opens separate the whole classes, not just the reps
            assert member(equivalent_variant(rng, x), w.left)
            assert not member(equivalent_variant(rng, y), w.left)


def test_separation_requires_incomparability(rng):
    x = rand_supernatural(rng)
    with pytest.raises(NotSeparable):
        separating_side(x, rand_multiple(rng, x))
    with pytest.raises(NotIncomparable):
        separating_sieves(x, x)


def test_separation_budget():
    x = Supernatural.from_exponents({31: INF})
    y = Supernatural.from_exponents({2: INF})
    with pytest.raises(SearchBudgetExceeded):
        separating_side(x, y, prime_budget=5)
    with pytest.raises(SearchBudgetExceeded):
        separating_sieves(x, y, prime_budget=5)
    assert separating_side(x, y, prime_budget=20) == Sieve.of(31)
