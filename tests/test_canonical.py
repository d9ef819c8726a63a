"""Canonical form of exponent maps and prime sets, as hypothesis properties.

Moduli are products of prime powers over the primes up to 17 and
exception primes reach 100, past the conftest generators (moduli
dividing 12, exceptions below 30).  Each drawn value is a plain spec:
a modulus, a table over its unit residues and per-prime exceptions
(include/exclude for a prime set).  The test evaluates specs itself,
prime by prime and class by class, and never asks steinitz how.

Three properties, for both kinds of map:
  - two constructed values are equal iff their specs agree at every
    exceptional prime and on every class of the lcm of their moduli,
    and equal values hash alike;
  - str round-trips through the CLI parsers;
  - construction is idempotent and its modulus is minimal: no prime of
    the modulus can be divided out without splitting some fibre.

A fourth property checks the arithmetic and the relations at wide
moduli (products of 3, 5, 7, 11 and 13, up to 15015, and one fold to
255255) against the same plain evaluation.
"""

import random
from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm, prod
from operator import add, and_, eq, le, or_

from hypothesis import given, settings
from hypothesis import strategies as st

from steinitz import INF, ExpMap, PrimeSet, Supernatural
from steinitz.cli import parse_primeset, parse_supernatural

PRIME_POWERS = (2, 4, 8, 3, 9, 5, 25, 7, 11, 13, 17)
EXPS = (0, 1, 2, INF)
EXCEPTION_PRIMES = tuple(p for p in range(2, 101) if all(p % d for d in range(2, p)))
SAMPLE_PRIMES = tuple(p for p in range(2, 400) if all(p % d for d in range(2, p)))

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def units(m):
    return [r for r in range(m) if gcd(r, m) == 1] if m > 1 else [0]


def primes_of(m):
    return [q for q in EXCEPTION_PRIMES if m % q == 0]


@dataclass
class MapSpec:
    modulus: int
    values: dict
    exceptions: dict

    def at(self, p):
        return self.exceptions.get(p, self.values.get(p % self.modulus))

    def on_class(self, r):
        return self.values[r % self.modulus]

    def special(self):
        return set(self.exceptions) | set(primes_of(self.modulus))

    def build(self):
        return ExpMap(self.modulus, dict(self.values), dict(self.exceptions))

    def written_at(self, m2):
        exc = {q: self.at(q) for q in primes_of(m2)}
        exc.update(self.exceptions)
        return MapSpec(m2, {r: self.on_class(r) for r in units(m2)}, exc)


@dataclass
class SetSpec:
    modulus: int
    classes: set
    include: set
    exclude: set

    def at(self, p):
        return p in self.include or (
            p not in self.exclude and p % self.modulus in self.classes
        )

    def on_class(self, r):
        return r % self.modulus in self.classes

    def special(self):
        return self.include | self.exclude | set(primes_of(self.modulus))

    def build(self):
        return PrimeSet(
            self.modulus,
            frozenset(self.classes),
            frozenset(self.include),
            frozenset(self.exclude),
        )

    def written_at(self, m2):
        classes = {r for r in units(m2) if self.on_class(r)}
        members = {q for q in primes_of(m2) if self.at(q)}
        return SetSpec(m2, classes, self.include | members, set(self.exclude))


def agree(x, y):
    """Plain semantic equality of two specs of the same kind."""
    m = lcm(x.modulus, y.modulus)
    special = x.special() | y.special() | set(primes_of(m))
    return all(x.at(p) == y.at(p) for p in special) and all(
        x.on_class(r) == y.on_class(r) for r in units(m)
    )


moduli = (
    st.lists(st.sampled_from(PRIME_POWERS), max_size=3)
    .map(prod)
    .filter(lambda m: m <= 300)
)


@st.composite
def map_specs(draw):
    # values periodic modulo `period`, written at a multiple of it, with
    # sometimes one class broken so that the period is the full modulus
    period = draw(moduli)
    m = period * draw(st.sampled_from((1, 2, 3, 4, 5, 7)))
    size = len(units(period))
    base = draw(st.lists(st.sampled_from(EXPS), min_size=size, max_size=size))
    table = dict(zip(units(period), base))
    values = {r: table[r % period] for r in units(m)}
    if draw(st.booleans()):
        values[draw(st.sampled_from(units(m)))] = draw(st.sampled_from(EXPS))
    exceptions = draw(
        st.dictionaries(st.sampled_from(EXCEPTION_PRIMES), st.sampled_from(EXPS), max_size=4)
    )
    for q in primes_of(m):
        exceptions.setdefault(q, draw(st.sampled_from(EXPS)))
    return MapSpec(m, values, exceptions)


@st.composite
def set_specs(draw):
    period = draw(moduli)
    m = period * draw(st.sampled_from((1, 2, 3, 4, 5, 7)))
    chosen = draw(st.sets(st.sampled_from(units(period))))
    classes = {r for r in units(m) if r % period in chosen}
    if draw(st.booleans()):
        classes ^= {draw(st.sampled_from(units(m)))}
    include = draw(st.sets(st.sampled_from(EXCEPTION_PRIMES), max_size=4))
    exclude = draw(st.sets(st.sampled_from(EXCEPTION_PRIMES), max_size=4)) - include
    return SetSpec(m, classes, include, exclude)


@st.composite
def pairs(draw, specs):
    """A spec and a second one: the same value rewritten at a multiple of
    its modulus, that rewrite with one class or prime changed, or an
    unrelated spec."""
    x = draw(specs)
    kind = draw(st.sampled_from(("rewrite", "perturb", "other")))
    if kind == "other":
        return x, draw(specs)
    y = x.written_at(x.modulus * draw(st.sampled_from((1, 2, 3, 5))))
    if kind == "perturb":
        if draw(st.booleans()):
            r = draw(st.sampled_from(units(y.modulus)))
            if isinstance(y, MapSpec):
                y.values[r] = draw(st.sampled_from(EXPS))
            else:
                y.classes ^= {r}
        else:
            p = draw(st.sampled_from(EXCEPTION_PRIMES))
            if isinstance(y, MapSpec):
                y.exceptions[p] = draw(st.sampled_from(EXPS))
            elif y.at(p):
                y.include.discard(p)
                y.exclude.add(p)
            else:
                y.exclude.discard(p)
                y.include.add(p)
    return x, y


def check_equality(x, y):
    a, b = x.build(), y.build()
    for spec, built in ((x, a), (y, b)):
        for p in spec.special() | set(SAMPLE_PRIMES):
            got = built.value_at(p) if isinstance(built, ExpMap) else built.contains(p)
            assert got == spec.at(p), (spec, p)
    assert (a == b) == agree(x, y)
    if a == b:
        assert hash(a) == hash(b)
        assert str(Supernatural(a) if isinstance(a, ExpMap) else a) == str(
            Supernatural(b) if isinstance(b, ExpMap) else b
        )


def check_minimal(values_at, modulus):
    """No prime q of the modulus has class values constant on every
    fibre of the units mod modulus over the units mod modulus/q."""
    for q in primes_of(modulus):
        d = modulus // q
        fibres = {}
        for r in units(modulus):
            fibres.setdefault(r % d, set()).add(values_at(r))
        assert any(len(v) > 1 for v in fibres.values()), (modulus, q)


@SETTINGS
@given(pairs(map_specs()))
def test_expmap_canonical_form(pair):
    x, y = pair
    check_equality(x, y)
    e = x.build()
    s = Supernatural(e)
    assert parse_supernatural(str(s)) == s
    again = ExpMap(e.modulus, e.class_values, e.exceptions)
    assert (again.modulus, again.class_values, again.exceptions) == (
        e.modulus,
        e.class_values,
        e.exceptions,
    )
    check_minimal(e.class_values.__getitem__, e.modulus)
    for p, v in e.exceptions.items():
        assert e.modulus % p == 0 or e.class_values[p % e.modulus] != v


@SETTINGS
@given(pairs(set_specs()))
def test_primeset_canonical_form(pair):
    x, y = pair
    check_equality(x, y)
    ps = x.build()
    assert parse_primeset(str(ps)) == ps
    again = PrimeSet(ps.modulus, ps.classes, ps.include, ps.exclude)
    assert (again.modulus, again.classes, again.include, again.exclude) == (
        ps.modulus,
        ps.classes,
        ps.include,
        ps.exclude,
    )
    check_minimal(ps.classes.__contains__, ps.modulus)
    assert all(p % ps.modulus not in ps.classes for p in ps.include)
    assert all(p % ps.modulus in ps.classes for p in ps.exclude)


# ------------------------------------------------ arithmetic at wide moduli

WIDE_PRIMES = (3, 5, 7, 11, 13)
WIDE_EXPS = (0, 1, 2, 3, INF)


def random_spec(rng, m, period, exceptions, exps=WIDE_EXPS):
    table = {r: rng.choice(exps) for r in units(period)}
    exceptions = dict(exceptions)
    for q in primes_of(m):
        exceptions.setdefault(q, rng.choice(exps))
    return MapSpec(m, {r: table[r % period] for r in units(m)}, exceptions)


@st.composite
def wide_specs(draw):
    """A map at a product of primes from 3 to 13, its values varying over
    the classes of a divisor of the modulus (often the modulus itself)."""
    primes = sorted(draw(st.sets(st.sampled_from(WIDE_PRIMES))))
    kept = draw(st.sets(st.sampled_from(primes))) if primes else set()
    period = prod(primes) if draw(st.booleans()) else prod(kept)
    exceptions = draw(
        st.dictionaries(st.sampled_from(EXCEPTION_PRIMES), st.sampled_from(WIDE_EXPS), max_size=4)
    )
    return random_spec(draw(st.randoms(use_true_random=False)), prod(primes), period, exceptions)


def combined(fn, x, y):
    """The spec of fn(x, y) at lcm of the moduli, evaluated class by class
    and prime by prime."""
    m = lcm(x.modulus, y.modulus)
    special = x.special() | y.special()
    return MapSpec(
        m,
        {r: fn(x.on_class(r), y.on_class(r)) for r in units(m)},
        {p: fn(x.at(p), y.at(p)) for p in special},
    )


def same_infinity(u, v):
    return (u == INF) == (v == INF)


def infinity_met(u, v):
    return v == INF or u != INF


def difference(u, v):
    return u and not v


def check_map(got, spec):
    """got (an ExpMap) takes spec's value on every class of spec's modulus
    and at every prime where either may leave its class value."""
    k = got.modulus
    assert spec.modulus % k == 0
    assert all(got.class_values[r % k] == spec.on_class(r) for r in units(spec.modulus))
    assert all(got.value_at(p) == spec.at(p) for p in spec.special() | set(got.exceptions))


def check_arithmetic(x, y):
    a, b = Supernatural(x.build()), Supernatural(y.build())
    check_map(a.mul(b).exps, combined(add, x, y))
    check_map(a.lcm(b).exps, combined(max, x, y))
    m = lcm(x.modulus, y.modulus)
    special = x.special() | y.special()

    def holds(on_class, at_prime):
        return all(on_class(x.on_class(r), y.on_class(r)) for r in units(m)) and all(
            at_prime(x.at(p), y.at(p)) for p in special
        )

    assert a.divides(b) == holds(le, le)
    assert a.equivalent(b) == holds(eq, same_infinity)
    assert a.weakly_divides(b) == holds(le, infinity_met)
    sa, sb = a.infinite_support(), b.infinite_support()
    for got, fn in ((sa, lambda u, v: u), (sa.union(sb), or_), (sa.intersection(sb), and_), (sa.difference(sb), difference)):
        k = got.modulus
        assert m % k == 0
        assert all(
            (r % k in got.classes) == fn(x.on_class(r) == INF, y.on_class(r) == INF)
            for r in units(m)
        )
        assert all(
            got.contains(p) == fn(x.at(p) == INF, y.at(p) == INF)
            for p in special | got.include | got.exclude
        )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wide_specs(), wide_specs())
def test_arithmetic_at_wide_moduli(x, y):
    check_arithmetic(x, y)


def test_six_operand_fold_to_255255():
    # finite class values, so that no operand's classes are absorbed by
    # an infinite one and the fold keeps every prime of its modulus
    rng = random.Random(255255)
    operands = [
        random_spec(rng, q, q, {rng.choice(EXCEPTION_PRIMES): INF}, exps=(0, 1, 2, 3))
        for q in (3, 5, 7, 11, 13, 17)
    ]
    steps = (add, max, add, max, add)
    spec = reduce(lambda acc, step: combined(step[0], acc, step[1]), zip(steps, operands[1:]), operands[0])
    value = Supernatural(operands[0].build())
    for step, x in zip(steps, operands[1:]):
        y = Supernatural(x.build())
        value = value.mul(y) if step is add else value.lcm(y)
    assert value.exps.modulus == 255255 and len(value.exps.class_values) == 92160
    check_map(value.exps, spec)
    assert value.exps == spec.build()
    check_arithmetic(spec, reduce(lambda acc, x: combined(max, acc, x), operands))
