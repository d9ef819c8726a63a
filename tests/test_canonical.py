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
"""

from dataclasses import dataclass
from math import gcd, lcm, prod

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
