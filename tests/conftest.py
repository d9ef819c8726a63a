"""Shared randomized generators.

Each test takes its own random.Random keyed off the test name, so the
suite is reproducible and insensitive to test order.  Generators keep
moduli and exception primes small; the window oracles in the test
modules rely on exceptions staying below 30.  The hypothesis strategy
at the end reaches past them, for tests that do not use such windows.
"""

import random
import zlib

import pytest
from hypothesis import strategies as st

from steinitz import (
    INF,
    ExpMap,
    Family,
    PrimeSet,
    Sieve,
    Supernatural,
    unit_residues,
)
from steinitz._primes import support

MODULI = (1, 2, 3, 4, 6, 12)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
SPARE_PRIMES = (17, 19, 23, 29)


@pytest.fixture
def rng(request):
    return random.Random(zlib.crc32(request.node.name.encode()))


def rand_exp(rng, inf_chance=0.25, hi=4):
    if rng.random() < inf_chance:
        return INF
    return rng.randrange(hi + 1)


def rand_supernatural(rng, inf_chance=0.25):
    m = rng.choice(MODULI)
    classes = {r: rand_exp(rng, inf_chance) for r in unit_residues(m)}
    exceptions = {p: rand_exp(rng, inf_chance) for p in SMALL_PRIMES if m % p == 0}
    for p in rng.sample(SMALL_PRIMES, rng.randrange(3)):
        if m % p:
            exceptions[p] = rand_exp(rng, inf_chance)
    return Supernatural(ExpMap(m, classes, exceptions))


def rand_finite_supernatural(rng):
    return rand_supernatural(rng, inf_chance=0.0)


def with_exception(s, p, v):
    em = s.exps
    exc = dict(em.exceptions)
    exc[p] = v
    return Supernatural(ExpMap(em.modulus, dict(em.class_values), exc))


def written_at(x, m2):
    """An ExpMap or PrimeSet spelled out at the multiple m2 of its modulus."""
    units = unit_residues(m2)
    if isinstance(x, PrimeSet):
        classes = frozenset(r for r in units if r % x.modulus in x.classes)
        members = frozenset(q for q in support(m2) if x.contains(q))
        return PrimeSet(m2, classes, x.include | members, x.exclude)
    exc = {q: x.value_at(q) for q in support(m2)}
    exc.update(x.exceptions)
    return ExpMap(m2, {r: x.class_values[r % x.modulus] for r in units}, exc)


def equivalent_variant(rng, s):
    # finitely many finite retouches, never toggling an infinity
    out = s
    pool = [p for p in SMALL_PRIMES + SPARE_PRIMES if s.exponent(p) != INF]
    for p in rng.sample(pool, min(len(pool), 1 + rng.randrange(3))):
        out = with_exception(out, p, rng.randrange(6))
    return out


def rand_multiple(rng, s):
    if rng.random() < 0.3:
        return s.mul(rand_supernatural(rng, inf_chance=0.15))
    return s.mul(Supernatural.from_int(rng.randrange(1, 400)))


def rand_primeset(rng):
    m = rng.choice(MODULI)
    classes = frozenset(r for r in unit_residues(m) if rng.random() < 0.4)
    inc = frozenset(rng.sample(SMALL_PRIMES, rng.randrange(3)))
    exc = frozenset(rng.sample(SPARE_PRIMES, rng.randrange(3)))
    return PrimeSet(m, classes, inc, exc)


def rand_family(rng):
    cof = rng.choice((1, 1, 1, 2, 3, 4, 6, 9, 10))
    ps = rand_primeset(rng)
    while ps.is_empty():
        ps = rand_primeset(rng)
    m = rng.choice((1, 2, 4))
    exp = ExpMap(
        m,
        {r: rng.randrange(1, 4) for r in unit_residues(m)},
        {p: 1 for p in SMALL_PRIMES if m % p == 0},
    )
    return Family(cof, ps, exp)


def rand_sieve(rng, max_gens=3, family_chance=0.4):
    gens = tuple(rng.randrange(2, 120) for _ in range(rng.randrange(max_gens + 1)))
    fams = (rand_family(rng),) if rng.random() < family_chance else ()
    return Sieve(gens, fams).normalize()


def rand_proper_sieve(rng, family_chance=0.4):
    while True:
        s = rand_sieve(rng, family_chance=family_chance)
        if s.is_proper():
            return s


def admissible_pair(rng):
    # at most one side carries families, so the product sieve exists
    a = rand_sieve(rng)
    b = rand_sieve(rng, family_chance=0.0 if a.families else 0.4)
    return a, b


def incomparable_pair(rng, mode=None):
    """A pair of supernaturals with neither weakly dividing the other.

    mode "inf" makes both separations go through a single extra prime
    of infinite exponent, "class" through dominating residue classes,
    "mixed" one of each.
    """
    mode = mode or rng.choice(("inf", "class", "mixed"))
    if mode == "inf":
        p, q = rng.sample(SMALL_PRIMES[1:], 2)
        x = with_exception(rand_finite_supernatural(rng), p, INF)
        y = with_exception(rand_finite_supernatural(rng), q, INF)
        x = with_exception(x, q, rng.randrange(4))
        y = with_exception(y, p, rng.randrange(4))
        return x, y, mode
    if mode == "class":
        lo = rng.randrange(3)
        e2 = rng.choice((0, 1, INF))
        x = Supernatural.from_classes(4, {1: lo + 1 + rng.randrange(3), 3: lo}, {2: e2})
        y = Supernatural.from_classes(4, {1: lo, 3: lo + 1 + rng.randrange(3)}, {2: e2})
        return x, y, mode
    x = Supernatural.from_classes(4, {1: 1, 3: 1}, {2: INF, 3: INF})
    y = Supernatural.from_classes(4, {1: 1, 3: 2 + rng.randrange(3)}, {2: INF})
    return x, y, mode


# ------------------------------------------------- hypothesis, past the above

PRIMES_TO_100 = tuple(p for p in range(2, 101) if all(p % d for d in range(2, p)))


@st.composite
def wide_supernaturals(draw):
    """Moduli up to 60, exceptions at primes up to 100."""
    exps = st.sampled_from((0, 0, 1, 2, 3, INF))
    m = draw(st.integers(1, 60))
    values = {r: draw(exps) for r in unit_residues(m)}
    exc = draw(st.dictionaries(st.sampled_from(PRIMES_TO_100), exps, max_size=3))
    for p in support(m):
        exc.setdefault(p, draw(exps))
    return Supernatural(ExpMap(m, values, exc))
