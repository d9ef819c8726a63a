"""Query streams of the three library workloads.

Every query is built from its own random.Random keyed by (seed, index),
so a stream is a deterministic function of the seed and any prefix of
it can be regenerated.  Query i's kind and size class follow fixed
cycles; the seed only chooses the values, and every choice that sets a
query's cost comes from the query's slot.  That keeps the mix of cheap
and expensive queries the same on every seed, so the medians of two
runs differ by the program, not by the draw.

A query carries:
  spec   plain data its inputs are built from; repr(spec) is its bytes
  run    the timed call into steinitz; returns a tuple of outputs
  check  the reference, run after the timer stops: forced answers
         (true by construction) and plain per-prime evaluation
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import add
from typing import Callable

import reference as ref
from reference import INF, MapSpec, combine


@dataclass
class Query:
    kind: str
    spec: tuple
    run: Callable[[], tuple]
    check: Callable[[tuple], bool]


def query_rng(seed: int | str, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


# ---------------------------------------------------------------------------
# shared spec helpers

SMALL_MODULI = (1, 2, 3, 4, 6, 12)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
SPARE_PRIMES = (17, 19, 23, 29)


def rand_exp(rng, inf_chance=0.25, hi=4):
    return INF if rng.random() < inf_chance else rng.randrange(hi + 1)


def rand_map(rng, inf_chance=0.25) -> MapSpec:
    """The shape tests/conftest.py draws: moduli up to 12, exceptions below 30."""
    m = rng.choice(SMALL_MODULI)
    cv = {r: rand_exp(rng, inf_chance) for r in ref.units(m)}
    exc = {p: rand_exp(rng, inf_chance) for p in SMALL_PRIMES if m % p == 0}
    for p in rng.sample(SMALL_PRIMES, rng.randrange(3)):
        if m % p:
            exc[p] = rand_exp(rng, inf_chance)
    return MapSpec(m, cv, exc)


def with_exception(s: MapSpec, p: int, v) -> MapSpec:
    return MapSpec(s.modulus, dict(s.class_values), {**s.exceptions, p: v})


def bumped(rng, s: MapSpec) -> MapSpec:
    """s with one finite class raised: it no longer divides s."""
    finite = [r for r, v in s.class_values.items() if v != INF]
    r = rng.choice(finite)
    cv = dict(s.class_values)
    cv[r] += 1 + rng.randrange(2)
    return MapSpec(s.modulus, cv, dict(s.exceptions))


def equivalent_variant(rng, s: MapSpec) -> MapSpec:
    """Finitely many finite retouches, never toggling an infinity."""
    pool = [p for p in SMALL_PRIMES + SPARE_PRIMES if ref.at_prime(s, p) != INF]
    out = s
    for p in rng.sample(pool, min(len(pool), 1 + rng.randrange(3))):
        out = with_exception(out, p, rng.randrange(6))
    return out


def snat(st, s: MapSpec):
    return st.Supernatural(st.ExpMap(s.modulus, dict(s.class_values), dict(s.exceptions)))


def rand_primeset(rng) -> tuple:
    m = rng.choice(SMALL_MODULI)
    classes = tuple(r for r in ref.units(m) if rng.random() < 0.4)
    inc = tuple(rng.sample(SMALL_PRIMES, rng.randrange(3)))
    exc = tuple(rng.sample(SPARE_PRIMES, rng.randrange(3)))
    return (m, classes, inc, exc)


def rand_family(rng) -> tuple:
    cof = rng.choice((1, 1, 1, 2, 3, 4, 6, 9, 10))
    ps = rand_primeset(rng)
    while not ps[1] and not ps[2]:
        ps = rand_primeset(rng)
    m = rng.choice((1, 2, 4))
    return (cof, ps, (m, tuple((r, rng.randrange(1, 4)) for r in ref.units(m)), ((2, 1),) if m > 1 else ()))


def rand_sieve(rng, family_chance=0.4) -> tuple:
    """(generators, families) in the shape tests/conftest.py draws."""
    gens = tuple(rng.randrange(2, 120) for _ in range(rng.randrange(4)))
    fams = (rand_family(rng),) if rng.random() < family_chance else ()
    return (gens, fams)


@dataclass(frozen=True)
class PlainPrimeSet:
    modulus: int
    classes: frozenset
    include: frozenset
    exclude: frozenset


@dataclass(frozen=True)
class PlainFamily:
    cofactor: int
    primes: PlainPrimeSet
    exponents: MapSpec


@dataclass(frozen=True)
class PlainSieve:
    """A sieve spec in the attribute shape the reference functions read."""

    finite_gens: tuple
    families: tuple


def plain_sieve(spec: tuple) -> PlainSieve:
    gens, fams = spec
    return PlainSieve(
        gens,
        tuple(
            PlainFamily(cof, PlainPrimeSet(m, frozenset(c), frozenset(i), frozenset(e)), MapSpec(em, dict(cv), dict(ex)))
            for cof, (m, c, i, e), (em, cv, ex) in fams
        ),
    )


def sieve(st, spec: tuple):
    """The normalized steinitz.Sieve of a spec."""
    gens, fams = spec
    built = []
    for cof, (m, classes, inc, exc), (em, cv, eexc) in fams:
        ps = st.PrimeSet(m, frozenset(classes), frozenset(inc), frozenset(exc))
        built.append(st.Family(cof, ps, st.ExpMap(em, dict(cv), dict(eexc))))
    return st.Sieve(gens, tuple(built)).normalize()


def rand_proper_sieve(rng) -> tuple:
    while True:
        spec = rand_sieve(rng)
        if not ref.sieve_has(plain_sieve(spec), 1):
            return spec


# sieve outputs are compared with the reference on every n up to this bound
SIEVE_WINDOW = 240


def window(sv, bound=SIEVE_WINDOW) -> bytes:
    return ref.members(sv, bound)


def incomparable_pair(rng, mode) -> tuple[MapSpec, MapSpec]:
    """The three modes of tests/conftest.py: an extra infinite prime on
    each side, dominating residue classes, or one of each."""
    if mode == "inf":
        p, q = rng.sample(SMALL_PRIMES[1:], 2)
        x = with_exception(rand_map(rng, 0.0), p, INF)
        y = with_exception(rand_map(rng, 0.0), q, INF)
        return with_exception(x, q, rng.randrange(4)), with_exception(y, p, rng.randrange(4))
    if mode == "class":
        lo, e2 = rng.randrange(3), rng.choice((0, 1, INF))
        x = MapSpec(4, {1: lo + 1 + rng.randrange(3), 3: lo}, {2: e2})
        y = MapSpec(4, {1: lo, 3: lo + 1 + rng.randrange(3)}, {2: e2})
        return x, y
    x = MapSpec(4, {1: 1, 3: 1}, {2: INF, 3: INF})
    y = MapSpec(4, {1: 1, 3: 2 + rng.randrange(3)}, {2: INF})
    return x, y


MODES = ("inf", "class", "mixed")


def separation_ok(w, x: MapSpec, y: MapSpec) -> bool:
    return (
        (w.x_in_left, w.y_in_left, w.y_in_right, w.x_in_right) == (True, False, True, False)
        and ref.member(x, w.left)
        and not ref.member(y, w.left)
        and ref.member(y, w.right)
        and not ref.member(x, w.right)
    )


def cone_expectation(f: MapSpec, scale: int, q: Fraction) -> bool:
    """u/v lies in the cone of (scale, denominators) iff v divides the
    denominators and scale divides u; the denominators are f with each
    negative exponent lifted to zero."""
    def den_at(p):
        v = ref.at_prime(f, p)
        return 0 if v != INF and v < 0 else v

    v_ok = all(e <= den_at(p) for p, e in ref.factor(q.denominator).items())
    return v_ok and q.numerator % scale == 0


def rand_fractional(rng) -> MapSpec:
    base = rand_map(rng)
    exc = dict(base.exceptions)
    for p in rng.sample(SPARE_PRIMES, 1 + rng.randrange(2)):
        exc[p] = -rng.randrange(1, 4)
    return MapSpec(base.modulus, dict(base.class_values), exc)


def cone_outputs(st, F, qs):
    pair = st.frac_to_pair(F)
    return (pair, st.pair_to_frac(pair)) + tuple(st.cone_contains(pair, q) for q in qs)


def cone_ok(f: MapSpec, qs, out) -> bool:
    scale = prod(p ** -v for p, v in f.exceptions.items() if v != INF and v < 0)
    pair, back = out[0], out[1]
    return (
        pair.scale == scale
        and ref.same_values(back.exps, f)
        and out[2:] == tuple(cone_expectation(f, scale, q) for q in qs)
    )


# ---------------------------------------------------------------------------
# decide-small: conftest-shaped inputs.  Each builder draws plain specs and
# returns (spec, run, check); run(st) builds the steinitz objects from the
# specs and decides, so construction is part of the timed work.


def _small_divides(rng):
    x, y, z = rand_map(rng), rand_map(rng), rand_map(rng, 0.15)
    w = combine(add, x, z)
    y2 = rand_map(rng, 0.0)
    b = bumped(rng, y2)

    def run(st):
        X, Y, W, Y2, B = (snat(st, s) for s in (x, y, w, y2, b))
        return (X.divides(Y), X.divides(W), B.divides(Y2))

    return (x.key(), y.key(), z.key(), y2.key(), b.key()), run, lambda out: out == (ref.divides(x, y), True, False)


def _small_equivalent(rng):
    x, y = rand_map(rng), rand_map(rng)
    v = equivalent_variant(rng, x)

    def run(st):
        X, Y, V = snat(st, x), snat(st, y), snat(st, v)
        return (X.equivalent(V), X.equivalent(Y), V.equivalent(X))

    return (x.key(), y.key(), v.key()), run, lambda out: out == (True, ref.equivalent(x, y), True)


def _small_weakly(rng):
    x, y, z = rand_map(rng), rand_map(rng), rand_map(rng, 0.15)
    w = combine(add, x, z)

    def run(st):
        X, Y, W = snat(st, x), snat(st, y), snat(st, w)
        return (X.weakly_divides(Y), Y.weakly_divides(X), X.weakly_divides(W))

    def check(out):
        return out == (ref.weakly_divides(x, y), ref.weakly_divides(y, x), True)

    return (x.key(), y.key(), w.key()), run, check


def _small_mul(rng):
    x, y = rand_map(rng), rand_map(rng)

    def run(st):
        X, Y = snat(st, x), snat(st, y)
        return (X.mul(Y), X.lcm(Y))

    def check(out):
        return ref.same_values(out[0].exps, combine(add, x, y)) and ref.same_values(out[1].exps, combine(max, x, y))

    return (x.key(), y.key()), run, check


def _small_normalize(rng):
    spec = rand_sieve(rng)
    want = window(plain_sieve(spec))
    return spec, lambda st: (sieve(st, spec),), lambda out: window(out[0]) == want


def _small_union(rng):
    sa, sb = rand_sieve(rng), rand_sieve(rng)
    want = bytes(x | y for x, y in zip(window(plain_sieve(sa)), window(plain_sieve(sb))))
    return (sa, sb), lambda st: (sieve(st, sa).union(sieve(st, sb)),), lambda out: window(out[0]) == want


def _small_product(rng):
    sa = rand_sieve(rng)
    sb = rand_sieve(rng, family_chance=0.0 if sa[1] else 0.4)
    want = bytes(x & y for x, y in zip(window(plain_sieve(sa)), window(plain_sieve(sb))))
    return (sa, sb), lambda st: (sieve(st, sa).product(sieve(st, sb)),), lambda out: window(out[0]) == want


def _small_transport(rng):
    spec, c = rand_sieve(rng), rng.randrange(2, 13)
    want = window(plain_sieve(spec), c * SIEVE_WINDOW)[::c]  # n is in iff c*n is
    return (spec, c), lambda st: (sieve(st, spec).transport(c),), lambda out: window(out[0]) == want


def _small_contains(rng):
    spec = rand_sieve(rng)
    ns = tuple(rng.randrange(1, 400) for _ in range(4))
    s = plain_sieve(spec)

    def run(st):
        sv = sieve(st, spec)
        return tuple(sv.contains(n) for n in ns)

    return (spec, ns), run, lambda out: out == tuple(ref.sieve_has(s, n) for n in ns)


def _small_member(rng):
    x = rand_map(rng)
    spec = rand_proper_sieve(rng)
    n = rng.randrange(2, 61)

    def run(st):
        X = snat(st, x)
        return (st.member(X, sieve(st, spec)), st.member(X, st.Sieve.of(n)))

    def check(out):
        # the single-generator law: every prime of n carries an infinite exponent
        return out == (ref.member(x, plain_sieve(spec)), all(ref.at_prime(x, p) == INF for p in ref.factor(n)))

    return (x.key(), spec, n), run, check


def _small_member_intersection(rng):
    x = rand_map(rng)
    sa, sb = rand_sieve(rng), rand_sieve(rng)

    def run(st):
        return (st.member_intersection(snat(st, x), sieve(st, sa), sieve(st, sb)),)

    def check(out):
        return out == (ref.member(x, plain_sieve(sa)) and ref.member(x, plain_sieve(sb)),)

    return (x.key(), sa, sb), run, check


def _small_incomparable(rng):
    mode = rng.choice(MODES)
    x, y = incomparable_pair(rng, mode)
    w = combine(add, x, rand_map(rng, 0.15))

    def run(st):
        X, Y, W = snat(st, x), snat(st, y), snat(st, w)
        return (st.incomparable(X, Y), st.incomparable(X, W))

    return (mode, x.key(), y.key(), w.key()), run, lambda out: out == (True, False)


def _small_separate(rng):
    mode = rng.choice(MODES)
    x, y = incomparable_pair(rng, mode)

    def run(st):
        return (st.separating_sieves(snat(st, x), snat(st, y)),)

    return (mode, x.key(), y.key()), run, lambda out: separation_ok(out[0], x, y)


def _small_cone(rng):
    f = rand_fractional(rng)
    qs = tuple(Fraction(rng.randrange(1, 60), rng.randrange(1, 24)) for _ in range(3))

    def run(st):
        F = st.FractionalSupernatural(st.ExpMap(f.modulus, dict(f.class_values), dict(f.exceptions)))
        return cone_outputs(st, F, qs)

    return (f.key(), qs), run, lambda out: cone_ok(f, qs, out)


def _small_smonoid(rng):
    while True:
        gens = tuple(sorted(rng.sample(range(2, 10), 2 + rng.randrange(2))))
        if gcd(*gens) == 1:
            break
    ns = tuple(rng.randrange(0, 40) for _ in range(3))
    reach = ref.monoid_reach(gens, SIEVE_WINDOW)

    def run(st):
        m = st.SMonoidPresentation(gens)
        return tuple(m.contains(n) for n in ns) + (m.frobenius_number(), m.to_sieve())

    def check(out):
        *hits, frob, (sv, exact) = out
        return (
            tuple(hits) == tuple(reach[n] for n in ns)
            and frob == ref.frobenius(gens)
            and exact
            and window(sv)[1:] == bytes(reach[1:])
        )

    return (gens, ns), run, check


SMALL_KINDS = {
    "divides": _small_divides,
    "equivalent": _small_equivalent,
    "weakly_divides": _small_weakly,
    "mul_lcm": _small_mul,
    "normalize": _small_normalize,
    "union": _small_union,
    "product": _small_product,
    "transport": _small_transport,
    "contains": _small_contains,
    "member": _small_member,
    "member_intersection": _small_member_intersection,
    "incomparable": _small_incomparable,
    "separating_sieves": _small_separate,
    "cone": _small_cone,
    "smonoid": _small_smonoid,
}


def decide_small(st, seed, i: int) -> Query:
    kind = list(SMALL_KINDS)[i % len(SMALL_KINDS)]
    spec, run, check = SMALL_KINDS[kind](query_rng(seed, i))
    return Query(kind, spec, lambda: run(st), check)


# ---------------------------------------------------------------------------
# decide-wide: each side folds 2-6 operands, each minimal at its own modulus
# over the primes 3..17, so the working modulus is 1155, 15015 or 255255.

WIDE_PRIMES = {1155: (3, 5, 7, 11), 15015: (3, 5, 7, 11, 13), 255255: (3, 5, 7, 11, 13, 17)}
WIDE_SPARE = (19, 23, 29)
WIDE_KINDS = ("divides", "equivalent", "weakly_divides", "mul_lcm", "incomparable", "member", "cone")


def kind_slot(cycle: tuple, i: int) -> tuple:
    """The entry of cycle at query i, and how many earlier queries had it."""
    n, j = len(cycle), i % len(cycle)
    entry = cycle[j]
    return entry, (i // n) * cycle.count(entry) + cycle[:j].count(entry)


# 3 of every 20 queries at 1155, 12 at 15015 and 5 at 255255, interleaved,
# so the median falls in the middle of the 15015 group, where its costs
# lie closest together, and the 90th percentile inside the 255255 group,
# away from the edges between the groups
SIZE_CYCLE = tuple(1155 if s < 3 else 15015 if s < 15 else 255255 for s in ((i * 7) % 20 for i in range(20)))


@dataclass(frozen=True)
class Fold:
    """Operands joined left to right; ops[j] is '*' (mul) or 'v' (lcm)."""

    operands: tuple[MapSpec, ...]
    ops: str

    def key(self) -> tuple:
        return (self.ops, tuple(o.key() for o in self.operands))


def rand_operand(rng, shape, m: int, inf_chance: float) -> MapSpec:
    """A map minimal at modulus m (its class values vary), or, one time in
    three, a constant map written at modulus m."""
    us = ref.units(m)
    if shape.random() < 1 / 3:
        v = rand_exp(rng, inf_chance, hi=3)
        cv = dict.fromkeys(us, v)
        exc = {p: v for p in ref.factor(m)}
    else:
        cv = {r: rand_exp(rng, inf_chance, hi=3) for r in us}
        while len(set(cv.values())) == 1:
            cv[rng.choice(us)] = rng.randrange(4)
        exc = {p: rand_exp(rng, inf_chance, hi=3) for p in ref.factor(m)}
    if shape.random() < 0.3:
        exc[rng.choice(WIDE_SPARE)] = rand_exp(rng, inf_chance, hi=3)
    return MapSpec(m, cv, exc)


def rand_fold(rng, shape, modulus: int, k: int, inf_chance=0.0, ops: str | None = None) -> Fold:
    """k operands whose moduli split the primes of the working modulus."""
    primes = list(WIDE_PRIMES[modulus])
    shape.shuffle(primes)
    cuts = sorted(shape.sample(range(1, len(primes)), k - 1))
    groups = [primes[a:b] for a, b in zip([0] + cuts, cuts + [len(primes)])]
    operands = tuple(rand_operand(rng, shape, prod(g), inf_chance) for g in groups)
    if ops is None:
        ops = "".join(shape.choice("*v") for _ in range(k - 1))
    return Fold(operands, ops[: k - 1])


def extended(rng, shape, f: Fold, inf_chance=0.0) -> Fold:
    """f times one more operand: f divides it by construction."""
    m = f.operands[shape.randrange(len(f.operands))].modulus
    return Fold(f.operands + (rand_operand(rng, shape, m, inf_chance),), f.ops + "*")


def fold_bumped(rng, f: Fold) -> Fold:
    """Raise one finite class of one operand of an all-'*' fold."""
    j = rng.randrange(len(f.operands))
    ops = list(f.operands)
    ops[j] = bumped(rng, ops[j])
    return Fold(tuple(ops), f.ops)


def fold_variant(rng, f: Fold) -> Fold:
    """Retouch finitely many finite exponents at spare primes: equivalent."""
    extra = MapSpec(1, {0: 0}, {})
    for p in rng.sample(WIDE_SPARE, 1 + rng.randrange(2)):
        if all(ref.at_prime(o, p) != INF for o in f.operands):
            extra = with_exception(extra, p, rng.randrange(1, 4))
    return Fold(f.operands + (extra,), f.ops + "*")


def plain_fold(f: Fold) -> MapSpec:
    acc = f.operands[0]
    for op, o in zip(f.ops, f.operands[1:]):
        acc = combine(add if op == "*" else max, acc, o)
    return acc


def run_fold(built: tuple, ops: str):
    acc = built[0]
    for op, nxt in zip(ops, built[1:]):
        acc = acc.mul(nxt) if op == "*" else acc.lcm(nxt)
    return acc


def with_point(f: Fold, m: MapSpec) -> Fold:
    return Fold(f.operands + (m,), f.ops + "*")


def _wide(rng, shape, st, kind: str, modulus: int, k: int):
    """(spec, second operand fold or None, timed tail, check of the tail).

    rng draws the values, shape the structure: which branch a query takes,
    the modulus of each operand, which operands are constant, and the
    mul/lcm pattern.  The timed part folds a (and b) and then applies
    the tail; the check gets the plain folds fa, fb alongside the tail's
    outputs."""
    b = detail = None
    if kind == "divides":
        a = rand_fold(rng, shape, modulus, k, ops="*" * 5)
        forced = shape.random() < 0.5
        b = extended(rng, shape, a) if forced else fold_bumped(rng, a)
        tail = lambda X, Y: (X.divides(Y), Y.divides(X))  # noqa: E731

        def check(fa, fb, v):
            want = (ref.divides(fa, fb), ref.divides(fb, fa))
            return v == want and (v[0] if forced else not v[1])

    elif kind == "equivalent":
        a = rand_fold(rng, shape, modulus, k, inf_chance=0.15)
        forced = shape.random() < 0.5
        b = fold_variant(rng, a) if forced else rand_fold(rng, shape, modulus, k, inf_chance=0.15)
        tail = lambda X, Y: (X.equivalent(Y),)  # noqa: E731

        def check(fa, fb, v):
            return v == (ref.equivalent(fa, fb),) and (v[0] or not forced)

    elif kind == "weakly_divides":
        a = rand_fold(rng, shape, modulus, k, inf_chance=0.15)
        forced = shape.random() < 0.5
        b = extended(rng, shape, a, 0.15) if forced else rand_fold(rng, shape, modulus, k, inf_chance=0.15)
        tail = lambda X, Y: (X.weakly_divides(Y), Y.weakly_divides(X))  # noqa: E731

        def check(fa, fb, v):
            want = (ref.weakly_divides(fa, fb), ref.weakly_divides(fb, fa))
            return v == want and (v[0] or not forced)

    elif kind == "mul_lcm":
        a, b = rand_fold(rng, shape, modulus, k), rand_fold(rng, shape, modulus, k)
        fn = add if shape.random() < 0.5 else max
        tail = lambda X, Y: ((X.mul(Y) if fn is add else X.lcm(Y)),)  # noqa: E731

        def check(fa, fb, v):
            return ref.same_values(v[0].exps, combine(fn, fa, fb))

    elif kind == "incomparable":
        base = rand_fold(rng, shape, modulus, k, ops="*" * 5)
        mode = shape.choice(("inf", "class", "related"))
        if mode == "inf":
            p, q = rng.sample(WIDE_SPARE, 2)
            a = with_point(base, MapSpec(1, {0: 0}, {p: INF}))
            b = with_point(base, MapSpec(1, {0: 0}, {q: INF}))
            tail = lambda X, Y: (st.incomparable(X, Y), st.separating_sieves(X, Y))  # noqa: E731
        elif mode == "class":
            m = rng.choice(WIDE_PRIMES[modulus])
            r1, r2 = rng.sample(ref.units(m), 2)
            a = with_point(base, MapSpec(m, {s: int(s == r1) for s in ref.units(m)}, {m: 0}))
            b = with_point(base, MapSpec(m, {s: int(s == r2) for s in ref.units(m)}, {m: 0}))
            tail = lambda X, Y: (st.incomparable(X, Y),)  # noqa: E731
        else:
            a, b = base, extended(rng, shape, base)
            tail = lambda X, Y: (st.incomparable(X, Y),)  # noqa: E731

        def check(fa, fb, v):
            if v[0] != (mode != "related") or v[0] != ref.incomparable(fa, fb):
                return False
            return mode != "inf" or separation_ok(v[1], fa, fb)

    elif kind == "member":
        a = rand_fold(rng, shape, modulus, k, inf_chance=0.3)
        pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        gens = tuple(prod(rng.sample(pool, rng.randrange(1, 3))) for _ in range(2))
        sspec = rand_sieve(rng, family_chance=1.0)

        def tail(X, _Y):
            s1, s2 = st.Sieve.of(*gens), sieve(st, sspec)
            return (st.member(X, s1), st.member(X, s2), st.member_intersection(X, s1, s2))

        def check(fa, _fb, v):
            m1 = ref.member(fa, PlainSieve(gens, ()))
            m2 = ref.member(fa, plain_sieve(sspec))
            return v == (m1, m2, m1 and m2)

        detail = (gens, sspec)
    else:  # cone
        a = rand_fold(rng, shape, modulus, k)
        neg = {p: -rng.randrange(1, 3) for p in rng.sample(WIDE_SPARE, 1 + rng.randrange(2))}
        dens = (1, 3, 5, 7, 9, 15, 19, 23, 33, 35)
        qs = tuple(Fraction(rng.randrange(1, 2000), rng.choice(dens)) for _ in range(3))

        def tail(X, _Y):
            e = X.exps
            F = st.FractionalSupernatural(st.ExpMap(e.modulus, e.class_values, {**e.exceptions, **neg}))
            return cone_outputs(st, F, qs)

        def check(fa, _fb, v):
            return cone_ok(MapSpec(fa.modulus, fa.class_values, {**fa.exceptions, **neg}), qs, v)

        detail = (neg, qs)
    spec = (kind, modulus, a.key(), b.key() if b else None, detail)
    return spec, a, b, tail, check


def decide_wide(st, seed, i: int) -> Query:
    # within each modulus the kinds rotate, then the operand count, so every
    # run holds nearly the same mix of expensive queries
    modulus, k = kind_slot(SIZE_CYCLE, i)
    kind = WIDE_KINDS[k % len(WIDE_KINDS)]
    nops = 2 + (k // len(WIDE_KINDS)) % (len(WIDE_PRIMES[modulus]) - 1)
    # the structure depends on the slot alone, so query i costs about the
    # same on every seed
    shape = random.Random(f"shape:{modulus}:{k}")
    spec, a, b, tail, check = _wide(query_rng(seed, i), shape, st, kind, modulus, nops)

    def run():
        X = run_fold(tuple(snat(st, o) for o in a.operands), a.ops)
        Y = run_fold(tuple(snat(st, o) for o in b.operands), b.ops) if b else None
        return (X, Y) + tail(X, Y)

    def full_check(out):
        X, Y, *v = out
        fa = plain_fold(a)
        fb = plain_fold(b) if b else None
        if not ref.same_values(X.exps, fa) or (b and not ref.same_values(Y.exps, fb)):
            return False
        return check(fa, fb, tuple(v))

    return Query(kind, spec, run, full_check)


# ---------------------------------------------------------------------------
# referee: the oracle against the symbolic layer, as in acceptance criterion 7

DIV_BOUND = FACTOR_BOUND = SEARCH_BOUND = 10_000
# 40 % verify_member, 30 % negative cones, 10 % each of the rest: the p50
# falls in the middle of the verify_member group, where its costs are dense,
# and the p90 inside the group of equally costly negative cones
REFEREE_KINDS = (
    "verify_member", "rank_one_neg", "chain", "verify_member", "rank_one_pos",
    "rank_one_neg", "verify_member", "add_closed", "rank_one_neg", "verify_member",
)


def curated_member_pairs(st) -> list[tuple]:
    """(point, sieve, expected) as acceptance criterion 7 builds them, minus
    the equivalent variants, which each query draws itself."""
    S, Sieve = st.Supernatural, st.Sieve
    fam = lambda cof, e: Sieve((), (st.Family(cof, st.PrimeSet.all_primes(), st.ExpMap(1, {0: e}, {})),))  # noqa: E731
    two_inf = S.from_exponents({2: INF})
    six_inf = S.from_exponents({2: INF, 3: INF})
    ones = S.from_classes(1, {0: 1})
    half_inf = S.from_classes(4, {1: INF, 3: 0}, {2: 0})
    out = [(six_inf, Sieve.of(g), True) for g in (2, 4, 8, 64, 1024, 6, 36, 8192, 3, 27, 72, 128, 216, 5184)]
    out += [(six_inf, Sieve.of(g), True) for g in (2, 3, 9, 12, 2048, 16, 32, 256)]
    out += [
        (six_inf, Sieve.of(10, 3), True),
        (six_inf, Sieve.of(5, 9), True),
        (ones, fam(1, 1), True),
        (ones.mul(two_inf), fam(1, 1), True),
        (ones.mul(two_inf), fam(2, 1), True),
        (ones.mul(two_inf), fam(4, 1), True),
        (S.from_classes(1, {0: 3}), fam(1, 1), True),
        (two_inf, Sieve.of(2, 9), True),
        (half_inf, Sieve.of(5), True),
        (half_inf, Sieve.of(13), True),
        (two_inf, Sieve.of(3), False),
        (two_inf, Sieve.of(6), False),
        (two_inf, Sieve.of(12), False),
        (S.from_exponents({2: INF, 5: 2}), Sieve.of(10), False),
        (S.from_exponents({2: INF, 3: INF, 5: 2}), Sieve.of(10), False),
        (S.one(), fam(1, 1), False),
        (S.from_int(720), Sieve.of(2), False),
        (S.from_int(97), Sieve.of(97), False),
        (S.from_int(30), Sieve.of(3), False),
        (S.from_int(64), Sieve.of(2), False),
        (S.from_classes(1, {0: 1}), Sieve.of(4), False),
        (S.from_classes(1, {0: 2}), fam(1, 3), False),
        (six_inf, Sieve.of(5), False),
        (six_inf, Sieve.of(7), False),
        (six_inf, Sieve.of(14), False),
        (half_inf, Sieve.of(2), False),
    ]
    return out


def static_variant(st, x, salt: int):
    """Retouch the finite exponents at the spare primes, as criterion 7 does."""
    em = x.exps
    exc = dict(em.exceptions)
    for j, p in enumerate(SPARE_PRIMES):
        if x.exponent(p) != INF:
            exc[p] = (salt + j) % 5
    return st.Supernatural(st.ExpMap(em.modulus, dict(em.class_values), exc))


# (scale, {prime: inf}, monoid generator); positive ones are points
POSITIVE_CONES = ((1, {2: INF}, 2), (1, {2: INF, 3: INF}, 6), (1, {5: INF}, 5), (3, {2: INF}, 2))
# the negative case: (s, 3^inf) over sieve(2) is not a point for any scale s
# prime to 6; the window {s, s/3, s/9} leaves all three pairs unresolved, each
# walking the whole search bound, so every negative query costs the same and
# the 90th percentile sits inside their group
NEGATIVE_SCALES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
CHAIN_MONOIDS = ((1,), (2, 3), (3, 5))
STAGES = ((2,), (2, 6), (3,), (2, 4), (6,))


def _monoid(st, gens):
    return st.Sieve.of(*gens) if len(gens) < 2 or gens == (2, 3) else st.smonoid_to_sieve(gens)[0]


def in_pass(seed, label: str, items: tuple, turn: int):
    """The turn-th of items in a stream that runs through all of them once
    per pass, in an order the seed shuffles anew for each pass: every run
    holds each item equally often, whatever the seed."""
    npass, j = divmod(turn, len(items))
    order = random.Random(f"{seed}:{label}:{npass}").sample(range(len(items)), len(items))
    return items[order[j]], npass


def _referee(rng, seed, st, kind, turn: int):
    """turn is the query's rank among those of its kind."""
    if kind == "verify_member":
        pairs = curated_member_pairs(st)
        (j, (x, s, want)), npass = in_pass(seed, kind, tuple(enumerate(pairs)), turn)
        salt = rng.randrange(1000)
        if want and (npass + j) % 2 == 0:
            # as in criterion 7, only true pairs get variants: a variant of
            # a false pair can move its refuting divisor past the bound.
            # Half the true pairs of each pass get one, the other half on
            # the next pass, so a run's mix of costs does not depend on
            # how many passes it completes.
            x = static_variant(st, x, salt)
        spec = (j, str(x), str(s), want)

        def check(out):
            ev = out[0]
            ok = ev.consistent == want == st.member(x, s)
            return ok and (want or (ev.witness is not None and ev.witness <= DIV_BOUND))

        return spec, lambda: (st.verify_member_decision(x, s, DIV_BOUND, FACTOR_BOUND),), check
    if kind in ("rank_one_pos", "rank_one_neg"):
        positive = kind == "rank_one_pos"
        if positive:
            scale, exps, g = rng.choice(POSITIVE_CONES)
            num, den = rng.randrange(scale, scale + 3), rng.choice((16, 27, 64, 81, 125))
        else:
            scale, exps, g, den = in_pass(seed, kind, NEGATIVE_SCALES, turn)[0], {3: INF}, 2, 9
            num = scale
        pair = st.BZPair(scale, st.Supernatural.from_exponents(exps))
        monoid = st.Sieve.of(g)

        def run():
            cone = st.TruncatedCone.from_pair(pair, monoid, num, den)
            return (cone, st.check_point_conditions(cone, SEARCH_BOUND))

        def check(out):
            cone, rep = out
            members = tuple(
                Fraction(u, v) for v in range(1, den + 1) for u in range(scale, num + 1, scale)
                if gcd(u, v) == 1 and all(e <= exps.get(p, 0) for p, e in ref.factor(v).items())
            )
            return (
                cone.elements == tuple(sorted(members))
                and rep.verified() == positive == st.member(pair.denominators, monoid)
            )

        return (kind, scale, sorted(exps), g, num, den), run, check
    if kind == "chain":
        gens = rng.choice(CHAIN_MONOIDS)
        monoid = _monoid(st, gens)
        seeds = [Fraction(1)] + [
            Fraction(rng.choice((1, 2, 3, 5, 8, 9, 10)), rng.choice((1, 2, 3, 4, 6, 12)))
            for _ in range(rng.randrange(1, 4))
        ]
        start = seeds[0]

        def check(out):
            cp = out[0]
            levels = (1,) + cp.stages
            chain_ok = all(b % a == 0 for a, b in zip(levels, levels[1:]))
            def covered(q):
                q = q / start
                return any(
                    (q * l).denominator == 1 and (q * l == 1 or ref.sieve_has(monoid, int(q * l)))
                    for l in levels
                )
            return chain_ok and all(covered(q) for q in seeds)

        return (kind, gens, seeds), lambda: (st.chain_from_points(monoid, seeds, SEARCH_BOUND),), check
    gens = rng.choice(CHAIN_MONOIDS[1:])
    monoid = _monoid(st, gens)
    stages = rng.choice(STAGES)
    num, den = rng.randrange(6, 13), 720
    chain = st.ChainPoint(stages, monoid)

    def run():
        cone = st.TruncatedCone.from_chain(chain, num, den)
        return (cone, st.additively_closed(cone))

    def check(out):
        cone, closed = out
        elems = set()
        for l in (1,) + stages:
            for c in range(1, num * l + 1):
                q = Fraction(c, l)
                if ref.sieve_has(monoid, c) and q.numerator <= num and q.denominator <= den:
                    elems.add(q)
        want = all(
            (a + b) in elems or (a + b).numerator > num or (a + b).denominator > den
            for a in elems for b in elems
        )
        return cone.elements == tuple(sorted(elems)) and closed == want

    return (kind, gens, stages, num, den), run, check


def referee(st, seed, i: int) -> Query:
    kind, k = kind_slot(REFEREE_KINDS, i)
    spec, run, check = _referee(query_rng(seed, i), seed, st, kind, k)
    return Query(kind, spec, run, check)


STREAMS = {"decide-small": decide_small, "decide-wide": decide_wide, "referee": referee}
