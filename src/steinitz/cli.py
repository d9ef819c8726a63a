"""Command-line front end.

Literal grammars (whitespace is free):

  supernatural   term ( '*' term )* [ ';' 'default' dflt ] | 'one' | 'sinf'
  term           PRIME [ '^' exponent ]          (bare prime means ^1)
  exponent       [ '-' ] NAT | 'inf'             (negatives only where
                                                  fractions are expected)
  dflt           exponent | '{' r ':' e ( ',' r ':' e )* '}' 'mod' NAT

  primeset       atom ( ('+'|'-') atom )*        (left associative)
  atom           'all' | '{' [ PRIME ( ',' PRIME )* ] '}'
                 | 'classes' '(' r ( ',' r )* 'mod' NAT ')'

  sieve          part ( '+' part )*
  part           'sieve' '(' [ NAT ( ',' NAT )* ] ')'
                 | 'family' '(' 'cofactor' '=' NAT ';' 'primes' '=' primeset
                   ';' 'exp' '=' fexp ')'
  fexp           NAT | '{' r ':' e ( ',' r ':' e )* 'mod' NAT '}'

  rational       NAT [ '/' NAT ]

Exit codes: 0 success or true predicate, 1 false predicate (including a
refuted membership claim), 2 parse or usage error, 3 unsupported or
invalid operation, 4 inconclusive oracle search.  All output is
deterministic; --json wraps it as {"verb", "result", "witness"}.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from ._primes import is_prime, support
from .cones import (
    BZPair,
    cone_contains,
    cone_enumerate,
    cones_isomorphic,
    frac_to_pair,
    pair_to_frac,
)
from .errors import (
    ConstructionStuck,
    NonCoprimeGenerators,
    NotIncomparable,
    NotSeparable,
    ParseError,
    SearchBudgetExceeded,
    UnsupportedProduct,
)
from .oracle import (
    ChainPoint,
    TruncatedCone,
    additively_closed,
    chain_from_points,
    check_point_conditions,
    verify_member_decision,
)
from .sieve import Family, Sieve, smonoid_contains, smonoid_to_sieve
from .supernat import (
    INF,
    ExpMap,
    FractionalSupernatural,
    PrimeSet,
    Supernatural,
    unit_residues,
)
from .topology import PointClass, incomparable, member, separating_sieves

# ---------------------------------------------------------------------------
# Tokenizer and parsers

_SYMBOLS = set("^*;{}(),:+-=/")


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _P:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def accept(self, kind: str, value: str | None = None):
        t = self.peek()
        if t[0] == kind and (value is None or t[1] == value):
            return self.advance()
        return None

    def expect(self, kind: str, what: str):
        t = self.advance()
        if t[0] != kind:
            raise ParseError(f"expected {what}", t[2])
        return t

    def expect_name(self, word: str):
        t = self.advance()
        if t[0] != "name" or t[1] != word:
            raise ParseError(f"expected '{word}'", t[2])
        return t

    def expect_int(self, what: str = "an integer") -> tuple[int, int]:
        t = self.expect("int", what)
        return int(t[1]), t[2]

    def done(self):
        t = self.peek()
        if t[0] != "end":
            raise ParseError("unexpected trailing input", t[2])


def _parse_exponent(p: _P, allow_negative: bool):
    if p.accept("name", "inf"):
        return INF
    neg = p.accept("-")
    v, pos = p.expect_int("an exponent")
    if neg:
        if not allow_negative:
            raise ParseError("negative exponent not allowed here", neg[2])
        return -v
    return v


def _parse_residue_map(p: _P, mod_inside: bool, allow_inf: bool, pos: int):
    """'{' r:e, ... [mod M] '}' ['mod' M]; returns (modulus, class_values)."""
    entries: dict[int, float | int] = {}
    modulus = None
    while True:
        r, rpos = p.expect_int("a residue")
        p.expect(":", "':'")
        if allow_inf and p.peek()[:2] == ("name", "inf"):
            p.advance()
            e: float | int = INF
        else:
            e, _ = p.expect_int("an exponent")
        if r in entries:
            raise ParseError(f"residue {r} listed twice", rpos)
        entries[r] = e
        if p.accept(","):
            continue
        break
    if mod_inside:
        p.expect_name("mod")
        modulus, _ = p.expect_int("a modulus")
        p.expect("}", "'}'")
    else:
        p.expect("}", "'}'")
        p.expect_name("mod")
        modulus, _ = p.expect_int("a modulus")
    if modulus < 1:
        raise ParseError("modulus must be positive", pos)
    units = set(unit_residues(modulus))
    bad = set(entries) - units
    if bad:
        raise ParseError(
            f"residues {sorted(bad)} are not units mod {modulus}", pos
        )
    missing = units - set(entries)
    if missing:
        raise ParseError(
            f"missing residues {sorted(missing)} mod {modulus}", pos
        )
    return modulus, entries


def parse_supernatural(text: str) -> Supernatural | FractionalSupernatural:
    p = _P(text)
    if p.accept("name", "sinf"):
        p.done()
        return Supernatural.all_infinite()
    exceptions: dict[int, float | int] = {}
    if not p.accept("name", "one"):
        while True:
            base, pos = p.expect_int("a prime")
            if not is_prime(base):
                raise ParseError(f"{base} is not prime", pos)
            if base in exceptions:
                raise ParseError(f"prime {base} listed twice", pos)
            e: float | int = 1
            if p.accept("^"):
                e = _parse_exponent(p, allow_negative=True)
            exceptions[base] = e
            if not p.accept("*"):
                break
    modulus, class_values = 1, {0: 0}
    if p.accept(";"):
        t = p.expect_name("default")
        if p.accept("{"):
            modulus, class_values = _parse_residue_map(
                p, mod_inside=False, allow_inf=True, pos=t[2]
            )
        else:
            v = _parse_exponent(p, allow_negative=False)
            class_values = {0: v}
    p.done()
    for q in support(modulus):
        if q not in exceptions:
            raise ParseError(
                f"prime {q} divides the modulus {modulus}; give it an explicit term"
            )
    exps = ExpMap(modulus, class_values, exceptions)
    if any(v != INF and v < 0 for v in exceptions.values()):
        return FractionalSupernatural(exps)
    return Supernatural(exps)


def _parse_primeset_atom(p: _P) -> PrimeSet:
    t = p.peek()
    if p.accept("name", "all"):
        return PrimeSet.all_primes()
    if p.accept("{"):
        primes = []
        if not p.accept("}"):
            while True:
                q, pos = p.expect_int("a prime")
                if not is_prime(q):
                    raise ParseError(f"{q} is not prime", pos)
                primes.append(q)
                if p.accept(","):
                    continue
                p.expect("}", "'}'")
                break
        return PrimeSet.of(*primes)
    if p.accept("name", "classes"):
        p.expect("(", "'('")
        residues = []
        while True:
            r, _ = p.expect_int("a residue")
            residues.append(r)
            if p.accept(","):
                continue
            break
        p.expect_name("mod")
        m, mpos = p.expect_int("a modulus")
        p.expect(")", "')'")
        if m < 2:
            raise ParseError("classes need a modulus of at least 2; use 'all'", mpos)
        for r in residues:
            if not (0 <= r < m) or r not in unit_residues(m):
                raise ParseError(f"residue {r} is not a unit mod {m}", t[2])
        return PrimeSet(m, frozenset(residues), frozenset(), frozenset())
    raise ParseError("expected a prime set", t[2])


def _parse_primeset(p: _P) -> PrimeSet:
    ps = _parse_primeset_atom(p)
    while True:
        if p.accept("+"):
            ps = ps.union(_parse_primeset_atom(p))
        elif p.accept("-"):
            ps = ps.difference(_parse_primeset_atom(p))
        else:
            return ps


def parse_primeset(text: str) -> PrimeSet:
    p = _P(text)
    ps = _parse_primeset(p)
    p.done()
    return ps


def parse_sieve(text: str) -> Sieve:
    p = _P(text)
    gens: list[int] = []
    fams: list[Family] = []
    while True:
        t = p.peek()
        if p.accept("name", "sieve"):
            p.expect("(", "'('")
            if not p.accept(")"):
                while True:
                    g, gpos = p.expect_int("a generator")
                    if g < 1:
                        raise ParseError("generators must be positive", gpos)
                    gens.append(g)
                    if p.accept(","):
                        continue
                    p.expect(")", "')'")
                    break
        elif p.accept("name", "family"):
            p.expect("(", "'('")
            p.expect_name("cofactor")
            p.expect("=", "'='")
            cof, _ = p.expect_int("a cofactor")
            p.expect(";", "';'")
            p.expect_name("primes")
            p.expect("=", "'='")
            ps = _parse_primeset(p)
            p.expect(";", "';'")
            p.expect_name("exp")
            p.expect("=", "'='")
            if p.accept("{"):
                m, cv = _parse_residue_map(p, mod_inside=True, allow_inf=False, pos=t[2])
                exp = ExpMap(m, cv, {q: 1 for q in support(m)})
            else:
                v, _ = p.expect_int("an exponent")
                exp = ExpMap(1, {0: v}, {})
            p.expect(")", "')'")
            try:
                fams.append(Family(cof, ps, exp))
            except ValueError as e:
                raise ParseError(str(e), t[2]) from None
        else:
            raise ParseError("expected 'sieve(...)' or 'family(...)'", t[2])
        if not p.accept("+"):
            break
    p.done()
    return Sieve(tuple(gens), tuple(fams)).normalize()


def parse_rational(text: str) -> Fraction:
    p = _P(text)
    q = _parse_rational(p)
    p.done()
    return q


def _parse_rational(p: _P) -> Fraction:
    u, upos = p.expect_int("a numerator")
    v = 1
    if p.accept("/"):
        v, vpos = p.expect_int("a denominator")
        if v == 0:
            raise ParseError("zero denominator", vpos)
    if u == 0:
        raise ParseError("need a positive rational", upos)
    return Fraction(u, v)


def _parse_scale(text: str) -> int:
    p = _P(text)
    v, _ = p.expect_int("a scale")
    p.done()
    return v


def _parse_int_list(text: str) -> list[int]:
    p = _P(text)
    out = []
    while True:
        v, _ = p.expect_int("an integer")
        out.append(v)
        if not p.accept(","):
            break
    p.done()
    return out


def _parse_rational_list(text: str) -> list[Fraction]:
    p = _P(text)
    out = [_parse_rational(p)]
    while p.accept(","):
        out.append(_parse_rational(p))
    p.done()
    return out


def _strict_supernatural(text: str) -> Supernatural:
    v = parse_supernatural(text)
    if isinstance(v, FractionalSupernatural):
        raise ParseError("negative exponents are only allowed where fractions are expected")
    return v


# ---------------------------------------------------------------------------
# Verb handlers: each returns (exit_code, json_result, json_witness, text)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _predicate(v: bool, witness=None):
    return (0 if v else 1), v, witness, _bool_text(v)


def _h_eval(args):
    if args.kind == "supernat":
        out = str(parse_supernatural(args.literal))
    elif args.kind == "primeset":
        out = str(parse_primeset(args.literal))
    elif args.kind == "sieve":
        out = str(parse_sieve(args.literal))
    else:
        out = str(parse_rational(args.literal))
    return 0, out, None, out


def _h_divides(args):
    return _predicate(
        _strict_supernatural(args.left).divides(_strict_supernatural(args.right))
    )


def _h_lcm(args):
    out = str(_strict_supernatural(args.left).lcm(_strict_supernatural(args.right)))
    return 0, out, None, out


def _h_mul(args):
    out = str(_strict_supernatural(args.left).mul(_strict_supernatural(args.right)))
    return 0, out, None, out


def _h_equiv(args):
    return _predicate(
        _strict_supernatural(args.left).equivalent(_strict_supernatural(args.right))
    )


def _h_wdiv(args):
    return _predicate(
        _strict_supernatural(args.left).weakly_divides(_strict_supernatural(args.right))
    )


def _h_infsupp(args):
    out = str(_strict_supernatural(args.value).infinite_support())
    return 0, out, None, out


def _h_member(args):
    x = PointClass(_strict_supernatural(args.value))
    sieves = [parse_sieve(t) for t in args.sieves]
    per = [member(x, sv) for sv in sieves]
    val = all(per)
    witness = per if len(per) > 1 else None
    return _predicate(val, witness)


def _h_incomparable(args):
    return _predicate(
        incomparable(
            PointClass(_strict_supernatural(args.left)),
            PointClass(_strict_supernatural(args.right)),
        )
    )


def _h_separate(args):
    x = PointClass(_strict_supernatural(args.left))
    y = PointClass(_strict_supernatural(args.right))
    w = separating_sieves(x, y, args.budget)
    text = "\n".join(
        [
            f"left: {w.left}",
            f"right: {w.right}",
            f"x in left: {_bool_text(w.x_in_left)}",
            f"y in left: {_bool_text(w.y_in_left)}",
            f"y in right: {_bool_text(w.y_in_right)}",
            f"x in right: {_bool_text(w.x_in_right)}",
        ]
    )
    result = {"left": str(w.left), "right": str(w.right)}
    witness = {
        "x_in_left": w.x_in_left,
        "y_in_left": w.y_in_left,
        "y_in_right": w.y_in_right,
        "x_in_right": w.x_in_right,
    }
    return 0, result, witness, text


def _h_product(args):
    out = str(parse_sieve(args.left).product(parse_sieve(args.right)))
    return 0, out, None, out


def _h_union(args):
    out = str(parse_sieve(args.left).union(parse_sieve(args.right)))
    return 0, out, None, out


def _h_transport(args):
    out = str(parse_sieve(args.sieve).transport(args.factor))
    return 0, out, None, out


def _h_contains(args):
    return _predicate(parse_sieve(args.sieve).contains(args.value))


def _h_smonoid(args):
    gens = _parse_int_list(args.generators)
    if args.action == "contains":
        if args.value is None:
            raise ParseError("smonoid contains needs a value")
        return _predicate(smonoid_contains(gens, args.value))
    sv, exact = smonoid_to_sieve(gens, args.bound)
    text = f"{sv}\nexact: {_bool_text(exact)}"
    return 0, str(sv), {"exact": exact}, text


def _h_bz(args):
    if args.action == "topair":
        v = parse_supernatural(args.first)
        if isinstance(v, Supernatural):
            v = FractionalSupernatural(v.exps)
        pair = frac_to_pair(v)
        text = f"scale: {pair.scale}\ndenominators: {pair.denominators}"
        result = {"scale": pair.scale, "denominators": str(pair.denominators)}
        return 0, result, None, text
    if args.second is None:
        raise ParseError("bz tofrac needs a scale and a supernatural")
    pair = BZPair(_parse_scale(args.first), _strict_supernatural(args.second))
    out = str(pair_to_frac(pair))
    return 0, out, None, out


def _h_cone(args):
    if args.action == "contains":
        pair = BZPair(args.scale, _strict_supernatural(args.denominators))
        return _predicate(cone_contains(pair, parse_rational(args.value)))
    if args.action == "list":
        pair = BZPair(args.scale, _strict_supernatural(args.denominators))
        elems = cone_enumerate(pair, args.num, args.den)
        text = " ".join(str(q) for q in elems)
        return 0, [str(q) for q in elems], None, text
    # iso
    if args.value is None or args.other is None:
        raise ParseError("cone iso needs two scale/supernatural pairs")
    first = BZPair(args.scale, _strict_supernatural(args.denominators))
    second = BZPair(_parse_scale(args.value), _strict_supernatural(args.other))
    return _predicate(cones_isomorphic(first, second))


def _h_oracle(args):
    if args.action == "rank-one":
        pair = BZPair(args.scale, _strict_supernatural(args.denominators))
        monoid = parse_sieve(args.monoid)
        tc = TruncatedCone.from_pair(pair, monoid, args.num, args.den)
        rep = check_point_conditions(tc, args.bound)
        ok = rep.verified()
        lines = [
            f"free: {_bool_text(rep.free)}",
            f"rank_one: {'verified' if rep.rank_one.verified else 'unresolved'}",
            f"pairs: {len(rep.rank_one.witnesses) + len(rep.rank_one.unresolved)}",
        ]
        for a, a2 in rep.rank_one.unresolved:
            lines.append(f"unresolved: {a} {a2}")
        witness = {
            "unresolved": [[str(a), str(a2)] for a, a2 in rep.rank_one.unresolved],
            "steps": rep.rank_one.steps,
            "limit": args.bound,
        }
        return (0 if ok else 4), ("verified" if ok else "unresolved"), witness, "\n".join(lines)
    if args.action == "verify-member":
        s = _strict_supernatural(args.value)
        sv = parse_sieve(args.sieve)
        ev = verify_member_decision(PointClass(s), sv, args.div_bound, args.factor_bound)
        if ev.consistent:
            return 0, "consistent", None, "consistent"
        return 1, "refuted", {"divisor": ev.witness}, f"refuted divisor={ev.witness}"
    if args.action == "chain":
        monoid = parse_sieve(args.monoid)
        seeds = _parse_rational_list(args.seeds)
        cp = chain_from_points(monoid, seeds, args.bound)
        shown = " | ".join(str(c) for c in cp.stages) if cp.stages else "(empty)"
        return 0, list(cp.stages), None, f"chain: {shown}"
    # add-closed
    monoid = parse_sieve(args.monoid)
    if args.chain is not None:
        stages = _parse_int_list(args.chain)
        tc = TruncatedCone.from_chain(
            ChainPoint(tuple(stages), monoid), args.num, args.den
        )
    else:
        scale_text, snat_text = args.pair
        pair = BZPair(_parse_scale(scale_text), _strict_supernatural(snat_text))
        tc = TruncatedCone.from_pair(pair, monoid, args.num, args.den)
    return _predicate(additively_closed(tc))


def _h_primes(args):
    ps = parse_primeset(args.set)
    vals = ps.members(args.upto)
    text = " ".join(str(p) for p in vals)
    return 0, vals, None, text


_HANDLERS = {
    "eval": _h_eval,
    "divides": _h_divides,
    "lcm": _h_lcm,
    "mul": _h_mul,
    "equiv": _h_equiv,
    "wdiv": _h_wdiv,
    "infsupp": _h_infsupp,
    "member": _h_member,
    "incomparable": _h_incomparable,
    "separate": _h_separate,
    "product": _h_product,
    "union": _h_union,
    "transport": _h_transport,
    "contains": _h_contains,
    "smonoid": _h_smonoid,
    "bz": _h_bz,
    "cone": _h_cone,
    "oracle": _h_oracle,
    "primes": _h_primes,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    ap = argparse.ArgumentParser(
        prog="steinitz",
        description="exact arithmetic of supernatural numbers and their sieves",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("eval", parents=[common], help="canonicalize a literal")
    sp.add_argument("literal")
    sp.add_argument(
        "--kind",
        choices=["supernat", "primeset", "sieve", "rational"],
        default="supernat",
    )

    for verb, left, right in [
        ("divides", "left", "right"),
        ("lcm", "left", "right"),
        ("mul", "left", "right"),
        ("equiv", "left", "right"),
        ("wdiv", "left", "right"),
        ("incomparable", "left", "right"),
    ]:
        sp = sub.add_parser(verb, parents=[common])
        sp.add_argument(left)
        sp.add_argument(right)

    sp = sub.add_parser("infsupp", parents=[common], help="primes with infinite exponent")
    sp.add_argument("value")

    sp = sub.add_parser("member", parents=[common], help="point in basic open(s)")
    sp.add_argument("value")
    sp.add_argument("sieves", nargs="+")

    sp = sub.add_parser("separate", parents=[common], help="opens splitting two points")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--budget", type=int, default=100_000)

    for verb in ["product", "union"]:
        sp = sub.add_parser(verb, parents=[common])
        sp.add_argument("left")
        sp.add_argument("right")

    sp = sub.add_parser("transport", parents=[common], help="preimage under scaling")
    sp.add_argument("sieve")
    sp.add_argument("factor", type=int)

    sp = sub.add_parser("contains", parents=[common], help="integer in sieve")
    sp.add_argument("sieve")
    sp.add_argument("value", type=int)

    sp = sub.add_parser("smonoid", parents=[common], help="numerical monoid queries")
    sp.add_argument("action", choices=["contains", "sieve"])
    sp.add_argument("generators")
    sp.add_argument("value", type=int, nargs="?")
    sp.add_argument("--bound", type=int, default=None)

    sp = sub.add_parser("bz", parents=[common], help="pair form of a cone")
    sp.add_argument("action", choices=["topair", "tofrac"])
    sp.add_argument("first")
    sp.add_argument("second", nargs="?")

    sp = sub.add_parser("cone", parents=[common], help="rank-one cone queries")
    sp.add_argument("action", choices=["contains", "list", "iso"])
    sp.add_argument("scale", type=int)
    sp.add_argument("denominators")
    sp.add_argument("value", nargs="?")
    sp.add_argument("other", nargs="?")
    sp.add_argument("--num", type=int, default=20)
    sp.add_argument("--den", type=int, default=20)

    sp = sub.add_parser("oracle", parents=[common], help="brute-force evidence")
    osub = sp.add_subparsers(dest="action", required=True)
    op = osub.add_parser("rank-one", parents=[common])
    op.add_argument("scale", type=int)
    op.add_argument("denominators")
    op.add_argument("monoid")
    op.add_argument("--num", type=int, default=6)
    op.add_argument("--den", type=int, default=720)
    op.add_argument("--bound", type=int, default=10_000)
    op = osub.add_parser("verify-member", parents=[common])
    op.add_argument("value")
    op.add_argument("sieve")
    op.add_argument("--div-bound", type=int, default=10_000)
    op.add_argument("--factor-bound", type=int, default=10_000)
    op = osub.add_parser("chain", parents=[common])
    op.add_argument("monoid")
    op.add_argument("seeds")
    op.add_argument("--bound", type=int, default=10_000)
    op = osub.add_parser("add-closed", parents=[common])
    op.add_argument("monoid")
    group = op.add_mutually_exclusive_group(required=True)
    group.add_argument("--chain")
    group.add_argument("--pair", nargs=2, metavar=("SCALE", "SUPERNAT"))
    op.add_argument("--num", type=int, default=12)
    op.add_argument("--den", type=int, default=720)

    sp = sub.add_parser("primes", parents=[common], help="list members of a prime set")
    sp.add_argument("set")
    sp.add_argument("--upto", type=int, default=100)

    return ap


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Run one verb; returns (exit_code, stdout_text, stderr_text)."""
    parser = _build_parser()
    out_buf, err_buf = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out_buf), redirect_stderr(err_buf):
            args = parser.parse_args(argv)
    except SystemExit as e:
        code = 0 if not e.code else 2
        return code, out_buf.getvalue().rstrip("\n"), err_buf.getvalue().rstrip("\n")
    try:
        code, result, witness, text = _HANDLERS[args.verb](args)
    except ParseError as e:
        return 2, "", f"parse error: {e}"
    except ConstructionStuck as e:
        return 4, "", f"inconclusive: {e}"
    except (
        UnsupportedProduct,
        NonCoprimeGenerators,
        NotSeparable,
        NotIncomparable,
        SearchBudgetExceeded,
    ) as e:
        return 3, "", f"unsupported: {e}"
    except ValueError as e:
        return 3, "", f"invalid: {e}"
    if getattr(args, "json", False):
        text = json.dumps({"verb": args.verb, "result": result, "witness": witness})
    return code, text, ""


def main(argv: list[str] | None = None) -> int:
    code, out, err = run_command(sys.argv[1:] if argv is None else list(argv))
    if out:
        sys.stdout.write(out + "\n")
    if err:
        sys.stderr.write(err + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
