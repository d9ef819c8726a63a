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

The verbs that apply a method of one operand to another (divides, lcm,
mul, equiv, wdiv, product, union) are one table, _BINARY, which builds
their handler and their argument parsers.  Only the bz, cone and oracle
verbs import the cones and oracle modules.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from math import gcd

from ._primes import is_prime, support
from .errors import ConstructionStuck, ParseError, SteinitzError
from .sieve import Family, Sieve, smonoid_contains, smonoid_to_sieve
from .supernat import (
    INF,
    ExpMap,
    FractionalSupernatural,
    PrimeSet,
    Supernatural,
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
        elif ch.isdigit():
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

    def accept(self, kind: str, value: str | None = None):
        t = self.peek()
        if t[0] == kind and (value is None or t[1] == value):
            self.k += 1
            return t
        return None

    def expect(self, kind: str, value: str | None = None, what: str | None = None):
        """accept(kind, value), or an error naming what was expected."""
        t = self.accept(kind, value)
        if t is None:
            raise ParseError(f"expected {what or repr(value or kind)}", self.peek()[2])
        return t

    def expect_int(self, what: str = "an integer") -> tuple[int, int]:
        t = self.expect("int", what=what)
        return int(t[1]), t[2]

    def items(self, item, close: str | None = None, sep: str = ",") -> list:
        """item() once, then again after each sep.  With close, the list
        may also be empty, and it ends with that symbol."""
        if close is not None and self.accept(close):
            return []
        out = [item()]
        while self.accept(sep):
            out.append(item())
        if close is not None:
            self.expect(close)
        return out


def _whole(text: str, rule):
    """rule applied to the tokens of text, which it must use up."""
    p = _P(text)
    v = rule(p)
    t = p.peek()
    if t[0] != "end":
        raise ParseError("unexpected trailing input", t[2])
    return v


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
    """'{' r:e, ... [mod M] '}' ['mod' M]; returns (modulus, class_values).

    The checks cost what the literal lists: a gcd per listed residue,
    and a walk up from 0 that stops at the sixth missing unit."""
    entries: dict[int, float | int] = {}

    def entry():
        r, rpos = p.expect_int("a residue")
        p.expect(":")
        if allow_inf and p.accept("name", "inf"):
            e: float | int = INF
        else:
            e, _ = p.expect_int("an exponent")
        if r in entries:
            raise ParseError(f"residue {r} listed twice", rpos)
        entries[r] = e

    p.items(entry)
    if not mod_inside:
        p.expect("}")
    p.expect("name", "mod")
    modulus, _ = p.expect_int("a modulus")
    if mod_inside:
        p.expect("}")
    if modulus < 1:
        raise ParseError("modulus must be positive", pos)
    bad = sorted(r for r in entries if not 0 <= r < modulus or gcd(r, modulus) != 1)
    if bad:
        raise ParseError(f"residues {bad} are not units mod {modulus}", pos)
    units = (r for r in range(modulus) if r not in entries and gcd(r, modulus) == 1)
    missing = [str(r) for r in islice(units, 6)]
    if missing:
        more = ", ..." if len(missing) > 5 else ""
        raise ParseError(
            f"missing residues [{', '.join(missing[:5])}{more}] mod {modulus}", pos
        )
    return modulus, entries


def _supernatural_parts(p: _P):
    """(exceptions, modulus, class_values) of a supernatural literal."""
    if p.accept("name", "sinf"):
        return {}, 1, {0: INF}
    exceptions: dict[int, float | int] = {}

    def term():
        base, pos = _parse_prime(p)
        if base in exceptions:
            raise ParseError(f"prime {base} listed twice", pos)
        e: float | int = 1
        if p.accept("^"):
            e = _parse_exponent(p, allow_negative=True)
        exceptions[base] = e

    if not p.accept("name", "one"):
        p.items(term, sep="*")
    modulus, class_values = 1, {0: 0}
    if p.accept(";"):
        t = p.expect("name", "default")
        if p.accept("{"):
            modulus, class_values = _parse_residue_map(
                p, mod_inside=False, allow_inf=True, pos=t[2]
            )
        else:
            v = _parse_exponent(p, allow_negative=False)
            class_values = {0: v}
    return exceptions, modulus, class_values


def parse_supernatural(text: str) -> Supernatural | FractionalSupernatural:
    exceptions, modulus, class_values = _whole(text, _supernatural_parts)
    for q in support(modulus):
        if q not in exceptions:
            raise ParseError(
                f"prime {q} divides the modulus {modulus}; give it an explicit term"
            )
    exps = ExpMap(modulus, class_values, exceptions)
    if any(v != INF and v < 0 for v in exceptions.values()):
        return FractionalSupernatural(exps)
    return Supernatural(exps)


def _parse_prime(p: _P) -> tuple[int, int]:
    q, pos = p.expect_int("a prime")
    if not is_prime(q):
        raise ParseError(f"{q} is not prime", pos)
    return q, pos


def _parse_primeset_atom(p: _P) -> PrimeSet:
    t = p.peek()
    if p.accept("name", "all"):
        return PrimeSet.all_primes()
    if p.accept("{"):
        return PrimeSet.of(*p.items(lambda: _parse_prime(p)[0], close="}"))
    if p.accept("name", "classes"):
        p.expect("(")
        residues = p.items(lambda: p.expect_int("a residue")[0])
        p.expect("name", "mod")
        m, mpos = p.expect_int("a modulus")
        p.expect(")")
        if m < 2:
            raise ParseError("classes need a modulus of at least 2; use 'all'", mpos)
        for r in residues:
            if not 0 <= r < m or gcd(r, m) != 1:
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
    return _whole(text, _parse_primeset)


def _parse_generator(p: _P) -> int:
    g, gpos = p.expect_int("a generator")
    if g < 1:
        raise ParseError("generators must be positive", gpos)
    return g


def _parse_family(p: _P, pos: int) -> Family:
    p.expect("(")
    p.expect("name", "cofactor")
    p.expect("=")
    cof, _ = p.expect_int("a cofactor")
    p.expect(";")
    p.expect("name", "primes")
    p.expect("=")
    ps = _parse_primeset(p)
    p.expect(";")
    p.expect("name", "exp")
    p.expect("=")
    if p.accept("{"):
        m, cv = _parse_residue_map(p, mod_inside=True, allow_inf=False, pos=pos)
        exp = ExpMap(m, cv, {q: 1 for q in support(m)})
    else:
        v, _ = p.expect_int("an exponent")
        exp = ExpMap(1, {0: v}, {})
    p.expect(")")
    try:
        return Family(cof, ps, exp)
    except ValueError as e:
        raise ParseError(str(e), pos) from None


def _parse_sieve(p: _P) -> Sieve:
    gens: list[int] = []
    fams: list[Family] = []
    while True:
        t = p.peek()
        if p.accept("name", "sieve"):
            p.expect("(")
            gens.extend(p.items(lambda: _parse_generator(p), close=")"))
        elif p.accept("name", "family"):
            fams.append(_parse_family(p, t[2]))
        else:
            raise ParseError("expected 'sieve(...)' or 'family(...)'", t[2])
        if not p.accept("+"):
            return Sieve(tuple(gens), tuple(fams))


def parse_sieve(text: str) -> Sieve:
    return _whole(text, _parse_sieve).normalize()


def parse_rational(text: str) -> Fraction:
    return _whole(text, _parse_rational)


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
    return _whole(text, lambda p: p.expect_int("a scale")[0])


def _parse_int_list(text: str) -> list[int]:
    return _whole(text, lambda p: p.items(lambda: p.expect_int()[0]))


def _parse_rational_list(text: str) -> list[Fraction]:
    return _whole(text, lambda p: p.items(lambda: _parse_rational(p)))


def _strict_supernatural(text: str) -> Supernatural:
    v = parse_supernatural(text)
    if isinstance(v, FractionalSupernatural):
        raise ParseError("negative exponents are only allowed where fractions are expected")
    return v


def _pair(scale: int, text: str):
    """The BZPair of a scale and a supernatural literal."""
    from .cones import BZPair

    return BZPair(scale, _strict_supernatural(text))


# ---------------------------------------------------------------------------
# Verb handlers: each returns (exit_code, json_result, json_witness, text)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _predicate(v: bool, witness=None):
    return (0 if v else 1), v, witness, _bool_text(v)


def _value(out: str):
    return 0, out, None, out


# eval --kind -> the parser of that kind of literal
_KINDS = {
    "supernat": parse_supernatural,
    "primeset": parse_primeset,
    "sieve": parse_sieve,
    "rational": parse_rational,
}


def _h_eval(args):
    return _value(str(_KINDS[args.kind](args.literal)))


# verb -> (method of the left operand, parser of both operands); the
# method is looked up on each call, so a patched class attribute is seen
_BINARY = {
    "divides": ("divides", _strict_supernatural),
    "lcm": ("lcm", _strict_supernatural),
    "mul": ("mul", _strict_supernatural),
    "equiv": ("equivalent", _strict_supernatural),
    "wdiv": ("weakly_divides", _strict_supernatural),
    "product": ("product", parse_sieve),
    "union": ("union", parse_sieve),
}


def _h_binary(args):
    method, parse = _BINARY[args.verb]
    v = getattr(parse(args.left), method)(parse(args.right))
    return _predicate(v) if isinstance(v, bool) else _value(str(v))


def _h_infsupp(args):
    return _value(str(_strict_supernatural(args.value).infinite_support()))


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
    flags = ("x_in_left", "y_in_left", "y_in_right", "x_in_right")
    witness = {flag: getattr(w, flag) for flag in flags}
    text = "\n".join(
        [f"left: {w.left}", f"right: {w.right}"]
        + [f"{flag.replace('_', ' ')}: {_bool_text(v)}" for flag, v in witness.items()]
    )
    result = {"left": str(w.left), "right": str(w.right)}
    return 0, result, witness, text


def _h_transport(args):
    return _value(str(parse_sieve(args.sieve).transport(args.factor)))


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
    from .cones import frac_to_pair, pair_to_frac

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
    return _value(str(pair_to_frac(_pair(_parse_scale(args.first), args.second))))


def _h_cone(args):
    from .cones import cone_contains, cone_enumerate, cones_isomorphic

    if args.action == "iso" and (args.value is None or args.other is None):
        raise ParseError("cone iso needs two scale/supernatural pairs")
    pair = _pair(args.scale, args.denominators)
    if args.action == "contains":
        return _predicate(cone_contains(pair, parse_rational(args.value)))
    if args.action == "list":
        elems = cone_enumerate(pair, args.num, args.den)
        text = " ".join(str(q) for q in elems)
        return 0, [str(q) for q in elems], None, text
    # iso
    second = _pair(_parse_scale(args.value), args.other)
    return _predicate(cones_isomorphic(pair, second))


def _h_oracle(args):
    from . import oracle

    if args.action == "rank-one":
        pair = _pair(args.scale, args.denominators)
        monoid = parse_sieve(args.monoid)
        tc = oracle.TruncatedCone.from_pair(pair, monoid, args.num, args.den)
        rep = oracle.check_point_conditions(tc, args.bound)
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
        ev = oracle.verify_member_decision(PointClass(s), sv, args.div_bound, args.factor_bound)
        if ev.consistent:
            return 0, "consistent", None, "consistent"
        return 1, "refuted", {"divisor": ev.witness}, f"refuted divisor={ev.witness}"
    if args.action == "chain":
        monoid = parse_sieve(args.monoid)
        seeds = _parse_rational_list(args.seeds)
        cp = oracle.chain_from_points(monoid, seeds, args.bound)
        shown = " | ".join(str(c) for c in cp.stages) if cp.stages else "(empty)"
        return 0, list(cp.stages), None, f"chain: {shown}"
    # add-closed
    monoid = parse_sieve(args.monoid)
    if args.chain is not None:
        stages = _parse_int_list(args.chain)
        tc = oracle.TruncatedCone.from_chain(
            oracle.ChainPoint(tuple(stages), monoid), args.num, args.den
        )
    else:
        scale_text, snat_text = args.pair
        pair = _pair(_parse_scale(scale_text), snat_text)
        tc = oracle.TruncatedCone.from_pair(pair, monoid, args.num, args.den)
    return _predicate(oracle.additively_closed(tc))


def _h_primes(args):
    ps = parse_primeset(args.set)
    vals = ps.members(args.upto)
    text = " ".join(str(p) for p in vals)
    return 0, vals, None, text


_HANDLERS = {
    **dict.fromkeys(_BINARY, _h_binary),
    "eval": _h_eval,
    "infsupp": _h_infsupp,
    "member": _h_member,
    "incomparable": _h_incomparable,
    "separate": _h_separate,
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

    def add(subs, verb, *positionals, **kw):
        """A verb's parser, with these plain positional arguments."""
        sp = subs.add_parser(verb, parents=[common], **kw)
        for name in positionals:
            sp.add_argument(name)
        return sp

    sp = add(sub, "eval", "literal", help="canonicalize a literal")
    sp.add_argument("--kind", choices=list(_KINDS), default="supernat")

    # the table's verbs on supernatural numbers, then incomparable
    for verb in (v for v, (_, parse) in _BINARY.items() if parse is _strict_supernatural):
        add(sub, verb, "left", "right")
    add(sub, "incomparable", "left", "right")

    add(sub, "infsupp", "value", help="primes with infinite exponent")

    sp = add(sub, "member", "value", help="point in basic open(s)")
    sp.add_argument("sieves", nargs="+")

    sp = add(sub, "separate", "left", "right", help="opens splitting two points")
    sp.add_argument("--budget", type=int, default=100_000)

    # the table's verbs on sieves
    for verb in (v for v, (_, parse) in _BINARY.items() if parse is parse_sieve):
        add(sub, verb, "left", "right")

    sp = add(sub, "transport", "sieve", help="preimage under scaling")
    sp.add_argument("factor", type=int)

    sp = add(sub, "contains", "sieve", help="integer in sieve")
    sp.add_argument("value", type=int)

    sp = add(sub, "smonoid", help="numerical monoid queries")
    sp.add_argument("action", choices=["contains", "sieve"])
    sp.add_argument("generators")
    sp.add_argument("value", type=int, nargs="?")
    sp.add_argument("--bound", type=int, default=None)

    sp = add(sub, "bz", help="pair form of a cone")
    sp.add_argument("action", choices=["topair", "tofrac"])
    sp.add_argument("first")
    sp.add_argument("second", nargs="?")

    sp = add(sub, "cone", help="rank-one cone queries")
    sp.add_argument("action", choices=["contains", "list", "iso"])
    sp.add_argument("scale", type=int)
    sp.add_argument("denominators")
    sp.add_argument("value", nargs="?")
    sp.add_argument("other", nargs="?")
    sp.add_argument("--num", type=int, default=20)
    sp.add_argument("--den", type=int, default=20)

    sp = add(sub, "oracle", help="brute-force evidence")
    osub = sp.add_subparsers(dest="action", required=True)
    op = add(osub, "rank-one")
    op.add_argument("scale", type=int)
    op.add_argument("denominators")
    op.add_argument("monoid")
    op.add_argument("--num", type=int, default=6)
    op.add_argument("--den", type=int, default=720)
    op.add_argument("--bound", type=int, default=10_000)
    op = add(osub, "verify-member", "value", "sieve")
    op.add_argument("--div-bound", type=int, default=10_000)
    op.add_argument("--factor-bound", type=int, default=10_000)
    op = add(osub, "chain", "monoid", "seeds")
    op.add_argument("--bound", type=int, default=10_000)
    op = add(osub, "add-closed", "monoid")
    group = op.add_mutually_exclusive_group(required=True)
    group.add_argument("--chain")
    group.add_argument("--pair", nargs=2, metavar=("SCALE", "SUPERNAT"))
    op.add_argument("--num", type=int, default=12)
    op.add_argument("--den", type=int, default=720)

    sp = add(sub, "primes", "set", help="list members of a prime set")
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
    except SteinitzError as e:
        # the rest: UnsupportedProduct, NonCoprimeGenerators, NotSeparable,
        # NotIncomparable and SearchBudgetExceeded
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
