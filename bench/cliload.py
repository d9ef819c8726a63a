"""The cli workload: one `python -m steinitz.cli` process per query.

Queries cycle through every verb, --json, and all five exit codes, with
small literals drawn from the seed.  Each query knows its exit code in
advance (forced by construction or from the plain reference), and its
stdout must equal what run_command prints in-process for the same argv.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from fractions import Fraction

import reference as ref
import workloads as wl

# Each builder returns (argv, expected exit code).


def _x(st, spec):
    return str(wl.snat(st, spec))


def _eval(rng, st):
    return ["eval", _x(st, wl.rand_map(rng))], 0


def _eval_error(rng, st):
    n = rng.choice((4, 6, 8, 9, 10, 12, 14, 15))
    return ["eval", f"{n}^{rng.randrange(1, 4)}"], 2


def _divides(rng, st):
    x, z = wl.rand_map(rng), wl.rand_map(rng, 0.15)
    if rng.random() < 0.5:
        return ["divides", _x(st, x), _x(st, wl.combine(wl.add, x, z))], 0
    y = wl.rand_map(rng, 0.0)
    return ["divides", _x(st, wl.bumped(rng, y)), _x(st, y)], 1


def _lcm(rng, st):
    return ["lcm", _x(st, wl.rand_map(rng)), _x(st, wl.rand_map(rng))], 0


def _mul_json(rng, st):
    return ["mul", _x(st, wl.rand_map(rng)), _x(st, wl.rand_map(rng)), "--json"], 0


def _equiv(rng, st):
    x = wl.rand_map(rng)
    return ["equiv", _x(st, x), _x(st, wl.equivalent_variant(rng, x))], 0


def _wdiv(rng, st):
    x, y = wl.rand_map(rng), wl.rand_map(rng)
    return ["wdiv", _x(st, x), _x(st, y)], 0 if ref.weakly_divides(x, y) else 1


def _infsupp(rng, st):
    return ["infsupp", _x(st, wl.rand_map(rng))], 0


def _member(rng, st):
    x = wl.rand_map(rng)
    spec = wl.rand_proper_sieve(rng)
    return ["member", _x(st, x), str(wl.sieve(st, spec))], 0 if ref.member(x, wl.plain_sieve(spec)) else 1


def _incomparable(rng, st):
    x, y = wl.incomparable_pair(rng, rng.choice(wl.MODES))
    return ["incomparable", _x(st, x), _x(st, y)], 0


def _separate(rng, st):
    x, y = wl.incomparable_pair(rng, "inf")
    return ["separate", _x(st, x), _x(st, y), "--json"], 0


def _separate_related(rng, st):
    x = wl.rand_map(rng)
    w = wl.combine(wl.add, x, wl.rand_map(rng, 0.15))
    return ["separate", _x(st, x), _x(st, w)], 3


def _product(rng, st):
    sa = wl.rand_sieve(rng)
    sb = wl.rand_sieve(rng, family_chance=0.0 if sa[1] else 0.4)
    return ["product", str(wl.sieve(st, sa)), str(wl.sieve(st, sb))], 0


def _product_unsupported(rng, st):
    a = f"family(cofactor={rng.choice((1, 2, 3))}; primes=all; exp={rng.randrange(1, 4)})"
    b = f"family(cofactor={rng.choice((1, 5))}; primes=classes(1 mod 4); exp={rng.randrange(1, 4)})"
    return ["product", a, b], 3


def _union(rng, st):
    return ["union", str(wl.sieve(st, wl.rand_sieve(rng))), str(wl.sieve(st, wl.rand_sieve(rng)))], 0


def _transport(rng, st):
    return ["transport", str(wl.sieve(st, wl.rand_sieve(rng))), str(rng.randrange(2, 13))], 0


def _contains(rng, st):
    spec, n = wl.rand_sieve(rng), rng.randrange(1, 400)
    return ["contains", str(wl.sieve(st, spec)), str(n)], 0 if ref.sieve_has(wl.plain_sieve(spec), n) else 1


def _smonoid(rng, st):
    gens = rng.choice(((3, 5), (4, 7), (5, 7, 9), (3, 7), (2, 5)))
    n = rng.randrange(0, 30)
    if rng.random() < 0.5:
        reach = ref.monoid_reach(gens, n)
        return ["smonoid", "contains", ",".join(map(str, gens)), str(n)], 0 if reach[n] else 1
    return ["smonoid", "sieve", ",".join(map(str, gens)), "--json"], 0


def _bz(rng, st):
    if rng.random() < 0.5:
        f = wl.rand_fractional(rng)
        return ["bz", "topair", str(st.FractionalSupernatural(st.ExpMap(f.modulus, f.class_values, f.exceptions)))], 0
    p = rng.choice((17, 19, 23))  # the scale must be coprime to the denominators
    return ["bz", "tofrac", str(p), _x(st, wl.with_exception(wl.rand_map(rng), p, 0))], 0


def _cone(rng, st):
    p = rng.choice((2, 3, 5))
    action = rng.choice(("contains", "list", "iso"))
    if action == "contains":
        q = Fraction(rng.randrange(1, 30), rng.choice((1, 2, 3, 4, 5, 8, 9)))
        want = all(pp == p for pp in ref.factor(q.denominator))
        return ["cone", "contains", "1", f"{p}^inf", str(q)], 0 if want else 1
    if action == "list":
        return ["cone", "list", "1", f"{p}^inf", "--num", str(rng.randrange(2, 8)), "--den", str(rng.randrange(2, 20))], 0
    return ["cone", "iso", "1", f"{p}^inf", str(rng.choice((7, 11))), f"{p}^inf * 13^{rng.randrange(1, 4)}"], 0


def _oracle(rng, st):
    action = rng.choice(("rank-one", "verify-member", "chain", "add-closed"))
    if action == "rank-one":
        return ["oracle", "rank-one", "1", "2^inf", "sieve(2)", "--num", str(rng.randrange(2, 5)), "--den", str(rng.choice((8, 16, 32)))], 0
    if action == "verify-member":
        x, s, code = rng.choice(
            (("2^inf * 3^inf", "sieve(6)", 0), ("2^inf * 3^inf * 5^2", "sieve(10)", 1), ("2^inf", "sieve(3)", 1))
        )
        return ["oracle", "verify-member", x, s, "--div-bound", "300", "--factor-bound", "300"], code
    if action == "chain":
        return ["oracle", "chain", "sieve(1)", f"1,1/{rng.choice((2, 3, 4))},1/{rng.choice((6, 12))}"], 0
    return ["oracle", "add-closed", "sieve(2)", "--pair", "1", "2^inf", "--num", str(rng.randrange(2, 5)), "--den", "8"], 0


def _inconclusive(rng, st):
    if rng.random() < 0.5:
        return ["oracle", "chain", "sieve(4)", "1,1/6", "--bound", str(rng.randrange(10, 21))], 4
    return ["oracle", "rank-one", "1", "3^inf", "sieve(2)", "--num", "1", "--den", "3", "--bound", str(rng.randrange(50, 200))], 4


def _primes(rng, st):
    r = rng.choice((1, 3))
    return ["primes", f"classes({r} mod 4)", "--upto", str(rng.randrange(20, 200))], 0


KINDS = (
    _eval, _divides, _lcm, _mul_json, _equiv, _wdiv, _infsupp, _member, _incomparable,
    _separate, _product, _union, _transport, _contains, _smonoid, _bz, _cone, _oracle,
    _primes, _eval_error, _separate_related, _product_unsupported, _inconclusive,
)


def cli_query(st, seed, i: int) -> tuple[list[str], int]:
    return KINDS[i % len(KINDS)](wl.query_rng(seed, i), st)


# ---------------------------------------------------------------- processes


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_process(argv: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "steinitz.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def interpreter_ms(env: dict, children_cpu, reps: int = 5) -> float:
    """Median CPU time of a bare `python -c pass`: the floor under every query."""
    times = []
    for _ in range(reps):
        t0 = children_cpu()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append((children_cpu() - t0) * 1e3)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
_MARK = "steinitz-bench-mark"


def import_breakdown(env: dict, reps: int = 5) -> dict[str, float]:
    """Median -X importtime figures, in ms, for importing steinitz.cli.

    import_ms sums the cumulative times of the outermost imports made
    after a marker line, so interpreter start-up is excluded; the cones
    and oracle figures are the cumulative times of those modules."""
    rows = {"cli.import_ms": [], "cli.import_cones_ms": [], "cli.import_oracle_ms": []}
    code = f"import sys; sys.stderr.write('{_MARK}\\n'); import steinitz.cli"
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        after = proc.stderr.split(_MARK, 1)[1]
        lines = [(len(m.group(3)), m.group(4), int(m.group(2))) for m in _IMPORT_LINE.finditer(after)]
        top = min(indent for indent, _, _ in lines)
        total = sum(cum for indent, _, cum in lines if indent == top)
        cones = next((cum for _, name, cum in lines if name == "steinitz.cones"), 0)
        oracle = next((cum for _, name, cum in lines if name == "steinitz.oracle"), 0)
        rows["cli.import_ms"].append(total / 1e3)
        rows["cli.import_cones_ms"].append(cones / 1e3)
        rows["cli.import_oracle_ms"].append(oracle / 1e3)
    return {k: statistics.median(v) for k, v in rows.items()}


WARMUP_ARGV = (["eval", "2^inf * 3^5"], ["member", "sinf", "sieve(6)"], ["oracle", "chain", "sieve(1)", "1,1/2"])
