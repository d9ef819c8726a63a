"""Outside-in tracer: spans around the public functions of each layer.

The tracer replaces each function and method named in LAYERS with a
wrapper that records a span (name, start, end, parent, query id).  It
also replaces every copy of a wrapped function that another steinitz
module imported (``steinitz.supernat.factorize`` and the package
re-exports), so calls between layers nest.  Spans stay in memory until
the run ends; ``restore`` puts every patched attribute back.

Self time is a span's duration minus the durations of its direct
children, so the layer self times add up to the time spent inside
top-level spans; the rest of the traced wall time is the benchmark's.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import cache
from math import gcd, lcm, prod

import reference as ref

LAYERS = {
    "primes": ("steinitz._primes", ("is_prime", "factorize", "support", "primes_upto", "iter_primes")),
    "supernat": (
        "steinitz.supernat",
        (
            "ExpMap.refined", "ExpMap.combine", "ExpMap.same_values",
            "PrimeSet.refined", "PrimeSet.combine",
            "Supernatural.mul", "Supernatural.lcm", "Supernatural.divides",
            "Supernatural.equivalent", "Supernatural.weakly_divides",
            "Supernatural.infinite_support", "int_divides",
        ),
    ),
    "sieve": (
        "steinitz.sieve",
        (
            "Sieve.normalize", "Sieve.union", "Sieve.product", "Sieve.transport",
            "Sieve.contains", "Sieve.members_upto", "Family.covers",
            "SMonoidPresentation.contains", "SMonoidPresentation.frobenius_number",
            "SMonoidPresentation.to_sieve",
        ),
    ),
    "topology": (
        "steinitz.topology",
        ("member", "member_intersection", "incomparable", "separating_side", "separating_sieves"),
    ),
    "cones": ("steinitz.cones", ("frac_to_pair", "pair_to_frac", "cone_contains", "cone_enumerate")),
    "oracle": (
        "steinitz.oracle",
        (
            "verify_member_decision", "check_point_conditions", "chain_from_points",
            "TruncatedCone.from_pair", "TruncatedCone.from_chain", "additively_closed",
        ),
    ),
    "cli": ("steinitz.cli", ("run_command", "main")),
}

SPAN_CAP = 200_000

# per-layer metrics beyond <layer>.calls and <layer>.self_s, in output order
NAMED_METRICS = (
    "primes.factorize_hit_ratio", "primes.cache_entries",
    "supernat.align_classes", "supernat.result_modulus_max",
    "sieve.normalize_calls", "sieve.contains_calls", "sieve.rep_table_bytes",
    "topology.member_calls",
    "oracle.rank_one_steps", "oracle.unresolved_pairs",
    "oracle.sieve_contains_calls", "oracle.factorize_calls",
    "cli.interpreter_ms", "cli.import_ms", "cli.import_cones_ms", "cli.import_oracle_ms",
    "cli.run_command_ms",
    "trace.overhead_ratio", "trace.wall_s", "trace.bench_self_s", "trace.spans",
)


def steinitz_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "steinitz" or name.startswith("steinitz.")]


def snapshot() -> dict:
    """Every attribute of every steinitz module and class, by identity."""
    out = {}
    for mod in steinitz_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__.startswith("steinitz"):
                for ckey, cval in vars(val).items():
                    out[(mod.__name__, key, ckey)] = cval
    return out


@cache
def phi(m: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in ref.factor(m).items())


class Tracer:
    def __init__(self):
        self.query = -1
        self.active = False  # spans are recorded only while a query runs
        self.names: list[str] = []
        # span columns: id, query, name index, start ns, end ns, parent id;
        # the first SPAN_CAP spans are kept, the roll-up counts every span
        self.spans = tuple(array("q") for _ in range(6))
        self.span_count = 0
        self.stack: list[list] = []  # open spans: [child ns, id]
        self.next_id = 0
        self.oracle_depth = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.name_calls = Counter()
        self.under_oracle = Counter()
        self.align_classes = 0
        self.result_modulus_max = 0
        self.rank_one_steps = 0
        self.unresolved_pairs = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        mods = steinitz_modules()
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:  # e.g. steinitz.cli, which the package does not import
                continue
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = vars(cls)[attr]
                    is_cm = isinstance(raw, classmethod)
                    wrapped = self._wrap(raw.__func__ if is_cm else raw, qual, layer)
                    new = classmethod(wrapped) if is_cm else wrapped
                    for key, val in list(vars(cls).items()):
                        if val is raw:  # aliases such as Supernatural.__mul__
                            self._set(cls, key, new)
                else:
                    func = getattr(mod, qual)
                    wrapped = self._wrap(func, qual, layer)
                    for m in mods:
                        for key, val in list(vars(m).items()):
                            if val is func:
                                self._set(m, key, wrapped)

    def _set(self, owner, key, new) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def restore(self) -> None:
        while self._saved:
            owner, key, old = self._saved.pop()
            setattr(owner, key, old)

    # ------------------------------------------------------------- spans

    def _wrap(self, fn, name: str, layer: str):
        tr = self
        clock = time.perf_counter_ns
        name_idx = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        is_oracle = layer == "oracle"
        is_supernat = layer == "supernat"

        def span(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid]
            stack.append(frame)
            if tr.oracle_depth:
                tr.under_oracle[name] += 1
            if is_oracle:
                tr.oracle_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if is_oracle:
                    tr.oracle_depth -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tr.self_ns[layer] += dur - frame[0]
                tr.calls[layer] += 1
                tr.name_calls[name] += 1
                if tr.span_count < SPAN_CAP:
                    for col, v in zip(tr.spans, (sid, tr.query, name_idx, t0, t1, parent)):
                        col.append(v)
                tr.span_count += 1
            if observe is not None:
                observe(tr, args, result)
            if is_supernat and parent == -1:
                tr._returned(result)
            return result

        return span

    def _returned(self, result) -> None:
        em = getattr(result, "exps", result)
        m = getattr(em, "modulus", None)
        if isinstance(m, int):
            self.result_modulus_max = max(self.result_modulus_max, m)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        kept = len(self.spans[0])
        with open(path, "w") as fh:
            fh.write(f"# {kept} of {self.span_count} spans\n")
            fh.write("id\tquery\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for sid, q, n, t0, t1, parent in zip(*self.spans):
                fh.write(f"{sid}\t{q}\t{names[n]}\t{t0}\t{t1}\t{parent}\n")

    def metrics(self, wall_s: float) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        inside = sum(self.self_ns.values()) / 1e9
        out.update(
            {
                "supernat.align_classes": self.align_classes,
                "supernat.result_modulus_max": self.result_modulus_max,
                "sieve.normalize_calls": self.name_calls["Sieve.normalize"],
                "sieve.contains_calls": self.name_calls["Sieve.contains"],
                "topology.member_calls": self.name_calls["member"],
                "oracle.rank_one_steps": self.rank_one_steps,
                "oracle.unresolved_pairs": self.unresolved_pairs,
                "oracle.sieve_contains_calls": self.under_oracle["Sieve.contains"],
                "oracle.factorize_calls": self.under_oracle["factorize"],
                "trace.wall_s": wall_s,
                "trace.bench_self_s": wall_s - inside,
                "trace.spans": self.span_count,
            }
        )
        return out


# ------------------------------------------------------------- observers


def _refined(tr, args, _result):
    obj, target = args[0], args[1]
    if target != obj.modulus:
        tr.align_classes += phi(target)


def _combined(tr, args, _result):
    tr.align_classes += phi(lcm(args[0].modulus, args[1].modulus))


def _rank_one(tr, args, report):
    # walk length per pair: c/step steps to a witness, bound//step when the
    # walk ran out; step is the reduced cross ratio the oracle walks by
    rep = report.rank_one
    for a, a2, _b, c, _c2 in rep.witnesses:
        tr.rank_one_steps += c // _step(a, a2) if a != a2 else 1
    bound = args[1] if len(args) > 1 else 10_000
    for a, a2 in rep.unresolved:
        tr.rank_one_steps += bound // _step(a, a2)
    tr.unresolved_pairs += len(rep.unresolved)


def _step(a, a2) -> int:
    cross1, cross2 = a.numerator * a2.denominator, a2.numerator * a.denominator
    return cross1 // gcd(cross1, cross2)


_OBSERVERS = {
    "ExpMap.refined": _refined,
    "PrimeSet.refined": _refined,
    "ExpMap.combine": _combined,
    "PrimeSet.combine": _combined,
    "ExpMap.same_values": _combined,
    "check_point_conditions": _rank_one,
}
