"""The steinitz benchmark.

Run from the repository root:

    python3 bench/run.py --workload decide-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see NOTES.md for why each exists): decide-small, decide-wide,
referee and cli.  Each is a closed loop with one client: the next query
starts when the previous one has finished.  A run first sets up several
times (a fresh import of steinitz from ./src plus a warm-up pass on
inputs from another seed) and reports the median, then measures for
--seconds seconds of CPU time on inputs drawn from --seed, checking every
answer against a reference computed after the timer stops.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass, and the spans go to .bench_traces/<workload>.tsv.
The exit code is 0 only when every query was answered correctly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import cliload  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("decide-small", "decide-wide", "referee", "cli")
SETUP_REPS = 5
# warm-up queries per set-up; decide-wide's 9 include two at modulus 255255
WARMUP = {"decide-small": 30, "decide-wide": 9, "referee": 10}
# query-kind cycle lengths; a traced run uses whole cycles
CYCLE = {"decide-small": len(wl.SMALL_KINDS), "decide-wide": 20, "referee": len(wl.REFEREE_KINDS), "cli": len(cliload.KINDS)}
# share of --seconds the untraced half of a traced run measures
TRACE_SHARE = 0.15
# a timed run goes on past --seconds until it has this many queries, so
# that at least ten latencies lie above the 90th percentile
MIN_QUERIES = 100


class SetupError(Exception):
    """steinitz could not be imported from this checkout's sources."""


def children_cpu() -> float:
    """CPU seconds used by every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def fresh_import():
    """Import steinitz from ./src with no module cached; returns (module, CPU seconds)."""
    for name in [n for n in sys.modules if n == "steinitz" or n.startswith("steinitz.")]:
        del sys.modules[name]
    t0 = time.process_time()
    st = importlib.import_module("steinitz")
    elapsed = time.process_time() - t0
    if SRC.resolve() not in Path(st.__file__).resolve().parents:
        raise SetupError(f"steinitz was imported from {st.__file__}, not from {SRC}")
    return st, elapsed


@dataclass
class Pass:
    latencies: array = field(default_factory=lambda: array("d"))  # CPU seconds per query
    wall_latencies: array = field(default_factory=lambda: array("d"))
    failures: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)  # outputs as text, kept for the tests
    next_index: int = 0
    cpu: float = 0.0  # sum of latencies
    wall: float = 0.0  # sum of wall_latencies

    def __add__(self, other: "Pass") -> "Pass":
        return Pass(
            self.latencies + other.latencies, self.wall_latencies + other.wall_latencies,
            self.failures + other.failures, self.verdicts + other.verdicts,
            other.next_index, self.cpu + other.cpu, self.wall + other.wall,
        )


def run_pass(make, seed, start: int, *, seconds=0.0, count=0, tracer=None, keep=False, clock=time.process_time) -> Pass:
    """Closed loop from query index start until both seconds of timed CPU
    time and count queries are done.

    A query's latency is the CPU time it used, read from clock: this
    process's for library calls, the children's for cli processes.  On a
    shared VM, wall time also counts the hypervisor's steal time: over ten
    runs of the same code the cli p90 spread (interquartile range over
    median) was 0.31 in wall time and 0.11 in CPU time.  The wall figures
    are kept alongside."""
    res = Pass()
    i = start
    while res.cpu < seconds or i < start + count:
        q = make(seed, i)
        if tracer:
            tracer.query, tracer.active = i, True
        c0, t0 = clock(), time.perf_counter()
        try:
            out, err = q.run(), None
        except Exception as e:  # an unexpected error is a failed query
            out, err = None, e
        wall, dt = time.perf_counter() - t0, clock() - c0
        if tracer:
            tracer.active = False
        res.latencies.append(dt)
        res.wall_latencies.append(wall)
        res.cpu += dt
        res.wall += wall
        try:
            ok = err is None and q.check(out)
        except Exception as e:
            ok, err = False, e
        if not ok:
            res.failures.append(f"query {i} {q.kind}: {err!r} spec={repr(q.spec)[:300]}")
        if keep:
            res.verdicts.append(verdict_bytes(out))
        i += 1
    res.next_index = i
    return res


def verdict_bytes(out) -> str:
    return repr(tuple(v if isinstance(v, (bool, int, type(None))) else str(v) for v in out or ()))


def percentile(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# ---------------------------------------------------------------- library


def library_queries(st, name):
    stream = wl.STREAMS[name]
    return lambda seed, i: stream(st, seed, i)


def setup_library(name, seed):
    times = []
    for rep in range(SETUP_REPS):
        st, t_import = fresh_import()
        make = library_queries(st, name)
        warm = [make(f"warmup-{seed}-{rep}", i) for i in range(WARMUP[name])]
        t0 = time.process_time()
        for q in warm:
            q.run()
        times.append(t_import + time.process_time() - t0)
    return st, times


def cache_state():
    """Sizes of the program's caches, read from the unpatched functions."""
    primes = sys.modules["steinitz._primes"]
    caches = (primes.factorize, primes.is_prime, sys.modules["steinitz.supernat"].unit_residues)
    info = primes.factorize.cache_info() if hasattr(primes.factorize, "cache_info") else None
    tables = getattr(sys.modules["steinitz.sieve"], "_rep_tables", {})
    return {
        "factorize": (info.hits, info.misses) if info else (0, 0),
        "entries": sum(c.cache_info().currsize for c in caches if hasattr(c, "cache_info")),
        "rep_bytes": sum(len(t) for t in tables.values()),
    }


def trace_queries(make, seed, untraced: Pass, n: int, name: str):
    """Queries [n, 2n) traced, after queries [0, n) ran untraced.

    Both halves hold the same kinds in the same order; fresh inputs keep
    the traced pass paying the same first-use costs as the timed runs."""
    before = cache_state()
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_pass(make, seed, n, count=n, tracer=tr)
    finally:
        tr.restore()
    after = cache_state()
    hits = after["factorize"][0] - before["factorize"][0]
    misses = after["factorize"][1] - before["factorize"][1]
    metrics = tr.metrics(traced.wall)
    metrics.update(
        {
            "primes.factorize_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "primes.cache_entries": after["entries"],
            "sieve.rep_table_bytes": after["rep_bytes"],
            "trace.overhead_ratio": traced.wall / untraced.wall,
        }
    )
    tr.write(ROOT / ".bench_traces" / f"{name}.tsv")
    return metrics, [untraced, traced]


def run_library(name, seed, seconds, trace):
    st, setups = setup_library(name, seed)
    make = library_queries(st, name)
    if not trace:
        res = run_pass(make, seed, 0, seconds=seconds, count=MIN_QUERIES)
        return end_to_end(res, setups, peak_rss_mb(resource.RUSAGE_SELF)), [res]
    # as many whole kind cycles as fill the untraced share of the run
    probe = run_pass(make, seed, 0, seconds=seconds * TRACE_SHARE)
    n = math.ceil(probe.next_index / CYCLE[name]) * CYCLE[name]
    untraced = probe + run_pass(make, seed, probe.next_index, count=n - probe.next_index)
    metrics, passes = trace_queries(make, seed, untraced, n, name)
    return per_layer(metrics), passes


# ---------------------------------------------------------------- cli


def cli_queries(st, env):
    cli = sys.modules["steinitz.cli"]

    def make(seed, i):
        argv, want = cliload.cli_query(st, seed, i)

        def run():
            return cliload.run_process(argv, env)

        def check(out):
            code, stdout = out
            ref_code, ref_out, _ = cli.run_command(argv)
            return code == want == ref_code and stdout == (ref_out + "\n" if ref_out else "")

        return wl.Query(argv[0], tuple(argv), run, check)

    return make


def cli_inprocess(st):
    """The same queries answered by run_command inside this process."""
    def make(seed, i):
        argv, want = cliload.cli_query(st, seed, i)
        cli = sys.modules["steinitz.cli"]
        return wl.Query(argv[0], tuple(argv), lambda: cli.run_command(argv), lambda out: out[0] == want)

    return make


def run_cli(seed, seconds, trace):
    st, _ = fresh_import()
    importlib.import_module("steinitz.cli")
    env = cliload.child_env(str(SRC))
    setups = []
    for _ in range(SETUP_REPS):
        t0 = children_cpu()
        for argv in cliload.WARMUP_ARGV:
            cliload.run_process(argv, env)
        setups.append(children_cpu() - t0)
    if not trace:
        res = run_pass(cli_queries(st, env), seed, 0, seconds=seconds, count=MIN_QUERIES, clock=children_cpu)
        return end_to_end(res, setups, peak_rss_mb(resource.RUSAGE_CHILDREN)), [res]
    metrics = {"cli.interpreter_ms": cliload.interpreter_ms(env, children_cpu)}
    metrics.update(cliload.import_breakdown(env))
    make, n = cli_inprocess(st), 2 * CYCLE["cli"]
    traced, passes = trace_queries(make, seed, run_pass(make, seed, 0, count=n), n, "cli")
    metrics.update(traced)
    metrics["cli.run_command_ms"] = statistics.median(passes[0].latencies) * 1e3
    return per_layer(metrics), passes


# ---------------------------------------------------------------- reporting

E2E_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(res: Pass, setups, rss) -> dict:
    lat, wall = res.latencies, res.wall_latencies
    n = len(lat)
    p90 = percentile(lat, 0.9)
    above = sum(1 for v in lat if v > p90)
    values = {
        "throughput_qps": (n / res.cpu, f"{n} queries in {res.cpu:.2f} CPU s; wall: {n / res.wall:.6g}"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, f"n={n}; wall: {percentile(wall, 0.5) * 1e3:.6g}"),
        "latency_p90_ms": (p90 * 1e3, f"n={n}, {above} above; wall: {percentile(wall, 0.9) * 1e3:.6g}"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (rss, "ru_maxrss"),
    }
    rows = [(k, v, E2E_UNITS[k], note) for k, (v, note) in values.items()]
    rows.insert(3, ("error_ratio", len(res.failures) / n, "ratio", f"{len(res.failures)} of {n} failed"))
    return {"rows": rows, "json": {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in values.items()}}


def per_layer(metrics: dict) -> dict:
    names = [f"{layer}.{m}" for layer in tracing.LAYERS for m in ("calls", "self_s")]
    names += list(tracing.NAMED_METRICS)
    units = {name: layer_unit(name) for name in names}
    values = {name: metrics.get(name, 0) for name in names}
    rows = [(k, values[k], units[k], "") for k in names]
    return {"rows": rows, "json": {k: {"value": values[k], "unit": units[k]} for k in names}}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("modulus_max"):
        return "modulus"
    return "count"


def run_one(name, seed, seconds, trace) -> int:
    if not (SRC / "steinitz" / "__init__.py").is_file():
        print(f"error: no steinitz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if name == "cli":
            report, passes = run_cli(seed, seconds, trace)
        else:
            report, passes = run_library(name, seed, seconds, trace)
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for key, value, unit, note in report["rows"]:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<30} {shown:>14} {unit:<8} {note}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": report["json"]}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed, seconds, trace) -> int:
    """Every workload, each in a fresh process; prints each one's report."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = code or proc.returncode or 1
        if not lines:
            continue
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
