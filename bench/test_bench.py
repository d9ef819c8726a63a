"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import cliload  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))

# enough queries for one pass over each kind, and cheap: the decide-wide
# prefix holds one query at modulus 255255, the rest at 1155 and 15015
PREFIX = {"decide-small": 15, "decide-wide": 8, "referee": 10}


@pytest.fixture(scope="module")
def st():
    module, _ = run.fresh_import()
    return module


def specs(st, name, seed):
    make = run.library_queries(st, name)
    return [repr(make(seed, i).spec) for i in range(PREFIX[name])]


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_same_seed_gives_identical_inputs_and_verdicts(st, name):
    assert specs(st, name, 7) == specs(st, name, 7)
    make = run.library_queries(st, name)
    first = run.run_pass(make, 7, 0, count=PREFIX[name], keep=True)
    second = run.run_pass(make, 7, 0, count=PREFIX[name], keep=True)
    assert first.failures == [] and second.failures == []
    assert first.verdicts == second.verdicts


def wide_shapes(st, seed):
    """What sets each decide-wide query's cost: its kind and modulus, and
    the mul/lcm pattern and operand moduli of each fold."""
    make = run.library_queries(st, "decide-wide")
    out = []
    for i in range(20):
        kind, modulus, a, b, _ = make(seed, i).spec
        out.append((kind, modulus, [(ops, [o[0] for o in operands]) for ops, operands in filter(None, (a, b))]))
    return out


def test_decide_wide_shapes_do_not_depend_on_the_seed(st):
    assert wide_shapes(st, 7) == wide_shapes(st, 8)


def test_referee_passes_hold_every_pair_and_scale_once(st):
    make = run.library_queries(st, "referee")
    pairs = len(wl.curated_member_pairs(st))
    kinds = [make(7, i) for i in range(len(wl.REFEREE_KINDS) * pairs // 4)]
    members = [q.spec[0] for q in kinds if q.kind == "verify_member"]
    scales = [q.spec[1] for q in kinds if q.kind == "rank_one_neg"]
    assert sorted(members[:pairs]) == list(range(pairs))
    assert sorted(scales[: len(wl.NEGATIVE_SCALES)]) == sorted(wl.NEGATIVE_SCALES)


def test_same_seed_gives_identical_cli_queries(st):
    n = len(cliload.KINDS)
    assert [cliload.cli_query(st, 7, i) for i in range(n)] == [cliload.cli_query(st, 7, i) for i in range(n)]


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_different_seed_gives_different_inputs(st, name):
    a, b = specs(st, name, 7), specs(st, name, 8)
    assert sum(x != y for x, y in zip(a, b)) > len(a) // 2


def test_different_seed_gives_different_cli_queries(st):
    n = len(cliload.KINDS)
    a = [cliload.cli_query(st, 7, i) for i in range(n)]
    b = [cliload.cli_query(st, 8, i) for i in range(n)]
    assert sum(x != y for x, y in zip(a, b)) > n // 2


def test_cli_queries_expect_the_in_process_exit_code(st):
    cli = __import__("steinitz.cli", fromlist=["run_command"])
    for i in range(len(cliload.KINDS)):
        argv, want = cliload.cli_query(st, 3, i)
        assert cli.run_command(argv)[0] == want, argv


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_traced_and_untraced_runs_give_identical_verdicts(st, name):
    make = run.library_queries(st, name)
    plain = run.run_pass(make, 5, 0, count=PREFIX[name], keep=True)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.run_pass(make, 5, 0, count=PREFIX[name], tracer=tr, keep=True)
    finally:
        tr.restore()
    assert plain.failures == [] and traced.failures == []
    assert plain.verdicts == traced.verdicts
    metrics = tr.metrics(traced.wall)
    inside = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert inside + metrics["trace.bench_self_s"] == pytest.approx(traced.wall)
    assert metrics["supernat.calls"] > 0 and metrics["primes.calls"] > 0


def test_tracing_restores_every_attribute(st):
    import steinitz.cli  # noqa: F401  (the cli layer is patched only when loaded)

    before = tracer.snapshot()
    original = sys.modules["steinitz.supernat"].factorize
    tr = tracer.Tracer()
    tr.install()
    try:
        assert sys.modules["steinitz.supernat"].factorize is not original
        assert st.member is not before[("steinitz", "member")]
        run.run_pass(run.library_queries(st, "decide-small"), 1, 0, count=15, tracer=tr)
    finally:
        tr.restore()
    after = tracer.snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nested_calls_become_nested_spans(st):
    point, sieve = st.Supernatural.from_exponents({2: st.INF}), st.Sieve.of(6)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.active = True
        st.member(point, sieve)
        tr.active = False
    finally:
        tr.restore()
    ids, _, names, _, _, parents = tr.spans
    by_id = {sid: (tr.names[n], p) for sid, n, p in zip(ids, names, parents)}
    top = [sid for sid, (_, p) in by_id.items() if p == -1]
    assert [by_id[sid][0] for sid in top] == ["member"]
    assert any(by_id[p][0] == "member" for _, p in by_id.values() if p != -1)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c in ("python", "python3") else c for c in cmd]
        + ["--workload", "decide-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
