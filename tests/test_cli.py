"""The command line: grammar, verbs, exit codes, and output bytes.

run_command returns (exit_code, stdout, stderr) without touching real
streams, which keeps every assertion byte-exact.  Exit codes: 0 for
true or success, 1 for a false predicate or refutation, 2 for parse
and usage errors, 3 for unsupported or invalid requests, 4 for
inconclusive searches.
"""

import json
import time
import tracemalloc

import pytest

from steinitz.cli import _BINARY, main, run_command

from conftest import rand_sieve, rand_supernatural


def run(*argv):
    return run_command(list(argv))


# ----------------------------------------------------------------- basics


def test_eval_echoes_canonical_form():
    assert run("eval", "2^inf * 3^5") == (0, "2^inf * 3^5", "")
    assert run("eval", "sinf") == (0, "sinf", "")
    assert run("eval", "one") == (0, "one", "")
    assert run("eval", "one ; default 2") == (0, "one ; default 2", "")
    # equal values print one literal, at the minimal modulus
    assert run("eval", "2^1 * 3^1 ; default {1:1, 5:1, 7:1, 11:1} mod 12") == (
        0,
        "one ; default 1",
        "",
    )


def test_eval_roundtrip_randomized(rng):
    for _ in range(200):
        text = str(rand_supernatural(rng))
        assert run("eval", text) == (0, text, "")


def test_sieve_roundtrip_randomized(rng):
    for _ in range(100):
        text = str(rand_sieve(rng))
        code, out, err = run("union", text, "sieve()")
        assert (code, out, err) == (0, text, "")


def test_arithmetic_verbs():
    assert run("divides", "2^1 * 3^1", "2^4 * 3^2 * 5^1") == (0, "true", "")
    assert run("lcm", "2^inf * 3^5", "2^3 * 7^1") == (0, "2^inf * 3^5 * 7^1", "")
    assert run("mul", "2^1 * 3^1", "2^1 * 5^1") == (0, "2^2 * 3^1 * 5^1", "")
    assert run(
        "mul", "3^1 ; default {1:1, 2:1} mod 3", "2^1 ; default {1:1, 3:1} mod 4"
    ) == (0, "one ; default 2", "")
    assert run("equiv", "2^4 * 3^2 * 5^1", "one") == (0, "true", "")
    assert run("wdiv", "one ; default 1", "one ; default 2") == (0, "true", "")
    assert run("infsupp", "2^inf * 3^4") == (0, "{2}", "")


def test_sieve_verbs():
    assert run("product", "sieve(6)", "sieve(10)") == (0, "sieve(30)", "")
    assert run("union", "sieve(4)", "sieve(6)") == (0, "sieve(4,6)", "")
    assert run("transport", "sieve(12)", "4") == (0, "sieve(3)", "")
    assert run("contains", "sieve(3,5)", "9") == (0, "true", "")


def test_member_verbs():
    assert run("member", "sinf", "sieve(6)") == (0, "true", "")
    assert run("member", "one", "sieve(6)") == (1, "false", "")
    code, out, _ = run("member", "2^inf * 3^inf * 5^2", "sieve(6)", "sieve(10)")
    assert (code, out) == (1, "false")


def test_separate_text_block():
    code, out, err = run("separate", "2^inf", "3^inf")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "left: sieve(2)",
        "right: sieve(3)",
        "x in left: true",
        "y in left: false",
        "y in right: true",
        "x in right: false",
    ]


def test_smonoid_verbs():
    assert run("smonoid", "contains", "3,5", "7") == (1, "false", "")
    assert run("smonoid", "contains", "4,6", "8") == (0, "true", "")
    code, out, _ = run("smonoid", "sieve", "3,5")
    assert code == 0
    assert out == (
        "sieve(3,5,8,14,49) + family(cofactor=1; primes=all - {2,3,5,7}; exp=1)"
        "\nexact: true"
    )


def test_bz_verbs():
    assert run("bz", "topair", "2^-3 * 3^1 * 5^-1") == (
        0,
        "scale: 40\ndenominators: 3^1",
        "",
    )
    assert run("bz", "tofrac", "40", "3^1") == (0, "2^-3 * 3^1 * 5^-1", "")


def test_cone_verbs():
    assert run("cone", "contains", "1", "2^inf", "1/8") == (0, "true", "")
    assert run("cone", "contains", "1", "2^inf", "1/3") == (1, "false", "")
    assert run("cone", "list", "1", "2^inf", "--num", "3", "--den", "4") == (
        0,
        "1/4 1/2 3/4 1 3/2 2 3",
        "",
    )
    assert run("cone", "iso", "1", "2^inf", "5", "2^inf * 3^1") == (0, "true", "")


def test_oracle_verbs():
    assert run("oracle", "verify-member", "2^inf * 3^inf * 5^2", "sieve(10)") == (
        1,
        "refuted divisor=25",
        "",
    )
    code, out, _ = run("oracle", "verify-member", "2^inf * 3^inf * 5^2", "sieve(6)")
    assert (code, out) == (0, "consistent")
    assert run("oracle", "chain", "sieve(1)", "1,1/2,1/6") == (0, "chain: 2 | 6", "")
    assert run(
        "oracle", "add-closed", "sieve(2)", "--pair", "1", "2^inf", "--num", "4", "--den", "8"
    ) == (0, "true", "")
    code, out, _ = run("oracle", "rank-one", "1", "2^inf", "sieve(2)", "--num", "4", "--den", "64")
    assert code == 0
    assert out == "free: true\nrank_one: verified\npairs: 136"


def test_primes_verb():
    assert run("primes", "classes(1 mod 4)", "--upto", "60") == (
        0,
        "5 13 17 29 37 41 53",
        "",
    )
    assert run("primes", "all - {2,3}", "--upto", "30") == (
        0,
        "5 7 11 13 17 19 23 29",
        "",
    )


# ------------------------------------------------------------- exit codes


def test_exit_code_2_parse_errors():
    code, out, err = run("eval", "4^2")
    assert (code, out) == (2, "")
    assert err == "parse error: 4 is not prime (at position 0)"
    code, _, err = run("eval", "720")
    assert code == 2 and "not prime" in err
    code, _, err = run("eval", "2^2 * 2^3")
    assert code == 2
    assert err == "parse error: prime 2 listed twice (at position 6)"
    # a scale given as a separate argument is parsed like any literal
    assert run("bz", "tofrac", "abc", "3^1") == (
        2,
        "",
        "parse error: expected a scale (at position 0)",
    )
    code, _, err = run("cone", "iso", "1", "2^inf", "5x", "2^inf")
    assert code == 2 and err.startswith("parse error:")
    code, _, err = run("oracle", "add-closed", "sieve(2)", "--pair", "1.5", "2^inf")
    assert code == 2 and err.startswith("parse error:")


def test_residue_literals_cost_what_they_list():
    # a modulus of 4 million: no table of its units is built, and the
    # message names the first five missing residues
    cases = [
        (
            ["eval", "one ; default {1:1} mod 4000000"],
            "parse error: missing residues [3, 7, 9, 11, 13, ...] mod 4000000"
            " (at position 6)",
        ),
        (
            ["eval", "family(cofactor=1; primes=all; exp={1:1, 2:1 mod 4000000})", "--kind", "sieve"],
            "parse error: residues [2] are not units mod 4000000 (at position 0)",
        ),
        (
            ["primes", "classes(1, 3, 10 mod 4000000)"],
            "parse error: residue 10 is not a unit mod 4000000 (at position 0)",
        ),
    ]
    for argv, message in cases:
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            got = run(*argv)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (2, "", message)
        assert elapsed < 1 and peak < 5_000_000, (argv, elapsed, peak)
    # up to five missing residues are all named, as before
    assert run("eval", "2 ; default {1:1} mod 8")[2] == (
        "parse error: missing residues [3, 5, 7] mod 8 (at position 4)"
    )


def test_large_prime_literals_answer_at_once():
    # 2^61 - 1 is tested by Miller-Rabin, not trial division
    t0 = time.perf_counter()
    got = run("eval", "2305843009213693951^2")
    assert time.perf_counter() - t0 < 1
    assert got == (0, "2305843009213693951^2", "")
    # past the exact range of the test, the answer is exit 3
    code, _, err = run("eval", "3317044064679887385961981^2")
    assert code == 3 and err.startswith("unsupported: primality of")


def test_exit_code_2_usage_errors():
    code, out, err = run("member", "sinf")
    assert code == 2 and "required" in err
    code, _, err = run("nonsense", "1")
    assert code == 2


def test_exit_code_3_unsupported():
    code, _, err = run(
        "product",
        "family(cofactor=1;primes=all;exp=1)",
        "family(cofactor=1;primes=all;exp=2)",
    )
    assert code == 3 and err.startswith("unsupported:")
    code, _, err = run("separate", "2^inf", "2^inf * 3^inf")
    assert code == 3
    assert err == "unsupported: the points are related by weak divisibility"
    code, _, err = run("smonoid", "sieve", "4,6")
    assert code == 3 and "coprime" in err
    code, _, err = run("oracle", "verify-member", "sinf", "sieve(1)")
    assert code == 3 and err.startswith("invalid:")


def test_exit_code_4_inconclusive():
    code, out, _ = run(
        "oracle", "rank-one", "1", "3^inf", "sieve(2)",
        "--num", "2", "--den", "9", "--bound", "500",
    )
    assert code == 4
    assert out.splitlines() == [
        "free: true",
        "rank_one: unresolved",
        "pairs: 21",
        "unresolved: 1/9 1/3",
        "unresolved: 1/9 1",
        "unresolved: 2/9 1/3",
        "unresolved: 2/9 1",
        "unresolved: 1/3 1",
        "unresolved: 2/3 1",
    ]
    code, _, err = run("oracle", "chain", "sieve(4)", "1,1/6", "--bound", "20")
    assert code == 4
    assert err == "inconclusive: no chain extension absorbs seed 1/6"


def test_help_exits_zero():
    code, out, _ = run("--help")
    assert code == 0 and out.startswith("usage: steinitz")


# ------------------------------------------------------------------- json


def test_json_shapes():
    code, out, _ = run("lcm", "2^inf * 3^5", "2^3 * 7^1", "--json")
    assert code == 0
    assert out == '{"verb": "lcm", "result": "2^inf * 3^5 * 7^1", "witness": null}'
    code, out, _ = run("separate", "2^inf", "3^inf", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "verb": "separate",
        "result": {"left": "sieve(2)", "right": "sieve(3)"},
        "witness": {
            "x_in_left": True,
            "y_in_left": False,
            "y_in_right": True,
            "x_in_right": False,
        },
    }
    code, out, _ = run("member", "2^inf * 3^inf * 5^2", "sieve(6)", "sieve(10)", "--json")
    assert code == 1
    assert out == '{"verb": "member", "result": false, "witness": [true, false]}'
    code, out, _ = run("smonoid", "sieve", "3,5", "--json")
    assert json.loads(out)["witness"] == {"exact": True}
    code, out, _ = run("oracle", "chain", "sieve(1)", "1,1/2,1/6", "--json")
    assert out == '{"verb": "oracle", "result": [2, 6], "witness": null}'
    # the walk reports its length: (1/3, 1) walks all 30 candidates, and
    # each diagonal pair takes its first
    code, out, _ = run(
        "oracle", "rank-one", "1", "3^inf", "sieve(2)", "--num", "1", "--den", "3",
        "--bound", "30", "--json",
    )
    assert code == 4
    assert out == (
        '{"verb": "oracle", "result": "unresolved", "witness": '
        '{"unresolved": [["1/3", "1"]], "steps": 32, "limit": 30}}'
    )


# one case per verb of the _BINARY table: (verb, left, right, exit code,
# JSON result); the text form is the result, or true/false for a bool
BINARY_CASES = [
    ("divides", "2^1 * 3^1", "2^4 * 3^2 * 5^1", 0, True),
    ("lcm", "2^inf * 3^5", "2^3 * 7^1", 0, "2^inf * 3^5 * 7^1"),
    ("mul", "3^1 ; default {1:1, 2:1} mod 3", "2^1 ; default {1:1, 3:1} mod 4", 0, "one ; default 2"),
    ("equiv", "2^inf", "3^inf", 1, False),
    ("wdiv", "one ; default 1", "one ; default 2", 0, True),
    ("product", "sieve(6)", "sieve(10)", 0, "sieve(30)"),
    ("union", "sieve(4)", "sieve(6) + sieve(2)", 0, "sieve(2)"),
]


def test_binary_cases_cover_the_table():
    assert [case[0] for case in BINARY_CASES] == list(_BINARY)


@pytest.mark.parametrize(
    "verb, left, right, code, result", BINARY_CASES, ids=[case[0] for case in BINARY_CASES]
)
def test_json_shapes_of_binary_verbs(verb, left, right, code, result):
    text = result if isinstance(result, str) else ("true" if result else "false")
    assert run(verb, left, right) == (code, text, "")
    doc = json.dumps({"verb": verb, "result": result, "witness": None})
    assert run(verb, left, right, "--json") == (code, doc, "")


def test_json_keys_in_order(rng):
    for _ in range(20):
        text = str(rand_supernatural(rng))
        code, out, _ = run("eval", text, "--json")
        assert code == 0
        assert list(json.loads(out)) == ["verb", "result", "witness"]


# ---------------------------------------------------------------- plumbing


def test_output_is_deterministic():
    argvs = [
        ["smonoid", "sieve", "3,5"],
        ["separate", "2^inf", "3^inf", "--json"],
        ["cone", "list", "1", "2^inf", "--num", "6", "--den", "8"],
    ]
    for argv in argvs:
        assert run_command(argv) == run_command(argv)


def test_main_writes_streams(capsys):
    assert main(["eval", "sinf"]) == 0
    cap = capsys.readouterr()
    assert cap.out == "sinf\n" and cap.err == ""
    assert main(["eval", "4^2"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "not prime" in cap.err
