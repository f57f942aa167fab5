"""Command-line interface: exit codes, JSON payloads, CSV tables."""

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faithfrac import CapExceeded, construct, decomposition, is_prime, to_json
from faithfrac.cli import main

FOUR_NINTHS = (
    '{"target":{"num":"4","den":"9"},'
    '"terms":[{"num":"1","den":"4"},{"num":"1","den":"6"},{"num":"1","den":"36"}]}'
)
FIVE_SIXTHS = (
    '{"target":{"num":"5","den":"6"},'
    '"terms":[{"num":"1","den":"2"},{"num":"1","den":"3"}]}'
)


def run(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_faithful_exits_zero(capsys, monkeypatch):
    code, out, _ = run(["verify"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 0
    assert json.loads(out) == {
        "faithful": True,
        "method": "congruence",
        "combos_examined": "6",
        "violation": None,
    }


def test_verify_reports_violation_and_exits_one(capsys, monkeypatch):
    code, out, _ = run(["verify"], capsys, FIVE_SIXTHS, monkeypatch)
    assert code == 1
    payload = json.loads(out)
    assert payload["faithful"] is False
    assert payload["violation"] == {
        "coefficients": ["1", "0"],
        "value": {"num": "1", "den": "2"},
    }


# Runs cli.main(["verify"]) in a new interpreter that imports faithfrac from
# the given src/, then prints what it loaded.
COLD_VERIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from faithfrac.cli import main
code = main(["verify"])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "faithfrac")
print(json.dumps([code, loaded, [m for m in ("dataclasses", "inspect", "random") if m in sys.modules]]))
"""


def test_cold_verify_imports_only_the_cli_the_model_and_the_verifier():
    # -E -S: neither an environment variable nor a site-packages start-up
    # hook (which may load any of the three itself) runs before the wrapper.
    # The records need neither dataclasses nor, through it, inspect.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", COLD_VERIFY, str(src)],
                          input=FOUR_NINTHS, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, loaded = proc.stdout.splitlines()
    assert json.loads(verdict)["faithful"] is True
    assert json.loads(loaded) == [
        0, ["faithfrac", "faithfrac.cli", "faithfrac.model", "faithfrac.verifier"], [],
    ]


def test_verify_reads_input_file(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(FOUR_NINTHS)
    code, out, _ = run(["verify", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["faithful"] is True


def test_verify_naive_oracle_flag(capsys, monkeypatch):
    code, out, _ = run(["verify", "--naive"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "naive"
    assert payload["combos_examined"] == "8"


def test_verify_naive_on_the_empty_decomposition(capsys, monkeypatch):
    # The vacuous sum for target 0: one (empty) vector examined, faithful.
    stdin = '{"target":{"num":"0","den":"1"},"terms":[]}'
    assert run(["verify", "--naive"], capsys, stdin, monkeypatch) == (
        0,
        '{"faithful":true,"method":"naive","combos_examined":"1","violation":null}\n',
        "",
    )


def test_verify_text_format(capsys, monkeypatch):
    code, out, _ = run(["verify", "--format", "text"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 0
    assert out.strip() == "faithful (congruence, 6 combinations)"


def test_verify_rejects_malformed_json(capsys, monkeypatch):
    code, _, err = run(["verify"], capsys, "not json", monkeypatch)
    assert code == 2
    assert "error:" in err


def test_verify_deeply_nested_json_is_usage_error(capsys, monkeypatch):
    code, out, err = run(["verify"], capsys, "[" * 100_000 + "]" * 100_000, monkeypatch)
    assert code == 2
    assert out == ""
    assert err == "error: bad decomposition JSON: JSON nested too deeply\n"


def test_verify_rejects_duplicate_denominators(capsys, monkeypatch):
    bad = (
        '{"target":{"num":"4","den":"9"},'
        '"terms":[{"num":"1","den":"4"},{"num":"1","den":"4"}]}'
    )
    code, _, err = run(["verify"], capsys, bad, monkeypatch)
    assert code == 2
    assert "duplicate denominator" in err


def test_verify_tiny_cap_exits_three(capsys, monkeypatch):
    code, _, err = run(["verify", "--cap", "2"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 3
    assert "cap" in err


def test_verify_lattice_past_float_range_exits_three(capsys, monkeypatch):
    # (p-1)/p over the first 200 odd primes: a lattice past 1e308 points.
    primes = [p for p in range(3, 4000) if is_prime(p)][:200]
    pairs = [(p - 1, p) for p in primes]
    stdin = to_json(decomposition(sum(Fraction(a, b) for a, b in pairs), pairs))
    code, _, err = run(["verify"], capsys, stdin, monkeypatch)
    assert code == 3
    assert "cap" in err


def test_verify_walk_past_the_cap_exits_three_at_once(capsys, monkeypatch):
    # (p-1)/p over the primes 3..29: the walk is past the cap, so the
    # verifier refuses before enumerating.
    pairs = [(p - 1, p) for p in range(3, 30) if is_prime(p)]
    stdin = to_json(decomposition(sum(Fraction(a, b) for a, b in pairs), pairs))
    code, out, err = run(["verify"], capsys, stdin, monkeypatch)
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_verify_zero_cap_is_usage_error(capsys, monkeypatch):
    code, _, err = run(["verify", "--cap", "0"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 2


def test_decompose_two_term(capsys):
    code, out, _ = run(["decompose", "2", "3", "--strategy", "two-term"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"]["terms"] == [
        {"num": "1", "den": "2"},
        {"num": "1", "den": "6"},
    ]
    assert payload["certificate"]["faithful"] is True


def test_decompose_two_term_text(capsys):
    code, out, _ = run(
        ["decompose", "2", "3", "--strategy", "two-term", "--format", "text"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "2/3 = 1/2 + 1/6"


def test_decompose_theorem4(capsys):
    code, out, _ = run(["decompose", "4", "13", "--strategy", "theorem4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"]["terms"] == [
        {"num": "1", "den": "4"},
        {"num": "1", "den": "28"},
        {"num": "2", "den": "91"},
    ]


def test_decompose_theorem1_with_trace(capsys):
    code, out, _ = run(
        ["decompose", "7", "3", "--strategy", "theorem1", "--trace"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["primes_used"] == ["5", "7"]
    assert payload["trace"]["bezout"] == {"x": "48", "y": "71"}
    assert payload["certificate"] == {"method": "coprime_shape", "faithful": True}


def test_decompose_theorem2_with_omega_and_seed(capsys):
    code, out, _ = run(
        ["decompose", "9", "5", "--strategy", "theorem2", "--omega", "2", "--seed", "0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    dens = [int(t["den"]) for t in payload["decomposition"]["terms"]]
    assert all(b % 2 for b in dens[:-1])


@pytest.mark.parametrize("m, n", [("9", "2"), ("13", "4")])
def test_decompose_theorem2_head_past_budget_exits_three(capsys, m, n):
    # Their unit heads need thousands of prime terms or more; without a
    # term budget these calls never returned.
    code, out, err = run(["decompose", m, n, "--strategy", "theorem2"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "prime terms" in err


def test_term_budget_error_is_a_cap_refusal_and_a_value_error(capsys):
    assert issubclass(construct.TermBudgetExceeded, CapExceeded)
    assert issubclass(construct.TermBudgetExceeded, ValueError)
    code, out, err = run(["decompose", "13", "4", "--strategy", "theorem2"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: head would need more than 500 prime terms\n"


def test_decompose_theorem1_head_past_budget_exits_three(capsys):
    code, out, err = run(["decompose", "100001", "1", "--strategy", "theorem1"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "prime terms" in err


@pytest.mark.parametrize("argv", [
    ["decompose", "1000000", "1", "--strategy", "partition", "--parts", "1000000"],
    ["partition-check", "1000000", "1", "--parts", "1000000"],
])
def test_partition_max_head_past_budget_exits_three(capsys, argv):
    # A max-policy block of 10**6 needs about 10**6 prime terms; with no
    # budget on that policy these calls did not return.
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err == "error: head would need more than 500 prime terms\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["7", "3", "--strategy", "theorem1", "--omega", "5"],
        ["4", "7", "--strategy", "two-term", "--omega", "5"],
        ["4", "13", "--strategy", "theorem4", "--seed", "0"],
        ["4", "9", "--strategy", "prop7", "--parts", "2,2"],
        ["9", "5", "--strategy", "theorem2", "--parts", "4,5"],
        ["5", "7", "--strategy", "partition", "--parts", "2,3", "--omega", "2"],
        ["5", "7", "--strategy", "partition", "--parts", "2,3", "--trace"],
    ],
)
def test_decompose_flag_the_strategy_ignores_is_usage_error(capsys, argv):
    code, out, err = run(["decompose", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "does not apply" in err


@pytest.mark.parametrize("omega", ["", ","])
def test_decompose_empty_omega_is_usage_error(capsys, omega):
    code, out, err = run(["decompose", "9", "5", "--strategy", "theorem2", "--omega", omega], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --omega must not be empty\n"


def test_verify_integer_past_digit_limit_is_usage_error(capsys, monkeypatch):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = '{"target":{"num":"1","den":"' + "9" * 5001 + '"},"terms":[]}'
        code, out, err = run(["verify"], capsys, text, monkeypatch)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert out == ""
    assert "integer longer than 4300 digits" in err


def test_decompose_prop7_unfaithful_instance(capsys):
    code, out, _ = run(["decompose", "4", "9", "--strategy", "prop7"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["predicted_faithful"] is False
    assert payload["certificate"]["faithful"] is False


def test_decompose_prop7_large_numerator_is_quick(capsys):
    # The Prop 6 verdict is O(1) in m; testing n against each m'*y2 with
    # 0 < m' < m in turn made this call take about 10 s.
    t0 = time.perf_counter()
    code, out, _ = run(["decompose", "100000000", "499999999", "--strategy", "prop7"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == (
        '{"decomposition":{"target":{"num":"100000000","den":"499999999"},"terms":['
        '{"num":"1","den":"6"},{"num":"1","den":"30"},{"num":"1","den":"2499999995"}]},'
        '"predicted_faithful":true,"certificate":{"faithful":true,"method":"congruence",'
        '"combos_examined":"6","violation":null}}\n'
    )
    assert elapsed < 1.0


def test_decompose_partition_strategy(capsys):
    code, out, _ = run(
        ["decompose", "5", "7", "--strategy", "partition", "--parts", "2,3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parts"] == ["2", "3"]
    assert payload["sets_equal"] is True
    assert payload["blocks"][0] == [
        {"num": "1", "den": "4"},
        {"num": "1", "den": "28"},
    ]


def test_decompose_unit_fraction_is_usage_error(capsys):
    code, _, err = run(["decompose", "1", "7", "--strategy", "two-term"], capsys)
    assert code == 2
    assert "unit fraction" in err


def test_decompose_theorem4_needs_m_four(capsys):
    code, _, err = run(["decompose", "5", "9", "--strategy", "theorem4"], capsys)
    assert code == 2


def test_decompose_unknown_strategy_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "2", "3", "--strategy", "bogus"])
    assert exc.value.code == 2


def test_search_has_no_shuffle_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "2", "3", "--max-length", "3", "--max-den", "12", "--shuffle", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shuffle 1" in capsys.readouterr().err


def test_partition_check_command(capsys):
    code, out, _ = run(["partition-check", "5", "7", "--parts", "2,3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == "5"
    assert payload["parts"] == ["2", "3"]
    assert payload["sets_equal"] is True
    assert payload["s_covers_t"] is True
    assert payload["s"] == payload["t"]


def test_table_four_over_n_csv(capsys):
    code, out, _ = run(["table", "--kind", "four-over-n", "--n-max", "13"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,y,z,r,case,verified"
    assert lines[1] == "5,2,6,15,2,case1,true"
    assert lines[2] == "7,3,6,14,1,case2,true"
    assert lines[3] == "9,4,6,36,1,example9,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_table_four_over_n_full_sweep_rows(capsys):
    code, out, _ = run(["table", "--kind", "four-over-n", "--n-max", "99"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 48  # odd n in [5, 99]


def test_table_prop7_prediction_column(capsys):
    code, out, _ = run(["table", "--kind", "prop7", "--m", "3", "--n-max", "50"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,y,z,r,case,verified,predicted"
    # With no --n-min the sweep starts at n = m + 1, as hunt's does: the
    # (3, 4) row is one of prop7's unfaithful outputs.
    assert lines[1] == "4,2,6,12,1,case1,false,false"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == cells[-2]  # verified always equals predicted


def test_table_prop7_rejected_numerator_is_usage_error(capsys):
    for m in ("2", "0", "1"):
        for n_range in (["--n-max", "10"], ["--n-min", "10", "--n-max", "5"]):
            code, _, err = run(["table", "--kind", "prop7", "--m", m, *n_range], capsys)
            assert code == 2, (m, n_range)
            assert "error:" in err


def test_table_four_over_n_rejects_m(capsys):
    code, out, err = run(["table", "--kind", "four-over-n", "--m", "3", "--n-max", "7"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --m does not apply to --kind four-over-n\n"


def test_table_empty_range_prints_header_only(capsys):
    code, out, _ = run(
        ["table", "--kind", "four-over-n", "--n-min", "10", "--n-max", "9"], capsys
    )
    assert code == 0
    assert out.strip() == "n,x,y,z,r,case,verified"


def test_table_json_format(capsys):
    code, out, _ = run(
        ["table", "--kind", "four-over-n", "--n-max", "7", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["n", "x", "y", "z", "r", "case", "verified"]
    assert [r["n"] for r in payload["rows"]] == ["5", "7"]


def test_search_exhausted_short_lengths(capsys):
    code, out, _ = run(
        ["search", "7", "3", "--max-length", "3", "--max-den", "30"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cap_hit"] is False
    assert all(o["found"] is None and o["exhausted"] for o in payload["outcomes"])


def test_search_finds_witness(capsys):
    code, out, _ = run(
        ["search", "2", "3", "--max-length", "2", "--max-den", "10"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"][1]["found"]["terms"] == [
        {"num": "1", "den": "2"},
        {"num": "1", "den": "6"},
    ]


def test_search_cap_exit_code(capsys):
    code, out, _ = run(
        ["search", "7", "3", "--max-length", "4", "--max-den", "200", "--cap", "1000"],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["cap_hit"] is True


def test_hunt_small_grid_is_clean(capsys):
    code, out, _ = run(["hunt", "--m", "3..4", "--n-max", "40"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancies"] == []
    assert int(payload["instances"]) == 43


def test_hunt_reversed_range_is_empty_not_an_error(capsys):
    code, out, _ = run(["hunt", "--m", "5..3", "--n-max", "40"], capsys)
    assert code == 0
    assert json.loads(out)["instances"] == "0"


def test_hunt_malformed_range_is_usage_error(capsys):
    code, _, err = run(["hunt", "--m", "abc", "--n-max", "40"], capsys)
    assert code == 2
    assert "range" in err


def test_hunt_negative_range_after_a_space_reads_as_with_equals(capsys):
    spaced = run(["hunt", "--m", "-4..4", "--n-max", "10"], capsys)
    joined = run(["hunt", "--m=-4..4", "--n-max", "10"], capsys)
    assert spaced == joined
    assert spaced[:2] == (0, '{"instances":"8","discrepancies":[]}\n')


# A wide sweep and the output of the sweep trimmed to the values that emit,
# as the CLI printed it when it tested every value of the range in turn.
WIDE_SWEEPS = [
    (["hunt", "--m", "3..100000000", "--n-max", "5"], '{"instances":"3","discrepancies":[]}\n'),
    (
        ["table", "--kind", "prop7", "--m", "3", "--n-min", "-100000000", "--n-max", "10"],
        "n,x,y,z,r,case,verified,predicted\n4,2,6,12,1,case1,false,false\n"
        "5,3,6,10,2,case2,true,true\n7,3,15,35,1,case1,true,true\n"
        "8,4,12,24,2,case2,false,false\n10,4,28,70,1,case1,true,true\n",
    ),
    (
        ["table", "--kind", "four-over-n", "--n-min", "-100000000", "--n-max", "9"],
        "n,x,y,z,r,case,verified\n5,2,6,15,2,case1,true\n7,3,6,14,1,case2,true\n"
        "9,4,6,36,1,example9,true\n",
    ),
]


@pytest.mark.parametrize("argv, expected", WIDE_SWEEPS, ids=["hunt", "prop7", "four-over-n"])
def test_sweeps_skip_values_that_cannot_emit(argv, expected, capsys):
    t0 = time.perf_counter()
    code, out, _ = run(argv, capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert out == expected
    assert elapsed < 1.0


def test_hunt_and_the_prop7_tables_read_one_sweep(capsys, monkeypatch):
    # With the condition negated every instance disagrees, so hunt lists its
    # whole grid, which must be the rows of the prop7 tables, m by m.
    real = construct.prop6_condition
    monkeypatch.setattr(construct, "prop6_condition", lambda *args: not real(*args))
    _, out, _ = run(["hunt", "--m", "3..5", "--n-max", "60", "--format", "json"], capsys)
    hunted = [(i["m"], i["n"], i["condition"], i["verified"]) for i in json.loads(out)["discrepancies"]]
    tabled = []
    for m in ("3", "4", "5"):
        argv = ["table", "--kind", "prop7", "--m", m, "--n-max", "60", "--format", "json"]
        _, out, _ = run(argv, capsys)
        tabled += [(m, r["n"], r["predicted"], r["verified"]) for r in json.loads(out)["rows"]]
    assert hunted == tabled
    assert len(hunted) > 100


def test_four_over_n_is_the_m_4_row_of_the_prop7_table(capsys):
    # theorem4 builds prop7(4, n) except at its two special cases, 9 and 15.
    def rows(argv):
        _, out, _ = run(["table", *argv, "--n-max", "301", "--format", "json"], capsys)
        return json.loads(out)["rows"]

    four, prop7 = rows(["--kind", "four-over-n"]), rows(["--kind", "prop7", "--m", "4"])
    assert [r["n"] for r in four] == [r["n"] for r in prop7] == [str(n) for n in range(5, 302, 2)]
    shared = ("n", "x", "y", "z", "case", "verified")
    differ = [a["n"] for a, b in zip(four, prop7) if [a[k] for k in shared] != [b[k] for k in shared]]
    assert differ == ["9", "15"]


TOO_LONG = (
    "error: integer longer than 4300 digits, the interpreter's limit for decimal "
    "strings (see sys.set_int_max_str_digits)\n"
)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_table_integer_past_digit_limit_is_the_one_error(fmt, capsys):
    # 3/N has a prop7 row whose denominators are past 4300 digits.
    big = str(10**2500 + 1)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = ["table", "--kind", "prop7", "--m", "3", "--n-min", big, "--n-max", big]
        code, out, err = run([*argv, "--format", fmt], capsys)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert out == ""
    assert err == TOO_LONG


BOUND = 10**12


@st.composite
def sweep_argvs(draw):
    """A table or hunt call with bounds up to about 10**12 in size, of which
    at most about 50 values can emit."""
    command = draw(st.sampled_from(["prop7", "four-over-n", "hunt"]))
    bound = st.integers(min_value=-BOUND, max_value=BOUND)
    if command == "hunt":
        n_max = draw(bound)
        # Pairs 3 <= m < n <= n_max emit; keep m within 9 of n_max.
        m_lo = draw(bound if n_max <= 12 else st.integers(min_value=n_max - 9, max_value=BOUND))
        m_hi = draw(bound)
        return ["hunt", f"--m={m_lo}..{m_hi}", f"--n-max={n_max}"]
    if command == "prop7":
        m = draw(bound)
        argv = ["table", "--kind", "prop7", f"--m={m}"]
        first = m + 1
    else:
        argv = ["table", "--kind", "four-over-n"]
        first = 5
    n_min = draw(bound)
    lo = max(n_min, first)
    near = st.integers(min_value=-3, max_value=49).map(lambda k: lo + k)
    n_max = draw(near | st.integers(min_value=-BOUND, max_value=lo + 49))
    fmt = draw(st.sampled_from(["csv", "json", "text"]))
    return [*argv, f"--n-min={n_min}", f"--n-max={n_max}", f"--format={fmt}"]


@given(sweep_argvs())
@settings(deadline=None, max_examples=200)
def test_sweeps_with_any_bounds_end_with_an_exit_code(argv):
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert time.perf_counter() - t0 < 2.0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["target", "terms", "num", "den", ""]), inner, max_size=4),
    max_leaves=20,
)
LONG_DIGITS = "9" * 4301
BARE_LONG = "BARE-LONG-INTEGER"  # stands for the digits written as a JSON number
BAD_FIELDS = {
    "zero": st.just("0"),
    "negative": st.integers(max_value=-1).map(str),
    "bool": st.booleans(),
    "float": st.floats(),
    "long": st.just(LONG_DIGITS),
    "bare-long": st.just(BARE_LONG),
}


@st.composite
def mutated_decompositions(draw):
    """The JSON of a valid decomposition with one or two fields broken."""
    dens = draw(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=5, unique=True))
    pairs = [(draw(st.integers(min_value=1, max_value=b - 1)), b) for b in dens]
    obj = json.loads(to_json(decomposition(sum(Fraction(a, b) for a, b in pairs), pairs)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        kind = draw(st.sampled_from(["missing key", "duplicate denominator", *BAD_FIELDS]))
        if kind == "missing key" and draw(st.booleans()):
            del obj[draw(st.sampled_from(sorted(obj)))]
            break
        where = draw(st.sampled_from([obj["target"], *obj["terms"]]))
        key = draw(st.sampled_from(["num", "den"]))
        if kind == "missing key":
            where.pop(key, None)
        elif kind == "duplicate denominator":
            where["den"] = obj["terms"][0].get("den")
        else:
            where[key] = draw(BAD_FIELDS[kind])
    return json.dumps(obj).replace(f'"{BARE_LONG}"', LONG_DIGITS)


@given(st.one_of(JSON_VALUES.map(json.dumps), mutated_decompositions()))
@example("[" * 100_000 + "]" * 100_000)
@settings(deadline=None, max_examples=300)
def test_verify_any_json_ends_with_an_exit_code(text):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    sys_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["verify", "--cap", "10000"])
    finally:
        sys.stdin = sys_stdin
        sys.set_int_max_str_digits(old)
    assert code in (0, 1, 2, 3)


DUPLICATE_DENS = (
    '{"target":{"num":"4","den":"9"},'
    '"terms":[{"num":"1","den":"4"},{"num":"1","den":"4"}]}'
)
DEC = ["decompose"]
STRATEGIES = [
    ["2", "3", "--strategy", "two-term"],
    ["7", "3", "--strategy", "theorem1"],
    ["9", "5", "--strategy", "theorem2", "--omega", "2", "--seed", "0"],
    ["4", "9", "--strategy", "prop7"],
    ["4", "13", "--strategy", "theorem4"],
]
TEXT, JSON = ["--format", "text"], ["--format", "json"]
PINNED_DIGEST = "a42d017368942662bd442590f1b0a7d368e3fb641f8286a2f4a029bc6f41db18"
# (argv, stdin) for every subcommand and --format value, the usage exits
# (2) and the budget exits (3).  `--input` paths are relative to a fresh
# directory that holds d.json.
PINNED_CALLS = [
    *[(["verify", *fmt], d) for d in (FOUR_NINTHS, FIVE_SIXTHS) for fmt in ([], TEXT, JSON)],
    *[(["verify", "--naive", *fmt], d) for d in (FOUR_NINTHS, FIVE_SIXTHS) for fmt in ([], TEXT)],
    (["verify", "--input", "d.json", "--format", "text"], None),
    (["verify", "--input", "missing.json"], None),
    (["verify", "--cap", "2"], FOUR_NINTHS),
    (["verify", "--cap", "2", "--naive", "--format", "text"], FOUR_NINTHS),
    (["verify", "--cap", "0"], FOUR_NINTHS),
    (["verify"], "not json"),
    (["verify", "--format", "text"], "{"),
    (["verify"], DUPLICATE_DENS),
    (["verify"], '{"target":{"num":"1","den":"2"},"terms":[]}'),
    *[(DEC + s + fmt, None) for s in STRATEGIES for fmt in ([], TEXT, ["--trace"], ["--trace", *TEXT])],
    *[(DEC + ["5", "7", "--strategy", "partition", "--parts", p, *fmt], None)
      for p in ("2,3", "1,4") for fmt in ([], TEXT)],
    (DEC + ["4", "9", "--strategy", "partition", "--parts", "2,1,1"], None),
    (DEC + ["9", "5", "--strategy", "theorem2"], None),
    (DEC + ["4", "9", "--strategy", "theorem4", *TEXT], None),
    (DEC + ["4", "5", "--strategy", "theorem4"], None),
    (DEC + ["3", "8", "--strategy", "prop7", *TEXT], None),
    (DEC + ["7", "3", "--strategy", "theorem1", "--omega", "5"], None),
    (DEC + ["4", "9", "--strategy", "prop7", "--parts", "2,2"], None),
    (DEC + ["4", "13", "--strategy", "theorem4", "--seed", "0"], None),
    (DEC + ["5", "7", "--strategy", "partition", "--parts", "2,3", "--omega", "2"], None),
    (DEC + ["9", "5", "--strategy", "theorem2", "--omega", ""], None),
    (DEC + ["9", "5", "--strategy", "theorem2", "--omega", "a"], None),
    (DEC + ["5", "9", "--strategy", "theorem4"], None),
    (DEC + ["5", "7", "--strategy", "partition"], None),
    (DEC + ["5", "7", "--strategy", "partition", "--parts", "2,2"], None),
    (DEC + ["1", "7", "--strategy", "two-term"], None),
    (DEC + ["2", "3", "--strategy", "two-term", "--cap", "0"], None),
    (DEC + ["100001", "1", "--strategy", "theorem1"], None),
    (DEC + ["9", "2", "--strategy", "theorem2", *TEXT], None),
    (DEC + ["4", "9", "--strategy", "prop7", "--cap", "2"], None),
    *[(["table", "--kind", "four-over-n", "--n-max", "21", *fmt], None)
      for fmt in ([], ["--format", "csv"], JSON, TEXT)],
    *[(["table", "--kind", "prop7", "--m", m, "--n-min", "4", "--n-max", "20", *fmt], None)
      for m in ("3", "5") for fmt in ([], JSON, TEXT)],
    (["table", "--kind", "four-over-n", "--n-min", "10", "--n-max", "9", *JSON], None),
    (["table", "--kind", "four-over-n", "--m", "3", "--n-max", "7"], None),
    (["table", "--kind", "prop7", "--m", "2", "--n-max", "10"], None),
    (["table", "--kind", "prop7", "--n-max", "10"], None),
    (["table", "--kind", "prop7", "--m", "3", "--n-max", "10", "--cap", "0"], None),
    (["table", "--kind", "prop7", "--m", "3", "--n-max", "10", "--cap", "2"], None),
    *[(["partition-check", "5", "7", "--parts", p, *fmt], None)
      for p in ("2,3", "1,4") for fmt in ([], TEXT)],
    (["partition-check", "6", "11", "--parts", "1,2,3", *TEXT], None),
    (["partition-check", "4", "9", "--parts", "2,1,1"], None),
    (["partition-check", "7", "3", "--parts", "4,3", *TEXT], None),
    (["partition-check", "2", "4", "--parts", "1,1"], None),
    (["partition-check", "5", "7", "--parts", "2,3", "--cap", "5"], None),
    (["partition-check", "5", "7", "--parts", "2,x"], None),
    (["partition-check", "5", "7", "--parts", "2,4"], None),
    *[(["search", *target, *fmt], None)
      for target in (["7", "3", "--max-length", "3", "--max-den", "30"],
                     ["2", "3", "--max-length", "2", "--max-den", "10"],
                     ["7", "3", "--max-length", "4", "--max-den", "20", "--cap", "3000"])
      for fmt in ([], TEXT)],
    (["search", "2", "3", "--max-length", "0", "--max-den", "10"], None),
    (["search", "2", "3", "--max-length", "2", "--max-den", "0"], None),
    (["search", "2", "3", "--max-length", "2", "--max-den", "1"], None),
    (["search", "2", "4", "--max-length", "2", "--max-den", "10"], None),
    *[(["hunt", "--m", m, "--n-max", "40", *fmt], None) for m in ("3..4", "5", "5..3") for fmt in ([], TEXT)],
    (["hunt", "--m", "abc", "--n-max", "40"], None),
    (["hunt", "--m", "3..x", "--n-max", "40", *TEXT], None),
]


def _pinned_digest():
    h = hashlib.sha256()
    sys_stdin = sys.stdin
    try:
        for argv, stdin in PINNED_CALLS:
            sys.stdin = io.StringIO(stdin or "")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    finally:
        sys.stdin = sys_stdin
    return h.hexdigest()


def test_cli_outputs_are_pinned(tmp_path, monkeypatch):
    # Every stdout byte, stderr message and exit code of the grid, as the
    # CLI printed them before its commands returned payloads to `main`.
    (tmp_path / "d.json").write_text(FOUR_NINTHS)
    monkeypatch.chdir(tmp_path)
    assert len(PINNED_CALLS) >= 100
    assert _pinned_digest() == PINNED_DIGEST
