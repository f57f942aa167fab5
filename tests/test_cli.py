"""Command-line interface: exit codes, JSON payloads, CSV tables."""

import io
import json
import sys
from fractions import Fraction

import pytest

from faithfrac import decomposition, is_prime, to_json
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


def test_verify_text_format(capsys, monkeypatch):
    code, out, _ = run(["verify", "--format", "text"], capsys, FOUR_NINTHS, monkeypatch)
    assert code == 0
    assert out.strip() == "faithful (congruence, 6 combinations)"


def test_verify_rejects_malformed_json(capsys, monkeypatch):
    code, _, err = run(["verify"], capsys, "not json", monkeypatch)
    assert code == 2
    assert "error:" in err


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


def test_verify_split_with_one_bucket_exits_three_at_once(capsys, monkeypatch):
    # (p-1)/p over the primes 3..29: past the cap, and a split table would
    # have a single bucket, so the verifier refuses before enumerating.
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
    code, out, _ = run(
        ["table", "--kind", "prop7", "--m", "3", "--n-min", "4", "--n-max", "50"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,x,y,z,r,case,verified,predicted"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == cells[-2]  # verified always equals predicted


def test_table_prop7_rejected_numerator_is_usage_error(capsys):
    code, _, err = run(["table", "--kind", "prop7", "--m", "2", "--n-max", "10"], capsys)
    assert code == 2
    assert "error:" in err


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
