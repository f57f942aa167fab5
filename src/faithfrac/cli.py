"""Command line front end: construct, verify, tabulate, and check.

Exit codes: 0 success (faithful / search completed), 1 unfaithful or a
discrepancy found, 2 usage or input error, 3 enumeration budget exhausted.
JSON output is byte-stable: fixed key order, integers as decimal strings so
arbitrary precision survives every consumer.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd
from typing import Any, Sequence

from .construct import (
    ConstructionTrace,
    TermBudgetExceeded,
    all_units_but_one,
    prop7,
    theorem1,
    theorem4,
    two_term,
)
from .model import Decomposition, coprime_shape, from_json, to_json_dict
from .partition import PartitionCheck, PartitionSpec, check_partition_theorem
from .search import SearchBudget, SearchResult, min_length_search, prop6_discrepancy_scan
from .verifier import DEFAULT_CAP, CapExceeded, FaithfulnessReport, verify, verify_naive

EXIT_OK = 0
EXIT_UNFAITHFUL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(obj: Any) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _frac_dict(f: Fraction) -> dict[str, str]:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _report_dict(r: FaithfulnessReport) -> dict[str, Any]:
    violation = None
    if r.violation is not None:
        violation = {
            "coefficients": [str(c) for c in r.violation.coefficients],
            "value": _frac_dict(r.violation.value),
        }
    return {
        "faithful": r.faithful,
        "method": r.method,
        "combos_examined": str(r.combos_examined),
        "violation": violation,
    }


def _trace_dict(t: ConstructionTrace) -> dict[str, Any]:
    bezout = None
    if t.bezout is not None:
        bezout = {"x": str(t.bezout.x), "y": str(t.bezout.y)}
    return {
        "primes_used": [str(p) for p in t.primes_used],
        "bezout": bezout,
        "progression_steps": str(t.progression_steps),
        "branch": t.branch,
        "applied_scaling": None if t.applied_scaling is None else str(t.applied_scaling),
        "avoided": [str(w) for w in t.avoided],
    }


def _render_terms(d: Decomposition) -> str:
    return " + ".join(f"{t.num}/{t.den}" for t in d.terms)


def _render(d: Decomposition) -> str:
    return f"{d.target} = {_render_terms(d)}"


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part, 10) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} needs comma-separated integers")
    if not values:
        raise argparse.ArgumentTypeError(f"{flag} must not be empty")
    return values


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            value = int(lo, 10)
            return value, value
        return int(lo, 10), int(hi, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}"
        ) from None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return _fail(f"cannot read {args.input}: {exc}")
    else:
        text = sys.stdin.read()
    try:
        d = from_json(text)
    except ValueError as exc:
        return _fail(f"bad decomposition JSON: {exc}")
    checker = verify_naive if args.naive else verify
    report = checker(d, cap=args.cap)
    if args.format == "text":
        if report.faithful:
            print(f"faithful ({report.method}, {report.combos_examined} combinations)")
        else:
            v = report.violation
            coeffs = ",".join(str(c) for c in v.coefficients)
            print(f"unfaithful: coefficients ({coeffs}) give {v.value}")
    else:
        _emit(_report_dict(report))
    return EXIT_OK if report.faithful else EXIT_UNFAITHFUL


def _certify(d: Decomposition, cap: int) -> tuple[dict[str, Any], bool]:
    """Certificate for a constructed decomposition.

    The coprime shape is a proof on its own; anything else goes through the
    congruence verifier.
    """
    if coprime_shape(d):
        return {"method": "coprime_shape", "faithful": True}, True
    report = verify(d, cap=cap)
    cert = _report_dict(report)
    return cert, report.faithful


# The optional decompose flags each strategy reads; the others reject them.
_STRATEGY_FLAGS = {"theorem2": ("omega", "seed"), "partition": ("parts",)}


def cmd_decompose(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    for flag in ("omega", "seed", "parts"):
        if getattr(args, flag) is not None and flag not in _STRATEGY_FLAGS.get(args.strategy, ()):
            return _fail(f"--{flag} does not apply to --strategy {args.strategy}")
    if args.strategy == "two-term":
        built = two_term(m, n)
    elif args.strategy == "theorem1":
        built = theorem1(m, n)
    elif args.strategy == "theorem2":
        omega = _parse_int_list(args.omega, "--omega") if args.omega is not None else []
        built = all_units_but_one(m, n, omega=omega, seed=args.seed or 0)
    elif args.strategy == "prop7":
        built = prop7(m, n)
    elif args.strategy == "theorem4":
        if m != 4:
            return _fail("--strategy theorem4 needs m = 4")
        built = theorem4(n)
    elif args.strategy == "partition":
        return _decompose_partition(args)
    else:  # pragma: no cover - argparse restricts choices
        return _fail(f"unknown strategy {args.strategy}")
    d = built.decomposition
    predicted = built.trace.predicted_faithful
    certificate, faithful = _certify(d, args.cap)
    out: dict[str, Any] = {"decomposition": to_json_dict(d)}
    if predicted is not None:
        out["predicted_faithful"] = predicted
    out["certificate"] = certificate
    if args.trace:
        out["trace"] = _trace_dict(built.trace)
    if args.format == "text":
        print(_render(d))
        print(f"certificate: {certificate['method']}, faithful={faithful}")
        if predicted is not None:
            print(f"predicted_faithful: {predicted}")
        if args.trace:
            print(f"trace: {json.dumps(_trace_dict(built.trace), separators=(',', ':'))}")
    else:
        _emit(out)
    return EXIT_OK if faithful else EXIT_UNFAITHFUL


def _check_parts(args: argparse.Namespace) -> tuple[list[int], PartitionCheck, dict[str, Any]]:
    """Parse --parts, run the partition theorem check for m/n and serialise
    its S and T sets with the comparison, in payload key order."""
    parts = _parse_int_list(args.parts, "--parts")
    check = check_partition_theorem(PartitionSpec(args.m, tuple(parts)), args.n, cap=args.cap)
    sets = {
        "s": [_frac_dict(v) for v in sorted(check.s)],
        "t": [_frac_dict(v) for v in sorted(check.t)],
        "sets_equal": check.equal,
    }
    return parts, check, sets


def _decompose_partition(args: argparse.Namespace) -> int:
    if not args.parts:
        return _fail("--strategy partition needs --parts")
    _, check, sets = _check_parts(args)
    bd = check.block_decomposition
    out = {
        "decomposition": to_json_dict(bd.combined),
        "parts": [str(p) for p in bd.parts],
        "blocks": [
            [{"num": str(t.num), "den": str(t.den)} for t in block.terms]
            for block in bd.blocks
        ],
        **sets,
    }
    if args.format == "text":
        print(_render(bd.combined))
        for part, block in zip(bd.parts, bd.blocks):
            print(f"block {part}/{args.n}: {_render_terms(block)}")
        print(f"sets_equal: {check.equal}")
    else:
        _emit(out)
    return EXIT_OK if check.equal else EXIT_UNFAITHFUL


def cmd_partition_check(args: argparse.Namespace) -> int:
    parts, check, sets = _check_parts(args)
    out = {
        "m": str(args.m),
        "n": str(args.n),
        "parts": [str(p) for p in parts],
        "decomposition": to_json_dict(check.block_decomposition.combined),
        **sets,
        "s_covers_t": check.s_covers_t,
    }
    if args.format == "text":
        print(_render(check.block_decomposition.combined))
        print(f"S ({len(check.s)} values) == T ({len(check.t)} values): {check.equal}")
    else:
        _emit(out)
    return EXIT_OK if check.equal else EXIT_UNFAITHFUL


_TABLE_COLUMNS = ["n", "x", "y", "z", "r", "case", "verified"]


def _table_rows_four_over_n(n_lo: int, n_hi: int, cap: int):
    for n in range(n_lo, n_hi + 1):
        if n < 5 or n % 2 == 0:
            continue
        built = theorem4(n)
        d = built.decomposition
        report_ok = _certify(d, cap)[1]
        dens = d.denominators
        r = max(d.numerators)
        yield {
            "n": str(n),
            "x": str(dens[0]),
            "y": str(dens[1]),
            "z": str(dens[2]),
            "r": str(r),
            "case": built.trace.branch,
            "verified": report_ok,
        }


def _table_rows_prop7(m: int, n_lo: int, n_hi: int, cap: int):
    for n in range(n_lo, n_hi + 1):
        if n <= m or gcd(m, n) != 1:
            continue
        built = prop7(m, n)
        d = built.decomposition
        verified = verify(d, cap=cap).faithful
        dens = d.denominators
        r = (-2 * n) % m
        yield {
            "n": str(n),
            "x": str(dens[0]),
            "y": str(dens[1]),
            "z": str(dens[2]),
            "r": str(r),
            "case": built.trace.branch,
            "verified": verified,
            "predicted": built.trace.predicted_faithful,
        }


def cmd_table(args: argparse.Namespace) -> int:
    if args.kind == "four-over-n":
        if args.m is not None:
            return _fail("--m does not apply to --kind four-over-n")
        rows = _table_rows_four_over_n(args.n_min, args.n_max, args.cap)
        columns = list(_TABLE_COLUMNS)
    else:
        if args.m is None or args.m < 3:
            return _fail("--kind prop7 needs --m >= 3")
        rows = _table_rows_prop7(args.m, args.n_min, args.n_max, args.cap)
        columns = list(_TABLE_COLUMNS) + ["predicted"]
    materialized = list(rows)
    if args.format == "json":
        _emit({"columns": columns, "rows": materialized})
        return EXIT_OK
    # csv (default) and text share the comma layout; booleans print lowercase.
    print(",".join(columns))
    for row in materialized:
        print(",".join(_cell(row[c]) for c in columns))
    return EXIT_OK


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _search_dict(result: SearchResult) -> dict[str, Any]:
    return {
        "target": _frac_dict(result.target),
        "outcomes": [
            {
                "length": str(o.length),
                "found": None if o.found is None else to_json_dict(o.found),
                "exhausted": o.exhausted,
            }
            for o in result.outcomes
        ],
        "cap_hit": result.cap_hit,
        "combos_used": str(result.combos_used),
    }


def cmd_search(args: argparse.Namespace) -> int:
    budget = SearchBudget(args.max_length, args.max_den, args.cap)
    result = min_length_search(args.m, args.n, budget, shuffle_seed=args.shuffle)
    if args.format == "text":
        for o in result.outcomes:
            if o.found is not None:
                print(f"length {o.length}: {_render(o.found)}")
            elif o.exhausted:
                print(f"length {o.length}: exhausted, none")
            else:
                print(f"length {o.length}: cap hit")
    else:
        _emit(_search_dict(result))
    return EXIT_BUDGET if result.cap_hit else EXIT_OK


def cmd_hunt(args: argparse.Namespace) -> int:
    m_lo, m_hi = _parse_range(args.m)
    report = prop6_discrepancy_scan(range(m_lo, m_hi + 1), range(2, args.n_max + 1))
    out = {
        "instances": str(report.instances),
        "discrepancies": [
            {
                "m": str(i.m),
                "n": str(i.n),
                "y2": str(i.y2),
                "y": str(i.y),
                "x": str(i.x),
                "condition": i.condition,
                "verified": i.verified,
            }
            for i in report.discrepancies
        ],
    }
    if args.format == "text":
        print(f"{report.instances} instances, {len(report.discrepancies)} discrepancies")
    else:
        _emit(out)
    return EXIT_OK if not report.discrepancies else EXIT_UNFAITHFUL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faithfrac",
        description="Construct and check faithful fraction decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a decomposition JSON from stdin")
    p_verify.add_argument("--input", help="read JSON from a file instead of stdin")
    p_verify.add_argument("--naive", action="store_true", help="full lattice enumeration")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_verify.add_argument("--format", choices=["json", "text"], default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="construct a decomposition of m/n")
    p_dec.add_argument("m", type=int)
    p_dec.add_argument("n", type=int)
    p_dec.add_argument(
        "--strategy",
        required=True,
        choices=["two-term", "theorem1", "theorem2", "prop7", "theorem4", "partition"],
    )
    p_dec.add_argument("--omega", help="theorem2: comma-separated integers the denominators must avoid")
    p_dec.add_argument("--parts", help="partition: comma-separated partition of m")
    p_dec.add_argument("--seed", type=int, help="theorem2: skip this many admissible primes (default 0)")
    p_dec.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_dec.add_argument("--trace", action="store_true", help="include construction trace")
    p_dec.add_argument("--format", choices=["json", "text"], default="json")
    p_dec.set_defaults(func=cmd_decompose)

    p_tab = sub.add_parser("table", help="sweep a construction over a range of n")
    p_tab.add_argument("--kind", required=True, choices=["four-over-n", "prop7"])
    p_tab.add_argument("--n-min", type=int, default=5)
    p_tab.add_argument("--n-max", type=int, required=True)
    p_tab.add_argument("--m", type=int, help="numerator for the prop7 kind")
    p_tab.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_tab.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    p_tab.set_defaults(func=cmd_table)

    p_pc = sub.add_parser("partition-check", help="block decomposition set comparison")
    p_pc.add_argument("m", type=int)
    p_pc.add_argument("n", type=int)
    p_pc.add_argument("--parts", required=True, help="comma-separated partition of m")
    p_pc.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_pc.add_argument("--format", choices=["json", "text"], default="json")
    p_pc.set_defaults(func=cmd_partition_check)

    p_search = sub.add_parser("search", help="bounded exhaustive faithful search")
    p_search.add_argument("m", type=int)
    p_search.add_argument("n", type=int)
    p_search.add_argument("--max-length", type=int, required=True)
    p_search.add_argument("--max-den", type=int, required=True)
    p_search.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_search.add_argument("--shuffle", type=int, help="re-enumerate denominator sets in seeded random order")
    p_search.add_argument("--format", choices=["json", "text"], default="json")
    p_search.set_defaults(func=cmd_search)

    p_hunt = sub.add_parser("hunt", help="scan for condition/enumeration disagreements")
    p_hunt.add_argument("--m", required=True, help="numerator or range like 3..5")
    p_hunt.add_argument("--n-max", type=int, required=True)
    p_hunt.add_argument("--format", choices=["json", "text"], default="json")
    p_hunt.set_defaults(func=cmd_hunt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("cap", "max_length", "max_den"):
        if getattr(args, name, 1) is not None and getattr(args, name, 1) < 1:
            return _fail(f"--{name.replace('_', '-')} must be positive")
    try:
        return args.func(args)
    except (CapExceeded, TermBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (argparse.ArgumentTypeError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
