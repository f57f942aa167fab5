"""Command line front end: construct, verify, tabulate, and check.

Each ``cmd_*`` returns ``(code, payload, lines)``: the exit code, the
payload of library values printed under ``--format json`` and the lines
printed otherwise (``table`` prints the same comma layout under ``csv`` and
``text``).  A usage error is a ``ValueError``.  Only ``main`` prints, and
only ``main`` maps exceptions to exit codes: 0 success (faithful / search
completed), 1 unfaithful or a discrepancy found, 2 usage or input error, 3
enumeration budget exhausted.  JSON output is byte-stable, with a fixed key
order; the wire rule for its values is stated once, in ``_wire``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

# verify needs only the model and the verifier; the other commands import
# construct, partition and search themselves, so a cold verify skips them.
from .model import Decomposition, _too_long, coprime_shape, from_json, to_json_dict
from .verifier import DEFAULT_CAP, CapExceeded, FaithfulnessReport, verify, verify_naive

if TYPE_CHECKING:
    from .construct import ConstructionTrace
    from .partition import PartitionCheck

EXIT_OK = 0
EXIT_UNFAITHFUL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# A command's exit code, its --format json payload and its text lines.
Result = tuple[int, Any, list[str]]


def _wire(obj: Any) -> Any:
    """The printed form of a payload: every integer becomes a decimal string,
    so arbitrary precision survives every consumer, and one past the
    interpreter's limit raises the model's one error for it."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:  # past int_max_str_digits; nothing else raises it
            raise _too_long() from None
    if isinstance(obj, Fraction):
        return {"num": _wire(obj.numerator), "den": _wire(obj.denominator)}
    if isinstance(obj, Decomposition):
        return to_json_dict(obj)
    if isinstance(obj, dict):
        return {key: _wire(value) for key, value in obj.items()}
    return [_wire(value) for value in obj]  # a list or tuple


def _report_dict(r: FaithfulnessReport) -> dict[str, Any]:
    return {
        "faithful": r.faithful,
        "method": r.method,
        "combos_examined": r.combos_examined,
        "violation": None if r.violation is None else vars(r.violation),
    }


def _trace_dict(t: ConstructionTrace) -> dict[str, Any]:
    return {
        "primes_used": t.primes_used,
        "bezout": None if t.bezout is None else t.bezout._asdict(),
        "progression_steps": t.progression_steps,
        "branch": t.branch,
        "applied_scaling": t.applied_scaling,
        "avoided": t.avoided,
    }


def _render_terms(d: Decomposition) -> str:
    return " + ".join(f"{t['num']}/{t['den']}" for t in _wire(d)["terms"])


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


def cmd_verify(args: argparse.Namespace) -> Result:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.input}: {exc}") from None
    else:
        text = sys.stdin.read()
    try:
        d = from_json(text)
    except ValueError as exc:
        raise ValueError(f"bad decomposition JSON: {exc}") from None
    checker = verify_naive if args.naive else verify
    report = checker(d, cap=args.cap)
    if report.faithful:
        line = f"faithful ({report.method}, {report.combos_examined} combinations)"
    else:
        v = report.violation
        coeffs = ",".join(_wire(v.coefficients))
        line = f"unfaithful: coefficients ({coeffs}) give {v.value}"
    return EXIT_OK if report.faithful else EXIT_UNFAITHFUL, _report_dict(report), [line]


def _check_parts(args: argparse.Namespace) -> tuple[list[int], PartitionCheck, dict[str, Any]]:
    """Parse --parts, check the partition theorem for m/n, list S and T."""
    from .partition import PartitionSpec, check_partition_theorem

    parts = _parse_int_list(args.parts, "--parts")
    check = check_partition_theorem(PartitionSpec(args.m, tuple(parts)), args.n, cap=args.cap)
    sets = {"s": sorted(check.s), "t": sorted(check.t), "sets_equal": check.equal}
    return parts, check, sets


# The optional decompose flags each strategy reads; the others reject them.
_STRATEGY_FLAGS = {"theorem2": ("omega", "seed", "trace"), "partition": ("parts",)}


def cmd_decompose(args: argparse.Namespace) -> Result:
    from .construct import all_units_but_one, prop7, theorem1, theorem4, two_term

    m, n = args.m, args.n
    reads = _STRATEGY_FLAGS.get(args.strategy, ("trace",))
    for flag in ("omega", "seed", "parts", "trace"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag} does not apply to --strategy {args.strategy}")
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
            raise ValueError("--strategy theorem4 needs m = 4")
        built = theorem4(n)
    else:
        if not args.parts:
            raise ValueError("--strategy partition needs --parts")
        _, check, sets = _check_parts(args)
        bd = check.block_decomposition
        out: dict[str, Any] = {
            "decomposition": bd.combined,
            "parts": bd.parts,
            "blocks": [_wire(block)["terms"] for block in bd.blocks],
            **sets,
        }
        lines = [_render(bd.combined)]
        lines += [f"block {p}/{n}: {_render_terms(b)}" for p, b in zip(bd.parts, bd.blocks)]
        lines.append(f"sets_equal: {check.equal}")
        return EXIT_OK if check.equal else EXIT_UNFAITHFUL, out, lines
    d = built.decomposition
    predicted = built.trace.predicted_faithful
    # The coprime shape is a proof on its own; anything else goes through
    # the congruence verifier.
    if coprime_shape(d):
        certificate: dict[str, Any] = {"method": "coprime_shape", "faithful": True}
    else:
        certificate = _report_dict(verify(d, cap=args.cap))
    faithful = certificate["faithful"]
    out = {"decomposition": d}
    lines = [_render(d), f"certificate: {certificate['method']}, faithful={faithful}"]
    if predicted is not None:
        out["predicted_faithful"] = predicted
        lines.append(f"predicted_faithful: {predicted}")
    out["certificate"] = certificate
    if args.trace:
        out["trace"] = _trace_dict(built.trace)
        lines.append(f"trace: {json.dumps(_wire(out['trace']), separators=(',', ':'))}")
    return EXIT_OK if faithful else EXIT_UNFAITHFUL, out, lines


def cmd_partition_check(args: argparse.Namespace) -> Result:
    parts, check, sets = _check_parts(args)
    combined = check.block_decomposition.combined
    out = {
        "m": args.m,
        "n": args.n,
        "parts": parts,
        "decomposition": combined,
        **sets,
        "s_covers_t": check.s_covers_t,
    }
    sizes = f"S ({len(check.s)} values) == T ({len(check.t)} values)"
    lines = [_render(combined), f"{sizes}: {check.equal}"]
    return EXIT_OK if check.equal else EXIT_UNFAITHFUL, out, lines


def _grid(m_lo: int, m_hi: int, n_lo: int, n_hi: int) -> tuple[range, range]:
    """The m and n of m_lo..m_hi and n_lo..n_hi worth walking: a row needs
    3 <= m < n <= n_hi, so m stops at n_hi - 1 and n starts past the first m."""
    m_lo = max(m_lo, 3)
    return range(m_lo, min(m_hi, n_hi - 1) + 1), range(max(n_lo, m_lo + 1), n_hi + 1)


def cmd_table(args: argparse.Namespace) -> Result:
    from .construct import prop7, theorem4
    from .search import _sweep

    columns = ["n", "x", "y", "z", "r", "case", "verified"]
    four = args.kind == "four-over-n"
    if four:
        if args.m is not None:
            raise ValueError("--m does not apply to --kind four-over-n")
        # 4/n is the m = 4 row of the grid, whose gcd filter keeps the odd n.
        m, build = 4, lambda _, n: theorem4(n)
    elif args.m is None or args.m < 3:
        raise ValueError("--kind prop7 needs --m >= 3")
    else:
        m, build = args.m, prop7
        columns.append("predicted")
    rows = []
    for _, n, built, verified in _sweep(*_grid(m, m, args.n_min, args.n_max), build, args.cap):
        d = built.decomposition
        r = max(d.numerators) if four else (-2 * n) % m
        cells = [n, *d.denominators, r, built.trace.branch, verified]
        if not four:
            cells.append(built.trace.predicted_faithful)
        rows.append(cells)
    rows = _wire(rows)
    # csv and text share the comma layout; booleans print lowercase.
    lines = [",".join(columns)]
    lines += [",".join(json.dumps(c) if isinstance(c, bool) else c for c in row) for row in rows]
    return EXIT_OK, {"columns": columns, "rows": [dict(zip(columns, row)) for row in rows]}, lines


def cmd_search(args: argparse.Namespace) -> Result:
    from .search import SearchBudget, min_length_search

    budget = SearchBudget(args.max_length, args.max_den, args.cap)
    result = min_length_search(args.m, args.n, budget)
    out = {
        "target": result.target,
        "outcomes": [vars(o) for o in result.outcomes],
        "cap_hit": result.cap_hit,
        "combos_used": result.combos_used,
    }
    lines = []
    for o in result.outcomes:
        status = "exhausted, none" if o.exhausted else "cap hit"
        lines.append(f"length {o.length}: {status if o.found is None else _render(o.found)}")
    return EXIT_BUDGET if result.cap_hit else EXIT_OK, out, lines


def cmd_hunt(args: argparse.Namespace) -> Result:
    from .search import prop6_discrepancy_scan

    m_lo, m_hi = _parse_range(args.m)
    report = prop6_discrepancy_scan(*_grid(m_lo, m_hi, 0, args.n_max))  # no --n-min
    out = {
        "instances": report.instances,
        "discrepancies": [vars(i) for i in report.discrepancies],
    }
    lines = [f"{report.instances} instances, {len(report.discrepancies)} discrepancies"]
    return EXIT_OK if not report.discrepancies else EXIT_UNFAITHFUL, out, lines


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
    p_dec.add_argument("--trace", action="store_true", default=None, help="include construction trace")
    p_dec.add_argument("--format", choices=["json", "text"], default="json")
    p_dec.set_defaults(func=cmd_decompose)

    p_tab = sub.add_parser("table", help="sweep a construction over a range of n")
    p_tab.add_argument("--kind", required=True, choices=["four-over-n", "prop7"])
    p_tab.add_argument("--n-min", type=int, default=0)
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
    p_search.add_argument("--format", choices=["json", "text"], default="json")
    p_search.set_defaults(func=cmd_search)

    p_hunt = sub.add_parser("hunt", help="scan for condition/enumeration disagreements")
    p_hunt.add_argument("--m", required=True, help="numerator or range like 3..5")
    p_hunt.add_argument("--n-max", type=int, required=True)
    p_hunt.add_argument("--format", choices=["json", "text"], default="json")
    p_hunt.set_defaults(func=cmd_hunt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # argparse takes a value that starts with "-" but is not a plain number,
    # such as the range -4..4, for a flag; "--m -4..4" is read as "--m=-4..4".
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] == "--m" and word[:1] == "-" and word[1:2].isdigit():
            words[-1] = f"--m={word}"
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        for name in ("cap", "max_length", "max_den"):
            if getattr(args, name, 1) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        code, payload, lines = args.func(args)
        if args.format == "json":
            lines = [json.dumps(_wire(payload), separators=(",", ":"))]
    except (argparse.ArgumentTypeError, ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, CapExceeded) else EXIT_USAGE
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
