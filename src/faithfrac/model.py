"""Decomposition data model: terms as written, structural checks, JSON form.

A decomposition stores its terms exactly as written, so 2/4 and 1/2 are
different terms even though they have equal value.  Coefficient ranges in
faithfulness checks, distinctness of denominators, and the JSON schema all
refer to these written pairs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Any, Iterable, Sequence

__all__ = [
    "Term",
    "Decomposition",
    "TermFlags",
    "StructureReport",
    "decomposition",
    "validate",
    "scale",
    "necessary_conditions",
    "coprime_shape",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
]


@dataclass(frozen=True)
class Term:
    """One written fraction num/den with positive integer parts."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise ValueError("term parts must be integers")
        if self.num < 1 or self.den < 1:
            raise ValueError("term parts must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class Decomposition:
    """An ordered sum of written terms with its reduced target value."""

    target: Fraction
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", Fraction(self.target))
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def length(self) -> int:
        return len(self.terms)

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(t.den for t in self.terms)

    @property
    def numerators(self) -> tuple[int, ...]:
        return tuple(t.num for t in self.terms)


def decomposition(target: Fraction | int, pairs: Iterable[tuple[int, int]]) -> Decomposition:
    """Convenience builder from (num, den) pairs."""
    return Decomposition(Fraction(target), tuple(Term(a, b) for a, b in pairs))


def validate(d: Decomposition) -> list[str]:
    """Structural check; returns an empty list when d is well formed.

    The empty decomposition is accepted only for target 0 (the vacuous sum).
    """
    problems: list[str] = []
    if not d.terms:
        if d.target != 0:
            problems.append("sum mismatch")
        return problems
    if d.target <= 0:
        problems.append("nonpositive target")
    dens = d.denominators
    if len(set(dens)) != len(dens):
        problems.append("duplicate denominator")
    # sum a_i/b_i == m/n, cleared of denominators over L = lcm(b_i).
    L = lcm(*dens)
    if sum(t.num * (L // t.den) for t in d.terms) * d.target.denominator != d.target.numerator * L:
        problems.append("sum mismatch")
    return problems


def scale(d: Decomposition, c: int) -> Decomposition:
    """Multiply every denominator by c, mapping m/n onto m/(c*n)."""
    if c < 1:
        raise ValueError("scaling factor must be a positive integer")
    return Decomposition(d.target / c, tuple(Term(t.num, t.den * c) for t in d.terms))


@dataclass(frozen=True)
class TermFlags:
    """Necessary-condition flags for one term; True marks a violation."""

    den_divides_n: bool
    numerator_too_big: bool

    @property
    def clear(self) -> bool:
        return not (self.den_divides_n or self.numerator_too_big)


@dataclass(frozen=True)
class StructureReport:
    per_term: tuple[TermFlags, ...]
    pairwise_coprime_shape: bool

    @property
    def all_clear(self) -> bool:
        return all(f.clear for f in self.per_term)


def necessary_conditions(d: Decomposition) -> StructureReport:
    """Flag terms that rule faithfulness out before any enumeration.

    A faithful decomposition of m/n with two or more terms never has b | n,
    and always has a * gcd(b, n) < b for every written term a/b.  The
    argument needs every term strictly below the target, so the degenerate
    single-term decomposition of a unit fraction is faithful yet flagged.
    """
    n = d.target.denominator
    flags = tuple(
        TermFlags(
            den_divides_n=(n % t.den == 0),
            numerator_too_big=(t.num * gcd(t.den, n) >= t.den),
        )
        for t in d.terms
    )
    return StructureReport(per_term=flags, pairwise_coprime_shape=coprime_shape(d))


def coprime_shape(d: Decomposition) -> bool:
    """True when d matches the coprime certificate shape, which by itself
    certifies faithfulness without enumeration.

    Shape: every term before the last is proper (a < b), the last term is
    exactly 1/(n * product of the other denominators), and n together with
    the other denominators is pairwise coprime.
    """
    if not d.terms:
        return False
    n = d.target.denominator
    head, last = d.terms[:-1], d.terms[-1]
    if last.num != 1:
        return False
    if any(t.num >= t.den for t in head):
        return False
    if last.den != n * prod(t.den for t in head):
        return False
    moduli = [n] + [t.den for t in head]
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                return False
    return True


def _too_long() -> ValueError:
    """The one error for integers past the interpreter's decimal-string limit,
    whichever way they travel."""
    return ValueError(
        f"integer longer than {sys.get_int_max_str_digits()} digits, the "
        "interpreter's limit for decimal strings (see sys.set_int_max_str_digits)"
    )


def _int_from_json(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and sum(c.isdigit() for c in value) > limit:
                raise _too_long() from None
            raise ValueError(f"not a decimal integer: {value!r}") from None
    raise ValueError(f"expected an integer or decimal string, got {type(value).__name__}")


def to_json_dict(d: Decomposition) -> dict[str, Any]:
    """Canonical JSON-ready form; integers become decimal strings."""
    try:
        return {
            "target": {"num": str(d.target.numerator), "den": str(d.target.denominator)},
            "terms": [{"num": str(t.num), "den": str(t.den)} for t in d.terms],
        }
    except ValueError:  # str() of an integer past the limit; nothing else raises it
        raise _too_long() from None


def from_json_dict(obj: Any) -> Decomposition:
    """Parse the canonical form; accepts bare ints as well as decimal strings."""
    if not isinstance(obj, dict):
        raise ValueError("decomposition JSON must be an object")
    try:
        target_obj = obj["target"]
        terms_obj = obj["terms"]
    except (KeyError, TypeError):
        raise ValueError("decomposition JSON needs 'target' and 'terms'") from None
    if not isinstance(target_obj, dict) or not isinstance(terms_obj, Sequence) or isinstance(terms_obj, (str, bytes)):
        raise ValueError("malformed decomposition JSON")
    try:
        target = Fraction(_int_from_json(target_obj.get("num")), _int_from_json(target_obj.get("den")))
    except ZeroDivisionError:
        raise ValueError("target denominator must be nonzero") from None
    terms = []
    for entry in terms_obj:
        if not isinstance(entry, dict):
            raise ValueError("each term must be an object")
        terms.append(Term(_int_from_json(entry.get("num")), _int_from_json(entry.get("den"))))
    return Decomposition(target, tuple(terms))


def to_json(d: Decomposition) -> str:
    """Byte-stable single-line JSON; identical inputs give identical bytes."""
    return json.dumps(to_json_dict(d), separators=(",", ":"))


def from_json(text: str) -> Decomposition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # a bare integer past the limit; nothing else raises it
        raise _too_long() from None
    return from_json_dict(obj)
