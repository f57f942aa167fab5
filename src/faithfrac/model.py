"""Decomposition data model: terms as written, structural checks, JSON form.

A decomposition stores its terms exactly as written, so 2/4 and 1/2 are
different terms even though they have equal value.  Coefficient ranges in
faithfulness checks, distinctness of denominators, and the JSON schema all
refer to these written pairs.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Any, Iterable, Sequence

__all__ = [
    "Term",
    "Decomposition",
    "decomposition",
    "validate",
    "scale",
    "max_numerator",
    "coprime_shape",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
]


# A record's __init__ writes its fields past its own __setattr__.  Written
# this way they stay in the instance's inline values, which read twice as
# fast as a __dict__ filled by subscript.
_setfield = object.__setattr__


class _Record:
    """Base of the package's frozen value records.

    A subclass annotates its fields and writes an __init__ that sets exactly
    those fields, in order, with _setfield, so vars() is the field dict.
    repr, == (between two instances of one class) and hash read the fields
    in that order, and any later write or delete raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # A subclass's own annotations follow its base's fields.  Every
        # record has two or more fields, so _key returns a tuple.
        cls._fields = cls.__match_args__ = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


class Term(_Record):
    """One written fraction num/den with positive integer parts."""

    num: int
    den: int

    def __init__(self, num: int, den: int) -> None:
        # bool is an int subclass, but a True part would not survive the JSON form.
        if type(num) is bool or type(den) is bool or not (isinstance(num, int) and isinstance(den, int)):
            raise ValueError("term parts must be integers")
        if num < 1 or den < 1:
            raise ValueError("term parts must be positive")
        _setfield(self, "num", num)
        _setfield(self, "den", den)

    # Term and Decomposition are compared on hot paths (a decomposition
    # against its JSON round trip), so they spell out _Record's == and hash
    # over their own fields, which reads them faster than the key does.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))


class Decomposition(_Record):
    """An ordered sum of written terms with its reduced target value.

    The structural audit is worked out once per instance, on first use, and
    kept with it (_audit); equality, hashing and repr read only the
    target and the terms.
    """

    target: Fraction
    terms: tuple[Term, ...]

    def __init__(self, target: Fraction, terms: tuple[Term, ...]) -> None:
        _setfield(self, "target", target if type(target) is Fraction else Fraction(target))
        _setfield(self, "terms", terms if type(terms) is tuple else tuple(terms))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.target == other.target and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.target, self.terms))

    @cached_property
    def _audit(self) -> tuple[tuple[str, ...], int]:
        """validate's problems, with the L = lcm(b_i) the sum check clears
        denominators over (1 for no terms), for callers that go on to use L.
        Worked out on first use and kept in the instance's __dict__, which
        cached_property writes directly, past the frozen __setattr__."""
        problems: list[str] = []
        m, n = self.target.numerator, self.target.denominator
        if not self.terms:
            return ("sum mismatch",) if m else (), 1
        if m <= 0:
            problems.append("nonpositive target")
        dens = self.denominators
        if len(set(dens)) != len(dens):
            problems.append("duplicate denominator")
        # sum a_i/b_i == m/n, cleared of denominators over L = lcm(b_i).
        L = lcm(*dens)
        if sum(t.num * (L // t.den) for t in self.terms) * n != m * L:
            problems.append("sum mismatch")
        return tuple(problems), L

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(t.den for t in self.terms)

    @property
    def numerators(self) -> tuple[int, ...]:
        return tuple(t.num for t in self.terms)


def decomposition(target: Fraction | int, pairs: Iterable[tuple[int, int]]) -> Decomposition:
    """Convenience builder from (num, den) pairs."""
    return Decomposition(target, tuple([Term(a, b) for a, b in pairs]))


def validate(d: Decomposition) -> list[str]:
    """Structural check; returns an empty list when d is well formed.

    The empty decomposition is accepted only for target 0 (the vacuous sum).
    The check runs once per instance; each call returns a new list.
    """
    return list(d._audit[0])


def scale(d: Decomposition, c: int) -> Decomposition:
    """Multiply every denominator by c, mapping m/n onto m/(c*n)."""
    if type(c) is bool or not isinstance(c, int) or c < 1:
        raise ValueError("scaling factor must be a positive integer")
    return Decomposition(d.target / c, tuple(Term(t.num, t.den * c) for t in d.terms))


def max_numerator(b: int, n: int) -> int:
    """The largest numerator a faithful term over b can carry in a
    decomposition of m/n: the largest a with a * gcd(b, n) < b.

    It is 0 exactly when b divides n, so no faithful decomposition with two
    or more terms has such a denominator.  The argument needs every term
    strictly below the target, so the degenerate single-term decomposition
    of a unit fraction is faithful yet breaks the bound.
    """
    return (b - 1) // gcd(b, n)


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
    dens = [t.den for t in head]
    # n and the head's denominators are pairwise coprime exactly when their
    # product equals their lcm.
    return last.den == n * prod(dens) == lcm(n, *dens)


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
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return from_json_dict(obj)
