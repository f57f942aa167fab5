"""Decomposition data model: terms as written, structural checks, JSON form.

A decomposition stores its terms exactly as written, so 2/4 and 1/2 are
different terms even though they have equal value.  Coefficient ranges in
faithfulness checks, distinctness of denominators, and the JSON schema all
refer to these written pairs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd, lcm, prod
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


class _kept:
    """A value worked out on an instance's first read and kept on the
    instance, set with _setfield, where later reads find it before this
    descriptor (which has no __set__).  functools.cached_property does the
    same but takes a lock on every first read (3.10, 3.11); the values kept
    here are pure functions of frozen fields, so a race can only store
    equal values."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        _setfield(obj, self.name, value := self.func(obj))
        return value


class _Record:
    """Base of the package's frozen value records.

    A subclass annotates its fields, after its base's.  From them it gets an
    == (between two instances of one class) and a hash that read every field
    in order, and, unless it writes its own, an __init__ that takes every
    field in order and sets it with _setfield, so vars() is the field dict.
    A value given on an annotation is that parameter's default.  A written
    __init__ sets the same fields, in order, with _setfield.  repr reads the
    fields in order, and any later write or delete raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # One exec per class; the functions compile to what one would write
        # by hand for these fields.
        cls._fields = cls.__match_args__ = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        source = (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {' and '.join(f'self.{f} == other.{f}' for f in fields)}\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({''.join(f'self.{f}, ' for f in fields)}))\n"
        )
        if cls.__init__ is object.__init__:
            source += f"def __init__(self, {', '.join(fields)}):\n" + "".join(
                f"    _setfield(self, {f!r}, {f})\n" for f in fields
            )
        methods: dict[str, Any] = {}
        exec(source, {"_setfield": _setfield}, methods)
        if "__init__" in methods:
            methods["__init__"].__defaults__ = tuple(vars(cls)[f] for f in fields if f in vars(cls))
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            method.__module__ = cls.__module__
            setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

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


class Decomposition(_Record):
    """An ordered sum of written terms with its reduced target value.

    The structural audit is worked out once per instance, on first use, and
    kept with it (_audit); equality, hashing and repr read only the
    target and the terms.
    """

    target: Fraction
    terms: tuple[Term, ...]

    def __init__(self, target: Fraction, terms: tuple[Term, ...]) -> None:
        # An int target and any iterable of terms are coerced; any other target
        # (a bool, a float, a string) and terms that are not Terms are refused.
        if type(target) is not Fraction:
            if type(target) is bool or not isinstance(target, (int, Fraction)):
                raise ValueError("a decomposition's target must be a Fraction or an integer")
            target = Fraction(target)
        if type(terms) is not tuple:
            try:
                terms = tuple(terms)
            except TypeError:
                raise ValueError("a decomposition's terms must be an iterable of Terms") from None
        for t in terms:
            if not isinstance(t, Term):
                raise ValueError("a decomposition's terms must be an iterable of Terms")
        _setfield(self, "target", target)
        _setfield(self, "terms", terms)

    @_kept
    def _audit(self) -> tuple[tuple[str, ...], int]:
        """validate's problems, with the L = lcm(b_i) the sum check clears
        denominators over (1 for no terms), for callers that go on to use L.
        Worked out on first use and kept in the instance's __dict__ (_kept),
        past the frozen __setattr__."""
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

    Shape: d is well formed (validate finds nothing, so its terms sum to its
    target), every term before the last is proper (a < b), and the last term
    is exactly 1/(n * product of the other denominators).  Then n and the
    other denominators are pairwise coprime.
    """
    if not d.terms or d._audit[0]:
        return False
    n = d.target.denominator
    head, last = d.terms[:-1], d.terms[-1]
    if last.num != 1:
        return False
    if any(t.num >= t.den for t in head):
        return False
    # With B = n * prod(b_i), the sum times B reads
    # sum(a_i * B/b_i) + 1 = m * prod(b_i).  Taken mod n, and mod each b_i,
    # that makes n and every b_i coprime to the product of the others, so
    # a well-formed d with this last term is pairwise coprime already.
    return last.den == n * prod(t.den for t in head)


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
