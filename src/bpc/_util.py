"""Helpers shared by several modules: exact arithmetic, strict parsing of
decimal text, the base of the value types, and the parameters each codec
takes (the oracles' default size limit lives in the package ``__init__``)."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParamInvalid

# The parameters of each codec: d1 has none, d2 its block count N (or the
# exponent epsilon, N = ceil(n**epsilon)), tn its set size k (or epsilon_k).
CODEC_PARAMETERS = {"d1": (), "d2": ("N", "epsilon"), "tn": ("k", "epsilon_k")}


def codec_parameters(codec: str | None, given: dict) -> dict:
    """The entries of ``given`` that ``codec`` takes (None names no codec,
    which takes none).  Any other entry that is set, not None, raises
    ``ParamInvalid``: a parameter of another codec is refused, not ignored."""
    takes = CODEC_PARAMETERS[codec] if codec is not None else ()
    for name, value in given.items():
        if value is not None and name not in takes:
            raise ParamInvalid(f"{name} is not a parameter of the {codec} codec"
                               if codec is not None else f"{name} is given but no codec is named")
    return {name: given[name] for name in takes if name in given}


def scale_parameter(codec: str, n: int, value: int | None, exponent) -> int:
    """The scale parameter ``value`` of ``codec``, or ceil(n**exponent) when
    the exponent is supplied; an explicit value must then agree with it, no
    silent rounding to a legal value."""
    name, exponent_name = CODEC_PARAMETERS[codec]
    if exponent is not None:
        derived = ceil_rational_power(n, Fraction(exponent))
        if value is not None and value != derived:
            raise ParamInvalid(
                f"{name}={value} contradicts ceil(n**{exponent_name})={derived}")
        return derived
    if value is None:
        raise ParamInvalid(f"either {name} or {exponent_name} is required")
    return value


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``__slots__`` and sets them in
    its own ``__init__``, by ``_init`` or, where construction is hot, by
    ``object.__setattr__``.  A slot named ``_...`` is not a field: it holds
    state that the constructor derives from the fields.  The base adds the
    rest of a value type: equality and hash by class and field values, a
    ``Name(field=value, ...)`` repr, ``AttributeError`` on assignment, and
    pickling through the constructor (so an unpickled value is validated,
    and its derived state rebuilt, like a new one).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def ceil_rational_power(n: int, exponent: Fraction) -> int:
    """Smallest integer m with m >= n**exponent, computed exactly.

    For exponent p/q this is the rounded-up integer q-th root of n**p; a
    float seed is corrected by exact integer comparisons.
    """
    at_least(n, 1, "base")
    if not 0 < exponent < 1:
        raise ParamInvalid("exponent must lie in (0, 1)")
    p, q = exponent.numerator, exponent.denominator
    if q > 10_000:
        # a binary-float exponent smuggled into Fraction would make n**p
        # astronomically large; demand an intentionally exact rational
        raise ParamInvalid(
            f"exponent denominator {int_text(q)} is too large; pass an exact rational "
            "such as Fraction(3, 5) or the string '0.6'")
    target = n ** p
    # seed in log space (n**p may be far beyond float range), then fix up
    m = max(1, round(math.exp(math.log(n) * p / q)))
    while m ** q < target:
        m += 1
    while m > 1 and (m - 1) ** q >= target:
        m -= 1
    return m


def log2_int(x: int) -> float:
    """log2 of a positive integer of any size (floats overflow past 2**1024)."""
    if x <= 0:
        raise ParamInvalid("log2 argument must be positive")
    bits = x.bit_length()
    if bits <= 960:
        return math.log2(x)
    shift = bits - 960
    return math.log2(x >> shift) + shift


def int_text(value: int) -> str:
    """The decimal digits of ``value``, or its sign and bit length when the
    interpreter's int-to-str digit limit refuses them."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def exact_int(value: object) -> int:
    """``value`` itself if it is an int, else ``ParamInvalid``: a 2.7 or a
    ``True`` (JSON true) is rejected, never coerced to 2 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParamInvalid(f"expected an integer, got {value!r}")
    return value


def at_least(value: object, floor: int, name: str) -> int:
    """``exact_int(value)``, or ``ParamInvalid`` "<name> must be >= <floor>" below it."""
    if exact_int(value) < floor:
        raise ParamInvalid(f"{name} must be >= {floor}")
    return value


def exact_ints(values) -> tuple:
    """``values`` as a tuple of ints by ``exact_int``'s rule, their types tested in C;
    only another type than int sends them through ``exact_int``, to name the bad one."""
    values = tuple(values)
    return values if set(map(type, values)) <= {int} else tuple(map(exact_int, values))


def decimal_int(text: str) -> int:
    """The integer written in ``text`` as ASCII ``[+-]?[0-9]+``; the other
    spellings ``int`` takes (``1_0``, Arabic-Indic digits, padding blanks)
    raise ``ValueError``, as text ``int`` cannot read does."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def decimal_fraction(text: str) -> Fraction:
    """The rational written in ``text`` in ASCII digits: an integer, a ratio
    ``p/q`` or a decimal with an optional exponent (``2``, ``3/2``, ``0.6``,
    ``1e3``).  The other spellings ``Fraction`` takes (``1_0``, Arabic-Indic
    digits, padding blanks) raise ``ValueError``, as text ``Fraction`` cannot
    read does; a zero denominator raises ``ZeroDivisionError``."""
    if re.fullmatch(r"[+-]?(?=\.?[0-9])(?:[0-9]+/[0-9]+|[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)",
                    text) is None:
        raise ValueError(f"not a decimal rational: {text!r}")
    return Fraction(text)
