"""Helpers shared by several modules: exact arithmetic, strict parsing of
decimal text, the base of the value types, and the parameters each codec
takes (the oracles' default size limit lives in the package ``__init__``)."""

from __future__ import annotations

import math
import re
import reprlib
import sys
from contextlib import suppress
from itertools import repeat

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


def scale_parameter(codec: str, n: int, value: int | None,
                    exponent) -> tuple[int, Fraction | None]:
    """``(value, exponent)``: the scale parameter ``value`` of ``codec``, or
    ceil(n**exponent) when the exponent is supplied, with the exponent read by
    ``exact_fraction`` (None when not supplied); an explicit value must then
    agree with it, no silent rounding to a legal value."""
    name, exponent_name = CODEC_PARAMETERS[codec]
    if exponent is not None:
        exponent = exact_fraction(exponent)
        derived = ceil_rational_power(n, exponent)
        if value is not None and value != derived:
            raise ParamInvalid(
                f"{name}={value} contradicts ceil(n**{exponent_name})={derived}")
        return derived, exponent
    if value is None:
        raise ParamInvalid(f"either {name} or {exponent_name} is required")
    return value, None


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``__slots__`` and sets them in
    its own ``__init__``, by ``_init`` or, where construction is hot, by
    ``object.__setattr__``.  A slot named ``_...`` is not a field: it holds
    state derived from the fields, by the constructor or, as a memo, on its
    first read; either way it is never compared, hashed, printed or pickled.
    The base adds the rest of a value type: equality and hash by class and
    field values, a ``Name(field=value, ...)`` repr, ``AttributeError`` on
    assignment, and pickling through the constructor (so an unpickled value
    is validated, and its derived state rebuilt, like a new one).  What the
    library assembles from valid parts, ``_trusted_rows`` builds unchecked,
    with each ``_`` slot None (an empty memo); so a type whose constructor
    derives a ``_`` slot, ``BalanceSpec``, is built only by that constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the slots' setters, fields first; the unchecked builders set each ``_`` slot None
        memos = tuple(name for name in cls.__slots__ if name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._names + memos)
        cls._empty_memos = (None,) * len(memos)

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted_rows(cls, *columns) -> tuple:
        """One unchecked value per row of the field ``columns`` (of one length,
        in field order), with no Python call per value; ``_`` slots are None."""
        rows = tuple(map(object.__new__, [cls] * len(columns[0])))
        for set_, column in zip(cls._setters, columns + tuple(map(repeat, cls._empty_memos))):
            any(map(set_, rows, column))  # each returns None
        return rows

    @classmethod
    def _trusted(cls, *values):
        """The one-row ``_trusted_rows``, by the same setters with no columns."""
        self = object.__new__(cls)
        for set_, value in zip(cls._setters, values + cls._empty_memos):
            set_(self, value)
        return self

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


# The largest exact integer the library builds, in bits (512 KiB): a rate
# report's factorials and the n! of rank/unrank, each checked by
# ``check_factorial`` (a scale parameter's n**p checks its n! too, so it is
# at most 18 * 9999 bits).
MAX_INT_BITS = 1 << 22


def check_factorial(m: int) -> None:
    """``ParamInvalid`` naming ``MAX_INT_BITS`` when m!, of at most
    m * bit_length(m) bits (as m! <= m**m), may exceed it: checked before m!
    is built, so no size hangs."""
    bits = m * m.bit_length()
    if bits > MAX_INT_BITS:
        raise ParamInvalid(f"{int_text(m)}! needs up to {int_text(bits)} bits, "
                           f"past the {MAX_INT_BITS}-bit limit on exact integers")


def ceil_rational_power(n: int, exponent: Fraction) -> int:
    """Smallest integer m with m >= n**exponent, computed exactly.

    The domain is what the scale parameters take: an int n >= 1 whose n!
    passes ``MAX_INT_BITS`` (so n <= 233016 < 2**18, as for every rate
    report), and an exponent p/q in (0, 1) with q <= 10,000.  The answer is
    the least m with m**q >= n**p, at most n, so a bisection on exact powers
    between 2**((b-1)//q) and 2**ceil(b/q), b = bit_length(n**p), finds it
    in at most 18 steps.
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
    check_factorial(n)
    target = n ** p
    b = target.bit_length()
    lo, hi = 1 << (b - 1) // q, 1 << -(-b // q)  # lo**q <= target < hi**q
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid ** q <= target else (lo, mid - 1)
    return lo if lo ** q == target else lo + 1


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


class _ShortRepr(reprlib.Repr):
    """``repr`` within ``reprlib``'s caps (30 characters of text or of an
    object, six items of a list), for a refusal that names a value: short for
    any input, and an int past the interpreter's int-to-str digit limit shown
    by ``int_text``, not raising the ``ValueError`` of ``repr``."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return int_text(x)


value_text = _ShortRepr().repr


def exact_int(value: object) -> int:
    """``value`` itself if it is an int, else ``ParamInvalid``: a 2.7 or a
    ``True`` (JSON true) is rejected, never coerced to 2 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParamInvalid(f"expected an integer, got {value_text(value)}")
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


# compiled on first use, by ``re``'s cache: a command that reads no rational compiles none
_RATIONAL = r"[+-]?(?=\.?[0-9])(?:([0-9]+)/([0-9]+)|([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)"


def exact_fraction(value: object, position: int | None = None) -> Fraction:
    """``value`` as an exact ``Fraction``: the one reader of the rationals
    the library and the CLI take.  Text, and a finite ``Decimal`` as its text,
    is read in ASCII digits: an integer, ``p/q`` or a decimal with an optional
    exponent (``2``, ``3/2``, ``0.6``, ``1e3``).  Another spelling (``1_0``,
    Arabic-Indic digits, blanks), a zero denominator, or a numerator or
    denominator of more digits as written than ``int`` reads (counted before
    any power of ten is built) raises ``ParamInvalid`` "bad rational <text>",
    cut short, at its 1-based ``position`` in a list when given.  A rational
    (an int, a ``Fraction``) or a finite float is read exactly; any other
    value, a bool, NaN or infinity, raises "expected an exact rational, got ..."."""
    from decimal import Decimal  # here, so that a command that reads no rational loads none
    from fractions import Fraction
    from numbers import Rational

    if isinstance(value, Decimal) and value.is_finite():
        value = str(value)
    if isinstance(value, str):
        match = re.fullmatch(_RATIONAL, value)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        with suppress(ValueError, ZeroDivisionError):  # int(exp) past the digit limit; 1/0
            if match is not None:
                num, den, whole, point, exp = match.groups()
                shift = int(exp or 0) - len(point or "")  # value = int(whole point) * 10**shift
                digits = ((len(num), len(den)) if num is not None else
                          (len(whole + (point or "")) + max(shift, 0), 1 + max(-shift, 0)))
                if not limit or max(digits) <= limit:
                    return Fraction(value)
        raise ParamInvalid(f"bad rational {token_text(value, position)}")
    if (isinstance(value, Rational) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    raise ParamInvalid(f"expected an exact rational, got {value_text(value)}")


def decimal_int(text: str) -> int:
    """The integer written in ``text`` as ASCII ``[+-]?[0-9]+``; the other
    spellings ``int`` takes (``1_0``, Arabic-Indic digits, padding blanks)
    raise ``ValueError``, as text ``int`` cannot read does."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def token_text(token: str, position: int | None = None) -> str:
    """``token`` quoted for an error message, cut to 12 characters, and its
    1-based ``position`` in a list when given: short for any input."""
    cut = "..." if len(token) > 12 else ""
    return f"{token[:12]!r}{cut}" + ("" if position is None else f" at position {position}")
