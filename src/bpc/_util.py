"""Small exact-arithmetic helpers used by several modules."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParamInvalid


def ceil_rational_power(n: int, exponent: Fraction) -> int:
    """Smallest integer m with m >= n**exponent, computed exactly.

    For exponent p/q this is the rounded-up integer q-th root of n**p; a
    float seed is corrected by exact integer comparisons.
    """
    if n < 1:
        raise ParamInvalid("base must be >= 1")
    if not 0 < exponent < 1:
        raise ParamInvalid("exponent must lie in (0, 1)")
    p, q = exponent.numerator, exponent.denominator
    if q > 10_000:
        # a binary-float exponent smuggled into Fraction would make n**p
        # astronomically large; demand an intentionally exact rational
        raise ParamInvalid(
            f"exponent denominator {q} is too large; pass an exact rational "
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


def decimal_int(text: str) -> int:
    """The integer written in ``text`` as ASCII ``[+-]?[0-9]+``; the other
    spellings ``int`` takes (``1_0``, Arabic-Indic digits, padding blanks)
    raise ``ValueError``, as text ``int`` cannot read does."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)
