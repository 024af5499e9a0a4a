import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpc import ParamInvalid
from bpc._util import Record, ceil_rational_power, decimal_fraction, decimal_int, log2_int


class TestCeilRationalPower:
    @pytest.mark.parametrize("n,eps,expected", [
        (32, Fraction(3, 5), 8),
        (64, Fraction(1, 2), 8),
        (256, Fraction(1, 2), 16),
        (1024, Fraction(1, 2), 32),
        (30, Fraction(1, 2), 6),
        (2, Fraction(1, 2), 2),
        (1, Fraction(1, 2), 1),
        (1000, Fraction(123, 1000), 3),  # n**p is far beyond float range
    ])
    def test_known_values(self, n, eps, expected):
        assert ceil_rational_power(n, eps) == expected

    @settings(deadline=None)
    @given(st.integers(1, 2000),
           st.fractions(min_value=Fraction(1, 200),
                        max_value=Fraction(199, 200),
                        max_denominator=200))
    def test_exact_ceiling_property(self, n, eps):
        m = ceil_rational_power(n, eps)
        p, q = eps.numerator, eps.denominator
        assert m ** q >= n ** p
        assert m == 1 or (m - 1) ** q < n ** p

    def test_domain(self):
        with pytest.raises(ParamInvalid):
            ceil_rational_power(0, Fraction(1, 2))
        with pytest.raises(ParamInvalid):
            ceil_rational_power(4, Fraction(1))
        with pytest.raises(ParamInvalid):
            ceil_rational_power(4, Fraction(0))

    def test_binary_float_exponent_rejected(self):
        # Fraction(0.6) has a 2**53-scale denominator; computing n**p with
        # p that large must be refused, not attempted
        with pytest.raises(ParamInvalid):
            ceil_rational_power(64, Fraction(0.6))
        # dyadic floats are still exact and small
        assert ceil_rational_power(64, Fraction(0.5)) == 8


class TestLog2Int:
    def test_small_matches_math(self):
        for x in (1, 2, 3, 1024, 10 ** 15):
            assert log2_int(x) == math.log2(x)

    def test_huge_matches_lgamma(self):
        big = math.factorial(1000)  # ~8530 bits, overflows float conversion
        assert log2_int(big) == pytest.approx(
            math.lgamma(1001) / math.log(2), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParamInvalid):
            log2_int(0)


class TestDecimalInt:
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("7", 7), ("+7", 7), ("-7", -7), ("-0", 0), ("007", 7),
        ("9" * 40, int("9" * 40)),
    ])
    def test_ascii_decimal_text(self, text, value):
        assert decimal_int(text) == value

    @pytest.mark.parametrize("text", [
        "", "+", "-", "1_0", "\u0661", "\u0661\u0660", "\uff17", " 7", "7 ", "7\n",
        "0x7", "1.0", "1e3", "+-7", "7-",
    ])
    def test_every_other_spelling_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            decimal_int(text)



class TestDecimalFraction:
    @pytest.mark.parametrize("text", [
        "2", "3/2", "0.6", "1.5", "1e3", "-7", "+3/4", ".5", "1.", "2E-3", "007/010",
    ])
    def test_ascii_text_reads_as_fraction_reads_it(self, text):
        assert decimal_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", [
        "", "+", ".", "e3", "1_0", "1/1_0", "1.0_0", "\u0661", "\u0661/\u0662", "\uff17",
        " 1/2", "1/2 ", "1 / 2", "1/2\n", "nan", "inf", "1/2e3", "0x7", "1/-2",
    ])
    def test_every_other_spelling_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            decimal_fraction(text)

    def test_zero_denominator_raises_as_fraction_does(self):
        with pytest.raises(ZeroDivisionError):
            decimal_fraction("1/0")


class Scaled(Record):
    """A value with one field and one derived slot, its double."""

    __slots__ = ("x", "_twice")

    def __init__(self, x: int):
        self._init(x, 2 * x)


class TestRecordDerivedSlot:
    def tampered(self, x: int) -> Scaled:
        value = Scaled(x)
        object.__setattr__(value, "_twice", -1)
        return value

    def test_field_names_are_computed_once_per_class(self):
        assert Scaled.__dict__["_names"] == ("x",)

    def test_equality_and_hash_ignore_the_slot(self):
        a, b = Scaled(3), self.tampered(3)
        assert a == b and hash(a) == hash(b)
        assert a != Scaled(4)

    def test_repr_ignores_the_slot(self):
        assert repr(self.tampered(3)) == "Scaled(x=3)"

    def test_pickling_ignores_the_slot_and_rebuilds_it(self):
        value = self.tampered(3)
        assert value.__reduce__() == (Scaled, (3,))
        back = pickle.loads(pickle.dumps(value))
        assert back == value and back._twice == 6

    def test_the_slot_cannot_be_assigned(self):
        with pytest.raises(AttributeError, match="cannot assign"):
            Scaled(3)._twice = 0
