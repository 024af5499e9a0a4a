import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpc import ParamInvalid, rate_report_d1, rate_report_d2, rate_report_tn, unrank
from bpc._util import (
    MAX_INT_BITS,
    Record,
    ceil_rational_power,
    check_int_bits,
    decimal_fraction,
    decimal_int,
    factorial_bits,
    int_text,
    log2_int,
)
from support import LARGEST_N, default_digit_limit, reference_ceil_rational_power


def factorial_limit_message(n: int) -> str:
    return (f"{int_text(n)}! needs up to {int_text(factorial_bits(n))} bits, "
            f"past the {MAX_INT_BITS}-bit limit on exact integers")


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

    @pytest.mark.parametrize("n,eps", [
        (10 ** 60, Fraction(1, 2)),
        (10 ** 400, Fraction(9, 10)),
        (2 * 10 ** 60, Fraction(1, 2)),
        (10 ** 60 + 1, Fraction(1, 2)),
        (2 ** 300, Fraction(1, 3)),
        (2 ** 300 + 1, Fraction(1, 3)),
    ], ids=["1e60", "1e400", "2e60", "1e60+1", "2^300", "2^300+1"])
    def test_past_float_range_is_past_the_factorial_limit(self, n, eps):
        # every n that serves a rate report is below 2**18; past float range
        # its n! is refused before the root is taken
        with pytest.raises(ParamInvalid) as info:
            ceil_rational_power(n, eps)
        assert str(info.value) == factorial_limit_message(n)

    def test_matches_the_float_seeded_reference_exhaustively(self):
        exponents = sorted({Fraction(p, q) for q in range(2, 9) for p in range(1, q)})
        for n in range(1, 3000):
            for eps in exponents:
                assert ceil_rational_power(n, eps) == reference_ceil_rational_power(n, eps)

    def test_matches_the_float_seeded_reference_on_seeded_cases(self):
        # n**eps < n < 2**18 here, so the reference's walk is short
        rng = random.Random(22)
        for _ in range(5000):
            q = rng.randint(2, 400)
            eps = Fraction(rng.randint(1, q - 1), q)
            n = rng.randint(1, min(2 ** rng.randint(1, 18), LARGEST_N))
            assert ceil_rational_power(n, eps) == reference_ceil_rational_power(n, eps)

    @pytest.mark.parametrize("n", [LARGEST_N, LARGEST_N - 1])
    def test_defining_inequality_at_the_largest_n(self, n):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10000),
                    Fraction(9999, 10000), Fraction(5000, 9999)):
            p, q = eps.numerator, eps.denominator
            m = ceil_rational_power(n, eps)
            assert (m - 1) ** q < n ** p <= m ** q

    def test_seeded_inputs_to_1000_digits_are_past_the_factorial_limit(self):
        rng = random.Random(24)
        cases = [(10 ** 1000 - 1, Fraction(99, 100)), (10 ** 1000 - 1, Fraction(999, 1000))]
        while len(cases) < 18:
            q = rng.randint(2, 1000)
            n = rng.randint(1, 10 ** rng.randint(1, 1000))
            cases.append((n, Fraction(rng.randint(1, q - 1), q)))
        for n, eps in cases:  # from 25 to 1000 digits
            with pytest.raises(ParamInvalid) as info:
                ceil_rational_power(n, eps)
            assert str(info.value) == factorial_limit_message(n)

    def test_size_limit_refuses_a_huge_n_before_building_its_power(self):
        n = 10 ** 4299  # 4300 digits: n**9999 would have about 1.4e8 bits
        with pytest.raises(ParamInvalid) as info:
            ceil_rational_power(n, Fraction(9999, 10000))
        assert str(info.value) == factorial_limit_message(n)
        # the bound is n * bit_length(n), checked before n**p is built
        with pytest.raises(ParamInvalid, match="-bit limit on exact integers$"):
            ceil_rational_power(2 ** (MAX_INT_BITS // 1000), Fraction(1000, 1001))


class TestSizeLimit:
    def test_factorial_bits_bounds_the_bit_length(self):
        for m in [*range(1, 300), 1000, 4096, 65536]:
            assert math.factorial(m).bit_length() <= factorial_bits(m)

    def test_check_names_the_limit(self):
        check_int_bits(MAX_INT_BITS, "x")
        with pytest.raises(ParamInvalid) as info:
            check_int_bits(MAX_INT_BITS + 1, "x")
        assert str(info.value) == (f"x needs up to {MAX_INT_BITS + 1} bits, "
                                   f"past the {MAX_INT_BITS}-bit limit on exact integers")

    def test_unrank_and_rate_reports_check_n_factorial_first(self):
        big = LARGEST_N + 1
        for call in (lambda: unrank(0, big), lambda: rate_report_d1(2 * big),
                     lambda: rate_report_d2(4 * big, N=4), lambda: rate_report_tn(4 * big, k=2),
                     lambda: unrank(0, 10 ** 21), lambda: rate_report_d1(10 ** 21)):
            with pytest.raises(ParamInvalid, match="-bit limit on exact integers"):
                call()

    @pytest.mark.parametrize("n", [2 * 10 ** 60, 4 * (LARGEST_N + 1)], ids=["2e60", "4(max+1)"])
    def test_an_exponent_refuses_n_as_an_explicit_parameter_does(self, n):
        # the root is not taken, so no derived N or k is named instead of n!
        for call in (lambda: rate_report_d2(n, epsilon=Fraction(1, 2)),
                     lambda: rate_report_tn(n, epsilon_k=Fraction(1, 2)),
                     lambda: rate_report_d2(n, N=4), lambda: rate_report_tn(n, k=2)):
            with pytest.raises(ParamInvalid) as info:
                call()
            assert str(info.value) == factorial_limit_message(n)

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

    def test_a_denominator_past_the_digit_limit_is_named_by_its_size(self):
        with default_digit_limit(), pytest.raises(ParamInvalid) as info:
            ceil_rational_power(64, Fraction(1, 10 ** 5000))
        assert str(info.value).startswith("exponent denominator <16610-bit integer> is too large")


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

    @pytest.mark.parametrize("text", [
        "1e4299", "1e-4299", "9" * 4300, "1/" + "9" * 4300, "9" * 4300 + "/7",
        "1" * 2000 + "." + "1" * 2300, "0." + "0" * 4298 + "1", "12e4298", "1.5e4299",
    ], ids=["1e4299", "1e-4299", "9x4300", "1/9x4300", "9x4300/7", "1x2000.1x2300",
            "0.0x4298-1", "12e4298", "1.5e4299"])
    def test_text_within_the_digit_limit_reads_as_fraction_reads_it(self, text):
        with default_digit_limit():
            assert decimal_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", [
        "1e4300", "1e-4300", "9" * 4301, "1/" + "9" * 4301, "9" * 4301 + "/7",
        "1" * 2000 + "." + "1" * 2301, "0." + "0" * 4299 + "1", "12e4299", "1.5e4300",
        "1e99999999", "-1e-99999999", "1e" + "9" * 5000,
    ], ids=["1e4300", "1e-4300", "9x4301", "1/9x4301", "9x4301/7", "1x2000.1x2301",
            "0.0x4299-1", "12e4299", "1.5e4300", "1e99999999", "-1e-99999999", "1e9x5000"])
    def test_text_past_the_digit_limit_is_a_value_error(self, text):
        # the count is of the numerator and the denominator as written, before
        # reduction: 1e4300 is 10**4300, 4301 digits, as int("1" + "0" * 4300)
        with default_digit_limit(), pytest.raises(ValueError):
            decimal_fraction(text)


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
