"""Integer parameters follow one rule, checked by the type or the function
that takes them: an int or an int subclass passes, and a bool, a float or a
str raises ``ParamInvalid`` ("expected an integer, got ...") before any range
check, never a bare ``TypeError`` and never a silent coercion."""

import enum
from fractions import Fraction

import pytest

from bpc import (
    BalanceSpec,
    D2Params,
    NeighborSpec,
    ParamInvalid,
    Permutation,
    TnInput,
    TnParams,
    census,
    d1_message_input,
    disc,
    min_disc,
    rate_report,
    verify_balance,
)

P = Permutation
SPEC = BalanceSpec(4, (2,), {2: Fraction(1)})
SIGMAS = (P((1, 2)), P((2, 1)))

REFUSED = [
    ("D2Params-n", lambda: D2Params(8.0, 4), 8.0),
    ("D2Params-N", lambda: D2Params(8, True), True),
    ("TnParams-n", lambda: TnParams("8", 4), "8"),
    ("TnParams-k", lambda: TnParams(8, 4.0), 4.0),
    ("NeighborSpec-float", lambda: NeighborSpec(2.5), 2.5),
    ("NeighborSpec-bool", lambda: NeighborSpec(True), True),
    ("BalanceSpec-n", lambda: BalanceSpec(True, (1,), {1: 1}), True),
    ("BalanceSpec-length", lambda: BalanceSpec(4, (1.5,), {1.5: 1}), 1.5),
    ("BalanceSpec-bool-length", lambda: BalanceSpec(4, (1, True), {1: 1, True: 1}), True),
    ("TnInput-float", lambda: TnInput(TnParams(4, 2), SIGMAS, (1.0, 2)), 1.0),
    ("TnInput-bool", lambda: TnInput(TnParams(4, 2), SIGMAS, (1, True)), True),
    ("TnInput-str", lambda: TnInput(TnParams(4, 2), SIGMAS, ("1", 2)), "1"),
    ("rate_report-N", lambda: rate_report("d2", 16, N=4.0), 4.0),
    ("rate_report-k", lambda: rate_report("tn", 16, k=True), True),
    ("census-n", lambda: census(4.0, SPEC), 4.0),
    ("census-cap", lambda: census(4, SPEC, cap=True), True),
    ("census-workers", lambda: census(4, SPEC, workers=True), True),
    ("census-limit", lambda: census(4, SPEC, limit=10.5), 10.5),
    ("min_disc-n", lambda: min_disc(4.0, 2), 4.0),
    ("min_disc-b", lambda: min_disc(4, 2.0), 2.0),
    ("min_disc-limit", lambda: min_disc(4, 2, limit=True), True),
    ("min_disc-workers", lambda: min_disc(4, 2, workers=1.5), 1.5),
    ("disc-bool", lambda: disc(P((1, 5, 2, 4, 3, 6)), True), True),
    ("disc-float", lambda: disc(P((1, 5, 2, 4, 3, 6)), 2.0), 2.0),
    ("d1_message_input-n", lambda: d1_message_input(0, 0, 4.0), 4.0),
]


@pytest.mark.parametrize("call, bad", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_non_integer_is_refused_by_name(call, bad):
    with pytest.raises(ParamInvalid) as info:
        call()
    assert str(info.value) == f"expected an integer, got {bad!r}"


class Num(enum.IntEnum):
    ONE = 1
    TWO = 2
    FOUR = 4
    EIGHT = 8
    TEN = 10


def test_an_int_enum_member_works_wherever_an_int_does():
    assert D2Params(Num.EIGHT, Num.FOUR) == D2Params(8, 4)
    assert TnParams(Num.EIGHT, Num.FOUR) == TnParams(8, 4)
    assert NeighborSpec(Num.TWO) == NeighborSpec(2)
    spec = BalanceSpec(Num.FOUR, (Num.TWO,), {Num.TWO: Fraction(1)})
    assert spec == SPEC
    pi = P((1, 4, 2, 3))
    assert verify_balance(pi, spec) == verify_balance(pi, SPEC)
    assert TnInput(TnParams(4, 2), SIGMAS, (Num.ONE, Num.TWO)) == \
        TnInput(TnParams(4, 2), SIGMAS, (1, 2))
    assert census(Num.FOUR, SPEC, cap=Num.TWO, limit=Num.TEN, workers=Num.ONE) == \
        census(4, SPEC, cap=2)
    assert min_disc(Num.FOUR, Num.TWO, limit=Num.TEN) == min_disc(4, 2)
    assert disc(P((1, 5, 2, 4, 3, 6)), Num.ONE) == Fraction(5, 2)
    assert d1_message_input(Num.ONE, Num.TWO, Num.EIGHT) == d1_message_input(1, 2, 8)
    assert rate_report("d2", 16, N=Num.FOUR) == rate_report("d2", 16, N=4)
