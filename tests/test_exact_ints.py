"""Integer parameters follow one rule, checked by the type or the function
that takes them: an int or an int subclass passes, and a bool, a float or a
str raises ``ParamInvalid`` ("expected an integer, got ...") before any range
check, never a bare ``TypeError`` and never a silent coercion.  Each rule
built on it is stated once: a floored int (``_util.at_least``), a tuple of
ints (``_util.exact_ints``) and d1's even length (``d1_codec._half``)."""

import enum
import inspect
import re
from fractions import Fraction

import pytest

import bpc
from bpc import (
    BalanceSpec,
    D2Input,
    D2Params,
    NeighborSpec,
    OddLength,
    ParamInvalid,
    Permutation,
    TnInput,
    TnParams,
    census,
    d1_claim_suite,
    d1_message_encode,
    d1_message_input,
    d1_preset,
    d2_preset,
    decode_d1,
    disc,
    identity,
    min_disc,
    prefix_deviation,
    rate_report,
    rate_report_d1,
    rate_report_d2,
    rate_report_tn,
    tn_code_size,
    unrank,
    verify_balance,
    window_sum,
)
from bpc._util import exact_ints

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
    SIXTEEN = 16


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


PI = P((1, 5, 2, 4, 3, 6))

# One valid call, by keyword, of each public entry point that takes an int.
VALID_CALLS = [
    ("census", census, dict(n=4, spec=SPEC, cap=1, limit=10, workers=0)),
    ("min_disc", min_disc, dict(n=4, b=2, limit=10, workers=0)),
    ("d1_claim_suite", d1_claim_suite, dict(perms=[PI], n=6)),
    ("tn_code_size", tn_code_size, dict(params=TnParams(8, 4), limit=10)),
    ("rate_report-d2", rate_report, dict(config="d2", n=16, N=4)),
    ("rate_report-tn", rate_report, dict(config="tn", n=16, k=4)),
    ("rate_report_d1", rate_report_d1, dict(n=8)),
    ("rate_report_d2-N", rate_report_d2, dict(n=16, N=4)),
    ("rate_report_d2-epsilon", rate_report_d2, dict(n=16, epsilon=Fraction(1, 2))),
    ("rate_report_tn", rate_report_tn, dict(n=16, k=4)),
    ("d1_message_input", d1_message_input, dict(i1=0, i2=1, n=8)),
    ("d1_message_encode", d1_message_encode, dict(i1=0, i2=1, n=8)),
    ("D2Params", D2Params, dict(n=8, N=4)),
    ("d2_preset", d2_preset, dict(n=8, num_blocks=4)),
    ("TnParams", TnParams, dict(n=8, k=4)),
    ("BalanceSpec", BalanceSpec, dict(n=4, blocks=(2,), dev_max={2: Fraction(1)})),
    ("NeighborSpec", NeighborSpec, dict(k=2)),
    ("d1_preset", d1_preset, dict(n=4)),
    ("identity", identity, dict(n=4)),
    ("disc", disc, dict(pi=PI, b=2)),
    ("prefix_deviation", prefix_deviation, dict(pi=PI, j=2)),
    ("window_sum", window_sum, dict(pi=PI, j=2, b=2)),
    ("unrank", unrank, dict(index=5, n=3)),
]

# Integers inside a container argument: a spec length (in the lengths and
# the keys of dev_max) and a selector entry.
ENTRY_CASES = [
    ("BalanceSpec", ("blocks", "dev_max"),
     lambda bad: BalanceSpec(4, (1, bad), {1: 1, bad: 1})),
    ("TnInput", ("selector",), lambda bad: TnInput(TnParams(4, 2), SIGMAS, (1, bad))),
]


def _matrix():
    """Each valid call with one int argument swapped for True and for its
    float, plus each tuple entry swapped likewise."""
    cases = []
    for label, fn, kwargs in VALID_CALLS:
        for name, value in kwargs.items():
            if type(value) is int:
                for bad in (True, float(value)):
                    call = (lambda fn=fn, kw={**kwargs, name: bad}: fn(**kw))
                    cases.append(pytest.param(call, bad, id=f"{label}-{name}-{bad!r}"))
    for public, names, build in ENTRY_CASES:
        for bad in (True, 2.0):
            cases.append(pytest.param(lambda build=build, bad=bad: build(bad), bad,
                                      id=f"{public}-{names[0]}-entry-{bad!r}"))
    return cases


@pytest.mark.parametrize("label, fn, kwargs", VALID_CALLS,
                         ids=[label for label, _, _ in VALID_CALLS])
def test_matrix_calls_are_valid(label, fn, kwargs):
    fn(**kwargs)


@pytest.mark.parametrize("call, bad", _matrix())
def test_every_public_int_argument_refuses_bool_and_float(call, bad):
    with pytest.raises(ParamInvalid) as info:
        call()
    assert str(info.value) == f"expected an integer, got {bad!r}"


# Public callables with int-annotated parameters that the matrix leaves out:
# result records (built by the library from values it computed), the
# permutation constructors (which raise NotPermutation on a bad symbol), and
# mandated_half (which takes a deviation, a Fraction or an int).
EXEMPT = {
    "BoundResult", "CensusResult", "ClaimReport", "RateReport", "TranspositionStep",
    "Cell", "CellSchedule", "BalanceViolation", "NeighborViolation", "SelectorViolation",
    "Permutation", "make_permutation", "mandated_half",
}


def _int_parameters(obj) -> list:
    """The parameters of ``obj`` whose annotation names ``int``."""
    try:
        parameters = inspect.signature(obj).parameters.values()
    except ValueError:  # the exception classes of bpc.errors take Exception's arguments
        return []
    return [p for p in parameters if re.search(r"\bint\b", str(p.annotation))]


def test_the_matrix_covers_every_public_int_parameter():
    swapped = {(fn.__name__, name) for _, fn, kwargs in VALID_CALLS
               for name, value in kwargs.items() if type(value) is int}
    swapped |= {(public, name) for public, names, _ in ENTRY_CASES for name in names}
    missing = []
    for public in bpc._HOME:
        obj = getattr(bpc, public)
        if public in EXEMPT or not callable(obj):
            continue
        missing += [f"{public}({p})" for p in _int_parameters(obj)
                    if (public, p.name) not in swapped]
    assert missing == []
    assert {fn.__name__ for _, fn, _ in VALID_CALLS} & EXEMPT == set()


FLOORS = [
    ("identity", lambda: identity(0), "length must be >= 1"),
    ("unrank", lambda: unrank(0, 0), "length must be >= 1"),
    ("d1_preset", lambda: d1_preset(0), "preset length must be >= 1"),
    ("BalanceSpec", lambda: BalanceSpec(0, (), {}), "spec length must be >= 1"),
    ("NeighborSpec", lambda: NeighborSpec(0), "neighbor bound k must be >= 1"),
    ("census-n", lambda: census(0, SPEC), "n must be >= 1"),
    ("min_disc-n", lambda: min_disc(-1, 2), "n must be >= 1"),
    ("base", lambda: rate_report_d2(0, epsilon=Fraction(1, 2)), "base must be >= 1"),
    ("census-workers", lambda: census(4, SPEC, workers=-1), "worker count must be >= 0"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in FLOORS],
                         ids=[case[0] for case in FLOORS])
def test_floor_messages(call, message):
    with pytest.raises(ParamInvalid) as info:
        call()
    assert type(info.value) is ParamInvalid and str(info.value) == message


def test_an_int_enum_member_passes_every_floor():
    assert identity(Num.FOUR) == identity(4)
    assert unrank(Num.TWO, Num.FOUR) == unrank(2, 4)
    assert d1_preset(Num.FOUR) == d1_preset(4)
    assert BalanceSpec(Num.FOUR, (1, Num.TWO), {1: 1, 2: 1}) == \
        BalanceSpec(4, (1, 2), {1: 1, 2: 1})
    assert NeighborSpec(Num.ONE) == NeighborSpec(1)
    assert census(Num.FOUR, SPEC, workers=Num.ONE) == census(4, SPEC)
    assert rate_report_d2(Num.SIXTEEN, epsilon=Fraction(1, 2)) == \
        rate_report_d2(16, epsilon=Fraction(1, 2))
    assert rate_report_d1(Num.EIGHT) == rate_report_d1(8)
    assert TnInput(TnParams(4, 2), SIGMAS, [1, Num.TWO]) == \
        TnInput(TnParams(4, 2), SIGMAS, (1, 2))


def _refusal(call) -> tuple[type, str]:
    with pytest.raises(ParamInvalid) as info:
        call()
    return type(info.value), str(info.value)


def test_d1_even_length_is_one_rule():
    assert issubclass(OddLength, ParamInvalid)
    assert _refusal(lambda: d1_message_input(0, 0, 7)) == \
        _refusal(lambda: decode_d1(P((1, 2, 3, 4, 5, 6, 7)))) == \
        _refusal(lambda: rate_report_d1(7)) == (OddLength, "length 7 is odd")
    for n in (0, -2):  # no permutation has such a length, so decode_d1 is out
        assert _refusal(lambda: d1_message_input(0, 0, n)) == \
            _refusal(lambda: rate_report_d1(n)) == (ParamInvalid, "length must be >= 2")


def test_sequences_are_stored_as_tuples():
    tn = TnParams(4, 2)
    listed, tupled = TnInput(tn, list(SIGMAS), [1, 2]), TnInput(tn, SIGMAS, (1, 2))
    assert (type(listed.sigmas), type(listed.selector)) == (tuple, tuple)
    assert listed == tupled and hash(listed) == hash(tupled)
    d2 = D2Params(8, 4)
    listed, tupled = D2Input(d2, [P((1, 2))] * 4), D2Input(d2, (P((1, 2)),) * 4)
    assert type(listed.sigmas) is tuple
    assert listed == tupled and hash(listed) == hash(tupled)


def test_exact_ints_names_the_first_bad_entry_and_keeps_int_subclasses():
    ints = (1, 2, 3)
    assert exact_ints(ints) is ints
    assert exact_ints([1, Num.TWO]) == (1, 2)
    assert exact_ints(()) == ()
    with pytest.raises(ParamInvalid, match=r"^expected an integer, got 2\.0$"):
        exact_ints([1, 2.0, True])
