"""The value types behave as frozen records: a field repr, equality and hash
by class and fields, no assignment, and a pickle round trip.

The pinned reprs are the text these types printed when they were frozen
dataclasses; the slot classes must keep printing it."""

import pickle
from fractions import Fraction

import pytest

from bpc import (
    BalanceSpec,
    BalanceViolation,
    BoundResult,
    CensusResult,
    ClaimReport,
    CounterExample,
    D1Input,
    D2Input,
    D2Params,
    NeighborSpec,
    NeighborViolation,
    Permutation,
    RateReport,
    TnInput,
    TnParams,
    TranspositionStep,
    ViolationReport,
)
from bpc._util import Record
from bpc.d1_codec import TranspositionTrace

P = Permutation

# (factory, repr, hashable): a factory builds a new, equal value on each call
CASES = [
    (lambda: P((2, 1, 3)), "Permutation(values=(2, 1, 3))", True),
    (lambda: BalanceSpec(3, (1, 2), {1: Fraction(1), 2: Fraction(3, 2)}),
     "BalanceSpec(n=3, blocks=(1, 2), dev_max={1: Fraction(1, 1), 2: Fraction(3, 2)})", False),
    (lambda: NeighborSpec(2), "NeighborSpec(k=2)", True),
    (lambda: BalanceViolation(b=2, j=1, window_sum=7, target=Fraction(5),
                              allowed_dev=Fraction(1), actual_dev=Fraction(2)),
     "BalanceViolation(b=2, j=1, window_sum=7, target=Fraction(5, 1), "
     "allowed_dev=Fraction(1, 1), actual_dev=Fraction(2, 1))", True),
    (lambda: NeighborViolation(i=2, left_diff=3, right_diff=2, allowed=1),
     "NeighborViolation(i=2, left_diff=3, right_diff=2, allowed=1)", True),
    (lambda: ViolationReport((NeighborViolation(2, 3, 2, 1),)),
     "ViolationReport(entries=(NeighborViolation(i=2, left_diff=3, right_diff=2, allowed=1),))",
     True),
    (lambda: D1Input(P((1, 2)), P((2, 1))),
     "D1Input(gamma1=Permutation(values=(1, 2)), gamma2=Permutation(values=(2, 1)))", True),
    (lambda: TranspositionStep(position=3, moved_symbol=4),
     "TranspositionStep(position=3, moved_symbol=4)", True),
    (lambda: TranspositionTrace((TranspositionStep(3, 4),)),
     "TranspositionTrace(steps=(TranspositionStep(position=3, moved_symbol=4),))", True),
    (lambda: TranspositionTrace(), "TranspositionTrace(steps=())", True),
    (lambda: D2Params(8, 4), "D2Params(n=8, N=4)", True),
    (lambda: D2Input(D2Params(8, 4), (P((1, 2)), P((2, 1)), P((1, 2)), P((2, 1)))),
     "D2Input(params=D2Params(n=8, N=4), sigmas=(Permutation(values=(1, 2)), "
     "Permutation(values=(2, 1)), Permutation(values=(1, 2)), Permutation(values=(2, 1))))",
     True),
    (lambda: TnParams(8, 4), "TnParams(n=8, k=4)", True),
    (lambda: TnInput(TnParams(8, 4), (P((1, 2, 3, 4)), P((4, 3, 2, 1))), (1, 2, 2, 1)),
     "TnInput(params=TnParams(n=8, k=4), sigmas=(Permutation(values=(1, 2, 3, 4)), "
     "Permutation(values=(4, 3, 2, 1))), selector=(1, 2, 2, 1))", True),
    (lambda: CensusResult(n=3, spec=BalanceSpec(3, (2,), {2: Fraction(1, 2)}), neighbor=None,
                          count=2, achievers=(P((1, 3, 2)),)),
     "CensusResult(n=3, spec=BalanceSpec(n=3, blocks=(2,), dev_max={2: Fraction(1, 2)}), "
     "neighbor=None, count=2, achievers=(Permutation(values=(1, 3, 2)),))", False),
    (lambda: RateReport(config="d1", n=4, code_log2=2.0, perm_log2=4.5, rate=0.5, target=1.0),
     "RateReport(config='d1', n=4, code_log2=2.0, perm_log2=4.5, rate=0.5, target=1.0)", True),
    (lambda: CounterExample(P((2, 1)), "window_bound", {"b": "2"}),
     "CounterExample(perm=Permutation(values=(2, 1)), bound='window_bound', detail={'b': '2'})",
     False),
    (lambda: BoundResult("prefix_bound", 3, 0, None),
     "BoundResult(name='prefix_bound', checked=3, failures=0, first_counterexample=None)", True),
    (lambda: ClaimReport("d1(n=2)", 3, (BoundResult("prefix_bound", 3, 0, None),)),
     "ClaimReport(config='d1(n=2)', total=3, bounds=(BoundResult(name='prefix_bound', "
     "checked=3, failures=0, first_counterexample=None),))", True),
]
IDS = [text.split("(", 1)[0] for _, text, _ in CASES]


def test_every_record_class_is_covered():
    records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("bpc.")}
    assert {type(make()) for make, _, _ in CASES} == records
    assert len(records) == 18


@pytest.mark.parametrize("make, text, hashable", CASES, ids=IDS)
class TestRecord:
    def test_repr_is_the_dataclass_text(self, make, text, hashable):
        assert repr(make()) == text

    def test_equal_fields_give_equal_values_and_hashes(self, make, text, hashable):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:  # a dict field makes the value unhashable, as it made the dataclass
            with pytest.raises(TypeError):
                hash(a)

    def test_never_equal_to_another_class_with_the_same_fields(self, make, text, hashable):
        value = make()
        names = type(value).__slots__
        twin = object.__new__(type("Twin", (Record,), {"__slots__": names}))
        for name in names:
            object.__setattr__(twin, name, getattr(value, name))
        assert value != twin and twin != value
        assert value != tuple(getattr(value, name) for name in names)

    def test_assignment_raises(self, make, text, hashable):
        value = make()
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    def test_pickle_round_trips(self, make, text, hashable):
        value = make()
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
        assert repr(back) == text


def test_different_record_classes_with_equal_values_differ():
    assert TnParams(8, 4) != D2Params(8, 4)
    assert NeighborSpec(2) != P((1, 2))


def test_keyword_construction_and_defaults_are_kept():
    assert P(values=(1,)).values == (1,)
    assert TranspositionTrace().steps == ()
    assert D2Params(N=4, n=8) == D2Params(8, 4)
    with pytest.raises(TypeError):
        NeighborSpec()
