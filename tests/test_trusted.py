"""The unchecked construction of values the library assembles itself.

``unrank``, the encoders, ``interleave``, ``_project`` and the census build
their permutations with ``Permutation._trusted``, and the decoders build
their ``D1Input``/``D2Input``/``TnInput`` with ``Record._trusted``; neither
runs the public constructor's checks.  The round trips here run with both
routed back through the checking constructors, so every value those paths
build at these sizes is shown to pass the checks it skips.  The verifiers
and the streaming encoder build their records in bulk, by
``Record._trusted_rows``; those must be the values the keyword constructors
build.
"""

import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from bpc import (
    BalanceSpec,
    BalanceViolation,
    D1Input,
    D2Input,
    D2Params,
    NeighborSpec,
    NeighborViolation,
    NotCodeword,
    NotPermutation,
    Permutation,
    SelectorViolation,
    TnParams,
    TranspositionStep,
    census,
    check_two_neighbor,
    d1_message_decode,
    d1_message_encode,
    d1_preset,
    decode_d1,
    decode_d2,
    decode_tn,
    encode_d1,
    encode_d1_streaming,
    encode_d2,
    encode_tn,
    interleave,
    random_valid_input,
    rank,
    unrank,
    verify_balance,
)
from bpc._util import Record
from support import (
    all_d1_inputs,
    all_d2_inputs,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_check_two_neighbor,
    reference_encode_d1_streaming,
    reference_verify_balance,
)

D2_SHAPES = [(n, N) for n in range(1, 17) for N in range(4, n + 1, 4) if n % N == 0]
TN_SHAPES = [(n, k) for n in range(1, 17) for k in range(2, n + 1, 2)
             if n % k == 0 and (n // k) % 2 == 0]


@pytest.fixture
def checked(monkeypatch):
    """Route every trusted build through the checking public constructor;
    the counter shows which types the test under it built that way."""
    built = Counter()

    def build(cls, *values):
        built[cls.__name__] += 1
        return cls(*values)

    for owner in (Record, Permutation):
        monkeypatch.setattr(owner, "_trusted", classmethod(build))
    return built


def test_shapes_are_every_valid_shape_up_to_16():
    assert D2_SHAPES == [(4, 4), (8, 4), (8, 8), (12, 4), (12, 12), (16, 4), (16, 8), (16, 16)]
    assert TN_SHAPES == [(4, 2), (8, 2), (8, 4), (12, 2), (12, 6), (16, 2), (16, 4), (16, 8)]


@pytest.mark.parametrize("n", range(1, 9))
def test_unrank_and_rank_over_all_of_s_n(checked, n):
    for index in range(factorial(n)):
        assert rank(unrank(index, n)) == index
    assert checked["Permutation"] == factorial(n)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_d1_round_trips_over_every_input(checked, n):
    half = n // 2
    for inp in all_d1_inputs(n):
        pi = encode_d1(inp)
        assert encode_d1_streaming(inp)[0] == pi
        assert decode_d1(pi) == inp == decode_d1(interleave(inp))
        i1, i2 = rank(inp.gamma1), rank(inp.gamma2)
        assert d1_message_decode(d1_message_encode(i1, i2, n)) == (i1, i2)
    assert checked["D1Input"] == 3 * factorial(half) ** 2


@pytest.mark.parametrize("n, N", D2_SHAPES)
def test_d2_round_trips_over_every_valid_shape(checked, n, N):
    params = D2Params(n, N)
    if factorial(params.block_size) ** N <= 2000:
        inputs = list(all_d2_inputs(params))
    else:  # (16, 4) has 24**4 inputs; a seeded sample of them
        rng = random.Random(f"trusted/{n}/{N}")
        inputs = [random_d2_input(rng, params) for _ in range(300)]
    for inp in inputs:
        assert decode_d2(encode_d2(inp), params) == inp
        assert decode_d2(encode_d2(inp, tie_to_upper=True), params) == inp
    assert checked["D2Input"] == 2 * len(inputs)


@pytest.mark.parametrize("n, N", D2_SHAPES)
def test_d2_decodes_any_permutation(checked, n, N):
    params = D2Params(n, N)
    rng = random.Random(f"trusted/any/{n}/{N}")
    for _ in range(200):
        inp = decode_d2(random_permutation(rng, n), params)
        assert decode_d2(encode_d2(inp), params) == inp
    assert checked["D2Input"] == 400


@pytest.mark.parametrize("n, k", TN_SHAPES)
def test_tn_round_trips_over_every_valid_shape(checked, n, k):
    params = TnParams(n, k)
    rng = random.Random(f"trusted/{n}/{k}")
    for _ in range(200):
        inp = random_valid_input(params, rng)
        assert decode_tn(encode_tn(inp), params) == inp
    assert checked["TnInput"] == 200


@pytest.mark.parametrize("n, k", [shape for shape in TN_SHAPES if shape[0] <= 8])
def test_tn_decodes_every_codeword(checked, n, k):
    """Every codeword lies in S_n: each permutation that decodes and encodes
    back is one, so this walks the whole code."""
    params = TnParams(n, k)
    codewords = 0
    for values in itertools.permutations(range(1, n + 1)):
        pi = Permutation(values)
        try:
            inp = decode_tn(pi, params)
            word = encode_tn(inp)
        except (NotCodeword, SelectorViolation):
            continue
        assert word == pi
        codewords += 1
    assert codewords == params.code_size


def test_census_achievers(checked):
    unchecked = census(6, d1_preset(6), cap=720)  # nothing to check: S_6 itself
    searched = census(7, BalanceSpec(7, (2,), {2: Fraction(3, 2)}), cap=100)
    assert (unchecked.count, len(unchecked.achievers)) == (720, 720)
    assert (searched.count, len(searched.achievers)) == (26, 26)
    assert checked["Permutation"] == 720 + 26


def test_trusted_values_equal_hash_repr_and_pickle_like_checked_ones():
    values = (3, 1, 4, 2)
    trusted = Permutation._trusted(values)
    assert trusted == Permutation(values)
    assert hash(trusted) == hash(Permutation(values))
    assert repr(trusted) == repr(Permutation(values)) == "Permutation(values=(3, 1, 4, 2))"
    assert pickle.loads(pickle.dumps(trusted)) == Permutation(values)

    decoded = decode_d1(Permutation((3, 1, 4, 2)))  # built by Record._trusted
    twin = D1Input(Permutation((1, 2)), Permutation((1, 2)))
    assert type(decoded) is D1Input
    assert decoded == twin and hash(decoded) == hash(twin)
    assert repr(decoded) == repr(twin)
    assert pickle.loads(pickle.dumps(decoded)) == twin

    d2 = decode_d2(Permutation((2, 1, 4, 3)), D2Params(4, 4))
    assert d2 == D2Input(D2Params(4, 4), (Permutation((1,)),) * 4)


def test_unpickling_a_trusted_value_runs_the_checks():
    # _trusted is only for valid values; unpickling rebuilds through the
    # checking constructor, whatever was pickled
    with pytest.raises(NotPermutation, match="appears more than once"):
        pickle.loads(pickle.dumps(Permutation._trusted((1, 1))))


def assert_same_values(built, keyword_built):
    assert built == keyword_built  # by class and fields
    assert list(map(hash, built)) == list(map(hash, keyword_built))
    assert list(map(repr, built)) == list(map(repr, keyword_built))
    assert pickle.loads(pickle.dumps(built)) == keyword_built


@pytest.mark.parametrize("cls, columns", [
    (BalanceViolation, ([3, 5, 5], [1, 2, 9], [10, 4, 21], [Fraction(15, 2), Fraction(25, 2)] * 2,
                        [Fraction(1), Fraction(3, 2), Fraction(3, 2)],
                        [Fraction(5, 2), Fraction(17, 2), Fraction(0)])),
    (NeighborViolation, ([2, 7], [5, 6], [9, 4], [3, 3])),
    (TranspositionStep, ([1, 4, 6], [8, 2, 5])),
])
def test_bulk_built_records_equal_keyword_built_ones(cls, columns):
    built = cls._trusted_rows(*columns)
    keyword_built = tuple(cls(**dict(zip(cls._names, row))) for row in zip(*columns))
    assert_same_values(built, keyword_built)
    assert cls._trusted_rows(*([] for _ in columns)) == ()


def test_verifier_and_trace_records_equal_keyword_built_ones():
    rng = random.Random("trusted/rows")
    pi = random_permutation(rng, 64)
    spec = BalanceSpec(64, (2, 5), {2: Fraction(20), 5: Fraction(41, 2)})
    balance = verify_balance(pi, spec).entries
    assert balance
    assert_same_values(balance, reference_verify_balance(pi, spec).entries)
    neighbor = check_two_neighbor(pi, NeighborSpec(8)).entries
    assert neighbor
    assert_same_values(neighbor, reference_check_two_neighbor(pi, NeighborSpec(8)).entries)
    inp = random_d1_input(rng, 64)
    steps = encode_d1_streaming(inp)[1].steps
    assert steps
    assert_same_values(steps, tuple(TranspositionStep(position=j, moved_symbol=v)
                                    for j, v in reference_encode_d1_streaming(inp)[1]))
