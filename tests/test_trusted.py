"""The unchecked construction of values the library assembles itself.

``Record._trusted_rows`` builds values unchecked, and ``Record._trusted`` is
its one-row case, through the same per-class slot setters.  ``unrank``, the
encoders and ``interleave`` build their permutation, and the decoders their
``D1Input``/``D2Input``/``TnInput``, by ``_trusted``;
``_project`` builds its blocks, and the census its achievers, in one call
each; the verifiers and the streaming encoder build their records in bulk.
Neither runs the public constructor's checks.  The round trips here run
with both routed back, row by row, through the checking constructors, so every
value those paths build at these sizes is shown to pass the checks it skips.
Values built unchecked must equal, hash, print and pickle like the ones the
keyword constructors build, and a permutation starts with an empty
``_devs2`` memo.
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
    disc,
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
from bpc.perm_core import _project
from support import (
    all_d1_inputs,
    all_d2_inputs,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_check_two_neighbor,
    reference_devs2,
    reference_encode_d1_streaming,
    reference_verify_balance,
)

D2_SHAPES = [(n, N) for n in range(1, 17) for N in range(4, n + 1, 4) if n % N == 0]
TN_SHAPES = [(n, k) for n in range(1, 17) for k in range(2, n + 1, 2)
             if n % k == 0 and (n // k) % 2 == 0]


@pytest.fixture
def checked(monkeypatch):
    """Build every unchecked row, and every one-row build, with the checking
    public constructor; the counter shows how many values of each type the
    test under it built."""
    built = Counter()

    def build_rows(cls, *columns):
        rows = tuple(cls(*row) for row in zip(*columns))
        built[cls.__name__] += len(rows)
        return rows

    monkeypatch.setattr(Record, "_trusted_rows", classmethod(build_rows))
    monkeypatch.setattr(Record, "_trusted", classmethod(
        lambda cls, *values: build_rows(cls, *zip(values))[0]))
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
    assert checked["Permutation"] == 2 * len(inputs) * (1 + N)  # a codeword, N blocks


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
    assert checked["Permutation"] == 200 * (1 + params.m)  # a codeword, n/k blocks


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


# every path that builds permutations unchecked, at n = 16 for the codecs:
# d1 blocks of 8, d2 (16, 8) blocks of 2, tn (16, 4) sets of 4
TRUSTED = {
    "unrank": lambda rng: (unrank(0, 1), unrank(5, 3), unrank(rng.randrange(factorial(9)), 9)),
    "encode_d1": lambda rng: (encode_d1(random_d1_input(rng, 16)),),
    "interleave": lambda rng: (interleave(random_d1_input(rng, 16)),),
    "encode_d2": lambda rng: (encode_d2(random_d2_input(rng, D2Params(16, 8))),),
    "encode_tn": lambda rng: (encode_tn(random_valid_input(TnParams(16, 4), rng)),),
    "_project/d1": lambda rng: _project(random_permutation(rng, 16), 8),
    "_project/d2": lambda rng: _project(random_permutation(rng, 16), 2),
    "_project/tn": lambda rng: _project(random_permutation(rng, 16), 4),
    "census/unsearched": lambda rng: census(5, d1_preset(5), cap=4).achievers,
    "census/searched": lambda rng: census(
        7, BalanceSpec(7, (2,), {2: Fraction(3, 2)}), cap=5).achievers,
}


@pytest.mark.parametrize("source", TRUSTED)
def test_trusted_permutations_are_checked_ones_with_an_empty_memo(source):
    built = TRUSTED[source](random.Random(source))
    assert built
    assert_same_values(built, tuple(Permutation(pi.values) for pi in built))
    for pi in built:
        assert type(pi) is Permutation and pi._devs2 is None
        assert verify_balance(pi, d1_preset(pi.n)).is_valid  # the first read fills it
        devs2 = pi._devs2
        assert type(devs2) is tuple and list(devs2) == reference_devs2(pi)
        disc(pi, 1)
        assert pi._devs2 is devs2


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
    (Permutation, ([(3, 1, 4, 2), (1,), (2, 1)],)),
])
def test_bulk_built_records_equal_keyword_built_ones(cls, columns):
    built = cls._trusted_rows(*columns)
    keyword_built = tuple(cls(**dict(zip(cls._names, row))) for row in zip(*columns))
    assert_same_values(built, keyword_built)
    assert_same_values(tuple(cls._trusted(*row) for row in zip(*columns)), keyword_built)
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
