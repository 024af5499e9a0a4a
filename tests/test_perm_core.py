import random
from enum import IntEnum
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpc import (
    BalanceSpec,
    IndexOutOfRange,
    NeighborSpec,
    NotPermutation,
    ParamInvalid,
    Permutation,
    SpecMismatch,
    check_two_neighbor,
    d1_preset,
    d2_preset,
    disc,
    format_permutation,
    identity,
    make_permutation,
    parse_permutation,
    prefix_deviation,
    prefix_deviations_doubled,
    rank,
    unrank,
    verify_balance,
    window_sum,
)
from bpc.perm_core import _block_table, _layout, _project
from support import (
    EX1_CODEWORD,
    EX1_INTERLEAVING,
    EX3_CODEWORD,
    brute_window_max_dev,
    reference_check_permutation,
)

perms_strategy = st.integers(1, 40).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda vals: Permutation(tuple(vals)))


class TestMakePermutation:
    def test_codeword_length_12(self):
        pi = make_permutation(EX1_CODEWORD)
        assert pi.n == 12
        assert pi.values == EX1_CODEWORD

    def test_singleton(self):
        assert make_permutation((1,)).n == 1

    def test_duplicate_rejected(self):
        with pytest.raises(NotPermutation):
            make_permutation((1, 1, 3))

    def test_empty_rejected(self):
        with pytest.raises(NotPermutation):
            make_permutation(())

    def test_out_of_range_rejected(self):
        with pytest.raises(NotPermutation):
            make_permutation((0, 1, 2))
        with pytest.raises(NotPermutation):
            make_permutation((2, 3, 4))

    def test_non_integer_rejected(self):
        with pytest.raises(NotPermutation):
            make_permutation((1.0, 2))

    def test_length_iteration_and_text(self):
        pi = Permutation((2, 3, 1))
        assert len(pi) == 3
        assert list(pi) == [2, 3, 1]
        assert str(pi) == "2 3 1"

    def test_identity_of_length_zero_rejected(self):
        with pytest.raises(ParamInvalid, match=r"^length must be >= 1$"):
            identity(0)

    @given(perms_strategy)
    def test_bijection_invariant(self, pi):
        assert sorted(pi.values) == list(range(1, pi.n + 1))


class Symbol(int):
    pass


class Color(IntEnum):
    RED = 1
    GREEN = 2
    BLUE = 3


def check_outcome(check, values):
    """None if ``check`` accepts ``values``, else its ``NotPermutation`` text."""
    try:
        check(values)
    except NotPermutation as exc:
        return str(exc)
    return None


# one symbol of each kind the set comparisons must hand to the per-symbol loop
odd_symbols = st.one_of(
    st.integers(-2, 10), st.booleans(), st.sampled_from([1.0, 2.5, float("nan")]),
    st.fractions(0, 4, max_denominator=2), st.just([1]), st.just("1"),
    st.integers(1, 8).map(Symbol), st.sampled_from(list(Color)))


@st.composite
def mixed_tuples(draw):
    """Mostly permutations with a few symbols swapped for odd ones."""
    n = draw(st.integers(0, 8))
    values = draw(st.permutations(list(range(1, n + 1))))
    if n:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            values[i] = draw(odd_symbols)
    return tuple(values + draw(st.lists(odd_symbols, max_size=1)))


class TestPermutationCheck:
    @pytest.mark.parametrize("values, message", [
        ((), "a permutation must have length >= 1"),
        ((1, 1, 3), "symbol 1 appears more than once"),
        ((2, 3, 1, 3), "symbol 3 appears more than once"),
        ((0, 1, 2), "symbol 0 outside [1, 3]"),
        ((1, 2, 4), "symbol 4 outside [1, 3]"),
        ((True, 2), "symbol True is not an integer"),
        ((2, 1.0), "symbol 1.0 is not an integer"),
        ((Fraction(1), 2), "symbol Fraction(1, 1) is not an integer"),
        ((2, [1]), "symbol [1] is not an integer"),
        ((1, 1, 2.0), "symbol 1 appears more than once"),
    ])
    def test_rejections_name_the_first_bad_symbol(self, values, message):
        with pytest.raises(NotPermutation) as got:
            Permutation(values)
        assert str(got.value) == message
        assert check_outcome(reference_check_permutation, values) == message

    @pytest.mark.parametrize("values", [
        (Symbol(2), Symbol(1), Symbol(3)), (3, Symbol(1), 2),
        (Color.BLUE, Color.RED, Color.GREEN), (Color.GREEN, 1, 3)])
    def test_int_subclasses_accepted(self, values):
        assert Permutation(values).values == values

    def test_large_permutations_checked_exactly(self):
        values = list(range(1, 4097))
        random.Random(7104).shuffle(values)
        assert Permutation(tuple(values)).n == 4096
        for i, bad in ((0, 4097), (4095, values[0]), (17, 0), (40, True)):
            mutated = values.copy()
            mutated[i] = bad
            assert (check_outcome(Permutation, tuple(mutated))
                    == check_outcome(reference_check_permutation, mutated) is not None)

    @given(mixed_tuples())
    def test_matches_reference(self, values):
        assert (check_outcome(Permutation, values)
                == check_outcome(reference_check_permutation, values))


class TestTextFormat:
    def test_spaces_and_commas(self):
        assert parse_permutation("3 12 4 11 1 10 2 9 8 5 7 6").values == EX1_CODEWORD
        assert parse_permutation("3,12,4,11,1,10,2,9,8,5,7,6").values == EX1_CODEWORD

    def test_roundtrip(self):
        pi = make_permutation(EX1_CODEWORD)
        assert parse_permutation(format_permutation(pi)) == pi

    def test_garbage_rejected(self):
        with pytest.raises(NotPermutation):
            parse_permutation("1 two 3")
        with pytest.raises(NotPermutation):
            parse_permutation("   ")


class TestWindowSum:
    def test_first_window_of_codeword(self):
        assert window_sum(make_permutation(EX1_CODEWORD), 1, 2) == 15

    def test_identity_full_window(self):
        assert window_sum(identity(4), 1, 4) == 10

    def test_inner_window(self):
        assert window_sum(make_permutation((1, 3, 2, 4)), 2, 2) == 5

    def test_bounds(self):
        pi = identity(5)
        with pytest.raises(IndexOutOfRange):
            window_sum(pi, 5, 2)
        with pytest.raises(IndexOutOfRange):
            window_sum(pi, 1, 6)
        with pytest.raises(IndexOutOfRange):
            window_sum(pi, 0, 2)

    @given(perms_strategy, st.data())
    def test_window_equals_prefix_difference(self, pi, data):
        b = data.draw(st.integers(1, pi.n))
        j = data.draw(st.integers(1, pi.n - b + 1))
        devs2 = prefix_deviations_doubled(pi)
        # window sum recovered from doubled prefix deviations
        w2 = (devs2[j + b - 1] - devs2[j - 1]) + b * (pi.n + 1)
        assert window_sum(pi, j, b) == w2 // 2


class TestPrefixDeviation:
    def test_balanced_prefix(self):
        pi = make_permutation(EX1_CODEWORD)
        assert sum(EX1_CODEWORD[:8]) == 52  # direct summation 3+12+...+9
        assert prefix_deviation(pi, 8) == 0

    def test_interleaving_first_symbol(self):
        pi = make_permutation(EX1_INTERLEAVING)
        assert prefix_deviation(pi, 1) == Fraction(-7, 2)

    def test_identity_full_prefix(self):
        for n in (1, 2, 7, 10):
            assert prefix_deviation(identity(n), n) == 0

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            prefix_deviation(identity(3), 0)
        with pytest.raises(IndexOutOfRange):
            prefix_deviation(identity(3), 4)

    @given(perms_strategy, st.data())
    def test_matches_doubled_sequence(self, pi, data):
        j = data.draw(st.integers(1, pi.n))
        assert prefix_deviation(pi, j) == Fraction(
            prefix_deviations_doubled(pi)[j], 2)


class TestDisc:
    def test_min_disc_achiever(self):
        assert disc(make_permutation((1, 3, 2, 4)), 2) == 1

    def test_identity_4(self):
        # windows 3, 5, 7 against target 5
        assert disc(identity(4), 2) == 2

    def test_identity_20(self):
        # window 1..10 sums to 55 against target 105
        assert disc(identity(20), 10) == 50

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            disc(identity(4), 0)
        with pytest.raises(IndexOutOfRange):
            disc(identity(4), 5)

    @given(perms_strategy, st.data())
    def test_matches_brute_force(self, pi, data):
        b = data.draw(st.integers(1, pi.n))
        assert disc(pi, b) == brute_window_max_dev(pi.values, b)


class TestVerifyBalance:
    def test_codeword_passes_full_preset(self):
        report = verify_balance(make_permutation(EX1_CODEWORD), d1_preset(12))
        assert report.is_valid
        assert report.entries == ()

    def test_identity_20_fails_at_half_window(self):
        report = verify_balance(identity(20), d1_preset(20))
        assert not report.is_valid
        hit = {(e.b, e.j): e for e in report.entries}[(10, 1)]
        assert hit.actual_dev == 50
        assert hit.allowed_dev == 42
        assert hit.window_sum == 55
        assert hit.target == 105

    def test_block_codeword_passes_block_preset(self):
        report = verify_balance(make_permutation(EX3_CODEWORD), d2_preset(32, 8))
        assert report.is_valid

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            verify_balance(identity(4), d1_preset(6))

    def test_entries_sorted_and_faithful(self):
        report = verify_balance(identity(20), d1_preset(20))
        keys = [(e.b, e.j) for e in report.entries]
        assert keys == sorted(keys)
        for e in report.entries:
            assert e.actual_dev > e.allowed_dev
            assert e.window_sum == window_sum(identity(20), e.j, e.b)

    def test_json_shape(self):
        report = verify_balance(identity(20), d1_preset(20))
        obj = report.to_json_dict()
        assert obj["valid"] is False
        assert {"b": 10, "j": 1, "sum": 55, "target": "105",
                "allowed": "42", "actual": "50"} in obj["violations"]

    @given(perms_strategy, st.data())
    def test_disc_consistency(self, pi, data):
        b = data.draw(st.integers(1, pi.n))
        d = disc(pi, b)
        spec_at = BalanceSpec(pi.n, (b,), {b: d})
        assert verify_balance(pi, spec_at).is_valid
        if d >= 1:
            spec_below = BalanceSpec(pi.n, (b,), {b: d - 1})
            report = verify_balance(pi, spec_below)
            assert any(e.b == b for e in report.entries)

    def test_single_symbol_windows_checked_literally(self):
        # allowed deviation 0 at b=1 flags every off-mean symbol
        spec = BalanceSpec(3, (1,), {1: Fraction(0)})
        report = verify_balance(identity(3), spec)
        assert [(e.b, e.j) for e in report.entries] == [(1, 1), (1, 3)]


class TestBalanceSpecValidation:
    def test_presets(self):
        spec = d1_preset(12)
        assert spec.blocks == tuple(range(1, 13))
        assert spec.dev_max[5] == 26
        spec2 = d2_preset(32, 8)
        assert spec2.blocks == (2, 4, 6)
        assert spec2.dev_max[2] == 33

    def test_preset_divisibility(self):
        with pytest.raises(ParamInvalid):
            d2_preset(30, 8)
        with pytest.raises(ParamInvalid):
            d2_preset(12, 6)

    def test_single_symbol_blocks_make_an_empty_preset(self):
        # n == N leaves no even window length below 2*(n/N - 1) + 1
        spec = d2_preset(4, 4)
        assert spec.blocks == ()
        assert verify_balance(identity(4), spec).is_valid

    def test_length_zero_rejected(self):
        with pytest.raises(ParamInvalid, match=r"^preset length must be >= 1$"):
            d1_preset(0)
        with pytest.raises(ParamInvalid, match=r"^spec length must be >= 1$"):
            BalanceSpec(0, (), {})

    @pytest.mark.parametrize("dev_max", [{3: Fraction(1)}, {}, {2: Fraction(1), 3: Fraction(1)}])
    def test_dev_max_keys_must_be_the_lengths(self, dev_max):
        with pytest.raises(ParamInvalid, match=r"^dev_max keys must match the block set$"):
            BalanceSpec(4, (2,), dev_max)

    def test_blocks_must_increase(self):
        with pytest.raises(ParamInvalid):
            BalanceSpec(4, (2, 2), {2: Fraction(1)})

    def test_blocks_in_range(self):
        with pytest.raises(ParamInvalid):
            BalanceSpec(4, (2, 5), {2: Fraction(1), 5: Fraction(1)})

    def test_negative_deviation_rejected(self):
        with pytest.raises(ParamInvalid):
            BalanceSpec(4, (2,), {2: Fraction(-1)})

    @pytest.mark.parametrize("bad", [Fraction(-1), -1, "-1/2", -0.5])
    def test_negative_deviation_message_for_every_form(self, bad):
        with pytest.raises(ParamInvalid, match="^allowed deviations must be non-negative$"):
            BalanceSpec(4, (2, 3), {2: Fraction(1), 3: bad})

    @pytest.mark.parametrize("given, stored", [
        (Fraction(3, 2), Fraction(3, 2)), (2, Fraction(2)), ("3/2", Fraction(3, 2)),
        (0.5, Fraction(1, 2)), (0, Fraction(0))])
    def test_deviations_stored_as_fractions(self, given, stored):
        dev = BalanceSpec(4, (2,), {2: given}).dev_max[2]
        assert type(dev) is Fraction and dev == stored

    def test_fraction_subclass_converted(self):
        class Half(Fraction):
            pass

        dev = BalanceSpec(4, (2,), {2: Half(1, 2)}).dev_max[2]
        assert type(dev) is Fraction and dev == Fraction(1, 2)

    def test_non_numeric_deviation_raises_param_invalid(self):
        with pytest.raises(ParamInvalid, match=r"^bad rational 'wide'$"):
            BalanceSpec(4, (2,), {2: "wide"})

    @pytest.mark.parametrize("blocks, dev_max, kind", [
        ((1,), [1, 1], "list"), ((2,), [2], "list"), ((2,), {2}, "set"),
        ((2,), None, "NoneType"), ((2,), (2, 1), "tuple")])
    def test_dev_max_must_be_a_mapping(self, blocks, dev_max, kind):
        # a list was read by index: [1, 1] with lengths (1,) stored {1: 1}
        with pytest.raises(ParamInvalid) as info:
            BalanceSpec(4, blocks, dev_max)
        assert str(info.value) == f"dev_max must be a mapping, got {kind}"


class TestTwoNeighbor:
    def test_identity_always_valid(self):
        for n in (3, 5, 12):
            for k in range(1, n):
                assert check_two_neighbor(identity(n), NeighborSpec(k)).is_valid

    def test_zigzag_violations(self):
        pi = make_permutation((1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7))
        report = check_two_neighbor(pi, NeighborSpec(2))
        # direct scan: only positions 10 and 11 have a neighbor within 2
        assert [e.i for e in report.entries] == list(range(2, 10))
        for e in report.entries:
            assert min(e.left_diff, e.right_diff) > 2

    def test_neighbor_json_shape(self):
        pi = make_permutation((1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7))
        obj = check_two_neighbor(pi, NeighborSpec(2)).to_json_dict()
        assert obj["violations"][0] == {"i": 2, "left": 11, "right": 10,
                                        "allowed": 2}

    def test_small_n_rejected(self):
        with pytest.raises(SpecMismatch):
            check_two_neighbor(identity(2), NeighborSpec(1))

    def test_k_out_of_range_rejected(self):
        with pytest.raises(SpecMismatch):
            check_two_neighbor(identity(4), NeighborSpec(4))
        with pytest.raises(ParamInvalid):
            NeighborSpec(0)

    @given(st.integers(3, 30).flatmap(
        lambda n: st.tuples(st.permutations(list(range(1, n + 1))),
                            st.integers(1, n - 2))))
    def test_monotone_in_k(self, case):
        vals, k = case
        pi = Permutation(tuple(vals))
        if check_two_neighbor(pi, NeighborSpec(k)).is_valid:
            assert check_two_neighbor(pi, NeighborSpec(k + 1)).is_valid


def emit_and_project(size, orderings, order):
    """Emit every symbol of the blocks of ``_layout``, taking from block
    ``order[t]`` at step t, and project the output back; also checks that the
    run's doubled deviation ends at 0, as it does only when
    n = size * len(orderings)."""
    heads = [iter(block) for block in _layout(size, orderings)]
    out = [next(heads[block - 1]) for block in order]
    assert sum(2 * v - (len(out) + 1) for v in out) == 0
    return [p.values for p in _project(Permutation(tuple(out)), size)]


class TestBlockLayout:
    """``_project`` inverts ``_layout``'s block layout."""

    @pytest.mark.parametrize("size, blocks", [(2048, 2), (64, 64), (16, 256)])
    def test_concatenated_queues_project_to_the_orderings(self, size, blocks):
        rng = random.Random(size + blocks)
        orderings = [tuple(rng.sample(range(1, size + 1), size)) for _ in range(blocks)]
        for i, block in enumerate(_layout(size, orderings), 1):
            assert block == [v + (i - 1) * size for v in orderings[i - 1]]
        order = [i for i in range(1, blocks + 1) for _ in range(size)]
        assert emit_and_project(size, orderings, order) == orderings
        rng.shuffle(order)  # any interleaving of the blocks projects back as well
        assert emit_and_project(size, orderings, order) == orderings

    @pytest.mark.parametrize("size, blocks", [(s, b) for s in (1, 2, 3) for b in (1, 2, 3)
                                              if s * b <= 6])
    def test_exhaustive_at_tiny_sizes(self, size, blocks):
        block_orders = list(permutations(range(1, size + 1)))
        interleavings = set(permutations([i for i in range(1, blocks + 1)
                                          for _ in range(size)]))
        for orderings in product(block_orders, repeat=blocks):
            for order in interleavings:
                assert emit_and_project(size, orderings, order) == list(orderings)

    @pytest.mark.parametrize("n, size", [(n, s) for n in range(1, 25) for s in range(1, n + 1)
                                         if n % s == 0])
    def test_block_table_reads_the_layout_backwards(self, n, size):
        block_of, value_in = _block_table(n, size)
        assert len(block_of) == len(value_in) == n + 1
        identity_blocks = _layout(size, [range(1, size + 1)] * (n // size))
        for i, block in enumerate(identity_blocks, 1):
            for w, v in enumerate(block, 1):
                assert (block_of[v], value_in[v]) == (i, w)


class TestRankUnrank:
    def test_first_and_last(self):
        assert unrank(0, 3).values == (1, 2, 3)
        assert unrank(5, 3).values == (3, 2, 1)

    def test_identity_rank_zero(self):
        for n in (1, 2, 5, 30):
            assert rank(identity(n)) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exhaustive_inverse(self, n):
        seen = []
        for i in range(factorial(n)):
            pi = unrank(i, n)
            assert rank(pi) == i
            seen.append(pi.values)
        assert seen == sorted(seen)  # unranking follows lexicographic order
        assert len(set(seen)) == factorial(n)

    @pytest.mark.parametrize("n", (20, 50, 100))
    def test_random_roundtrip(self, n):
        # 10^4 randomized cases across the three sizes
        rng = random.Random(101 + n)
        for _ in range(1700):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            pi = Permutation(tuple(vals))
            assert unrank(rank(pi), n) == pi
        for _ in range(1700):
            i = rng.randrange(factorial(n))
            assert rank(unrank(i, n)) == i

    def test_extremes_at_large_n(self):
        n = 50
        assert unrank(factorial(n) - 1, n).values == tuple(range(n, 0, -1))
        assert rank(Permutation(tuple(range(n, 0, -1)))) == factorial(n) - 1

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            unrank(6, 3)
        with pytest.raises(IndexOutOfRange):
            unrank(-1, 3)
        with pytest.raises(ParamInvalid):
            unrank(0, 0)


def test_lexicographic_order_matches_itertools():
    for n in (1, 2, 3, 4, 5):
        expected = [tuple(p) for p in permutations(range(1, n + 1))]
        got = [unrank(i, n).values for i in range(factorial(n))]
        assert got == expected
