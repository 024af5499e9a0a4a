import random
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpc import (
    D1Input,
    IndexOutOfRange,
    OddLength,
    ParamInvalid,
    Permutation,
    SourceExhausted,
    d1_message_decode,
    d1_message_encode,
    d1_message_input,
    d1_preset,
    decode_d1,
    encode_d1,
    encode_d1_streaming,
    interleave,
    prefix_deviation,
    prefix_deviations_doubled,
    verify_balance,
)
from bpc.perm_core import _layout, _remaining
from support import (
    EX1_CODEWORD,
    EX1_INTERLEAVING,
    all_d1_inputs,
    default_digit_limit,
    emitter_encode_d1,
    ex1_input,
    random_d1_input,
    reference_encode_d1,
    reference_encode_d1_streaming,
)

d1_inputs_strategy = st.integers(1, 30).flatmap(
    lambda half: st.tuples(
        st.permutations(list(range(1, half + 1))),
        st.permutations(list(range(1, half + 1))))).map(
    lambda gs: D1Input(Permutation(tuple(gs[0])), Permutation(tuple(gs[1]))))


class TestEncode:
    def test_golden_n12(self):
        assert encode_d1(ex1_input()).values == EX1_CODEWORD

    def test_n2_forced(self):
        inp = D1Input(Permutation((1,)), Permutation((1,)))
        assert encode_d1(inp).values == (1, 2)

    def test_n4_identity_orderings(self):
        inp = D1Input(Permutation((1, 2)), Permutation((1, 2)))
        assert encode_d1(inp).values == reference_encode_d1((1, 2), (1, 2))
        assert encode_d1(inp).values == (1, 3, 4, 2)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_matches_reference_exhaustively(self, n):
        for inp in all_d1_inputs(n):
            expected = reference_encode_d1(inp.gamma1.values, inp.gamma2.values)
            assert encode_d1(inp).values == expected

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParamInvalid):
            D1Input(Permutation((1,)), Permutation((1, 2)))

    @given(d1_inputs_strategy)
    def test_reference_agreement_random(self, inp):
        expected = reference_encode_d1(inp.gamma1.values, inp.gamma2.values)
        assert encode_d1(inp).values == expected


class TestSourceState:
    """The d1 rule over the shared block layout (``_layout``): block 1 is the
    low ordering, block 2 the high one, each emitted in order."""

    @staticmethod
    def blocks(inp):
        return _layout(inp.gamma1.n, (inp.gamma1.values, inp.gamma2.values))

    def test_tracks_counts_and_deviation(self):
        inp = ex1_input()
        blocks, out = self.blocks(inp), list(encode_d1(inp).values)
        assert Fraction(2 * out[0] - 13, 2) == Fraction(-7, 2)
        for j in range(1, 12):
            assert sum(_remaining(blocks, out[:j]).values()) + j == 12
        assert tuple(out) == EX1_CODEWORD
        assert sum(2 * v - 13 for v in out) == 0

    def test_empty_source_is_a_defect_signal(self):
        # only a layout the public constructors refuse (halves of unequal
        # length) can leave a mandated block empty
        for gammas, state in [
            (((), (1,)), {"emitted": 0, "dev_twice": 0, "mandated": (1,),
                          "remaining": {1: 0, 2: 1}}),
            (((1,), ()), {"emitted": 1, "dev_twice": -1, "mandated": (2,),
                          "remaining": {1: 0, 2: 0}}),
        ]:
            inp = D1Input._trusted(*map(Permutation._trusted, gammas))
            with pytest.raises(SourceExhausted) as err:
                encode_d1(inp)
            assert err.value.state == state
            with pytest.raises(SourceExhausted) as old:
                emitter_encode_d1(inp)
            assert (str(err.value), err.value.state) == (str(old.value), old.value.state)

    def test_mandated_source_never_empty(self):
        # availability: over full runs the mandated block always has a symbol,
        # and the codeword takes that block's next one
        rng = random.Random(7)
        for _ in range(200):
            n = 2 * rng.randint(1, 40)
            inp = random_d1_input(rng, n)
            blocks, out = self.blocks(inp), encode_d1(inp).values
            dev2 = 0
            for j, v in enumerate(out):
                source = 1 if dev2 > 0 or j == 0 else 2
                left = _remaining(blocks, out[:j])[source]
                assert left
                assert v == blocks[source - 1][-left]
                dev2 += 2 * v - (n + 1)


class TestStreaming:
    def test_golden_interleaving(self):
        assert interleave(ex1_input()).values == EX1_INTERLEAVING
        assert prefix_deviation(interleave(ex1_input()), 1) == Fraction(-7, 2)

    def test_golden_output_and_trace(self):
        pi, trace = encode_d1_streaming(ex1_input())
        assert pi.values == EX1_CODEWORD
        # hand simulation: slots 9 and 11 need a reinsert (symbols 8 and 7)
        assert [(s.position, s.moved_symbol) for s in trace.steps] == [(9, 8), (11, 7)]

    def test_n2_empty_trace(self):
        inp = D1Input(Permutation((1,)), Permutation((1,)))
        pi, trace = encode_d1_streaming(inp)
        assert pi.values == (1, 2)
        assert trace.steps == ()

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_equivalent_to_greedy_exhaustively(self, n):
        for inp in all_d1_inputs(n):
            assert encode_d1_streaming(inp)[0] == encode_d1(inp)

    @staticmethod
    def assert_matches_reference(inp):
        pi, trace = encode_d1_streaming(inp)
        got = (pi.values, [(s.position, s.moved_symbol) for s in trace.steps])
        assert got == reference_encode_d1_streaming(inp)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_matches_reference_exhaustively(self, n):
        for inp in all_d1_inputs(n):
            self.assert_matches_reference(inp)

    def test_matches_reference_random(self):
        rng = random.Random(4096)
        for half in range(1, 65):
            for _ in range(3):
                self.assert_matches_reference(random_d1_input(rng, 2 * half))

    def test_matches_reference_at_n4096(self):
        self.assert_matches_reference(random_d1_input(random.Random(12), 4096))

    @given(d1_inputs_strategy)
    def test_equivalent_to_greedy_random(self, inp):
        pi, trace = encode_d1_streaming(inp)
        assert pi == encode_d1(inp)
        positions = [s.position for s in trace.steps]
        assert positions == sorted(set(positions))

    def test_trace_replay_reproduces_codeword(self):
        # applying the recorded reinserts to the interleaving gives the output
        inp = ex1_input()
        pi, trace = encode_d1_streaming(inp)
        work = list(interleave(inp).values)
        for step in trace.steps:
            value = step.moved_symbol
            old = work.index(value, step.position - 1)
            del work[old]
            work.insert(step.position - 1, value)
        assert tuple(work) == pi.values

    @given(d1_inputs_strategy)
    def test_trace_replay_property(self, inp):
        pi, trace = encode_d1_streaming(inp)
        work = list(interleave(inp).values)
        for step in trace.steps:
            old = work.index(step.moved_symbol, step.position - 1)
            del work[old]
            work.insert(step.position - 1, step.moved_symbol)
        assert tuple(work) == pi.values


class TestDecode:
    def test_golden_inverse(self):
        inp = decode_d1(Permutation(EX1_CODEWORD))
        assert inp.gamma1.values == (3, 4, 1, 2, 5, 6)
        assert inp.gamma2.values == (6, 5, 4, 3, 2, 1)

    def test_trivial(self):
        inp = decode_d1(Permutation((1, 2)))
        assert inp.gamma1.values == (1,)
        assert inp.gamma2.values == (1,)

    def test_total_on_non_codewords(self):
        inp = decode_d1(Permutation((2, 1, 4, 3)))
        assert inp.gamma1.values == (2, 1)
        assert inp.gamma2.values == (2, 1)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            decode_d1(Permutation((1, 3, 2)))

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_roundtrip_exhaustive(self, n):
        images = set()
        for inp in all_d1_inputs(n):
            pi = encode_d1(inp)
            assert decode_d1(pi) == inp
            images.add(pi.values)
        assert len(images) == factorial(n // 2) ** 2  # injectivity

    @given(d1_inputs_strategy)
    def test_roundtrip_random(self, inp):
        assert decode_d1(encode_d1(inp)) == inp


class TestBounds:
    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
    def test_prefix_and_window_bounds_exhaustive(self, n):
        # encode_d1's docstring proves that the mandated half is never empty
        # and that every doubled prefix deviation lies in [-(n-1), n-1]:
        # every input at n <= 10, and the bound is reached
        worst = 0
        for inp in all_d1_inputs(n):
            try:
                pi = encode_d1(inp)
            except SourceExhausted as exc:
                pytest.fail(f"mandated half empty for {inp}: {exc.state}")
            devs2 = prefix_deviations_doubled(pi)
            assert devs2[0] == devs2[-1] == 0
            worst = max(worst, max(map(abs, devs2)))
            assert worst <= n - 1, inp
            assert verify_balance(pi, d1_preset(n)).is_valid
        assert worst == n - 1

    def test_prefix_and_window_bounds_random(self):
        rng = random.Random(20240)
        for _ in range(250):
            n = 2 * rng.randint(5, 100)
            pi = encode_d1(random_d1_input(rng, n))
            worst = max(abs(prefix_deviation(pi, j)) for j in range(1, n + 1))
            assert worst <= Fraction(n - 1, 2)
            assert verify_balance(pi, d1_preset(n)).is_valid


class TestMessageInterface:
    def test_zero_ranks(self):
        assert d1_message_encode(0, 0, 4).values == (1, 3, 4, 2)

    def test_roundtrip_exhaustive_n6(self):
        for i1 in range(6):
            for i2 in range(6):
                pi = d1_message_encode(i1, i2, 6)
                assert d1_message_decode(pi) == (i1, i2)

    def test_rank_bound(self):
        with pytest.raises(IndexOutOfRange):
            d1_message_encode(factorial(3), 0, 6)
        with pytest.raises(IndexOutOfRange):
            d1_message_encode(0, -1, 6)

    def test_rank_bound_messages_check_i1_first(self):
        with pytest.raises(IndexOutOfRange, match=r"^i1=6 outside \[0, 3!\)$"):
            d1_message_input(6, -1, 6)
        with pytest.raises(IndexOutOfRange, match=r"^i2=-1 outside \[0, 3!\)$"):
            d1_message_input(0, -1, 6)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_rank_past_the_digit_limit_names_the_bit_length(self):
        # 10**5000 has 5001 digits, past the default limit of 4300
        huge = 10 ** 5000
        with default_digit_limit():
            with pytest.raises(IndexOutOfRange,
                               match=r"^i1=<16610-bit integer> outside \[0, 5!\)$"):
                d1_message_input(huge, 0, 10)
            with pytest.raises(IndexOutOfRange,
                               match=r"^i2=-<16610-bit integer> outside \[0, 5!\)$"):
                d1_message_input(0, -huge, 10)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            d1_message_encode(0, 0, 5)

    def test_big_ranks_roundtrip(self):
        n = 60
        bound = factorial(n // 2)
        rng = random.Random(3)
        for _ in range(20):
            i1, i2 = rng.randrange(bound), rng.randrange(bound)
            assert d1_message_decode(d1_message_encode(i1, i2, n)) == (i1, i2)
