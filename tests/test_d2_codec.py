import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpc import (
    D2Input,
    D2Params,
    NotPermutation,
    ParamInvalid,
    Permutation,
    SourceExhausted,
    d2_input_from_json_dict,
    d2_input_to_json_dict,
    d2_preset,
    decode_d2,
    encode_d2,
    prefix_deviation,
    prefix_deviations_doubled,
    verify_balance,
)
from bpc._util import scale_parameter
from support import (
    EX3_CODEWORD,
    all_d2_inputs,
    ex3_input,
    random_d2_input,
    reference_encode_d2,
)


class TestParams:
    def test_derived_fields(self):
        p = D2Params(32, 8)
        assert p.block_size == 4
        assert p.window_lengths == (2, 4, 6)

    def test_divisibility(self):
        with pytest.raises(ParamInvalid):
            D2Params(30, 8)
        with pytest.raises(ParamInvalid):
            D2Params(12, 6)
        with pytest.raises(ParamInvalid):
            D2Params(8, 0)

    def test_from_epsilon_exact(self):
        # 32**(3/5) = 8 exactly
        p = D2Params(32, scale_parameter("d2", 32, None, Fraction(3, 5))[0])
        assert p.N == 8
        assert D2Params(64, scale_parameter("d2", 64, None, Fraction(1, 2))[0]).N == 8
        assert D2Params(256, scale_parameter("d2", 256, None, Fraction(1, 2))[0]).N == 16

    def test_from_epsilon_no_silent_rounding(self):
        # ceil(30**0.5) = 6, which is not a multiple of 4
        with pytest.raises(ParamInvalid):
            D2Params(30, scale_parameter("d2", 30, None, Fraction(1, 2))[0])

    @pytest.mark.parametrize("n,epsilon,error", [
        (0, Fraction(1, 2), "base must be >= 1"),
        (64, True, "expected an exact rational, got True"),
        (64, Fraction(1, 10001), "exponent denominator 10001 is too large"),
        (64, None, "either N or epsilon is required"),
    ], ids=["n-zero", "bool", "huge-denominator", "none"])
    def test_from_epsilon_refusals(self, n, epsilon, error):
        # the exponent takes the one path to N that rate_report_d2 takes
        with pytest.raises(ParamInvalid, match=f"^{error}"):
            D2Params(n, scale_parameter("d2", n, None, epsilon)[0])

    def test_from_epsilon_reads_text_and_floats_exactly(self):
        assert D2Params(64, scale_parameter("d2", 64, None, "1/2")[0]) == D2Params(64, 8)
        assert D2Params(64, scale_parameter("d2", 64, None, 0.5)[0]) == D2Params(64, 8)


# every valid (n, N) with n <= 64: N a multiple of 4 that divides n
SHAPES_TO_64 = [(n, N) for n in range(4, 65) for N in range(4, n + 1, 4) if n % N == 0]


class TestCells:
    """The cell facts ``encode_d2``'s docstring proof rests on, read off its
    codewords rather than off the encoder's own pairing."""

    @pytest.mark.parametrize("tie_to_upper", (False, True))
    @pytest.mark.parametrize("n, N", SHAPES_TO_64)
    def test_cells_hold_their_blocks_and_pairs_straddle_the_mean(self, n, N, tie_to_upper):
        params = D2Params(n, N)
        size = params.block_size
        span = 4 * size
        rng = random.Random(1000 * n + N)
        for _ in range(30):
            pi = encode_d2(random_d2_input(rng, params), tie_to_upper=tie_to_upper)
            devs2 = prefix_deviations_doubled(pi)
            for c in range(1, N // 4 + 1):
                lower, upper = (2 * c - 1, N - 2 * c + 1), (2 * c, N - 2 * c + 2)
                cell = pi.values[(c - 1) * span:c * span]
                assert sorted((v - 1) // size + 1 for v in cell) == sorted(
                    [*lower, *upper] * size)
                for x, y in zip(cell[0::2], cell[1::2]):
                    pair = ((x - 1) // size + 1, (y - 1) // size + 1)
                    assert (pair == lower and x + y <= n
                            or pair == upper and x + y >= n + 2), (c, x, y)
                assert devs2[c * span] == 0


class TestEncode:
    def test_golden_n32(self):
        assert encode_d2(ex3_input()).values == EX3_CODEWORD

    def test_single_symbol_blocks(self):
        inp = D2Input(D2Params(4, 4), (Permutation((1,)),) * 4)
        assert encode_d2(inp).values == (1, 3, 2, 4)

    def test_identity_orderings_n8(self):
        inp = D2Input(D2Params(8, 4), (Permutation((1, 2)),) * 4)
        pi = encode_d2(inp)
        assert pi.values == reference_encode_d2(inp)
        assert decode_d2(pi, inp.params) == inp

    def test_matches_reference_exhaustively_n8(self):
        for inp in all_d2_inputs(D2Params(8, 4)):
            assert encode_d2(inp).values == reference_encode_d2(inp)

    def test_matches_reference_random(self):
        rng = random.Random(11)
        for n, N in ((32, 8), (64, 8), (48, 12)):
            for _ in range(40):
                inp = random_d2_input(rng, D2Params(n, N))
                assert encode_d2(inp).values == reference_encode_d2(inp)

    @pytest.mark.parametrize("tie_to_upper", (False, True))
    @pytest.mark.parametrize("n, N", SHAPES_TO_64)
    def test_matches_reference_at_every_shape_to_64(self, n, N, tie_to_upper):
        rng = random.Random(2000 * n + N)
        for _ in range(10):
            inp = random_d2_input(rng, D2Params(n, N))
            assert (encode_d2(inp, tie_to_upper=tie_to_upper).values
                    == reference_encode_d2(inp, tie_to_upper=tie_to_upper))

    def test_schedule_conservation(self):
        rng = random.Random(12)
        params = D2Params(64, 16)
        pi = encode_d2(random_d2_input(rng, params))
        assert pi.n == 64
        # each block is consumed exactly block_size times
        size = params.block_size
        counts = [0] * params.N
        for v in pi.values:
            counts[(v - 1) // size] += 1
        assert counts == [size] * params.N

    def test_tie_knob_flips_only_ties(self):
        # no tie is hit at n=8 with identity orderings: knob is a no-op
        inp = D2Input(D2Params(8, 4), (Permutation((1, 2)),) * 4)
        assert encode_d2(inp) == encode_d2(inp, tie_to_upper=True)
        # the golden input ties after 8 symbols (deviation exactly 0)
        default = encode_d2(ex3_input())
        flipped = encode_d2(ex3_input(), tie_to_upper=True)
        assert default.values == EX3_CODEWORD
        assert flipped != default
        assert flipped.values[:8] == EX3_CODEWORD[:8]
        assert flipped.values[8:10] == (6, 30)  # upper pair instead of lower
        assert decode_d2(flipped, ex3_input().params) == ex3_input()


class TestDecode:
    def test_golden_orderings_recovered(self):
        inp = decode_d2(Permutation(EX3_CODEWORD), D2Params(32, 8))
        assert inp == ex3_input()

    def test_total_on_non_codewords(self):
        inp = decode_d2(Permutation((8, 7, 6, 5, 4, 3, 2, 1)), D2Params(8, 4))
        assert [s.values for s in inp.sigmas] == [(2, 1)] * 4

    def test_length_mismatch(self):
        with pytest.raises(ParamInvalid):
            decode_d2(Permutation((1, 2, 3, 4)), D2Params(8, 4))

    def test_roundtrip_exhaustive_n8(self):
        images = set()
        for inp in all_d2_inputs(D2Params(8, 4)):
            pi = encode_d2(inp)
            assert decode_d2(pi, inp.params) == inp
            images.add(pi.values)
        assert len(images) == 16  # (2!)**4 distinct codewords

    @given(st.sampled_from([(8, 4), (16, 4), (32, 8), (64, 16)]), st.randoms())
    def test_roundtrip_random(self, shape, rng):
        params = D2Params(*shape)
        inp = random_d2_input(rng, params)
        assert decode_d2(encode_d2(inp), params) == inp


class TestBounds:
    def test_even_prefixes_balanced_on_golden(self):
        pi = Permutation(EX3_CODEWORD)
        for j in range(2, 33, 2):
            assert abs(prefix_deviation(pi, j)) <= Fraction(2 * 32, 8)

    def test_golden_passes_block_preset(self):
        assert verify_balance(Permutation(EX3_CODEWORD), d2_preset(32, 8)).is_valid

    def test_preset_is_the_literal_spec(self):
        for n in range(1, 257):
            for N in range(4, n + 1, 4):
                if n % N:
                    continue
                spec = d2_preset(n, N)
                blocks = tuple(range(2, 2 * (n // N - 1) + 1, 2))
                assert (spec.n, spec.blocks) == (n, blocks)
                assert spec.dev_max == {b: Fraction(8 * (n + 1), N) for b in blocks}

    @pytest.mark.parametrize("n, N, message", [
        (12, 6, "block count 6 must be a multiple of 4"),
        (12, 0, "block count 0 must be a multiple of 4"),
        (12, -4, "block count -4 must be a multiple of 4"),
        (30, 8, "block count 8 must divide n=30"),
        (0, 4, "block count 4 must divide n=0"),
        (-8, 4, "block count 4 must divide n=-8"),
    ])
    def test_preset_rejects_a_bad_split(self, n, N, message):
        with pytest.raises(ParamInvalid) as exc:
            d2_preset(n, N)
        assert str(exc.value) == message

    def test_cell_boundaries_return_to_zero(self):
        # every cell consumes a deviation-neutral symbol multiset
        rng = random.Random(13)
        params = D2Params(64, 8)
        pi = encode_d2(random_d2_input(rng, params))
        span = 4 * params.block_size
        for boundary in range(span, 65, span):
            assert prefix_deviation(pi, boundary) == 0

    @pytest.mark.parametrize("tie_to_upper", (False, True))
    @pytest.mark.parametrize("n, N", [
        (n, N) for n in range(4, 49) for N in range(4, n + 1, 4)
        if n % N == 0 and factorial(n // N) ** N <= 10 ** 4])
    def test_every_input_encodes_and_returns_to_zero_at_cell_boundaries(
            self, n, N, tie_to_upper):
        # encode_d2's docstring proves both: every shape with n <= 48 and at
        # most 10**4 inputs, every input, under either tie rule
        params = D2Params(n, N)
        span = 4 * params.block_size
        count = 0
        for inp in all_d2_inputs(params):
            try:
                pi = encode_d2(inp, tie_to_upper=tie_to_upper)
            except SourceExhausted as exc:
                pytest.fail(f"mandated pair empty for {inp}: {exc.state}")
            devs2 = prefix_deviations_doubled(pi)
            assert all(devs2[boundary] == 0 for boundary in range(0, n + 1, span)), inp
            count += 1
        assert count == factorial(params.block_size) ** N

    def test_exhaustive_availability_hunt_n12(self):
        # every ordering choice at (12, 4): no mandated pair ever runs dry,
        # and decode inverts encode across the whole input space
        params = D2Params(12, 4)
        count = 0
        for inp in all_d2_inputs(params):
            pi = encode_d2(inp)  # SourceExhausted here would fail the test
            assert decode_d2(pi, params) == inp
            count += 1
        assert count == 6 ** 4

    def test_randomized_bound_envelope(self):
        # 10^4 codewords across the four standard shapes, all bounds clean
        from bpc import d2_claim_suite

        rng = random.Random(14)
        for shape in ((32, 8), (64, 8), (128, 16), (256, 16)):
            params = D2Params(*shape)
            suite = d2_claim_suite(
                (encode_d2(random_d2_input(rng, params)) for _ in range(2500)),
                params)
            assert suite.total == 2500
            assert suite.all_pass, suite.to_json_dict()


class TestJson:
    def test_roundtrip(self):
        obj = d2_input_to_json_dict(ex3_input())
        assert obj["n"] == 32 and obj["N"] == 8
        assert d2_input_from_json_dict(json.loads(json.dumps(obj))) == ex3_input()

    def test_missing_field(self):
        with pytest.raises(ParamInvalid):
            d2_input_from_json_dict({"n": 8, "sigmas": []})

    @pytest.mark.parametrize("field,index,bad", [
        ("sigmas", 0, 2.7), ("sigmas", 1, True), ("n", None, 32.0), ("N", None, "8")])
    def test_non_integers_rejected_not_coerced(self, field, index, bad):
        obj = d2_input_to_json_dict(ex3_input())
        if index is None:
            obj[field] = bad
        else:
            obj[field][0][index] = bad
        # the loader checks nothing itself: Permutation refuses a sigma
        # entry, D2Params the other fields
        error, text = ((NotPermutation, f"symbol {bad!r} is not an integer") if field == "sigmas"
                       else (ParamInvalid, f"expected an integer, got {bad!r}"))
        with pytest.raises(error) as info:
            d2_input_from_json_dict(obj)
        assert str(info.value) == text

    def test_shape_validation(self):
        with pytest.raises(ParamInvalid):
            D2Input(D2Params(8, 4), (Permutation((1, 2)),) * 3)
        with pytest.raises(ParamInvalid):
            D2Input(D2Params(8, 4), (Permutation((1, 2, 3)),) * 4)
