import itertools
import json
import random
from fractions import Fraction

import pytest

from bpc import (
    NeighborSpec,
    NotCodeword,
    NotPermutation,
    ParamInvalid,
    Permutation,
    SelectorViolation,
    TnInput,
    TnParams,
    check_two_neighbor,
    decode_tn,
    encode_tn,
    prefix_deviation,
    random_valid_input,
    tn_input_from_json_dict,
    tn_input_to_json_dict,
)
from bpc.perm_core import _layout
from support import (
    EX4_CODEWORD,
    EX4_SELECTOR,
    ex4_input,
    reference_decode_tn,
    reference_encode_tn,
    reference_random_valid_input,
)

# (n, k) shapes with k even, k | n, and an even number of sets
VALID_SHAPES = [(24, 4), (32, 4), (48, 4), (64, 4), (96, 4),
                (32, 8), (48, 8), (64, 8), (96, 8)]


class TestParams:
    def test_shape_rules(self):
        assert TnParams(24, 4).m == 6
        with pytest.raises(ParamInvalid):
            TnParams(24, 3)  # odd set size
        with pytest.raises(ParamInvalid):
            TnParams(24, 8)  # odd number of sets
        with pytest.raises(ParamInvalid):
            TnParams(26, 4)  # not a divisor


class TestEncode:
    def test_golden_n24(self):
        assert encode_tn(ex4_input()).values == EX4_CODEWORD

    def test_golden_matches_reference(self):
        assert reference_encode_tn(ex4_input()) == EX4_CODEWORD

    def test_trivial_n4(self):
        inp = TnInput(TnParams(4, 2),
                      (Permutation((1, 2)), Permutation((1, 2))), (1, 2))
        assert encode_tn(inp).values == (1, 2, 3, 4)

    def test_wrong_half_at_step_one(self):
        bad = TnInput(ex4_input().params, ex4_input().sigmas,
                      (4,) + EX4_SELECTOR[1:] )
        with pytest.raises(SelectorViolation) as err:
            encode_tn(bad)
        assert err.value.step == 1
        assert err.value.mandated == "lower"
        assert err.value.selected == 4
        assert err.value.remaining == {i: 4 for i in range(1, 7)}

    def test_wrong_half_mid_run(self):
        params = TnParams(8, 2)
        sigmas = (Permutation((1, 2)),) * 4
        with pytest.raises(SelectorViolation) as err:
            encode_tn(TnInput(params, sigmas, (1, 3, 1, 2)))
        # deviation is still negative at step 3, so set 1 is the wrong half
        assert err.value.step == 3
        assert err.value.mandated == "upper"
        assert err.value.selected == 1

    def test_exhausted_set_detected(self):
        params = TnParams(8, 2)
        sigmas = (Permutation((1, 2)),) * 4
        with pytest.raises(SelectorViolation) as err:
            encode_tn(TnInput(params, sigmas, (1, 3, 4, 1)))
        # step 4 mandates the lower half, but set 1 was already drained
        assert err.value.step == 4
        assert err.value.mandated == "lower"
        assert err.value.selected == 1
        assert err.value.remaining[1] == 0

    def test_selector_shape_validation(self):
        params = TnParams(8, 2)
        sigmas = (Permutation((1, 2)),) * 4
        with pytest.raises(ParamInvalid):
            TnInput(params, sigmas, (1, 3, 4))  # wrong length
        with pytest.raises(ParamInvalid):
            TnInput(params, sigmas, (1, 3, 4, 5))  # index out of range
        with pytest.raises(ParamInvalid):
            TnInput(params, sigmas[:3], (1, 3, 4, 2))  # missing ordering
        with pytest.raises(ParamInvalid, match=r"^every ordering must have length 2$"):
            TnInput(params, sigmas[:3] + (Permutation((1, 2, 3)),), (1, 3, 4, 2))


class TestExhaustiveSmall:
    def test_all_valid_inputs_n8_k2(self):
        # independent walk: pair sums are fixed per set (3, 7, 11, 15), so
        # selector validity is ordering-independent at this shape
        deltas = {1: -6, 2: -2, 3: 2, 4: 6}
        expected_valid = set()
        for sel in itertools.permutations((1, 2, 3, 4)):
            dev, ok = 0, True
            for s in sel:
                if (s <= 2) != (dev >= 0):
                    ok = False
                    break
                dev += deltas[s]
            if ok:
                expected_valid.add(sel)
        assert len(expected_valid) == 4

        params = TnParams(8, 2)
        count = 0
        images = set()
        per_set = list(itertools.permutations((1, 2)))
        for combo in itertools.product(per_set, repeat=4):
            sigmas = tuple(Permutation(s) for s in combo)
            for sel in itertools.permutations((1, 2, 3, 4)):
                inp = TnInput(params, sigmas, sel)
                try:
                    pi = encode_tn(inp)
                except SelectorViolation:
                    assert sel not in expected_valid
                    continue
                assert sel in expected_valid
                assert decode_tn(pi, params) == inp
                assert check_two_neighbor(pi, NeighborSpec(1)).is_valid
                count += 1
                images.add(pi.values)
        assert count == 64
        assert len(images) == 64  # injectivity


def encoder_runs(params: TnParams, sigmas) -> int:
    """Count the encoder's runs over ``sigmas``, every selector choice walked.

    The walk follows the mandate over the block layout (``_layout``): at each
    step it branches on every non-empty set of the mandated half, and asserts
    that there is one.  Every complete selector must encode."""
    blocks = _layout(params.k, (s.values for s in sigmas))
    half, step2 = params.m // 2, 2 * (params.n + 1)
    runs, todo = 0, [((), 0, (0,) * params.m)]  # selector prefix, D, symbols drawn per set
    while todo:
        prefix, dev2, drawn = todo.pop()
        if len(prefix) == params.n // 2:
            encode_tn(TnInput(params, sigmas, prefix))  # SelectorViolation would fail
            runs += 1
            continue
        sets = range(1, half + 1) if dev2 >= 0 else range(half + 1, params.m + 1)
        options = [i for i in sets if drawn[i - 1] < params.k]
        assert options, f"step {len(prefix) + 1}: every set of {tuple(sets)} is empty after {prefix}"
        for i in options:
            t, block = drawn[i - 1], blocks[i - 1]
            todo.append((prefix + (i,), dev2 + 2 * (block[t] + block[t + 1]) - step2,
                         drawn[:i - 1] + (t + 2,) + drawn[i:]))
    return runs


class TestMandatedHalfNeverEmpty:
    @pytest.mark.parametrize("n,k", [(8, 2), (8, 4), (12, 2)])
    def test_no_selector_choice_exhausts_the_mandated_half(self, n, k):
        # the proof in TnParams.code_size, walked: over every ordering of
        # every set and every choice among the mandated half's non-empty
        # sets, some set is left to choose, and the runs number code_size
        params = TnParams(n, k)
        per_set = [tuple(map(Permutation, itertools.permutations(range(1, k + 1))))] * params.m
        assert sum(encoder_runs(params, sigmas)
                   for sigmas in itertools.product(*per_set)) == params.code_size

    @pytest.mark.parametrize("selector, text", [
        ((1, 3, 1, 2), "step 3: set 1 is not in the mandated upper half"),
        ((3, 1, 2, 4), "step 1: set 3 is not in the mandated lower half"),
        ((1, 3, 4, 1), "step 4: set 1 is already exhausted"),
        ((2, 4, 2, 1), "step 3: set 2 is already exhausted"),
        ((2, 3, 1, 3), "step 4: set 3 is already exhausted")])
    def test_selector_violation_messages(self, selector, text):
        sigmas = (Permutation((1, 2)),) * 4
        with pytest.raises(SelectorViolation) as err:
            encode_tn(TnInput(TnParams(8, 2), sigmas, selector))
        assert str(err.value) == text


class TestDecode:
    def test_golden_selector_and_orderings(self):
        inp = decode_tn(Permutation(EX4_CODEWORD), TnParams(24, 4))
        assert inp == ex4_input()
        assert inp.selector == EX4_SELECTOR

    def test_trivial(self):
        inp = decode_tn(Permutation((1, 2, 3, 4)), TnParams(4, 2))
        assert inp.selector == (1, 2)
        assert [s.values for s in inp.sigmas] == [(1, 2), (1, 2)]

    def test_straddling_pair_rejected(self):
        with pytest.raises(NotCodeword):
            decode_tn(Permutation((1, 3, 2, 4)), TnParams(4, 2))

    def test_length_mismatch(self):
        with pytest.raises(ParamInvalid):
            decode_tn(Permutation((1, 2, 3, 4)), TnParams(8, 2))

    def test_straddle_message_names_the_first_straddling_pair(self):
        with pytest.raises(NotCodeword) as got:
            decode_tn(Permutation((1, 2, 3, 5, 4, 6, 7, 8)), TnParams(8, 2))
        assert str(got.value) == "pair (3, 5) at positions 3,4 straddles sets 2 and 3"


def decode_outcome(decode, pi, params):
    """The decoded input, or the ``NotCodeword`` text."""
    try:
        return decode(pi, params)
    except NotCodeword as exc:
        return str(exc)


def straddle_at(values, t, k):
    """``values`` with the second symbol of pair t swapped for the nearest
    symbol of another set outside the pair (searching forward first)."""
    values = list(values)
    i = 2 * t + 1
    others = [*range(i + 1, len(values)), *range(2 * t - 1, -1, -1)]
    j = next(j for j in others if (values[j] - 1) // k != (values[i] - 1) // k)
    values[i], values[j] = values[j], values[i]
    return Permutation(tuple(values))


class TestDecodeMatchesReference:
    @pytest.mark.parametrize("n,k", [(8, 2), (24, 4), (4096, 16)])
    def test_codewords_and_straddles(self, n, k):
        params = TnParams(n, k)
        rng = random.Random(f"decode-tn/{n}/{k}")
        for _ in range(3):
            inp = random_valid_input(params, rng)
            pi = encode_tn(inp)
            assert decode_tn(pi, params) == reference_decode_tn(pi, params) == inp
            for t in (0, n // 4, n // 2 - 1):
                bad = straddle_at(pi.values, t, k)
                got = decode_outcome(decode_tn, bad, params)
                assert isinstance(got, str) and got.startswith("pair (")
                assert got == decode_outcome(reference_decode_tn, bad, params)

    def test_random_permutations(self):
        rng = random.Random(7107)
        for n, k in ((4, 2), (8, 2), (8, 4), (16, 4), (24, 4)):
            params = TnParams(n, k)
            values = list(range(1, n + 1))
            for _ in range(200):
                rng.shuffle(values)
                pi = Permutation(tuple(values))
                assert (decode_outcome(decode_tn, pi, params)
                        == decode_outcome(reference_decode_tn, pi, params))


class TestRandomEnvelope:
    def test_roundtrips_and_neighbor_bound(self):
        rng = random.Random(991)
        for _ in range(400):
            n, k = rng.choice(VALID_SHAPES)
            params = TnParams(n, k)
            inp = random_valid_input(params, rng)
            counts = {i: inp.selector.count(i) for i in range(1, params.m + 1)}
            assert set(counts.values()) == {k // 2}
            pi = encode_tn(inp)
            assert pi.n == n
            assert decode_tn(pi, params) == inp
            # pairs come from one set, so the bound holds already at k-1
            assert check_two_neighbor(pi, NeighborSpec(k - 1)).is_valid
            assert check_two_neighbor(pi, NeighborSpec(k)).is_valid

    @pytest.mark.parametrize("n,k", [(8, 2), (12, 2), (24, 4), (48, 4)])
    def test_seeded_stream_matches_reference(self, n, k):
        # the sampler draws from rng exactly as before, so seeded inputs stay put
        for seed in range(40):
            params = TnParams(n, k)
            assert (random_valid_input(params, random.Random(seed))
                    == reference_random_valid_input(params, random.Random(seed)))

    @pytest.mark.parametrize("seed", range(6))
    def test_draws_are_uniform_per_step_not_per_codeword(self, seed):
        # walk the sampler's draw tree over the orderings it drew, exactly:
        # each step splits its probability evenly over the mandated half's
        # non-empty sets
        params = TnParams(16, 4)
        inp = random_valid_input(params, random.Random(seed))
        blocks = _layout(params.k, (s.values for s in inp.sigmas))
        half = params.m // 2
        odds = {}
        stack = [((), (0,) * (params.m + 1), 0, Fraction(1))]
        while stack:
            selector, drawn, dev2, p = stack.pop()
            if len(selector) == params.n // 2:
                odds[selector] = p
                continue
            sets = range(1, half + 1) if dev2 >= 0 else range(half + 1, params.m + 1)
            choices = [i for i in sets if drawn[i] < params.k]
            for i in choices:
                t = drawn[i]
                pair = blocks[i - 1][t] + blocks[i - 1][t + 1]
                stack.append((selector + (i,), drawn[:i] + (t + 2,) + drawn[i + 1:],
                              dev2 + 2 * pair - 2 * (params.n + 1), p / len(choices)))
        assert sum(odds.values()) == 1
        assert inp.selector in odds
        assert (len(odds), min(odds.values()), max(odds.values())) == (
            36, Fraction(1, 64), Fraction(1, 16))

    def test_even_prefix_deviations_bounded(self):
        # the half rule contracts the deviation: even prefixes stay within n-2
        rng = random.Random(992)
        for _ in range(100):
            n, k = rng.choice(VALID_SHAPES)
            pi = encode_tn(random_valid_input(TnParams(n, k), rng))
            for j in range(2, n + 1, 2):
                assert abs(prefix_deviation(pi, j)) <= n - 2


class TestJson:
    def test_roundtrip(self):
        obj = tn_input_to_json_dict(ex4_input())
        assert obj["n"] == 24 and obj["k"] == 4
        assert obj["selector"] == list(EX4_SELECTOR)
        assert tn_input_from_json_dict(json.loads(json.dumps(obj))) == ex4_input()

    def test_missing_field(self):
        with pytest.raises(ParamInvalid):
            tn_input_from_json_dict({"n": 8, "k": 2, "sigmas": []})

    @pytest.mark.parametrize("field,index,bad", [
        ("sigmas", 0, 2.7), ("sigmas", 1, True), ("selector", None, 1.0),
        ("selector", None, False), ("n", None, 24.0), ("k", None, "4")])
    def test_non_integers_rejected_not_coerced(self, field, index, bad):
        obj = tn_input_to_json_dict(ex4_input())
        if field == "sigmas":
            obj[field][0][index] = bad
        elif field == "selector":
            obj[field][0] = bad
        else:
            obj[field] = bad
        # the loader checks nothing itself: Permutation refuses a sigma
        # entry, the value types the other fields
        error, text = ((NotPermutation, f"symbol {bad!r} is not an integer") if field == "sigmas"
                       else (ParamInvalid, f"expected an integer, got {bad!r}"))
        with pytest.raises(error) as info:
            tn_input_from_json_dict(obj)
        assert str(info.value) == text
