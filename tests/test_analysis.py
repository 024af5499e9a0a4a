import math
import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from bpc import (
    BalanceSpec,
    D2Params,
    IndexOutOfRange,
    LimitExceeded,
    NeighborSpec,
    ParamInvalid,
    Permutation,
    SpecMismatch,
    TnParams,
    census,
    check_two_neighbor,
    claim_suite,
    d1_claim_suite,
    d1_preset,
    d2_claim_suite,
    disc,
    encode_d1,
    identity,
    min_disc,
    rate_report,
    rate_report_d1,
    rate_report_d2,
    rate_report_tn,
    tn_claim_suite,
    tn_code_size,
    verify_balance,
    window_sum,
)
from support import (
    EX1_CODEWORD,
    EX3_CODEWORD,
    EX4_CODEWORD,
    MIN_DISC_SET_N4,
    all_d1_inputs,
    memo_tn_code_size,
    random_permutation,
)


def pair_window_spec(n: int, allowed) -> BalanceSpec:
    return BalanceSpec(n, (2,), {2: Fraction(allowed)})


class TestCensus:
    def test_tightest_pair_windows_n4(self):
        result = census(4, pair_window_spec(4, 1), cap=24)
        assert result.count == 8
        assert [p.values for p in result.achievers] == list(MIN_DISC_SET_N4)

    def test_agrees_with_inline_filter(self):
        spec = pair_window_spec(4, 1)
        expected = [p for p in permutations(range(1, 5))
                    if all(abs(sum(p[j:j + 2]) - 5) <= 1 for j in range(3))]
        result = census(4, spec, cap=100)
        assert [a.values for a in result.achievers] == expected

    def test_full_preset_contains_codewords(self):
        result = census(4, d1_preset(4), cap=24)
        assert result.count == 24  # the bound is vacuous at n=4
        codewords = {encode_d1(inp).values for inp in all_d1_inputs(4)}
        assert codewords <= {a.values for a in result.achievers}
        assert len(codewords) == 4

    def test_single_element(self):
        spec = BalanceSpec(1, (1,), {1: Fraction(0)})
        result = census(1, spec, cap=5)
        assert result.count == 1
        assert result.achievers[0].values == (1,)

    def test_neighbor_filter_matches_inline_scan(self):
        spec = d1_preset(5)  # vacuous at n=5, isolates the neighbor filter

        def neighbor_ok(vals, k):
            return all(abs(vals[i] - vals[i - 1]) <= k
                       or abs(vals[i] - vals[i + 1]) <= k
                       for i in range(1, len(vals) - 1))

        expected = sum(neighbor_ok(p, 2) for p in permutations(range(1, 6)))
        result = census(5, spec, neighbor=NeighborSpec(2))
        assert result.count == expected
        assert result.achievers == ()  # default cap keeps the list empty

    def test_cap_truncates_not_count(self):
        result = census(4, pair_window_spec(4, 1), cap=3)
        assert result.count == 8
        assert len(result.achievers) == 3
        assert [p.values for p in result.achievers] == list(MIN_DISC_SET_N4[:3])

    def test_limit_guard(self):
        with pytest.raises(LimitExceeded):
            census(11, d1_preset(11))
        # raising the limit explicitly is allowed
        census(4, d1_preset(4), limit=4)

    def test_spec_length_must_match(self):
        with pytest.raises(SpecMismatch):
            census(4, d1_preset(5))

    def test_worker_count_does_not_change_output(self):
        spec = pair_window_spec(5, Fraction(3, 2))
        seq = census(5, spec, cap=10, workers=0)
        par = census(5, spec, cap=10, workers=3)
        assert seq == par

    def test_negative_worker_count_rejected(self):
        spec = pair_window_spec(4, 1)
        assert census(4, spec, cap=24) == census(4, spec, cap=24, workers=0)
        with pytest.raises(ParamInvalid, match="worker count must be >= 0"):
            census(4, spec, workers=-1)
        with pytest.raises(ParamInvalid, match="worker count must be >= 0"):
            min_disc(4, 2, workers=-1)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 3), (5, 5), (6, 9)])
    def test_neighbor_range_errors_match_the_verifier(self, n, k):
        with pytest.raises(SpecMismatch) as verifier:
            check_two_neighbor(identity(n), NeighborSpec(k))
        with pytest.raises(SpecMismatch) as search:
            census(n, d1_preset(n), neighbor=NeighborSpec(k))
        assert str(search.value) == str(verifier.value)


def test_search_answers_under_a_low_recursion_limit():
    # the search is a loop: a recursion limit of 25, far below the stack a
    # recursive search over S_9 would need with its callers, changes nothing
    import subprocess
    import sys
    from pathlib import Path

    import bpc

    src = str(Path(bpc.__file__).resolve().parent.parent)
    probe = ("import sys\n"
             "from fractions import Fraction\n"
             "from bpc import BalanceSpec\n"
             "from bpc.analysis import census, min_disc\n"
             "sys.setrecursionlimit(25)\n"
             "print(census(9, BalanceSpec(9, (2,), {2: Fraction(3, 2)})).count)\n"
             "print(min_disc(9, 2))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "42\n(Fraction(1, 1), 42)\n"

class TestMinDisc:
    def test_n4_pair_windows(self):
        assert min_disc(4, 2) == (Fraction(1), 8)

    def test_n2_single_window(self):
        # both permutations sum the full window to 3, the exact target
        assert min_disc(2, 2) == (Fraction(0), 2)

    def test_matches_disc_oracle(self):
        for n, b in ((3, 2), (4, 3), (5, 2), (5, 4)):
            values = [disc(Permutation(p), b)
                      for p in permutations(range(1, n + 1))]
            best = min(values)
            assert min_disc(n, b) == (best, values.count(best))

    def test_low_everywhere_up_to_n6(self):
        for n in range(2, 7):
            for b in range(2, n + 1):
                value, count = min_disc(n, b)
                assert value <= 2
                assert count >= 1

    def test_bounds(self):
        with pytest.raises(IndexOutOfRange):
            min_disc(4, 1)
        with pytest.raises(IndexOutOfRange):
            min_disc(4, 5)
        with pytest.raises(LimitExceeded):
            min_disc(11, 2)

    def test_worker_count_does_not_change_output(self):
        assert min_disc(5, 2, workers=4) == min_disc(5, 2, workers=0)


class TestRates:
    def test_two_source_n12(self):
        report = rate_report_d1(12)
        assert report.code_log2 == pytest.approx(2 * math.log2(720))
        assert report.perm_log2 == pytest.approx(math.log2(factorial(12)))
        assert report.rate == pytest.approx(0.658346, abs=1e-6)
        assert report.target == 1.0

    def test_matches_lgamma_oracle(self):
        for n in (10, 100, 1000):
            report = rate_report_d1(n)
            oracle = 2 * math.lgamma(n / 2 + 1) / math.lgamma(n + 1)
            assert report.rate == pytest.approx(oracle, rel=1e-9)

    def test_block_codec_example(self):
        report = rate_report_d2(32, epsilon=Fraction(3, 5))
        assert "N=8" in report.config
        assert report.code_log2 == pytest.approx(8 * math.log2(24))
        assert report.rate == pytest.approx(0.311735, abs=1e-6)
        assert report.target == pytest.approx(0.4)

    def test_block_codec_epsilon_consistency(self):
        with pytest.raises(ParamInvalid):
            rate_report_d2(32, N=4, epsilon=Fraction(3, 5))
        with pytest.raises(ParamInvalid):
            rate_report_d2(32)

    def test_neighbor_codec_exhaustive(self):
        report = rate_report_tn(8, k=2)
        assert report.code_log2 == pytest.approx(6.0)  # 64 codewords
        assert report.rate == pytest.approx(6 / math.log2(factorial(8)))
        assert report.target is None
        assert report.to_json_dict()["note"] is None

    def test_neighbor_codec_past_the_enumeration_limit(self):
        # ceil(24**(2/5)) = 4, consistent with k=4; (6! * (4!/2!)**3)**2 codewords
        size = 1_547_934_105_600
        report = rate_report_tn(24, k=4, epsilon_k=Fraction(2, 5))
        assert tn_code_size(TnParams(24, 4), limit=24) == size
        assert report.code_log2 == math.log2(size)
        assert report.rate == report.code_log2 / math.log2(factorial(24))
        assert 0.5 < report.rate < 0.6
        assert report.target == pytest.approx(0.7)

    def test_neighbor_codec_rate_trend(self):
        # n = k**2 with eps_k = 1/2: the rate climbs toward (1 + 1/2)/2
        rates = []
        for k in (4, 8, 16, 32, 64, 128, 256):
            report = rate_report_tn(k * k, epsilon_k=Fraction(1, 2))
            assert report.config == f"tn(k={k}, eps_k=1/2)"
            assert report.target == 0.75
            rates.append(report.rate)
        assert rates == sorted(set(rates))
        assert rates[-1] < 0.75
        assert rates[0] == pytest.approx(0.531, abs=1e-3)
        assert rates[-1] == pytest.approx(0.691, abs=1e-3)

    def test_the_label_shows_the_exponent_in_lowest_terms(self):
        # a float or a decimal string names the same code as its Fraction
        d2 = {rate_report_d2(64, epsilon=e) for e in (0.5, "0.50", "2/4", Fraction(1, 2))}
        assert [report.config for report in d2] == ["d2(N=8, eps=1/2)"]
        tn = {rate_report_tn(64, epsilon_k=e) for e in (0.5, "0.50", "2/4", Fraction(1, 2))}
        assert [report.config for report in tn] == ["tn(k=8, eps_k=1/2)"]

    def test_neighbor_codec_scaling_consistency(self):
        with pytest.raises(ParamInvalid):
            rate_report_tn(24, k=4, epsilon_k=Fraction(1, 2))

    def test_dispatcher(self):
        assert rate_report("d1", 12) == rate_report_d1(12)
        assert rate_report("d2", 32, N=8) == rate_report_d2(32, N=8)
        assert rate_report("tn", 8, k=2) == rate_report_tn(8, k=2)
        with pytest.raises(ParamInvalid):
            rate_report("xyz", 8)

    @pytest.mark.parametrize("config, n, own, foreign", [
        ("d1", 8, {}, {"N": 4}),
        ("d1", 8, {}, {"epsilon_k": Fraction(1, 2)}),
        ("d2", 16, {"N": 4}, {"k": 4}),
        ("d2", 16, {"epsilon": Fraction(1, 2)}, {"epsilon_k": Fraction(1, 2)}),
        ("tn", 16, {"k": 4}, {"epsilon": Fraction(1, 2)}),
        ("tn", 16, {"epsilon_k": Fraction(1, 2)}, {"N": 4}),
    ])
    def test_dispatcher_refuses_a_keyword_of_another_codec(self, config, n, own, foreign):
        rate_report(config, n, **own)
        (name, _), = foreign.items()
        message = f"^{name} is not a parameter of the {config} codec$"
        with pytest.raises(ParamInvalid, match=message):
            rate_report(config, n, **own, **foreign)

    def test_odd_length_rejected(self):
        with pytest.raises(ParamInvalid):
            rate_report_d1(13)


class TestTnCodeSize:
    def test_smallest_shape(self):
        assert tn_code_size(TnParams(8, 2)) == 64

    def test_one_set_pair_per_half(self):
        # n=8, k=4: two sets; selectors alternate between the halves
        size = tn_code_size(TnParams(8, 4))
        # oracle: enumerate the inputs directly with the reference encoder
        import itertools
        from support import reference_encode_tn
        from bpc import TnInput

        count = 0
        per_set = list(itertools.permutations(range(1, 5)))
        sels = sorted(set(itertools.permutations((1, 1, 2, 2))))
        for s1 in per_set:
            for s2 in per_set:
                sigmas = (Permutation(s1), Permutation(s2))
                for sel in sels:
                    if reference_encode_tn(
                            TnInput(TnParams(8, 4), sigmas, sel)) is not None:
                        count += 1
        assert size == count

    def test_limit_guard(self):
        with pytest.raises(LimitExceeded):
            tn_code_size(TnParams(16, 2))

    def test_limit_message_claims_no_enumeration(self):
        with pytest.raises(LimitExceeded) as exc:
            tn_code_size(TnParams(24, 4))
        assert str(exc.value) == ("tn code size at n=24 is past the limit 10; "
                                  "raise the limit explicitly")

    @pytest.mark.parametrize("n, k", [
        *((n, k) for n in range(4, 17, 4) for k in range(2, n // 2 + 1, 2)
          if n % (2 * k) == 0),
        (20, 2), (24, 2),
    ])
    def test_closed_form_matches_memoized_search(self, n, k):
        params = TnParams(n, k)
        assert tn_code_size(params, limit=n) == memo_tn_code_size(params)
        assert params.code_size == memo_tn_code_size(params)


class TestClaimSuites:
    def test_codeword_passes(self):
        report = d1_claim_suite([Permutation(EX1_CODEWORD)], 12)
        assert report.all_pass
        assert [b.name for b in report.bounds] == ["prefix_bound", "window_bound"]
        assert report.total == 1

    def test_identity_12_fails_prefix_only(self):
        # identity prefixes sink to 18 below the mean, past the allowance 13,
        # while no length-12 window can stray past 26
        report = d1_claim_suite([identity(12)], 12)
        by_name = {b.name: b for b in report.bounds}
        assert by_name["prefix_bound"].failures == 1
        assert by_name["window_bound"].failures == 0
        witness = by_name["prefix_bound"].first_counterexample
        # first prefix past the bound: 1+2+3 = 6 vs 3*13/2
        assert witness.detail["j"] == "3"
        assert witness.detail["dev"] == "-27/2"

    def test_identity_20_fails_both(self):
        report = d1_claim_suite([identity(20)], 20)
        by_name = {b.name: b for b in report.bounds}
        assert by_name["prefix_bound"].failures == 1
        assert by_name["window_bound"].failures == 1
        witness = by_name["window_bound"].first_counterexample
        b = int(witness.detail["b"])
        j = int(witness.detail["j"])
        dev = Fraction(witness.detail["dev"])
        # the reported window is a genuine violation of the full preset
        assert abs(window_sum(identity(20), j, b) - Fraction(b * 21, 2)) == dev
        assert dev > 42

    def test_window_bound_equals_full_verifier(self):
        rng = random.Random(5150)
        for _ in range(60):
            n = rng.randint(2, 40)
            pi = random_permutation(rng, n)
            fast = d1_claim_suite([pi], n)
            by_name = {b.name: b for b in fast.bounds}
            slow_valid = verify_balance(pi, d1_preset(n)).is_valid
            assert (by_name["window_bound"].failures == 0) == slow_valid

    def test_block_suite_golden(self):
        report = d2_claim_suite([Permutation(EX3_CODEWORD)], D2Params(32, 8))
        assert report.all_pass
        assert [b.name for b in report.bounds] == [
            "even_prefix_bound", "pair_locality", "window_bound"]

    def test_block_suite_flags_identity(self):
        report = d2_claim_suite([identity(32)], D2Params(32, 8))
        by_name = {b.name: b for b in report.bounds}
        assert by_name["even_prefix_bound"].failures == 1
        witness = by_name["even_prefix_bound"].first_counterexample
        assert Fraction(witness.detail["dev"]) < -8

    def test_block_suite_pair_locality_witness(self):
        # a window straddling symbols 4n/N apart in value trips the bound
        scrambled = Permutation((1, 32) + tuple(range(2, 32)))
        report = d2_claim_suite([scrambled], D2Params(32, 8))
        by_name = {b.name: b for b in report.bounds}
        assert by_name["pair_locality"].failures == 1

    def test_neighbor_suite_golden(self):
        report = tn_claim_suite([Permutation(EX4_CODEWORD)], TnParams(24, 4))
        assert report.all_pass
        assert [b.name for b in report.bounds] == ["two_neighbor", "window_bound"]

    def test_neighbor_suite_flags_zigzag(self):
        zigzag = Permutation((1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7))
        report = tn_claim_suite([zigzag], TnParams(12, 2))
        by_name = {b.name: b for b in report.bounds}
        assert by_name["two_neighbor"].failures == 1
        assert by_name["two_neighbor"].first_counterexample.detail["i"] == "2"

    def test_dispatcher(self):
        pi = Permutation(EX1_CODEWORD)
        assert claim_suite([pi], "d1") == d1_claim_suite([pi], 12)
        got = claim_suite([Permutation(EX3_CODEWORD)], D2Params(32, 8))
        assert got.all_pass
        got = claim_suite([Permutation(EX4_CODEWORD)], TnParams(24, 4))
        assert got.all_pass
        with pytest.raises(ParamInvalid):
            claim_suite([pi], "other")
        with pytest.raises(ParamInvalid):
            claim_suite([], "d1")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParamInvalid):
            d1_claim_suite([identity(4), identity(6)], 4)

    def test_json_shape(self):
        report = d1_claim_suite([identity(12), Permutation(EX1_CODEWORD)], 12)
        obj = report.to_json_dict()
        assert obj["total"] == 2
        prefix = obj["bounds"][0]
        assert prefix["name"] == "prefix_bound"
        assert prefix["checked"] == 2
        assert prefix["passed"] == 1
        assert prefix["failures"] == 1
        assert prefix["first_counterexample"]["perm"] == "1 2 3 4 5 6 7 8 9 10 11 12"


def test_exhaustive_consistency_small_codec_image():
    # every codeword is found by the census, and the image size matches
    spec = d1_preset(4)
    achievers = {a.values for a in census(4, spec, cap=24).achievers}
    codewords = {encode_d1(inp).values for inp in all_d1_inputs(4)}
    assert len(codewords) == factorial(2) ** 2
    assert codewords <= achievers
    report = d1_claim_suite([Permutation(v) for v in sorted(codewords)], 4)
    assert report.all_pass


def test_exhaustive_consistency_block_codec_image():
    from bpc import d2_preset, encode_d2
    from support import all_d2_inputs

    params = D2Params(8, 4)
    achievers = {a.values
                 for a in census(8, d2_preset(8, 4), cap=factorial(8)).achievers}
    codewords = {encode_d2(inp).values for inp in all_d2_inputs(params)}
    assert len(codewords) == factorial(2) ** 4
    assert codewords <= achievers
