"""The prefix-deviation kernel behind the verifiers and claim suites, checked
for exact equality against the slow window-scanning references in support.py:
exhaustively at small n and on seeded, corrupted codewords at large n."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from bpc import (
    BalanceSpec,
    D2Params,
    Permutation,
    TnParams,
    d1_claim_suite,
    d1_preset,
    d2_claim_suite,
    d2_preset,
    disc,
    encode_d1,
    encode_d2,
    tn_claim_suite,
    verify_balance,
)
from support import (
    brute_window_max_dev,
    random_d1_input,
    random_d2_input,
    reference_containment,
    reference_d1_claim_suite,
    reference_d2_claim_suite,
    reference_tn_claim_suite,
    reference_verify_balance,
)


def hand_built_specs(n: int) -> list[BalanceSpec]:
    """Empty, single-block, non-contiguous, half-integer and non-uniform
    specs; all but the empty one are tight enough that many permutations
    of length n fail them."""
    specs = [BalanceSpec(n, (), {})]
    if n >= 2:
        b = n // 2
        specs.append(BalanceSpec(n, (b,), {b: Fraction(1, 2)}))
    if n >= 3:
        specs.append(BalanceSpec(n, (1, 3), {1: Fraction(3, 2), 3: Fraction(2)}))
    if 5 <= n <= 7:
        specs.append(BalanceSpec(n, (2, 3, 5), {2: Fraction(1), 3: Fraction(5, 2),
                                               5: Fraction(3)}))
    if n >= 6:
        specs.append(BalanceSpec(n, (2, 4, 6), {2: Fraction(3, 2), 4: Fraction(1),
                                               6: Fraction(7, 2)}))
    return specs


def all_perms(n):
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def same_claims(suite, reference, perms, config) -> bool:
    return suite(perms, config).to_json_dict() == reference(perms, config).to_json_dict()


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_balance_matches_reference_exhaustively(n):
    specs = [d1_preset(n)] + hand_built_specs(n)
    if n == 8:
        specs.append(d2_preset(8, 4))
    violating = 0
    for pi in all_perms(n):
        for spec in specs:
            report = verify_balance(pi, spec)
            assert report == reference_verify_balance(pi, spec), (pi, spec)
            violating += not report.is_valid
    assert violating > 0 or n <= 2


@pytest.mark.parametrize("n", range(1, 8))
def test_disc_matches_brute_force_exhaustively(n):
    for pi in all_perms(n):
        for b in range(1, n + 1):
            assert disc(pi, b) == brute_window_max_dev(pi.values, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_d1_claim_suite_matches_reference_exhaustively(n):
    perms = all_perms(n)
    for pi in perms:
        assert same_claims(d1_claim_suite, reference_d1_claim_suite, [pi], n)
    assert same_claims(d1_claim_suite, reference_d1_claim_suite, perms, n)


@pytest.mark.parametrize("n,N", [(4, 4), (8, 4), (8, 8)])
def test_d2_claim_suite_matches_reference_exhaustively(n, N):
    params = D2Params(n, N)
    perms = all_perms(n)
    for pi in perms:
        assert same_claims(d2_claim_suite, reference_d2_claim_suite, [pi], params)
    assert same_claims(d2_claim_suite, reference_d2_claim_suite, perms, params)


@pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (8, 4)])
def test_tn_claim_suite_matches_reference_exhaustively(n, k):
    params = TnParams(n, k)
    perms = all_perms(n)
    for pi in perms:
        assert same_claims(tn_claim_suite, reference_tn_claim_suite, [pi], params)


def test_d2_claim_suite_matches_reference_on_random_permutations():
    # at n = 32..96 the locality and window bounds fail at varied (b, i)
    rng = random.Random(2718)
    for n, N in [(32, 8), (48, 4), (64, 16), (96, 8)]:
        params = D2Params(n, N)
        for _ in range(150):
            values = list(range(1, n + 1))
            rng.shuffle(values)
            pi = Permutation(tuple(values))
            assert same_claims(d2_claim_suite, reference_d2_claim_suite, [pi], params)
            spec = d2_preset(n, N)
            assert verify_balance(pi, spec) == reference_verify_balance(pi, spec)


def corrupted(rng: random.Random, pi: Permutation, how: str) -> Permutation:
    """2-4 swaps.  ``adjacent`` swaps neighbors and ``far`` random positions.
    ``extreme`` moves a symbol of the highest eighth from the back half in
    front of one of the lowest eighth from the front half: each such swap
    raises the middle prefix deviations by more than 3n/2, enough for a few
    of them to break the d1 allowance of 2(n+1) by a wide margin."""
    values = list(pi.values)
    n = len(values)
    for _ in range(rng.randint(2, 4)):
        if how == "adjacent":
            a = rng.randrange(n - 1)
            c = a + 1
        elif how == "far":
            a, c = rng.randrange(n), rng.randrange(n)
        else:
            a = rng.choice([i for i in range(n // 2) if values[i] <= n // 8])
            c = rng.choice([i for i in range(n // 2, n) if values[i] > n - n // 8])
        values[a], values[c] = values[c], values[a]
    return Permutation(tuple(values))


def seeded_batch(rng, codewords, kinds):
    return [variant for pi in codewords
            for variant in (pi, *(corrupted(rng, pi, how) for how in kinds))]


def test_d1_large_codewords_match_reference():
    rng = random.Random(1024)
    n = 1024
    spec = d1_preset(n)
    codewords = [encode_d1(random_d1_input(rng, n)) for _ in range(3)]
    batch = seeded_batch(rng, codewords, ("adjacent", "far"))
    batch.append(corrupted(rng, codewords[0], "extreme"))
    invalid = 0
    for pi in batch:
        report = verify_balance(pi, spec)
        assert report == reference_verify_balance(pi, spec)
        invalid += not report.is_valid
        assert same_claims(d1_claim_suite, reference_d1_claim_suite, [pi], n)
    # the swaps push windows past the allowance, so the listing path runs
    assert invalid >= 1
    assert same_claims(d1_claim_suite, reference_d1_claim_suite, batch, n)


def test_d2_large_codewords_match_reference():
    rng = random.Random(4096)
    params = D2Params(4096, 64)
    spec = d2_preset(4096, 64)
    # d2 codewords keep both extreme eighths in their first cells, so the
    # random swaps are the far corruption here
    batch = seeded_batch(rng, [encode_d2(random_d2_input(rng, params))
                               for _ in range(2)], ("adjacent", "far"))
    for pi in batch:
        assert verify_balance(pi, spec) == reference_verify_balance(pi, spec)
        assert same_claims(d2_claim_suite, reference_d2_claim_suite, [pi], params)
    report = d2_claim_suite(batch, params)
    assert report.to_json_dict() == reference_d2_claim_suite(batch, params).to_json_dict()
    assert not report.all_pass


def test_containment_closed_form_matches_scan_for_every_valid_params():
    for n in range(4, 513):
        for N in range(4, n + 1, 4):
            if n % N:
                continue
            params = D2Params(n, N)
            assert reference_containment(n, 4 * n // N, params.window_lengths) is None
