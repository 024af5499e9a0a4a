"""The d1 and d2 claim suites check their window bound only on a word that
fails one of the suite's earlier bounds, because those bounds imply it (the
proofs are in the suites' docstrings).  Their reports must still equal the
slow references in support.py, which run every bound on every word: counts
and first counterexamples alike.

Checked exhaustively over S_n for d1 at n <= 8 and for d2 at (8, 4), where
neither pair locality nor a window can fail, and on seeded batches of
codewords, codewords with 1-4 adjacent swaps and random permutations.  One
witness is pinned per premise: for d2, a word that passes each premise alone
and fails the window bound; for d1, a word that fails the prefix bound and
passes the window bound.
"""

import random
from itertools import permutations

import pytest

from bpc import (
    D2Params,
    Permutation,
    d1_claim_suite,
    d2_claim_suite,
    decode_d2,
    encode_d1,
    encode_d2,
    identity,
)
from support import (
    CODEWORD_64_16,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_d1_claim_suite,
    reference_d2_claim_suite,
)

def failures(report):
    return {b.name: b.failures for b in report.bounds}


@pytest.mark.parametrize("n", range(1, 9))
def test_d1_suite_equals_reference_on_all_of_s_n(n):
    perms = [Permutation(v) for v in permutations(range(1, n + 1))]
    assert d1_claim_suite(perms, n) == reference_d1_claim_suite(perms, n)


def test_d2_suite_equals_reference_on_all_of_s_8():
    # span 4n/N = 8 exceeds every gap in S_8, so locality passes on every
    # word; the one preset length, 2, deviates by at most 6 against 18
    params = D2Params(8, 4)
    perms = [Permutation(v) for v in permutations(range(1, 9))]
    report = d2_claim_suite(perms, params)
    assert report == reference_d2_claim_suite(perms, params)
    assert failures(report) == {
        "even_prefix_bound": 15136, "pair_locality": 0, "window_bound": 0}


def swapped(rng: random.Random, values) -> Permutation:
    """``values`` after 1-4 swaps of adjacent positions."""
    values = list(values)
    for _ in range(rng.randint(1, 4)):
        a = rng.randrange(len(values) - 1)
        values[a], values[a + 1] = values[a + 1], values[a]
    return Permutation(tuple(values))


def mixed_batch(rng: random.Random, encode, n: int, count: int) -> list[Permutation]:
    """``count`` codewords from ``encode(rng)``, each beside a copy with
    adjacent swaps and a random permutation of length n."""
    batch = []
    for _ in range(count):
        codeword = encode(rng)
        batch += [codeword, swapped(rng, codeword.values), random_permutation(rng, n)]
    return batch


@pytest.mark.parametrize("n, N, count", [
    (16, 4, 12), (32, 8, 12), (48, 4, 12), (1024, 16, 3), (4096, 64, 2),
])
def test_d2_suite_equals_reference_on_seeded_batches(n, N, count):
    params = D2Params(n, N)
    rng = random.Random(f"claims/d2/{n}/{N}")
    batch = mixed_batch(rng, lambda r: encode_d2(random_d2_input(r, params)), n, count)
    assert d2_claim_suite(batch, params) == reference_d2_claim_suite(batch, params)


@pytest.mark.parametrize("n, count", [(16, 12), (64, 12), (1024, 3)])
def test_d1_suite_equals_reference_on_seeded_batches(n, count):
    rng = random.Random(f"claims/d1/{n}")
    batch = mixed_batch(rng, lambda r: encode_d1(random_d1_input(r, n)), n, count)
    assert d1_claim_suite(batch, n) == reference_d1_claim_suite(batch, n)


def test_d2_witness_passes_even_prefix_and_fails_locality_and_window():
    # the first emitted pair, (3, 60), swapped in place: every even prefix
    # keeps its sum
    params = D2Params(64, 16)
    codeword = Permutation(CODEWORD_64_16)
    assert encode_d2(decode_d2(codeword, params)) == codeword
    word = Permutation((60, 3) + CODEWORD_64_16[2:])
    report = d2_claim_suite([word], params)
    assert report == reference_d2_claim_suite([word], params)
    assert failures(report) == {
        "even_prefix_bound": 0, "pair_locality": 1, "window_bound": 1}
    detail = report.bounds[2].first_counterexample.detail
    assert detail == {"b": "2", "j": "2", "dev": "57", "allowed": "65/2"}


def test_d2_witness_passes_locality_and_fails_even_prefix_and_window():
    params = D2Params(64, 16)
    word = identity(64)
    report = d2_claim_suite([word], params)
    assert report == reference_d2_claim_suite([word], params)
    assert failures(report) == {
        "even_prefix_bound": 1, "pair_locality": 0, "window_bound": 1}


def test_d1_witness_fails_prefix_and_passes_window():
    # prefixes of 1 3 6 ... sink to 43/2 below the mean, past the allowance
    # 21, while no window strays past 42
    word = Permutation((1, 3, 6, 2, 14, 5, 12, 8, 19, 7, 9, 13, 10, 16, 15, 20, 18, 17, 11, 4))
    report = d1_claim_suite([word], 20)
    assert report == reference_d1_claim_suite([word], 20)
    assert failures(report) == {"prefix_bound": 1, "window_bound": 0}
