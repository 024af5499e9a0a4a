"""The two-neighbor check in packed integer lanes.

``balance._far_neighbors`` tests every adjacent gap at once in 32- or
64-bit lanes of one big int; it is checked against a plain loop on arbitrary
int sequences at both lane widths, and ``check_two_neighbor`` and
``tn_claim_suite``, which read it, against their slow references in
support.py on seeded permutations up to n = 5000 and on the alternating
word 1, n, 2, n-1, ..."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bpc import NeighborSpec, Permutation, TnParams, check_two_neighbor, tn_claim_suite
from bpc.balance import _far_neighbors
from support import (
    random_permutation,
    reference_check_two_neighbor,
    reference_tn_claim_suite,
)

WIDE = 1 << 29  # the least n packed in 64-bit lanes


def plain_far_neighbors(values, k):
    return [t for t in range(len(values) - 2)
            if abs(values[t + 1] - values[t]) > k and abs(values[t + 2] - values[t + 1]) > k]


@st.composite
def lane_cases(draw):
    """2-300 ints in [0, n] (so the packed int crosses several 30-bit digit
    boundaries) and a bound k in [0, n]: n below 2**29, for 32-bit lanes,
    or from 2**29 up to 2**61 - 1, for 64-bit lanes whose values mostly lie
    at or above 2**29.  Each step is 0, +-k, +-(k+1) or a fresh value,
    clamped into [0, n], so equal neighbors and gaps of exactly k and k+1
    are common."""
    n = draw(st.one_of(
        st.sampled_from([1, 2, WIDE - 1, WIDE, 2 * WIDE, 4 * WIDE - 1, (1 << 61) - 1]),
        st.integers(1, 64), st.integers(1, WIDE - 1), st.integers(WIDE, (1 << 61) - 1)))
    k = draw(st.one_of(st.integers(0, min(n, 20)), st.integers(0, n)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = rng.randint(0, n)
    values = [x]
    for _ in range(draw(st.integers(1, 299))):
        step = rng.choice((0, k, -k, k + 1, -k - 1, None))
        x = rng.randint(0, n) if step is None else min(max(x + step, 0), n)
        values.append(x)
    return values, n, k


@settings(deadline=None, max_examples=500, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lane_cases())
@example(([0, 5, 0, 5, 0], 5, 4))  # every gap k + 1
@example(([0, 5, 0, 5, 0], 5, 5))  # every gap exactly k
@example(([7, 7, 7], 7, 0))  # equal neighbors
@example(([0, WIDE - 1, 0, WIDE - 1], WIDE - 1, 0))  # the widest 32-bit gaps
@example(([0, WIDE, 0, WIDE], WIDE, WIDE - 1))  # the narrowest 64-bit case
@example(([4 * WIDE - 1, 0, 4 * WIDE - 1], 4 * WIDE - 1, 4 * WIDE - 1))  # would borrow in 32 bits
@example(([(1 << 61) - 1, 0, (1 << 61) - 1], (1 << 61) - 1, 1))
def test_far_neighbors_match_a_plain_loop(case):
    values, n, k = case
    assert list(_far_neighbors(values, n, k)) == plain_far_neighbors(values, k)
    assert list(_far_neighbors(tuple(values), n, k)) == plain_far_neighbors(values, k)


def alternating(n: int) -> Permutation:
    """1, n, 2, n-1, ...: its gaps are n-1, n-2, ..., 1, so for k <= n-3
    every interior position up to n-1-k has both gaps above k."""
    values = []
    for low in range(1, n // 2 + 1):
        values += [low, n + 1 - low]
    if n % 2:
        values.append(n // 2 + 1)
    return Permutation(tuple(values))


def bounds(n: int) -> list[int]:
    return sorted({k for k in (1, 2, 16, n - 1) if 1 <= k <= n - 1})


@pytest.mark.parametrize("n", [3, 4, 5, 31, 32, 33, 257, 1000, 4096, 5000])
def test_check_two_neighbor_matches_reference_on_seeded_permutations(n):
    rng = random.Random(f"neighbor-lanes/{n}")
    for pi in [random_permutation(rng, n) for _ in range(3)] + [alternating(n)]:
        for k in bounds(n):
            spec = NeighborSpec(k)
            assert check_two_neighbor(pi, spec) == reference_check_two_neighbor(pi, spec)


@pytest.mark.parametrize("n", [3, 4, 5, 64, 4096, 4097])
def test_alternating_word_violates_at_every_position_whose_gaps_exceed_k(n):
    pi = alternating(n)
    assert sorted(pi.values) == list(range(1, n + 1))
    for k in bounds(n):
        report = check_two_neighbor(pi, NeighborSpec(k))
        assert report == reference_check_two_neighbor(pi, NeighborSpec(k))
        assert [e.i for e in report.entries] == list(range(2, n - k))


def test_tn_claim_suite_reports_the_first_violation_like_the_reference():
    params = TnParams(4096, 16)
    rng = random.Random("neighbor-lanes/claims")
    batch = [random_permutation(rng, 4096), alternating(4096), random_permutation(rng, 4096)]
    report = tn_claim_suite(batch, params)
    assert report.to_json_dict() == reference_tn_claim_suite(batch, params).to_json_dict()
    first = report.bounds[0].first_counterexample
    assert first.perm == batch[0]
    assert report.bounds[0].failures == 3
