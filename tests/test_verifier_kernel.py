"""The prefix-deviation kernel behind the verifiers and claim suites, checked
for exact equality against the slow window-scanning references in support.py:
exhaustively at small n, and at large n on seeded, corrupted codewords and
on seeded words far from balance."""

import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpc import (
    BalanceSpec,
    D2Params,
    NeighborSpec,
    Permutation,
    TnParams,
    check_two_neighbor,
    d1_claim_suite,
    d1_preset,
    d2_claim_suite,
    d2_preset,
    disc,
    encode_d1,
    encode_d2,
    encode_tn,
    random_valid_input,
    tn_claim_suite,
    verify_balance,
)
from bpc.perm_core import _window_violations
from support import (
    allowance_specs,
    brute_window_max_dev,
    far_from_balance,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_check_two_neighbor,
    reference_containment,
    reference_d1_claim_suite,
    reference_d2_claim_suite,
    reference_tn_claim_suite,
    reference_verify_balance,
    reference_window_violations,
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
def test_verify_balance_reads_the_stored_limits_exhaustively(n):
    # the limits BalanceSpec derives at construction, against the reference's
    # own comparison |2w - b(n+1)| * q > 2p at every allowance
    specs = allowance_specs(n)
    for pi in all_perms(n):
        for spec in specs:
            assert verify_balance(pi, spec) == reference_verify_balance(pi, spec), (pi, spec)


def test_verify_balance_reads_the_stored_limits_on_seeded_words():
    rng = random.Random(6464)
    n = 64
    words = far_from_balance(rng, n)[:8] + [random_permutation(rng, n) for _ in range(4)]
    words += [encode_d1(random_d1_input(rng, n)) for _ in range(4)]
    for spec in allowance_specs(n):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        for pi in words:
            report = verify_balance(pi, spec)
            assert report == reference_verify_balance(pi, spec)
            assert verify_balance(pi, back) == report


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


@pytest.mark.parametrize("n", [20, 40, 64])
def test_d1_claim_suite_matches_reference_far_from_balance(n):
    # sorted halves and shuffles break the window allowance 2(n+1), some by
    # less than twice it, so a drift in that allowance or in its text shows
    batch = far_from_balance(random.Random(n), n)
    for pi in batch:
        assert same_claims(d1_claim_suite, reference_d1_claim_suite, [pi], n)
    assert same_claims(d1_claim_suite, reference_d1_claim_suite, batch, n)
    window = d1_claim_suite(batch, n).bounds[1]
    assert window.name == "window_bound" and 4 <= window.failures < len(batch)


@pytest.mark.parametrize("n,k", [(24, 4), (64, 8)])
def test_tn_claim_suite_matches_reference_far_from_balance(n, k):
    params = TnParams(n, k)
    batch = far_from_balance(random.Random(n * k), n)
    for pi in batch:
        assert same_claims(tn_claim_suite, reference_tn_claim_suite, [pi], params)
    assert same_claims(tn_claim_suite, reference_tn_claim_suite, batch, params)
    neighbor, window = tn_claim_suite(batch, params).bounds
    assert window.name == "window_bound" and window.failures >= 4
    assert neighbor.failures > 0


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


@pytest.mark.parametrize("n", range(3, 9))
def test_check_two_neighbor_matches_reference_exhaustively(n):
    for pi in all_perms(n):
        for k in range(1, n):
            spec = NeighborSpec(k)
            assert check_two_neighbor(pi, spec) == reference_check_two_neighbor(pi, spec)


def test_check_two_neighbor_matches_reference_on_tn_codewords():
    rng = random.Random(16)
    params = TnParams(4096, 16)
    spec = NeighborSpec(16)
    codewords = [encode_tn(random_valid_input(params, rng)) for _ in range(3)]
    batch = seeded_batch(rng, codewords, ("adjacent", "adjacent"))
    invalid = 0
    for pi in batch:
        report = check_two_neighbor(pi, spec)
        assert report == reference_check_two_neighbor(pi, spec)
        invalid += not report.is_valid
    assert all(check_two_neighbor(pi, spec).is_valid for pi in codewords)
    assert invalid >= 1  # the swaps reach the violation-listing path
    assert same_claims(tn_claim_suite, reference_tn_claim_suite, batch, params)


@st.composite
def spiked_sequences(draw):
    """A step set with gcd g in {1, 2, 3}, contiguous or gapped, its limits,
    and a sequence of several sieve chunks per residue class: small noise
    under the least limit or just over it, plus sparse spikes, some at the
    first or last entries of the classes."""
    g = draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        first = draw(st.integers(1, 90))
        units = list(range(first, first + draw(st.integers(1, 12))))
    else:
        units = sorted(draw(st.sets(st.integers(1, 90), min_size=1, max_size=8)))
    steps = tuple(g * u for u in units)
    chunk = max(units[-1] + 1, 64)  # at least the sieve's chunk length
    length = draw(st.integers(steps[-1] + 1, g * chunk * 6))
    amp = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    xs = [rng.randint(-amp, amp) for _ in range(length)]
    for at in draw(st.lists(st.integers(-3, length - 1), max_size=6)):
        xs[at] += draw(st.integers(-60, 60))
    limits = {b: max(0, 2 * amp + draw(st.integers(-1, 8))) for b in steps}
    return xs, steps, limits


@settings(deadline=None, max_examples=300, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spiked_sequences())
def test_window_violations_match_brute_force_scan(case):
    xs, steps, limits = case
    assert list(_window_violations(xs, steps, limits)) == \
        reference_window_violations(xs, steps, limits)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("units", [(1, 2, 3), (2, 5), (70,), (1, 40, 99)])
def test_window_violations_with_passing_and_failing_chunks_side_by_side(g, units):
    steps = tuple(g * u for u in units)
    q = max(units[-1] + 1, 64)
    xs = [0] * (g * q * 7 + g - 1)
    # spikes at the first and last entries of a class, at the first entry
    # of a chunk (a partner of starts in the chunk before), in the middle
    # of a chunk and at the last entry of one, with quiet chunks between
    for at in (0, len(xs) - 1, g * q * 2 + g - 1, g * q * 4 + g * q // 2, g * q * 6 - 1):
        xs[at] = 5
    limits = dict.fromkeys(steps, 3)
    found = list(_window_violations(xs, steps, limits))
    assert found == reference_window_violations(xs, steps, limits)
    assert found


def adjacent_transposed(rng, codewords):
    return [variant for pi in codewords
            for variant in (pi, corrupted(rng, pi, "adjacent"))]


@pytest.mark.parametrize("seed", [101, 102])
def test_d1_transposed_codewords_match_reference(seed):
    rng = random.Random(seed)
    n = 1024
    spec = d1_preset(n)
    batch = adjacent_transposed(rng, [encode_d1(random_d1_input(rng, n)) for _ in range(2)])
    for pi in batch:
        assert verify_balance(pi, spec) == reference_verify_balance(pi, spec)
    assert same_claims(d1_claim_suite, reference_d1_claim_suite, batch, n)


@pytest.mark.parametrize("seed", [101, 102])
def test_d2_transposed_codewords_match_reference(seed):
    rng = random.Random(seed)
    params = D2Params(4096, 64)
    spec = d2_preset(4096, 64)
    batch = adjacent_transposed(rng, [encode_d2(random_d2_input(rng, params))])
    reports = [verify_balance(pi, spec) for pi in batch]
    assert reports == [reference_verify_balance(pi, spec) for pi in batch]
    assert reports[0].is_valid and not reports[1].is_valid
    for pi in batch:
        assert same_claims(d2_claim_suite, reference_d2_claim_suite, [pi], params)
