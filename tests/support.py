"""Shared golden data, independent reference encoders, and input generators.

The reference encoders recompute every decision statistic from scratch
(full re-summation, Fraction comparisons against the mean) so they share no
arithmetic shortcuts with the production encoders they are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from bpc import (
    BalanceViolation,
    ClaimReport,
    D1Input,
    D2Input,
    D2Params,
    NeighborSpec,
    Permutation,
    TnInput,
    TnParams,
    ViolationReport,
    check_two_neighbor,
)
from bpc.analysis import _BoundTally, _prefix_bound_detail

# Golden two-source example: n=12.
EX1_GAMMA1 = (3, 4, 1, 2, 5, 6)
EX1_GAMMA2 = (6, 5, 4, 3, 2, 1)
EX1_CODEWORD = (3, 12, 4, 11, 1, 10, 2, 9, 8, 5, 7, 6)
EX1_INTERLEAVING = (3, 12, 4, 11, 1, 10, 2, 9, 5, 8, 6, 7)

# Golden block-codec example: n=32, N=8, given as full orderings.
EX3_ORDERINGS = (
    (2, 3, 4, 1),
    (8, 7, 6, 5),
    (11, 10, 12, 9),
    (16, 13, 14, 15),
    (17, 20, 19, 18),
    (22, 23, 21, 24),
    (25, 26, 28, 27),
    (32, 29, 30, 31),
)
EX3_CODEWORD = (
    2, 25, 8, 32, 3, 26, 7, 29, 4, 28, 6, 30, 1, 27, 5, 31,
    11, 17, 16, 22, 10, 20, 13, 23, 12, 19, 14, 21, 9, 18, 15, 24,
)

# The eight length-4 permutations keeping every 2-window within 1 of its mean.
MIN_DISC_SET_N4 = (
    (1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3),
    (3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 3, 1),
)

# Golden neighbor-constrained example: n=24, k=4.
EX4_ORDERINGS = (
    (3, 4, 1, 2),
    (8, 7, 6, 5),
    (9, 10, 12, 11),
    (13, 16, 14, 15),
    (20, 19, 18, 17),
    (21, 22, 23, 24),
)
EX4_SELECTOR = (1, 4, 5, 2, 6, 1, 5, 6, 2, 3, 4, 3)
EX4_CODEWORD = (
    3, 4, 13, 16, 20, 19, 8, 7, 21, 22, 1, 2,
    18, 17, 23, 24, 6, 5, 9, 10, 14, 15, 12, 11,
)


def ex1_input() -> D1Input:
    return D1Input(Permutation(EX1_GAMMA1), Permutation(EX1_GAMMA2))


def sigmas_from_orderings(orderings, block_size):
    return tuple(
        Permutation(tuple(v - i * block_size for v in ordering))
        for i, ordering in enumerate(orderings)
    )


def ex3_input() -> D2Input:
    return D2Input(D2Params(32, 8), sigmas_from_orderings(EX3_ORDERINGS, 4))


def ex4_input() -> TnInput:
    return TnInput(TnParams(24, 4), sigmas_from_orderings(EX4_ORDERINGS, 4),
                   EX4_SELECTOR)


def reference_encode_d1(gamma1, gamma2):
    """Re-summation oracle for the two-source rule: first symbol from the
    low ordering, then low iff the running average exceeds the mean."""
    half = len(gamma1)
    n = 2 * half
    mean = Fraction(n + 1, 2)
    low = list(gamma1)
    high = [v + half for v in gamma2]
    out = [low.pop(0)]
    while len(out) < n:
        average = Fraction(sum(out), len(out))
        out.append(low.pop(0) if average > mean else high.pop(0))
    return tuple(out)


def reference_encode_d2(inp: D2Input):
    """Re-summation oracle for the block rule: cells pair sources
    (2c-1, N-2c+1) and (2c, N-2c+2); an average >= the mean takes the lower
    pair, below the mean the upper pair; the very first visit is lower."""
    params = inp.params
    n, N, size = params.n, params.N, params.block_size
    mean = Fraction(n + 1, 2)
    sources = {i: list(inp.ordering(i)) for i in range(1, N + 1)}
    out = []
    for c in range(1, N // 4 + 1):
        lower = (2 * c - 1, N - 2 * c + 1)
        upper = (2 * c, N - 2 * c + 2)
        for visit in range(2 * size):
            if not out:
                pair = lower
            else:
                pair = lower if Fraction(sum(out), len(out)) >= mean else upper
            for i in pair:
                out.append(sources[i].pop(0))
    return tuple(out)


def reference_encode_tn(inp: TnInput):
    """Re-summation oracle for the neighbor-constrained rule; returns None
    when the selector contradicts a mandated half or an empty set."""
    params = inp.params
    n, m, k = params.n, params.m, params.k
    mean = Fraction(n + 1, 2)
    sources = {i: list(inp.ordering(i)) for i in range(1, m + 1)}
    out = []
    for sel in inp.selector:
        low_half = Fraction(sum(out), len(out)) >= mean if out else True
        if (sel <= m // 2) != low_half or len(sources[sel]) < 2:
            return None
        out.append(sources[sel].pop(0))
        out.append(sources[sel].pop(0))
    return tuple(out)


def brute_window_max_dev(values, b) -> Fraction:
    """Direct slice-and-sum discrepancy oracle over all window starts."""
    n = len(values)
    target = Fraction(b * (n + 1), 2)
    return max(abs(sum(values[j:j + b]) - target) for j in range(n - b + 1))


def all_d1_inputs(n):
    half = n // 2
    base = list(itertools.permutations(range(1, half + 1)))
    for g1 in base:
        for g2 in base:
            yield D1Input(Permutation(g1), Permutation(g2))


def all_d2_inputs(params: D2Params):
    base = list(itertools.permutations(range(1, params.block_size + 1)))
    for combo in itertools.product(base, repeat=params.N):
        yield D2Input(params, tuple(Permutation(s) for s in combo))


def random_d1_input(rng: random.Random, n: int) -> D1Input:
    half = n // 2
    g1 = list(range(1, half + 1))
    g2 = list(range(1, half + 1))
    rng.shuffle(g1)
    rng.shuffle(g2)
    return D1Input(Permutation(tuple(g1)), Permutation(tuple(g2)))


def random_d2_input(rng: random.Random, params: D2Params) -> D2Input:
    sigmas = []
    for _ in range(params.N):
        vals = list(range(1, params.block_size + 1))
        rng.shuffle(vals)
        sigmas.append(Permutation(tuple(vals)))
    return D2Input(params, tuple(sigmas))


def random_permutation(rng: random.Random, n: int) -> Permutation:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


# ---------------------------------------------------------------------------
# Slow reference verifiers.  They rescan every (length, start) window and are
# the oracles the prefix-deviation kernel in bpc is checked against.


def reference_devs2(pi: Permutation) -> list[int]:
    """Doubled prefix deviations ``2*sum(pi[:j]) - j*(n+1)``, j = 0..n."""
    n = pi.n
    out = [0]
    acc = 0
    for j, v in enumerate(pi.values, 1):
        acc += v
        out.append(2 * acc - j * (n + 1))
    return out


def reference_verify_balance(pi: Permutation, spec) -> ViolationReport:
    """Every window of every spec'd length, summed afresh: O(n * |blocks|)."""
    n = pi.n
    sums = [0]
    for v in pi.values:
        sums.append(sums[-1] + v)
    entries = []
    for b in spec.blocks:
        allowed = spec.dev_max[b]
        target2 = b * (n + 1)
        p, q = allowed.numerator, allowed.denominator
        for j in range(1, n - b + 2):
            w = sums[j + b - 1] - sums[j - 1]
            dev2 = abs(2 * w - target2)
            if dev2 * q > 2 * p:
                entries.append(BalanceViolation(
                    b=b, j=j, window_sum=w,
                    target=Fraction(target2, 2),
                    allowed_dev=allowed,
                    actual_dev=Fraction(dev2, 2),
                ))
    return ViolationReport(tuple(entries))


def reference_window_spread_detail(devs2, allowed2):
    lo_i = max(range(len(devs2)), key=lambda i: -devs2[i])
    hi_i = max(range(len(devs2)), key=lambda i: devs2[i])
    if devs2[hi_i] - devs2[lo_i] <= 2 * allowed2:
        return None
    a, c = sorted((lo_i, hi_i))
    return {
        "b": str(c - a), "j": str(a + 1),
        "dev": str(Fraction(abs(devs2[c] - devs2[a]), 2)),
        "allowed": str(Fraction(allowed2, 2)),
    }


def reference_containment(n: int, span: int, lengths):
    """First (b, i) of the per-window cell containment scan, or None."""
    for b in lengths:
        for i in range(1, n - b + 2):
            cell = (i + span - 1) // span
            if i + b - 1 > (cell + 1) * span:
                return b, i
    return None


def reference_d1_claim_suite(perms, n: int) -> ClaimReport:
    prefix = _BoundTally("prefix_bound")
    window = _BoundTally("window_bound")
    perms = list(perms)
    for pi in perms:
        devs2 = reference_devs2(pi)
        prefix.record(pi, _prefix_bound_detail(devs2, 2 * (n + 1)))
        window.record(pi, reference_window_spread_detail(devs2, 2 * (n + 1)))
    return ClaimReport(config=f"d1(n={n})", total=len(perms),
                       bounds=(prefix.result(), window.result()))


def reference_d2_claim_suite(perms, params: D2Params) -> ClaimReport:
    """The block suite scanning every (length, start) pair in order."""
    n, N = params.n, params.N
    span = 4 * n // N
    even_prefix = _BoundTally("even_prefix_bound")
    locality = _BoundTally("pair_locality")
    window = _BoundTally("window_bound")
    lengths = params.window_lengths
    perms = list(perms)
    for pi in perms:
        devs2 = reference_devs2(pi)

        detail = None
        for j in range(0, n + 1, 2):
            if abs(devs2[j]) > 4 * n // N:
                detail = {"j": str(j), "dev": str(Fraction(devs2[j], 2)),
                          "allowed": str(Fraction(2 * n, N))}
                break
        even_prefix.record(pi, detail)

        detail = None
        v = pi.values
        for b in lengths:
            for i in range(1, n - b + 2):
                j = i + b - 1
                cell = (i + span - 1) // span
                if j > (cell + 1) * span:
                    detail = {"i": str(i), "j": str(j), "cell": str(cell),
                              "reason": "containment"}
                    break
                if j < n and abs(v[j] - v[i - 1]) > span:
                    detail = {"i": str(i), "j+1": str(j + 1),
                              "gap": str(abs(v[j] - v[i - 1])),
                              "allowed": str(span)}
                    break
            if detail:
                break
        locality.record(pi, detail)

        detail = None
        for b in lengths:
            for j in range(n - b + 1):
                dev2 = abs(devs2[j + b] - devs2[j])
                if dev2 * N > 16 * (n + 1):
                    detail = {"b": str(b), "j": str(j + 1),
                              "dev": str(Fraction(dev2, 2)),
                              "allowed": str(Fraction(8 * (n + 1), N))}
                    break
            if detail:
                break
        window.record(pi, detail)
    return ClaimReport(config=f"d2(n={n},N={N})", total=len(perms),
                       bounds=(even_prefix.result(), locality.result(),
                               window.result()))


def reference_tn_claim_suite(perms, params: TnParams) -> ClaimReport:
    n, k = params.n, params.k
    neighbor = _BoundTally("two_neighbor")
    window = _BoundTally("window_bound")
    perms = list(perms)
    for pi in perms:
        report = check_two_neighbor(pi, NeighborSpec(k))
        detail = None
        if not report.is_valid:
            first = report.entries[0]
            detail = {"i": str(first.i), "left": str(first.left_diff),
                      "right": str(first.right_diff), "allowed": str(k)}
        neighbor.record(pi, detail)
        devs2 = reference_devs2(pi)
        window.record(pi, reference_window_spread_detail(devs2, 2 * (n + 1)))
    return ClaimReport(config=f"tn(n={n},k={k})", total=len(perms),
                       bounds=(neighbor.result(), window.result()))
