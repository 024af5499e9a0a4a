"""Shared golden data, independent reference encoders, and input generators.

The reference encoders recompute every decision statistic from scratch
(full re-summation, Fraction comparisons against the mean) so they share no
arithmetic shortcuts with the production encoders they are checked against.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from math import exp, factorial, log

from bpc import (
    DEFAULT_ENUM_LIMIT,
    BalanceSpec,
    BalanceViolation,
    BoundResult,
    CensusResult,
    ClaimReport,
    CounterExample,
    D1Input,
    D2Input,
    D2Params,
    IndexOutOfRange,
    NeighborSpec,
    NeighborViolation,
    NotCodeword,
    NotPermutation,
    ParamInvalid,
    Permutation,
    SelectorViolation,
    SourceExhausted,
    SpecMismatch,
    TnInput,
    TnParams,
    ViolationReport,
    encode_tn,
)
from bpc._util import check_factorial, decimal_int
from bpc.cli import (
    _cmd_census,
    _cmd_claims,
    _cmd_decode_d1,
    _cmd_decode_d2,
    _cmd_decode_tn,
    _cmd_disc,
    _cmd_encode_d1,
    _cmd_encode_d2,
    _cmd_encode_tn,
    _cmd_min_disc,
    _cmd_rate,
    _cmd_verify,
)


def _factorial_passes(m: int) -> bool:
    try:
        check_factorial(m)
    except ParamInvalid:
        return False
    return True


# the largest n whose n! passes the size limit: the largest a rate report,
# rank, unrank or a scale parameter takes
LARGEST_N = next(m for m in itertools.count(1) if not _factorial_passes(m + 1))


@contextmanager
def default_digit_limit():
    """Run with the interpreter's default int-to-str digit limit in effect."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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

# A block-codec codeword at n=64, N=16 (the encoding of random_d2_input with
# seed 0); its emitted pairs are the position pairs (2t-1, 2t).
CODEWORD_64_16 = (
    3, 60, 5, 64, 1, 58, 6, 62, 8, 61, 2, 59, 7, 63, 4, 57,
    9, 50, 14, 56, 13, 54, 11, 52, 16, 55, 10, 51, 12, 49, 15, 53,
    19, 41, 24, 45, 22, 46, 17, 44, 23, 47, 20, 43, 18, 42, 21, 48,
    27, 34, 32, 37, 25, 33, 30, 40, 31, 38, 28, 35, 26, 36, 29, 39,
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


def reference_encode_d2(inp: D2Input, tie_to_upper: bool = False):
    """Re-summation oracle for the block rule: cells pair sources
    (2c-1, N-2c+1) and (2c, N-2c+2); an average >= the mean takes the lower
    pair, below the mean the upper pair (``tie_to_upper``: above the mean
    the lower pair, otherwise the upper); the very first visit is lower."""
    params = inp.params
    n, N, size = params.n, params.N, params.block_size
    mean = Fraction(n + 1, 2)
    sources = {i: [v + (i - 1) * size for v in sigma.values]
               for i, sigma in enumerate(inp.sigmas, 1)}
    out = []
    for c in range(1, N // 4 + 1):
        lower = (2 * c - 1, N - 2 * c + 1)
        upper = (2 * c, N - 2 * c + 2)
        for visit in range(2 * size):
            if not out:
                pair = lower
            else:
                average = Fraction(sum(out), len(out))
                pair = lower if average > mean or average == mean and not tie_to_upper else upper
            for i in pair:
                out.append(sources[i].pop(0))
    return tuple(out)


def reference_encode_tn(inp: TnInput):
    """Re-summation oracle for the neighbor-constrained rule; returns None
    when the selector contradicts a mandated half or an empty set."""
    params = inp.params
    n, m, k = params.n, params.m, params.k
    mean = Fraction(n + 1, 2)
    sources = {i: [v + (i - 1) * k for v in sigma.values]
               for i, sigma in enumerate(inp.sigmas, 1)}
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


def allowances(n: int) -> list[Fraction]:
    """0, 1/3, 1/2, 5/7, 2(n+1) (the d1 preset's) and 10**30/7 (past any
    window): their doubled limits 2p // q round down from thirds, halves and
    sevenths, and the last is a big int."""
    return [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7),
            Fraction(2 * (n + 1)), Fraction(10**30, 7)]


def allowance_specs(n: int) -> list:
    """Specs on every length 1..n: one per allowance, and one that gives the
    lengths the allowances in turn."""
    values = allowances(n)
    lengths = tuple(range(1, n + 1))
    return [BalanceSpec(n, lengths, dict.fromkeys(lengths, a)) for a in values] + [
        BalanceSpec(n, lengths, {b: values[b % len(values)] for b in lengths})]


def far_from_balance(rng: random.Random, n: int) -> list[Permutation]:
    """The identity, the reversal, the low half then the high half each
    reversed, the high half then the low half, and 20 seeded shuffles: the
    sorted words put a prefix deviation of about n**2/8 in the middle."""
    low, high = list(range(1, n // 2 + 1)), list(range(n // 2 + 1, n + 1))
    words = [low + high, high[::-1] + low[::-1], low[::-1] + high[::-1], high + low]
    for _ in range(20):
        words.append(low + high)
        rng.shuffle(words[-1])
    return [Permutation(tuple(w)) for w in words]


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


def reference_window_violations(xs, steps, limits) -> list[tuple[int, int]]:
    """Every ``(b, s)`` with ``|xs[s+b] - xs[s]| > limits[b]``, scanned in
    (b, s) order: O(len(xs) * len(steps))."""
    return [(b, s) for b in steps for s in range(len(xs) - b)
            if abs(xs[s + b] - xs[s]) > limits[b]]


def reference_window_spread_detail(pi: Permutation, allowed: Fraction):
    """The worst window over all lengths against the real allowance
    ``allowed``: prefix deviations ``sum(pi[:j]) - j*(n+1)/2`` summed afresh
    as Fractions, the window from the first lowest prefix to the first
    highest one (in position order) deviating by their difference."""
    n = pi.n
    devs = [sum(pi.values[:j]) - Fraction(j * (n + 1), 2) for j in range(n + 1)]
    lo_i = devs.index(min(devs))
    hi_i = devs.index(max(devs))
    if devs[hi_i] - devs[lo_i] <= allowed:
        return None
    a, c = sorted((lo_i, hi_i))
    return {
        "b": str(c - a), "j": str(a + 1),
        "dev": str(devs[hi_i] - devs[lo_i]),
        "allowed": str(allowed),
    }


def reference_containment(n: int, span: int, lengths):
    """First (b, i) of the per-window cell containment scan, or None."""
    for b in lengths:
        for i in range(1, n - b + 2):
            cell = (i + span - 1) // span
            if i + b - 1 > (cell + 1) * span:
                return b, i
    return None


class ReferenceTally:
    """Pass/fail count of one bound over a batch; the first failure is kept."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.first = None

    def record(self, pi: Permutation, detail) -> None:
        self.checked += 1
        if detail is not None:
            self.failures += 1
            if self.first is None:
                self.first = CounterExample(pi, self.name, detail)

    def result(self) -> BoundResult:
        return BoundResult(self.name, self.checked, self.failures, self.first)


def reference_d1_claim_suite(perms, n: int) -> ClaimReport:
    prefix = ReferenceTally("prefix_bound")
    window = ReferenceTally("window_bound")
    perms = list(perms)
    for pi in perms:
        devs2 = reference_devs2(pi)
        detail = None
        for j in range(1, n + 1):
            dev = Fraction(devs2[j], 2)
            if abs(dev) > n + 1:
                detail = {"j": str(j), "dev": str(dev), "allowed": str(n + 1)}
                break
        prefix.record(pi, detail)
        window.record(pi, reference_window_spread_detail(pi, Fraction(2 * (n + 1))))
    return ClaimReport(config=f"d1(n={n})", total=len(perms),
                       bounds=(prefix.result(), window.result()))


def reference_d2_claim_suite(perms, params: D2Params) -> ClaimReport:
    """The block suite scanning every (length, start) pair in order."""
    n, N = params.n, params.N
    span = 4 * n // N
    even_prefix = ReferenceTally("even_prefix_bound")
    locality = ReferenceTally("pair_locality")
    window = ReferenceTally("window_bound")
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


def reference_check_two_neighbor(pi: Permutation, spec: NeighborSpec) -> ViolationReport:
    """Both adjacent distances of every interior position, one at a time."""
    n, k = pi.n, spec.k
    if n < 3:
        raise SpecMismatch("two-neighbor check needs n >= 3")
    if not 1 <= k <= n - 1:
        raise SpecMismatch(f"neighbor bound {k} outside [1, {n - 1}]")
    v = pi.values
    entries = []
    for i in range(2, n):
        left = abs(v[i - 1] - v[i - 2])
        right = abs(v[i - 1] - v[i])
        if left > k and right > k:
            entries.append(NeighborViolation(i=i, left_diff=left,
                                             right_diff=right, allowed=k))
    return ViolationReport(tuple(entries))


def reference_tn_claim_suite(perms, params: TnParams) -> ClaimReport:
    n, k = params.n, params.k
    neighbor = ReferenceTally("two_neighbor")
    window = ReferenceTally("window_bound")
    perms = list(perms)
    for pi in perms:
        report = reference_check_two_neighbor(pi, NeighborSpec(k))
        detail = None
        if not report.is_valid:
            first = report.entries[0]
            detail = {"i": str(first.i), "left": str(first.left_diff),
                      "right": str(first.right_diff), "allowed": str(k)}
        neighbor.record(pi, detail)
        window.record(pi, reference_window_spread_detail(pi, Fraction(2 * (n + 1))))
    return ClaimReport(config=f"tn(n={n},k={k})", total=len(perms),
                       bounds=(neighbor.result(), window.result()))


# ---------------------------------------------------------------------------
# Slow reference oracles.  They visit every permutation (or every codec
# input) and rescan it from scratch; the pruned searches in bpc.analysis are
# checked against them.


def _passes_checks(values, n, checks, neighbor_k) -> bool:
    sums = [0] * (n + 1)
    acc = 0
    for i, v in enumerate(values, 1):
        acc += v
        sums[i] = acc
    for b, target2, num2, den in checks:
        for j in range(n - b + 1):
            if abs(2 * (sums[j + b] - sums[j]) - target2) * den > num2:
                return False
    if neighbor_k is not None:
        for i in range(1, n - 1):
            if (abs(values[i] - values[i - 1]) > neighbor_k
                    and abs(values[i] - values[i + 1]) > neighbor_k):
                return False
    return True


def reference_census(n: int, spec, neighbor=None, cap: int = 0) -> CensusResult:
    """Filter all n! permutations in lexicographic order: O(n! * n * |blocks|)."""
    # (b, doubled target, doubled allowed numerator, allowed denominator):
    # a window sum w violates iff |2w - target2| * den > num2.
    checks = [(b, b * (n + 1), 2 * spec.dev_max[b].numerator,
               spec.dev_max[b].denominator) for b in spec.blocks]
    neighbor_k = neighbor.k if neighbor else None
    count = 0
    achievers = []
    for values in itertools.permutations(range(1, n + 1)):
        if _passes_checks(values, n, checks, neighbor_k):
            count += 1
            if len(achievers) < cap:
                achievers.append(Permutation(values))
    return CensusResult(n=n, spec=spec, neighbor=neighbor, count=count,
                        achievers=tuple(achievers))


def reference_min_disc(n: int, b: int) -> tuple[Fraction, int]:
    """Least worst doubled b-window deviation over S_n, with its count; each
    permutation is abandoned once it is worse than the best so far."""
    target2 = b * (n + 1)
    best = None
    count = 0
    for values in itertools.permutations(range(1, n + 1)):
        w = sum(values[:b])
        worst = abs(2 * w - target2)
        if best is not None and worst > best:
            continue
        abandoned = False
        for j in range(b, n):
            w += values[j] - values[j - b]
            d = abs(2 * w - target2)
            if d > worst:
                worst = d
                if best is not None and worst > best:
                    abandoned = True
                    break
        if abandoned:
            continue
        if best is None or worst < best:
            best, count = worst, 1
        elif worst == best:
            count += 1
    return Fraction(best, 2), count


def reference_tn_code_size(params: TnParams) -> int:
    """Run the encoder on all k!**m orderings times every distinct selector
    (each set named k/2 times) and count the inputs it accepts."""
    per_set = list(itertools.permutations(range(1, params.k + 1)))
    multiset = [i for i in range(1, params.m + 1) for _ in range(params.k // 2)]
    selectors = sorted(set(itertools.permutations(multiset)))
    count = 0
    for combo in itertools.product(per_set, repeat=params.m):
        sigmas = tuple(Permutation(s) for s in combo)
        for sel in selectors:
            try:
                encode_tn(TnInput(params, sigmas, sel))
            except SelectorViolation:
                continue
            count += 1
    return count


def memo_tn_code_size(params: TnParams) -> int:
    """The encoder's runs counted by a search memoized on the emitted set.

    At each step some non-empty set of the mandated half emits an ordered
    pair of its remaining symbols.  The deviation after a prefix, hence the
    mandate, depends only on the set of symbols emitted, so the completions
    are counted once per such set (a bitmask): O(m * k**2) work for each of
    at most 2**((k-1)*m) states.  An empty mandated half is raised as
    ``SourceExhausted``.
    """
    n, k, m = params.n, params.k, params.m
    full = (1 << n + 1) - 2  # bit v set: symbol v emitted
    memo = {}

    def completions(emitted: int, dev2: int) -> int:
        if emitted == full:
            return 1
        if emitted in memo:
            return memo[emitted]
        rests = [[v for v in range(s * k + 1, s * k + k + 1) if not emitted >> v & 1]
                 for s in range(m)]
        half = "lower" if dev2 >= 0 else "upper"
        mandated = rests[:m // 2] if dev2 >= 0 else rests[m // 2:]
        if not any(mandated):
            step = emitted.bit_count() // 2 + 1
            raise SourceExhausted(
                f"every {half} set empty at step {step}"
                " (encoder invariant broken)", step=step, mandated=half,
                remaining={s + 1: len(rest) for s, rest in enumerate(rests)})
        memo[emitted] = total = sum(
            completions(emitted | 1 << a | 1 << b, dev2 + 2 * (a + b - n - 1))
            for rest in mandated for a, b in itertools.permutations(rest, 2))
        return total

    return completions(0, 0)


# ---------------------------------------------------------------------------
# Slow reference encoders kept from earlier versions of bpc, so the faster
# paths there are checked against the behaviour they replaced.


def reference_encode_d1_streaming(inp: D1Input):
    """The quadratic in-place encoder: for each slot, find the mandated
    source's next symbol in the unfixed region of the working sequence and,
    if it is not already there, delete and reinsert it at the slot.
    Returns (codeword, [(position, moved_symbol)])."""
    n = inp.n
    half = n // 2
    work = [v for a, b in zip(inp.gamma1.values, inp.gamma2.values)
            for v in (a, b + half)]
    low = list(inp.gamma1.values)
    high = [v + half for v in inp.gamma2.values]
    dev2 = 2 * low.pop(0) - (n + 1)  # slot 1 already holds it
    steps = []
    for j in range(2, n + 1):
        v = (low if dev2 > 0 else high).pop(0)
        slot = j - 1
        p = work.index(v, slot)
        if p != slot:
            del work[p]
            work.insert(slot, v)
            steps.append((j, v))
        dev2 += 2 * v - (n + 1)
    return tuple(work), steps


def reference_random_valid_input(params: TnParams, rng: random.Random) -> TnInput:
    """The selector sampler as a stand-alone encoder simulation: the same
    draws from ``rng`` as ``bpc.random_valid_input``, in the same order."""
    k, m, n = params.k, params.m, params.n
    sigmas = []
    for _ in range(m):
        vals = list(range(1, k + 1))
        rng.shuffle(vals)
        sigmas.append(Permutation(tuple(vals)))
    orderings = {i: [v + (i - 1) * k for v in sigmas[i - 1].values]
                 for i in range(1, m + 1)}
    heads = {i: 0 for i in orderings}
    selector = []
    dev2 = 0
    for _ in range(n // 2):
        half_sets = range(1, m // 2 + 1) if dev2 >= 0 else range(m // 2 + 1, m + 1)
        sel = rng.choice([i for i in half_sets if heads[i] < k])
        selector.append(sel)
        for _ in range(2):
            v = orderings[sel][heads[sel]]
            heads[sel] += 1
            dev2 += 2 * v - (n + 1)
    return TnInput(params, tuple(sigmas), tuple(selector))


def reference_rank(pi: Permutation) -> int:
    """The per-symbol rank: one big-int multiply-add per symbol."""
    remaining = list(range(1, pi.n + 1))
    r = 0
    for i, v in enumerate(pi.values):
        d = bisect_left(remaining, v)
        r = r * (pi.n - i) + d
        remaining.pop(d)
    return r


def reference_unrank(index: int, n: int) -> Permutation:
    """The per-symbol unrank: one full-width ``divmod(index, (n-1-i)!)`` per
    symbol, with the range check against ``factorial(n)``."""
    if n < 1:
        raise ParamInvalid("length must be >= 1")
    if not 0 <= index < factorial(n):
        raise IndexOutOfRange(f"rank {index} outside [0, {n}!)")
    remaining = list(range(1, n + 1))
    out = []
    f = factorial(n - 1)
    for i in range(n):
        d, index = divmod(index, f)
        out.append(remaining.pop(d))
        if i < n - 1:
            f //= n - 1 - i
    return Permutation(tuple(out))


def reference_check_permutation(values) -> None:
    """The per-symbol check ``Permutation`` ran before its set comparisons:
    ``NotPermutation`` naming the first bad symbol, or None if ``values`` is
    a bijection of {1, ..., len(values)} (int subclasses count, bool not)."""
    n = len(values)
    if n == 0:
        raise NotPermutation("a permutation must have length >= 1")
    seen = [False] * n
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise NotPermutation(f"symbol {v!r} is not an integer")
        if not 1 <= v <= n:
            raise NotPermutation(f"symbol {v} outside [1, {n}]")
        if seen[v - 1]:
            raise NotPermutation(f"symbol {v} appears more than once")
        seen[v - 1] = True


def reference_decode_tn(pi: Permutation, params: TnParams) -> TnInput:
    """The per-pair tn decoder: the set of each pair's two symbols, with
    ``NotCodeword`` at the first pair whose symbols lie in different sets."""
    if params.n != pi.n:
        raise ParamInvalid(f"params are for n={params.n}, permutation has n={pi.n}")
    v, k = pi.values, params.k
    selector = []
    for t in range(0, pi.n, 2):
        a, b = (v[t] - 1) // k + 1, (v[t + 1] - 1) // k + 1
        if a != b:
            raise NotCodeword(
                f"pair ({v[t]}, {v[t + 1]}) at positions {t + 1},{t + 2} "
                f"straddles sets {a} and {b}")
        selector.append(a)
    blocks = [[] for _ in range(params.m)]
    for s in v:
        blocks[(s - 1) // k].append(s - (s - 1) // k * k)
    return TnInput(params, tuple(Permutation(tuple(b)) for b in blocks), tuple(selector))


def reference_ceil_rational_power(n: int, exponent: Fraction) -> int:
    """ceil(n**exponent) from a float seed, ``exp(log(n)*p/q)`` rounded, walked
    to the exact answer one integer at a time.  The walk is as long as the
    seed's error, so compare with it only where n**exponent < 2**48."""
    p, q = exponent.numerator, exponent.denominator
    target = n ** p
    m = max(1, round(exp(log(n) * p / q)))
    while m ** q < target:
        m += 1
    while m > 1 and (m - 1) ** q >= target:
        m -= 1
    return m


class ReferenceEmitter:
    """The shared emitter the three encoders drove before they walked the
    block layout themselves: a queue per block, the emitted symbols and
    their doubled prefix deviation ``dev2``, one ``take`` call per symbol.
    Block i queues its ordering of [1, size] shifted by (i-1)*size."""

    def __init__(self, size, orderings):
        self.queues = {}
        for i, o in enumerate(orderings, 1):
            offset = (i - 1) * size
            self.queues[i] = deque([v + offset for v in o] if offset else o)
        self.out = []
        self.dev2 = 0
        self._step = size * len(self.queues) + 1

    def take(self, block):
        """Emit the head of ``block``; an empty block is a defect witness."""
        try:
            v = self.queues[block].popleft()
        except IndexError:
            raise SourceExhausted(
                f"mandated block(s) {block} empty after {len(self.out)} symbols "
                "(encoder invariant broken)", emitted=len(self.out), dev_twice=self.dev2,
                mandated=(block,), remaining=self.remaining()) from None
        self.out.append(v)
        self.dev2 += 2 * v - self._step

    def remaining(self):
        return {i: len(q) for i, q in self.queues.items()}


def emitter_encode_d1(inp: D1Input) -> Permutation:
    """``encode_d1`` through ``ReferenceEmitter``: low first, then low while
    the deviation is positive, else high."""
    em = ReferenceEmitter(inp.gamma1.n, (inp.gamma1.values, inp.gamma2.values))
    em.take(1)
    for _ in range(1, inp.n):
        em.take(1 if em.dev2 > 0 else 2)
    return Permutation(tuple(em.out))


def emitter_encode_d2(inp: D2Input, *, tie_to_upper: bool = False) -> Permutation:
    """``encode_d2`` through ``ReferenceEmitter``, one ``take`` per symbol:
    cell c pairs blocks (2c-1, N-2c+1) below the mean and (2c, N-2c+2)
    above it, for 2n/N visits."""
    params = inp.params
    N = params.N
    em = ReferenceEmitter(params.block_size, (s.values for s in inp.sigmas))
    for c in range(1, N // 4 + 1):
        for _ in range(2 * params.block_size):
            lower = em.dev2 > 0 if tie_to_upper else em.dev2 >= 0
            if lower or not em.out:
                em.take(2 * c - 1)
                em.take(N - 2 * c + 1)
            else:
                em.take(2 * c)
                em.take(N - 2 * c + 2)
    return Permutation(tuple(em.out))


def emitter_encode_tn(inp: TnInput) -> Permutation:
    """``encode_tn`` through ``ReferenceEmitter``: each step asks a check
    callback for its set, which raises ``SelectorViolation`` on a set of the
    wrong half or an empty one, with the emitter's counts as ``remaining``."""
    params, selector = inp.params, inp.selector
    half = params.m // 2
    em = ReferenceEmitter(params.k, (s.values for s in inp.sigmas))
    lower, upper = range(1, half + 1), range(half + 1, params.m + 1)

    def check(t, sets):
        sel = selector[t - 1]
        if sel in sets and em.queues[sel]:
            return sel
        mandated = "lower" if em.dev2 >= 0 else "upper"
        reason = ("is already exhausted" if sel in sets
                  else f"is not in the mandated {mandated} half")
        raise SelectorViolation(f"step {t}: set {sel} {reason}", step=t, selected=sel,
                                mandated=mandated, remaining=em.remaining())

    for t in range(1, params.n // 2 + 1):
        sel = check(t, lower if em.dev2 >= 0 else upper)
        em.take(sel)
        em.take(sel)
    return Permutation(tuple(em.out))


def appends_project(pi: Permutation, size: int) -> tuple[Permutation, ...]:
    """The block projection by arithmetic: block (v-1)//size per symbol, then
    one offset pass per block."""
    blocks = [[] for _ in range(pi.n // size)]
    appends = [block.append for block in blocks]
    for v in pi.values:
        appends[(v - 1) // size](v)
    return tuple(Permutation(tuple([v - offset for v in block]))
                 for offset, block in zip(range(0, pi.n, size), blocks))


def reference_build_parser() -> argparse.ArgumentParser:
    """The CLI parser built whole, every option of every command on every
    run: ``bpc.cli._build_parser`` gives options only to the command its argv
    names, and must read the same for --help and for every usage error."""
    parser = argparse.ArgumentParser(
        prog="bpc",
        description="Balanced permutation codes: encode, decode, verify, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode inputs into a balanced permutation")
    enc_sub = enc.add_subparsers(dest="codec", required=True)

    e1 = enc_sub.add_parser("d1", help="two-source codec")
    e1.add_argument("--n", type=decimal_int, required=True)
    e1.add_argument("--gamma1")
    e1.add_argument("--gamma2")
    e1.add_argument("--i1", help="decimal rank of the low ordering")
    e1.add_argument("--i2", help="decimal rank of the high ordering")
    e1.add_argument("--streaming", action="store_true",
                    help="use the transposition encoder (same output)")
    e1.add_argument("--format", choices=("text", "json"), default="text")
    e1.set_defaults(handler=_cmd_encode_d1)

    e2 = enc_sub.add_parser("d2", help="block codec")
    e2.add_argument("--input", required=True,
                    help="JSON file with n, N, sigmas ('-' for stdin)")
    e2.add_argument("--tie-upper", action="store_true",
                    help="route exact balance ties to the upper pair")
    e2.set_defaults(handler=_cmd_encode_d2)

    et = enc_sub.add_parser("tn", help="neighbor-constrained codec")
    et.add_argument("--input", required=True,
                    help="JSON file with n, k, sigmas, selector ('-' for stdin)")
    et.set_defaults(handler=_cmd_encode_tn)

    dec = sub.add_parser("decode", help="decode a permutation back to its inputs")
    dec_sub = dec.add_subparsers(dest="codec", required=True)

    d1p = dec_sub.add_parser("d1")
    d1p.add_argument("--perm", required=True, help="permutation text ('-' for stdin)")
    d1p.add_argument("--message", action="store_true",
                     help="emit the two decimal ranks instead of orderings")
    d1p.add_argument("--format", choices=("text", "json"), default="text")
    d1p.set_defaults(handler=_cmd_decode_d1)

    d2p = dec_sub.add_parser("d2")
    d2p.add_argument("--perm", required=True)
    d2p.add_argument("--n", type=decimal_int, required=True)
    d2p.add_argument("--N", type=decimal_int, required=True)
    d2p.set_defaults(handler=_cmd_decode_d2)

    dtp = dec_sub.add_parser("tn")
    dtp.add_argument("--perm", required=True)
    dtp.add_argument("--n", type=decimal_int, required=True)
    dtp.add_argument("--k", type=decimal_int, required=True)
    dtp.set_defaults(handler=_cmd_decode_tn)

    ver = sub.add_parser("verify", help="check a permutation against a preset")
    ver.add_argument("--preset", choices=("d1", "d2", "tn-neighbor"), required=True)
    ver.add_argument("--N", type=decimal_int)
    ver.add_argument("--k", type=decimal_int)
    ver.add_argument("--perm", required=True)
    ver.set_defaults(handler=_cmd_verify)

    dsc = sub.add_parser("disc", help="discrepancy of a permutation at one length")
    dsc.add_argument("--perm", required=True)
    dsc.add_argument("--b", type=decimal_int, required=True)
    dsc.set_defaults(handler=_cmd_disc)

    ana = sub.add_parser("analyze", help="pruned-search censuses and rate reports")
    ana_sub = ana.add_subparsers(dest="what", required=True)

    cen = ana_sub.add_parser("census", help="count permutations passing checks")
    cen.add_argument("--n", type=decimal_int, required=True)
    cen.add_argument("--preset", choices=("d1", "d2"))
    cen.add_argument("--N", type=decimal_int)
    cen.add_argument("--blocks", help="comma-separated window lengths")
    cen.add_argument("--dev-max", dest="dev_max",
                     help="allowed deviations (one per block, or one for all)")
    cen.add_argument("--neighbor-k", dest="neighbor_k", type=decimal_int)
    cen.add_argument("--cap", type=decimal_int, default=0,
                     help="how many achievers to list")
    cen.add_argument("--limit", type=decimal_int, default=DEFAULT_ENUM_LIMIT)
    cen.add_argument("--threads", type=decimal_int, default=0)
    cen.set_defaults(handler=_cmd_census)

    mnd = ana_sub.add_parser("min-disc", help="minimum discrepancy over S_n")
    mnd.add_argument("--n", type=decimal_int, required=True)
    mnd.add_argument("--b", type=decimal_int, required=True)
    mnd.add_argument("--limit", type=decimal_int, default=DEFAULT_ENUM_LIMIT)
    mnd.add_argument("--threads", type=decimal_int, default=0)
    mnd.set_defaults(handler=_cmd_min_disc)

    rat = ana_sub.add_parser("rate", help="code-size and rate report")
    rat.add_argument("--config", choices=("d1", "d2", "tn"), required=True)
    rat.add_argument("--n", required=True,
                     help="length, or comma-separated list for a table")
    rat.add_argument("--N", type=decimal_int)
    rat.add_argument("--epsilon")
    rat.add_argument("--k", type=decimal_int)
    rat.add_argument("--epsilon-k", dest="epsilon_k")
    rat.add_argument("--format", choices=("json", "csv"), default="json")
    rat.set_defaults(handler=_cmd_rate)

    clm = ana_sub.add_parser("claims", help="batch-check codeword bounds")
    clm.add_argument("--config", choices=("d1", "d2", "tn"), required=True)
    clm.add_argument("--N", type=decimal_int)
    clm.add_argument("--k", type=decimal_int)
    clm.add_argument("--perms", required=True,
                     help="file of permutations, one per line ('-' for stdin)")
    clm.set_defaults(handler=_cmd_claims)

    return parser
