"""Brute-force oracles: censuses over S_n, minimum-discrepancy search,
claim batch-checkers, and code-rate reports.

Counts are exact integers; logarithms are taken only at the very end of a
rate computation.  Enumerations may fan out over processes (worker count
from the ``BPC_THREADS`` environment variable or an explicit argument), and
results are merged in first-symbol order so the output never depends on the
degree of parallelism.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from ._util import ceil_rational_power, log2_int
from .d2_codec import D2Params
from .errors import (
    IndexOutOfRange,
    LimitExceeded,
    ParamInvalid,
    SelectorViolation,
    SpecMismatch,
)
from .perm_core import (
    BalanceSpec,
    NeighborSpec,
    Permutation,
    _window_violations,
    check_two_neighbor,
    format_permutation,
    prefix_deviations_doubled,
)
from .tn_codec import TnInput, TnParams, encode_tn

__all__ = [
    "DEFAULT_ENUM_LIMIT",
    "THREADS_ENV_VAR",
    "CensusResult",
    "census",
    "min_disc",
    "RateReport",
    "rate_report",
    "rate_report_d1",
    "rate_report_d2",
    "rate_report_tn",
    "tn_code_size",
    "CounterExample",
    "BoundResult",
    "ClaimReport",
    "claim_suite",
    "d1_claim_suite",
    "d2_claim_suite",
    "tn_claim_suite",
]

DEFAULT_ENUM_LIMIT = 10
THREADS_ENV_VAR = "BPC_THREADS"


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ParamInvalid(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if workers < 0:
        raise ParamInvalid("worker count must be >= 0")
    return workers


def _fan_out(scan, tasks, workers: int) -> list:
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(scan, tasks))
    return [scan(t) for t in tasks]


def _check_limit(n: int, limit: int) -> None:
    if n < 1:
        raise ParamInvalid("n must be >= 1")
    if n > limit:
        raise LimitExceeded(
            f"exhaustive enumeration over S_{n} exceeds the limit {limit}; "
            "raise the limit explicitly to acknowledge the cost")


def _balance_checks(spec: BalanceSpec) -> tuple[tuple[int, int, int, int], ...]:
    # (b, doubled target, doubled allowed numerator, allowed denominator):
    # a window sum w violates iff |2w - target2| * den > num2.
    checks = []
    for b in spec.blocks:
        allowed = spec.dev_max[b]
        checks.append((b, b * (spec.n + 1),
                       2 * allowed.numerator, allowed.denominator))
    return tuple(checks)


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


def _census_scan(args):
    n, first, checks, neighbor_k, cap = args
    rest = [v for v in range(1, n + 1) if v != first]
    count = 0
    achievers = []
    for tail in itertools.permutations(rest):
        values = (first,) + tail
        if _passes_checks(values, n, checks, neighbor_k):
            count += 1
            if len(achievers) < cap:
                achievers.append(values)
    return count, achievers


@dataclass(frozen=True)
class CensusResult:
    """Exact count (and a capped, lexicographic sample) of the permutations
    of length n passing all supplied checks."""

    n: int
    spec: BalanceSpec
    neighbor: NeighborSpec | None
    count: int
    achievers: tuple[Permutation, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "blocks": list(self.spec.blocks),
            "dev_max": {str(b): str(self.spec.dev_max[b]) for b in self.spec.blocks},
            "neighbor_k": self.neighbor.k if self.neighbor else None,
            "count": str(self.count),
            "achievers": [format_permutation(p) for p in self.achievers],
        }


def census(n: int, spec: BalanceSpec, neighbor: NeighborSpec | None = None,
           cap: int = 0, limit: int = DEFAULT_ENUM_LIMIT,
           workers: int | None = None) -> CensusResult:
    """Exhaustively filter S_n by a balance spec and optional neighbor bound.

    ``cap`` bounds how many achievers are materialized (always the
    lexicographically first ones); the count itself is always exact.
    """
    _check_limit(n, limit)
    if spec.n != n:
        raise SpecMismatch(f"spec is for n={spec.n}, census is over S_{n}")
    if neighbor is not None:
        if n < 3:
            raise SpecMismatch("two-neighbor check needs n >= 3")
        if not 1 <= neighbor.k <= n - 1:
            raise SpecMismatch(f"neighbor bound {neighbor.k} outside [1, {n - 1}]")
    checks = _balance_checks(spec)
    neighbor_k = neighbor.k if neighbor else None
    tasks = [(n, first, checks, neighbor_k, cap) for first in range(1, n + 1)]
    parts = _fan_out(_census_scan, tasks, _resolve_workers(workers))
    count = sum(c for c, _ in parts)
    achievers = []
    for _, ach in parts:
        for values in ach:
            if len(achievers) >= cap:
                break
            achievers.append(Permutation(values))
    return CensusResult(n=n, spec=spec, neighbor=neighbor, count=count,
                        achievers=tuple(achievers))


def _min_disc_scan(args):
    n, first, b = args
    rest = [v for v in range(1, n + 1) if v != first]
    target2 = b * (n + 1)
    best = None
    count = 0
    for tail in itertools.permutations(rest):
        values = (first,) + tail
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
    return best, count


def min_disc(n: int, b: int, limit: int = DEFAULT_ENUM_LIMIT,
             workers: int | None = None) -> tuple[Fraction, int]:
    """Minimum discrepancy over all of S_n for window length ``b``, with the
    exact number of permutations achieving it."""
    _check_limit(n, limit)
    if not 2 <= b <= n:
        raise IndexOutOfRange(f"window length {b} outside [2, {n}]")
    tasks = [(n, first, b) for first in range(1, n + 1)]
    parts = _fan_out(_min_disc_scan, tasks, _resolve_workers(workers))
    best = min(worst for worst, _ in parts if worst is not None)
    count = sum(c for worst, c in parts if worst == best)
    return Fraction(best, 2), count


@dataclass(frozen=True)
class RateReport:
    """Code-size and rate numbers for one codec configuration.

    ``rate = code_log2 / perm_log2`` with ``perm_log2 = log2(n!)``; both
    logs come from exact integer counts.  ``target`` is the asymptotic
    rate implied by the configuration's scaling metadata, when known.
    """

    config: str
    n: int
    code_log2: float | None
    perm_log2: float
    rate: float | None
    target: float | None
    note: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "n": self.n,
            "code_log2": self.code_log2,
            "perm_log2": self.perm_log2,
            "rate": self.rate,
            "target": self.target,
            "note": self.note,
        }


def rate_report_d1(n: int) -> RateReport:
    """Rate of the two-source codec: code size ((n/2)!)**2."""
    if n < 2 or n % 2 != 0:
        raise ParamInvalid("the two-source codec needs an even n >= 2")
    code_log2 = 2 * log2_int(factorial(n // 2))
    perm_log2 = log2_int(factorial(n))
    return RateReport(config="d1", n=n, code_log2=code_log2,
                      perm_log2=perm_log2, rate=code_log2 / perm_log2,
                      target=1.0)


def rate_report_d2(n: int, N: int | None = None,
                   epsilon: Fraction | None = None) -> RateReport:
    """Rate of the block codec: code size ((n/N)!)**N.

    When ``epsilon`` is supplied, N is derived as ceil(n**epsilon) and must
    agree with an explicitly supplied N; no silent rounding to a legal value.
    """
    if epsilon is not None:
        derived = ceil_rational_power(n, Fraction(epsilon))
        if N is not None and N != derived:
            raise ParamInvalid(
                f"N={N} contradicts ceil(n**epsilon)={derived}")
        N = derived
    if N is None:
        raise ParamInvalid("either N or epsilon is required")
    params = D2Params(n, N, Fraction(epsilon) if epsilon is not None else None)
    code_log2 = params.N * log2_int(factorial(params.block_size))
    perm_log2 = log2_int(factorial(n))
    target = float(1 - Fraction(epsilon)) if epsilon is not None else None
    label = f"d2(N={params.N}" + (f", eps={epsilon}" if epsilon is not None else "") + ")"
    return RateReport(config=label, n=n, code_log2=code_log2,
                      perm_log2=perm_log2, rate=code_log2 / perm_log2,
                      target=target)


def _selector_multiset(params: TnParams) -> tuple[int, ...]:
    reps = params.k // 2
    out = []
    for i in range(1, params.m + 1):
        out.extend([i] * reps)
    return tuple(out)


def tn_code_size(params: TnParams, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """Exact size of the neighbor-constrained code by exhausting all inputs.

    Distinct inputs give distinct codewords (decoding is a projection), so
    counting the inputs that encode without a selector violation counts the
    codewords.
    """
    _check_limit(params.n, limit)
    per_set = list(itertools.permutations(range(1, params.k + 1)))
    selectors = sorted(set(itertools.permutations(_selector_multiset(params))))
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


def rate_report_tn(n: int, k: int | None = None,
                   epsilon_k: Fraction | None = None,
                   limit: int = DEFAULT_ENUM_LIMIT,
                   workers: int | None = None) -> RateReport:
    """Rate of the neighbor-constrained codec.

    The code size has no closed form here; it is counted exhaustively when
    n is within the enumeration limit and reported as not computed beyond.
    """
    if epsilon_k is not None:
        derived = ceil_rational_power(n, Fraction(epsilon_k))
        if k is not None and k != derived:
            raise ParamInvalid(
                f"k={k} contradicts ceil(n**epsilon_k)={derived}")
        k = derived
    if k is None:
        raise ParamInvalid("either k or epsilon_k is required")
    params = TnParams(n, k, Fraction(epsilon_k) if epsilon_k is not None else None)
    perm_log2 = log2_int(factorial(n))
    target = float((1 + Fraction(epsilon_k)) / 2) if epsilon_k is not None else None
    label = f"tn(k={k}" + (f", eps_k={epsilon_k}" if epsilon_k is not None else "") + ")"
    if n <= limit:
        size = tn_code_size(params, limit=limit)
        code_log2 = log2_int(size)
        return RateReport(config=label, n=n, code_log2=code_log2,
                          perm_log2=perm_log2, rate=code_log2 / perm_log2,
                          target=target)
    return RateReport(config=label, n=n, code_log2=None, perm_log2=perm_log2,
                      rate=None, target=target,
                      note=f"not computed: n={n} exceeds enumeration limit {limit}")


def rate_report(config: str, n: int, *, N: int | None = None,
                epsilon: Fraction | None = None, k: int | None = None,
                epsilon_k: Fraction | None = None,
                limit: int = DEFAULT_ENUM_LIMIT) -> RateReport:
    """Dispatch on a codec descriptor: ``d1``, ``d2`` (N or epsilon), or
    ``tn`` (k or epsilon_k)."""
    if config == "d1":
        return rate_report_d1(n)
    if config == "d2":
        return rate_report_d2(n, N=N, epsilon=epsilon)
    if config == "tn":
        return rate_report_tn(n, k=k, epsilon_k=epsilon_k, limit=limit)
    raise ParamInvalid(f"unknown codec descriptor {config!r}")


@dataclass(frozen=True)
class CounterExample:
    perm: Permutation
    bound: str
    detail: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "perm": format_permutation(self.perm),
            "bound": self.bound,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class BoundResult:
    name: str
    checked: int
    failures: int
    first_counterexample: CounterExample | None

    @property
    def passed(self) -> int:
        return self.checked - self.failures

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "first_counterexample": (
                self.first_counterexample.to_json_dict()
                if self.first_counterexample else None),
        }


@dataclass(frozen=True)
class ClaimReport:
    """Per-bound pass/fail tallies over a batch of permutations."""

    config: str
    total: int
    bounds: tuple[BoundResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(b.failures == 0 for b in self.bounds)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "total": self.total,
            "bounds": [b.to_json_dict() for b in self.bounds],
        }


class _BoundTally:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.first: CounterExample | None = None

    def record(self, pi: Permutation, detail: dict[str, str] | None) -> None:
        self.checked += 1
        if detail is not None:
            self.failures += 1
            if self.first is None:
                self.first = CounterExample(pi, self.name, detail)

    def result(self) -> BoundResult:
        return BoundResult(self.name, self.checked, self.failures, self.first)


def _checked(perms, n: int):
    for pi in perms:
        if pi.n != n:
            raise ParamInvalid(f"expected permutations of length {n}, got {pi.n}")
        yield pi


def _prefix_bound_detail(devs2: list[int], allowed2: int,
                         step: int = 1) -> dict[str, str] | None:
    for j in range(step, len(devs2), step):
        if abs(devs2[j]) > allowed2:
            return {"j": str(j), "dev": str(Fraction(devs2[j], 2)),
                    "allowed": str(Fraction(allowed2, 2))}
    return None


def _window_spread_detail(devs2: list[int], allowed2: int) -> dict[str, str] | None:
    # A window's doubled deviation is a difference of two prefix entries, so
    # the worst window over all lengths is the spread of the prefix sequence.
    lo, hi = min(devs2), max(devs2)
    if hi - lo <= 2 * allowed2:
        return None
    a, c = sorted((devs2.index(lo), devs2.index(hi)))
    return {"b": str(c - a), "j": str(a + 1), "dev": str(Fraction(hi - lo, 2)),
            "allowed": str(Fraction(allowed2, 2))}


def _containment_failure(n: int, span: int, lengths) -> tuple[int, int] | None:
    """First (b, i) with window end i+b-1 past cell ceil(i/span)+1: b > span+1
    is needed (never so for valid params) and i is the first with i+b-1 > 2*span."""
    return next(((b, i) for b in lengths for i in [max(1, 2 * span - b + 2)]
                 if b > span + 1 and i <= n - b + 1), None)


def d1_claim_suite(perms, n: int) -> ClaimReport:
    """Check the two-source codeword bounds: every prefix deviation within
    n+1 and every window deviation (any length) within 2*(n+1); O(n) each."""
    prefix = _BoundTally("prefix_bound")
    window = _BoundTally("window_bound")
    for pi in _checked(perms, n):
        devs2 = prefix_deviations_doubled(pi)
        prefix.record(pi, _prefix_bound_detail(devs2, 2 * (n + 1)))
        window.record(pi, _window_spread_detail(devs2, 2 * (n + 1)))
    return ClaimReport(config=f"d1(n={n})", total=window.checked,
                       bounds=(prefix.result(), window.result()))


def d2_claim_suite(perms, params: D2Params) -> ClaimReport:
    """Check the block codeword bounds: even-prefix deviation within 2n/N,
    pair locality within 4n/N (with its cell-window containment), and every
    spec'd even-length window deviation within 8*(n+1)/N.  Costs O(n) per
    permutation, plus the lengths at each start failing the last two."""
    n, N = params.n, params.N
    span = 4 * n // N
    even_prefix = _BoundTally("even_prefix_bound")
    locality = _BoundTally("pair_locality")
    window = _BoundTally("window_bound")
    lengths = params.window_lengths
    gap_limits = dict.fromkeys(lengths, span)
    # dev2 * N > 16 * (n + 1)  <=>  dev2 > 16 * (n + 1) // N
    window_limits = dict.fromkeys(lengths, 16 * (n + 1) // N)
    containment = _containment_failure(n, span, lengths)
    for pi in _checked(perms, n):
        devs2 = prefix_deviations_doubled(pi)
        even_prefix.record(pi, _prefix_bound_detail(devs2, span, step=2))  # 2n/N

        # symbols i and i+b at most span apart; first (b, i) wins, containment on a tie
        v = pi.values
        gap = next(_window_violations(v, lengths, gap_limits), None)
        if containment and (gap is None or containment <= (gap[0], gap[1] + 1)):
            b, i = containment
            gap = {"i": str(i), "j": str(i + b - 1), "cell": "1",
                   "reason": "containment"}
        elif gap:
            b, s = gap
            gap = {"i": str(s + 1), "j+1": str(s + b + 1),
                   "gap": str(abs(v[s + b] - v[s])), "allowed": str(span)}
        locality.record(pi, gap)

        first = next(_window_violations(devs2, lengths, window_limits), None)
        if first:
            b, s = first
            first = {"b": str(b), "j": str(s + 1),
                     "dev": str(Fraction(abs(devs2[s + b] - devs2[s]), 2)),
                     "allowed": str(Fraction(8 * (n + 1), N))}
        window.record(pi, first)
    return ClaimReport(config=f"d2(n={n},N={N})", total=window.checked,
                       bounds=(even_prefix.result(), locality.result(),
                               window.result()))


def tn_claim_suite(perms, params: TnParams) -> ClaimReport:
    """Check neighbor-constrained codewords: the two-neighbor bound at k,
    and the full-window balance bound with allowance 2*(n+1); O(n) each."""
    n, k = params.n, params.k
    neighbor = _BoundTally("two_neighbor")
    window = _BoundTally("window_bound")
    for pi in _checked(perms, n):
        entries = check_two_neighbor(pi, NeighborSpec(k)).entries
        neighbor.record(pi, {key: str(value) for key, value
                             in entries[0].to_json_dict().items()} if entries else None)
        devs2 = prefix_deviations_doubled(pi)
        window.record(pi, _window_spread_detail(devs2, 2 * (n + 1)))
    return ClaimReport(config=f"tn(n={n},k={k})", total=window.checked,
                       bounds=(neighbor.result(), window.result()))


def claim_suite(perms, config) -> ClaimReport:
    """Dispatch: ``"d1"`` (length from the batch), a block-codec params
    object, or a neighbor-codec params object."""
    perms = list(perms)
    if config == "d1":
        if not perms:
            raise ParamInvalid("an empty batch cannot fix the length for d1")
        return d1_claim_suite(perms, perms[0].n)
    if isinstance(config, D2Params):
        return d2_claim_suite(perms, config)
    if isinstance(config, TnParams):
        return tn_claim_suite(perms, config)
    raise ParamInvalid(f"unknown claim-suite config {config!r}")
