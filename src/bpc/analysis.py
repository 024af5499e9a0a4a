"""Exhaustive oracles: censuses over S_n and minimum-discrepancy search,
plus code sizes, code-rate reports and claim batch-checkers.

The census and min_disc run one pruned depth-first search over prefixes: a
window is tested when its last symbol is placed, so a failing prefix costs
one test instead of a rescan of each of its completions.  The search is a
loop over an explicit stack, not a recursion, so ``limit`` is the only bound
on it: neither the caller's stack depth nor the interpreter's recursion limit
changes an answer.  Code sizes are counted in closed form, the tn size
included, so a rate is exact at every n.  Counts are exact integers;
logarithms are taken only at the very end of a rate computation.  Searches
may fan out over processes, one task per first symbol (the ``workers``
argument; 0 runs in-process), and results are merged in first-symbol order
so the output never depends on the degree of parallelism.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import factorial

from . import DEFAULT_ENUM_LIMIT, _EXPORTS
from ._util import Record, at_least, codec_parameters, exact_int, log2_int, scale_parameter
from .d1_codec import _half
from .d2_codec import D2Params, d2_preset
from .errors import IndexOutOfRange, LimitExceeded, ParamInvalid, SpecMismatch
from .perm_core import (
    BalanceSpec,
    NeighborSpec,
    Permutation,
    _check_neighbor_range,
    _window_violations,
    check_two_neighbor,
    format_permutation,
    prefix_deviations_doubled,
)
from .tn_codec import TnParams

__all__ = _EXPORTS["analysis"]


def _fan_out(scan, tasks, workers: int) -> list:
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(scan, tasks))
    return [scan(t) for t in tasks]


def _check_limit(n: int, limit: int) -> None:
    n, limit = at_least(n, 1, "n"), exact_int(limit)
    if n > limit:
        raise LimitExceeded(
            f"exhaustive enumeration over S_{n} exceeds the limit {limit}; "
            "raise the limit explicitly to acknowledge the cost")


def _search(args):
    """Depth-first search, in ascending order, over the permutations starting
    with ``first``; the stack holds one iterator of untried symbols per placed
    position.  Placing a symbol at position i tests only the windows ending
    there (``|D[i+1] - D[i+1-b]| > lim`` on the doubled prefix deviations D)
    and the neighbor bound at i-1; a failure prunes the subtree."""
    n, first, limits, neighbor_k, cap = args
    k = n if neighbor_k is None else neighbor_k  # no two symbols are n apart
    ends = [[(i + 1 - b, lim) for b, lim in limits if b <= i + 1] for i in range(n)]
    values, devs, free = [0] * n, [0] * (n + 1), [True] * (n + 1)
    achievers = []
    count = 0
    stack = [iter((first,))]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            d = devs[i] + 2 * v - n - 1
            if (not free[v] or any(abs(d - devs[j]) > lim for j, lim in ends[i])
                    or i >= 2 and abs(values[i - 1] - values[i - 2]) > k
                    and abs(values[i - 1] - v) > k):
                continue
            break
        else:  # position i is exhausted: back up and free the symbol before it
            stack.pop()
            free[values[i - 1]] = True  # (at i = 0 the search is over)
            continue
        values[i], devs[i + 1] = v, d
        if i + 1 < n:
            free[v] = False
            stack.append(iter(range(1, n + 1)))
        else:
            count += 1
            if len(achievers) < cap:
                achievers.append(tuple(values))
    return count, achievers


class CensusResult(Record):
    """Exact count (and a capped, lexicographic sample) of the permutations
    of length n passing all supplied checks."""

    __slots__ = ("n", "spec", "neighbor", "count", "achievers")

    def __init__(self, n: int, spec: BalanceSpec, neighbor: NeighborSpec | None,
                 count: int, achievers: tuple[Permutation, ...]):
        self._init(n, spec, neighbor, count, achievers)

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
           workers: int = 0) -> CensusResult:
    """Count the permutations of S_n passing a balance spec and an optional
    neighbor bound, by a pruned depth-first search over prefixes.

    The cost is O(|blocks|) exact int tests per surviving prefix, not n! rescans.
    A length allowed b*(n-b) or more, the most any length-b window can deviate
    (doubled), is skipped; with nothing left to check the count is n! and no
    search runs.  ``cap`` bounds how many achievers are materialized (always
    the lexicographically first ones); the count is always exact.  ``limit``
    is the only bound on the search: n past it raises ``LimitExceeded``.
    """
    _check_limit(n, limit)
    if spec.n != n:
        raise SpecMismatch(f"spec is for n={spec.n}, census is over S_{n}")
    if neighbor is not None:
        _check_neighbor_range(n, neighbor.k)
    if exact_int(cap) < 0:
        raise ParamInvalid(f"achiever cap must be >= 0, got {cap}")
    at_least(workers, 0, "worker count")
    limits = [(b, lim) for b, lim in spec._limits.items() if lim < b * (n - b)]
    neighbor_k = neighbor.k if neighbor else None
    if not limits and neighbor_k is None:
        count, achievers = factorial(n), itertools.permutations(range(1, n + 1))
    else:
        tasks = [(n, first, limits, neighbor_k, cap) for first in range(1, n + 1)]
        parts = _fan_out(_search, tasks, workers)
        count, achievers = sum(c for c, _ in parts), [a for _, ach in parts for a in ach]
    listed = itertools.islice(achievers, min(cap, sys.maxsize))  # islice takes no stop past it
    return CensusResult(n=n, spec=spec, neighbor=neighbor, count=count,
                        achievers=tuple(map(Permutation, listed)))


def min_disc(n: int, b: int, limit: int = DEFAULT_ENUM_LIMIT,
             workers: int = 0) -> tuple[Fraction, int]:
    """Minimum discrepancy over all of S_n for window length ``b``, with the
    exact number of permutations achieving it.

    The answer is the least doubled allowance t whose census is non-empty.
    Every doubled window deviation has the parity of b*(n+1), so t steps by
    2 from that parity, and each census prunes every prefix already past t.
    """
    _check_limit(n, limit)
    if not 2 <= exact_int(b) <= n:
        raise IndexOutOfRange(f"window length {b} outside [2, {n}]")
    for t in itertools.count(b * (n + 1) % 2, 2):
        count = census(n, BalanceSpec(n, (b,), {b: Fraction(t, 2)}),
                       limit=limit, workers=workers).count
        if count:
            return Fraction(t, 2), count


class RateReport(Record):
    """Code-size and rate numbers for one codec configuration.

    ``rate = code_log2 / perm_log2`` with ``perm_log2 = log2(n!)``; both
    logs come from exact integer counts.  ``target`` is the asymptotic
    rate implied by the configuration's scaling metadata, when known.
    """

    __slots__ = ("config", "n", "code_log2", "perm_log2", "rate", "target")

    def __init__(self, config: str, n: int, code_log2: float, perm_log2: float,
                 rate: float, target: float | None):
        self._init(config, n, code_log2, perm_log2, rate, target)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "n": self.n,
            "code_log2": self.code_log2,
            "perm_log2": self.perm_log2,
            "rate": self.rate,
            "target": self.target,
            "note": None,
        }


def _rate_report(config: str, n: int, code_log2: float, target) -> RateReport:
    perm_log2 = log2_int(factorial(n))
    return RateReport(config=config, n=n, code_log2=code_log2, perm_log2=perm_log2,
                      rate=code_log2 / perm_log2, target=target)


def rate_report_d1(n: int) -> RateReport:
    """Rate of the two-source codec: code size ((n/2)!)**2."""
    return _rate_report("d1", n, 2 * log2_int(factorial(_half(n))), 1.0)


def rate_report_d2(n: int, N: int | None = None,
                   epsilon: Fraction | None = None) -> RateReport:
    """Rate of the block codec: code size ((n/N)!)**N, with N given or
    derived as ceil(n**epsilon)."""
    N = scale_parameter("d2", n, N, epsilon)
    params = D2Params(n, N)
    target = float(1 - Fraction(epsilon)) if epsilon is not None else None
    label = f"d2(N={N}" + (f", eps={epsilon}" if epsilon is not None else "") + ")"
    return _rate_report(label, n, N * log2_int(factorial(params.block_size)), target)


def tn_code_size(params: TnParams, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """``params.code_size``, the exact size of the neighbor-constrained code.
    ``limit`` is the other oracles' guard, kept so that a call above it still
    raises ``LimitExceeded``, although the count enumerates nothing."""
    if params.n > exact_int(limit):
        raise LimitExceeded(f"tn code size at n={params.n} is past the limit {limit}; "
                            "raise the limit explicitly")
    return params.code_size


def rate_report_tn(n: int, k: int | None = None,
                   epsilon_k: Fraction | None = None) -> RateReport:
    """Rate of the neighbor-constrained codec: code size ``TnParams.code_size``,
    exact at every n, with k given or derived as ceil(n**epsilon_k)."""
    k = scale_parameter("tn", n, k, epsilon_k)
    params = TnParams(n, k)
    target = float((1 + Fraction(epsilon_k)) / 2) if epsilon_k is not None else None
    label = f"tn(k={k}" + (f", eps_k={epsilon_k}" if epsilon_k is not None else "") + ")"
    return _rate_report(label, n, log2_int(params.code_size), target)


def rate_report(config: str, n: int, *, N: int | None = None,
                epsilon: Fraction | None = None, k: int | None = None,
                epsilon_k: Fraction | None = None) -> RateReport:
    """Dispatch on a codec descriptor: ``d1``, ``d2`` (N or epsilon), or
    ``tn`` (k or epsilon_k); a keyword of another codec raises
    ``ParamInvalid``."""
    reports = {"d1": rate_report_d1, "d2": rate_report_d2, "tn": rate_report_tn}
    if not isinstance(config, str) or config not in reports:
        raise ParamInvalid(f"unknown codec descriptor {config!r}")
    given = {"N": N, "epsilon": epsilon, "k": k, "epsilon_k": epsilon_k}
    return reports[config](n, **codec_parameters(config, given))


class CounterExample(Record):
    __slots__ = ("perm", "bound", "detail")

    def __init__(self, perm: Permutation, bound: str, detail: dict[str, str]):
        self._init(perm, bound, detail)

    def to_json_dict(self) -> dict:
        return {
            "perm": format_permutation(self.perm),
            "bound": self.bound,
            "detail": dict(self.detail),
        }


class BoundResult(Record):
    __slots__ = ("name", "checked", "failures", "first_counterexample")

    def __init__(self, name: str, checked: int, failures: int,
                 first_counterexample: CounterExample | None):
        self._init(name, checked, failures, first_counterexample)

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


class ClaimReport(Record):
    """Per-bound pass/fail tallies over a batch of permutations."""

    __slots__ = ("config", "total", "bounds")

    def __init__(self, config: str, total: int, bounds: tuple[BoundResult, ...]):
        self._init(config, total, bounds)

    @property
    def all_pass(self) -> bool:
        return all(b.failures == 0 for b in self.bounds)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "total": self.total,
            "bounds": [b.to_json_dict() for b in self.bounds],
        }


def _claims(config: str, perms, n: int, checks) -> ClaimReport:
    """Tally each ``(name, detail)`` check over the batch.  ``detail(pi,
    devs2)`` gets a permutation and its doubled prefix deviations, tests them
    against a doubled allowance and returns None on a pass, else the failure's
    detail in undoubled units; each check's first failure is its counterexample."""
    total, failures, first = 0, [0] * len(checks), [None] * len(checks)
    for pi in perms:
        if pi.n != n:
            raise ParamInvalid(f"expected permutations of length {n}, got {pi.n}")
        total += 1
        devs2 = prefix_deviations_doubled(pi)
        for i, (name, detail) in enumerate(checks):
            found = detail(pi, devs2)
            if found is not None:
                failures[i] += 1
                if first[i] is None:
                    first[i] = CounterExample(pi, name, found)
    return ClaimReport(config=config, total=total, bounds=tuple(
        BoundResult(name, total, fails, example)
        for (name, _), fails, example in zip(checks, failures, first)))


def _prefix_bound_detail(devs2: list[int], allowed2: int,
                         step: int = 1) -> dict[str, str] | None:
    if max(map(abs, devs2[step::step])) <= allowed2:  # in C; the loop finds the first failure
        return None
    for j in range(step, len(devs2), step):
        if abs(devs2[j]) > allowed2:
            return {"j": str(j), "dev": str(Fraction(devs2[j], 2)),
                    "allowed": str(Fraction(allowed2, 2))}


def _window_spread_detail(devs2: list[int], allowed2: int) -> dict[str, str] | None:
    # A window's doubled deviation is a difference of two prefix entries, so
    # the worst window over all lengths is the spread of the prefix sequence.
    lo, hi = min(devs2), max(devs2)
    if hi - lo <= allowed2:
        return None
    a, c = sorted((devs2.index(lo), devs2.index(hi)))
    return {"b": str(c - a), "j": str(a + 1), "dev": str(Fraction(hi - lo, 2)),
            "allowed": str(Fraction(allowed2, 2))}


def d1_claim_suite(perms, n: int) -> ClaimReport:
    """Check the two-source codeword bounds: every prefix deviation within
    n+1 and every window deviation (any length) within 2*(n+1); O(n) each."""
    n = exact_int(n)
    return _claims(f"d1(n={n})", perms, n, (
        ("prefix_bound", lambda pi, devs2: _prefix_bound_detail(devs2, 2 * (n + 1))),
        ("window_bound", lambda pi, devs2: _window_spread_detail(devs2, 4 * (n + 1)))))


def d2_claim_suite(perms, params: D2Params) -> ClaimReport:
    """Check the block codeword bounds: even-prefix deviation within 2n/N,
    pair locality within 4n/N, and every window of the ``d2_preset`` lengths
    within its allowance 8*(n+1)/N.  Costs O(n) per permutation, plus the
    lengths at each start failing the last two."""
    n, N = params.n, params.N
    span = 4 * n // N
    spec = d2_preset(n, N)
    gap_limits = dict.fromkeys(spec.blocks, span)

    def locality(pi, devs2):
        # symbols i and i+b at most span apart; the first (b, i) is reported
        v = pi.values
        for b, s in _window_violations(v, spec.blocks, gap_limits):
            return {"i": str(s + 1), "j+1": str(s + b + 1),
                    "gap": str(abs(v[s + b] - v[s])), "allowed": str(span)}
        return None

    def window(pi, devs2):
        for b, s in _window_violations(devs2, spec.blocks, spec._limits):
            return {"b": str(b), "j": str(s + 1),
                    "dev": str(Fraction(abs(devs2[s + b] - devs2[s]), 2)),
                    "allowed": str(spec.dev_max[b])}
        return None

    return _claims(f"d2(n={n},N={N})", perms, n, (
        ("even_prefix_bound", lambda pi, devs2: _prefix_bound_detail(devs2, span, step=2)),
        ("pair_locality", locality),
        ("window_bound", window)))


def tn_claim_suite(perms, params: TnParams) -> ClaimReport:
    """Check neighbor-constrained codewords: the two-neighbor bound at k,
    and the full-window balance bound with allowance 2*(n+1); O(n) each."""
    n, k = params.n, params.k
    spec = NeighborSpec(k)

    def neighbor(pi, devs2):
        entries = check_two_neighbor(pi, spec).entries
        return {key: str(value) for key, value
                in entries[0].to_json_dict().items()} if entries else None

    return _claims(f"tn(n={n},k={k})", perms, n, (
        ("two_neighbor", neighbor),
        ("window_bound", lambda pi, devs2: _window_spread_detail(devs2, 4 * (n + 1)))))


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
