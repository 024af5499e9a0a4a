"""Permutation values, windowed-sum balance verifiers, discrepancy,
lexicographic rank/unrank, and the symbol emitter and block projection that
the three codecs share.

Symbols are 1-based throughout: a permutation of length ``n`` holds each of
``{1, ..., n}`` exactly once, and window/position arguments follow the same
convention.  All deviation arithmetic is exact (`fractions.Fraction` with
denominator at most 2); the verifiers never touch floating point, so their
verdicts are bit-identical across platforms.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from math import gcd, prod
from operator import sub
from typing import Iterable, Iterator, Mapping

from . import _EXPORTS
from ._util import Record, at_least, decimal_int, exact_int, exact_ints, int_text
from .errors import (
    IndexOutOfRange,
    NotPermutation,
    ParamInvalid,
    SourceExhausted,
    SpecMismatch,
)

__all__ = _EXPORTS["perm_core"]


class Permutation(Record):
    """A bijection of {1, ..., n} in one-line notation.

    Construction validates ``values``.  Exact ints are accepted by two set
    comparisons in C (their types, then the symbols against a cached
    ``{1, ..., n}``); anything else, such as an ``IntEnum`` member or a
    rejected input, goes through a per-symbol loop that accepts int
    subclasses but not ``bool`` and raises ``NotPermutation`` naming the
    first bad symbol.

    >>> Permutation((2, 1, 3)).n
    3
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        n = len(values)
        if n == 0:
            raise NotPermutation("a permutation must have length >= 1")
        # in C: exact ints only (so nothing else is hashed), then {1, ..., n}
        if set(map(type, values)) != {int} or set(values) != _symbols(n):
            seen = [False] * n
            for v in values:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise NotPermutation(f"symbol {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise NotPermutation(f"symbol {v} outside [1, {n}]")
                if seen[v - 1]:
                    raise NotPermutation(f"symbol {v} appears more than once")
                seen[v - 1] = True
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return format_permutation(self)


@lru_cache(maxsize=16)
def _symbols(n: int) -> frozenset[int]:
    """{1, ..., n}: the symbol set of every permutation of length ``n``."""
    return frozenset(range(1, n + 1))


def make_permutation(values: Iterable[int]) -> Permutation:
    """Validate ``values`` as a bijection of {1, ..., len(values)}."""
    return Permutation(tuple(values))


def identity(n: int) -> Permutation:
    """The identity permutation (1, 2, ..., n)."""
    return Permutation(tuple(range(1, at_least(n, 1, "length") + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse the text format: 1-based integers separated by spaces or commas.

    >>> parse_permutation("3,1,2").values
    (3, 1, 2)

    Raises ``NotPermutation`` on malformed tokens (anything but ASCII
    ``[+-]?[0-9]+``) or non-bijections.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise NotPermutation("empty permutation text")
    values = []
    for pos, t in enumerate(tokens, 1):
        try:
            values.append(decimal_int(t))
        except ValueError as exc:
            cut = "..." if len(t) > 12 else ""  # the error stays short for any input
            raise NotPermutation(f"bad symbol {t[:12]!r}{cut} at position {pos}") from exc
    return Permutation(tuple(values))


def format_permutation(pi: Permutation) -> str:
    """Render to the canonical text format (space-separated, no padding)."""
    return " ".join(str(v) for v in pi.values)


def window_sum(pi: Permutation, j: int, b: int) -> int:
    """Sum of the length-``b`` window starting at position ``j`` (1-based)."""
    n, j, b = pi.n, exact_int(j), exact_int(b)
    if not 1 <= b <= n:
        raise IndexOutOfRange(f"block length {b} outside [1, {n}]")
    if not 1 <= j <= n - b + 1:
        raise IndexOutOfRange(f"window start {j} outside [1, {n - b + 1}]")
    return sum(pi.values[j - 1:j + b - 1])


def prefix_deviation(pi: Permutation, j: int) -> Fraction:
    """Running sum of the first ``j`` symbols minus ``j*(n+1)/2``, exact."""
    n, j = pi.n, exact_int(j)
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"prefix length {j} outside [1, {n}]")
    return Fraction(2 * sum(pi.values[:j]) - j * (n + 1), 2)


def prefix_deviations_doubled(pi: Permutation) -> list[int]:
    """All doubled prefix deviations ``2*sum(pi[:j]) - j*(n+1)`` for j=0..n.

    Every verifier reads this sequence D: the length-``b`` window after ``j``
    deviates by ``(D[j+b] - D[j]) / 2``.  D is integral for every ``n``.
    """
    step = pi.n + 1
    return list(accumulate([2 * v - step for v in pi.values], initial=0))


class _Emitter:
    """Working state of one encoder run: a queue per block of symbols, the
    emitted symbols, and their doubled prefix deviation ``dev2`` (the last
    entry of ``prefix_deviations_doubled`` of the output so far).

    The block layout, which ``_project`` inverts: block i (1-based, in the
    order given) queues its ordering of [1, size] shifted by (i-1)*size, and
    n is size times the number of blocks.  Every codec draws from it; each
    keeps only its own rule for which block the sign of ``dev2`` mandates.
    """

    __slots__ = ("queues", "out", "dev2", "_step")

    def __init__(self, size: int, orderings: Iterable[Iterable[int]]):
        self.queues = {}
        for i, o in enumerate(orderings, 1):
            offset = (i - 1) * size
            self.queues[i] = deque([v + offset for v in o] if offset else o)
        self.out: list[int] = []
        self.dev2 = 0
        self._step = size * len(self.queues) + 1

    def take(self, block: int) -> None:
        """Emit the head of ``block``; an empty block is a defect witness."""
        try:
            v = self.queues[block].popleft()
        except IndexError:
            raise self.exhausted((block,)) from None
        self.out.append(v)
        self.dev2 += 2 * v - self._step

    def remaining(self) -> dict[int, int]:
        return {i: len(q) for i, q in self.queues.items()}

    def exhausted(self, mandated: tuple[int, ...]) -> SourceExhausted:
        """The defect witness for an empty mandated block (or set of blocks)."""
        return SourceExhausted(
            f"mandated block(s) {', '.join(map(str, mandated))} empty after "
            f"{len(self.out)} symbols (encoder invariant broken)",
            emitted=len(self.out), dev_twice=self.dev2, mandated=mandated,
            remaining=self.remaining())


def _project(pi: Permutation, size: int) -> tuple[Permutation, ...]:
    """Invert ``_Emitter``'s block layout: the orderings of [1, size] that
    the n/size blocks of ``pi`` hold, each block's symbols in order of
    appearance."""
    blocks: list[list[int]] = [[] for _ in range(pi.n // size)]
    appends = [block.append for block in blocks]
    for v in pi.values:
        appends[(v - 1) // size](v)
    return tuple(Permutation(tuple([v - offset for v in block]))
                 for offset, block in zip(range(0, pi.n, size), blocks))


def _sliding_max(xs, width: int) -> list:
    """``max(xs[t:t+width])`` for every t, by one monotone deque: O(len(xs))."""
    window, out = deque(), []
    for t in range(len(xs) - 1, -1, -1):
        while window and xs[window[-1]] <= xs[t]:
            window.pop()
        window.append(t)
        if window[0] >= t + width:
            window.popleft()
        out.append(xs[window[0]])
    out.reverse()
    return out


def _window_violations(xs, steps: tuple[int, ...], limits: Mapping[int, int]):
    """Yield each ``(b, s)`` with ``|xs[s+b] - xs[s]| > limits[b]``, b in the
    ascending ``steps``, in (b, s) order.

    Starts are sieved per residue class mod g = gcd(steps), in chunks of
    q >= steps[-1]/g + 1 entries, so a start's partners lie in its own chunk
    or the next.  Where that chunk pair spreads (max minus min, by C
    ``max``/``min`` over slices) no further than the least limit, no start in
    the chunk can fail.  Over each run of failing chunks, plus one chunk of
    lookahead, sliding extremes pick the starts that can fail; only those are
    enumerated.  The sieve is O(len(xs)) even when every chunk fails."""
    if not steps:
        return
    floor = min(map(limits.__getitem__, steps))
    g = gcd(*steps)
    ahead, width = steps[0] // g, (steps[-1] - steps[0]) // g + 1
    q = max(ahead + width, 64)
    starts = []
    for r in range(g):
        ys = xs[r::g]
        cuts = range(0, len(ys), q)
        tops = [max(ys[t:t + q]) for t in cuts]
        bottoms = [min(ys[t:t + q]) for t in cuts]
        # each chunk with its successor (the last one alone)
        spreads = map(sub, map(max, tops, tops[1:] + tops[-1:]),
                      map(min, bottoms, bottoms[1:] + bottoms[-1:]))
        begin = 0
        for failing, run in groupby(spread > floor for spread in spreads):
            end = begin + q * sum(1 for _ in run)
            if failing:
                seg = ys[begin:end + q]
                hi = _sliding_max(seg, width)[ahead:]
                neg_lo = _sliding_max([-y for y in seg], width)[ahead:]
                starts += [r + (begin + k) * g
                           for k, (y, h, nl) in enumerate(zip(seg[:end - begin], hi, neg_lo))
                           if h - y > floor or y + nl > floor]
            begin = end
    if not starts:
        return
    starts.sort()
    for b in steps:
        for s in starts[:bisect_right(starts, len(xs) - 1 - b)]:
            if abs(xs[s + b] - xs[s]) > limits[b]:
                yield b, s


def disc(pi: Permutation, b: int) -> Fraction:
    """Maximum absolute deviation of any ``b``-window sum from ``b*(n+1)/2``.

    Every window start ``j`` in ``[1, n-b+1]`` is considered, in O(n).  The
    result is an integer when ``b*(n+1)`` is even, else a half-integer.
    """
    n, b = pi.n, exact_int(b)
    if not 1 <= b <= n:
        raise IndexOutOfRange(f"block length {b} outside [1, {n}]")
    devs2 = prefix_deviations_doubled(pi)
    return Fraction(max(map(abs, map(sub, devs2[b:], devs2))), 2)


class BalanceSpec(Record):
    """A set of window lengths plus the allowed deviation for each.

    ``dev_max[b]`` bounds ``|window_sum - b*(n+1)/2|`` for every length-``b``
    window.  ``n`` and the lengths are exact ints, deviations non-negative
    exact rationals.  Construction derives, once, the limit per length that
    the verifiers and the census read, the largest doubled deviation allowed:
    |w - b*(n+1)/2| > p/q  <=>  |2w - b*(n+1)| * q > 2p  <=>  dev2 > 2p // q.
    ``dev_max`` is read only then, so it must not be mutated afterwards.
    """

    __slots__ = ("n", "blocks", "dev_max", "_limits")

    def __init__(self, n: int, blocks: tuple[int, ...], dev_max: Mapping[int, Fraction]):
        n, blocks = at_least(n, 1, "spec length"), exact_ints(blocks)
        if any(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:])):
            raise ParamInvalid("block lengths must be strictly increasing")
        if blocks and not (1 <= blocks[0] and blocks[-1] <= n):
            raise ParamInvalid(f"block lengths must lie in [1, {n}]")
        if set(dev_max) != set(blocks):
            raise ParamInvalid("dev_max keys must match the block set")
        dev = {b: dev_max[b] for b in blocks}
        dev = {b: v if type(v) is Fraction else Fraction(v) for b, v in dev.items()}
        limits = {b: 2 * a.numerator // a.denominator for b, a in dev.items()}
        if min(limits.values(), default=0) < 0:  # 2p // q < 0 exactly when p < 0
            raise ParamInvalid("allowed deviations must be non-negative")
        self._init(n, blocks, dev, limits)


def d1_preset(n: int) -> BalanceSpec:
    """Every window length 1..n, allowed deviation 2*(n+1)."""
    n = at_least(n, 1, "preset length")
    allowed = Fraction(2 * (n + 1))
    blocks = tuple(range(1, n + 1))
    return BalanceSpec(n, blocks, {b: allowed for b in blocks})


class NeighborSpec(Record):
    """Two-neighbor distance bound ``k``."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self._init(at_least(k, 1, "neighbor bound k"))


class BalanceViolation(Record):
    """One window whose sum strayed further than the spec allows."""

    __slots__ = ("b", "j", "window_sum", "target", "allowed_dev", "actual_dev")

    def __init__(self, b: int, j: int, window_sum: int, target: Fraction,
                 allowed_dev: Fraction, actual_dev: Fraction):
        set_ = object.__setattr__  # one call per field, no loop: built per violation
        set_(self, "b", b)
        set_(self, "j", j)
        set_(self, "window_sum", window_sum)
        set_(self, "target", target)
        set_(self, "allowed_dev", allowed_dev)
        set_(self, "actual_dev", actual_dev)

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "j": self.j,
            "sum": self.window_sum,
            "target": str(self.target),
            "allowed": str(self.allowed_dev),
            "actual": str(self.actual_dev),
        }


class NeighborViolation(Record):
    """An interior position with both adjacent symbol distances above k."""

    __slots__ = ("i", "left_diff", "right_diff", "allowed")

    def __init__(self, i: int, left_diff: int, right_diff: int, allowed: int):
        self._init(i, left_diff, right_diff, allowed)

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "left": self.left_diff,
            "right": self.right_diff,
            "allowed": self.allowed,
        }


class ViolationReport(Record):
    """Deterministic, machine-readable verifier outcome.

    ``entries`` is empty exactly when the permutation satisfies the spec;
    balance entries are sorted by (b, j), neighbor entries by position.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[BalanceViolation | NeighborViolation, ...]):
        self._init(entries)

    @property
    def is_valid(self) -> bool:
        return not self.entries

    def to_json_dict(self) -> dict:
        return {
            "valid": self.is_valid,
            "violations": [e.to_json_dict() for e in self.entries],
        }


def verify_balance(pi: Permutation, spec: BalanceSpec) -> ViolationReport:
    """Check every window of every spec'd length against its deviation bound
    in O(n), plus the spec'd lengths at each window start with a violation.

    ``_window_violations`` sieves the starts: whole chunks of the doubled
    prefix deviations whose spread stays within the least doubled allowance
    are accepted by C ``max``/``min``, so a valid codeword rarely reaches the
    sliding pass; when every chunk fails, that pass covers them all, in O(n)."""
    n = pi.n
    if spec.n != n:
        raise SpecMismatch(f"spec is for n={spec.n}, permutation has n={n}")
    D = prefix_deviations_doubled(pi)
    return ViolationReport(tuple(
        BalanceViolation(b=b, j=s + 1, window_sum=(D[s + b] - D[s] + b * (n + 1)) // 2,
                         target=Fraction(b * (n + 1), 2), allowed_dev=spec.dev_max[b],
                         actual_dev=Fraction(abs(D[s + b] - D[s]), 2))
        for b, s in _window_violations(D, spec.blocks, spec._limits)))


def _check_neighbor_range(n: int, k: int) -> None:
    if n < 3:
        raise SpecMismatch("two-neighbor check needs n >= 3")
    if not 1 <= k <= n - 1:
        raise SpecMismatch(f"neighbor bound {k} outside [1, {n - 1}]")


def check_two_neighbor(pi: Permutation, spec: NeighborSpec) -> ViolationReport:
    """Check that each interior position has a neighbor within distance k.

    The adjacent gaps and the flags ``gap > k`` are computed in C, and
    ``bytes.find`` of two flags in a row visits only the violating positions."""
    n, k = pi.n, spec.k
    _check_neighbor_range(n, k)
    v = pi.values
    gaps = list(map(abs, map(sub, v[1:], v)))  # gaps[t] = |v[t+1] - v[t]|
    far = bytes(map(k.__lt__, gaps))
    entries = []
    t = far.find(b"\1\1")
    while t >= 0:  # position t + 2 (1-based) has both gaps above k
        entries.append(NeighborViolation(i=t + 2, left_diff=gaps[t],
                                         right_diff=gaps[t + 1], allowed=k))
        t = far.find(b"\1\1", t + 1)
    return ViolationReport(tuple(entries))


@lru_cache(maxsize=64)
def _radix_groups(n: int) -> tuple[tuple[int, range], ...]:
    """The factoradic radices 1..n in runs whose product fits one CPython int
    digit, as ``(product, radices)``, least significant run first."""
    groups, start, prod, digit = [], 1, 1, 1 << sys.int_info.bits_per_digit
    for r in range(1, n + 1):
        if prod * r >= digit:
            groups.append((prod, range(start, r)))
            start, prod = r, 1
        prod *= r
    return (*groups, (prod, range(start, n + 1)))


@lru_cache(maxsize=16)
def _product_tree(n: int) -> tuple[tuple[int, ...], ...]:
    """A balanced product tree over ``_radix_groups(n)``, leaves first: each
    level holds the products of adjacent pairs of the level below (an odd
    last node is carried up alone), up to the root level ``(n!,)``."""
    level = tuple(p for p, _ in _radix_groups(n))
    levels = [level]
    while len(level) > 1:
        level = tuple(prod(level[i:i + 2]) for i in range(0, len(level), 2))
        levels.append(level)
    return tuple(levels)


def rank(pi: Permutation) -> int:
    """Lexicographic index of ``pi`` among all permutations of its length.

    The identity has rank 0; results are exact for any ``n``.  The Lehmer
    digits come from ``bisect``/``del`` (O(n^2) word moves, in C); small ints
    fold them into one value per radix group, and the groups are folded up
    the product tree as ``high * P_low + low``, so the big-int multiplies
    pair operands of equal size.

    >>> rank(Permutation((3, 2, 1)))
    5
    """
    n = pi.n
    remaining = list(range(1, n + 1))
    digits = []  # digits[i] has radix n - i
    for v in pi.values:
        digits.append(d := bisect_left(remaining, v))
        del remaining[d]
    parts = []  # one value per radix group, least significant first
    for _, radices in _radix_groups(n):
        low = 0
        for radix in reversed(radices):
            low = low * radix + digits[n - radix]
        parts.append(low)
    for level in _product_tree(n)[:-1]:
        parts = [parts[j + 1] * level[j] + parts[j] if j + 1 < len(parts) else parts[j]
                 for j in range(0, len(parts), 2)]
    return parts[0]


def unrank(index: int, n: int) -> Permutation:
    """The permutation at lexicographic position ``index`` in S_n.

    The index is split top-down along the product tree of the radix groups,
    one ``divmod`` by the low subtree's product per node, so each division
    halves its operand; small ints then split each group's value into its
    factoradic digits, and the symbols are popped from a sorted list (O(n^2)
    word moves, in C).  The quotient by the root, n!, is 0 exactly when the
    index is in range.

    >>> unrank(5, 3).values
    (3, 2, 1)
    """
    index, n = exact_int(index), at_least(n, 1, "length")
    tree = _product_tree(n)
    q, x = divmod(index, tree[-1][0])
    if q:
        raise IndexOutOfRange(f"rank {int_text(index)} outside [0, {n}!)")
    parts = [x]  # the values of one tree level's nodes, least significant first
    for level in reversed(tree[:-1]):
        split = []
        for j, x in enumerate(parts):
            if 2 * j + 1 < len(level):
                x, low = divmod(x, level[2 * j])
                split.append(low)
            split.append(x)
        parts = split
    digits = []  # digits[k] has radix k + 1
    for low, (_, radices) in zip(parts, _radix_groups(n)):
        for radix in radices:
            low, d = divmod(low, radix)
            digits.append(d)
    remaining = list(range(1, n + 1))
    return Permutation(tuple([remaining.pop(d) for d in reversed(digits)]))
