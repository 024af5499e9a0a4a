"""Permutation values, windowed-sum balance verifiers, discrepancy,
lexicographic rank/unrank, and the block layout that the three codecs share.

The layout is stated once in each direction: ``_layout`` builds the blocks
an encoder walks (block i is its ordering of [1, size] shifted by
(i-1)*size), and ``_block_table`` maps each symbol back to its block and its
value within it, for ``_project`` and the tn pair check.  A table costs
0.07-0.12 MB at n = 4096, at most about 32n bytes; three are cached, and
four ``_factoradic`` tables for ``rank``/``unrank`` (0.23 MB at n = 4096).

Symbols are 1-based throughout: a permutation of length ``n`` holds each of
``{1, ..., n}`` exactly once, and window/position arguments follow the same
convention.  All deviation arithmetic is exact (`fractions.Fraction` with
denominator at most 2); the verifiers never touch floating point, so their
verdicts are bit-identical across platforms.  Values are checked once, by
the public constructors; what the library assembles skips them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, groupby
from math import gcd, prod
from operator import sub
from typing import Iterable, Iterator, Mapping

from . import _EXPORTS
from ._util import (
    Record,
    at_least,
    check_int_bits,
    decimal_int,
    exact_int,
    exact_ints,
    factorial_bits,
    int_text,
    token_text,
)
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
    first bad symbol.  What the library builds from valid parts skips it
    (``Record._trusted``, or ``_trusted_rows`` for ``_project`` and census).

    ``_devs2`` is a memo, not a field: ``None`` until a verifier, ``disc`` or
    a claim suite first reads the doubled prefix deviations (``_devs2_of``),
    then that tuple, shared by every later reader.  It costs n+1 pointers
    plus the ints outside -5..256, at most 36(n+1) + 40 bytes on 64-bit
    CPython: 29-36 KiB at n = 1024 and 115-144 KiB at n = 4096 (codewords
    nearer the low end, by ``sys.getsizeof``).  It is freed with the
    permutation.

    >>> Permutation((2, 1, 3)).n
    3
    """

    __slots__ = ("values", "_devs2")

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
        object.__setattr__(self, "_devs2", None)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return format_permutation(self)


# public construction only; about 64 bytes per symbol: 65.5 MB at n = 10**6, 262 MB for four
@lru_cache(maxsize=4)
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
            raise NotPermutation(f"bad symbol {token_text(t, pos)}") from exc
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
    The list is a fresh copy of ``pi``'s memo, so mutating it changes no
    later verdict.
    """
    return list(_devs2_of(pi))


def _devs2_of(pi: Permutation) -> tuple[int, ...]:
    """D of ``pi``, derived on the first read and kept in its ``_devs2`` memo:
    ``verify_balance``, ``disc`` and the claim suites all read this one tuple
    (threads that race to fill it store equal tuples)."""
    devs2 = pi._devs2
    if devs2 is None:
        step = pi.n + 1
        devs2 = tuple(accumulate([2 * v - step for v in pi.values], initial=0))
        object.__setattr__(pi, "_devs2", devs2)
    return devs2


def _layout(size: int, orderings: Iterable[Iterable[int]]) -> list[list[int]]:
    """The block layout every codec emits from: block i (1-based, in the
    order given) is its ordering of [1, size] shifted by (i-1)*size, and n is
    size times the number of blocks.  Each encoder walks these lists with its
    own mandate rule; ``_block_table`` states the layout the other way round,
    for ``_project`` and the tn pair check."""
    return [[v + offset for v in o] if offset else list(o)
            for offset, o in zip(count(0, size), orderings)]


def _remaining(blocks: list[list[int]], out: list[int]) -> dict[int, int]:
    """How many symbols of each block of ``blocks`` (a layout) ``out`` has not
    emitted: the state an encoder error reports, rebuilt from its output."""
    emitted = set(out)
    return {i: sum(v not in emitted for v in block) for i, block in enumerate(blocks, 1)}


def _exhausted(blocks: list[list[int]], out: list[int], dev2: int,
               mandated: tuple[int, ...]) -> SourceExhausted:
    """The defect witness of an encoder run over the layout ``blocks`` that
    found a block of ``mandated`` empty after emitting ``out``, at doubled
    prefix deviation ``dev2``."""
    remaining = _remaining(blocks, out)
    empty = tuple(i for i in mandated if not remaining[i])
    return SourceExhausted(
        f"mandated block(s) {', '.join(map(str, empty))} empty after {len(out)} symbols "
        "(encoder invariant broken)", emitted=len(out), dev_twice=dev2, mandated=empty,
        remaining=remaining)


@lru_cache(maxsize=3)  # one shape per codec: 0.25 MB at n = 4096, at most 96 MB at n = 10**6
def _block_table(n: int, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_layout`` read backwards: for each symbol v of [1, n], at index v, its
    1-based block and its value in [1, size] within that block (index 0 is
    unused).  Two tuples of n+1 pointers plus a 32-byte int per block number
    and in-block value above 256, at most about 32n bytes (by tracemalloc):
    0.066 MB for d2 and tn and 0.123 MB for d1 at n = 4096, 18.0 MB at size
    16 and 32.0 MB for d1 at n = 10**6, where the three kept pin up to 96 MB.
    Three shapes are kept, one per codec; two would be rebuilt on every call
    of a round over the three codecs."""
    blocks = [0]
    for b in range(1, n // size + 1):
        blocks += [b] * size
    return tuple(blocks), (0,) + tuple(range(1, size + 1)) * (n // size)


def _project(pi: Permutation, size: int) -> tuple[Permutation, ...]:
    """Invert ``_layout``: the orderings of [1, size] that the n/size blocks
    of ``pi`` hold, each block's symbols in order of appearance.  One lookup
    pair in ``_block_table`` and one ``list.append`` per symbol."""
    block_of, value_in = _block_table(pi.n, size)
    blocks: list[list[int]] = [[] for _ in range(pi.n // size + 1)]  # blocks[0] unused
    for v in pi.values:
        blocks[block_of[v]].append(value_in[v])
    return Permutation._trusted_rows(list(map(tuple, blocks[1:])))


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
    ``max``/``min`` mapped over the chunks, each sliced once) no further than
    the least limit, no start in the chunk can fail.  Over each run of
    failing chunks, plus one chunk of lookahead, sliding extremes pick the
    starts that can fail; only those are enumerated.  The sieve is
    O(len(xs)) even when every chunk fails."""
    if not steps:
        return
    floor = min(map(limits.__getitem__, steps))
    g = gcd(*steps)
    ahead, width = steps[0] // g, (steps[-1] - steps[0]) // g + 1
    q = max(ahead + width, 64)
    starts = []
    for r in range(g):
        ys = xs[r::g] if g > 1 else xs
        chunks = [ys[t:t + q] for t in range(0, len(ys), q)]
        tops, bottoms = list(map(max, chunks)), list(map(min, chunks))
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
    devs2 = _devs2_of(pi)
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
        self._init(b, j, window_sum, target, allowed_dev, actual_dev)

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
    D, step = _devs2_of(pi), n + 1
    found = list(_window_violations(D, spec.blocks, spec._limits))
    if not found:
        return ViolationReport(())
    lengths = [b for b, _ in found]
    devs = [D[s + b] - D[s] for b, s in found]  # doubled window deviations
    targets = {b: Fraction(b * step, 2) for b in set(lengths)}  # one per failing length
    return ViolationReport(BalanceViolation._trusted_rows(
        lengths, [s + 1 for _, s in found],
        [(d + b * step) // 2 for b, d in zip(lengths, devs)],
        list(map(targets.__getitem__, lengths)), list(map(spec.dev_max.__getitem__, lengths)),
        [Fraction(abs(d), 2) for d in devs]))


def _check_neighbor_range(n: int, k: int) -> None:
    if n < 3:
        raise SpecMismatch("two-neighbor check needs n >= 3")
    if not 1 <= k <= n - 1:
        raise SpecMismatch(f"neighbor bound {k} outside [1, {n - 1}]")


# unsigned array typecodes by size in bytes, as this platform builds them
_LANE_CODES = {array(code).itemsize: code for code in "QLI"}
_BIG_ENDIAN = array("H", [1]).tobytes() == b"\0\1"


@lru_cache(maxsize=4)  # about 12(n-1) bytes per shape below n = 2**29: 48 KiB at n = 4096
def _lane_constants(count: int, size: int, k: int) -> tuple[int, int, int]:
    """For ``count`` lanes of ``size`` bytes: the mask of all their bits, the
    offset 2**(w-1) - k - 1 in every lane, and the top bit of every lane."""
    width = 8 * size
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
    return (1 << width * count) - 1, ((1 << width - 1) - k - 1) * ones, ones << width - 1


def _far_neighbors(values, n: int, k: int) -> Iterator[int]:
    """Yield, ascending, each t with |v[t+1] - v[t]| > k and
    |v[t+2] - v[t+1]| > k, so that 1-based position t + 2 has no neighbor
    within k, for ``values`` v in [0, n] and k in [0, n], n < 2**61.

    All len(v) - 1 adjacent gaps are tested at once, in the lanes of one big
    int (broadword comparison: Lamport, CACM 18(8), 1975; Knuth, TAOCP 4A,
    7.1.3).  Lanes are w = 32 bits wide while n < 2**29, else 64, so that
    every gap d = v[t+1] - v[t] has |d| <= n < 2**(w-3).  Lane t of
    ``packed`` holds v[t], written by an ``array`` whose typecode is chosen
    by its itemsize; shifted by w, lane t + 1 lines up with lane t, and lane
    t of x is d.  With c = 2**(w-1) - k - 1 in every lane, lane t of x + c
    is 2**(w-1) + d - k - 1, whose top bit is set exactly when d > k, and
    lane t of c - x is 2**(w-1) - d - k - 1, whose top bit is set exactly
    when -d > k.  Both lie within (0, 2**w), so no lane borrows from its
    neighbor: the bias 2**(w-1) repays the borrow of a negative d in x.
    ``far`` flags the gaps above k, and ``far & (far >> w)`` the positions
    whose two gaps both are.  A word with no such position costs ten
    big-int passes over (n-1)*w bits (the constants are cached per shape)
    and no Python step or C call per symbol; otherwise the top byte of each
    lane is read back as one flag per gap, and ``bytes.find`` visits only
    the flagged t.
    """
    size = 4 if n < 1 << 29 else 8  # bytes per lane
    width, count = 8 * size, len(values) - 1  # bits per lane, gap lanes
    lanes = array(_LANE_CODES[size], values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    packed = int.from_bytes(lanes.tobytes(), "little")
    mask, c, top = _lane_constants(count, size, k)
    x = (packed >> width) - (packed & mask)  # the mask keeps x + c and c - x non-negative
    far = (x + c | c - x) & top
    both = far & (far >> width)
    if both:
        flags = both.to_bytes(size * count, "little")[size - 1::size]
        t = flags.find(0x80)
        while t >= 0:
            yield t
            t = flags.find(0x80, t + 1)


def check_two_neighbor(pi: Permutation, spec: NeighborSpec) -> ViolationReport:
    """Check that each interior position has a neighbor within distance k.

    ``_far_neighbors`` tests every adjacent gap at once in packed lanes, so
    only the violating positions are visited, and their two gaps recomputed."""
    n, k = pi.n, spec.k
    _check_neighbor_range(n, k)
    v = pi.values
    at = list(_far_neighbors(v, n, k))
    if not at:
        return ViolationReport(())
    return ViolationReport(NeighborViolation._trusted_rows(
        [t + 2 for t in at], [abs(v[t + 1] - v[t]) for t in at],
        [abs(v[t + 2] - v[t + 1]) for t in at], [k] * len(at)))


@lru_cache(maxsize=4)
def _factoradic(n: int) -> tuple[tuple[int, ...], tuple[range, ...], tuple[tuple[int, ...], ...]]:
    """``(symbols, runs, tree)`` for ``rank`` and ``unrank`` at length n:
    (1, ..., n), copied into each call's sorted working list (``range``
    would build every int above 256 anew); the radices 1..n in ranges of 32,
    least significant first (64 leaves at n = 2048; one-digit runs made 833,
    runs of 16 to 64 timed alike, 128 slower); and the balanced product tree
    over the runs' products, leaves first, each level pairing the one below
    (an odd last node carried up), up to ``(n!,)``.  n! must pass the size
    limit, checked before anything is built.  One length costs 0.10 MB at
    n = 2048 and 17.8 MB at n = 233,016, the largest n allowed (by
    ``tracemalloc``), so the four kept pin at most about 71 MB."""
    check_int_bits(factorial_bits(n), f"{int_text(n)}!")
    runs = tuple(range(start, min(start + 32, n + 1)) for start in range(1, n + 1, 32))
    level = tuple(map(prod, runs))
    levels = [level]
    while len(level) > 1:
        level = tuple(prod(level[i:i + 2]) for i in range(0, len(level), 2))
        levels.append(level)
    return tuple(range(1, n + 1)), runs, tuple(levels)


def rank(pi: Permutation) -> int:
    """Lexicographic index of ``pi`` among all permutations of its length.

    The identity has rank 0; results are exact for any ``n``.  The Lehmer
    digits come from ``bisect``/``del`` (O(n^2) word moves, in C); one
    multiply-add per radix folds them into one value per radix group, and
    the groups are folded up the product tree as ``high * P_low + low``, so
    the big-int multiplies pair operands of equal size.

    >>> rank(Permutation((3, 2, 1)))
    5
    """
    n = pi.n
    symbols, runs, tree = _factoradic(n)
    remaining = list(symbols)
    digits = []  # digits[i] has radix n - i
    for v in pi.values:
        digits.append(d := bisect_left(remaining, v))
        del remaining[d]
    parts = []  # one value per radix group, least significant first
    for radices in runs:
        low = 0
        for radix in reversed(radices):
            low = low * radix + digits[n - radix]
        parts.append(low)
    for level in tree[:-1]:
        parts = [parts[j + 1] * level[j] + parts[j] if j + 1 < len(parts) else parts[j]
                 for j in range(0, len(parts), 2)]
    return parts[0]


def unrank(index: int, n: int) -> Permutation:
    """The permutation at lexicographic position ``index`` in S_n.

    The index is split top-down along the product tree of the radix groups,
    one ``divmod`` by the low subtree's product per node, so each division
    halves its operand; one ``divmod`` per radix then splits each group's
    value into its factoradic digits, and the symbols are popped from a
    sorted list (O(n^2) word moves, in C).  The quotient by the root, n!, is
    0 exactly when the index is in range.

    >>> unrank(5, 3).values
    (3, 2, 1)
    """
    index, n = exact_int(index), at_least(n, 1, "length")
    symbols, runs, tree = _factoradic(n)
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
    for low, radices in zip(parts, runs):
        for radix in radices:
            low, d = divmod(low, radix)
            digits.append(d)
    remaining = list(symbols)
    return Permutation._trusted(tuple([remaining.pop(d) for d in reversed(digits)]))
