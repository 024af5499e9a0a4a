"""Windowed-sum balance verifiers and discrepancy: the specs a permutation
is checked against, ``verify_balance`` and ``check_two_neighbor`` with their
violation reports, and the prefix-deviation arithmetic they share.

Positions and window lengths are 1-based, as in ``perm_core``.  Every check
reads the doubled prefix deviations D of a permutation (``_devs2_of``, kept in
its ``_devs2`` memo), and all deviation arithmetic is exact (`fractions.Fraction`
with denominator at most 2); the verifiers never touch floating point, so
their verdicts are bit-identical across platforms.  No codec imports this
module to encode or decode (``d2_preset`` imports it when called), so the
CLI's codec commands never load it, nor ``fractions``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from math import gcd
from operator import sub

from . import _EXPORTS
from ._util import Record, at_least, exact_fraction, exact_int, exact_ints
from .errors import IndexOutOfRange, ParamInvalid, SpecMismatch
from .perm_core import Permutation

__all__ = _EXPORTS["balance"]


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
    window.  ``n`` and the lengths are exact ints; ``dev_max`` is a mapping
    whose values, non-negative, are read by ``exact_fraction``.  Construction
    derives, once, the limit per length that the verifiers and the census
    read, the largest doubled deviation allowed:
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
        if not isinstance(dev_max, Mapping):
            raise ParamInvalid(f"dev_max must be a mapping, got {type(dev_max).__name__}")
        if set(dev_max) != set(blocks):
            raise ParamInvalid("dev_max keys must match the block set")
        dev = {b: v if type(v := dev_max[b]) is Fraction else exact_fraction(v) for b in blocks}
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
