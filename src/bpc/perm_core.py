"""Permutation values, their text format, lexicographic rank/unrank, and the
block layout that the three codecs share.  The balance verifiers and
discrepancy live in ``balance``, which only the commands that check a
permutation import.

The layout is stated once in each direction: ``_layout`` builds the blocks
an encoder walks (block i is its ordering of [1, size] shifted by
(i-1)*size), and ``_block_table`` maps each symbol back to its block and its
value within it, for ``_project`` and the tn pair check.  A table costs
0.07-0.12 MB at n = 4096, at most about 32n bytes; three are cached, and
four ``_factoradic`` tables for ``rank``/``unrank`` (0.23 MB at n = 4096).

Symbols are 1-based throughout: a permutation of length ``n`` holds each of
``{1, ..., n}`` exactly once.  Values are checked once, by the public
constructors; what the library assembles skips them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import count
from math import prod

from . import _EXPORTS
from ._util import Record, at_least, check_factorial, decimal_int, exact_int, int_text, token_text
from .errors import IndexOutOfRange, NotPermutation, SourceExhausted

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
    a claim suite first reads the doubled prefix deviations
    (``balance._devs2_of``),
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
    check_factorial(n)
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
