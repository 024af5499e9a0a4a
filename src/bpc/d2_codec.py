"""Balanced codec over N equal blocks with a fixed cell schedule.

{1, ..., n} is split into N consecutive blocks of size n/N, each ordered by
an input permutation.  Encoding walks a schedule of N/4 cells; each cell owns
four block orderings, paired so that one pair's combined block midpoint sits
below n+1 and the other's above.  Every visit appends one pair, chosen by the
sign of the running deviation, so even-length prefixes stay tightly balanced.
The decoder projects the codeword back onto the blocks.
"""

from __future__ import annotations

from . import _EXPORTS
from ._util import Record, exact_int
from .errors import ParamInvalid
from .perm_core import Permutation, _exhausted, _layout, _project

__all__ = _EXPORTS["d2_codec"]


class D2Params(Record):
    """Block split of {1, ..., n} into N equal parts.

    Both are exact ints; N must divide n and be a positive multiple of 4.
    """

    __slots__ = ("n", "N")

    def __init__(self, n: int, N: int):
        n, N = exact_int(n), exact_int(N)
        if N < 4 or N % 4 != 0:
            raise ParamInvalid(f"block count {N} must be a multiple of 4")
        if n < 1 or n % N != 0:
            raise ParamInvalid(f"block count {N} must divide n={n}")
        self._init(n, N)

    @property
    def block_size(self) -> int:
        return self.n // self.N

    @property
    def window_lengths(self) -> tuple[int, ...]:
        """The even window lengths 2, 4, ..., 2*(n/N - 1)."""
        return tuple(range(2, 2 * self.block_size - 1, 2))


def d2_preset(n: int, num_blocks: int) -> BalanceSpec:
    """Even window lengths 2..2*(n/N - 1), allowed deviation 8*(n+1)/N.

    ``num_blocks`` (N) must divide ``n`` and be a positive multiple of 4.
    """
    from fractions import Fraction  # here, so that encoding and decoding load no verifier

    from .balance import BalanceSpec

    blocks = D2Params(n, num_blocks).window_lengths
    return BalanceSpec(n, blocks, dict.fromkeys(blocks, Fraction(8 * (n + 1), num_blocks)))


class D2Input(Record):
    """Per-block orderings sigma_1..sigma_N (a tuple), each a permutation of [n/N]."""

    __slots__ = ("params", "sigmas")

    def __init__(self, params: D2Params, sigmas: tuple[Permutation, ...]):
        sigmas = tuple(sigmas)
        if len(sigmas) != params.N:
            raise ParamInvalid(f"expected {params.N} orderings, got {len(sigmas)}")
        size = params.block_size
        if any(s.n != size for s in sigmas):
            raise ParamInvalid(f"every ordering must have length {size}")
        self._init(params, sigmas)


def encode_d2(inp: D2Input, *, tie_to_upper: bool = False) -> Permutation:
    """Append pairs cell by cell, steering by the running deviation.

    A non-negative deviation mandates the cell's lower pair, a negative one
    the upper pair (``tie_to_upper`` flips only the zero case); within a
    pair the smaller source index is emitted first.  The first visit of
    cell 1 is the lower pair by construction.  A cell is left only once all
    four of its sources are empty.

    The mandated pair is never empty, and the doubled prefix deviation D
    (2*sum - j*(n+1) after j symbols) is 0 at every cell boundary.  With
    s = n/N, block j holds (j-1)s+1..js and its mirror is block N+1-j, so
    a block and its mirror hold s pairs of symbols summing to n+1.  A
    cell's four blocks 2c-1, 2c, N-2c+1 and N-2c+2 are two mirror pairs,
    so emptying the cell adds 0 to D, and D = 0 when each cell starts.  A
    lower-pair visit takes one symbol of block 2c-1 and one of N-2c+1,
    which sum to at most (2c-1)s + (N-2c+1)s = n: it adds <= -2 to D.  An
    upper-pair visit sums to at least (2c-1)s+1 + (N-2c+1)s+1 = n+2 and
    adds >= +2.  The two blocks of a pair empty together, each after s
    visits.  So once the lower pair is empty while the cell is not, every
    visit left is upper, each adds >= 2 and the cell ends at D = 0: D < 0
    now, which mandates the upper pair under either tie rule (cell 1's
    first visit is at an empty output, whose lower pair is full).
    Mirrored, an empty upper pair leaves D > 0, which mandates the lower
    pair.  ``SourceExhausted`` stays the guard.

    Each cell c = 1..N/4 is 2s visits to its lower pair (a, b) =
    (2c-1, N-2c+1) and upper pair (a+1, b+1).  Each pair of blocks is read
    as one iterator of symbol pairs, so a visit is one ``next``: the lower
    pair is mandated when D >= ``tie`` (0, or 1 under ``tie_to_upper``).
    """
    params = inp.params
    N, visits = params.N, 2 * params.block_size
    blocks = _layout(params.block_size, (s.values for s in inp.sigmas))
    tie, step2 = int(tie_to_upper), 2 * (params.n + 1)
    out, dev2 = [], 0
    try:
        for c in range(1, N // 4 + 1):
            a, b = 2 * c - 1, N - 2 * c + 1
            lower, upper = zip(blocks[a - 1], blocks[b - 1]), zip(blocks[a], blocks[b])
            for _ in range(visits):
                x, y = pair = next(lower if dev2 >= tie or not out else upper)
                out += pair
                dev2 += 2 * (x + y) - step2
    except StopIteration:
        raise _exhausted(blocks, out, dev2, (a, b) if dev2 >= tie or not out
                         else (a + 1, b + 1)) from None
    return Permutation._trusted(tuple(out))


def decode_d2(pi: Permutation, params: D2Params) -> D2Input:
    """Project onto the blocks and strip each block's offset.

    Total on all of S_n for valid params; inverts ``encode_d2`` on its image.
    """
    if params.n != pi.n:
        raise ParamInvalid(f"params are for n={params.n}, permutation has n={pi.n}")
    return D2Input._trusted(params, _project(pi, params.block_size))


def d2_input_to_json_dict(inp: D2Input) -> dict:
    return {
        "n": inp.params.n,
        "N": inp.params.N,
        "sigmas": [list(s.values) for s in inp.sigmas],
    }


def d2_input_from_json_dict(obj: dict) -> D2Input:
    try:
        params = D2Params(obj["n"], obj["N"])
        sigmas = tuple(Permutation(tuple(s)) for s in obj["sigmas"])
    except (KeyError, TypeError) as exc:
        raise ParamInvalid(f"malformed block-codec input: {exc!r}") from exc
    return D2Input(params, sigmas)
