"""Balanced codec over N equal blocks with a fixed cell schedule.

{1, ..., n} is split into N consecutive blocks of size n/N, each ordered by
an input permutation.  Encoding walks a schedule of N/4 cells; each cell owns
four block orderings, paired so that one pair's combined block midpoint sits
below n+1 and the other's above.  Every visit appends one pair, chosen by the
sign of the running deviation, so even-length prefixes stay tightly balanced.
The decoder projects the codeword back onto the blocks.
"""

from __future__ import annotations

from fractions import Fraction

from . import _EXPORTS
from ._util import Record, exact_int, scale_parameter
from .errors import ParamInvalid
from .perm_core import BalanceSpec, Permutation, _Emitter, _project

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

    @classmethod
    def from_epsilon(cls, n: int, epsilon: Fraction) -> "D2Params":
        """Derive N = ceil(n**epsilon) exactly, then validate it unchanged."""
        return cls(n, scale_parameter("d2", n, None, epsilon))

    @property
    def block_size(self) -> int:
        return self.n // self.N

    @property
    def s(self) -> int:
        """Largest half window length constrained by this split."""
        return self.block_size - 1

    @property
    def window_lengths(self) -> tuple[int, ...]:
        """The even window lengths 2, 4, ..., 2*(n/N - 1)."""
        return tuple(range(2, 2 * self.s + 1, 2))


def d2_preset(n: int, num_blocks: int) -> BalanceSpec:
    """Even window lengths 2..2*(n/N - 1), allowed deviation 8*(n+1)/N.

    ``num_blocks`` (N) must divide ``n`` and be a positive multiple of 4.
    """
    blocks = D2Params(n, num_blocks).window_lengths
    return BalanceSpec(n, blocks, dict.fromkeys(blocks, Fraction(8 * (n + 1), num_blocks)))


class Cell(Record):
    """One schedule stage: two source pairs feeding 2n/N paired appends.

    ``lower`` names the ordering indices whose block midpoints sum below
    n+1, ``upper`` the indices summing above.
    """

    __slots__ = ("index", "lower", "upper")

    def __init__(self, index: int, lower: tuple[int, int], upper: tuple[int, int]):
        self._init(index, lower, upper)


class CellSchedule(Record):
    __slots__ = ("cells", "visits_per_cell")

    def __init__(self, cells: tuple[Cell, ...], visits_per_cell: int):
        self._init(cells, visits_per_cell)


def cell_schedule(params: D2Params) -> CellSchedule:
    """The deterministic visiting order: cell c pairs sources
    (2c-1, N-2c+1) below the mean and (2c, N-2c+2) above it."""
    N = params.N
    cells = tuple(
        Cell(index=c, lower=(2 * c - 1, N - 2 * c + 1), upper=(2 * c, N - 2 * c + 2))
        for c in range(1, N // 4 + 1)
    )
    return CellSchedule(cells=cells, visits_per_cell=2 * params.block_size)


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
    pair the smaller source index is emitted first.  Cell 1's first visit
    is the lower pair by construction.  A cell is left only once all four
    of its sources are empty; an empty source of the mandated pair raises
    ``SourceExhausted``.
    """
    params = inp.params
    schedule = cell_schedule(params)
    em = _Emitter(params.block_size, (s.values for s in inp.sigmas))
    take = em.take
    for cell in schedule.cells:
        for _ in range(schedule.visits_per_cell):
            lower = em.dev2 > 0 if tie_to_upper else em.dev2 >= 0
            a, b = cell.lower if lower or not em.out else cell.upper
            take(a)
            take(b)
    return Permutation(tuple(em.out))


def decode_d2(pi: Permutation, params: D2Params) -> D2Input:
    """Project onto the blocks and strip each block's offset.

    Total on all of S_n for valid params; inverts ``encode_d2`` on its image.
    """
    if params.n != pi.n:
        raise ParamInvalid(f"params are for n={params.n}, permutation has n={pi.n}")
    return D2Input(params, _project(pi, params.block_size))


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
