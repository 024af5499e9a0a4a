"""Balanced codec over N equal blocks with a fixed cell schedule.

{1, ..., n} is split into N consecutive blocks of size n/N, each ordered by
an input permutation.  Encoding walks a schedule of N/4 cells; each cell owns
four block orderings, paired so that one pair's combined block midpoint sits
below n+1 and the other's above.  Every visit appends one pair, chosen by the
sign of the running deviation, so even-length prefixes stay tightly balanced.
The decoder projects the codeword back onto the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._util import ceil_rational_power, exact_int
from .errors import ParamInvalid
from .perm_core import BalanceSpec, Permutation, _Emitter, _project

__all__ = [
    "D2Params",
    "d2_preset",
    "D2Input",
    "Cell",
    "CellSchedule",
    "cell_schedule",
    "encode_d2",
    "decode_d2",
    "d2_input_to_json_dict",
    "d2_input_from_json_dict",
]


@dataclass(frozen=True)
class D2Params:
    """Block split of {1, ..., n} into N equal parts.

    N must divide n and be a positive multiple of 4.
    """

    n: int
    N: int

    def __post_init__(self):
        if self.N < 4 or self.N % 4 != 0:
            raise ParamInvalid(f"block count {self.N} must be a multiple of 4")
        if self.n < 1 or self.n % self.N != 0:
            raise ParamInvalid(f"block count {self.N} must divide n={self.n}")

    @classmethod
    def from_epsilon(cls, n: int, epsilon: Fraction) -> "D2Params":
        """Derive N = ceil(n**epsilon) exactly, then validate it unchanged."""
        return cls(n, ceil_rational_power(n, Fraction(epsilon)))

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


@dataclass(frozen=True)
class Cell:
    """One schedule stage: two source pairs feeding 2n/N paired appends.

    ``lower`` names the ordering indices whose block midpoints sum below
    n+1, ``upper`` the indices summing above.
    """

    index: int
    lower: tuple[int, int]
    upper: tuple[int, int]


@dataclass(frozen=True)
class CellSchedule:
    cells: tuple[Cell, ...]
    visits_per_cell: int


def cell_schedule(params: D2Params) -> CellSchedule:
    """The deterministic visiting order: cell c pairs sources
    (2c-1, N-2c+1) below the mean and (2c, N-2c+2) above it."""
    N = params.N
    cells = tuple(
        Cell(index=c, lower=(2 * c - 1, N - 2 * c + 1), upper=(2 * c, N - 2 * c + 2))
        for c in range(1, N // 4 + 1)
    )
    return CellSchedule(cells=cells, visits_per_cell=2 * params.block_size)


@dataclass(frozen=True)
class D2Input:
    """Per-block orderings sigma_1..sigma_N, each a permutation of [n/N]."""

    params: D2Params
    sigmas: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.sigmas) != self.params.N:
            raise ParamInvalid(
                f"expected {self.params.N} orderings, got {len(self.sigmas)}")
        size = self.params.block_size
        if any(s.n != size for s in self.sigmas):
            raise ParamInvalid(f"every ordering must have length {size}")

    def ordering(self, i: int) -> list[int]:
        """Block i's symbols in emission order (1-based block index)."""
        offset = (i - 1) * self.params.block_size
        return [v + offset for v in self.sigmas[i - 1].values]


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
    em = _Emitter(params.n, (inp.ordering(i) for i in range(1, params.N + 1)))
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
        params = D2Params(exact_int(obj["n"]), exact_int(obj["N"]))
        sigmas = tuple(Permutation(tuple(map(exact_int, s))) for s in obj["sigmas"])
    except (KeyError, TypeError) as exc:
        raise ParamInvalid(f"malformed block-codec input: {exc!r}") from exc
    return D2Input(params, sigmas)
