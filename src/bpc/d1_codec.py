"""Rate-1 balanced codec built from two half-range orderings.

The encoder splits {1, ..., n} into a low half and a high half, orders each
half by an input permutation, and emits whichever half pulls the running
average back toward (n+1)/2.  Its streaming twin describes the same codeword
as edits of the interleaving of the two orderings: two counters, of the low
and of the high symbols emitted so far, tell which half the symbol each slot
would hold comes from, and a reinsert is recorded wherever the codeword's
symbol comes from the other half, in O(n) overall.  The decoder is the
half-membership projection.
"""

from __future__ import annotations

from . import _EXPORTS
from ._util import Record, at_least, exact_int, int_text
from .errors import IndexOutOfRange, OddLength, ParamInvalid
from .perm_core import Permutation, _exhausted, _layout, _project, rank, unrank

__all__ = _EXPORTS["d1_codec"]


def _half(n: int) -> int:
    """n/2 for a codeword length ``n``: an exact int, even (else ``OddLength``) and >= 2."""
    if exact_int(n) % 2 != 0:
        raise OddLength(f"length {int_text(n)} is odd")
    return at_least(n, 2, "length") // 2


class D1Input(Record):
    """Two orderings of the half ranges; total codeword length is even."""

    __slots__ = ("gamma1", "gamma2")

    def __init__(self, gamma1: Permutation, gamma2: Permutation):
        if gamma1.n != gamma2.n:
            raise ParamInvalid("the two orderings must have equal length")
        self._init(gamma1, gamma2)

    @property
    def n(self) -> int:
        return 2 * self.gamma1.n


def encode_d1(inp: D1Input) -> Permutation:
    """Greedy encoder: one pass, deviation maintained incrementally.

    Block 1 is the low ordering and block 2 the high one.  The first symbol
    is unconditionally the head of the low ordering; every later step takes
    low when the deviation is positive, else high.

    Two facts about the doubled prefix deviation D (2*sum - j*(n+1) after j
    symbols; a low symbol v adds 2v-n-1 in [-(n-1), -1], a high one in
    [1, n-1]).  The mandated half is never empty: once the low half is
    exhausted, every symbol left is high and adds > 0, and the final D is 0,
    so D < 0 now and the high half is mandated; mirrored, an exhausted high
    half leaves D > 0, which mandates the low half.  And every D lies in
    [-(n-1), n-1]: the first step lands in [-(n-1), -1]; from 1 <= D <= n-1
    a low step lands in [D-(n-1), D-1], within [-(n-2), n-2]; from
    -(n-1) <= D <= 0 a high step lands in [D+1, D+n-1], within
    [-(n-2), n-1].  The bound is reached at every n (at n = 2, D_1 = -1).
    An empty mandated half would raise ``SourceExhausted``, the guard of that
    proof, with the run's state.
    """
    blocks = _layout(inp.gamma1.n, (inp.gamma1.values, inp.gamma2.values))
    low, high = map(iter, blocks)
    step, out, dev2 = inp.n + 1, [], 0
    append = out.append
    try:
        v = next(low)
        append(v)
        dev2 = 2 * v - step
        for _ in range(1, inp.n):
            v = next(low if dev2 > 0 else high)
            append(v)
            dev2 += 2 * v - step
    except StopIteration:
        raise _exhausted(blocks, out, dev2, (1 if dev2 > 0 or not out else 2,)) from None
    return Permutation._trusted(tuple(out))


class TranspositionStep(Record):
    """One reinsert performed by the streaming encoder.

    ``position`` is the 1-based slot the symbol was moved into; the move is
    realized by adjacent transpositions from the symbol's previous slot.
    """

    __slots__ = ("position", "moved_symbol")

    def __init__(self, position: int, moved_symbol: int):
        self._init(position, moved_symbol)


class TranspositionTrace(Record):
    """All reinserts of one streaming run, in emission order."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[TranspositionStep, ...] = ()):
        self._init(steps)


def interleave(inp: D1Input) -> Permutation:
    """The streaming encoder's start state: the two blocks of ``encode_d1``
    merged alternately."""
    low, high = _layout(inp.gamma1.n, (inp.gamma1.values, inp.gamma2.values))
    return Permutation._trusted(tuple([v for pair in zip(low, high) for v in pair]))


def encode_d1_streaming(inp: D1Input) -> tuple[Permutation, TranspositionTrace]:
    """The ``encode_d1`` codeword plus the reinserts that turn the
    interleaving into it, slot by slot, in O(n).

    Slots 1..j-1 hold the codeword's first symbols and the rest keep their
    interleaving order, so slot j holds the first unemitted symbol of the
    interleaving.  Both halves are emitted in order, so after ``lows`` low
    and ``highs`` high symbols that is the next low symbol (interleaving
    index 2*lows) exactly when lows <= highs, else the next high one (index
    2*highs + 1).  When the codeword's symbol v comes from the other half,
    v is reinserted at slot j (one trace entry), built without a Python call.
    v is a low symbol when v <= n/2.
    """
    pi = encode_d1(inp)
    half = inp.gamma1.n
    lows = highs = 0
    positions, moved = [], []
    for j, v in enumerate(pi.values, 1):
        low = v <= half
        if low != (lows <= highs):
            positions.append(j)
            moved.append(v)
        if low:
            lows += 1
        else:
            highs += 1
    return pi, TranspositionTrace(TranspositionStep._trusted_rows(positions, moved))


def decode_d1(pi: Permutation) -> D1Input:
    """Project a permutation of even length onto its two half orderings.

    Total on all even-length permutations, codeword or not; on codewords it
    inverts both encoders.
    """
    return D1Input._trusted(*_project(pi, _half(pi.n)))


def d1_message_input(i1: int, i2: int, n: int) -> D1Input:
    """The ordering pair whose codeword carries ranks (i1, i2), each below (n/2)!."""
    half = _half(n)
    gammas = []
    for name, i in (("i1", i1), ("i2", i2)):
        try:
            gammas.append(unrank(i, half))
        except IndexOutOfRange:
            raise IndexOutOfRange(f"{name}={int_text(i)} outside [0, {half}!)") from None
    return D1Input(*gammas)


def d1_message_encode(i1: int, i2: int, n: int) -> Permutation:
    """Encode a pair of lexicographic ranks, each below (n/2)!."""
    return encode_d1(d1_message_input(i1, i2, n))


def d1_message_decode(pi: Permutation) -> tuple[int, int]:
    """Recover the rank pair; exact inverse of ``d1_message_encode``."""
    inp = decode_d1(pi)
    return rank(inp.gamma1), rank(inp.gamma2)
