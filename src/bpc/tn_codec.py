"""Balanced codec whose codewords also satisfy the two-neighbor k-constraint.

{1, ..., n} is split into m = n/k sets of k consecutive integers, each
ordered by an input permutation.  Symbols are emitted two at a time from a
single set, so adjacent pairs differ by at most k-1; which set supplies a
pair is chosen by a caller-supplied selector stream, validated against the
half (low sets or high sets) mandated by the running deviation.  The
selector carries information: it is part of the input, not a derived value.
"""

from __future__ import annotations

import enum
import random
from fractions import Fraction
from math import factorial

from . import _EXPORTS
from ._util import Record, exact_int, exact_ints
from .errors import NotCodeword, ParamInvalid, SelectorViolation
from .perm_core import Permutation, _Emitter, _project

__all__ = _EXPORTS["tn_codec"]


class Half(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


def mandated_half(dev: Fraction | int) -> Half:
    """Low sets when the running deviation is >= 0, high sets otherwise."""
    return Half.LOWER if dev >= 0 else Half.UPPER


class TnParams(Record):
    """Set split for the neighbor-constrained codec.

    ``n`` and ``k`` are exact ints.  ``k`` is both the set size and the
    neighbor distance bound; it must be even and divide ``n``, and the number
    of sets m = n/k must be even so the sets split into a low and a high half.
    """

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        n, k = exact_int(n), exact_int(k)
        if k < 2 or k % 2 != 0:
            raise ParamInvalid(f"set size {k} must be a positive even integer")
        if n < 1 or n % k != 0:
            raise ParamInvalid(f"set size {k} must divide n={n}")
        if (n // k) % 2 != 0:
            raise ParamInvalid(f"number of sets {n // k} must be even")
        self._init(n, k)

    @property
    def m(self) -> int:
        return self.n // self.k

    @property
    def code_size(self) -> int:
        """Exact size of the code, ((n/4)! * (k!/(k/2)!)**(n/2k))**2.

        Distinct inputs give distinct codewords (decoding is a projection),
        so the count is that of the encoder's runs.  A run is fixed by two
        sequences: the pairs drawn from the low sets, in order, and the pairs
        drawn from the high sets, in order; the sign of the running
        deviation D forces how the two merge.  Either sequence is any
        interleaving of the m/2 sets' ordered pairs: (n/4)! / ((k/2)!)**(m/2)
        interleavings times k!**(m/2) orderings.  Every pair of sequences is
        a run, because a half never runs dry while it is mandated: once the
        low half is exhausted, every symbol left is high and adds 2v-n-1 > 0,
        and the final D is 0, so D < 0 now and the high half is mandated;
        mirrored, an exhausted high half leaves D > 0, which mandates the low
        half.
        """
        n, k = self.n, self.k
        return (factorial(n // 4) * (factorial(k) // factorial(k // 2)) ** (n // (2 * k))) ** 2

    def set_of(self, symbol: int) -> int:
        """1-based index of the set containing ``symbol``."""
        return (symbol - 1) // self.k + 1


class TnInput(Record):
    """Orderings of the m sets plus the selector stream (one set per pair).

    Both are stored as tuples.  Construction checks shapes, and that the
    selector's entries are exact ints in [1, m]; whether the selector respects
    the mandated halves (and never over-draws a set) is discovered during
    encoding, where a violation carries full diagnostic state.
    """

    __slots__ = ("params", "sigmas", "selector")

    def __init__(self, params: TnParams, sigmas: tuple[Permutation, ...],
                 selector: tuple[int, ...]):
        p, sigmas, selector = params, tuple(sigmas), exact_ints(selector)
        if len(sigmas) != p.m:
            raise ParamInvalid(f"expected {p.m} orderings, got {len(sigmas)}")
        if any(s.n != p.k for s in sigmas):
            raise ParamInvalid(f"every ordering must have length {p.k}")
        if len(selector) != p.n // 2:
            raise ParamInvalid(
                f"selector must have {p.n // 2} entries, got {len(selector)}")
        if min(selector) < 1 or max(selector) > p.m:
            raise ParamInvalid(f"selector entries must lie in [1, {p.m}]")
        self._init(params, sigmas, selector)


def _encode_pairs(params: TnParams, sigmas, pick) -> tuple[int, ...]:
    """The encoder run shared by ``encode_tn`` and ``random_valid_input``.

    Step t emits two symbols from the set ``pick(t, sets, em)`` names, where
    ``sets`` is the range of the half mandated by the deviation after 2(t-1)
    symbols (ties go low) and ``em`` is the run's emitter.  ``pick`` returns
    None only when every set of that half is empty, a ``SourceExhausted``
    defect.
    """
    half = params.m // 2
    em = _Emitter(params.k, (s.values for s in sigmas))
    lower, upper = range(1, half + 1), range(half + 1, params.m + 1)
    take = em.take
    for t in range(1, params.n // 2 + 1):
        sets = lower if em.dev2 >= 0 else upper
        sel = pick(t, sets, em)
        if sel is None:
            raise em.exhausted(tuple(sets))
        take(sel)
        take(sel)
    return tuple(em.out)


def encode_tn(inp: TnInput) -> Permutation:
    """Emit two symbols per step from the selector's set.

    At step t the mandated half comes from the deviation after 2(t-1)
    symbols (ties go low, so step 1 is always a low set).  A selector entry
    in the wrong half or naming an empty set raises ``SelectorViolation``;
    an entirely empty mandated half cannot happen and is raised as a
    ``SourceExhausted`` defect if it ever does.
    """
    selector = inp.selector

    def check(t, sets, em):
        sel = selector[t - 1]
        if sel in sets and em.queues[sel]:
            return sel
        if not any(em.queues[i] for i in sets):
            return None
        half = mandated_half(em.dev2).value
        reason = ("is already exhausted" if sel in sets
                  else f"is not in the mandated {half} half")
        raise SelectorViolation(f"step {t}: set {sel} {reason}", step=t, selected=sel,
                                mandated=half, remaining=em.remaining())

    return Permutation(_encode_pairs(inp.params, inp.sigmas, check))


def decode_tn(pi: Permutation, params: TnParams) -> TnInput:
    """Recover orderings and selector from a codeword.

    Raises ``NotCodeword`` when any emitted pair straddles two sets; does
    not re-check the balance mandates (selector recovery is pure projection).
    """
    if params.n != pi.n:
        raise ParamInvalid(f"params are for n={params.n}, permutation has n={pi.n}")
    k, v = params.k, pi.values
    sets = [(s - 1) // k + 1 for s in v]
    selector, seconds = sets[0::2], sets[1::2]
    if selector != seconds:
        t, a, b = next((t, a, b) for t, (a, b) in enumerate(zip(selector, seconds)) if a != b)
        raise NotCodeword(
            f"pair ({v[2 * t]}, {v[2 * t + 1]}) at positions {2 * t + 1},{2 * t + 2} "
            f"straddles sets {a} and {b}")
    return TnInput(params, _project(pi, k), tuple(selector))


def random_valid_input(params: TnParams, rng: random.Random) -> TnInput:
    """Sample orderings uniformly and a selector consistent with the mandates.

    The selector is built by running the encoder and picking uniformly
    among the non-empty sets of each step's mandated half, so the result
    always encodes without violations.
    """
    sigmas = []
    for _ in range(params.m):
        vals = list(range(1, params.k + 1))
        rng.shuffle(vals)
        sigmas.append(Permutation(tuple(vals)))
    selector = []

    def choose(t, sets, em):
        options = [i for i in sets if em.queues[i]]
        if not options:
            return None
        sel = rng.choice(options)
        selector.append(sel)
        return sel

    _encode_pairs(params, sigmas, choose)
    return TnInput(params, tuple(sigmas), tuple(selector))


def tn_input_to_json_dict(inp: TnInput) -> dict:
    return {
        "n": inp.params.n,
        "k": inp.params.k,
        "sigmas": [list(s.values) for s in inp.sigmas],
        "selector": list(inp.selector),
    }


def tn_input_from_json_dict(obj: dict) -> TnInput:
    try:
        params = TnParams(obj["n"], obj["k"])
        sigmas = tuple(Permutation(tuple(s)) for s in obj["sigmas"])
        selector = tuple(obj["selector"])
    except (KeyError, TypeError) as exc:
        raise ParamInvalid(f"malformed neighbor-codec input: {exc!r}") from exc
    return TnInput(params, sigmas, selector)
