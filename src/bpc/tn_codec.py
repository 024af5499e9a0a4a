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
from dataclasses import dataclass
from fractions import Fraction

from ._util import json_int
from .errors import NotCodeword, ParamInvalid, SelectorViolation, SourceExhausted
from .perm_core import Permutation

__all__ = [
    "Half",
    "mandated_half",
    "TnParams",
    "TnInput",
    "encode_tn",
    "decode_tn",
    "random_valid_input",
    "tn_input_to_json_dict",
    "tn_input_from_json_dict",
]


class Half(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


def mandated_half(dev: Fraction | int) -> Half:
    """Low sets when the running deviation is >= 0, high sets otherwise."""
    return Half.LOWER if dev >= 0 else Half.UPPER


@dataclass(frozen=True)
class TnParams:
    """Set split for the neighbor-constrained codec.

    ``k`` is both the set size and the neighbor distance bound; it must be
    even and divide ``n``, and the number of sets m = n/k must be even so
    the sets split into a low and a high half.
    """

    n: int
    k: int
    epsilon_k: Fraction | None = None

    def __post_init__(self):
        if self.k < 2 or self.k % 2 != 0:
            raise ParamInvalid(f"set size {self.k} must be a positive even integer")
        if self.n < 1 or self.n % self.k != 0:
            raise ParamInvalid(f"set size {self.k} must divide n={self.n}")
        if (self.n // self.k) % 2 != 0:
            raise ParamInvalid(
                f"number of sets {self.n // self.k} must be even")

    @property
    def m(self) -> int:
        return self.n // self.k

    def set_of(self, symbol: int) -> int:
        """1-based index of the set containing ``symbol``."""
        return (symbol - 1) // self.k + 1


@dataclass(frozen=True)
class TnInput:
    """Orderings of the m sets plus the selector stream (one set per pair).

    Construction checks shapes only; whether the selector respects the
    mandated halves (and never over-draws a set) is discovered during
    encoding, where a violation carries full diagnostic state.
    """

    params: TnParams
    sigmas: tuple[Permutation, ...]
    selector: tuple[int, ...]

    def __post_init__(self):
        p = self.params
        if len(self.sigmas) != p.m:
            raise ParamInvalid(f"expected {p.m} orderings, got {len(self.sigmas)}")
        if any(s.n != p.k for s in self.sigmas):
            raise ParamInvalid(f"every ordering must have length {p.k}")
        if len(self.selector) != p.n // 2:
            raise ParamInvalid(
                f"selector must have {p.n // 2} entries, got {len(self.selector)}")
        if any(not 1 <= s <= p.m for s in self.selector):
            raise ParamInvalid(f"selector entries must lie in [1, {p.m}]")

    def ordering(self, i: int) -> list[int]:
        offset = (i - 1) * self.params.k
        return [v + offset for v in self.sigmas[i - 1].values]


def encode_tn(inp: TnInput) -> Permutation:
    """Emit two symbols per step from the selector's set.

    At step t the mandated half comes from the deviation after 2(t-1)
    symbols (ties go low, so step 1 is always a low set).  A selector entry
    in the wrong half or naming an empty set raises ``SelectorViolation``;
    an entirely empty mandated half cannot happen and is raised as a
    ``SourceExhausted`` defect if it ever does.
    """
    params = inp.params
    n, m = params.n, params.m
    sources = {i: inp.ordering(i) for i in range(1, m + 1)}
    heads = {i: 0 for i in sources}

    def remaining() -> dict[int, int]:
        return {i: len(sources[i]) - heads[i] for i in sources}

    out = []
    dev2 = 0  # doubled deviation: same sign as the exact value
    for t, sel in enumerate(inp.selector, 1):
        half = mandated_half(dev2)
        low = half is Half.LOWER
        half_sets = range(1, m // 2 + 1) if low else range(m // 2 + 1, m + 1)
        if all(heads[i] >= len(sources[i]) for i in half_sets):
            raise SourceExhausted(
                f"every {half.value} set empty at step {t}"
                " (encoder invariant broken)",
                step=t, mandated=half.value, remaining=remaining(), input=inp,
            )
        if (sel <= m // 2) != low:
            raise SelectorViolation(
                f"step {t}: set {sel} is not in the mandated {half.value} half",
                step=t, selected=sel, mandated=half.value, remaining=remaining(),
            )
        if heads[sel] >= len(sources[sel]):
            raise SelectorViolation(
                f"step {t}: set {sel} is already exhausted",
                step=t, selected=sel, mandated=half.value, remaining=remaining(),
            )
        for _ in range(2):
            v = sources[sel][heads[sel]]
            heads[sel] += 1
            out.append(v)
            dev2 += 2 * v - (n + 1)
    return Permutation(tuple(out))


def decode_tn(pi: Permutation, params: TnParams) -> TnInput:
    """Recover orderings and selector from a codeword.

    Raises ``NotCodeword`` when any emitted pair straddles two sets; does
    not re-check the balance mandates (selector recovery is pure projection).
    """
    if params.n != pi.n:
        raise ParamInvalid(f"params are for n={params.n}, permutation has n={pi.n}")
    v = pi.values
    selector = []
    for t in range(0, pi.n, 2):
        a, b = params.set_of(v[t]), params.set_of(v[t + 1])
        if a != b:
            raise NotCodeword(
                f"pair ({v[t]}, {v[t + 1]}) at positions {t + 1},{t + 2} "
                f"straddles sets {a} and {b}")
        selector.append(a)
    buckets: list[list[int]] = [[] for _ in range(params.m)]
    for val in v:
        block = (val - 1) // params.k
        buckets[block].append(val - block * params.k)
    sigmas = tuple(Permutation(tuple(b)) for b in buckets)
    return TnInput(params, sigmas, tuple(selector))


def random_valid_input(params: TnParams, rng: random.Random) -> TnInput:
    """Sample orderings uniformly and a selector consistent with the mandates.

    The selector is built by simulating the encoder and picking uniformly
    among the non-empty sets of each step's mandated half, so the result
    always encodes without violations.
    """
    k, m, n = params.k, params.m, params.n
    sigmas = []
    for _ in range(m):
        vals = list(range(1, k + 1))
        rng.shuffle(vals)
        sigmas.append(Permutation(tuple(vals)))
    orderings = {i: [v + (i - 1) * k for v in sigmas[i - 1].values]
                 for i in range(1, m + 1)}
    heads = {i: 0 for i in orderings}
    selector = []
    dev2 = 0
    for _ in range(n // 2):
        low = mandated_half(dev2) is Half.LOWER
        half_sets = range(1, m // 2 + 1) if low else range(m // 2 + 1, m + 1)
        options = [i for i in half_sets if heads[i] < k]
        sel = rng.choice(options)
        selector.append(sel)
        for _ in range(2):
            v = orderings[sel][heads[sel]]
            heads[sel] += 1
            dev2 += 2 * v - (n + 1)
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
        params = TnParams(json_int(obj["n"]), json_int(obj["k"]))
        sigmas = tuple(Permutation(tuple(map(json_int, s))) for s in obj["sigmas"])
        selector = tuple(map(json_int, obj["selector"]))
    except (KeyError, TypeError) as exc:
        raise ParamInvalid(f"malformed neighbor-codec input: {exc!r}") from exc
    return TnInput(params, sigmas, selector)
