"""Exception types shared across the package."""

from __future__ import annotations

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class BpcError(Exception):
    """Base class for every error raised by this package."""


class NotPermutation(BpcError):
    """Input is not a bijection of {1, ..., n}."""


class IndexOutOfRange(BpcError):
    """Position, block length, or rank outside its legal range."""


class SpecMismatch(BpcError):
    """Verifier spec does not apply to the given permutation."""


class ParamInvalid(BpcError):
    """Codec or analysis parameters violate a shape or divisibility rule."""


class OddLength(ParamInvalid):
    """An odd length, which the two-source codec refuses; a ``ParamInvalid``."""


class LimitExceeded(BpcError):
    """Exhaustive enumeration requested above the configured limit."""


class NotCodeword(BpcError):
    """Permutation is not in the image of the codec being decoded."""


class SourceExhausted(BpcError):
    """A mandated symbol source was empty.

    This signals a broken encoder invariant, never a caller mistake: it is
    raised as a defect witness (the ``state`` payload records where the run
    stopped) and is deliberately never caught or patched inside the package.
    """

    def __init__(self, message: str, **state: object):
        super().__init__(message)
        self.state = state


class SelectorViolation(BpcError):
    """A selector entry named a set the balance rule does not allow.

    Carries the 1-based pair step, the offending set index, the mandated
    half, and a census of how many symbols remain in each set.
    """

    def __init__(self, message: str, *, step: int, selected: int,
                 mandated: str, remaining: dict[int, int]):
        super().__init__(message)
        self.step = step
        self.selected = selected
        self.mandated = mandated
        self.remaining = dict(remaining)
