"""Balanced permutation codes for rank modulation.

Encoders and decoders for three constructions (two-source interleaving,
blockwise cell schedule, and a two-neighbor-constrained variant), exact
verifiers for the balancing and neighbor constraints, and exhaustive
analysis oracles (censuses, minimum discrepancy, rate reports).

``import bpc`` loads none of the submodules: each public name below is
imported from its home module on first access (PEP 562), so a process pays
only for the parts it uses.  ``_EXPORTS`` is the one list of public names:
each home module's ``__all__`` is its entry.  ``DEFAULT_ENUM_LIMIT`` (home
``analysis``) is defined here, so reading it loads no oracle.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
DEFAULT_ENUM_LIMIT = 10  # the largest n an exhaustive oracle runs at unless told otherwise

_EXPORTS = {
    "analysis": (
        "BoundResult", "CensusResult", "ClaimReport", "CounterExample",
        "DEFAULT_ENUM_LIMIT", "RateReport", "census", "claim_suite", "d1_claim_suite",
        "d2_claim_suite", "min_disc", "rate_report", "rate_report_d1", "rate_report_d2",
        "rate_report_tn", "tn_claim_suite", "tn_code_size",
    ),
    "balance": (
        "BalanceSpec", "BalanceViolation", "NeighborSpec", "NeighborViolation",
        "ViolationReport", "check_two_neighbor", "d1_preset", "disc", "prefix_deviation",
        "prefix_deviations_doubled", "verify_balance", "window_sum",
    ),
    "d1_codec": (
        "D1Input", "TranspositionStep", "TranspositionTrace", "d1_message_decode",
        "d1_message_encode", "d1_message_input", "decode_d1", "encode_d1",
        "encode_d1_streaming", "interleave",
    ),
    "d2_codec": (
        "D2Input", "D2Params", "d2_input_from_json_dict", "d2_input_to_json_dict",
        "d2_preset", "decode_d2", "encode_d2",
    ),
    "errors": (
        "BpcError", "IndexOutOfRange", "LimitExceeded", "NotCodeword", "NotPermutation",
        "OddLength", "ParamInvalid", "SelectorViolation", "SourceExhausted", "SpecMismatch",
    ),
    "perm_core": (
        "Permutation", "format_permutation", "identity", "make_permutation",
        "parse_permutation", "rank", "unrank",
    ),
    "tn_codec": (
        "TnInput", "TnParams", "decode_tn", "encode_tn", "random_valid_input",
        "tn_input_from_json_dict", "tn_input_to_json_dict",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    """Import a public name (or a home module) on first access and keep it
    in the package namespace, so later lookups are plain attribute reads."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
