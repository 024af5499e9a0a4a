"""Balanced permutation codes for rank modulation.

Encoders and decoders for three constructions (two-source interleaving,
blockwise cell schedule, and a two-neighbor-constrained variant), exact
verifiers for the balancing and neighbor constraints, and exhaustive
analysis oracles (censuses, minimum discrepancy, rate reports).
"""

from .analysis import (
    BoundResult,
    CensusResult,
    ClaimReport,
    CounterExample,
    RateReport,
    census,
    claim_suite,
    d1_claim_suite,
    d2_claim_suite,
    min_disc,
    rate_report,
    rate_report_d1,
    rate_report_d2,
    rate_report_tn,
    tn_claim_suite,
    tn_code_size,
)
from .d1_codec import (
    D1Input,
    TranspositionStep,
    d1_message_decode,
    d1_message_encode,
    d1_message_input,
    decode_d1,
    encode_d1,
    encode_d1_streaming,
    interleave,
)
from .d2_codec import (
    D2Input,
    D2Params,
    cell_schedule,
    d2_input_from_json_dict,
    d2_input_to_json_dict,
    d2_preset,
    decode_d2,
    encode_d2,
)
from .errors import (
    BpcError,
    IndexOutOfRange,
    LimitExceeded,
    NotCodeword,
    NotPermutation,
    OddLength,
    ParamInvalid,
    SelectorViolation,
    SourceExhausted,
    SpecMismatch,
)
from .perm_core import (
    BalanceSpec,
    BalanceViolation,
    NeighborSpec,
    NeighborViolation,
    Permutation,
    ViolationReport,
    check_two_neighbor,
    d1_preset,
    disc,
    format_permutation,
    identity,
    make_permutation,
    parse_permutation,
    prefix_deviation,
    prefix_deviations_doubled,
    rank,
    unrank,
    verify_balance,
    window_sum,
)
from .tn_codec import (
    Half,
    TnInput,
    TnParams,
    decode_tn,
    encode_tn,
    mandated_half,
    random_valid_input,
    tn_input_from_json_dict,
    tn_input_to_json_dict,
)

__version__ = "0.1.0"
