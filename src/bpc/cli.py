"""Command-line frontend for the balanced permutation codecs.

Exit codes: 0 success or valid; 1 constraint violation, selector violation,
or not-a-codeword; 2 usage/parameter error; 3 broken encoder invariant
(a reproducible defect witness is printed to stderr).  Diagnostics go to
stderr, payloads to stdout; JSON payloads have a fixed key order and end
with a newline.

Only the permutation core is imported with this module; each command
handler imports the codec, the verifiers (``balance``) or the analysis module
it runs, and the parser is given the options of that one command, so a
process loads and builds no more of the package than its command uses.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import DEFAULT_ENUM_LIMIT
from ._util import codec_parameters, decimal_int, exact_fraction, token_text
from .errors import (
    BpcError,
    NotCodeword,
    ParamInvalid,
    SelectorViolation,
    SourceExhausted,
)
from .perm_core import Permutation, format_permutation, parse_permutation

USAGE_ERROR = 2
VIOLATION = 1
DEFECT = 3


def _emit_json(obj) -> None:
    import json
    sys.stdout.write(json.dumps(obj) + "\n")


@contextlib.contextmanager
def _exact_decimal_ints():
    """Convert ranks of any length exactly; the digit limit is restored after."""
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def _read_file_or_stdin(path: str) -> str:
    """The text of the file at ``path`` ('-' for stdin); input that is not
    UTF-8 is a usage error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParamInvalid(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_json(path: str):
    """The JSON document in the file at ``path`` ('-' for stdin); text that
    is not JSON, holds an int past the interpreter's digit limit, or nests
    deeper than the parser's recursion limit, is a usage error."""
    import json

    text = _read_file_or_stdin(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, depth
        raise ParamInvalid(str(exc)) from exc


def _perm_arg(value: str) -> Permutation:
    """A permutation given inline, or read from stdin when ``value`` is '-'."""
    return parse_permutation(_read_file_or_stdin(value) if value == "-" else value)


def _int_list(text: str) -> list[int]:
    """The integers in ``text``, separated by commas or spaces; a bad one is
    a usage error naming it, cut short, and its position."""
    values = []
    for position, token in enumerate(text.replace(",", " ").split(), 1):
        try:
            values.append(decimal_int(token))
        except ValueError as exc:
            raise ParamInvalid(f"bad integer list entry {token_text(token, position)}") from exc
    return values


# The command tree.  A group is the first word of its leaves' paths: its help
# line and the dest that names its leaf.  A leaf: its help line (None: listed
# without one), the name of its handler (looked up when the parser is built),
# and its options in the order --help lists them.
_GROUPS = {
    "encode": ("encode inputs into a balanced permutation", "codec"),
    "decode": ("decode a permutation back to its inputs", "codec"),
    "analyze": ("pruned-search censuses and rate reports", "what"),
}
_INT = {"type": decimal_int}
_REQUIRED_INT = {"type": decimal_int, "required": True}
_REQUIRED = {"required": True}
_LEAVES = {
    ("encode", "d1"): ("two-source codec", "_cmd_encode_d1", (
        ("--n", _REQUIRED_INT),
        ("--gamma1", {}),
        ("--gamma2", {}),
        ("--i1", {"help": "decimal rank of the low ordering"}),
        ("--i2", {"help": "decimal rank of the high ordering"}),
        ("--streaming", {"action": "store_true",
                         "help": "use the transposition encoder (same output)"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    ("encode", "d2"): ("block codec", "_cmd_encode_d2", (
        ("--input", {"required": True, "help": "JSON file with n, N, sigmas ('-' for stdin)"}),
        ("--tie-upper", {"action": "store_true",
                         "help": "route exact balance ties to the upper pair"}),
    )),
    ("encode", "tn"): ("neighbor-constrained codec", "_cmd_encode_tn", (
        ("--input", {"required": True,
                     "help": "JSON file with n, k, sigmas, selector ('-' for stdin)"}),
    )),
    ("decode", "d1"): (None, "_cmd_decode_d1", (
        ("--perm", {"required": True, "help": "permutation text ('-' for stdin)"}),
        ("--message", {"action": "store_true",
                       "help": "emit the two decimal ranks instead of orderings"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
    ("decode", "d2"): (None, "_cmd_decode_d2", (
        ("--perm", _REQUIRED), ("--n", _REQUIRED_INT), ("--N", _REQUIRED_INT),
    )),
    ("decode", "tn"): (None, "_cmd_decode_tn", (
        ("--perm", _REQUIRED), ("--n", _REQUIRED_INT), ("--k", _REQUIRED_INT),
    )),
    ("verify",): ("check a permutation against a preset", "_cmd_verify", (
        ("--preset", {"choices": ("d1", "d2", "tn-neighbor"), "required": True}),
        ("--N", _INT), ("--k", _INT), ("--perm", _REQUIRED),
    )),
    ("disc",): ("discrepancy of a permutation at one length", "_cmd_disc", (
        ("--perm", _REQUIRED), ("--b", _REQUIRED_INT),
    )),
    ("analyze", "census"): ("count permutations passing checks", "_cmd_census", (
        ("--n", _REQUIRED_INT),
        ("--preset", {"choices": ("d1", "d2")}),
        ("--N", _INT),
        ("--blocks", {"help": "comma-separated window lengths"}),
        ("--dev-max", {"help": "allowed deviations (one per block, or one for all)"}),
        ("--neighbor-k", _INT),
        ("--cap", {"type": decimal_int, "default": 0, "help": "how many achievers to list"}),
        ("--limit", {"type": decimal_int, "default": DEFAULT_ENUM_LIMIT}),
        ("--threads", {"type": decimal_int, "default": 0}),
    )),
    ("analyze", "min-disc"): ("minimum discrepancy over S_n", "_cmd_min_disc", (
        ("--n", _REQUIRED_INT), ("--b", _REQUIRED_INT),
        ("--limit", {"type": decimal_int, "default": DEFAULT_ENUM_LIMIT}),
        ("--threads", {"type": decimal_int, "default": 0}),
    )),
    ("analyze", "rate"): ("code-size and rate report", "_cmd_rate", (
        ("--config", {"choices": ("d1", "d2", "tn"), "required": True}),
        ("--n", {"required": True, "help": "length, or comma-separated list for a table"}),
        ("--N", _INT),
        ("--epsilon", {}),
        ("--k", _INT),
        ("--epsilon-k", {}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
    )),
    ("analyze", "claims"): ("batch-check codeword bounds", "_cmd_claims", (
        ("--config", {"choices": ("d1", "d2", "tn"), "required": True}),
        ("--N", _INT), ("--k", _INT),
        ("--perms", {"required": True,
                     "help": "file of permutations, one per line ('-' for stdin)"}),
    )),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every command is registered with its help
    line, so --help, a missing or unknown command and a bad codec read as
    always; only the leaf that ``argv`` names gets its options and handler.
    That leaf is named by the first one or two arguments not starting with
    '-', as argparse picks it: no group or the top level takes an option with
    a value."""
    parser = argparse.ArgumentParser(
        prog="bpc",
        description="Balanced permutation codes: encode, decode, verify, analyze.")
    top = parser.add_subparsers(dest="command", required=True)
    words = tuple([arg for arg in argv if not arg.startswith("-")][:2])
    named = words[:1] if words[:1] in _LEAVES else words
    groups = {}
    for path, (help_line, handler, options) in _LEAVES.items():
        group = path[0] if len(path) == 2 else None
        if group is not None and group not in groups:
            group_help, dest = _GROUPS[group]
            groups[group] = top.add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True)
        leaf = groups.get(group, top).add_parser(
            path[-1], **({} if help_line is None else {"help": help_line}))
        if path == named:
            for flag, settings in options:
                leaf.add_argument(flag, **settings)
            leaf.set_defaults(handler=globals()[handler])
    return parser


def _cmd_encode_d1(args) -> int:
    from .d1_codec import D1Input, d1_message_input, encode_d1, encode_d1_streaming, interleave

    gamma_form = args.gamma1 is not None or args.gamma2 is not None
    rank_form = args.i1 is not None or args.i2 is not None
    if gamma_form and rank_form:
        raise ParamInvalid("--gamma1/--gamma2 and --i1/--i2 are mutually exclusive")
    if gamma_form:
        if args.gamma1 is None or args.gamma2 is None:
            raise ParamInvalid("both --gamma1 and --gamma2 are required")
        inp = D1Input(parse_permutation(args.gamma1), parse_permutation(args.gamma2))
        if inp.n != args.n:
            raise ParamInvalid(
                f"--n {args.n} contradicts orderings of total length {inp.n}")
    elif rank_form:
        if args.i1 is None or args.i2 is None:
            raise ParamInvalid("both --i1 and --i2 are required")
        with _exact_decimal_ints():
            try:
                i1, i2 = decimal_int(args.i1), decimal_int(args.i2)
            except ValueError as exc:
                raise ParamInvalid("ranks must be decimal integers") from exc
            inp = d1_message_input(i1, i2, args.n)
    else:
        raise ParamInvalid("supply --gamma1/--gamma2 or --i1/--i2")

    pi, trace = encode_d1_streaming(inp) if args.streaming else (encode_d1(inp), None)
    if args.format == "text":
        print(format_permutation(pi))
    elif trace is None:
        _emit_json({"perm": list(pi.values)})
    else:
        _emit_json({
            "perm": list(pi.values),
            "interleaving": list(interleave(inp).values),
            "trace": [{"position": s.position, "moved": s.moved_symbol}
                      for s in trace.steps],
        })
    return 0


def _cmd_encode_d2(args) -> int:
    from .d2_codec import d2_input_from_json_dict, encode_d2

    inp = d2_input_from_json_dict(_read_json(args.input))
    print(format_permutation(encode_d2(inp, tie_to_upper=args.tie_upper)))
    return 0


def _cmd_encode_tn(args) -> int:
    from .tn_codec import encode_tn, tn_input_from_json_dict

    inp = tn_input_from_json_dict(_read_json(args.input))
    print(format_permutation(encode_tn(inp)))
    return 0


def _cmd_decode_d1(args) -> int:
    from .d1_codec import d1_message_decode, decode_d1

    pi = _perm_arg(args.perm)
    if args.message:
        i1, i2 = d1_message_decode(pi)
        with _exact_decimal_ints():
            if args.format == "json":
                _emit_json({"i1": str(i1), "i2": str(i2)})
            else:
                print(f"{i1} {i2}")
        return 0
    inp = decode_d1(pi)
    if args.format == "json":
        _emit_json({"gamma1": list(inp.gamma1.values),
                    "gamma2": list(inp.gamma2.values)})
    else:
        print(format_permutation(inp.gamma1))
        print(format_permutation(inp.gamma2))
    return 0


def _codec_params(args, preset: str | None, n: int):
    """The parameters ``--N``/``--k`` give the codec that ``preset`` (a
    --preset or --config value) names, at length ``n``: "d1", ``D2Params``,
    ``TnParams``, or the ``NeighborSpec`` of the tn-neighbor preset, a bound
    at any n; None names no codec.  An option of another codec is a usage
    error."""
    codec = "tn" if preset == "tn-neighbor" else preset
    given = codec_parameters(codec, {name: getattr(args, name, None) for name in ("N", "k")})
    if codec in (None, "d1"):
        return codec
    (name, value), = given.items()  # N for d2, k for tn
    if value is None:
        raise ParamInvalid(f"--{name} is required for the {codec} codec")
    if codec == "d2":
        from .d2_codec import D2Params
        return D2Params(n, value)
    if preset == "tn-neighbor":
        from .balance import NeighborSpec
        return NeighborSpec(value)
    from .tn_codec import TnParams
    return TnParams(n, value)


def _cmd_decode_d2(args) -> int:
    from .d2_codec import d2_input_to_json_dict, decode_d2

    inp = decode_d2(_perm_arg(args.perm), _codec_params(args, "d2", args.n))
    _emit_json(d2_input_to_json_dict(inp))
    return 0


def _cmd_decode_tn(args) -> int:
    from .tn_codec import decode_tn, tn_input_to_json_dict

    inp = decode_tn(_perm_arg(args.perm), _codec_params(args, "tn", args.n))
    _emit_json(tn_input_to_json_dict(inp))
    return 0


def _preset_spec(params, n: int):
    """The ``BalanceSpec`` of the d1 preset, or of the d2 preset at ``params``,
    at length ``n``."""
    if params == "d1":
        from .balance import d1_preset
        return d1_preset(n)
    from .d2_codec import d2_preset
    return d2_preset(n, params.N)


def _cmd_verify(args) -> int:
    from .balance import NeighborSpec, check_two_neighbor, verify_balance

    pi = _perm_arg(args.perm)
    params = _codec_params(args, args.preset, pi.n)
    if isinstance(params, NeighborSpec):
        report = check_two_neighbor(pi, params)
    else:
        report = verify_balance(pi, _preset_spec(params, pi.n))
    _emit_json(report.to_json_dict())
    return 0 if report.is_valid else VIOLATION


def _cmd_disc(args) -> int:
    from .balance import disc

    pi = _perm_arg(args.perm)
    print(str(disc(pi, args.b)))
    return 0


def _census_spec(args):
    from .balance import BalanceSpec

    params = _codec_params(args, args.preset, args.n)  # without --preset, refuses --N
    if params is not None:
        if args.blocks is not None or args.dev_max is not None:
            raise ParamInvalid("--preset and --blocks/--dev-max are mutually exclusive")
        return _preset_spec(params, args.n)
    if args.blocks is None:
        raise ParamInvalid("supply --preset or --blocks/--dev-max")
    blocks = _int_list(args.blocks)
    if args.dev_max is None:
        raise ParamInvalid("--dev-max is required with --blocks")
    texts = args.dev_max.replace(",", " ").split()
    devs = [exact_fraction(t, pos) for pos, t in enumerate(texts, 1)]
    if len(devs) == 1 and blocks:
        devs = devs * len(blocks)
    if len(devs) != len(blocks):
        raise ParamInvalid("--dev-max must list one value, or one per block")
    return BalanceSpec(args.n, tuple(blocks), dict(zip(blocks, devs)))


def _cmd_census(args) -> int:
    from .analysis import _check_limit, census
    from .balance import NeighborSpec

    _check_limit(args.n, args.limit)  # before a preset builds n lengths
    spec = _census_spec(args)
    neighbor = NeighborSpec(args.neighbor_k) if args.neighbor_k is not None else None
    result = census(args.n, spec, neighbor=neighbor, cap=args.cap,
                    limit=args.limit, workers=args.threads)
    with _exact_decimal_ints():  # a count or an allowance may pass the digit limit
        _emit_json(result.to_json_dict())
    return 0


def _cmd_min_disc(args) -> int:
    from .analysis import min_disc

    value, count = min_disc(args.n, args.b, limit=args.limit, workers=args.threads)
    with _exact_decimal_ints():
        _emit_json({"n": args.n, "b": args.b, "value": str(value),
                    "achievers": str(count)})
    return 0


def _cmd_rate(args) -> int:
    from .analysis import rate_report

    epsilon, epsilon_k = (None if text is None else exact_fraction(text)
                          for text in (args.epsilon, args.epsilon_k))
    lengths = _int_list(args.n)
    if not lengths:
        raise ParamInvalid("--n must list at least one length")
    reports = [
        rate_report(args.config, n, N=args.N,
                    epsilon=epsilon, k=args.k, epsilon_k=epsilon_k)
        for n in lengths
    ]
    if args.format == "csv":
        rows = ["config,n,code_log2,perm_log2,rate,target,note"]  # note: always empty
        for r in reports:
            numbers = ("" if x is None else repr(x)
                       for x in (r.code_log2, r.perm_log2, r.rate, r.target))
            rows.append(",".join([r.config.replace(",", ";"), str(r.n), *numbers, ""]))
        sys.stdout.write("\n".join(rows) + "\n")
        return 0
    if len(reports) == 1:
        _emit_json(reports[0].to_json_dict())
    else:
        _emit_json([r.to_json_dict() for r in reports])
    return 0


def _cmd_claims(args) -> int:
    from .analysis import claim_suite

    lines = [ln for ln in _read_file_or_stdin(args.perms).splitlines() if ln.strip()]
    perms = [parse_permutation(ln) for ln in lines]
    if not perms:
        raise ParamInvalid("no permutations supplied")
    config = _codec_params(args, args.config, perms[0].n)
    _emit_json(claim_suite(perms, config).to_json_dict())
    return 0

def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        return args.handler(args)
    except SourceExhausted as exc:
        print(f"defect: {exc}", file=sys.stderr)
        print(f"defect state: {exc.state!r}", file=sys.stderr)
        return DEFECT
    except SelectorViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"remaining sets: {exc.remaining!r}", file=sys.stderr)
        return VIOLATION
    except NotCodeword as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION
    except (BpcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a bug, not an input: still a documented exit code
        print(f"defect: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return DEFECT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
