"""Command-line frontend for the balanced permutation codecs.

Exit codes: 0 success or valid; 1 constraint violation, selector violation,
or not-a-codeword; 2 usage/parameter error; 3 broken encoder invariant
(a reproducible defect witness is printed to stderr).  Diagnostics go to
stderr, payloads to stdout; JSON payloads have a fixed key order and end
with a newline.

Only the permutation core is imported with this module; each command
handler imports the codec or the analysis module it runs, so a process loads
no more of the package than its command uses.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
from .perm_core import (
    BalanceSpec,
    NeighborSpec,
    Permutation,
    check_two_neighbor,
    d1_preset,
    disc,
    format_permutation,
    parse_permutation,
    verify_balance,
)

USAGE_ERROR = 2
VIOLATION = 1
DEFECT = 3


def _emit_json(obj) -> None:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpc",
        description="Balanced permutation codes: encode, decode, verify, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode inputs into a balanced permutation")
    enc_sub = enc.add_subparsers(dest="codec", required=True)

    e1 = enc_sub.add_parser("d1", help="two-source codec")
    e1.add_argument("--n", type=decimal_int, required=True)
    e1.add_argument("--gamma1")
    e1.add_argument("--gamma2")
    e1.add_argument("--i1", help="decimal rank of the low ordering")
    e1.add_argument("--i2", help="decimal rank of the high ordering")
    e1.add_argument("--streaming", action="store_true",
                    help="use the transposition encoder (same output)")
    e1.add_argument("--format", choices=("text", "json"), default="text")
    e1.set_defaults(handler=_cmd_encode_d1)

    e2 = enc_sub.add_parser("d2", help="block codec")
    e2.add_argument("--input", required=True,
                    help="JSON file with n, N, sigmas ('-' for stdin)")
    e2.add_argument("--tie-upper", action="store_true",
                    help="route exact balance ties to the upper pair")
    e2.set_defaults(handler=_cmd_encode_d2)

    et = enc_sub.add_parser("tn", help="neighbor-constrained codec")
    et.add_argument("--input", required=True,
                    help="JSON file with n, k, sigmas, selector ('-' for stdin)")
    et.set_defaults(handler=_cmd_encode_tn)

    dec = sub.add_parser("decode", help="decode a permutation back to its inputs")
    dec_sub = dec.add_subparsers(dest="codec", required=True)

    d1p = dec_sub.add_parser("d1")
    d1p.add_argument("--perm", required=True, help="permutation text ('-' for stdin)")
    d1p.add_argument("--message", action="store_true",
                     help="emit the two decimal ranks instead of orderings")
    d1p.add_argument("--format", choices=("text", "json"), default="text")
    d1p.set_defaults(handler=_cmd_decode_d1)

    d2p = dec_sub.add_parser("d2")
    d2p.add_argument("--perm", required=True)
    d2p.add_argument("--n", type=decimal_int, required=True)
    d2p.add_argument("--N", type=decimal_int, required=True)
    d2p.set_defaults(handler=_cmd_decode_d2)

    dtp = dec_sub.add_parser("tn")
    dtp.add_argument("--perm", required=True)
    dtp.add_argument("--n", type=decimal_int, required=True)
    dtp.add_argument("--k", type=decimal_int, required=True)
    dtp.set_defaults(handler=_cmd_decode_tn)

    ver = sub.add_parser("verify", help="check a permutation against a preset")
    ver.add_argument("--preset", choices=("d1", "d2", "tn-neighbor"), required=True)
    ver.add_argument("--N", type=decimal_int)
    ver.add_argument("--k", type=decimal_int)
    ver.add_argument("--perm", required=True)
    ver.set_defaults(handler=_cmd_verify)

    dsc = sub.add_parser("disc", help="discrepancy of a permutation at one length")
    dsc.add_argument("--perm", required=True)
    dsc.add_argument("--b", type=decimal_int, required=True)
    dsc.set_defaults(handler=_cmd_disc)

    ana = sub.add_parser("analyze", help="pruned-search censuses and rate reports")
    ana_sub = ana.add_subparsers(dest="what", required=True)

    cen = ana_sub.add_parser("census", help="count permutations passing checks")
    cen.add_argument("--n", type=decimal_int, required=True)
    cen.add_argument("--preset", choices=("d1", "d2"))
    cen.add_argument("--N", type=decimal_int)
    cen.add_argument("--blocks", help="comma-separated window lengths")
    cen.add_argument("--dev-max", dest="dev_max",
                     help="allowed deviations (one per block, or one for all)")
    cen.add_argument("--neighbor-k", dest="neighbor_k", type=decimal_int)
    cen.add_argument("--cap", type=decimal_int, default=0,
                     help="how many achievers to list")
    cen.add_argument("--limit", type=decimal_int, default=DEFAULT_ENUM_LIMIT)
    cen.add_argument("--threads", type=decimal_int, default=0)
    cen.set_defaults(handler=_cmd_census)

    mnd = ana_sub.add_parser("min-disc", help="minimum discrepancy over S_n")
    mnd.add_argument("--n", type=decimal_int, required=True)
    mnd.add_argument("--b", type=decimal_int, required=True)
    mnd.add_argument("--limit", type=decimal_int, default=DEFAULT_ENUM_LIMIT)
    mnd.add_argument("--threads", type=decimal_int, default=0)
    mnd.set_defaults(handler=_cmd_min_disc)

    rat = ana_sub.add_parser("rate", help="code-size and rate report")
    rat.add_argument("--config", choices=("d1", "d2", "tn"), required=True)
    rat.add_argument("--n", required=True,
                     help="length, or comma-separated list for a table")
    rat.add_argument("--N", type=decimal_int)
    rat.add_argument("--epsilon")
    rat.add_argument("--k", type=decimal_int)
    rat.add_argument("--epsilon-k", dest="epsilon_k")
    rat.add_argument("--format", choices=("json", "csv"), default="json")
    rat.set_defaults(handler=_cmd_rate)

    clm = ana_sub.add_parser("claims", help="batch-check codeword bounds")
    clm.add_argument("--config", choices=("d1", "d2", "tn"), required=True)
    clm.add_argument("--N", type=decimal_int)
    clm.add_argument("--k", type=decimal_int)
    clm.add_argument("--perms", required=True,
                     help="file of permutations, one per line ('-' for stdin)")
    clm.set_defaults(handler=_cmd_claims)

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


def _preset_spec(params, n: int) -> BalanceSpec:
    """The spec of the d1 preset, or of the d2 preset at ``params``, at length ``n``."""
    if params == "d1":
        return d1_preset(n)
    from .d2_codec import d2_preset
    return d2_preset(n, params.N)


def _cmd_verify(args) -> int:
    pi = _perm_arg(args.perm)
    params = _codec_params(args, args.preset, pi.n)
    if isinstance(params, NeighborSpec):
        report = check_two_neighbor(pi, params)
    else:
        report = verify_balance(pi, _preset_spec(params, pi.n))
    _emit_json(report.to_json_dict())
    return 0 if report.is_valid else VIOLATION


def _cmd_disc(args) -> int:
    pi = _perm_arg(args.perm)
    print(str(disc(pi, args.b)))
    return 0


def _census_spec(args):
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
    parser = _build_parser()
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
