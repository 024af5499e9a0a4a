import io
import json
import math

import pytest

from bpc import cli, d1_codec
from bpc.errors import SourceExhausted
from support import (
    EX1_CODEWORD,
    EX3_CODEWORD,
    EX4_CODEWORD,
    ex3_input,
    ex4_input,
)
from bpc import d2_input_to_json_dict, tn_input_to_json_dict

EX1_TEXT = "3 12 4 11 1 10 2 9 8 5 7 6"


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeDecodeD1:
    def test_golden_encode(self, capsys):
        code, out, err = run(capsys, "encode", "d1", "--n", "12",
                             "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1")
        assert code == 0
        assert out == EX1_TEXT + "\n"
        assert err == ""

    def test_encode_json_format(self, capsys):
        code, out, _ = run(capsys, "encode", "d1", "--n", "12",
                           "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"perm": list(EX1_CODEWORD)}

    def test_streaming_same_output(self, capsys):
        code, out, _ = run(capsys, "encode", "d1", "--n", "12",
                           "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1",
                           "--streaming")
        assert code == 0
        assert out == EX1_TEXT + "\n"

    def test_streaming_json_trace(self, capsys):
        code, out, _ = run(capsys, "encode", "d1", "--n", "12",
                           "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1",
                           "--streaming", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert tuple(obj["perm"]) == EX1_CODEWORD
        assert obj["interleaving"] == [3, 12, 4, 11, 1, 10, 2, 9, 5, 8, 6, 7]
        assert obj["trace"] == [{"position": 9, "moved": 8},
                                {"position": 11, "moved": 7}]

    def test_decode_text_roundtrip(self, capsys):
        code, out, _ = run(capsys, "decode", "d1", "--perm", EX1_TEXT)
        assert code == 0
        g1, g2 = out.splitlines()
        code2, out2, _ = run(capsys, "encode", "d1", "--n", "12",
                             "--gamma1", g1, "--gamma2", g2)
        assert code2 == 0
        assert out2 == EX1_TEXT + "\n"

    def test_message_form(self, capsys):
        code, out, _ = run(capsys, "encode", "d1", "--n", "4",
                           "--i1", "0", "--i2", "0")
        assert code == 0
        assert out == "1 3 4 2\n"
        code, out, _ = run(capsys, "decode", "d1", "--perm", "1 3 4 2",
                           "--message")
        assert code == 0
        assert out == "0 0\n"

    def test_ranks_of_arbitrary_precision(self, capsys):
        # (n/2)! at n=60 is far past 64 bits; ranks travel as decimal strings
        from math import factorial
        i1 = str(factorial(30) - 1)
        code, out, _ = run(capsys, "encode", "d1", "--n", "60",
                           "--i1", i1, "--i2", "12345678901234567890")
        assert code == 0
        code, back, _ = run(capsys, "decode", "d1", "--perm", out.strip(),
                            "--message")
        assert code == 0
        assert back == f"{i1} 12345678901234567890\n"

    def test_ranks_past_the_int_str_digit_limit(self, capsys):
        # (2000)! has 5736 digits, past the interpreter's default limit of 4300
        import random
        import sys
        from math import factorial

        rng = random.Random(4000)
        bound = factorial(2000)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            i1, i2 = str(bound - 1), str(rng.randrange(bound))
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert len(i1) > 4300
        code, out, err = run(capsys, "encode", "d1", "--n", "4000",
                             "--i1", i1, "--i2", i2)
        assert code == 0, err
        for fmt in ("text", "json"):
            code, back, err = run(capsys, "decode", "d1", "--perm", out.strip(),
                                  "--message", "--format", fmt)
            assert code == 0, err
            if fmt == "text":
                assert back == f"{i1} {i2}\n"
            else:
                assert json.loads(back) == {"i1": i1, "i2": i2}
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_long_rank_out_of_range_is_not_a_parse_error(self, capsys):
        code, _, err = run(capsys, "encode", "d1", "--n", "12",
                           "--i1", "9" * 5000, "--i2", "0")
        assert code == 2
        assert "outside" in err
        assert "decimal integers" not in err

    def test_rank_too_large(self, capsys):
        code, _, err = run(capsys, "encode", "d1", "--n", "6",
                           "--i1", "6", "--i2", "0")
        assert code == 2
        assert "error" in err

    def test_forms_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, "encode", "d1", "--n", "4",
                           "--gamma1", "1 2", "--gamma2", "1 2", "--i1", "0")
        assert code == 2

    @pytest.mark.parametrize("given,error", [
        (("--gamma1", "3,4,1,2,5,6"), "error: both --gamma1 and --gamma2 are required\n"),
        (("--gamma2", "6,5,4,3,2,1"), "error: both --gamma1 and --gamma2 are required\n"),
        (("--i1", "0"), "error: both --i1 and --i2 are required\n"),
        (("--i2", "0"), "error: both --i1 and --i2 are required\n"),
    ], ids=["gamma1", "gamma2", "i1", "i2"])
    def test_half_a_form_is_usage_error(self, capsys, given, error):
        code, out, err = run(capsys, "encode", "d1", "--n", "12", *given)
        assert (code, out, err) == (2, "", error)

    def test_decode_json_orderings(self, capsys):
        code, out, err = run(capsys, "decode", "d1", "--perm", EX1_TEXT, "--format", "json")
        assert (code, err) == (0, "")
        assert out == '{"gamma1": [3, 4, 1, 2, 5, 6], "gamma2": [6, 5, 4, 3, 2, 1]}\n'

    def test_n_consistency(self, capsys):
        code, _, err = run(capsys, "encode", "d1", "--n", "6",
                           "--gamma1", "1 2", "--gamma2", "1 2")
        assert code == 2

    def test_odd_length_decode(self, capsys):
        code, _, err = run(capsys, "decode", "d1", "--perm", "1 2 3")
        assert code == 2
        assert "odd" in err.lower()

    def test_perm_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EX1_TEXT + "\n"))
        code, out, _ = run(capsys, "decode", "d1", "--perm", "-")
        assert code == 0
        assert out == "3 4 1 2 5 6\n6 5 4 3 2 1\n"


class TestEncodeDecodeD2:
    def test_encode_from_stdin(self, capsys, monkeypatch):
        payload = json.dumps(d2_input_to_json_dict(ex3_input()))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "encode", "d2", "--input", "-")
        assert code == 0
        assert out.strip() == " ".join(str(v) for v in EX3_CODEWORD)

    def test_encode_from_file(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(d2_input_to_json_dict(ex3_input())))
        code, out, _ = run(capsys, "encode", "d2", "--input", str(path))
        assert code == 0
        assert out.strip() == " ".join(str(v) for v in EX3_CODEWORD)

    def test_decode_then_encode_pipe(self, capsys, monkeypatch):
        perm_text = " ".join(str(v) for v in EX3_CODEWORD)
        code, out, _ = run(capsys, "decode", "d2", "--perm", perm_text,
                           "--n", "32", "--N", "8")
        assert code == 0
        assert json.loads(out) == d2_input_to_json_dict(ex3_input())
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "encode", "d2", "--input", "-")
        assert code == 0
        assert out2.strip() == perm_text

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "decode", "d2", "--perm", "1 2 3 4",
                           "--n", "4", "--N", "3")
        assert code == 2


class TestEncodeDecodeTn:
    def test_roundtrip_pipe(self, capsys, monkeypatch):
        perm_text = " ".join(str(v) for v in EX4_CODEWORD)
        code, out, _ = run(capsys, "decode", "tn", "--perm", perm_text,
                           "--n", "24", "--k", "4")
        assert code == 0
        assert json.loads(out) == tn_input_to_json_dict(ex4_input())
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "encode", "tn", "--input", "-")
        assert code == 0
        assert out2.strip() == perm_text

    def test_not_codeword(self, capsys):
        code, _, err = run(capsys, "decode", "tn", "--perm", "1 3 2 4",
                           "--n", "4", "--k", "2")
        assert code == 1
        assert "straddles" in err

    def test_selector_violation_exit_one(self, capsys, tmp_path):
        obj = tn_input_to_json_dict(ex4_input())
        obj["selector"][0] = 4  # upper set while the lower half is mandated
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "encode", "tn", "--input", str(path))
        assert code == 1
        assert "mandated" in err

    def test_non_integer_sigma_is_usage_error(self, capsys, tmp_path):
        for bad in (2.7, True):
            obj = tn_input_to_json_dict(ex4_input())
            obj["sigmas"][0][0] = bad
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(obj))
            code, out, err = run(capsys, "encode", "tn", "--input", str(path))
            assert (code, out) == (2, "")
            assert "integer" in err


class TestJsonIntegers:
    """A JSON input with 8.0 or true where an integer belongs exits 2 with
    one stderr line: the value types name n, N, k and the selector entries,
    ``Permutation`` names a sigma entry."""

    @pytest.mark.parametrize("codec, field", [
        ("d2", "n"), ("d2", "N"), ("d2", "sigma"),
        ("tn", "n"), ("tn", "k"), ("tn", "sigma"), ("tn", "selector")])
    @pytest.mark.parametrize("bad, text", [(8.0, "8.0"), (True, "True")])
    def test_non_integer_is_usage_error(self, capsys, monkeypatch, codec, field, bad, text):
        obj = (d2_input_to_json_dict(ex3_input()) if codec == "d2"
               else tn_input_to_json_dict(ex4_input()))
        if field == "sigma":
            obj["sigmas"][0][0] = bad
        elif field == "selector":
            obj["selector"][0] = bad
        else:
            obj[field] = bad
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run(capsys, "encode", codec, "--input", "-")
        assert (code, out) == (2, "")
        assert err == (f"error: symbol {text} is not an integer\n" if field == "sigma"
                       else f"error: expected an integer, got {text}\n")


class TestVerifyAndDisc:
    def test_verify_valid(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "d1", "--perm", EX1_TEXT)
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_verify_violation_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "d1",
                           "--perm", " ".join(str(i) for i in range(1, 21)))
        assert code == 1
        obj = json.loads(out)
        assert obj["valid"] is False
        assert obj["violations"]

    def test_verify_block_preset(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "d2", "--N", "8",
                           "--perm", " ".join(str(v) for v in EX3_CODEWORD))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_verify_neighbor_preset(self, capsys):
        code, out, _ = run(capsys, "verify", "--preset", "tn-neighbor",
                           "--k", "4",
                           "--perm", " ".join(str(v) for v in EX4_CODEWORD))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--preset", "tn-neighbor",
                           "--k", "2",
                           "--perm", "1 12 2 11 3 10 4 9 5 8 6 7")
        assert code == 1

    def test_verify_missing_param(self, capsys):
        code, _, err = run(capsys, "verify", "--preset", "d2", "--perm", EX1_TEXT)
        assert code == 2

    def test_disc(self, capsys):
        code, out, _ = run(capsys, "disc", "--perm", "1 3 2 4", "--b", "2")
        assert code == 0
        assert out == "1\n"
        code, out, _ = run(capsys, "disc", "--perm", "1 2 3 4", "--b", "1")
        assert code == 0
        assert out == "3/2\n"

    def test_disc_bad_b(self, capsys):
        code, _, _ = run(capsys, "disc", "--perm", "1 3 2 4", "--b", "9")
        assert code == 2


def _claims_json(config, perm, bounds):
    """The claims payload of a one-permutation batch: ``bounds`` lists each
    bound's name and its witness detail, None where it passes."""
    return json.dumps({"config": config, "total": 1, "bounds": [
        {"name": name, "checked": 1, "passed": int(detail is None),
         "failures": int(detail is not None),
         "first_counterexample": None if detail is None else
         {"perm": perm, "bound": name, "detail": detail}}
        for name, detail in bounds]}) + "\n"


ID20 = " ".join(map(str, range(1, 21)))
SCRAMBLED32 = " ".join(map(str, (1, 32, *range(2, 32))))
ZIGZAG24 = " ".join(map(str, (2, 24, 1, *range(3, 24))))
CLAIM_WITNESSES = [
    (("--config", "d1"), ID20, _claims_json("d1(n=20)", ID20, [
        ("prefix_bound", {"j": "3", "dev": "-51/2", "allowed": "21"}),
        ("window_bound", {"b": "10", "j": "1", "dev": "50", "allowed": "42"})])),
    (("--config", "d2", "--N", "8"), SCRAMBLED32, _claims_json("d2(n=32,N=8)", SCRAMBLED32, [
        ("even_prefix_bound", {"j": "4", "dev": "-28", "allowed": "8"}),
        ("pair_locality", {"i": "2", "j+1": "4", "gap": "29", "allowed": "16"}),
        ("window_bound", {"b": "4", "j": "3", "dev": "52", "allowed": "33"})])),
    (("--config", "tn", "--k", "4"), ZIGZAG24, _claims_json("tn(n=24,k=4)", ZIGZAG24, [
        ("two_neighbor", {"i": "2", "left": "22", "right": "23", "allowed": "4"}),
        ("window_bound", {"b": "11", "j": "3", "dev": "123/2", "allowed": "50"})])),
    (("--config", "tn", "--k", "4"), ID20 + " 21 22 23 24",
     _claims_json("tn(n=24,k=4)", ID20 + " 21 22 23 24", [
         ("two_neighbor", None),
         ("window_bound", {"b": "12", "j": "1", "dev": "72", "allowed": "50"})])),
]


class TestAnalyze:
    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "census", "--n", "4",
                           "--blocks", "2", "--dev-max", "1", "--cap", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == "8"
        assert obj["achievers"][0] == "1 3 2 4"
        assert list(obj) == ["n", "blocks", "dev_max", "neighbor_k",
                             "count", "achievers"]

    def test_census_preset_and_threads(self, capsys):
        code, out1, _ = run(capsys, "analyze", "census", "--n", "4",
                            "--preset", "d1", "--threads", "2")
        assert code == 0
        code, out2, _ = run(capsys, "analyze", "census", "--n", "4",
                            "--preset", "d1", "--threads", "0")
        assert code == 0
        assert out1 == out2  # worker count never changes the payload

    def test_census_block_preset_with_neighbor(self, capsys):
        code, out, _ = run(capsys, "analyze", "census", "--n", "8",
                           "--preset", "d2", "--N", "4", "--neighbor-k", "3",
                           "--cap", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["blocks"] == [2]
        assert obj["dev_max"] == {"2": "18"}
        assert obj["neighbor_k"] == 3
        assert int(obj["count"]) > 0

    @pytest.mark.parametrize("preset", [("d1",), ("d2", "--N", "4")])
    @pytest.mark.parametrize("spec", [("--blocks", "2"), ("--dev-max", "0"),
                                      ("--blocks", "2", "--dev-max", "0")])
    def test_census_preset_excludes_blocks_and_dev_max(self, capsys, preset, spec):
        code, out, err = run(capsys, "analyze", "census", "--n", "4", "--preset", *preset, *spec)
        assert (code, out) == (2, "")
        assert err == "error: --preset and --blocks/--dev-max are mutually exclusive\n"

    @pytest.mark.parametrize("spec,error", [
        ((), "error: supply --preset or --blocks/--dev-max\n"),
        (("--dev-max", "1"), "error: supply --preset or --blocks/--dev-max\n"),
        (("--blocks", "2"), "error: --dev-max is required with --blocks\n"),
        (("--blocks", "2,3,4", "--dev-max", "1,2"),
         "error: --dev-max must list one value, or one per block\n"),
        # with no lengths, one allowance is one too many, not one for all
        (("--blocks", "", "--dev-max", "1"),
         "error: --dev-max must list one value, or one per block\n"),
    ], ids=["no-spec", "dev-max-only", "blocks-only", "two-for-three", "no-lengths"])
    def test_census_spec_errors(self, capsys, spec, error):
        code, out, err = run(capsys, "analyze", "census", "--n", "4", *spec)
        assert (code, out, err) == (2, "", error)

    def test_census_without_lengths_checks_only_the_neighbor_bound(self, capsys):
        code, out, err = run(capsys, "analyze", "census", "--n", "6", "--blocks", "",
                             "--dev-max", "", "--neighbor-k", "1")
        assert (code, err) == (0, "")
        assert out == ('{"n": 6, "blocks": [], "dev_max": {}, "neighbor_k": 1, '
                       '"count": "170", "achievers": []}\n')

    def test_census_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "census", "--n", "4",
                             "--blocks", "2", "--dev-max", "1", "--cap", "-3")
        assert (code, out) == (2, "")
        assert "cap" in err

    def test_census_limit(self, capsys):
        code, _, err = run(capsys, "analyze", "census", "--n", "11",
                           "--preset", "d1")
        assert code == 2
        assert "limit" in err

    def test_census_past_the_recursion_limit(self, capsys):
        # the search is a loop, so n = 1200, past the interpreter's default
        # recursion limit of 1000, is bounded by --limit alone; nothing is
        # checked here, so the count is 1200! and the first achiever the identity
        code, out, err = run(capsys, "analyze", "census", "--n", "1200", "--blocks", "1",
                             "--dev-max", "100000", "--cap", "1", "--limit", "2000")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["count"] == str(math.factorial(1200))
        assert obj["achievers"] == [" ".join(map(str, range(1, 1201)))]

    def test_census_with_nothing_to_check_is_n_factorial(self, capsys):
        # every window of length 1 deviates less than 100000, so nothing is
        # checked: the count is 950! and the first achiever the identity,
        # without a search
        code, out, err = run(capsys, "analyze", "census", "--n", "950", "--blocks", "1",
                             "--dev-max", "100000", "--cap", "1", "--limit", "2000")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["count"] == str(math.factorial(950))
        assert obj["achievers"] == [" ".join(map(str, range(1, 951)))]

    def test_census_allowance_past_the_digit_limit(self, capsys):
        # the allowance 10**100000 has 100001 digits, past the interpreter's
        # int-to-str limit; it is printed exactly, and checks nothing at n = 4
        code, out, err = run(capsys, "analyze", "census", "--n", "4", "--blocks", "2",
                             "--dev-max", "1e100000")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["dev_max"] == {"2": "1" + "0" * 100000}
        assert obj["count"] == "24"

    def test_census_count_past_the_digit_limit(self, capsys):
        # 2000! has 5736 digits, past the interpreter's int-to-str limit
        code, out, err = run(capsys, "analyze", "census", "--n", "2000", "--blocks", "1",
                             "--dev-max", "100000", "--limit", "2000")
        assert (code, err) == (0, "")
        with cli._exact_decimal_ints():
            expected = str(math.factorial(2000))
        assert json.loads(out)["count"] == expected

    def test_min_disc(self, capsys):
        code, out, _ = run(capsys, "analyze", "min-disc", "--n", "4", "--b", "2")
        assert code == 0
        assert json.loads(out) == {"n": 4, "b": 2, "value": "1", "achievers": "8"}

    def test_rate_single(self, capsys):
        code, out, _ = run(capsys, "analyze", "rate", "--config", "d1",
                           "--n", "12")
        assert code == 0
        obj = json.loads(out)
        assert obj["config"] == "d1"
        assert 0.658 < obj["rate"] < 0.659
        assert obj["target"] == 1.0

    def test_rate_table_csv(self, capsys):
        code, out, _ = run(capsys, "analyze", "rate", "--config", "d1",
                           "--n", "10,12", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "config,n,code_log2,perm_log2,rate,target,note"
        assert len(lines) == 3

    def test_rate_table_json(self, capsys):
        code, out, err = run(capsys, "analyze", "rate", "--config", "d1", "--n", "4,6")
        assert (code, err) == (0, "")
        assert out == (
            '[{"config": "d1", "n": 4, "code_log2": 2.0, "perm_log2": 4.584962500721156, '
            '"rate": 0.4362085839710631, "target": 1.0, "note": null}, '
            '{"config": "d1", "n": 6, "code_log2": 5.169925001442312, '
            '"perm_log2": 9.491853096329674, "rate": 0.5446697234959765, "target": 1.0, '
            '"note": null}]\n')

    def test_rate_tn_past_n_10_is_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", "rate", "--config", "tn",
                           "--n", "8,24", "--k", "4", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        # 576 and 1547934105600 codewords
        assert [float(r[2]) for r in rows] == [math.log2(576), math.log2(1547934105600)]
        assert all(r[4] and r[6] == "" for r in rows)

    def test_rate_has_no_limit(self, capsys):
        code, out, err = run(capsys, "analyze", "rate", "--config", "tn",
                             "--n", "24", "--k", "4", "--limit", "24")
        assert (code, out) == (2, "")
        assert "--limit" in err

    def test_rate_bad_epsilon_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "rate", "--config", "d2",
                           "--n", "64", "--epsilon", "abc")
        assert code == 2
        assert "bad rational" in err

    def test_rate_epsilon_with_a_huge_denominator_is_usage_error(self, capsys):
        # 1e-100000 has a 100001-digit denominator: refused, and the refusal
        # names its size without printing it
        code, out, err = run(capsys, "analyze", "rate", "--config", "d2", "--n", "64",
                             "--epsilon", "1e-100000")
        assert (code, out) == (2, "")
        assert err.startswith("error: exponent denominator <")
        assert "-bit integer> is too large" in err

    @pytest.mark.parametrize("lengths", ["", ",", " , "])
    def test_rate_without_a_length_is_usage_error(self, capsys, lengths):
        code, out, err = run(capsys, "analyze", "rate", "--config", "d1", "--n", lengths)
        assert (code, out, err) == (2, "", "error: --n must list at least one length\n")

    def test_rate_determinism(self, capsys):
        args = ("analyze", "rate", "--config", "d2", "--n", "64",
                "--epsilon", "0.5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_claims_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EX1_TEXT + "\n"))
        code, out, _ = run(capsys, "analyze", "claims", "--config", "d1",
                           "--perms", "-")
        assert code == 0
        obj = json.loads(out)
        assert obj["total"] == 1
        assert all(b["failures"] == 0 for b in obj["bounds"])

    def test_claims_block_config(self, capsys, tmp_path):
        path = tmp_path / "perms.txt"
        path.write_text(" ".join(str(v) for v in EX3_CODEWORD) + "\n")
        code, out, _ = run(capsys, "analyze", "claims", "--config", "d2",
                           "--N", "8", "--perms", str(path))
        assert code == 0
        assert all(b["failures"] == 0 for b in json.loads(out)["bounds"])

    def test_claims_neighbor_config(self, capsys, tmp_path):
        path = tmp_path / "perms.txt"
        path.write_text(" ".join(str(v) for v in EX4_CODEWORD) + "\n")
        code, out, _ = run(capsys, "analyze", "claims", "--config", "tn",
                           "--k", "4", "--perms", str(path))
        assert code == 0
        obj = json.loads(out)
        assert [b["name"] for b in obj["bounds"]] == ["two_neighbor",
                                                      "window_bound"]
        assert all(b["failures"] == 0 for b in obj["bounds"])

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_claims_on_no_permutations_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "perms.txt"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "claims", "--config", "d1",
                             "--perms", str(path))
        assert (code, out, err) == (2, "", "error: no permutations supplied\n")

    @pytest.mark.parametrize("options,perm,expected", CLAIM_WITNESSES,
                             ids=["d1", "d2", "tn", "tn-identity"])
    def test_claims_witness_of_every_bound(self, capsys, tmp_path, options, perm, expected):
        # every dev/allowed pair is in the sum's own units: the d1 and tn
        # window allowance is 2(n+1), the d2 ones 2n/N, 4n/N and 8(n+1)/N
        path = tmp_path / "perms.txt"
        path.write_text(perm + "\n")
        code, out, err = run(capsys, "analyze", "claims", *options, "--perms", str(path))
        assert (code, err) == (0, "")
        assert out == expected


PERM16 = "1 16 2 15 3 14 4 13 5 12 6 11 7 10 8 9"
OPTION_VALUES = {"--N": "4", "--k": "4", "--epsilon": "1/2", "--epsilon-k": "1/2"}
# (command, the codec it names, the codec options its parser accepts, the
# ones that codec takes); the census by --blocks names no codec
CODEC_COMMANDS = [
    *((("verify", "--preset", preset, "--perm", PERM16), codec, ("--N", "--k"), own)
      for preset, codec, own in [("d1", "d1", ()), ("d2", "d2", ("--N",)),
                                 ("tn-neighbor", "tn", ("--k",))]),
    (("analyze", "census", "--n", "6", "--preset", "d1"), "d1", ("--N",), ()),
    (("analyze", "census", "--n", "8", "--preset", "d2"), "d2", ("--N",), ("--N",)),
    (("analyze", "census", "--n", "4", "--blocks", "2", "--dev-max", "1"), None, ("--N",), ()),
    *((("analyze", "claims", "--config", codec, "--perms", "-"), codec, ("--N", "--k"), own)
      for codec, own in [("d1", ()), ("d2", ("--N",)), ("tn", ("--k",))]),
    *((("analyze", "rate", "--config", codec, "--n", "16"), codec,
       ("--N", "--k", "--epsilon", "--epsilon-k"), own)
      for codec, own in [("d1", ()), ("d2", ("--N", "--epsilon")),
                         ("tn", ("--k", "--epsilon-k"))]),
]


class TestCodecOptions:
    """Each command takes the codec options of the codec it names and
    refuses every other one its parser accepts."""

    @staticmethod
    def run_with(capsys, monkeypatch, command, *options):
        monkeypatch.setattr("sys.stdin", io.StringIO(PERM16 + "\n"))
        argv = [*command]
        for option in options:
            argv += [option, OPTION_VALUES[option]]
        return run(capsys, *argv)

    @pytest.mark.parametrize("command, codec, accepted, own", [
        pytest.param(*case, id=" ".join(case[0][:4])) for case in CODEC_COMMANDS])
    def test_own_options_answer_and_foreign_ones_exit_two(self, capsys, monkeypatch, command,
                                                          codec, accepted, own):
        required = own[:1]  # d2 and tn need one parameter; d1 and no codec none
        for option in own:
            options = required if option in required else (*required, option)
            code, out, err = self.run_with(capsys, monkeypatch, command, *options)
            assert code in (0, 1) and err == "", (option, err)
            json.loads(out)
        for option in accepted:
            if option in own:
                continue
            name = option[2:].replace("-", "_")
            expected = (f"error: {name} is not a parameter of the {codec} codec\n" if codec
                        else f"error: {name} is given but no codec is named\n")
            code, out, err = self.run_with(capsys, monkeypatch, command, *required, option)
            assert (code, out, err) == (2, "", expected), option

    @pytest.mark.parametrize("argv, error", [
        (("verify", "--preset", "d2", "--perm", PERM16), "--N is required for the d2 codec"),
        (("verify", "--preset", "tn-neighbor", "--perm", PERM16),
         "--k is required for the tn codec"),
        (("analyze", "census", "--n", "8", "--preset", "d2"), "--N is required for the d2 codec"),
        (("analyze", "claims", "--config", "d2", "--perms", "-"),
         "--N is required for the d2 codec"),
        (("analyze", "claims", "--config", "tn", "--perms", "-"),
         "--k is required for the tn codec"),
    ])
    def test_a_missing_parameter_reads_the_same_in_every_command(self, capsys, monkeypatch,
                                                                  argv, error):
        code, out, err = self.run_with(capsys, monkeypatch, argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestSubprocessPipes:
    def test_block_codec_roundtrip_across_processes(self):
        import subprocess
        import sys

        payload = json.dumps(d2_input_to_json_dict(ex3_input())) + "\n"
        enc = subprocess.run(
            [sys.executable, "-m", "bpc.cli", "encode", "d2", "--input", "-"],
            input=payload, capture_output=True, text=True)
        assert enc.returncode == 0
        perm = enc.stdout.strip()
        dec = subprocess.run(
            [sys.executable, "-m", "bpc.cli", "decode", "d2",
             "--perm", "-", "--n", "32", "--N", "8"],
            input=enc.stdout, capture_output=True, text=True)
        assert dec.returncode == 0
        assert dec.stdout == payload  # byte-exact through the pipe
        assert perm == " ".join(str(v) for v in EX3_CODEWORD)


def _probe(code: str, *args: str) -> list[str]:
    """Run ``code`` in a new interpreter with this checkout's bpc on its
    path (writing no bytecode caches); returns the stdout lines."""
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestImportCost:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        probe = ("import sys, bpc.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        assert _probe(probe) == ["False"]

    def test_package_import_loads_no_submodule(self):
        probe = "import sys, bpc; print(sorted(m for m in sys.modules if m.startswith('bpc.')))"
        assert _probe(probe) == ["[]"]

    def test_enum_limit_loads_no_submodule(self):
        probe = ("import sys, bpc; limit = bpc.DEFAULT_ENUM_LIMIT; "
                 "print(limit, sorted(m for m in sys.modules if m.startswith('bpc.')))")
        assert _probe(probe) == ["10 []"]
        import bpc.analysis
        assert bpc.analysis.DEFAULT_ENUM_LIMIT is bpc.DEFAULT_ENUM_LIMIT == 10

    def test_cli_import_loads_no_dataclasses(self):
        probe = "import sys, bpc.cli; print('dataclasses' in sys.modules)"
        assert _probe(probe) == ["False"]

    def test_exported_names_resolve_to_their_home_modules(self):
        import importlib

        import bpc

        homes = {
            "analysis": "BoundResult CensusResult ClaimReport CounterExample DEFAULT_ENUM_LIMIT "
                        "RateReport census claim_suite d1_claim_suite d2_claim_suite min_disc "
                        "rate_report rate_report_d1 rate_report_d2 rate_report_tn "
                        "tn_claim_suite tn_code_size",
            "d1_codec": "D1Input TranspositionStep TranspositionTrace d1_message_decode "
                        "d1_message_encode d1_message_input decode_d1 encode_d1 "
                        "encode_d1_streaming interleave",
            "d2_codec": "Cell CellSchedule D2Input D2Params cell_schedule "
                        "d2_input_from_json_dict d2_input_to_json_dict d2_preset decode_d2 "
                        "encode_d2",
            "errors": "BpcError IndexOutOfRange LimitExceeded NotCodeword NotPermutation "
                      "OddLength ParamInvalid SelectorViolation SourceExhausted SpecMismatch",
            "perm_core": "BalanceSpec BalanceViolation NeighborSpec NeighborViolation "
                         "Permutation ViolationReport check_two_neighbor d1_preset disc "
                         "format_permutation identity make_permutation parse_permutation "
                         "prefix_deviation prefix_deviations_doubled rank unrank "
                         "verify_balance window_sum",
            "tn_codec": "Half TnInput TnParams decode_tn encode_tn mandated_half "
                        "random_valid_input tn_input_from_json_dict tn_input_to_json_dict",
        }
        names = {name: module for module, text in homes.items() for name in text.split()}
        assert sorted(bpc.__all__) == sorted([*homes, *names])
        # (bpc.cli, imported by this module, is an attribute as any loaded submodule is)
        assert {n for n in dir(bpc) if not n.startswith("_")} - {"cli"} == set(bpc.__all__)
        for name, module in names.items():
            assert getattr(bpc, name) is getattr(importlib.import_module(f"bpc.{module}"), name)
        for module in homes:
            assert getattr(bpc, module) is importlib.import_module(f"bpc.{module}")
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            bpc.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from bpc import no_such_name  # noqa: F401

    @pytest.mark.parametrize("module", ["analysis", "d1_codec", "d2_codec", "errors",
                                        "perm_core", "tn_codec"])
    def test_each_module_lists_its_names_from_the_package_table(self, module):
        import importlib

        import bpc

        home = importlib.import_module(f"bpc.{module}")
        assert home.__all__ is bpc._EXPORTS[module]
        namespace = {}
        exec(f"from bpc.{module} import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(home.__all__)

    @pytest.mark.parametrize("argv", [
        ("encode", "d1", "--n", "12", "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1"),
        ("verify", "--preset", "d1", "--perm", EX1_TEXT),
        ("disc", "--perm", EX1_TEXT, "--b", "3"),
    ])
    def test_command_loads_only_what_it_runs(self, argv):
        probe = ("import sys\n"
                 "from bpc.cli import run\n"
                 "code = run(sys.argv[1:])\n"
                 "print(code, sorted(m for m in ('bpc.analysis', 'bpc.d2_codec', 'bpc.tn_codec')"
                 " if m in sys.modules))\n")
        assert _probe(probe, *argv)[-1] == "0 []"


class TestExitCodes:
    def test_help_names_the_pruned_search(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "pruned-search censuses and rate reports" in out

    @pytest.mark.parametrize("argv", [
        ("encode", "d2", "--input"),
        ("encode", "tn", "--input"),
        ("analyze", "claims", "--config", "d1", "--perms"),
    ])
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xff\xfe" + EX1_TEXT.encode("utf-16-le"))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "not UTF-8" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "encode", "d1", "--n", "12")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_perm_text(self, capsys):
        code, _, err = run(capsys, "disc", "--perm", "1 two 3", "--b", "2")
        assert code == 2
        assert err == "error: bad symbol 'two' at position 2\n"

    def test_bad_token_in_a_long_perm_gives_a_short_error(self, capsys):
        tokens = [str(v) for v in range(1, 40_001)]
        tokens[29_999] = "x"
        code, out, err = run(capsys, "decode", "d1", "--perm", " ".join(tokens))
        assert (code, out) == (2, "")
        assert err == "error: bad symbol 'x' at position 30000\n"
        assert len(err.encode()) < 200
        code, _, err = run(capsys, "decode", "d1", "--perm", "1 " + "y" * 100_000)
        assert (code, err) == (2, "error: bad symbol 'yyyyyyyyyyyy'... at position 2\n")

    @pytest.mark.parametrize("argv, error", [
        (("decode", "d1", "--perm", "1_0 1 2 3 4 5 6 7 8 9"),
         "error: bad symbol '1_0' at position 1\n"),
        (("encode", "d1", "--n", "4", "--i1", "0", "--i2", "\u0661"),
         "error: ranks must be decimal integers\n"),
        (("analyze", "census", "--n", "\u0661\u0660", "--preset", "d1"), "--n"),
        (("analyze", "rate", "--config", "d1", "--n", "1_2"), "bad integer list"),
    ])
    def test_only_ascii_decimal_integers_are_read(self, capsys, argv, error):
        # int() would read "1_0" as 10, and the Arabic-Indic digits as 1 and 10
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert error in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "census", "--n", "4", "--blocks", "2", "--dev-max", "1_0"),
        ("analyze", "census", "--n", "4", "--blocks", "2", "--dev-max", "\u0661/\u0662"),
        ("analyze", "rate", "--config", "d2", "--n", "64", "--epsilon", " 1/2 "),
        ("analyze", "rate", "--config", "d2", "--n", "64", "--epsilon", "1 / 2"),
        ("analyze", "rate", "--config", "d2", "--n", "64", "--epsilon", "0.5_0"),
        ("analyze", "rate", "--config", "tn", "--n", "64", "--epsilon-k", "\u0660.5"),
    ])
    def test_only_ascii_rationals_are_read(self, capsys, argv):
        # Fraction() would read "1_0" as 10, the Arabic-Indic "1/2" as 1/2,
        # and the padded and spaced "1/2" as 1/2
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "bad rational" in err

    @pytest.mark.parametrize("text, stored", [
        ("2", "2"), ("3/2", "3/2"), ("0.6", "3/5"), ("1.5", "3/2"), ("1e3", "1000"),
    ])
    def test_ascii_rationals_are_read_as_fraction_reads_them(self, capsys, text, stored):
        code, out, err = run(capsys, "analyze", "census", "--n", "4",
                             "--blocks", "2", "--dev-max", text)
        assert (code, err) == (0, "")
        assert json.loads(out)["dev_max"] == {"2": stored}

    def test_epsilon_spellings_of_one_rational_agree(self, capsys):
        outs = {run(capsys, "analyze", "rate", "--config", "tn", "--n", "64",
                    "--epsilon-k", text)[1] for text in ("1/2", "0.5", "5e-1", "+.5")}
        assert len(outs) == 1
        assert json.loads(outs.pop())["config"] == "tn(k=8, eps_k=1/2)"

    def test_unexpected_exception_is_a_defect(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("handler fell over")

        monkeypatch.setattr(cli, "_cmd_disc", boom)
        code, out, err = run(capsys, "disc", "--perm", "1 2 3", "--b", "2")
        assert (code, out) == (3, "")
        assert err == "defect: unexpected RuntimeError: handler fell over\n"

    def test_defect_exit_three(self, capsys, monkeypatch):
        def boom(inp):
            raise SourceExhausted("mandated source empty", n=12)

        # the handler imports encode_d1 when it runs, so the patch reaches it
        monkeypatch.setattr(d1_codec, "encode_d1", boom)
        code, _, err = run(capsys, "encode", "d1", "--n", "12",
                           "--gamma1", "3,4,1,2,5,6", "--gamma2", "6,5,4,3,2,1")
        assert code == 3
        assert "defect" in err
        assert "n" in err  # the witness state is printed
