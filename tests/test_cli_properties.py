"""Property test of the CLI over argv and input-file shapes.

Every run, in-process through ``cli.run``, must end with a documented exit
code other than the defect code: 0 (success or valid), 1 (violation) or 2
(usage or parameter error).  No traceback may reach stderr, and when a run
succeeds with a JSON payload, stdout must parse as JSON.  Lengths stay at
n <= 7 so every search is small, and ``--threads`` is left out so no process
pool starts.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bpc import cli

SMALL = st.integers(-1, 7)
BAD_NUMBER = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "-0", " 3"])
HUGE_NUMBER = st.sampled_from(["1_0", "9" * 30, "-" + "9" * 30, "9" * 5000])
SIZE_TEXT = st.one_of(SMALL.map(str), SMALL.map(str), BAD_NUMBER)  # a length: never past 7
NUMBER_TEXT = st.one_of(SMALL.map(str), SMALL.map(str), BAD_NUMBER, HUGE_NUMBER)
SIZE_LIST = st.lists(SMALL, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
FRACTION_TEXT = st.one_of(
    NUMBER_TEXT,
    st.sampled_from(["1/2", "3/5", "7/2", "-1/2", "1/0", "0.5", "nan", "inf", "2/3", "1/10001"]),
)
PERM_TEXT = st.one_of(
    st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda p: " ".join(map(str, p))),
    st.lists(st.integers(-2, 9), max_size=8).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["3 12 4 11 1 10 2 9 8 5 7 6", "9" * 5000, "1 x 2", "", "-"]),
    st.text(max_size=10),
)
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(), st.text(max_size=3))
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "N", "k", "sigmas", "selector", "x"]), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def codec_document(draw):
    """A codec input near the valid shape: each key may be missing or hold
    a value of the wrong kind."""
    n = draw(st.integers(1, 7))
    size = draw(st.integers(1, 4))
    doc = {
        "n": n,
        draw(st.sampled_from(["N", "k"])): size,
        "sigmas": [list(draw(st.permutations(range(1, size + 1))))
                   for _ in range(draw(st.integers(0, 4)))],
        "selector": draw(st.lists(st.integers(0, 4), max_size=4)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUE)
    return json.dumps(doc).encode()


FILE_BYTES = st.one_of(
    codec_document(),
    JSON_VALUE.map(lambda v: json.dumps(v).encode()),
    st.lists(PERM_TEXT, max_size=4).map(lambda lines: "\n".join(lines).encode()),
    st.sampled_from([b"", b"{", b"\xff\xfe", b'{"n": 1' + b"1" * 5000 + b"}", b"NaN"]),
    st.binary(max_size=20),
)


@st.composite
def options(draw, command, required, optional=None, switches=()):
    """``command`` followed, in random order, by its ``required`` flags
    (each dropped one time in ten), any of the ``optional`` ones and any of
    the bare ``switches``, each flag with a value drawn from its strategy."""
    optional = optional or {}
    chosen = [f for f in required if draw(st.integers(0, 9))]
    chosen += [f for f in [*optional, *switches] if draw(st.booleans())]
    flags = {**required, **optional}
    argv = list(command)
    for flag in draw(st.permutations(chosen)):
        argv += [flag, draw(flags[flag])] if flag in flags else [flag]
    return argv


FORMAT = st.sampled_from(["text", "json", "csv", "xml"])
PATH = st.sampled_from(["@file", "-"])  # the drawn bytes, as a file or on stdin
ARGV = st.one_of(
    options(["encode", "d1"], {"--n": SIZE_TEXT},
            {"--gamma1": PERM_TEXT, "--gamma2": PERM_TEXT, "--i1": NUMBER_TEXT,
             "--i2": NUMBER_TEXT, "--format": FORMAT}, ("--streaming",)),
    options(["encode", "d2"], {"--input": PATH}, switches=("--tie-upper",)),
    options(["encode", "tn"], {"--input": PATH}),
    options(["decode", "d1"], {"--perm": PERM_TEXT}, {"--format": FORMAT}, ("--message",)),
    options(["decode", "d2"], {"--perm": PERM_TEXT, "--n": SIZE_TEXT, "--N": NUMBER_TEXT}),
    options(["decode", "tn"], {"--perm": PERM_TEXT, "--n": SIZE_TEXT, "--k": NUMBER_TEXT}),
    options(["verify"], {"--preset": st.sampled_from(["d1", "d2", "tn-neighbor", "x"]),
                         "--perm": PERM_TEXT}, {"--N": NUMBER_TEXT, "--k": NUMBER_TEXT}),
    options(["disc"], {"--perm": PERM_TEXT, "--b": NUMBER_TEXT}),
    options(["analyze", "census"], {"--n": SIZE_TEXT}, {
        "--preset": st.sampled_from(["d1", "d2", "x"]), "--N": NUMBER_TEXT,
        "--blocks": SIZE_LIST, "--dev-max": FRACTION_TEXT, "--neighbor-k": NUMBER_TEXT,
        "--cap": NUMBER_TEXT, "--limit": NUMBER_TEXT}),
    options(["analyze", "min-disc"], {"--n": SIZE_TEXT, "--b": NUMBER_TEXT},
            {"--limit": NUMBER_TEXT}),
    options(["analyze", "rate"], {
        "--config": st.sampled_from(["d1", "d2", "tn", "x"]),
        "--n": st.one_of(SIZE_LIST, SIZE_TEXT)}, {
        "--N": NUMBER_TEXT, "--epsilon": FRACTION_TEXT, "--k": NUMBER_TEXT,
        "--epsilon-k": FRACTION_TEXT, "--format": FORMAT, "--limit": NUMBER_TEXT}),
    options(["analyze", "claims"], {"--config": st.sampled_from(["d1", "d2", "tn"]),
                                    "--perms": PATH}, {"--N": NUMBER_TEXT, "--k": NUMBER_TEXT}),
)


# The codec options each codec takes, kept here apart from the package's own
# table; a codec option that the codec named by --preset or --config does not
# take (any, when a census names none) is refused with exit code 2.
OWN_OPTIONS = {"d1": (), "d2": ("--N", "--epsilon"), "tn": ("--k", "--epsilon-k"),
               "tn-neighbor": ("--k",)}
CODEC_OPTIONS = ("--N", "--k", "--epsilon", "--epsilon-k")


def foreign_option(argv):
    """The first codec option in ``argv`` that its codec does not take, or None."""
    if argv[0] not in ("verify", "analyze") or argv[1:2] == ["min-disc"]:
        return None  # encode, decode, disc and min-disc name no codec by option
    named = next((value for flag, value in zip(argv, argv[1:])
                  if flag in ("--preset", "--config")), None)
    own = OWN_OPTIONS.get(named, ())
    return next((a for a in argv if a in CODEC_OPTIONS and a not in own), None)


def emits_json(argv):
    """Whether a successful run of ``argv`` writes a JSON payload."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if argv[:2] in (["encode", "d1"], ["decode", "d1"]):
        return fmt == "json"
    if argv[:2] == ["analyze", "rate"]:
        return fmt != "csv"
    return argv[0] in ("decode", "verify", "analyze")


# derandomized, so a run of the suite always checks the same cases
@settings(deadline=None, max_examples=300, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=ARGV, payload=FILE_BYTES)
# an int in the JSON past the digit limit; a cap past sys.maxsize
@example(argv=["encode", "d2", "--input", "@file"],
         payload=b'{"n": 1' + b"1" * 5000 + b"}")
@example(argv=["analyze", "census", "--n", "5", "--preset", "d1", "--cap", "9" * 30],
         payload=b"")
def test_every_run_ends_with_a_documented_exit_code(argv, payload, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(payload)
    argv = [str(path) if a == "@file" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if foreign_option(argv) is not None:
        assert code == 2, (argv, code, out.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and emits_json(argv):
        json.loads(out.getvalue())
