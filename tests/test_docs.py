"""The examples in the documentation run: every ``>>>`` example in the
``bpc`` modules, the README's ``python`` quick start, and the ``bpc``
command lines of the README's ``sh`` blocks.  The README's claims table
names the bounds that the claim suites report, and the largest n the size
limit admits is stated as it is computed."""

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import bpc
import bpc.perm_core
from bpc import D2Params, TnParams, cli, d1_claim_suite, d2_claim_suite, identity, tn_claim_suite
from bpc._util import ceil_rational_power
from support import LARGEST_N

MODULES = [info.name for info in pkgutil.iter_modules(bpc.__path__, "bpc.")]
README = Path(__file__).resolve().parent.parent / "README.md"
FILE_OPTIONS = ("--input", "--perms")  # their values name files the README does not ship


def readme_command_lines() -> list[str]:
    """Each ``bpc ...`` line of the README's ``sh`` blocks, comment cut off,
    in both forms of a ``[...]`` optional part: without it and with it."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.splitlines():
            line = line.split("  #")[0].strip()
            if line.startswith("bpc "):
                lines.append(re.sub(r"\s*\[[^]]*\]", "", line))
                if "[" in line:
                    lines.append(re.sub(r"\[([^]]*)\]", r"\1", line))
    return lines


@pytest.mark.parametrize("name", ["bpc", *MODULES])
def test_module_examples(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_the_examples_are_found():
    assert doctest.testmod(bpc.perm_core).attempted >= 4


def test_readme_quick_start():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_lines_are_found():
    lines = readme_command_lines()
    assert len(lines) >= 14
    assert "bpc decode d1 --perm \"3 12 4 11 1 10 2 9 8 5 7 6\" --message" in lines


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_parses(line, capsys):
    argv = shlex.split(line)[1:]
    try:
        cli._build_parser(argv).parse_args(argv)
    except SystemExit:
        pytest.fail(f"the parser refuses {line!r}: {capsys.readouterr().err}")
    if "..." in line or any(option in argv for option in FILE_OPTIONS):
        return  # a placeholder or a file argument: parsed, not run
    assert cli.run(argv) == 0, capsys.readouterr().err


def test_readme_claims_table_names_every_bound_in_order():
    rows = re.findall(r"^\| (d1|d2|tn) \| `(\w+)` \|", README.read_text(), re.MULTILINE)
    listed = {codec: [name for c, name in rows if c == codec] for codec in ("d1", "d2", "tn")}
    reports = {"d1": d1_claim_suite([identity(24)], 24),
               "d2": d2_claim_suite([identity(24)], D2Params(24, 4)),
               "tn": tn_claim_suite([identity(24)], TnParams(24, 4))}
    assert listed == {codec: [b.name for b in report.bounds]
                      for codec, report in reports.items()}


def test_the_largest_n_under_the_size_limit_is_stated_as_computed():
    readme = " ".join(README.read_text().split())
    factoradic = " ".join(bpc.perm_core._factoradic.__doc__.split())
    root = " ".join(ceil_rational_power.__doc__.split())
    assert re.findall(r"largest n whose n! passes is (\d+)\.", readme) == [str(LARGEST_N)]
    for text in (readme, factoradic):
        assert re.findall(r"n = ([\d,]+), the largest n", text) == [f"{LARGEST_N:,}"]
    # the root's domain, and the bound on its bisection's steps
    for text, pattern in ((root, r"n <= (\d+) < 2\*\*(\d+)"), (readme, r"n ≤ (\d+) < 2\^(\d+)")):
        assert re.findall(pattern, text) == [(str(LARGEST_N), "18")]
    assert LARGEST_N < 2 ** 18
