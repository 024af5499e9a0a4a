"""The examples in the documentation run: every ``>>>`` example in the
``bpc`` modules, and the README's ``python`` quick start."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bpc
import bpc.perm_core

MODULES = [info.name for info in pkgutil.iter_modules(bpc.__path__, "bpc.")]


@pytest.mark.parametrize("name", ["bpc", *MODULES])
def test_module_examples(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_the_examples_are_found():
    assert doctest.testmod(bpc.perm_core).attempted >= 4


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
