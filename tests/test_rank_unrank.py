"""rank/unrank by a product tree over runs of radices against the per-symbol
references.

The references in ``support`` do one full-width big-int operation per symbol;
the library splits (or folds) the index along a balanced product tree whose
leaves are runs of 32 radices.  Both must agree exactly on
every index they accept, and raise the same ``IndexOutOfRange`` message on
every index they reject.
"""

import math
import random
import sys
from contextlib import contextmanager

import pytest

from bpc import IndexOutOfRange, ParamInvalid, Permutation, rank, unrank
from bpc.perm_core import _factoradic
from support import default_digit_limit, reference_rank, reference_unrank


@contextmanager
def exact_decimal_ints():
    """Lift the int-to-str digit limit, so messages naming huge ranks format."""
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def assert_agrees(index, n):
    pi = unrank(index, n)
    assert pi == reference_unrank(index, n)
    assert rank(pi) == reference_rank(pi) == index


def edge_and_seeded_indices(n, seed, count):
    bound = math.factorial(n)
    rng = random.Random(f"{seed}/{n}")
    edges = {i for i in (0, 1, bound - 2, bound - 1) if 0 <= i < bound}
    return sorted(edges) + [rng.randrange(bound) for _ in range(count)]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_index_exhaustively(n):
    for index in range(math.factorial(n)):
        assert_agrees(index, n)


@pytest.mark.parametrize("n", [*range(1, 65), *range(1020, 1031)])
def test_edge_and_seeded_indices(n):
    for index in edge_and_seeded_indices(n, 7101, 4 if n > 64 else 12):
        assert_agrees(index, n)


@pytest.mark.parametrize("n", (2048, 4096))
def test_seeded_indices_at_benchmark_sizes(n):
    for index in edge_and_seeded_indices(n, 7102, 3):
        assert_agrees(index, n)


# tree shapes: 1, 2 and 3 leaves, and 2**k and 2**k + 1 leaves, where an odd
# last node is carried up through every level
LEAF_COUNTS = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129)


LENGTHS_BY_LEAVES = {}
for _n in range(1, 4200):
    LENGTHS_BY_LEAVES.setdefault(-(-_n // 32), []).append(_n)  # runs of 32 radices


def lengths_with_leaves(leaves):
    """The least and the greatest n whose radix runs number ``leaves``."""
    ns = LENGTHS_BY_LEAVES[leaves]
    return ns[0], ns[-1]


@pytest.mark.parametrize("leaves", LEAF_COUNTS)
def test_every_tree_shape_at_edge_indices(leaves):
    for n in lengths_with_leaves(leaves):
        assert len(_factoradic(n)[2][0]) == leaves
        for index in edge_and_seeded_indices(n, 7105, 2):
            assert_agrees(index, n)


@pytest.mark.parametrize("leaves", LEAF_COUNTS)
def test_product_tree_levels(leaves):
    for n in lengths_with_leaves(leaves):
        _, runs, tree = _factoradic(n)
        assert tree[0] == tuple(map(math.prod, runs))
        for below, level in zip(tree, tree[1:]):
            assert level == tuple(math.prod(below[i:i + 2]) for i in range(0, len(below), 2))
        assert tree[-1] == (math.factorial(n),)


def test_seeded_roundtrip_at_8192():
    n = 8192
    index = random.Random(7106).randrange(math.factorial(n))
    pi = unrank(index, n)
    assert rank(pi) == reference_rank(pi) == index


def test_rank_of_random_permutations():
    rng = random.Random(7103)
    for n in (1, 2, 3, 9, 17, 100, 1025, 2048):
        values = list(range(1, n + 1))
        for _ in range(3):
            rng.shuffle(values)
            pi = Permutation(tuple(values))
            assert rank(pi) == reference_rank(pi)
            assert unrank(rank(pi), n) == pi


# indices past either end; labels, since pytest cannot print a 5000-digit id
OUT_OF_RANGE = {
    "n!": math.factorial,
    "-1": lambda n: -1,
    "-10**40": lambda n: -(10 ** 40),
    "7*n!+3": lambda n: 7 * math.factorial(n) + 3,
    "10**5000": lambda n: 10 ** 5000,
}


@pytest.mark.parametrize("case, n", [
    *(("n!", n) for n in (1, 2, 3, 8, 13, 14, 20, 31, 32, 64, 86, 87, 1025)),
    *(("-1", n) for n in (1, 2, 8, 25, 36, 1025)),
    ("-10**40", 20), ("7*n!+3", 20),
    *(("10**5000", n) for n in (5, 12, 19, 90, 1025)),
])
def test_out_of_range_message_matches_reference(case, n):
    index = OUT_OF_RANGE[case](n)
    with exact_decimal_ints():
        with pytest.raises(IndexOutOfRange) as expected:
            reference_unrank(index, n)
        with pytest.raises(IndexOutOfRange) as got:
            unrank(index, n)
    assert str(got.value) == str(expected.value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit")
@pytest.mark.parametrize("sign, text", [(1, "<16610-bit integer>"),
                                        (-1, "-<16610-bit integer>")])
def test_out_of_range_past_the_digit_limit_names_the_bit_length(sign, text):
    # 10**5000 has 5001 digits, past the default limit of 4300
    with default_digit_limit(), pytest.raises(IndexOutOfRange) as got:
        unrank(sign * 10 ** 5000, 5)
    assert str(got.value) == f"rank {text} outside [0, 5!)"


def test_bad_length_matches_reference():
    for n in (0, -3):
        with pytest.raises(ParamInvalid, match="length must be >= 1"):
            unrank(0, n)
        with pytest.raises(ParamInvalid, match="length must be >= 1"):
            reference_unrank(0, n)


@pytest.mark.parametrize("index, n", [
    (True, 3), (False, 3), (2.0, 3), ("2", 3), (0, True), (0, 3.0), (0, "3"),
])
def test_non_int_index_or_length_is_rejected(index, n):
    # a bool is not read as 0 or 1, and a float is not truncated
    with pytest.raises(ParamInvalid, match="expected an integer"):
        unrank(index, n)


@pytest.mark.parametrize("n", (1, 2, 13, 14, 31, 32, 33, 64, 65, 1024, 2048, 4096))
def test_radix_groups_cover_every_radix_once_in_runs_of_32(n):
    symbols, runs, tree = _factoradic(n)
    assert symbols == tuple(range(1, n + 1))
    assert [r for radices in runs for r in radices] == list(range(1, n + 1))
    assert tree[0] == tuple(map(math.prod, runs))
    assert [len(radices) for radices in runs[:-1]] == [32] * (len(runs) - 1)
    assert 1 <= len(runs[-1]) <= 32
