"""The doubled prefix deviations D of a permutation are derived once, into its
``_devs2`` memo, and every exact checker reads them from there:
``verify_balance``, ``disc`` and the three claim suites.

Each of them gives the same answer with an empty memo, with a filled one and
as the slow references in support.py: exhaustively at n <= 7, and on seeded
codewords and corrupted codewords at n = 1024 and 4096.  All readers of one
permutation share one D object; the list that ``prefix_deviations_doubled``
returns is a copy, so mutating it changes no later verdict; and the memo is
no part of the value.
"""

import copy
import pickle
import random
from itertools import permutations

import pytest

from bpc import (
    D2Params,
    Permutation,
    TnParams,
    d1_claim_suite,
    d1_preset,
    d2_claim_suite,
    d2_preset,
    disc,
    encode_d1,
    encode_d2,
    encode_tn,
    prefix_deviations_doubled,
    random_valid_input,
    tn_claim_suite,
    verify_balance,
)
from support import (
    allowance_specs,
    brute_window_max_dev,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_d1_claim_suite,
    reference_d2_claim_suite,
    reference_devs2,
    reference_tn_claim_suite,
    reference_verify_balance,
)


class Readers:
    """Every reader of D on permutations of one length: the balance specs
    for ``verify_balance``, the window lengths for ``disc`` and the claim
    suites with their configs, each beside its slow reference."""

    def __init__(self, n, specs=(), bs=(), d2=None, tn=None):
        self.specs, self.bs = list(specs), list(bs)
        self.suites = [(d1_claim_suite, reference_d1_claim_suite, n)]
        if d2 is not None:
            self.suites.append((d2_claim_suite, reference_d2_claim_suite, D2Params(n, d2)))
        if tn is not None:
            self.suites.append((tn_claim_suite, reference_tn_claim_suite, TnParams(n, tn)))

    def answers(self, perm):
        """Every reader's answer, each on the permutation ``perm()`` returns."""
        return ([verify_balance(perm(), spec) for spec in self.specs]
                + [disc(perm(), b) for b in self.bs]
                + [suite([perm()], config).to_json_dict() for suite, _, config in self.suites])

    def references(self, pi):
        return ([reference_verify_balance(pi, spec) for spec in self.specs]
                + [brute_window_max_dev(pi.values, b) for b in self.bs]
                + [reference([pi], config).to_json_dict() for _, reference, config in self.suites])

    def check(self, values):
        """The answers on ``values`` with a new, empty memo for each reader,
        then with one memo filled beforehand, against the references'."""
        filled = Permutation(values)
        expected = self.references(filled)
        assert self.answers(lambda: Permutation(values)) == expected
        prefix_deviations_doubled(filled)
        assert filled._devs2 is not None
        assert self.answers(lambda: filled) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_every_reader_agrees_with_and_without_the_memo_exhaustively(n):
    # the last allowance spec varies the allowance with the length, from 0 up
    readers = Readers(n, specs=[d1_preset(n), allowance_specs(n)[-1]], bs=range(1, n + 1),
                      d2=4 if n == 4 else None, tn=2 if n == 4 else None)
    for values in permutations(range(1, n + 1)):
        readers.check(values)


def corrupted(rng: random.Random, values, adjacent: bool) -> tuple[int, ...]:
    """``values`` after 2-4 swaps, of neighbors or of any two positions."""
    values = list(values)
    for _ in range(rng.randint(2, 4)):
        a = rng.randrange(len(values) - 1)
        c = a + 1 if adjacent else rng.randrange(len(values))
        values[a], values[c] = values[c], values[a]
    return tuple(values)


# each codec's words against its own spec and suite: a spec far from the
# words would list most of the n * |lengths| windows
LARGE = {
    "d1-1024": (lambda rng: encode_d1(random_d1_input(rng, 1024)),
                lambda: Readers(1024, specs=[d1_preset(1024)], bs=(2, 31, 512))),
    "d2-4096": (lambda rng: encode_d2(random_d2_input(rng, D2Params(4096, 64))),
                lambda: Readers(4096, specs=[d2_preset(4096, 64)], bs=(2, 17), d2=64)),
    "tn-4096": (lambda rng: encode_tn(random_valid_input(TnParams(4096, 16), rng)),
                lambda: Readers(4096, bs=(2, 17, 2048), tn=16)),
}


@pytest.mark.parametrize("codec", LARGE)
def test_every_reader_agrees_with_and_without_the_memo_on_large_words(codec):
    encode, readers = LARGE[codec]
    rng = random.Random(codec)
    codeword = encode(rng).values
    for values in (codeword, corrupted(rng, codeword, True), corrupted(rng, codeword, False)):
        readers().check(values)


def test_one_deviation_sequence_serves_every_reader():
    n = 16
    rng = random.Random(16)
    spec, params_d2, params_tn = d2_preset(n, 4), D2Params(n, 4), TnParams(n, 4)
    readers = [lambda pi: verify_balance(pi, spec),
               lambda pi: disc(pi, 5),
               lambda pi: d1_claim_suite([pi], n),
               lambda pi: d2_claim_suite([pi], params_d2),
               lambda pi: tn_claim_suite([pi], params_tn),
               prefix_deviations_doubled]
    words = [encode_tn(random_valid_input(params_tn, rng)).values,
             random_permutation(rng, n).values]
    for values in words:
        for first in range(len(readers)):
            pi = Permutation(values)
            assert pi._devs2 is None
            readers[first](pi)
            devs2 = pi._devs2
            assert type(devs2) is tuple and list(devs2) == reference_devs2(pi)
            for read in readers:
                read(pi)
                assert pi._devs2 is devs2


def test_mutating_the_public_list_changes_no_later_verdict():
    n = 64
    rng = random.Random(6400)
    readers = Readers(n, specs=[d1_preset(n), d2_preset(n, 8)], bs=(3, 32),
                      d2=8, tn=4)
    codeword = encode_tn(random_valid_input(TnParams(n, 4), rng))
    for values in (codeword.values, corrupted(rng, codeword.values, False)):
        expected = readers.references(Permutation(values))
        for fill_first in (False, True):
            pi = Permutation(values)
            if fill_first:
                readers.answers(lambda: pi)
            public = prefix_deviations_doubled(pi)
            assert type(public) is list and public == reference_devs2(pi)
            assert public is not pi._devs2
            public.reverse()
            public[1:3] = [10 ** 9]
            public.append(-1)
            assert prefix_deviations_doubled(pi) == reference_devs2(pi)
            assert readers.answers(lambda: pi) == expected


def test_the_memo_is_no_part_of_the_value():
    values = (3, 1, 4, 2, 5)
    filled, empty = Permutation(values), Permutation(values)
    disc(filled, 2)
    assert filled._devs2 == (0, 0, -4, -2, -4, 0) and empty._devs2 is None
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty) == "Permutation(values=(3, 1, 4, 2, 5))"
    assert pickle.dumps(filled) == pickle.dumps(empty)
    for back in (pickle.loads(pickle.dumps(filled)), copy.copy(filled), copy.deepcopy(filled)):
        assert back == filled and back._devs2 is None
    with pytest.raises(AttributeError, match="cannot assign to field '_devs2'"):
        filled._devs2 = None
    assert filled._devs2 == (0, 0, -4, -2, -4, 0)
