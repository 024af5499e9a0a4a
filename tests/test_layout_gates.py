"""The encoders' layout loops and the table-driven ``_project`` against the
emitter-driven encoders and the arithmetic projection they replaced
(``tests/support.py``): exhaustively at small n, on seeded inputs at n = 4096.
"""

import itertools
import random
from math import factorial

import pytest

from bpc import (
    D1Input,
    D2Input,
    D2Params,
    Permutation,
    SelectorViolation,
    SourceExhausted,
    TnInput,
    TnParams,
    decode_tn,
    encode_d1,
    encode_d1_streaming,
    encode_d2,
    encode_tn,
    interleave,
    random_valid_input,
)
from bpc.perm_core import _project
from support import (
    all_d1_inputs,
    all_d2_inputs,
    appends_project,
    emitter_encode_d1,
    emitter_encode_d2,
    emitter_encode_tn,
    random_d1_input,
    random_d2_input,
    random_permutation,
    reference_decode_tn,
    reference_encode_d1_streaming,
)

# every d2 shape (n, N) with at most 10**4 inputs, (n/N)!**N, and n <= 64
D2_SMALL_SHAPES = [(n, N) for N in range(4, 65, 4) for n in range(N, 65, N)
                   if factorial(n // N) ** N <= 10 ** 4]


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_d1_matches_the_emitter_on_every_input(n):
    for inp in all_d1_inputs(n):
        pi = encode_d1(inp)
        assert pi == emitter_encode_d1(inp)
        reference, steps = reference_encode_d1_streaming(inp)
        streamed, trace = encode_d1_streaming(inp)
        assert streamed == pi and pi.values == reference
        assert [(s.position, s.moved_symbol) for s in trace.steps] == steps
        pairs = zip(inp.gamma1.values, (v + n // 2 for v in inp.gamma2.values))
        assert interleave(inp).values == tuple(v for pair in pairs for v in pair)


def test_d2_small_shapes_cover_every_block_size_to_three():
    assert {n // N for n, N in D2_SMALL_SHAPES} == {1, 2, 3}
    assert (12, 4) in D2_SMALL_SHAPES and (24, 12) in D2_SMALL_SHAPES
    assert (16, 4) not in D2_SMALL_SHAPES  # 24**4 inputs


@pytest.mark.parametrize("n, N", D2_SMALL_SHAPES)
@pytest.mark.parametrize("tie_to_upper", (False, True))
def test_d2_matches_the_emitter_on_every_input(n, N, tie_to_upper):
    for inp in all_d2_inputs(D2Params(n, N)):
        assert (encode_d2(inp, tie_to_upper=tie_to_upper)
                == emitter_encode_d2(inp, tie_to_upper=tie_to_upper))


def outcome(encode, inp):
    """The codeword, or the ``SelectorViolation``'s message and state."""
    try:
        return encode(inp).values
    except SelectorViolation as exc:
        return str(exc), exc.step, exc.selected, exc.mandated, exc.remaining


@pytest.mark.parametrize("n, k, sigma_sets", [(8, 2, 16), (8, 4, 24), (12, 2, 2)])
def test_tn_matches_the_emitter_on_every_selector(n, k, sigma_sets):
    # every selector in [1, m]**(n/2), valid or not: equal codewords, or equal
    # violations (message, step, selected set, mandated half, remaining)
    params = TnParams(n, k)
    per_set = list(itertools.permutations(range(1, k + 1)))
    combos = list(itertools.product(per_set, repeat=params.m))
    # code_size counts the runs over every ordering, and each ordering has as many
    runs_per_ordering = params.code_size // len(combos)
    for combo in random.Random(n * k).sample(combos, sigma_sets):
        sigmas, valid = tuple(map(Permutation, combo)), 0
        for selector in itertools.product(range(1, params.m + 1), repeat=n // 2):
            inp = TnInput(params, sigmas, selector)
            new = outcome(encode_tn, inp)
            assert new == outcome(emitter_encode_tn, inp), selector
            if isinstance(new[0], int):
                valid += 1
                pi = Permutation(new)
                assert decode_tn(pi, params) == reference_decode_tn(pi, params) == inp
        assert valid == runs_per_ordering


@pytest.mark.parametrize("seed", range(3))
def test_seeded_codewords_at_4096(seed):
    rng = random.Random(2400 + seed)
    inp = random_d1_input(rng, 4096)
    assert encode_d1(inp) == emitter_encode_d1(inp)
    for N in (64, 16):
        inp = random_d2_input(rng, D2Params(4096, N))
        for tie in (False, True):
            assert encode_d2(inp, tie_to_upper=tie) == emitter_encode_d2(inp, tie_to_upper=tie)
    inp = random_valid_input(TnParams(4096, 16), rng)
    assert encode_tn(inp) == emitter_encode_tn(inp)
    selector = list(inp.selector)
    selector[100], selector[101] = selector[101], selector[100]
    broken = TnInput(inp.params, inp.sigmas, tuple(selector))
    assert outcome(encode_tn, broken) == outcome(emitter_encode_tn, broken)


@pytest.mark.parametrize("n", range(1, 13))
def test_project_matches_the_arithmetic_projection_at_every_small_shape(n):
    rng = random.Random(n)
    perms = ([Permutation(p) for p in itertools.permutations(range(1, n + 1))] if n <= 6
             else [random_permutation(rng, n) for _ in range(300)])
    for size in (s for s in range(1, n + 1) if n % s == 0):
        for pi in perms:
            assert _project(pi, size) == appends_project(pi, size)


@pytest.mark.parametrize("size", (2048, 64, 16))
def test_project_matches_the_arithmetic_projection_at_4096(size):
    rng = random.Random(size)
    for _ in range(5):
        pi = random_permutation(rng, 4096)
        assert _project(pi, size) == appends_project(pi, size)


@pytest.mark.parametrize("encode, inp", [
    (encode_d1, D1Input._trusted(Permutation._trusted((2, 1)), Permutation._trusted((1,)))),
    (encode_d2, D2Input._trusted(D2Params(8, 4), (
        Permutation._trusted((1,)), *(Permutation((1, 2)),) * 3))),
    (encode_d2, D2Input._trusted(D2Params(8, 4), (
        Permutation((2, 1)), Permutation._trusted(()), *(Permutation((1, 2)),) * 2))),
], ids=["d1-short-high", "d2-short-lower-pair", "d2-empty-upper-pair"])
def test_a_layout_with_a_short_block_raises_source_exhausted(encode, inp):
    # the public constructors refuse such inputs; only a broken invariant
    # leaves a mandated block empty, and the run stops with its witness state
    with pytest.raises(SourceExhausted) as err:
        encode(inp)
    state = err.value.state
    assert set(state) == {"emitted", "dev_twice", "mandated", "remaining"}
    assert state["mandated"] and all(state["remaining"][b] == 0 for b in state["mandated"])
    assert str(err.value).startswith(f"mandated block(s) {state['mandated'][0]} empty after "
                                     f"{state['emitted']} symbols")
