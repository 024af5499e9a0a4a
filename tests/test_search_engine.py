"""The pruned searches behind census, min_disc and tn_code_size must agree
exactly with the slow full-enumeration oracles in ``support``."""

import concurrent.futures
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from bpc import (
    BalanceSpec,
    CensusResult,
    LimitExceeded,
    NeighborSpec,
    ParamInvalid,
    SpecMismatch,
    TnParams,
    census,
    d1_preset,
    min_disc,
    tn_code_size,
)
from bpc import analysis
from support import (
    allowance_specs,
    allowances,
    reference_census,
    reference_min_disc,
    reference_search_census,
    reference_search_min_disc,
    reference_tn_code_size,
)


def random_allowance(rng: random.Random, n: int, b: int) -> Fraction:
    """Zero, half-integer, thirds, or at or past b*(n-b)/2 (never violable)."""
    reach = b * (n - b)  # largest doubled deviation of a length-b window
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(0, reach + 1), 2)
    if kind == 2:
        return Fraction(rng.randint(0, 3 * reach // 2 + 2), 3)
    return Fraction(reach + rng.randint(0, 2), 2)


def random_census_case(rng: random.Random, n: int):
    blocks = tuple(b for b in range(1, n + 1) if rng.random() < 0.4)
    spec = BalanceSpec(n, blocks, {b: random_allowance(rng, n, b) for b in blocks})
    neighbor = NeighborSpec(rng.randint(1, n - 1)) if n >= 3 and rng.random() < 0.4 else None
    cap = rng.choice((0, 1, 5, factorial(n)))
    return spec, neighbor, cap


def census_cases():
    rng = random.Random(20160)
    cases = []
    for n in range(1, 8):
        full = factorial(n)
        cases += [(BalanceSpec(n, (), {}), None, cap) for cap in (0, full)]  # no blocks
        cases.append((d1_preset(n), None, 5))               # nothing violable
        zero = tuple(range(1, n + 1))
        cases.append((BalanceSpec(n, zero, dict.fromkeys(zero, Fraction(0))), None, full))
        if n >= 3:
            cases.append((BalanceSpec(n, (), {}), NeighborSpec(1), full))
            cases.append((d1_preset(n), NeighborSpec(n - 2), 1))
        cases += [random_census_case(rng, n) for _ in range(30)]
    return cases


CENSUS_CASES = census_cases()


@pytest.mark.parametrize("n", range(1, 8))
def test_census_matches_full_enumeration(n):
    cases = [c for c in CENSUS_CASES if c[0].n == n]
    for spec, neighbor, cap in cases:
        got = census(n, spec, neighbor=neighbor, cap=cap, workers=0)
        want = reference_census(n, spec, neighbor=neighbor, cap=cap)
        assert got == want, (spec, neighbor, cap)
        assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("n", range(1, 8))
def test_census_reads_the_stored_limits(n):
    # the limits BalanceSpec derives at construction, against the reference's
    # own comparison |2w - b(n+1)| * q > 2p at every allowance; on a single
    # length the tight allowances leave some censuses non-empty
    single = [BalanceSpec(n, (b,), {b: a}) for a in allowances(n) for b in range(1, n + 1)]
    for spec in single + allowance_specs(n):
        got = census(n, spec, cap=3)
        assert got.to_json_dict() == reference_census(n, spec, cap=3).to_json_dict(), spec


def test_census_cases_cover_every_kind():
    allowances = [(spec.n, b, spec.dev_max[b]) for spec, _, _ in CENSUS_CASES
                  for b in spec.blocks]
    assert any(a == 0 for _, _, a in allowances)
    assert any(a.denominator == 2 for _, _, a in allowances)
    assert any(a.denominator == 3 for _, _, a in allowances)
    assert any(2 * a >= b * (n - b) > 0 for n, b, a in allowances)
    assert any(len(spec.blocks) >= 2 and spec.blocks[-1] - spec.blocks[0] >= len(spec.blocks)
               for spec, _, _ in CENSUS_CASES)  # non-contiguous
    assert {cap for _, _, cap in CENSUS_CASES} >= {0, 1, 5, 5040}
    assert any(nb is not None for _, nb, _ in CENSUS_CASES)


def test_census_worker_counts_agree():
    for spec, neighbor, cap in CENSUS_CASES[::12]:
        n = spec.n
        assert (census(n, spec, neighbor=neighbor, cap=cap, workers=2)
                == census(n, spec, neighbor=neighbor, cap=cap, workers=0))


def searched_census_cases(n: int):
    """Seeded specs at n = 8 or 9, each with a length it can violate: the
    allowance is at most a third of the length's reach, so the reference
    search stays short, and half the specs carry a neighbor bound."""
    rng = random.Random(3300 + n)
    cases = [(BalanceSpec(n, (2,), {2: Fraction(3, 2)}), None),  # the benchmark's sparse census
             # 2 passing permutations at n = 8 and 4 at n = 9, fewer than a cap of 8
             (BalanceSpec(n, (2, n - 3), {2: Fraction(3, 2), n - 3: Fraction(2)}), None)]
    for neighbor in (False, True):
        for _ in range(4):
            blocks = tuple(sorted(rng.sample(range(2, n), rng.randint(1, 3))))
            dev_max = {b: Fraction(rng.randint(0, b * (n - b) // 3), 2) for b in blocks}
            cases.append((BalanceSpec(n, blocks, dev_max),
                          NeighborSpec(rng.randint(1, n - 1)) if neighbor else None))
    return cases


@pytest.mark.parametrize("n", [8, 9])
def test_census_matches_the_search_over_every_first_symbol(n, monkeypatch):
    # the census searches first symbols 1..ceil(n/2) and doubles their counts;
    # the reference searches all n.  A second fan-out is the fallback
    fan_outs = []
    fan_out = analysis._fan_out

    def recording_fan_out(scan, tasks, workers):
        fan_outs.append([t[1] for t in tasks])
        return fan_out(scan, tasks, workers)

    monkeypatch.setattr(analysis, "_fan_out", recording_fan_out)
    half, fallbacks, counts = (n + 1) // 2, 0, set()
    for spec, neighbor in searched_census_cases(n):
        want = reference_search_census(n, spec, neighbor=neighbor, cap=factorial(n))
        counts.add(want.count)
        for cap in (0, 1, 8, factorial(n)):
            fan_outs.clear()
            got = census(n, spec, neighbor=neighbor, cap=cap, workers=0)
            assert got.to_json_dict() == CensusResult(
                n, spec, neighbor, want.count, want.achievers[:cap]).to_json_dict(), (spec, cap)
            assert fan_outs[0] == list(range(1, half + 1))
            assert fan_outs[1:] in ([], [list(range(half + 1, n + 1))])
            # the half's tasks list up to cap each; the rest is searched only
            # when the count says that achievers the cap wants lie past them
            held = sum(min(cap, sum(p.values[0] == first for p in want.achievers))
                       for first in range(1, half + 1))
            assert len(fan_outs) == 1 + (held < min(cap, want.count))
            fallbacks += len(fan_outs) == 2
    assert fallbacks and 0 in counts and any(0 < c < 8 for c in counts) and max(counts) > 8


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_by_first_symbol_are_palindromic(n):
    # the complement v -> n+1-v negates every window deviation and keeps every
    # neighbor gap, so first symbols v and n+1-v start equally many passing
    # permutations: the fact the census's doubled half-count rests on
    rng = random.Random(3310 + n)
    for _ in range(8):
        spec, neighbor, _ = random_census_case(rng, n)
        limits = list(spec._limits.items())
        k = neighbor.k if neighbor else None
        counts = [analysis._search((n, first, limits, k, 0))[0] for first in range(1, n + 1)]
        assert counts == counts[::-1], (spec, neighbor)


@pytest.mark.parametrize("b", range(2, 9))
def test_min_disc_matches_the_search_over_every_first_symbol(b):
    assert min_disc(8, b, workers=0) == reference_search_min_disc(8, b)


@pytest.mark.parametrize("n", range(2, 8))
def test_min_disc_matches_full_enumeration(n):
    for b in range(2, n + 1):
        assert min_disc(n, b, workers=0) == reference_min_disc(n, b), b


def test_min_disc_worker_counts_agree():
    for b in range(2, 8):
        assert min_disc(7, b, workers=2) == min_disc(7, b, workers=0)


@pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (8, 4), (12, 2)])
def test_tn_code_size_matches_encoder_enumeration(n, k):
    params = TnParams(n, k)
    assert tn_code_size(params, limit=12) == reference_tn_code_size(params)


def test_negative_cap_rejected():
    with pytest.raises(ParamInvalid):
        census(4, d1_preset(4), cap=-3)


def test_census_with_nothing_to_check_runs_no_search(monkeypatch):
    def no_search(scan, tasks, workers):
        raise AssertionError("a census with nothing to check searched")

    monkeypatch.setattr(analysis, "_fan_out", no_search)
    result = census(9, d1_preset(9), cap=3)  # 2(n+1) is past every window's reach
    assert result.count == factorial(9)
    assert [p.values for p in result.achievers] == list(
        itertools.islice(itertools.permutations(range(1, 10)), 3))
    # the arguments are still checked first, with the same errors as a search
    with pytest.raises(LimitExceeded):
        census(11, d1_preset(11))
    with pytest.raises(SpecMismatch):
        census(5, d1_preset(4))
    with pytest.raises(ParamInvalid):
        census(4, d1_preset(4), cap=-1)
    with pytest.raises(ParamInvalid):
        census(4, d1_preset(4), workers=-1)


def test_pool_is_clamped_to_the_task_count(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = BalanceSpec(4, (2,), {2: Fraction(1)})
    assert census(4, spec, cap=24, workers=64) == census(4, spec, cap=24, workers=0)
    assert min_disc(4, 2, workers=3) == (Fraction(1), 8)
    # a census at n = 4 searches first symbols 1 and 2; the cap of 24 passes
    # the 4 achievers they hold, so it searches 3 and 4 as well; min_disc runs
    # the census at t = 0 and t = 2, each on first symbols 1 and 2
    assert sizes == [2, 2, 2, 2]
