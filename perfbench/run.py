#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the bpc package.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload codec-roundtrip --seed 1 --seconds 24 --trace 0

Workloads (perfbench/README.md says why each one exists):

    codec-roundtrip  d1/d2/tn message -> codeword -> message at n=4096
    verify           verifiers and claim suites on pre-encoded codewords,
                     a quarter of them corrupted by random transpositions
    oracle           the exhaustive census / min_disc / tn_code_size suite
    cli              `python -m bpc.cli` subprocesses at small n

All load comes from this one process, one client in a closed loop: the next
op starts when the previous one has returned.  The only exception is one
``census(..., workers=2)`` call per oracle run.  Every input is generated
here from ``--seed``; the program only ever sees those inputs.  Every op is
checked against answers the benchmark computes with its own reference code
(or knows as constants), and a failed check counts as a failed op.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  A traced run spends the first half of ``--seconds`` untraced (its
throughput is the reference for the tracing overhead) and the second half
recording spans around every call this file makes into bpc.  The last line
of stdout is one JSON object; the full record (units, directions, sample
counts, input and output digests, environment) and the spans are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SUBPROCESS_TIMEOUT_S = 60
PROBE_EVERY_S = 0.1
ALL_CPUS = os.sched_getaffinity(0)
PROBE_REF_MS = 1.8   # the probe's time on an uncontended core of the reference host

# End-to-end metrics: name -> (unit, better).  ``ok_ratio`` is 1 - fail_ratio;
# the failure ratio itself is the result's ``failed`` / ``attempted``.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers timed by spans around the benchmark's own calls, each reported as
# ``<name>.ms`` (self time summed over calls) and ``<name>.calls``, with the
# end-to-end metric and workload a change to it should move.
TIMED_LAYERS = {
    "perm_core.unrank": "ops_per_s, op_ms_p90 on codec-roundtrip",
    "perm_core.rank": "ops_per_s, op_ms_p90 on codec-roundtrip",
    "perm_core.Permutation": "ops_per_s on codec-roundtrip",
    "d1_codec.encode_d1": "op_ms_p90 on codec-roundtrip",
    "d1_codec.encode_d1_streaming": "op_ms_p90 on codec-roundtrip",
    "d1_codec.decode_d1": "op_ms_p90 on codec-roundtrip",
    "d2_codec.encode_d2": "op_ms_p50 on codec-roundtrip",
    "d2_codec.decode_d2": "op_ms_p50 on codec-roundtrip",
    "tn_codec.encode_tn": "op_ms_p50 on codec-roundtrip",
    "tn_codec.decode_tn": "op_ms_p50 on codec-roundtrip",
    "perm_core.verify_balance.d1": "ops_per_s, op_ms_p90 on verify",
    "perm_core.verify_balance.d2": "ops_per_s, op_ms_p90 on verify",
    "perm_core.check_two_neighbor": "ops_per_s, op_ms_p90 on verify",
    "perm_core.disc": "ops_per_s, op_ms_p90 on verify",
    "analysis.d1_claim_suite": "ops_per_s on verify",
    "analysis.d2_claim_suite": "ops_per_s on verify",
    "analysis.tn_claim_suite": "ops_per_s on verify",
    "analysis.census.sparse": "ops_per_s on oracle",
    "analysis.census.dense": "ops_per_s on oracle",
    "analysis.min_disc": "ops_per_s on oracle",
    "analysis.tn_code_size": "ops_per_s on oracle",
    "cli.bare_python": "op_ms_p50, op_ms_p90 on cli (reference outside bpc)",
    "cli.import_bpc": "op_ms_p50, op_ms_p90 on cli",
    "cli.run": "op_ms_p50, op_ms_p90 on cli",
}

# Counts and ratios measured at the same boundaries: name -> (unit, better, moves).
DERIVED_LAYERS = {
    "d1_codec.streaming_moves_per_symbol":
        ("moves/symbol", "lower", "op_ms_p90 on codec-roundtrip"),
    "perm_core.verify_balance.violations":
        ("count", "higher", "ops_per_s, op_ms_p90 on verify"),
    "perm_core.verify_balance.valid_ratio":
        ("ratio", "higher", "ops_per_s, op_ms_p90 on verify"),
    "analysis.census.sparse.pass_ratio": ("ratio", "higher", "ops_per_s on oracle"),
    "analysis.census.dense.pass_ratio": ("ratio", "higher", "ops_per_s on oracle"),
    "analysis.tn_code_size.accept_ratio": ("ratio", "higher", "ops_per_s on oracle"),
    "analysis.census.workers2.ms": ("ms", "lower", "none (one call per oracle run)"),
    "analysis.census.workers2.speedup": ("ratio", "higher", "none (one call per oracle run)"),
    "trace_overhead": ("ratio", "higher", "none (traced / untraced ops_per_s)"),
}


def per_layer_specs() -> dict[str, tuple[str, str, str]]:
    """Every per-layer metric: name -> (unit, better, what it should move)."""
    specs = {}
    for name, moves in TIMED_LAYERS.items():
        specs[f"{name}.ms"] = ("ms", "lower", moves)
        specs[f"{name}.calls"] = ("count", "higher", moves)
    specs.update(DERIVED_LAYERS)
    return specs


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE keeps the smoke test fast."""

    codec_d1_n: int
    codec_d2: tuple[int, int]          # (n, N)
    codec_tn: tuple[int, int]          # (n, k)
    codec_pool: int                    # odd, so every d1 item meets both encoders
    verify_d1_n: int
    verify_d2: tuple[int, int]
    verify_tn: tuple[int, int]
    verify_pool: int                   # a quarter of it is corrupted
    oracle: tuple[tuple[str, tuple, object], ...]   # (layer, args, known result)
    oracle_warmup: tuple[tuple[str, tuple], ...]
    setups: int                        # set-ups per run; setup_s is their median


FULL = Sizes(
    codec_d1_n=4096, codec_d2=(4096, 64), codec_tn=(4096, 16), codec_pool=7,
    verify_d1_n=1024, verify_d2=(4096, 64), verify_tn=(4096, 16), verify_pool=12,
    oracle=(
        ("analysis.census.sparse", (9,), 42),
        ("analysis.census.dense", (8,), 40320),
        ("analysis.min_disc", (9, 2), (Fraction(1), 42)),
        ("analysis.tn_code_size", (8, 4), 576),
        ("analysis.tn_code_size", (12, 2), 2304),
    ),
    oracle_warmup=(
        ("analysis.census.sparse", (6,)),
        ("analysis.census.dense", (6,)),
        ("analysis.min_disc", (6, 2)),
        ("analysis.tn_code_size", (4, 2)),
    ),
    setups=3,
)

SMOKE = Sizes(
    codec_d1_n=16, codec_d2=(16, 4), codec_tn=(16, 4), codec_pool=3,
    verify_d1_n=16, verify_d2=(16, 4), verify_tn=(16, 4), verify_pool=4,
    oracle=(("analysis.census.sparse", (7,), 26),),
    oracle_warmup=(("analysis.census.sparse", (5,)),),
    setups=1,
)


class Tracer:
    """Spans around the benchmark's calls into bpc, kept in memory.

    A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  While
    ``on`` is false, ``call`` adds nothing but one attribute test.
    """

    def __init__(self):
        self.on = False
        self.op_id = -1
        self.spans: list[list] = []
        self.extra: Counter = Counter()     # (name, "ms"|"calls") from outside spans
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter_ns(), 0,
                self._open[-1] if self._open else -1, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()

    def add(self, name: str, ms: float) -> None:
        """Record busy time measured by other means (parsed from a child)."""
        self.extra[(name, "ms")] += ms
        self.extra[(name, "calls")] += 1

    def self_times(self) -> dict[str, list]:
        """name -> [self ms summed over calls, calls]; self = span - children."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            agg = out.setdefault(name, [0.0, 0])
            agg[0] += (end - start - child) / 1e6
            agg[1] += 1
        for (name, kind), value in self.extra.items():
            agg = out.setdefault(name, [0.0, 0])
            agg[0 if kind == "ms" else 1] += value
        return out


# ---------------------------------------------------------------- helpers

def perm_bytes(values) -> bytes:
    return array("I", values).tobytes()


def int_bytes(x: int) -> bytes:
    """Exact bytes of an integer of any size (str() stops at 4300 digits)."""
    return x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True)


def shuffled(rng: random.Random, k: int) -> tuple[int, ...]:
    values = list(range(1, k + 1))
    rng.shuffle(values)
    return tuple(values)


def tn_message(rng: random.Random, n: int, k: int):
    """Random set orderings plus a selector that obeys the balance mandate.

    Simulates the encoder: while the running sum is at or above the mean
    (ties low) the pair must come from a low set, otherwise from a high set;
    each pair's set is drawn uniformly from the non-empty sets of that half.
    """
    m = n // k
    sigmas = tuple(shuffled(rng, k) for _ in range(m))
    heads = [0] * m
    selector = []
    dev2 = 0
    for _ in range(n // 2):
        half = range(m // 2) if dev2 >= 0 else range(m // 2, m)
        s = rng.choice([i for i in half if heads[i] < k])
        selector.append(s + 1)
        for _ in range(2):
            dev2 += 2 * (sigmas[s][heads[s]] + s * k) - (n + 1)
            heads[s] += 1
    return sigmas, tuple(selector)


def doubled_prefix(values) -> list[int]:
    """D[j] = 2*sum(values[:j]) - j*(n+1): window (j, b) deviates by D[j+b]-D[j]."""
    n = len(values)
    out = [0]
    acc = 0
    for j, v in enumerate(values, 1):
        acc += v
        out.append(2 * acc - j * (n + 1))
    return out


def window_violations(D, lengths, limit2: int) -> list[tuple[int, int]]:
    """(b, j) of every window whose doubled deviation exceeds ``limit2``."""
    if max(D) - min(D) <= limit2:
        return []
    return [(b, j) for b in lengths
            for j, (lo, hi) in enumerate(zip(D, D[b:]), 1) if abs(hi - lo) > limit2]


def neighbor_violations(values, k: int) -> list[int]:
    return [i for i in range(2, len(values))
            if abs(values[i - 1] - values[i - 2]) > k and abs(values[i - 1] - values[i]) > k]


def max_window_dev2(D, b: int) -> int:
    return max(abs(hi - lo) for lo, hi in zip(D, D[b:]))


def ref_encode_d1(g1, g2) -> tuple[int, ...]:
    """Greedy two-source encoder written from the construction's definition."""
    n = 2 * len(g1)
    low, high = list(g1), [v + n // 2 for v in g2]
    out, dev2 = [], 0
    for j in range(n):
        v = (low if j == 0 or dev2 > 0 else high).pop(0)
        out.append(v)
        dev2 += 2 * v - (n + 1)
    return tuple(out)


def fresh_import():
    """Import bpc from this checkout's src/, re-executing its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bpc" or m.startswith("bpc.")]:
        del sys.modules[name]
    bpc = importlib.import_module("bpc")
    importlib.import_module("bpc.cli")
    if not Path(bpc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bpc imported from {bpc.__file__}, not from {SRC}")
    return bpc


class Op:
    """One timed operation: ``run(tracer)`` calls bpc, ``check(out)`` returns
    the canonical output bytes when every check passes, else None."""

    __slots__ = ("kind", "key", "run", "check")

    def __init__(self, kind, key, run, check):
        self.kind, self.key, self.run, self.check = kind, key, run, check


class Workload:
    """Inputs generated from the seed, the ops that use them, and the checks."""

    def __init__(self, bpc, sizes: Sizes):
        self.B = bpc
        self.sizes = sizes
        self.counts: Counter = Counter()
        self.first: dict = {}          # op key -> canonical output of its first run
        self._inputs = hashlib.sha256()

    def digest_input(self, *parts) -> None:
        for part in parts:
            self._inputs.update(part if isinstance(part, bytes) else repr(part).encode())

    @property
    def inputs_digest(self) -> str:
        return self._inputs.hexdigest()

    @property
    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(repr(key).encode())
            h.update(self.first[key])
        return h.hexdigest()

    def accept(self, op: Op, out) -> bool:
        canon = op.check(out)
        if canon is None:
            return False
        return self.first.setdefault(op.key, canon) == canon

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        tracer = Tracer()
        for op in self.ops(0):
            with contextlib.suppress(Exception):  # the timed ops count failures
                op.run(tracer)

    def expect(self) -> list[bool]:
        """Compute reference answers once per run; returns verdicts of the
        checks this makes on set-up outputs (a failure counts as an op)."""
        return []

    def after_round(self, tracer: Tracer) -> None:
        """Untimed per-round extras, run only while tracing."""

    def finish(self, tracer: Tracer) -> list[bool]:
        """Checked calls made once after timing; returns their verdicts."""
        return []

    def derived(self, layers: dict[str, list]) -> dict[str, float]:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------- codec-roundtrip

class CodecRoundtrip(Workload):
    """Round robin of d1, d2 and tn message roundtrips."""

    def __init__(self, bpc, seed, sizes):
        super().__init__(bpc, sizes)
        rng = random.Random(f"codec-roundtrip/{seed}")
        pool = sizes.codec_pool
        self.half = sizes.codec_d1_n // 2
        bound = factorial(self.half)
        self.d1 = [(rng.randrange(bound), rng.randrange(bound)) for _ in range(pool)]
        n2, N = sizes.codec_d2
        self.d2_params = bpc.D2Params(n2, N)
        self.d2 = [tuple(shuffled(rng, n2 // N) for _ in range(N)) for _ in range(pool)]
        n3, k = sizes.codec_tn
        self.tn_params = bpc.TnParams(n3, k)
        self.tn = [tn_message(rng, n3, k) for _ in range(pool)]
        for r1, r2 in self.d1:
            self.digest_input(int_bytes(r1), int_bytes(r2))
        for sigmas in self.d2:
            self.digest_input(*(perm_bytes(s) for s in sigmas))
        for sigmas, selector in self.tn:
            self.digest_input(*(perm_bytes(s) for s in sigmas), perm_bytes(selector))

    def ops(self, r):
        i = r % len(self.d1)
        return [self._d1(i, streaming=r % 2 == 1), self._d2(i), self._tn(i)]

    def _d1(self, i, streaming):
        B, half = self.B, self.half
        r1, r2 = self.d1[i]

        def run(tr):
            g1 = tr.call("perm_core.unrank", B.unrank, r1, half)
            g2 = tr.call("perm_core.unrank", B.unrank, r2, half)
            inp = B.D1Input(g1, g2)
            if streaming:
                pi, trace = tr.call("d1_codec.encode_d1_streaming", B.encode_d1_streaming, inp)
                self.counts["streaming_moves"] += len(trace.steps)
                self.counts["streaming_symbols"] += pi.n
            else:
                pi = tr.call("d1_codec.encode_d1", B.encode_d1, inp)
            dec = tr.call("d1_codec.decode_d1", B.decode_d1, pi)
            return (pi, tr.call("perm_core.rank", B.rank, dec.gamma1),
                    tr.call("perm_core.rank", B.rank, dec.gamma2))

        def check(out):
            pi, a, b = out
            if (a, b) != (r1, r2):
                return None
            return perm_bytes(pi.values)   # both encoders must emit the same codeword

        return Op("d1", ("d1", i), run, check)

    def _d2(self, i):
        B, params, raw = self.B, self.d2_params, self.d2[i]

        def run(tr):
            sigmas = tuple(tr.call("perm_core.Permutation", B.Permutation, s) for s in raw)
            pi = tr.call("d2_codec.encode_d2", B.encode_d2, B.D2Input(params, sigmas))
            return pi, tr.call("d2_codec.decode_d2", B.decode_d2, pi, params)

        def check(out):
            pi, dec = out
            if tuple(s.values for s in dec.sigmas) != raw:
                return None
            return perm_bytes(pi.values)

        return Op("d2", ("d2", i), run, check)

    def _tn(self, i):
        B, params = self.B, self.tn_params
        raw, selector = self.tn[i]

        def run(tr):
            sigmas = tuple(tr.call("perm_core.Permutation", B.Permutation, s) for s in raw)
            pi = tr.call("tn_codec.encode_tn", B.encode_tn, B.TnInput(params, sigmas, selector))
            return pi, tr.call("tn_codec.decode_tn", B.decode_tn, pi, params)

        def check(out):
            pi, dec = out
            if tuple(s.values for s in dec.sigmas) != raw or dec.selector != selector:
                return None
            return perm_bytes(pi.values)

        return Op("tn", ("tn", i), run, check)

    def derived(self, layers):
        symbols = self.counts["streaming_symbols"]
        return {"d1_codec.streaming_moves_per_symbol":
                self.counts["streaming_moves"] / symbols if symbols else 0.0}


# ---------------------------------------------------------------- verify

class Verify(Workload):
    """Verifiers and claim suites on codewords encoded during set-up."""

    def __init__(self, bpc, seed, sizes):
        super().__init__(bpc, sizes)
        B = bpc
        rng = random.Random(f"verify/{seed}")
        pool = sizes.verify_pool
        n1 = sizes.verify_d1_n
        n2, N = sizes.verify_d2
        n3, k = sizes.verify_tn
        self.d2_params, self.tn_params = B.D2Params(n2, N), B.TnParams(n3, k)
        self.d1_spec, self.d2_spec = B.d1_preset(n1), B.d2_preset(n2, N)
        self.neighbor = B.NeighborSpec(k)
        words = {
            "d1": [B.encode_d1(B.D1Input(B.Permutation(shuffled(rng, n1 // 2)),
                                         B.Permutation(shuffled(rng, n1 // 2)))).values
                   for _ in range(pool)],
            "d2": [B.encode_d2(B.D2Input(self.d2_params, tuple(
                       B.Permutation(shuffled(rng, n2 // N)) for _ in range(N)))).values
                   for _ in range(pool)],
            "tn": [],
        }
        for _ in range(pool):
            raw, selector = tn_message(rng, n3, k)
            words["tn"].append(B.encode_tn(B.TnInput(
                self.tn_params, tuple(B.Permutation(s) for s in raw), selector)).values)
        self.corrupted = {}
        self.perms = {}
        for codec, codec_words in words.items():
            self.corrupted[codec] = set(rng.sample(range(pool), pool // 4))
            perms = []
            for i, values in enumerate(codec_words):
                if i in self.corrupted[codec]:
                    values = list(values)
                    for _ in range(rng.randint(2, 4)):
                        a = rng.randrange(len(values) - 1)
                        values[a], values[a + 1] = values[a + 1], values[a]
                perms.append(B.Permutation(tuple(values)))
                self.digest_input(codec.encode(), perm_bytes(perms[-1].values))
            self.perms[codec] = perms
        self.disc_bs = [tuple(sorted(rng.sample(range(2, n3 + 1), 3))) for _ in range(pool)]
        self.digest_input(*(perm_bytes(bs) for bs in self.disc_bs))

    def expect(self):
        self.expected = {}
        for i, pi in enumerate(self.perms["d1"]):
            n = pi.n
            D = doubled_prefix(pi.values)
            spread_fail = int(max(D) - min(D) > 4 * (n + 1))
            self.expected[("d1", i)] = (
                window_violations(D, range(1, n + 1), 4 * (n + 1)),
                (int(max(map(abs, D)) > 2 * (n + 1)), spread_fail))
        n, N = self.d2_params.n, self.d2_params.N
        for i, pi in enumerate(self.perms["d2"]):
            D = doubled_prefix(pi.values)
            entries = window_violations(D, self.d2_spec.blocks, 16 * (n + 1) // N)
            even_fail = int(any(abs(D[j]) > 4 * n // N for j in range(0, n + 1, 2)))
            # pair locality has no reference here: codewords must pass it and
            # corrupted words must answer the same on every repeat
            locality = None if i in self.corrupted["d2"] else 0
            self.expected[("d2", i)] = (entries, (even_fail, locality, int(bool(entries))))
        n, k = self.tn_params.n, self.tn_params.k
        for i, pi in enumerate(self.perms["tn"]):
            D = doubled_prefix(pi.values)
            positions = neighbor_violations(pi.values, k)
            claims = (int(bool(positions)), int(max(D) - min(D) > 4 * (n + 1)))
            discs = [Fraction(max_window_dev2(D, b), 2) for b in self.disc_bs[i]]
            self.expected[("tn", i)] = (positions, claims, discs)
        # every uncorrupted codeword must satisfy its construction's bounds
        return [not (entries or any(claims))
                for (codec, i), (entries, claims, *_) in self.expected.items()
                if i not in self.corrupted[codec]]

    def ops(self, r):
        i = r % len(self.perms["d1"])
        return [self._balance("d1", i), self._balance("d2", i), self._tn(i)]

    def _claims_ok(self, report, expected) -> bool:
        fails = [b.failures for b in report.bounds]
        return len(fails) == len(expected) and all(
            e is None or e == f for e, f in zip(expected, fails))

    def _balance(self, codec, i):
        B, pi = self.B, self.perms[codec][i]
        if codec == "d1":
            spec, suite, arg = self.d1_spec, B.d1_claim_suite, pi.n
        else:
            spec, suite, arg = self.d2_spec, B.d2_claim_suite, self.d2_params

        def run(tr):
            report = tr.call(f"perm_core.verify_balance.{codec}", B.verify_balance, pi, spec)
            return report, tr.call(f"analysis.{codec}_claim_suite", suite, [pi], arg)

        def check(out):
            report, claims = out
            entries = [(e.b, e.j) for e in report.entries]
            self.counts["violations"] += len(entries)
            self.counts["checked"] += 1
            self.counts["valid"] += report.is_valid
            exp_entries, exp_claims = self.expected[(codec, i)]
            if entries != exp_entries or report.is_valid != (not exp_entries):
                return None
            if not self._claims_ok(claims, exp_claims):
                return None
            return (perm_bytes(itertools.chain.from_iterable(entries))
                    + json.dumps(claims.to_json_dict()).encode())

        return Op(codec, (codec, i), run, check)

    def _tn(self, i):
        B, pi, bs = self.B, self.perms["tn"][i], self.disc_bs[i]

        def run(tr):
            report = tr.call("perm_core.check_two_neighbor", B.check_two_neighbor, pi, self.neighbor)
            claims = tr.call("analysis.tn_claim_suite", B.tn_claim_suite, [pi], self.tn_params)
            return report, claims, [tr.call("perm_core.disc", B.disc, pi, b) for b in bs]

        def check(out):
            report, claims, discs = out
            positions, exp_claims, exp_discs = self.expected[("tn", i)]
            if [e.i for e in report.entries] != positions or discs != exp_discs:
                return None
            if not self._claims_ok(claims, exp_claims):
                return None
            return perm_bytes(positions) + json.dumps(claims.to_json_dict()).encode()

        return Op("tn", ("tn", i), run, check)

    def derived(self, layers):
        checked = self.counts["checked"]
        return {
            "perm_core.verify_balance.violations": float(self.counts["violations"]),
            "perm_core.verify_balance.valid_ratio": self.counts["valid"] / checked if checked else 0.0,
        }


# ---------------------------------------------------------------- oracle

def tn_inputs_enumerated(n: int, k: int) -> int:
    """Inputs tn_code_size tries: k!**m orderings times the distinct selectors."""
    m = n // k
    return factorial(k) ** m * factorial(n // 2) // factorial(k // 2) ** m


class Oracle(Workload):
    """A fixed suite of exhaustive queries with known answers; the seed is unused."""

    def __init__(self, bpc, seed, sizes):
        super().__init__(bpc, sizes)
        self.suite = sizes.oracle
        self.digest_input(self.suite)

    def query(self, layer, args, workers=0):
        B = self.B
        if layer == "analysis.census.sparse":
            n, = args
            return B.census(n, B.BalanceSpec(n, (2,), {2: Fraction(3, 2)}), cap=8, workers=workers)
        if layer == "analysis.census.dense":
            n, = args
            return B.census(n, B.d1_preset(n), cap=8, workers=workers)
        if layer == "analysis.min_disc":
            return B.min_disc(*args, workers=workers)
        n, k = args
        return B.tn_code_size(B.TnParams(n, k), limit=max(n, 10))

    def warm_up(self):
        for layer, args in self.sizes.oracle_warmup:
            self.query(layer, args)

    def ops(self, r):
        return [self._op(q) for q in range(len(self.suite))]

    def _op(self, q):
        layer, args, known = self.suite[q]

        def run(tr):
            return tr.call(layer, self.query, layer, args)

        def check(out):
            if layer.startswith("analysis.census"):
                if not self._census_ok(layer, args[0], out, known):
                    return None
                self.counts[(layer, "passed")] += out.count
                self.counts[(layer, "space")] += factorial(args[0])
                return json.dumps(out.to_json_dict()).encode()
            if out != known:
                return None
            if layer == "analysis.tn_code_size":
                self.counts[(layer, "passed")] += out
                self.counts[(layer, "space")] += tn_inputs_enumerated(*args)
            return repr(out).encode()

        return Op(layer, q, run, check)

    @staticmethod
    def _census_ok(layer, n, result, known) -> bool:
        achievers = [p.values for p in result.achievers]
        if result.count != known or len(achievers) != min(8, known):
            return False
        if layer == "analysis.census.dense":
            return achievers == list(itertools.islice(itertools.permutations(range(1, n + 1)), 8))
        return achievers == sorted(achievers) and all(
            abs(2 * (a + b) - 2 * (n + 1)) <= 3 for p in achievers for a, b in zip(p, p[1:]))

    def finish(self, tracer):
        """One census with workers=2; its output must equal the workers=0 run."""
        q = next(q for q, spec in enumerate(self.suite) if spec[0] == "analysis.census.sparse")
        layer, args, known = self.suite[q]
        start = time.perf_counter()
        try:
            with all_cpus():
                out = tracer.call("analysis.census.workers2", self.query, layer, args, workers=2)
        except Exception:
            return [False]
        self.workers2_ms = (time.perf_counter() - start) * 1e3
        return [self._census_ok(layer, args[0], out, known)
                and json.dumps(out.to_json_dict()).encode() == self.first.get(q)]

    def derived(self, layers):
        def ratio(layer):
            space = self.counts[(layer, "space")]
            return self.counts[(layer, "passed")] / space if space else 0.0

        workers2_ms = getattr(self, "workers2_ms", 0.0)
        sparse_ms, sparse_calls = layers.get("analysis.census.sparse", (0.0, 0))
        return {
            "analysis.census.sparse.pass_ratio": ratio("analysis.census.sparse"),
            "analysis.census.dense.pass_ratio": ratio("analysis.census.dense"),
            "analysis.tn_code_size.accept_ratio": ratio("analysis.tn_code_size"),
            "analysis.census.workers2.ms": workers2_ms,
            "analysis.census.workers2.speedup":
                sparse_ms / sparse_calls / workers2_ms if sparse_calls and workers2_ms else 0.0,
        }


# ------------------------------------------------------------------- cli

IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


def import_bpc_ms(stderr: str) -> float:
    """Cumulative import time of the outermost bpc* entries in -X importtime output."""
    entries = [(len(m.group(3)), int(m.group(2))) for m in map(IMPORTTIME.match, stderr.splitlines())
               if m and m.group(4).split(".")[0] == "bpc"]
    if not entries:
        raise ValueError("no bpc import in -X importtime output")
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e3


class Cli(Workload):
    """A fixed list of `python -m bpc.cli` runs on seeded small inputs."""

    def __init__(self, bpc, seed, sizes):
        super().__init__(bpc, sizes)
        B = bpc
        rng = random.Random(f"cli/{seed}")
        self.env = {k: v for k, v in os.environ.items() if k != "BPC_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        g1, g2 = shuffled(rng, 6), shuffled(rng, 6)
        s1, s2 = shuffled(rng, 8), shuffled(rng, 8)
        i1, i2 = rng.randrange(factorial(6)), rng.randrange(factorial(6))
        m1, m2 = rng.randrange(factorial(10)), rng.randrange(factorial(10))
        message_word = B.d1_message_encode(m1, m2, 20)
        valid_word = B.encode_d1(B.D1Input(B.Permutation(shuffled(rng, 10)),
                                           B.Permutation(shuffled(rng, 10))))
        # all low symbols first: the length-10 window is 50 above its mean,
        # beyond the d1 allowance of 2*(n+1) = 42
        violating = shuffled(rng, 10) + tuple(v + 10 for v in shuffled(rng, 10))
        d2_json = {"n": 32, "N": 8, "sigmas": [list(shuffled(rng, 4)) for _ in range(8)]}
        tn_sigmas, tn_selector = tn_message(rng, 24, 4)
        tn_json = {"n": 24, "k": 4, "sigmas": [list(s) for s in tn_sigmas],
                   "selector": list(tn_selector)}
        disc_perm, disc_b = shuffled(rng, 16), rng.randrange(2, 16)
        rate_n = sorted(rng.sample([16, 64, 256, 1024, 4096], 3))

        def text(values):
            return " ".join(map(str, values))

        # (label, argv, stdin, exit code, stdout the benchmark derives itself)
        self.commands = [
            ("encode-d1-gamma", ["encode", "d1", "--n", "12", "--gamma1", text(g1),
                                 "--gamma2", text(g2)], None, 0,
             text(ref_encode_d1(g1, g2)) + "\n"),
            ("encode-d1-rank", ["encode", "d1", "--n", "12", "--i1", str(i1),
                                "--i2", str(i2)], None, 0, None),
            ("encode-d1-streaming", ["encode", "d1", "--n", "16", "--gamma1", text(s1),
                                     "--gamma2", text(s2), "--streaming", "--format", "json"],
             None, 0, None),
            ("decode-d1-message", ["decode", "d1", "--perm", text(message_word.values),
                                   "--message"], None, 0, f"{m1} {m2}\n"),
            ("encode-d2", ["encode", "d2", "--input", "-"], json.dumps(d2_json), 0, None),
            ("encode-tn", ["encode", "tn", "--input", "-"], json.dumps(tn_json), 0, None),
            ("verify-d1-valid", ["verify", "--preset", "d1", "--perm", text(valid_word.values)],
             None, 0, None),
            ("verify-d1-violating", ["verify", "--preset", "d1", "--perm", text(violating)],
             None, 1, None),
            ("disc", ["disc", "--perm", text(disc_perm), "--b", str(disc_b)], None, 0,
             str(Fraction(max_window_dev2(doubled_prefix(disc_perm), disc_b), 2)) + "\n"),
            ("analyze-rate-d2", ["analyze", "rate", "--config", "d2", "--n",
                                 ",".join(map(str, rate_n)), "--epsilon", "1/2"], None, 0, None),
        ]
        for command in self.commands:
            self.digest_input(command[:3])

    def in_process(self, argv, stdin):
        """``bpc.cli.run`` with stdin/stdout/stderr swapped for buffers."""
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.B.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue().encode()

    def expect(self):
        """Expected (exit code, stdout): the benchmark's own where it knows the
        answer, else the in-process ``bpc.cli.run``; both must agree."""
        self.expected, verdicts = [], []
        for label, argv, stdin, code, stdout in self.commands:
            got = self.in_process(argv, stdin)
            want = (code, got[1] if stdout is None else stdout.encode())
            verdicts.append(got == want)
            self.expected.append(want)
        return verdicts

    def subprocess(self, args, stdin=None):
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              input=None if stdin is None else stdin.encode(),
                              env=self.env, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr.decode()

    def warm_up(self):
        for _, argv, stdin, _, _ in self.commands[:2]:
            self.subprocess(["-m", "bpc.cli", *argv], stdin)

    def ops(self, r):
        return [self._op(c) for c in range(len(self.commands))]

    def _op(self, c):
        label, argv, stdin, _, _ = self.commands[c]

        def run(tr):
            return self.subprocess(["-m", "bpc.cli", *argv], stdin)

        def check(out):
            code, stdout, _ = out
            return stdout if (code, stdout) == self.expected[c] else None

        return Op(label, c, run, check)

    def after_round(self, tracer):
        start = time.perf_counter()
        self.subprocess(["-c", "pass"])
        tracer.add("cli.bare_python", (time.perf_counter() - start) * 1e3)
        code, _, stderr = self.subprocess(["-X", "importtime", "-c", "import bpc.cli"])
        if code == 0:
            tracer.add("cli.import_bpc", import_bpc_ms(stderr))
        for label, argv, stdin, _, _ in self.commands:
            tracer.call("cli.run", self.in_process, argv, stdin)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {
    "codec-roundtrip": CodecRoundtrip,
    "verify": Verify,
    "oracle": Oracle,
    "cli": Cli,
}


# ---------------------------------------------------------------- runner

def probe_loop() -> int:
    """Fixed pure-Python integer work that does not touch bpc."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


class HostSpeed:
    """Times of the probe loop, sampled between ops and around set-ups.

    The benchmark host is shared: other tenants' load slows every core by up
    to about a third, in stretches of seconds to a minute.  Each op's time is
    scaled by PROBE_REF_MS / (median probe time within a second of the op),
    which removes that drift; the record keeps the raw times as well.
    """

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            probe_loop()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.ms.append(best * 1e3)

    def catch_up(self) -> None:
        """One sample per PROBE_EVERY_S since the last one (at most 5), so a
        long op still has several samples on each side of it."""
        owed = int((time.perf_counter() - self.times[-1]) / PROBE_EVERY_S) if self.times else 1
        for _ in range(min(owed, 5)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        lo = bisect_left(self.times, start - 1.0)
        hi = bisect_right(self.times, end + 1.0)
        window = self.ms[lo:hi] or [self.ms[min(lo, len(self.ms) - 1)]]
        return PROBE_REF_MS / statistics.median(window)

    def summary(self) -> dict:
        return {"ref_ms": PROBE_REF_MS, "samples": len(self.ms), "median_ms": statistics.median(self.ms),
                "min_ms": min(self.ms), "max_ms": max(self.ms)}


class Batch:
    """Start times, latencies and verdicts of the ops of one timed batch."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0

    def rescale(self, host: HostSpeed) -> None:
        self.scaled = [lat * host.scale(s, s + lat) for s, lat in zip(self.starts, self.latencies)]

    @property
    def ops_per_s(self) -> float:
        return ops_per_s(self.scaled)


def ops_per_s(latencies: list[float]) -> float:
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def measure(bench: Workload, tracer: Tracer, host: HostSpeed, seconds: float,
            r0: int) -> tuple[Batch, int]:
    """Run whole rounds of ops until ``seconds`` have passed; time each op.

    ops_per_s divides by the summed op times, so the benchmark's own checking
    and probing between ops is not counted as the program's time.
    """
    batch = Batch()
    deadline = time.perf_counter() + seconds
    r = r0
    while True:
        for op in bench.ops(r):
            host.catch_up()
            tracer.op_id += 1
            start = time.perf_counter()
            batch.starts.append(start)
            try:
                out = tracer.call(f"op.{op.kind}", op.run, tracer)
            except Exception as exc:  # a failing op is counted, not fatal
                batch.latencies.append(time.perf_counter() - start)
                batch.failed += 1
                print(f"op {op.key!r} raised {exc!r}", file=sys.stderr)
                continue
            batch.latencies.append(time.perf_counter() - start)
            try:
                ok = bench.accept(op, out)
            except Exception as exc:
                ok = False
                print(f"check of op {op.key!r} raised {exc!r}", file=sys.stderr)
            if not ok:
                batch.failed += 1
                print(f"op {op.key!r} gave a wrong output", file=sys.stderr)
        if tracer.on:
            bench.after_round(tracer)
        r += 1
        if time.perf_counter() >= deadline:
            host.sample()
            batch.rescale(host)
            return batch, r


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and the children it starts, to one CPU for the run,
    so the probe samples the core the ops run on.  Unpinned if refused."""
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:
        pass
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def all_cpus():
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    host = HostSpeed()
    setups, raw_setups = [], []
    for _ in range(sizes.setups):
        host.sample()
        start = time.perf_counter()
        bench = WORKLOADS[workload](fresh_import(), seed, sizes)
        bench.warm_up()
        end = time.perf_counter()
        host.sample()
        raw_setups.append(end - start)
        setups.append((end - start) * host.scale(start, end))
    prechecks = bench.expect()

    tracer = Tracer()
    batch, r = measure(bench, tracer, host, seconds / 2 if trace else seconds, 0)
    reference = batch
    if trace:
        bench.counts.clear()
        tracer.on = True
        batch, r = measure(bench, tracer, host, seconds / 2, r)
    final = prechecks + bench.finish(tracer)

    attempted = len(reference.latencies) + (len(batch.latencies) if trace else 0) + len(final)
    failed = reference.failed + (batch.failed if trace else 0) + final.count(False)
    lat = batch.scaled
    if trace:
        layers = tracer.self_times()
        specs = per_layer_specs()
        values = dict.fromkeys(specs, 0.0)   # layers this workload never calls read 0
        for name in TIMED_LAYERS:
            ms, calls = layers.get(name, (0.0, 0))
            values[f"{name}.ms"], values[f"{name}.calls"] = ms, calls
        values.update(bench.derived(layers))
        values["trace_overhead"] = batch.ops_per_s / reference.ops_per_s
        samples = {name: len(lat) for name in specs}
    else:
        layers = {}
        values = {
            "ops_per_s": batch.ops_per_s,
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": percentile_90(lat) * 1e3,
            "ok_ratio": 1 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": bench.peak_rss_mb(),
        }
        specs = {name: (unit, better, "end to end") for name, (unit, better) in END_TO_END.items()}
        samples = {name: len(lat) for name in specs}
        samples.update(ok_ratio=attempted, setup_s=len(setups), peak_rss_mb=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": specs[name][0]} for name in specs},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "inputs_digest": bench.inputs_digest,
        "outputs_digest": bench.outputs_digest,
        "outputs_covered": len(bench.first),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "setup_s_samples": setups,
        "host_probe": host.summary(),
        "raw": {"ops_per_s": ops_per_s(batch.latencies),
                "op_ms_p50": statistics.median(batch.latencies) * 1e3,
                "op_ms_p90": percentile_90(batch.latencies) * 1e3,
                "setup_s": statistics.median(raw_setups)},
        "metrics": {name: {"value": values[name], "unit": specs[name][0],
                           "better": specs[name][1], "moves": specs[name][2],
                           "samples": samples[name]}
                    for name in specs},
        "self_ms": {name: {"ms": ms, "calls": calls} for name, (ms, calls) in sorted(layers.items())},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}.seed{seed}.trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bpc" / "__init__.py").is_file():
        print(f"no bpc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with one_cpu():
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
