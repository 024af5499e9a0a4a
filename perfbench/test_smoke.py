"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on every workload, that no op fails, and that the benchmark
refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_no_op_fails(workload, trace, tmp_path):
    result = bench.run(workload, seed=3, seconds=0.05, trace=bool(trace),
                       sizes=bench.SMOKE, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
    record = json.loads((tmp_path / f"{workload}.seed3.trace{trace}.json").read_text())
    assert record["fail_ratio"] == 0
    assert record["outputs_covered"] >= 1


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in bench.END_TO_END.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in bench.per_layer_specs().items()]


def test_same_seed_gives_same_inputs():
    digests = {bench.Verify(bench.fresh_import(), 5, bench.SMOKE).inputs_digest for _ in range(2)}
    assert len(digests) == 1
    assert bench.Verify(bench.fresh_import(), 6, bench.SMOKE).inputs_digest not in digests


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
