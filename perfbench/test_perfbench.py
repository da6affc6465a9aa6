"""Self-test of the benchmark on tiny instances.

    python3 -m pytest -q perfbench

It checks that the generators reproduce the test suite's, that every metric
named in BENCHMARK.json is printed with its unit, that a corrupted postsolved
point counts as a failure, and that the benchmark refuses to run where
premip's sources are missing.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench  # noqa: E402
import instances  # noqa: E402
from premip import NumericContext  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed,ncols,nrows", [(1, 30, 25), (7, 120, 100),
                                              (42, 300, 250)])
def test_random_medium_mip_matches_test_suite(seed, ncols, nrows):
    from conftest import random_medium_mip
    ours = instances.random_medium_mip(random.Random(seed), ncols, nrows)
    theirs = random_medium_mip(random.Random(seed), ncols, nrows)
    assert ours.stable_hash() == theirs.stable_hash()
    ours = instances.random_medium_mip(random.Random(seed), ncols, nrows,
                                       ctx=NumericContext.rational(),
                                       continuous_share=0.0)
    theirs = random_medium_mip(random.Random(seed), ncols, nrows,
                               ctx=NumericContext.rational(),
                               continuous_share=0.0)
    assert ours.stable_hash() == theirs.stable_hash()


@pytest.mark.parametrize("n", [40, 200, 1200])
def test_probing_chain_matches_test_suite(n):
    from test_acceptance import probing_chain_instance
    assert (instances.probing_chain_instance(n).stable_hash()
            == probing_chain_instance(n).stable_hash())


def test_spec_names_the_benchmarks_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench.PER_LAYER


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", ["large-sparse", "rational-corpus"])
def test_corrupted_point_is_a_failure(workload, tmp_path):
    result = bench.measure(workload, 3, 0.1, False, tmp_path, tiny=True,
                           corrupt=True)
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_share"]["value"] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "large-sparse", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
