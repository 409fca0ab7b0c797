"""Fast smoke test of the benchmark itself.

Runs every workload at its smallest rungs, one pass, untraced and traced,
and asserts that the result line names every metric of BENCHMARK.json with
its unit and that every output check passed on the seed's inputs.  Also
checks that the benchmark refuses to run where the sources are missing.

    python3 -m pytest -q perfbench/test_smoke.py     # or
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact_topology", "spectral_flows", "scalar_cli")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(cwd: str, workload: str, trace: int, *extra) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    r = bench(ROOT, workload, trace, "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, r.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workloads_match_spec():
    assert sorted(w["name"] for w in spec()["workloads"]) == sorted(WORKLOADS)


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        r = bench(bare, WORKLOADS[0], 0)
        assert r.returncode != 0
        assert '"metrics"' not in r.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
