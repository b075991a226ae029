"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs at the smoke scale for half a second, untraced and
traced, and must print every metric BENCHMARK.json names with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import tail  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return workload, {
        trace: bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "smoke")
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, section):
    _, procs = runs
    proc = procs[trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_end_to_end_values_are_positive_and_report_is_complete(runs):
    _, procs = runs
    lines = procs[0].stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())
    printed = {line.split()[0] for line in lines[1:-1]}
    assert {"pass_s", "pass_s.tail", "compile_ms", "inserts_per_s", "setup_s",
            "exec_peak_mb", "failed_frac"} <= printed


def test_engine_counts_separate_the_workloads(runs):
    workload, procs = runs
    layers = {k: v["value"] for k, v in
              json.loads(procs[1].stdout.splitlines()[-1])["metrics"].items()}
    if workload == "hoisted-rows":
        # smoke inputs have 60 rows: one engine per non-empty row
        assert layers["ism.engines_max_exec"] >= 50
    elif workload == "scatter-full":
        assert layers["ism.engines_max_exec"] == 1 and layers["ism.drains"] > 0
    else:
        assert layers["ism.engines"] == 0
    if workload == "compile-sweep":
        assert layers["lowering.plan_lines"] > 0 and layers["ir.parse_s"] > 0


def test_same_seed_same_exact_counts():
    def counts():
        proc = bench("--workload", "compile-sweep", "--seed", "5", "--seconds", "0.2",
                     "--trace", "1", "--scale", "smoke")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    assert counts() == counts()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    assert tail(list(range(100)))[0] == 89
    assert tail([3.0, 1.0, 2.0])[0] == 3.0
