"""Smoke test of the benchmark: every workload at tiny size, in both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Spans each workload must reach, and ones it must not.
REACHED = {
    "verify": ["oracle.sample_class.samples", "gridfn.check_Homega.calls", "kscore.integrate_weighted.calls",
               *(f"oracle.suite.{s}.total_s" for s in
                 ("lspace", "ks", "eq12", "general", "ostrowski", "recovery", "spline", "landau"))],
    "recover": ["recovery.mean_info.calls", "gridfn.integrate.calls", "recovery.recover_convexify.calls",
                "recovery.recover_integral.calls", "recovery.polyline.calls", "recovery.omega_spline.calls"],
    "bounds": ["kscore.general_bound.calls", "kscore.ks_bound.calls", "kscore.decompose_weights.calls",
               "modulus.parse_modulus.calls", "landau.K_value.calls", "ostrowski.two_interval_bound.calls"],
}
NOT_REACHED = {"bounds": ["oracle.sample_class.samples", "gridfn.check_Homega.calls"]}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for spec in SPEC[section]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]
    assert set(result["metrics"]) == {spec["name"] for spec in SPEC[section]}
    record_line = next(line for line in lines if line.startswith("result file: "))
    record = json.loads((ROOT / record_line.split(": ", 1)[1]).read_text())
    assert record["provenance"]["seed"] == 1
    return {"result": result, "record": record}


@pytest.mark.parametrize("workload", ["verify", "recover", "bounds"])
def test_end_to_end_metrics(workload):
    out = _check_result(_run(workload, 0), "end_to_end")
    metrics = out["result"]["metrics"]
    assert all(m["value"] > 0 for m in metrics.values())
    if workload == "verify":
        assert out["record"]["verify_digest"]["stable_within_run"]
    if workload == "recover":
        probes = out["record"]["raw"]["probes"]
        assert probes and all("TypeError" in p["outcome"] for p in probes)
    if workload == "bounds":
        probes = out["record"]["raw"]["probes"]
        assert probes and all("primitive requires" in p["outcome"] for p in probes)


@pytest.mark.parametrize("workload", ["verify", "recover", "bounds"])
def test_traced_layers(workload):
    out = _check_result(_run(workload, 1), "per_layer")
    assert out["record"]["raw"]["trace"]["missing"] == []
    metrics = out["result"]["metrics"]
    for name in REACHED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in NOT_REACHED.get(workload, []):
        assert metrics[name]["value"] == 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("bounds", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
