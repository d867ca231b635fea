"""The ksr benchmark: one workload per call, measured end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload {verify,recover,bounds} --seed N \\
        --seconds S --trace {0,1}

The workload runs in its own process (``worker.py``), which drives the
program only through ``ksr.cli.main(argv)`` with argv generated from the
seed, and checks every output. ``KSR_THREADS`` is removed from its
environment, so every sweep runs on one worker.

``--trace 0`` runs passes of the workload for ``--seconds`` and reports
the end-to-end metrics; set-up time is taken between calls throughout
the run. ``--trace 1`` runs one untraced and one traced pass, each in a
fresh process, and reports the per-layer metrics of the traced one. See
README.md.

Every metric is printed as ``name = value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with provenance, failures, the verify report digests and
the known-defect probes, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# Every run must end within 180 s; workers still running this long after
# the start are stopped.
DEADLINE_S = 170.0


def _percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]) of sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("KSR_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(root: Path, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(root: Path, seed: int, numpy_version: str) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ksr").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_per_core_l2": caches.get("L2", ""),
        "cache_l3": caches.get("L3", ""),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "ksr_threads": os.environ.get("KSR_THREADS", "unset") + " (unset for the workload)",
    }


def best_latencies(raw: dict) -> list:
    """Each call's best latency over the passes of the run, in call order."""
    return [min(per_call) for per_call in zip(*raw["latencies_s"])]


def end_to_end(raw: dict) -> dict:
    best = best_latencies(raw)
    lat = sorted(best)
    return {
        # the best of the set-up spawns spread over the run, like the calls
        "setup_s": min(raw["setup_s"]),
        "wall_s": sum(best),
        "call_p50_ms": 1e3 * _percentile(lat, 0.50),
        "call_p99_ms": 1e3 * _percentile(lat, 0.99),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def check_digests(results_dir: Path, prov: dict, argv: str, digests: list) -> dict:
    """Compare the verify report digests of this run with each other and
    with the first digest recorded for this source tree and argv."""
    history_path = results_dir / "verify-digests.json"
    history = json.loads(history_path.read_text()) if history_path.exists() else {}
    key = f"{prov['src_sha256']} {argv}"
    first = history.setdefault(key, digests[0])
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return {
        "digests": sorted(set(digests)),
        "stable_within_run": len(set(digests)) == 1,
        "matches_first_recorded": set(digests) == {first},
        "first_recorded": first,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ksr benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ksr" / "cli.py").is_file():
        sys.stderr.write("run.py: no src/ksr/cli.py here; run it from the repository root\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    notes = []
    if args.trace:
        plain = run_worker(root, args, deadline)
        raw = run_worker(root, args, deadline, "--trace")
        raw["digests"] = plain["digests"] + raw["digests"]
        raw["failures"] = plain["failures"] + raw["failures"]
        metrics = dict(raw["trace"]["metrics"])
        metrics["tracing.untraced_wall_s"] = plain["passes"][0]["wall_s"]
        metrics["tracing.overhead_s"] = metrics["tracing.traced_wall_s"] - metrics["tracing.untraced_wall_s"]
        units = tracing.layer_metric_units()
        if raw["trace"]["missing"]:
            notes.append(f"traced functions not found in ksr: {raw['trace']['missing']}")
        passes = plain["passes"] + raw["passes"]
    else:
        raw = run_worker(root, args, deadline, "--seconds", str(args.seconds))
        metrics = end_to_end(raw)
        units = END_TO_END_UNITS
        passes = raw["passes"]

    attempted = sum(p_["attempted"] for p_ in passes)
    failed = sum(p_["failed"] for p_ in passes)
    prov = provenance(root, args.seed, raw["numpy"])
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)

    best = best_latencies(raw)
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": attempted, "failed": failed, "failures": raw["failures"],
        "passes": len(passes), "calls_per_pass": len(best),
        "calls_beyond_p99": sum(1 for x in best if 1e3 * x > metrics.get("call_p99_ms", math.inf)),
        "raw": raw,
    }
    if raw["digests"]:
        verify_argv = " ".join(workloads.verify_calls(args.seed, args.smoke)[0].argv)
        record["verify_digest"] = check_digests(results_dir, prov, verify_argv, raw["digests"])
        if not record["verify_digest"]["stable_within_run"]:
            notes.append("verify report digests differ between passes of one run")
        elif not record["verify_digest"]["matches_first_recorded"]:
            notes.append("verify report digest differs from the first one recorded for this source tree")
    for probe in raw.get("probes", []):
        notes.append(f"known defect probe `{' '.join(probe['argv'][:4])}`: {probe['outcome']}")
    record["notes"] = notes

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for note in notes:
        print(f"note: {note}")
    print(f"result file: {os.path.relpath(out, root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
