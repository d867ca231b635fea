"""Run one workload in this process and print its raw measurements as
one JSON line.

Usage (from the repository root; ``run.py`` starts it):

    python3 perfbench/worker.py --workload recover --seed 3 --seconds 20
    python3 perfbench/worker.py --workload verify --seed 3 --trace

The program is driven only through ``ksr.cli.main(argv)``, imported from
``src/`` of the current directory.

With ``--seconds S > 0`` (a timed run) passes repeat while the next one is
expected to end within S seconds, set-up is timed about once every
``SETUP_EVERY_S`` seconds between calls, and the workload's known-defect
probes (``workloads.PROBES``) run after the passes. Otherwise exactly one pass runs
and nothing else is measured. With ``--trace`` the public functions of
every ``ksr`` module are wrapped in spans first (see ``tracing.py``).

Every pass of ``recover`` and ``bounds`` gets fresh inputs, from seed
``PASS_SEED_STRIDE * seed + pass index``, so that no pass repeats the
argv of another and a cache keyed on inputs gains nothing across passes,
as in real use, where each ``ksr`` call is a fresh process. The cost of a
call depends on its position in the pass, not on the seed, so a call's
best latency over the passes is still well defined. ``verify`` keeps its
seed in every pass, so that its report digests can be compared.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REASONS = 20
SETUP_EVERY_S = 1.5
PASS_SEED_STRIDE = 1000
SETUP_SNIPPET = "from ksr import cli; cli.main(['--help'])"
# per-call span deltas are kept only for workloads with few calls per pass
MAX_DETAILED_CALLS = 50


def _import_ksr(root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"ksr.{name}") for name in tracing.MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"ksr imported from {origin}, not from {src}")
    return mods


def _run_call(cli, call: workloads.Call):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(call.argv))
    except Exception as e:  # a crash is a failed operation, never the end of the run
        rc, crash = -1, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue(), crash


class SetupTimer:
    """Times fresh interpreters that import ``ksr.cli`` and build its
    parser (``--help``), about once every ``every`` seconds of the run.

    ``poll()`` is called between calls; it spawns once per interval that
    passed since the last spawn, at most ``MAX_CATCH_UP`` times, so a
    workload whose calls are long still gets several samples.

    The spawn is waited for with a blocking ``wait()``: ``wait(timeout)``
    polls with sleeps of up to 50 ms, which rounds every sample up to a
    step of that grid. A watchdog kills a spawn that hangs."""

    MAX_CATCH_UP = 3
    HANG_S = 60.0

    def __init__(self, root: Path, every: float):
        self.root, self.every = root, every
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.samples = []
        self._last = -math.inf

    def poll(self) -> None:
        if not self.every:
            return
        due = min(self.MAX_CATCH_UP, (time.perf_counter() - self._last) / self.every)
        for _ in range(int(due)):
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL)
            watchdog = threading.Timer(self.HANG_S, proc.kill)
            watchdog.start()
            rc = proc.wait()
            dt = time.perf_counter() - t0
            watchdog.cancel()
            if rc != 0:
                raise RuntimeError(f"set-up spawn exited with {rc}")
            self.samples.append(dt)
        if due >= 1:
            self._last = time.perf_counter()


def run(args) -> dict:
    root = Path.cwd()
    mods = _import_ksr(root)
    cli = mods["cli"]
    make_calls = workloads.WORKLOADS[args.workload]
    timed = args.seconds > 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)

    passes, latencies, reasons, digests, details = [], [], [], [], []
    setup = SetupTimer(root, SETUP_EVERY_S if timed else 0.0)
    start = time.perf_counter()
    while True:
        seed = args.seed if args.workload == "verify" else PASS_SEED_STRIDE * args.seed + len(passes)
        calls = make_calls(seed, args.smoke)
        detailed = tracer is not None and len(calls) <= MAX_DETAILED_CALLS
        payloads, pass_latencies = [], []
        failed = attempted = 0
        t_pass = time.perf_counter()
        for call in calls:
            setup.poll()
            before = tracer.totals() if detailed else None
            dt, rc, stdout, stderr, crash = _run_call(cli, call)
            pass_latencies.append(dt)
            if args.workload == "verify":
                digests.append(hashlib.sha256(stdout.encode()).hexdigest())
            payload = workloads.parse_output(stdout)
            n_failed, reason = call.check(payload, rc, payloads)
            n_failed = min(call.ops, n_failed)
            payloads.append(payload if n_failed == 0 else None)
            attempted += call.ops
            failed += n_failed
            if n_failed and len(reasons) < MAX_REASONS:
                reasons.append({"argv": list(call.argv), "reason": crash or reason,
                                "stderr": stderr.strip()[-300:]})
            if detailed:
                after = tracer.totals()
                details.append({
                    "argv": list(call.argv), "kind": call.kind, "n": call.n, "wall_s": dt,
                    "spans": {k: after[k] - before[k] for k in tracing.LAYER_SPANS if after[k] != before[k]},
                })
        passes.append({"wall_s": time.perf_counter() - t_pass, "attempted": attempted, "failed": failed})
        latencies.append(pass_latencies)
        setup.poll()
        # stop when the next pass would run past --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    result = {
        "passes": passes,
        "latencies_s": latencies,
        "setup_s": setup.samples,
        "failures": reasons,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = _trace_report(tracer, passes, details)
    probes = workloads.PROBES.get(args.workload)
    if timed and probes:
        result["probes"] = [_probe(cli, call) for call in probes(args.seed, args.smoke)]
    return result


def _trace_report(tracer: tracing.Tracer, passes: list, details: list) -> dict:
    wall = sum(p["wall_s"] for p in passes)
    metrics = {}
    for span, fields in tracing.LAYER_SPANS.items():
        for field in fields:
            metrics[f"{span}.{field}"] = tracer.field(span, field)
    samples = tracer.field("oracle.sample_class", "samples")
    metrics["gridfn.check_Homega.per_sample"] = (
        tracer.field("gridfn.check_Homega", "calls") / samples if samples else 0.0)
    metrics["oracle.sample_class.wall_share"] = tracer.field("oracle.sample_class", "total_s") / wall
    large = [d for d in details if d["kind"] in ("convexify", "integral") and d["n"] >= 64]
    large_wall = sum(d["wall_s"] for d in large)
    metrics["recovery.mean_info.large_n_share"] = (
        sum(d["spans"].get("recovery.mean_info", 0.0) for d in large) / large_wall if large_wall else 0.0)
    metrics["tracing.traced_wall_s"] = wall
    return {
        "metrics": metrics,
        "missing": tracer.missing,
        "spans": {name: st.as_dict() for name, st in sorted(tracer.stats.items()) if st.calls},
        "calls": details,
    }


def _probe(cli, call: workloads.Call) -> dict:
    """Run a known-defect probe and describe its outcome."""
    dt, rc, stdout, stderr, crash = _run_call(cli, call)
    failed, reason = call.check(workloads.parse_output(stdout), rc, [])
    outcome = "ok" if not failed else "; ".join([crash or reason, *stderr.strip().splitlines()[-1:]])
    return {"argv": list(call.argv), "wall_s": dt, "outcome": outcome}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0, help="0: one pass, nothing else measured")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    result = run(p.parse_args(argv))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
