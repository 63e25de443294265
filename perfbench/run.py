"""Monte-Carlo sweep benchmark for pcia.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in CHILDREN fresh processes one after another, each
measuring S / CHILDREN seconds of whole rounds, so set-up (interpreter
start, imports, spec construction, one warm-up sweep) is sampled once per
process. Prints a run record, then one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from reference import NOMINAL_S
from worker import THREAD_VARS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 3

END_TO_END = {"trials_per_s": "trial/s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Per-layer self times, reported per trial in ms as "<span>_ms".
LAYER_SPANS = (
    "network.draw", "network.gather",
    "oneshot.receive", "oneshot.nullspace", "oneshot.design", "oneshot.select",
    "distributed.iterate", "zeroforcing.bd",
    "evaluation.sum_rate", "evaluation.residual", "evaluation.harness",
)
# Counts are totals over the traced rounds; trace.trials is their base.
LAYER_COUNTS = (
    "oneshot.subsets_scored", "oneshot.failed",
    "distributed.iterations", "distributed.unconverged",
    "zeroforcing.failed", "evaluation.sum_rate_calls",
)
PER_LAYER = {
    **{f"{span}_ms": "ms" for span in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "distributed.us_per_iteration": "us",
    "trace.overhead_pct": "%",
    "trace.trials": "count",
}


class RunFailed(RuntimeError):
    pass


def _spawn(args, child: int, share: float):
    """Run one worker; return (set-up seconds, its JSON report)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(share),
           "--child", str(child), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=share + 120.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker {child} exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _end_to_end(workload, setups, reports) -> dict:
    costs = [w / r for rep in reports for w, r in zip(rep["walls"], rep["refs"])]
    return {
        "trials_per_s": workload.trials_per_round / (statistics.median(costs) * NOMINAL_S),
        "setup_s": statistics.median(
            s / rep["setup_ref_s"] * NOMINAL_S for s, rep in zip(setups, reports)),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reports),
    }


def _per_layer(reports) -> dict:
    layer_s, counts = collections.Counter(), collections.Counter()
    trials = 0
    for rep in reports:
        t = rep["trace"]
        layer_s.update(t["layer_ref_s"])
        counts.update(t["counts"])
        trials += t["trials"]
    iterations = counts["distributed.iterations"]
    return {
        **{f"{span}_ms": 1000.0 * layer_s[span] / trials for span in LAYER_SPANS},
        **{name: counts[name] for name in LAYER_COUNTS},
        "distributed.us_per_iteration":
            1e6 * layer_s["distributed.iterate"] / iterations if iterations else 0.0,
        "trace.overhead_pct": 100.0 * statistics.median(
            o for rep in reports for o in rep["trace"]["overheads"]),
        "trace.trials": trials,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "pcia" / "__init__.py").is_file():
        print(f"no pcia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    share = args.seconds / CHILDREN
    try:
        runs = [_spawn(args, child, share) for child in range(CHILDREN)]
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    setups = [s for s, _ in runs]
    reports = [r for _, r in runs]

    failures = [f for r in reports for f in r["check_failures"]]
    failures += checks.check_sweep(workload.spec, [s for r in reports for s in r["rounds"]])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        values, units = _per_layer(reports), PER_LAYER
    else:
        values, units = _end_to_end(workload, setups, reports), END_TO_END

    env = reports[0]["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"record: python {env['python']} | numpy {env['numpy']} | blas {env['blas']}")
    print(f"record: blas threads {threads} | nproc {os.cpu_count()} "
          f"(affinity {len(os.sched_getaffinity(0))}) | cpu {_cpu_model()}")
    print(f"record: workload {args.workload} | seed {args.seed} | seconds {args.seconds} "
          f"| trace {args.trace} | processes {CHILDREN}")
    print(f"record: designs attempted {attempted} failed {failed} | rounds "
          f"{sum(len(r['rounds']) for r in reports)} of {workload.trials_per_round} trials "
          f"| set-up s {', '.join(f'{s:.3f}' for s in setups)}")
    walls = [w for r in reports for w in r["walls"]]
    refs = [x for r in reports for x in r["refs"]]
    print(f"record: wall clock {workload.trials_per_round / statistics.median(walls):.3f} "
          f"trial/s | reference kernel {1000 * statistics.median(refs):.3f} ms, "
          f"nominal {1000 * NOMINAL_S:.3f} ms")
    if args.trace:
        traced_ms = sum(r["trace"]["traced_ref_s"] for r in reports) * 1000.0 / values["trace.trials"]
        layers_ms = sum(values[f"{span}_ms"] for span in LAYER_SPANS)
        print(f"record: traced wall {traced_ms:.4f} ms/trial, per-layer self times sum "
              f"to {layers_ms:.4f} ms/trial")
    for failure in failures:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
