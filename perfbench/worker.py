"""One benchmark process: set up, time whole rounds, check, report.

Started by ``run.py``, which times set-up from spawn to this process's
``ready`` line. Each round is one ``run_experiment(spec, workers=1)``
call on a fresh seed, timed between two runs of the reference kernel. With
``--trace 1`` every round runs twice on the same seed, once plain and
once with spans, in alternating order, so the difference is the tracing
overhead. The last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Rounds per process whose rates are recomputed with the independent formula.
RATE_SAMPLE_ROUNDS = 2


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import pcia
    from pcia import ExperimentSpec, evaluation

    if Path(pcia.__file__).resolve().parent != ROOT / "src" / "pcia":
        raise SystemExit(f"imported pcia from {pcia.__file__}, not this checkout")
    import checks
    import rates
    import tracing
    from reference import NOMINAL_S, Reference
    from workloads import WARMUP_SEED, WORKLOADS, round_seed

    workload = WORKLOADS[args.workload]
    base = ExperimentSpec(**workload.spec, trials=workload.trials_per_round,
                          seed=WARMUP_SEED)
    evaluation.run_experiment(base, workers=1)
    print("ready", flush=True)
    reference = Reference()
    setup_ref_s = reference.median_seconds()

    counter = tracing.FailureCounter()
    tracer = tracing.Tracer() if args.trace else None
    walls, refs, summaries, specs, failures = [], [], [], [], []
    layer_ref_s = collections.Counter()
    overheads, traced_costs = [], []

    def timed(call):
        before = reference.seconds()
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        return result, wall, 0.5 * (before + reference.seconds())

    def plain(spec):
        result, wall, ref = timed(lambda: evaluation.run_experiment(spec, workers=1))
        walls.append(wall)
        refs.append(ref)
        return result, wall / ref

    def traced(spec):
        start = len(tracer.spans)
        with tracing.patched(tracing.TRACED, tracer.wrap):
            result, wall, ref = timed(
                lambda: tracer.run(evaluation.run_experiment, spec, workers=1))
        for name, seconds in tracer.self_seconds(start).items():
            layer_ref_s[name] += seconds * NOMINAL_S / ref
        return result, wall / ref

    deadline = time.perf_counter() + args.seconds
    with tracing.patched(tracing.SOLVERS, counter.wrap):
        while not specs or time.perf_counter() < deadline:
            spec = dataclasses.replace(
                base, seed=round_seed(args.seed, args.child, len(specs)))
            specs.append(spec)
            if tracer is None:
                result, _ = plain(spec)
            else:
                if len(specs) % 2:
                    (result, cost), (other, traced_cost) = plain(spec), traced(spec)
                else:
                    (other, traced_cost), (result, cost) = traced(spec), plain(spec)
                overheads.append(traced_cost / cost - 1.0)
                traced_costs.append(traced_cost)
            summaries.append(checks.summarize(result))
            if tracer is not None and checks.summarize(other) != summaries[-1]:
                failures.append(f"round {len(specs) - 1}: traced sweep differs from plain")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for spec, summary in list(zip(specs, summaries))[:RATE_SAMPLE_ROUNDS]:
        failures += checks.check_rates(rates.expected_rates(spec), summary)

    designs_per_trial = sum(1 if s == "bdzf_full" else len(base.slot_dof())
                            for s in base.schemes)
    report = {
        "env": _environment(np),
        "setup_ref_s": setup_ref_s,
        "walls": walls,
        "refs": refs,
        "rounds": summaries,
        "attempted": (len(walls) + len(overheads)) * base.trials * designs_per_trial,
        "failed": counter.failed,
        "peak_rss_mib": peak_rss_mib,
        "check_failures": failures,
        "trace": None,
    }
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}-child{args.child}.csv")
        report["trace"] = {
            "layer_ref_s": dict(layer_ref_s),
            "counts": dict(tracer.counts),
            "trials": tracer.trials,
            "overheads": overheads,
            "traced_ref_s": sum(traced_costs) * NOMINAL_S,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
