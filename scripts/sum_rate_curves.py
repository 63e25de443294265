"""Monte-Carlo sum-rate curves for the headline network comparisons.

Each preset bundles the schemes worth plotting against each other for
one antenna configuration. The output CSV has one row per (curve, SNR)
point and is ready for any plotting tool:

    python scripts/sum_rate_curves.py k5-2x2 --trials 200 --out k5.csv
"""

import argparse
import csv
import sys

from pcia import ExperimentSpec, check_spec, multiplexing_gain_estimate, run_experiment

DEFAULT_GRID = tuple(float(s) for s in range(0, 45, 5))


def preset_specs(name, trials, seed, grid):
    common = dict(snr_grid_db=grid, trials=trials, seed=seed)
    if name == "k3-2x2":
        return [
            ("oneshot d3", ExperimentSpec(3, 2, 2, 3, ("oneshot_partial",), **common)),
            ("oneshot d4", ExperimentSpec(3, 2, 2, 4, ("oneshot_partial",), **common)),
            ("iterative generic d3",
             ExperimentSpec(3, 2, 2, 3, ("distributed_generic",), **common)),
            ("full coordination", ExperimentSpec(3, 2, 2, 3, ("bdzf_full",), **common)),
        ]
    if name == "k4-3x3":
        return [
            ("oneshot d6", ExperimentSpec(4, 3, 3, 6, ("oneshot_partial",), **common)),
            ("iterative generic d6",
             ExperimentSpec(4, 3, 3, 6, ("distributed_generic",), **common)),
            ("full coordination", ExperimentSpec(4, 3, 3, 6, ("bdzf_full",), **common)),
        ]
    if name == "k5-2x2":
        return [
            ("oneshot d4 time-shared",
             ExperimentSpec(5, 2, 2, 4, ("oneshot_partial",), **common)),
            ("iterative paired d5",
             ExperimentSpec(5, 2, 2, 5, ("distributed_partial",),
                            max_iters=6000, **common)),
            ("full coordination", ExperimentSpec(5, 2, 2, 5, ("bdzf_full",), **common)),
        ]
    raise KeyError(name)


PRESETS = ("k3-2x2", "k4-3x3", "k5-2x2")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset", choices=PRESETS)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--snr", default=None,
                        help="comma-separated grid in dB (default 0..40 step 5)")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")

    grid = DEFAULT_GRID
    if args.snr is not None:
        try:
            grid = tuple(float(v) for v in args.snr.split(",") if v.strip())
        except ValueError:
            parser.error(f"cannot parse --snr {args.snr!r} as comma-separated dB values")

    try:
        curves = preset_specs(args.preset, args.trials, args.seed, grid)
    except ValueError as exc:
        parser.error(f"invalid config: {exc}")
    for label, spec in curves:
        reason = check_spec(spec)
        if reason is not None:
            sys.exit(f"error: {label}: {reason}")

    rows = []
    for label, spec in curves:
        result = run_experiment(spec, workers=args.workers)
        scheme = spec.schemes[0]
        for snr in grid:
            point = result.point(scheme, snr)
            rows.append({
                "curve": label,
                "snr_db": snr,
                "mean_sum_rate": f"{point.mean_sum_rate:.9g}",
                "std_err": f"{point.std_err:.9g}",
                "conv_frac": f"{point.conv_frac:.9g}",
                "mean_dof": f"{point.mean_dof:.9g}",
            })
        if len(grid) >= 2:
            slope = multiplexing_gain_estimate(result, scheme, grid[-2], grid[-1])
            print(f"{label}: top-of-grid slope {slope:.2f} streams", file=sys.stderr)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()


if __name__ == "__main__":
    main()
