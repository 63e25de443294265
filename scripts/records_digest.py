"""One sha256 over the sweep records and feasibility verdicts of a fixed panel.

Two trees that print the same digest produce the same ``to_records()``
and ``check_spec()`` output, bit for bit, on every spec of the panel: the
three benchmark workloads, a ragged ring with stations of 2, 3 and 2
antennas, and four 3x3 cells. Run it on both sides of a change that
should not move any output:

    python scripts/records_digest.py --trials 4 --workers 2

With ``--per-spec`` it first prints one ``label sha256`` line per panel
spec, so a moved digest names the specs whose output moved; the combined
digest is still the last line.
"""

import argparse
import hashlib
import json

from pcia import ExperimentSpec, check_spec, run_experiment


def panel(trials):
    """``(label, spec)`` pairs, each spec at ``trials`` trials."""
    common = dict(trials=trials, seed=0)
    return [
        ("iterative-k5-2x2",
         ExperimentSpec(5, 2, 2, 5, ("distributed_partial",), (10.0, 15.0, 35.0),
                        max_iters=6000, **common)),
        ("oneshot-k5-timeshare",
         ExperimentSpec(5, 2, 2, 4, ("oneshot_partial", "bdzf_full"),
                        (0.0, 10.0, 20.0, 30.0, 40.0), **common)),
        ("oneshot-k3-8x8-wide",
         ExperimentSpec(3, 8, 8, 9, ("oneshot_partial",), (20.0, 30.0, 40.0), **common)),
        ("stations-2-3-2",
         ExperimentSpec(3, (2, 3, 2), (2, 3, 2), 4, snr_grid_db=(0.0, 20.0), **common)),
        ("k4-3x3",
         ExperimentSpec(4, 3, 3, 6, snr_grid_db=(0.0, 20.0), **common)),
    ]


def digests(trials, workers):
    """``(per_spec, combined)``: each panel spec's ``(label, hex sha256)``, and one over all.

    A spec's bytes are its label, ``check_spec`` verdict and records; the
    combined hash reads every spec's bytes in panel order.
    """
    h = hashlib.sha256()
    per_spec = []
    for label, spec in panel(trials):
        records = run_experiment(spec, workers=workers).to_records()
        data = json.dumps([label, check_spec(spec), records]).encode()
        h.update(data)
        per_spec.append((label, hashlib.sha256(data).hexdigest()))
    return per_spec, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=4, help="trials per spec")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    parser.add_argument("--per-spec", action="store_true",
                        help="print each panel spec's digest before the combined one")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be positive, got {args.trials}")
    if args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")
    per_spec, combined = digests(args.trials, args.workers)
    if args.per_spec:
        for label, hexdigest in per_spec:
            print(label, hexdigest)
    print(combined)


if __name__ == "__main__":
    main()
