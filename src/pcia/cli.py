"""Command-line front end: experiment sweeps and closed-form tables."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from .evaluation import SCHEMES, ExperimentSpec, PointStats, check_spec, run_experiment
from .feasibility import (
    _BACKHAUL,
    backhaul_rate,
    is_proper_generic,
    is_proper_partial,
    time_share_schedule,
)

# The statistics of each point, in :class:`PointStats`'s field order.
_STATS = [f.name for f in dataclasses.fields(PointStats)]
CSV_HEADER = ["scheme", "K", "m", "n", "dof_total", "snr_db", "trials", *_STATS]

EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3

_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _antenna_label(counts) -> str:
    return str(counts[0]) if len(set(counts)) == 1 else "-".join(map(str, counts))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_spec(args) -> ExperimentSpec:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise _ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"malformed config {path}: {exc}")
    if not isinstance(raw, dict):
        raise _ConfigError(f"config {path} must hold a single JSON object")
    unknown = sorted(set(raw) - _SPEC_FIELDS)
    if unknown:
        raise _ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    if args.snr is not None:
        try:
            raw["snr_grid_db"] = [float(v) for v in args.snr.split(",") if v.strip()]
        except ValueError:
            raise _ConfigError(f"cannot parse --snr {args.snr!r} as comma-separated dB values")
    if args.scheme:
        raw["schemes"] = list(args.scheme)
    try:
        return ExperimentSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise _ConfigError(f"invalid config: {exc}")


class _ConfigError(Exception):
    pass


def cmd_run(args) -> int:
    if args.workers < 1:
        return _fail(f"--workers must be positive, got {args.workers}", EXIT_BAD_CONFIG)
    try:
        spec = _load_spec(args)
    except _ConfigError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    out_csv = Path(args.out)
    if not out_csv.parent.is_dir():
        return _fail(f"output directory {out_csv.parent} does not exist", EXIT_BAD_CONFIG)
    reason = check_spec(spec)
    if reason is not None:
        return _fail(reason, EXIT_INFEASIBLE)
    records = run_experiment(spec, workers=args.workers).to_records()
    rows = [[rec["scheme"], str(spec.num_users), _antenna_label(spec.rx_antennas),
             _antenna_label(spec.tx_antennas), str(spec.dof_total), _fmt(rec["snr_db"]),
             str(spec.trials), *(_fmt(rec[name]) for name in _STATS)] for rec in records]
    with out_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    schedule = time_share_schedule(spec.num_users, spec.dof_total)
    mirror = {
        "spec": dataclasses.asdict(spec),
        "results": records,
        "diagnostics": {
            "slots": schedule.num_slots,
            "slot_table": [list(r) for r in schedule.slot_table],
            "per_user_average_dof": str(schedule.per_user_average),
            "workers": args.workers,
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            **{v: os.environ.get(v, "unset") for v in _BLAS_THREAD_VARS}},
        },
    }
    out_json = out_csv.with_suffix(".json")
    out_json.write_text(json.dumps(mirror, indent=2) + "\n")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def cmd_feasibility(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min:
        return _fail("need 2 <= k-min <= k-max", EXIT_BAD_CONFIG)
    if args.m < 1 or args.n < 1:
        return _fail("--m and --n must be positive antenna counts", EXIT_BAD_CONFIG)
    modes = ["generic", "partial"] if args.mode == "both" else [args.mode]
    for k in range(args.k_min, args.k_max + 1):
        for mode in modes:
            check = is_proper_generic if mode == "generic" else is_proper_partial
            try:
                verdict = check(k, args.m, args.n)
            except ValueError as exc:
                print(f"K={k:<2} {mode:<8} skipped: {exc}")
                continue
            word = "proper" if verdict.proper else "improper"
            print(
                f"K={k:<2} {mode:<8} {verdict.system_label:<14} "
                f"Ne={verdict.num_equations} Nv={verdict.num_variables} "
                f"bound K<={verdict.bound_rhs} {word}"
            )
    return 0


def cmd_schedule(args) -> int:
    try:
        sched = time_share_schedule(args.users, args.dof_total)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    print(
        f"users={sched.num_users} dof_total={sched.dof_total} "
        f"remainder={sched.remainder} slots={sched.num_slots} "
        f"boosted_per_user={sched.boosted_slots_per_user} "
        f"per_user_average={sched.per_user_average}"
    )
    for t, row in enumerate(sched.slot_table):
        print(f"slot {t}: " + " ".join(map(str, row)))
    return 0


def cmd_backhaul(args) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        return _fail("need 1 <= k-min <= k-max", EXIT_BAD_CONFIG)
    print(" ".join(["K"] + [f"{coordination}_{topology}" for topology, coordination in _BACKHAUL]))
    for k in range(args.k_min, args.k_max + 1):
        print(" ".join([str(k)] + [str(backhaul_rate(k, *pair)) for pair in _BACKHAUL]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcia",
        description="Interference alignment experiments for partially "
                    "coordinated multicell downlinks",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="Monte-Carlo sum-rate sweep from a JSON config")
    run.add_argument("--config", required=True, help="JSON file with ExperimentSpec keys")
    run.add_argument("--out", required=True, help="CSV output path (JSON mirror alongside)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    run.add_argument("--snr", default=None, help="override SNR grid, comma-separated dB")
    run.add_argument("--scheme", action="append", choices=SCHEMES,
                     help="override schemes (repeatable)")
    run.set_defaults(func=cmd_run)

    feas = sub.add_parser("feasibility", help="properness table over a range of ring sizes")
    feas.add_argument("--k-min", type=int, default=2)
    feas.add_argument("--k-max", type=int, default=6)
    feas.add_argument("--m", type=int, required=True, help="receive antennas per user")
    feas.add_argument("--n", type=int, required=True, help="transmit antennas per cell")
    feas.add_argument("--mode", choices=["generic", "partial", "both"], default="both")
    feas.set_defaults(func=cmd_feasibility)

    sched = sub.add_parser("schedule", help="time-sharing slot plan for a stream total")
    sched.add_argument("users", type=int)
    sched.add_argument("dof_total", type=int)
    sched.set_defaults(func=cmd_schedule)

    back = sub.add_parser("backhaul", help="backhaul load table by topology and coordination")
    back.add_argument("--k-min", type=int, default=2)
    back.add_argument("--k-max", type=int, default=7)
    back.set_defaults(func=cmd_backhaul)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_BAD_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
