"""One sha256 over the sweep records, feasibility verdicts and CLI output of a fixed panel.

Two trees that print the same digest produce the same ``to_records()``
and ``check_spec()`` output, bit for bit, on every spec of the panel: the
three benchmark workloads, a ragged ring with stations of 2, 3 and 2
antennas, and four 3x3 cells. They also print the same bytes on the CLI
panel, ``cli-panel``, run in-process through ``pcia.cli.main``:
``pcia run`` on a uniform and a 2-3-2 config (its CSV and JSON mirror,
the mirror's ``environment`` and ``workers`` masked), ``feasibility`` at
``--m 2 --n 2 --k-max 7`` and ``--m 3 --n 2``, ``schedule`` for K = 2 to
7 and totals 0 to 12, and ``backhaul``. Run it on both sides of a change
that should not move any output:

    python scripts/records_digest.py --trials 4 --workers 2

With ``--per-spec`` it first prints one ``label sha256`` line per panel
spec and one for the CLI panel, so a moved digest names what moved; the
combined digest is still the last line.

Where a digest moved, compare the values themselves. ``--dump FILE``
writes the hashed bytes, one JSON line per spec, and ``--against FILE``
reruns the panel and prints, per spec and record field, the worst
relative and absolute difference from the dump and how many values lie
past a relative 1e-12, in place of the digest. Labels, verdicts, schemes,
SNR points and any integer must match exactly, and NaN matches NaN. The
CLI panel is compared byte for byte, naming each command whose output
moved. It exits 1 when anything differs past the tolerance:

    python scripts/records_digest.py --trials 4 --dump before.jsonl
    # ... change the tree ...
    python scripts/records_digest.py --trials 4 --against before.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from pcia import ExperimentSpec, check_spec, cli, run_experiment

# The most a record value may move, relative to the larger of its two sides.
TOLERANCE = 1e-12
# Record fields that name a point rather than measure it: compared exactly.
KEYS = ("scheme", "snr_db")
# The CLI panel's label, the last line of a dump.
CLI_PANEL = "cli-panel"
# The configs the CLI panel runs, every scheme at two SNR points.
RUN_CONFIGS = {
    "uniform-k3-2x2": dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=3,
                           snr_grid_db=[0.0, 20.0], seed=0),
    "stations-2-3-2": dict(num_users=3, rx_antennas=[2, 3, 2], tx_antennas=[2, 3, 2],
                           dof_total=4, snr_grid_db=[0.0, 20.0], seed=0),
}
# The CLI panel's table commands, as ``pcia`` arguments.
TABLES = ([["feasibility", "--m", "2", "--n", "2", "--k-max", "7"],
           ["feasibility", "--m", "3", "--n", "2"]]
          + [["schedule", str(k), str(total)] for k in range(2, 8) for total in range(13)]
          + [["backhaul"]])


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


def _cli(argv):
    """``[exit code, stdout, stderr]`` of one in-process ``pcia`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _run_output(config, trials, workers):
    """``pcia run``'s exit code, stdout and stderr, then its CSV and its JSON mirror.

    The run's directory reads ``OUT``, and the mirror's ``environment``
    and ``workers``, which differ between machines and worker counts by
    design, read ``masked``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "config.json").write_text(json.dumps(config))
        result = _cli(["run", "--config", str(out / "config.json"), "--out",
                       str(out / "rates.csv"), "--trials", str(trials),
                       "--workers", str(workers)])
        result = [r.replace(tmp, "OUT") if isinstance(r, str) else r for r in result]
        if result[0] != 0:
            return result
        mirror = json.loads((out / "rates.json").read_text())
        mirror["diagnostics"].update(environment="masked", workers="masked")
        return result + [(out / "rates.csv").read_text(), json.dumps(mirror, indent=2)]


def cli_panel(trials, workers):
    """``[command, output]`` per CLI panel command, ``pcia run`` at ``trials`` and ``workers``."""
    runs = [[f"pcia run {name}", _run_output(config, trials, workers)]
            for name, config in RUN_CONFIGS.items()]
    return runs + [["pcia " + " ".join(argv), _cli(argv)] for argv in TABLES]


def spec_bytes(trials, workers):
    """The hashed bytes: per panel spec, the JSON of its label, ``check_spec`` verdict
    and records, then the JSON of the CLI panel's label and outputs."""
    return [json.dumps([label, check_spec(spec),
                        run_experiment(spec, workers=workers).to_records()]).encode()
            for label, spec in panel(trials)] + [
        json.dumps([CLI_PANEL, cli_panel(trials, workers)]).encode()]


def digests(data):
    """``(per_spec, combined)``: each spec's ``(label, hex sha256)``, and one over all.

    ``data`` is :func:`spec_bytes`; the combined hash reads every spec's
    bytes in panel order, the CLI panel's last.
    """
    h = hashlib.sha256()
    per_spec = []
    for spec in data:
        h.update(spec)
        per_spec.append((json.loads(spec)[0], hashlib.sha256(spec).hexdigest()))
    return per_spec, h.hexdigest()


def difference(a, b):
    """``(relative, absolute)`` difference of two record values.

    Relative is to the larger modulus. Equal values, NaN against NaN
    included, differ by zero. Only two floats may differ by a finite
    amount: unequal integers, strings or None, and a NaN or infinity
    against anything else, differ infinitely.
    """
    floats = isinstance(a, float) and isinstance(b, float)
    if a == b or (floats and math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b) if floats else math.inf
    if not math.isfinite(gap):
        return math.inf, math.inf
    return gap / max(abs(a), abs(b)), gap


def _compare_cli(commands, commands_now):
    """``(lines, moved)`` for the CLI panel: one line per command whose output moved."""
    if [c for c, _ in commands] != [c for c, _ in commands_now]:
        return [f"{CLI_PANEL}: the commands differ"], True
    lines = [f"{CLI_PANEL}: {command} output moved"
             for (command, output), (_, now) in zip(commands, commands_now) if output != now]
    return lines or [f"{CLI_PANEL}: every output of {len(commands)} commands the same"], bool(lines)


def compare(dumped, current):
    """``(lines, moved)``: one report line per spec and field, and whether anything moved.

    Each side lists ``[label, verdict, records]`` per spec, then the CLI
    panel's ``[label, commands]``. A spec whose label, verdict, schemes,
    SNR points or fields differ gets one line saying so; otherwise each
    measured field gets its worst relative and absolute difference and the
    count of values past ``TOLERANCE``. The CLI panel gets one line per
    command whose output moved, or one saying none did.
    """
    if [spec[0] for spec in dumped] != [spec[0] for spec in current]:
        return [f"panel labels differ: {[s[0] for s in dumped]} is now "
                f"{[s[0] for s in current]}"], True
    lines, moved = [], False
    for before, now in zip(dumped, current):
        if before[0] == CLI_PANEL:
            cli_lines, cli_moved = _compare_cli(before[1], now[1])
            lines += cli_lines
            moved |= cli_moved
            continue
        (label, verdict, records), (_, verdict_now, records_now) = before, now
        layout = [([r[k] for k in KEYS], list(r)) for r in records]
        if verdict != verdict_now:
            lines.append(f"{label}: check_spec verdict {verdict!r} is now {verdict_now!r}")
            moved = True
        elif layout != [([r[k] for k in KEYS], list(r)) for r in records_now]:
            lines.append(f"{label}: schemes, SNR points or fields differ")
            moved = True
        else:
            for field in (f for f in (records[0] if records else ()) if f not in KEYS):
                diffs = [difference(r[field], s[field]) for r, s in zip(records, records_now)]
                past = sum(rel > TOLERANCE for rel, _ in diffs)
                lines.append(f"{label} {field}: worst relative {max(d[0] for d in diffs):.3g}, "
                             f"absolute {max(d[1] for d in diffs):.3g}, "
                             f"{past} of {len(diffs)} past {TOLERANCE:g}")
                moved |= past > 0
    return lines, moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=4, help="trials per spec")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    parser.add_argument("--per-spec", action="store_true",
                        help="print each panel spec's digest before the combined one")
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--dump", metavar="FILE",
                       help="also write the hashed bytes, one JSON line per spec")
    files.add_argument("--against", metavar="FILE",
                       help="compare with a dump instead of printing digests; "
                            "exit 1 past a relative 1e-12")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be positive, got {args.trials}")
    if args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")
    if args.against and args.per_spec:
        parser.error("--per-spec prints digests, which --against replaces")
    dumped = None
    if args.against:
        try:
            with open(args.against) as f:
                dumped = [json.loads(line) for line in f]
        except (OSError, ValueError) as err:
            parser.error(f"cannot read --against {args.against}: {err}")
    data = spec_bytes(args.trials, args.workers)
    if dumped is not None:
        lines, moved = compare(dumped, [json.loads(spec) for spec in data])
        print("\n".join(lines))
        print(f"moved past {TOLERANCE:g}" if moved else "no value moved")
        if moved:
            sys.exit(1)
        return
    if args.dump:
        with open(args.dump, "wb") as f:
            f.write(b"\n".join(data))
    per_spec, combined = digests(data)
    if args.per_spec:
        for label, hexdigest in per_spec:
            print(label, hexdigest)
    print(combined)


if __name__ == "__main__":
    main()
