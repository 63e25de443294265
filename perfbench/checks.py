"""Properties every benchmark sweep must satisfy, checked after timing.

A sweep arrives as a list of round summaries, one per ``run_experiment``
call: ``{scheme: {"rate": [...], "err": [...], "resid", "conv", "dof"}}``
with ``rate``/``err`` per SNR point. Every round of a workload runs the
same number of trials, so the mean over rounds is the mean over trials.
Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math

ALIGNED = ("oneshot_partial", "bdzf_full")
RESIDUAL_TOL = 1e-8   # exact alignment leaves roundoff only
SLOPE_TOL = 0.15      # share of mean_dof the top-of-grid slope may miss by
CONV_FLOOR = 0.95     # acceptance bound for the iterative baseline
RATE_RTOL = 1e-9      # agreement with the independent rate formula


def summarize(result) -> dict:
    """Round summary of an ``ExperimentResult``."""
    spec = result.spec
    out = {}
    for scheme in spec.schemes:
        points = [result.point(scheme, snr) for snr in spec.snr_grid_db]
        out[scheme] = {
            "rate": [p.mean_sum_rate for p in points],
            "err": [p.std_err for p in points],
            "resid": points[0].align_residual,
            "conv": points[0].conv_frac,
            "dof": points[0].mean_dof,
        }
    return out


def zf_stream_cap(rx_antennas, tx_antennas) -> int:
    """Streams zero forcing can give each user independently, summed.

    User ``k`` keeps ``N - sum_{l != k} m_l`` interference-free directions
    of the ``N`` pooled antennas and can use at most ``m_k`` of them.
    """
    pooled = sum(tx_antennas)
    total_rx = sum(rx_antennas)
    return sum(max(0, min(m, pooled - (total_rx - m))) for m in rx_antennas)


def _per_user(value, num_users):
    return [value] * num_users if isinstance(value, int) else list(value)


def _merge(rounds):
    merged = {}
    for scheme in rounds[0]:
        stats = [r[scheme] for r in rounds]
        n = len(stats)
        merged[scheme] = {
            "rate": [math.fsum(col) / n for col in zip(*(s["rate"] for s in stats))],
            "resid": max(s["resid"] for s in stats),
            "conv": math.fsum(s["conv"] for s in stats) / n,
            "dof": math.fsum(s["dof"] for s in stats) / n,
        }
    return merged


def check_sweep(spec: dict, rounds: list) -> list:
    """Check pooled rounds of one workload against the method's properties.

    ``spec`` holds the workload's ``ExperimentSpec`` keywords.
    """
    if not rounds:
        return ["no rounds to check"]
    failures = []
    for i, summary in enumerate(rounds):
        for scheme, s in summary.items():
            values = [*s["rate"], *s["err"], s["resid"], s["conv"], s["dof"]]
            if not all(math.isfinite(v) for v in values):
                failures.append(f"round {i} {scheme}: non-finite statistic")
            elif min(s["rate"]) < 0:
                failures.append(f"round {i} {scheme}: negative mean_sum_rate")
    if failures:
        return failures

    grid = spec["snr_grid_db"]
    k = spec["num_users"]
    cap = zf_stream_cap(_per_user(spec["rx_antennas"], k),
                        _per_user(spec["tx_antennas"], k))
    for scheme, m in _merge(rounds).items():
        rate = m["rate"]
        if scheme in ALIGNED:
            if m["conv"] != 1.0:
                failures.append(f"{scheme}: conv_frac {m['conv']} != 1")
            if m["resid"] > RESIDUAL_TOL:
                failures.append(f"{scheme}: align_residual {m['resid']:.3g} > {RESIDUAL_TOL}")
            if any(b < a for a, b in zip(rate, rate[1:])):
                failures.append(f"{scheme}: mean_sum_rate decreases with SNR")
            # An interference-free stream gains one bit per doubling of SNR.
            span = (grid[-1] - grid[-2]) / 10.0 * math.log2(10.0)
            slope = (rate[-1] - rate[-2]) / span
            if abs(slope - m["dof"]) > SLOPE_TOL * m["dof"]:
                failures.append(f"{scheme}: slope {slope:.3f} vs mean_dof {m['dof']}")
        if scheme == "bdzf_full":
            if m["dof"] > cap:
                failures.append(f"{scheme}: mean_dof {m['dof']} above zero-forcing cap {cap}")
        elif m["dof"] != spec["dof_total"]:
            failures.append(f"{scheme}: mean_dof {m['dof']} != dof_total {spec['dof_total']}")
        if scheme.startswith("distributed") and m["conv"] < CONV_FLOOR:
            failures.append(f"{scheme}: conv_frac {m['conv']:.3f} < {CONV_FLOOR}")
    return failures


def check_rates(expected: dict, summary: dict) -> list:
    """Compare a round's mean rates with independently computed ones."""
    failures = []
    for scheme, want in expected.items():
        got = summary[scheme]["rate"]
        for i, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= RATE_RTOL * max(1.0, abs(w)):
                failures.append(f"{scheme} point {i}: rate {g!r} vs formula {w!r}")
    return failures
