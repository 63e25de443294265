"""The three Monte-Carlo sweeps the benchmark times.

Each workload is a set of ``ExperimentSpec`` keywords plus the number of
trials run per ``run_experiment`` call (one timed round). The trial count
per round keeps a round near 30-70 ms on the one-shot workloads, so the
harness's per-call aggregation stays under 1% of a round, while the
iterative workload times every trial on its own.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict               # ExperimentSpec keywords except trials and seed
    trials_per_round: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="iterative-k5-2x2",
        why="five 2x2 cells at 5 streams, where one-shot is infeasible: "
            "the iterative leakage loop is ~99% of the time",
        spec=dict(num_users=5, rx_antennas=2, tx_antennas=2, dof_total=5,
                  schemes=("distributed_partial",),
                  snr_grid_db=(10.0, 15.0, 35.0), max_iters=6000),
        trials_per_round=1,
    ),
    Workload(
        name="oneshot-k5-timeshare",
        why="five 2x2 cells at 4 streams over a 5-slot time-share table: "
            "many tiny one-shot and BD solves, bound by Python overhead",
        spec=dict(num_users=5, rx_antennas=2, tx_antennas=2, dof_total=4,
                  schemes=("oneshot_partial", "bdzf_full"),
                  snr_grid_db=(0.0, 10.0, 20.0, 30.0, 40.0)),
        trials_per_round=4,
    ),
    Workload(
        name="oneshot-k3-8x8-wide",
        why="three 8x8 cells at 9 streams in one slot: 10-wide null spaces "
            "make the 120-subset precoder search most of the time",
        spec=dict(num_users=3, rx_antennas=8, tx_antennas=8, dof_total=9,
                  schemes=("oneshot_partial",),
                  snr_grid_db=(20.0, 30.0, 40.0)),
        trials_per_round=4,
    ),
)}

# The warm-up call draws from this seed on every run, so set-up time does
# not depend on the workload seed.
WARMUP_SEED = 2**40


def round_seed(seed: int, child: int, index: int) -> int:
    """``ExperimentSpec.seed`` of timed round ``index`` in worker ``child``.

    Distinct for every (seed, child, index) with child < 10 and index < 10**5,
    so no two rounds of any run share a channel draw.
    """
    if not (0 <= child < 10 and 0 <= index < 10**5):
        raise ValueError("round index out of range")
    return seed * 10**6 + child * 10**5 + index
