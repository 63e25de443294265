"""Sum rates of aligned designs, recomputed apart from ``pcia.evaluation``.

With every cross link aligned out, unit noise and orthonormal receive
filters, user ``k``'s rate is ``log2 det(I + q_k E_k E_k^H)`` with
``E_k = U_k^H H_kk V_k`` and ``q_k`` its per-stream power. Only the public
channel draw, gather and solvers are reused; the formula and the power
pooling are written out here.
"""

from __future__ import annotations

import math

import numpy as np

from pcia import (
    bd_zero_forcing,
    build_permutation,
    equivalent_channel,
    generate_channel,
    one_shot_ia,
)


def aligned_sum_rate(direct, receive, transmit, stream_power) -> float:
    """``sum_k log2 det(I + q_k E_k E_k^H)`` over users with streams."""
    total = 0.0
    for h, u, v, q in zip(direct, receive, transmit, stream_power):
        if v.shape[1] == 0:
            continue
        e = u.conj().T @ h @ v
        _, logdet = np.linalg.slogdet(np.eye(e.shape[0]) + q * (e @ e.conj().T))
        total += logdet / math.log(2.0)
    return total


def expected_rates(spec) -> dict:
    """Mean aligned sum rate per SNR point for each aligned scheme of ``spec``.

    Draws trial ``t`` as the harness does, from ``(spec.seed, t)``. Power
    pooling: in a time-share slot the silenced users' budget goes to the
    active ones (``K / active`` each, split over their streams); BD pools
    all ``K`` budgets over all delivered streams.
    """
    k = spec.num_users
    slots = spec.slot_dof()
    powers = [10.0 ** (snr / 10.0) for snr in spec.snr_grid_db]
    sums = {s: np.zeros(len(powers)) for s in spec.schemes
            if s in ("oneshot_partial", "bdzf_full")}
    for trial in range(spec.trials):
        cfg = spec.slot_config(slots[0])
        channel = generate_channel(cfg, np.random.SeedSequence((spec.seed, trial)))
        if "oneshot_partial" in sums:
            equiv = equivalent_channel(channel, build_permutation(cfg))
            direct = [equiv.blocks[i][i] for i in range(k)]
            for row in slots:
                beams = one_shot_ia(spec.slot_config(row), equiv, rank_tol=spec.rank_tol)
                active = sum(1 for d in row if d)
                slot_rates = np.array([
                    aligned_sum_rate(direct, beams.receive, beams.transmit,
                                     [p * k / active / d if d else 0.0 for d in row])
                    for p in powers
                ])
                sums["oneshot_partial"] += slot_rates / len(slots)
        if "bdzf_full" in sums:
            sol = bd_zero_forcing(channel, rank_tol=spec.rank_tol)
            direct = [channel.row_block(i) for i in range(k)]
            sums["bdzf_full"] += np.array([
                aligned_sum_rate(direct, sol.receive, sol.transmit,
                                 [p * k / sol.dof_total] * k)
                for p in powers
            ])
    return {s: (v / spec.trials).tolist() for s, v in sums.items()}
