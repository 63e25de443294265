"""The benchmark's own checks must reject wrong results.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import rates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from pcia import (  # noqa: E402
    ExperimentSpec,
    NetworkConfig,
    alignment_residual,
    build_permutation,
    equivalent_channel,
    evaluation,
    generate_channel,
    one_shot_ia,
    run_experiment,
    sum_rate,
)
from workloads import WORKLOADS  # noqa: E402

SPEC = dict(num_users=3, rx_antennas=2, tx_antennas=2, dof_total=4,
            schemes=("oneshot_partial", "bdzf_full"), snr_grid_db=(20.0, 30.0, 40.0))


@pytest.fixture(scope="module")
def sweep():
    spec = ExperimentSpec(**SPEC, trials=60, seed=5)
    return spec, checks.summarize(run_experiment(spec, workers=1))


def test_correct_sweep_passes(sweep):
    spec, summary = sweep
    assert checks.check_sweep(SPEC, [summary]) == []
    assert checks.check_rates(rates.expected_rates(spec), summary) == []


def test_rate_shifted_by_one_stream_is_rejected(sweep):
    spec, summary = sweep
    shifted = copy.deepcopy(summary)
    shifted["oneshot_partial"]["rate"] = [
        r + math.log2(1.0 + 10.0 ** (snr / 10.0))
        for r, snr in zip(shifted["oneshot_partial"]["rate"], SPEC["snr_grid_db"])]
    assert checks.check_rates(rates.expected_rates(spec), shifted)
    assert checks.check_sweep(SPEC, [shifted])


def test_unaligned_precoders_are_rejected():
    cfg = NetworkConfig.symmetric(3, 2, 2, 1)
    equiv = equivalent_channel(generate_channel(cfg, 9), build_permutation(cfg))
    beams = one_shot_ia(cfg, equiv)
    rng = np.random.default_rng(1)
    transmit = [np.linalg.qr(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))[0]
                for _ in range(3)]
    resid = alignment_residual(equiv.blocks, beams.receive, transmit)
    assert resid > checks.RESIDUAL_TOL
    direct = [equiv.blocks[k][k] for k in range(3)]
    program, formula = [], []
    for p in (100.0, 1000.0):
        program.append(sum_rate(equiv.blocks, beams.receive, transmit, [p] * 3, cfg.dof, 1.0)[1])
        formula.append(rates.aligned_sum_rate(direct, beams.receive, transmit, [p] * 3))
    summary = {"oneshot_partial": {"rate": program, "err": [0.0, 0.0],
                                   "resid": resid, "conv": 1.0, "dof": 3.0}}
    assert checks.check_rates({"oneshot_partial": formula}, summary)
    spec = dict(SPEC, dof_total=3, schemes=("oneshot_partial",), snr_grid_db=(20.0, 30.0))
    assert any("align_residual" in f for f in checks.check_sweep(spec, [summary]))


def _mutated(summary, scheme, **fields):
    out = copy.deepcopy(summary)
    out[scheme].update(fields)
    return [out]


def test_property_violations_are_rejected(sweep):
    _, s = sweep
    one, bd = s["oneshot_partial"], s["bdzf_full"]
    bad = [
        _mutated(s, "oneshot_partial", err=[math.nan] * 3),
        _mutated(s, "bdzf_full", rate=[-1.0] + bd["rate"][1:]),
        _mutated(s, "oneshot_partial", rate=one["rate"][::-1]),
        _mutated(s, "oneshot_partial", conv=0.99),
        _mutated(s, "oneshot_partial", dof=3.0),
        _mutated(s, "bdzf_full", dof=7.0),
        # A flat top of the curve: rate no longer grows with the streams.
        _mutated(s, "oneshot_partial", rate=one["rate"][:2] + [one["rate"][1] + 0.1]),
    ]
    for rounds in bad:
        assert checks.check_sweep(SPEC, rounds), rounds


def test_iterative_convergence_floor():
    spec = dict(WORKLOADS["iterative-k5-2x2"].spec)
    stats = {"rate": [10.0, 14.0, 40.0], "err": [0.1] * 3, "resid": 1e-5, "dof": 5.0}
    ok = {"distributed_partial": dict(stats, conv=0.95)}
    low = {"distributed_partial": dict(stats, conv=0.94)}
    assert checks.check_sweep(spec, [ok]) == []
    assert checks.check_sweep(spec, [low])


def test_zero_forcing_cap():
    assert checks.zf_stream_cap([2] * 5, [2] * 5) == 10
    assert checks.zf_stream_cap([2] * 3, [2] * 3) == 6
    assert checks.zf_stream_cap([2, 2], [1, 1]) == 0


def test_tracer_accounts_for_the_sweep():
    spec = ExperimentSpec(**SPEC, trials=2, seed=3)
    plain = checks.summarize(run_experiment(spec, workers=1))
    tracer = tracing.Tracer()
    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in tracing.TRACED}
    with tracing.patched(tracing.TRACED, tracer.wrap):
        traced = checks.summarize(tracer.run(evaluation.run_experiment, spec, workers=1))
    assert traced == plain
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    root = tracer.spans[0]
    assert root[0] == tracing.HARNESS
    assert sum(tracer.self_seconds().values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert tracer.trials == 2
    slots = len(spec.slot_dof())
    assert tracer.counts["evaluation.sum_rate_calls"] == 2 * 3 * (slots + 1)
    assert {s[4] for s in tracer.spans} == {0, 1}


def test_failure_counter_counts_raises():
    counter = tracing.FailureCounter()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        counter.wrap(boom, "x")()
    assert counter.failed == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
