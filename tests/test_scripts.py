"""The experiment scripts: presets pass the feasibility check, bad options exit early."""

import importlib.util
import re
from pathlib import Path

import pytest

from pcia import ExperimentSpec, check_spec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_preset_passes_check_spec():
    curves = _load("sum_rate_curves")
    checked = 0
    for preset in curves.PRESETS:
        for label, spec in curves.preset_specs(preset, 1, 0, curves.DEFAULT_GRID):
            assert check_spec(spec) is None, f"{preset}: {label}"
            checked += 1
    assert checked == 10


def test_infeasible_preset_exits_before_sweeping(monkeypatch):
    curves = _load("sum_rate_curves")
    too_many = ExperimentSpec(5, 2, 2, 5, ("oneshot_partial",), trials=1)
    monkeypatch.setattr(curves, "preset_specs", lambda *args: [("oneshot d5", too_many)])

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept an infeasible preset")

    monkeypatch.setattr(curves, "run_experiment", no_sweep)
    with pytest.raises(SystemExit) as exc:
        curves.main(["k5-2x2"])
    assert "oneshot d5" in str(exc.value.code)
    assert "smallest paired antenna width is 4" in str(exc.value.code)


@pytest.mark.parametrize("snr, fragment", [("a,b", "cannot parse --snr 'a,b'"),
                                           (",", "snr_grid_db must not be empty"),
                                           ("10,10", "snr_grid_db must not repeat a point")])
def test_bad_snr_grid_exits_two(monkeypatch, capsys, snr, fragment):
    curves = _load("sum_rate_curves")

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept with a bad --snr")

    monkeypatch.setattr(curves, "run_experiment", no_sweep)
    with pytest.raises(SystemExit) as exc:
        curves.main(["k3-2x2", "--snr", snr])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_negative_seed_exits_two(monkeypatch, capsys):
    curves = _load("sum_rate_curves")

    def no_work(*args, **kwargs):
        raise AssertionError("worked with a negative --seed")

    monkeypatch.setattr(curves, "check_spec", no_work)
    with pytest.raises(SystemExit) as exc:
        curves.main(["k3-2x2", "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_worker_count_exits_two_before_any_work(monkeypatch, capsys, workers):
    curves = _load("sum_rate_curves")

    def no_work(*args, **kwargs):
        raise AssertionError("worked with a bad --workers")

    monkeypatch.setattr(curves, "check_spec", no_work)
    monkeypatch.setattr(curves, "run_experiment", no_work)
    with pytest.raises(SystemExit) as exc:
        curves.main(["k3-2x2", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers must be positive" in capsys.readouterr().err


def test_missing_out_directory_exits_two_before_any_work(monkeypatch, capsys, tmp_path):
    curves = _load("sum_rate_curves")

    def no_work(*args, **kwargs):
        raise AssertionError("worked with a missing --out directory")

    monkeypatch.setattr(curves, "check_spec", no_work)
    monkeypatch.setattr(curves, "run_experiment", no_work)
    with pytest.raises(SystemExit) as exc:
        curves.main(["k3-2x2", "--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


def test_records_digest_is_one_hash_for_any_worker_count(capsys):
    digest = _load("records_digest")
    outputs = []
    for workers in ("1", "2"):
        digest.main(["--trials", "1", "--workers", workers])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert re.fullmatch(r"[0-9a-f]{64}\n", outputs[0])


def test_per_spec_digest_labels_each_spec_and_ends_with_the_combined_hash(capsys):
    digest = _load("records_digest")
    digest.main(["--trials", "1"])
    combined = capsys.readouterr().out
    digest.main(["--trials", "1", "--per-spec"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] + "\n" == combined
    labels = [label for label, _ in digest.panel(1)]
    assert len(lines[:-1]) == len(labels) == 5
    for line, label in zip(lines[:-1], labels):
        assert re.fullmatch(rf"{label} [0-9a-f]{{64}}", line)


def test_digest_panel_follows_the_benchmark_workloads(monkeypatch):
    # The panel's first three specs are the benchmark's workloads, so a
    # digest shows that a change moves none of the timed outputs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    trials = 3
    panel = dict(_load("records_digest").panel(trials))
    for label, workload in WORKLOADS.items():
        assert panel[label] == ExperimentSpec(**workload.spec, trials=trials, seed=0)
