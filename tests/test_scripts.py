"""The experiment scripts: presets pass the feasibility check, reports print."""

import importlib.util
from pathlib import Path

import pytest

from pcia import ExperimentSpec, check_spec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def test_coordination_report_prints_both_tables(capsys):
    _load("coordination_report").main(["--max-users", "4"])
    properness, backhaul = capsys.readouterr().out.strip().split("\n\n")
    lines = properness.splitlines()
    assert lines[0].split() == ["K", "m", "n", "dof", "generic", "paired"]
    assert " 4  2  2    4    False    True" in lines
    lines = backhaul.splitlines()
    assert lines[0].split() == ["K", "partial", "ring", "partial", "line",
                                "full", "line", "full", "ring"]
    assert [line.split() for line in lines[1:]] == [
        ["2", "2", "4", "4", "2"], ["3", "3", "6", "9", "6"], ["4", "4", "8", "16", "12"],
    ]


@pytest.mark.parametrize("snr, fragment", [("a,b", "cannot parse --snr 'a,b'"),
                                           (",", "snr_grid_db must not be empty")])
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
