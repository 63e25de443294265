"""Command-line behavior: files written, exit codes, override flags."""

import csv
import json

import pytest

from pcia import cli
from pcia.cli import CSV_HEADER, main


def _write_config(tmp_path, **overrides):
    cfg = {
        "num_users": 3,
        "rx_antennas": 2,
        "tx_antennas": 2,
        "dof_total": 3,
        "schemes": ["oneshot_partial", "bdzf_full"],
        "snr_grid_db": [0.0, 10.0],
        "trials": 3,
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _run(tmp_path, config, name="out.csv", *extra):
    out = tmp_path / name
    code = main(["run", "--config", str(config), "--out", str(out), *extra])
    return code, out


def test_run_writes_csv_and_json(tmp_path):
    code, out = _run(tmp_path, _write_config(tmp_path))
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 2  # schemes x SNR points
    for row in rows[1:]:
        assert row[1:5] == ["3", "2", "2", "3"]
        assert row[6] == "3"
        assert float(row[7]) > 0.0
        # floats are printed with nine significant digits
        assert row[7] == format(float(row[7]), ".9g")
    mirror = json.loads(out.with_suffix(".json").read_text())
    # the last column is the delivered stream count of the mirror's record
    assert CSV_HEADER[-1] == "mean_dof"
    assert [row[-1] for row in rows[1:]] == [
        format(rec["mean_dof"], ".9g") for rec in mirror["results"]]
    assert mirror["spec"]["num_users"] == 3
    assert len(mirror["results"]) == 4
    assert mirror["diagnostics"]["slots"] == 1
    assert mirror["diagnostics"]["slot_table"] == [[1, 1, 1]]
    assert mirror["diagnostics"]["per_user_average_dof"] == "1"
    assert mirror["diagnostics"]["workers"] == 1


def test_rerun_and_worker_count_are_byte_identical(tmp_path):
    config = _write_config(tmp_path)
    _, first = _run(tmp_path, config, "a.csv")
    _, second = _run(tmp_path, config, "b.csv")
    _, pooled = _run(tmp_path, config, "c.csv", "--workers", "2")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == pooled.read_bytes()


def test_flag_overrides_reach_the_spec(tmp_path):
    config = _write_config(tmp_path)
    code, out = _run(tmp_path, config, "out.csv",
                     "--trials", "2", "--seed", "9", "--snr", "5,15",
                     "--scheme", "oneshot_partial")
    assert code == 0
    mirror = json.loads(out.with_suffix(".json").read_text())
    assert mirror["spec"]["trials"] == 2
    assert mirror["spec"]["seed"] == 9
    assert mirror["spec"]["snr_grid_db"] == [5.0, 15.0]
    assert mirror["spec"]["schemes"] == ["oneshot_partial"]
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2


def test_oneshot_demand_beyond_width_exits_infeasible(tmp_path, capsys):
    config = _write_config(tmp_path, num_users=5, dof_total=5,
                           schemes=["oneshot_partial"])
    code, out = _run(tmp_path, config)
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "one-shot" in err
    assert "smallest paired antenna width is 4" in err


def test_slot_demand_beyond_antennas_exits_infeasible(tmp_path, capsys):
    config = _write_config(tmp_path, dof_total=7)
    code, _ = _run(tmp_path, config)
    assert code == 3
    assert "in one slot" in capsys.readouterr().err


def test_generic_scheme_needs_single_station_support(tmp_path, capsys):
    config = _write_config(tmp_path, tx_antennas=1, dof_total=4,
                           schemes=["distributed_generic"])
    code, _ = _run(tmp_path, config)
    assert code == 3
    assert "without pairing" in capsys.readouterr().err


@pytest.mark.parametrize("breakage, fragment", [
    ({"trials": 0}, "invalid config"),
    ({"extra_knob": 1}, "unknown config keys"),
    ({"schemes": ["zf"]}, "invalid config"),
    ({"snr_grid_db": [float("nan"), 10.0]}, "snr_grid_db"),
    ({"leakage_tol": float("nan")}, "leakage_tol"),
    ({"rank_tol": float("inf")}, "rank_tol"),
    ({"seed": -1}, "seed must not be negative"),
])
def test_bad_config_values_exit_two(tmp_path, capsys, breakage, fragment):
    config = _write_config(tmp_path, **breakage)
    code, _ = _run(tmp_path, config)
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_unreadable_and_malformed_configs_exit_two(tmp_path, capsys):
    code, _ = _run(tmp_path, tmp_path / "missing.json")
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = _run(tmp_path, broken)
    assert code == 2
    assert "malformed" in capsys.readouterr().err


def test_bad_snr_override_exits_two(tmp_path, capsys):
    config = _write_config(tmp_path)
    code, _ = _run(tmp_path, config, "out.csv", "--snr", "a,b")
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_worker_count_exits_two_before_any_work(tmp_path, capsys, monkeypatch, workers):
    def no_work(*args, **kwargs):
        raise AssertionError("worked with a bad --workers")

    monkeypatch.setattr(cli, "check_spec", no_work)
    monkeypatch.setattr(cli, "run_experiment", no_work)
    code, out = _run(tmp_path, _write_config(tmp_path), "out.csv", "--workers", workers)
    assert code == 2
    assert not out.exists()
    assert "--workers must be positive" in capsys.readouterr().err


def test_feasibility_table(capsys):
    assert main(["feasibility", "--m", "2", "--n", "2",
                 "--k-min", "2", "--k-max", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10  # five ring sizes, two modes each
    verdicts = {}
    for line in lines:
        fields = line.split()
        k = int(fields[0].split("=")[1])
        verdicts[(k, fields[1])] = fields[-1]
    for k in range(2, 7):
        assert verdicts[(k, "generic")] == ("proper" if k <= 3 else "improper")
        assert verdicts[(k, "partial")] == ("proper" if k <= 5 else "improper")


def test_feasibility_reports_skipped_systems(capsys):
    assert main(["feasibility", "--m", "1", "--n", "5",
                 "--k-min", "2", "--k-max", "2", "--mode", "generic"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_feasibility_rejects_bad_range(capsys):
    assert main(["feasibility", "--m", "2", "--n", "2",
                 "--k-min", "4", "--k-max", "3"]) == 2


@pytest.mark.parametrize("m, n", [("0", "2"), ("2", "-1")])
def test_feasibility_rejects_non_positive_antennas(capsys, m, n):
    assert main(["feasibility", "--m", m, "--n", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--m and --n must be positive" in err


def test_negative_seed_flag_exits_two(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("worked with a negative --seed")

    monkeypatch.setattr(cli, "check_spec", no_work)
    code, out = _run(tmp_path, _write_config(tmp_path), "out.csv", "--seed", "-1")
    assert code == 2
    assert not out.exists()
    assert "seed must not be negative" in capsys.readouterr().err


def test_schedule_command(capsys):
    assert main(["schedule", "5", "7"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert "slots=10" in head
    assert "boosted_per_user=4" in head
    assert "per_user_average=7/5" in head
    assert sum(1 for line in out.splitlines() if line.startswith("slot ")) == 10
    assert main(["schedule", "0", "3"]) == 2


def test_backhaul_table(capsys):
    assert main(["backhaul", "--k-min", "2", "--k-max", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["K", "partial_line", "partial_ring", "full_line", "full_ring"]
    assert "5 10 5 25 20" in lines
    assert len(lines) == 7
    assert main(["backhaul", "--k-min", "0", "--k-max", "3"]) == 2


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err
