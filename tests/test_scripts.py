"""The experiment scripts: presets pass the feasibility check, bad options exit early."""

import hashlib
import importlib.util
import json
import math
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


def test_a_dump_compared_with_its_own_tree_shows_no_difference(capsys, tmp_path):
    digest = _load("records_digest")
    dump = tmp_path / "records.jsonl"
    digest.main(["--trials", "1", "--dump", str(dump)])
    combined = capsys.readouterr().out
    # the dump holds the hashed bytes, one spec per line
    assert hashlib.sha256(dump.read_bytes().replace(b"\n", b"")).hexdigest() + "\n" == combined
    digest.main(["--trials", "1", "--against", str(dump)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no value moved"
    # five specs of five measured fields each
    assert len(lines[:-1]) == 25
    for line in lines[:-1]:
        assert re.fullmatch(r"\S+ \w+: worst relative 0, absolute 0, 0 of \d+ past 1e-12", line)


def test_the_comparison_names_the_spec_and_field_that_moved(monkeypatch, capsys, tmp_path):
    digest = _load("records_digest")
    # the last panel spec alone, k4-3x3: four schemes at two SNR points
    panel = digest.panel
    monkeypatch.setattr(digest, "panel", lambda trials: panel(trials)[-1:])
    dump = tmp_path / "records.jsonl"
    digest.main(["--trials", "1", "--dump", str(dump)])
    capsys.readouterr()
    [(label, verdict, records)] = [json.loads(dump.read_text())]
    records[1]["mean_sum_rate"] *= 1 + 1e-9
    records[2]["align_residual"] = float("nan")
    dump.write_text(json.dumps([label, verdict, records]))
    with pytest.raises(SystemExit) as exc:
        digest.main(["--trials", "1", "--against", str(dump)])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert re.search(r"^k4-3x3 mean_sum_rate: worst relative 1e-09, absolute \S+, 1 of 8 past",
                     out, re.M)
    assert "k4-3x3 align_residual: worst relative inf, absolute inf, 1 of 8 past" in out
    assert "k4-3x3 std_err: worst relative 0, absolute 0, 0 of 8 past" in out
    assert out.endswith("moved past 1e-12\n")
    # NaN matches NaN; labels, verdicts and points must match exactly
    assert digest.difference(float("nan"), float("nan")) == (0.0, 0.0)
    assert digest.difference(3, 4) == digest.difference(None, 0.0) == (math.inf, math.inf)
    records[3]["snr_db"] = 21.0
    assert digest.compare([[label, verdict, records]], [[label, verdict, records[:3]]])[1]
    assert digest.compare([[label, "no", []]], [[label, None, []]]) == (
        ["k4-3x3: check_spec verdict 'no' is now None"], True)


def test_code_lines_count_neither_docstrings_nor_comments_nor_blank_lines(capsys, tmp_path):
    script = _load("code_lines")
    (tmp_path / "sample.py").write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def add(a,\n"
        "        b):\n"
        '    """A function docstring."""\n'
        "    return (a +  # a trailing comment\n"
        "            b)\n"
        'TEXT = """a string that is\nno docstring"""\n', encoding="utf-8")
    # code on lines 6, 7, 9, 10, 11 and 12 of 12
    assert script.counts(tmp_path) == [("sample.py", 12, 6)]
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "12", "6"]


def test_code_lines_per_definition_count_each_top_level_function_and_class(capsys, tmp_path):
    script = _load("code_lines")
    (tmp_path / "sample.py").write_text(
        '"""A module docstring."""\n'
        "import functools\n"
        "\n"
        "@functools.cache\n"
        "def one():\n"
        '    """A function docstring."""\n'
        "    # a comment\n"
        "    return 1\n"
        "\n"
        "class Pair:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def first(self):\n"
        "        return one()\n", encoding="utf-8")
    # one spans lines 4-8 with code on 4, 5 and 8; Pair spans 10-14 with
    # code on 10, 13 and 14; the import is no definition
    assert script.definition_counts(tmp_path) == [("sample.py:one", 5, 3),
                                                  ("sample.py:Pair", 5, 3)]
    assert script.main(["--defs", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [["sample.py:one", "5", "3"],
                                                   ["sample.py:Pair", "5", "3"]]
