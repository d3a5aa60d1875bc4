"""The answer-comparison tool flags every kind of change between two runs."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def answers():
    spec = importlib.util.spec_from_file_location("answers",
                                                  ROOT / "tools" / "answers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def pair(tmp_path):
    """Two copies of a small answer directory: A, and B to be edited."""
    a = tmp_path / "a" / "case"
    a.mkdir(parents=True)
    (a / "report.json").write_text(json.dumps(
        {"outcome": {"kind": "completed", "T": 1.0, "energy_drift": 3e-9}}))
    (a / "series.csv").write_text("t,E\n0,1.5\n0.5,1.25\n")
    (a / "stdout.txt").write_text("outcome=completed T=1\n")
    (a / "exit_code").write_text("0\n")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    return tmp_path / "a", tmp_path / "b"


def test_identical_runs_compare_clean(answers, pair):
    cmp = answers.compare(*pair)
    assert cmp.same_kind and not cmp.differing and len(cmp.identical) == 4
    assert answers.main(["diff", *map(str, pair)]) == 0


def test_one_ulp_change_is_flagged(answers, pair, capsys):
    a, b = pair
    ulp_up = float(np.nextafter(1.25, 2.0))
    (b / "case" / "series.csv").write_text(f"t,E\n0,1.5\n0.5,{ulp_up!r}\n")
    cmp = answers.compare(a, b)
    assert cmp.differing == ["case/series.csv"]
    r, where = cmp.relative()["series.csv:E"]
    assert r == np.spacing(1.25) / 1.5 and where == "case/series.csv"
    assert cmp.relative()["series.csv:t"][0] == 0
    assert cmp.same_kind  # numbers alone moved
    assert answers.main(["diff", str(a), str(b)]) == 0
    assert "series.csv:E: 1.48e-16 in case/series.csv" in capsys.readouterr().out


@pytest.mark.parametrize("edit, flagged", [
    (lambda b: (b / "report.json").write_text(json.dumps(
        {"outcome": {"kind": "blew_up", "T": 1.0, "energy_drift": 3e-9}})),
     "report.json:outcome.kind: 'completed' != 'blew_up'"),
    (lambda b: (b / "stdout.txt").write_text("outcome=blew_up T=1\n"),
     "stdout.txt: 'outcome=completed T=1' != 'outcome=blew_up T=1'"),
    (lambda b: (b / "exit_code").write_text("2\n"), "exit code 0 != 2"),
    (lambda b: (b / "series.csv").write_text("t,E\n0,1.5\n"), "2 rows != 1"),
])
def test_changed_outcome_is_flagged(answers, pair, capsys, edit, flagged):
    a, b = pair
    edit(b / "case")
    cmp = answers.compare(a, b)
    assert not cmp.same_kind
    assert any(flagged in item for item in cmp.kinds), cmp.kinds
    assert answers.main(["diff", str(a), str(b)]) == 1
    assert flagged in capsys.readouterr().out


def test_missing_file_is_flagged(answers, pair, capsys):
    a, b = pair
    (b / "case" / "series.csv").unlink()
    cmp = answers.compare(a, b)
    assert cmp.only_a == ["case/series.csv"] and not cmp.only_b
    assert not cmp.same_kind
    assert answers.main(["diff", str(a), str(b)]) == 1
    assert "only in A: case/series.csv" in capsys.readouterr().out


def test_run_fails_only_on_an_unexpected_exit_code(answers, tmp_path, monkeypatch,
                                                    capsys):
    cases = {case: (case, argv, code) for case, argv, code in answers.CASES}
    chosen = [cases["run-bad-p"], cases["well-interval-p3"]]
    monkeypatch.setattr(answers, "CASES", chosen)
    assert answers.main(["run", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "run-bad-p" / "exit_code").read_text() == "1\n"
    assert (tmp_path / "ok" / "well-interval-p3" / "well.json").exists()

    case, argv, _ = chosen[1]
    monkeypatch.setattr(answers, "CASES", [chosen[0], (case, argv, 2)])
    capsys.readouterr()
    assert answers.main(["run", str(tmp_path / "wrong")]) == 1
    assert "well-interval-p3: exit 0, expected 2" in capsys.readouterr().out


def test_run_into_a_used_directory_runs_nothing(answers, tmp_path, monkeypatch,
                                                capsys):
    cases = {case: (case, argv, code) for case, argv, code in answers.CASES}
    monkeypatch.setattr(answers, "CASES", [cases["run-bad-p"],
                                           cases["well-interval-p3"]])
    (tmp_path / "well-interval-p3").mkdir()
    assert answers.main(["run", str(tmp_path)]) == 2
    assert not (tmp_path / "run-bad-p").exists()
    out, err = capsys.readouterr()
    assert not out
    assert err == f"answers: {tmp_path / 'well-interval-p3'} already exists\n"
