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


@pytest.fixture
def recorded(answers, tmp_path):
    """A small `run` directory's recorded summary, and a copy of the
    directory to be edited: a run case and a `well` case whose C* ended on
    the fixed-point test."""
    out = tmp_path / "out"
    case, fine = out / "case", out / "well-fine"
    case.mkdir(parents=True)
    fine.mkdir()
    (case / "exit_code").write_text("0\n")
    (case / "stdout.txt").write_text("outcome=completed T=1 t_max~0.507012\n")
    (case / "report.json").write_text(json.dumps(
        {"E0": 1.0, "outcome": {"kind": "completed", "T": 1.0, "energy_drift": 1e-13,
                                "linear_solves": 400, "t_max_estimate": None},
         "well": {"c_star": 0.35, "iterations": 14, "residual": 6e-11}}))
    (case / "series.csv").write_text("t,E\n0,1.5\n0.5,1.25\n1,-2\n")
    (case / "u0.txt").write_text("# dampedwave-field v1 interval:1.0:3\n0.5\n1\n0.5\n")
    (fine / "exit_code").write_text("0\n")
    (fine / "well.json").write_text(json.dumps(
        {"c_star": 0.35, "iterations": 21, "residual": 1.8e-10}))
    ref = tmp_path / "ref.json"
    assert answers.main(["record", str(out), str(ref)]) == 0
    shutil.copytree(out, tmp_path / "new")
    return ref, tmp_path / "new"


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _check(answers, ref, new, capsys):
    capsys.readouterr()
    code = answers.main(["check", str(ref), str(new)])
    return code, capsys.readouterr().out


def test_check_passes_a_run_within_tolerance(answers, recorded, capsys):
    ref, new = recorded
    assert _check(answers, ref, new, capsys)[0] == 0

    def within(data):
        data["E0"] *= 1.0 + 5e-11
        data["outcome"]["energy_drift"] *= 1.079  # rounding level: under the floor
        data["well"]["residual"] = 9e-11  # still below GRAD_TOL
    _edit_json(new / "case" / "report.json", within)
    # 1e-9 of the column's largest |x|, 2
    (new / "case" / "series.csv").write_text("t,E\n0,1.500000002\n0.5,1.25\n1,-2\n")
    _edit_json(new / "well-fine" / "well.json",
               lambda data: data.update(iterations=23, residual=3e-10))
    code, out = _check(answers, ref, new, capsys)
    assert code == 0, out
    assert out == "check: 7 files in the reference, 0 differences\n"


@pytest.mark.parametrize("edit, flagged", [
    (lambda case: (case / "exit_code").write_text("1\n"), "case/exit_code: code: 1 != 0"),
    (lambda case: _edit_json(case / "report.json",
                             lambda d: d["outcome"].update(kind="blew_up")),
     "outcome.kind: 'blew_up' != 'completed'"),
    (lambda case: _edit_json(case / "report.json",
                             lambda d: d["outcome"].update(t_max_estimate=0.5)),
     "outcome.t_max_estimate: 0.5 != None"),
    (lambda case: _edit_json(case / "report.json", lambda d: d.pop("E0")),
     "case/report.json: key E0 on one side only"),
    (lambda case: (case / "stdout.txt").write_text("outcome=blew_up T=1 t_max~0.507012\n"),
     "case/stdout.txt: 0: 'outcome=blew_up"),
    (lambda case: (case / "series.csv").write_text("t,E\n0,1.5\n0.5,1.25\n"),
     "case/series.csv: rows: 2 != 3"),
    (lambda case: (case / "series.csv").write_text("t,F\n0,1.5\n0.5,1.25\n1,-2\n"),
     "case/series.csv: header: 't,F' != 't,E'"),
    (lambda case: (case / "u0.txt").unlink(), "case/u0.txt: only in the reference"),
    (lambda case: (case / "well.json").write_text("{}"),
     "case/well.json: not in the reference"),
])
def test_check_fails_each_change_of_kind(answers, recorded, capsys, edit, flagged):
    ref, new = recorded
    edit(new / "case")
    code, out = _check(answers, ref, new, capsys)
    assert code == 1 and flagged in out, out


@pytest.mark.parametrize("edit, flagged", [
    (lambda d: d.update(E0=1.0 + 2e-10), "E0: 1.0000000002 is 2e-10 from 1.0"),
    (lambda d: d["well"].update(c_star=0.35 * (1 + 2e-10)), "well.c_star"),
    (lambda d: d["outcome"].update(linear_solves=401), "outcome.linear_solves: 401 != 400"),
    (lambda d: d["outcome"].update(energy_drift=1.2e-12), "outcome.energy_drift"),
])
def test_check_fails_a_number_past_its_tolerance(answers, recorded, capsys, edit,
                                                 flagged):
    ref, new = recorded
    _edit_json(new / "case" / "report.json", edit)
    code, out = _check(answers, ref, new, capsys)
    assert code == 1 and flagged in out, out
    assert out.endswith("1 differences\n")


def test_check_fails_a_series_column_past_its_tolerance(answers, recorded, capsys):
    """The series tolerance is SERIES_RTOL of the column's largest |x| (here
    2), at the first, last and largest value alike."""
    ref, new = recorded
    (new / "case" / "series.csv").write_text("t,E\n0,1.50000003\n0.5,1.25\n1,-2\n")
    code, out = _check(answers, ref, new, capsys)
    assert code == 1 and "case/series.csv: E.first: 1.50000003 is 3e-08" in out, out


def test_energy_drift_has_a_floor_of_rounding(answers, recorded, capsys):
    """A drift of 1e-13 at E0 = 1 is rounding: moving it by 0.079 relative
    passes under the floor DRIFT_FLOOR |E0|.  The floor scales with E0, so
    the same move at E0 = 1e-3 fails, and so does a relative move past
    DRIFT_RTOL of a drift above the floor."""
    ref, new = recorded
    report = new / "case" / "report.json"
    _edit_json(report, lambda d: d["outcome"].update(energy_drift=1.079e-13))
    assert _check(answers, ref, new, capsys)[0] == 0
    assert answers.tolerance("report.json", "outcome.energy_drift", {"E0": 1e-3}) == (
        answers.DRIFT_RTOL, 1e-15)
    for e0, drift in ((1e-3, 1e-13), (1.0, 1e-6)):
        assert (answers._cell(drift, 1.079 * drift, *answers.tolerance(
            "report.json", "outcome.energy_drift", {"E0": e0})) is not None)


@pytest.mark.parametrize("where, iterations, residual, passes", [
    # the gradient test ended C* (residual 6e-11 < GRAD_TOL): it must again,
    # after as many iterations
    ("case/report.json", 14, 9.9e-11, True),
    ("case/report.json", 15, 6e-11, False),
    ("case/report.json", 14, 1.2e-10, False),
    # the fixed-point test ended it (residual 1.8e-10): the count may move by
    # C_STAR_ITER_MOVE, and the residual is the rounding floor
    ("well-fine/well.json", 19, 5e-10, True),
    ("well-fine/well.json", 23, 5e-11, True),
    ("well-fine/well.json", 24, 1.8e-10, False),
    ("well-fine/well.json", 21, float("nan"), False),
])
def test_c_star_iterations_and_residual_follow_the_test_that_ended_it(
        answers, recorded, capsys, where, iterations, residual, passes):
    ref, new = recorded

    def edit(data):
        (data["well"] if "report" in where else data).update(
            iterations=iterations, residual=residual)
    _edit_json(new / where, edit)
    code, out = _check(answers, ref, new, capsys)
    assert code == (0 if passes else 1), out


def test_the_reference_covers_every_case(answers):
    """The committed reference holds every case's exit code, and the one it
    expects."""
    ref = json.loads(answers.REFERENCE.read_text())
    codes = {rel.split("/")[0]: cells["code"] for rel, cells in ref.items()
             if rel.endswith(answers.EXIT_FILE)}
    assert codes == {case: code for case, _, code in answers.CASES}


def test_the_c_star_rule_reads_the_gradient_tolerance_of_well(answers):
    """`check` tells the test that ended C* by well.GRAD_TOL, which it keeps
    a copy of: the tool runs the CLI of any checkout and imports none."""
    from dampedwave import well
    assert answers.GRAD_TOL == well.GRAD_TOL
