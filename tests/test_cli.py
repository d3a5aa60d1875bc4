import csv
import dataclasses
import importlib.util
import itertools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import cli, mesh, solver, well
from dampedwave.series import COLUMNS

FAST = [
    "--set", "domain.n=31",
    "--set", "run.horizon=0.2",
    "--set", "step.dt=0.01",
]


def test_well_report_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["well", "--out", str(out), *FAST]) == 0
    text1 = (out1 / "well.json").read_text()
    assert text1 == (out2 / "well.json").read_text()
    report = json.loads(text1)
    # The output schema: a field added to WellConstants or Classification
    # must show up here.
    assert report.keys() == {"c_star", "d", "beta", "lambda1", "p", "domain",
                             "resolution", "iterations", "residual"}
    assert 0 < report["iterations"] <= 1000
    assert report["residual"] < 1e-10
    assert cli.main(["run", "--out", str(tmp_path / "run"), *FAST]) == 0
    run_report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert run_report["well"] == report
    assert run_report["classification"].keys() == {
        "category", "in_W", "in_U", "high_energy", "smallness_holds",
        "I", "J", "E"}


def test_invalid_exponent_exits_1(tmp_path, capsys):
    code = cli.main(["well", "--out", str(tmp_path), "--set", "model.p=2.0"])
    assert code == 1


def test_undamped_run_exits_1(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path / "out"), *FAST,
                     "--set", "model.omega=0", "--set", "model.mu=0"]) == 1
    err = capsys.readouterr().err
    assert "omega + mu > 0" in err
    assert "diagnostic" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_key_exits_1(tmp_path):
    # cstar.grad_tol was a key once: an old config file that sets it fails
    for setting in ("model.banana=1", "output.dir=x", "cstar.grad_tol=1e-10"):
        assert cli.main(["well", "--out", str(tmp_path),
                         "--set", setting]) == 1


@pytest.mark.parametrize("source", ["file", "--set", "--vary"])
@pytest.mark.parametrize("item", ["model.p", "model.banana=1"])
def test_bad_item_names_its_source(tmp_path, capsys, source, item):
    """A config-file line, --set and --vary share one key=value reader."""
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out)]
    if source == "file":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# comment\n\nmodel.p=3\n{item}\n")
        argv += ["--config", str(cfg), "--vary", "model.mu=0.5,1"]
        where = f"{cfg}:4"
    elif source == "--set":
        argv += ["--set", item, "--vary", "model.mu=0.5,1"]
        where = "--set"
    else:
        argv += ["--vary", item]
        where = "--vary"
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: ")
    assert not out.exists()


@pytest.mark.parametrize("command,setting", [
    ("well", "model.p=2.005"),          # C*^(-2p/(p-2)) overflows
    ("run", "model.p=2.005"),
    ("classify", "model.p=2.005"),
    ("run", "domain.extents=1e-150"),   # the same, through C*
    ("run", "domain.extents=1e-300"),   # 1/h^2 overflows
    ("run", "domain.extents=1e200"),    # h^2 overflows
])
def test_unusable_numeric_setting_exits_1(tmp_path, capsys, command, setting):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--set", "domain.n=15",
            "--set", "run.horizon=0.2", "--set", setting]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "Traceback" not in err
    assert not out.exists()


def test_sweep_point_out_of_float_range_gets_an_error_row(tmp_path):
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     "--vary", "model.p=2.005,4"]) == 0
    bad, good = _sweep_rows(tmp_path)
    assert bad["outcome"] == "error" and "p=2.005" in bad["error"]
    assert good["outcome"] == "completed" and good["error"] == ""
    assert not (tmp_path / "point_0000").exists()
    assert (tmp_path / "point_0001" / "report.json").exists()


@pytest.mark.parametrize("setting", [
    "run.horizon=inf", "model.p=nan", "step.dt=inf",
    "model.omega=nan", "init.fraction=nan"])
def test_non_finite_value_exits_1(tmp_path, capsys, setting):
    out = tmp_path / "out"
    assert cli.main(["run", "--out", str(out), "--set", "domain.n=15",
                     "--set", "run.horizon=0.2", "--set", setting]) == 1
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("settings", [
    ["run.horizon=1e300"], ["run.horizon=1e12"], ["run.horizon=1e300", "step.dt=1e-10"],
], ids=["2e302-steps", "2e14-steps", "infinite-steps"])
def test_step_count_past_the_ceiling_exits_1(tmp_path, capsys, command, settings):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--set", "domain.n=15"]
    for setting in settings:
        argv += ["--set", setting]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: run.horizon and step.dt: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["well", "run", "classify", "sweep"])
def test_node_count_past_the_ceiling_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--out", str(out),
            "--set", f"domain.n={mesh.MAX_AXIS_NODES + 1}"]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: need 2 to ")
    assert "Traceback" not in err
    assert not out.exists()


def test_large_exponent_runs(tmp_path, capsys):
    """Large p leaves the float range in the smallness quantity; runs go on."""
    assert cli.main(["run", "--out", str(tmp_path / "run"), *FAST,
                     "--set", "model.p=3000"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["classification"]["smallness_holds"]
    assert report["outcome"]["kind"] == "completed"
    assert cli.main(["classify", *FAST, "--set", "model.p=3000"]) == 0
    assert cli.main(["sweep", "--out", str(tmp_path / "sweep"), *FAST,
                     "--vary", "model.p=4,3000"]) == 0
    rows = _sweep_rows(tmp_path / "sweep")
    assert [row["outcome"] for row in rows] == ["completed", "completed"]
    assert "Traceback" not in capsys.readouterr().err


def test_failed_preparation_leaves_no_files(tmp_path, capsys):
    """mu = 1e300 underflows the certificate's epsilon to 0: the point fails
    after its data are built, and before anything is written."""
    out = tmp_path / "out"
    assert cli.main(["run", "--out", str(out), *FAST,
                     "--set", "model.mu=1e300"]) == 1
    err = capsys.readouterr().err
    assert err == "validation error: certificate constant epsilon must be positive\n"
    assert not out.exists()
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     "--vary", "model.mu=1,1e300"]) == 0
    good, bad = _sweep_rows(tmp_path)
    assert good["outcome"] == "completed"
    assert bad["outcome"] == "error" and "epsilon" in bad["error"]
    assert (tmp_path / "point_0000" / "report.json").exists()
    assert not (tmp_path / "point_0001").exists()


@pytest.mark.parametrize("command", ["well", "run", "classify"])
def test_c_star_failure_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(well, "MAX_ITER", 0)
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--set", "domain.n=15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["well", "run", "classify", "sweep"])
def test_missing_config_file_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--config", str(tmp_path / "nope.cfg")]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "nope.cfg" in err
    assert not out.exists()


@pytest.mark.parametrize("command,args,key", [
    ("run", ["--set", "domain.n=abc"], "domain.n"),
    ("run", ["--set", "domain.extents=one"], "domain.extents"),
    ("sweep", ["--vary", "domain.n=15,abc"], "domain.n"),
])
def test_non_numeric_domain_value_names_its_key(tmp_path, capsys, command, args,
                                                key):
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), *args]) == 1
    assert f"{key}: not " in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_override(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("# comment\nmodel.p=3.0\ndomain.n=31\n")
    exp = cli.parse(cli.load_config(str(cfg_path), ["model.omega=0.25"]))
    assert exp.params.p == 3.0
    assert exp.params.omega == 0.25
    assert exp.domain.n == (31,)


# One malformed value per config key: each must fail before anything is
# written, so no key can be read late, after the output directory exists.
MALFORMED = {
    "domain.kind": "disk",
    "domain.extents": "1.0,1.0",
    "domain.n": "1",
    "model.omega": "-1",
    "model.mu": "x",
    "model.p": "2",
    "init.kind": "bogus",
    "init.fraction": "inf",
    "init.file": "missing.txt",  # read only with init.kind=file
    "step.dt": "0",
    "run.horizon": "-1",
    "seed": "1.5",
}


def test_every_key_is_checked_before_output(tmp_path, capsys):
    assert MALFORMED.keys() == cli.DEFAULTS.keys()
    for key, value in MALFORMED.items():
        out = tmp_path / key
        if key == "init.file":
            value = str(tmp_path / value)
        kind = ["--set", "init.kind=file"] if key == "init.file" else []
        assert cli.main(["run", "--out", str(out), *kind,
                         "--set", f"{key}={value}"]) == 1, key
        assert capsys.readouterr().err, key
        assert not out.exists(), key


def _field_file(tmp_path, flaw):
    """A 15-node interval field file that is missing, holds a NaN, is cut
    short or lies on an interval of another length."""
    path = tmp_path / f"{flaw}.txt"
    values = np.linspace(0.1, 1.5, 15)
    if flaw == "missing":
        return path
    dom = dw.interval(2.0 if flaw == "other" else 1.0, 15)
    mesh.write_field(path, mesh.GridField(dom, values))
    lines = path.read_text().splitlines(True)
    if flaw == "nan":  # no GridField holds a NaN, so it goes into the text
        path.write_text("".join(lines[:4] + ["nan\n"] + lines[5:]))
    if flaw == "truncated":
        path.write_text("".join(lines[:8]))
    return path


@pytest.mark.parametrize("command,settings,message", [
    ("run", ["init.kind=bogus"], "unknown init.kind"),
    ("sweep", ["init.kind=bogus"], "unknown init.kind"),
    ("run", ["init.fraction=1.5"], "0 < fraction < 1"),
    ("run", ["init.kind=file", "init.file={missing}"], "No such file"),
    ("classify", ["init.kind=file", "init.file={missing}"], "No such file"),
    ("sweep", ["init.kind=file", "init.file={missing}"], "No such file"),
    ("run", ["init.kind=file", "init.file={nan}"], "NaN or Inf"),
    ("sweep", ["init.kind=file", "init.file={nan}"], "NaN or Inf"),
    ("run", ["init.kind=file", "init.file={truncated}"], "7 values"),
    ("run", ["init.kind=file", "init.file={other}"], "does not match config"),
])
def test_bad_initial_data_exits_1_and_writes_nothing(tmp_path, capsys, command,
                                                     settings, message):
    files = {flaw: _field_file(tmp_path, flaw)
             for flaw in ("missing", "nan", "truncated", "other")}
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--set", "domain.n=15",
            "--set", "run.horizon=0.2"]
    for setting in settings:
        argv += ["--set", setting.format(**files)]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under_a_file", [False, True])
@pytest.mark.parametrize("command", ["run", "well", "sweep"])
def test_unusable_output_path_exits_1(tmp_path, capsys, command, under_a_file):
    """An --out that is an existing file, or a directory under one, exits 1
    with a one-line message and no traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under_a_file else blocker
    argv = [command, "--out", str(out), *FAST]
    if command == "sweep":
        argv += ["--vary", "model.mu=0.5,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


def test_run_zero_data(tmp_path):
    code = cli.main(["run", "--out", str(tmp_path), *FAST,
                     "--set", "init.kind=zero"])
    assert code == 0
    path = tmp_path / "series.csv"
    assert path.read_text().splitlines()[0] == ",".join(COLUMNS)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(data) > 1 and not data[:, 1:].any()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["outcome"]["kind"] == "completed"


def test_run_stable_writes_certificate(tmp_path):
    code = cli.main(["run", "--out", str(tmp_path), *FAST,
                     "--set", "run.horizon=1.0"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"]["category"] == "N_plus"
    assert report["certificate"]["violated_at"] is None
    assert report["equivalence"]["passed"]


def _one_ulp_under_d_fails_smallness() -> tuple[int, float]:
    """The first (n, p) on the unit interval whose computed well depth d has
    a float just under it that fails the smallness condition: E0 = d holds
    it to a few ulps either way, so whether one does depends on the last
    bits of C*."""
    for n, p in itertools.product((63, 31, 127),
                                  (4.0, 3.0, 3.5, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0)):
        wc = well.well_constants(mesh.interval(1.0, n), p)
        e0 = float(np.nextafter(wc.d, 0.0))
        if well.admissibility_quantity(e0, wc.c_star, p) >= 1.0:
            return n, p
    pytest.fail("no (n, p) has a float under d that fails the smallness condition")


def test_certifiability_is_the_classification_smallness_test(tmp_path, capsys,
                                                             monkeypatch):
    """A point is certified when its classification says it can be.  One ulp
    under the well depth, E0 < d holds but the smallness condition can fail
    (K = 1.0), and then the run is uncertified and exits 0 instead of
    failing in `select_constants`."""
    n, p = _one_ulp_under_d_fails_smallness()
    classify = well.classify

    def below_d(state, params, wc):
        e0 = float(np.nextafter(wc.d, 0.0))
        small = well.admissibility_quantity(e0, wc.c_star, params.p) < 1.0
        return dataclasses.replace(classify(state, params, wc), E=e0,
                                   smallness_holds=small)
    monkeypatch.setattr(well, "classify", below_d)
    code = cli.main(["run", "--out", str(tmp_path), "--set", "run.horizon=0.2",
                     "--set", "step.dt=0.01", "--set", f"domain.n={n}",
                     "--set", f"model.p={p}"])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["E0"] < report["well"]["d"]
    assert report["classification"]["category"] == "N_plus"
    assert report["classification"]["smallness_holds"] is False
    assert "certificate" not in report
    assert report["outcome"]["kind"] == "completed"


def test_run_unstable_reports_blowup(tmp_path):
    code = cli.main(["run", "--out", str(tmp_path), *FAST,
                     "--set", "init.kind=unstable",
                     "--set", "init.fraction=0.9",
                     "--set", "model.omega=0.0",
                     "--set", "step.dt=0.002",
                     "--set", "run.horizon=20.0"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["outcome"]["kind"] == "blew_up"
    assert report["outcome"]["t_max_estimate"] is not None


def test_classify_roundtrip_through_field_file(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--out", str(run_dir), *FAST]) == 0
    direct = json.loads((run_dir / "report.json").read_text())["classification"]
    capsys.readouterr()  # drop the run summary line

    code = cli.main(["classify", "--out", str(tmp_path), *FAST,
                     "--set", "init.kind=file",
                     "--set", f"init.file={run_dir / 'u0.txt'}"])
    assert code == 0
    reloaded = json.loads(capsys.readouterr().out)
    assert reloaded == direct


def test_sweep_grid(tmp_path):
    code = cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     "--set", "run.horizon=0.1",
                     "--vary", "model.omega=0,0.1,1",
                     "--vary", "model.mu=0,1"])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5  # header + grid minus the undamped point


def test_repeated_vary_key_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), *FAST, "--vary", "model.p=3",
                     "--vary", "model.p=4"]) == 1
    assert capsys.readouterr().err == (
        "config error: --vary model.p: key given twice\n")
    assert not out.exists()


@pytest.mark.parametrize("vary,message", [
    (["--vary", "model.mu="], "--vary model.mu: empty value list"),
    ([], "sweep needs at least one --vary"),
])
def test_sweep_with_nothing_to_vary_exits_1(tmp_path, capsys, vary, message):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), *FAST, *vary]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_with_no_damped_point_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), *FAST, "--vary", "model.omega=0",
                     "--vary", "model.mu=0"]) == 1
    assert "no damped point to run" in capsys.readouterr().err
    assert not out.exists()


def _documented_settings():
    """(source, key) of each --set and --vary item that the answer cases and
    the sh blocks of README.md pass."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("answers_cases",
                                                  root / "tools" / "answers.py")
    answers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = answers  # dataclasses look their module up there
    spec.loader.exec_module(answers)
    commands = [(case, argv) for case, argv, _ in answers.CASES]
    readme = (root / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        commands.append(("README.md", shlex.split(block.replace("\\\n", " "),
                                                  comments=True)))
    for source, argv in commands:
        for flag, item in zip(argv, argv[1:]):
            if flag in ("--set", "--vary"):
                yield source, item.split("=", 1)[0]


def test_documented_settings_are_config_keys():
    settings = list(_documented_settings())
    assert {source for source, _ in settings} >= {"README.md", "cli-sweep"}
    assert [(source, key) for source, key in settings
            if key not in cli.DEFAULTS] == []


@pytest.mark.parametrize("setting", ["model.omega=nan", "step.dt=nan",
                                     "init.fraction=nan"])
def test_sweep_bad_base_setting_writes_nothing(tmp_path, capsys, setting):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), "--set", setting,
                     "--vary", "model.mu=0.5,1"]) == 1
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_point_failing_in_preparation_has_no_directory(tmp_path):
    """A point whose initial data cannot be built gets an error row only."""
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     "--vary", "init.kind=stable,unstable",
                     "--vary", "init.fraction=0.5,1.5"]) == 0
    rows = _sweep_rows(tmp_path)
    assert [row["outcome"] == "error" for row in rows] == [False, True,
                                                           False, True]
    for row in rows:
        point_dir = tmp_path / f"point_{int(row['index']):04d}"
        assert point_dir.exists() == (row["outcome"] != "error")


def test_sweep_points_equal_separate_runs(tmp_path):
    """The points of a sweep step together, and each writes what `run` writes."""
    settings = [*FAST, "--set", "run.horizon=1.0", "--set", "step.dt=0.004"]
    assert cli.main(["sweep", "--out", str(tmp_path / "sweep"), *settings,
                     "--vary", "init.kind=stable,unstable",
                     "--vary", "model.omega=0,0.1"]) == 0
    outcomes = set()
    for idx, (kind, omega) in enumerate(itertools.product(("stable", "unstable"),
                                                          ("0", "0.1"))):
        run_dir = tmp_path / f"run_{idx}"
        assert cli.main(["run", "--out", str(run_dir), *settings,
                         "--set", f"init.kind={kind}",
                         "--set", f"model.omega={omega}"]) == 0
        point_dir = tmp_path / "sweep" / f"point_{idx:04d}"
        for name in ("u0.txt", "series.csv", "report.json"):
            assert (point_dir / name).read_bytes() == (run_dir / name).read_bytes()
        outcomes.add(json.loads((run_dir / "report.json").read_text())
                     ["outcome"]["kind"])
    assert outcomes == {"completed", "blew_up"}


def test_sweep_row_that_goes_non_finite_fails_alone(tmp_path, monkeypatch):
    """A step that leaves a NaN in one stacked row, with no failure from
    `advance`, fails that point only; the other points write what `run`
    writes for them.  The corrupted row holds stable data, in the positive
    Nehari set, so it ends in the StepFailure rather than as blown up, also
    while its norm still grows from its start.  At one CPU the eight points
    step as one stack; at two, as two stacks of 4."""
    settings = [*FAST, "--set", "run.horizon=0.6"]
    init, advance, steps = dw.Stepper.__init__, dw.Stepper.advance, [0]
    corrupted = (0.1, 1.0)  # (omega, mu) of point 3

    def remembering(self, domain, params, cfg):
        init(self, domain, params, cfg)
        self.points = [(prm.omega, prm.mu) for prm in params]

    def corrupting(self, u, *args):
        (u, v), stats = advance(self, u, *args)
        if corrupted in self.points:  # in whatever stack holds it
            steps[0] += 1
            if steps[0] >= 5:
                u[self.points.index(corrupted)] = np.nan
        return (u, v), stats
    monkeypatch.setattr(dw.Stepper, "__init__", remembering)
    monkeypatch.setattr(dw.Stepper, "advance", corrupting)
    points = list(itertools.product(("0", "0.1", "0.5", "1"), ("0.5", "1")))
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        steps[0] = 0
        out = tmp_path / f"cpus_{cpus}"
        assert cli.main(["sweep", "--out", str(out / "sweep"), *settings,
                         *EIGHT_POINTS]) == 0
        rows = _sweep_rows(out / "sweep")
        assert [row["error"] for row in rows] == [
            "", "", "", "numerical: step produced non-finite values",
            "", "", "", ""]
        for idx, (omega, mu) in enumerate(points):
            if idx == 3:
                continue
            run_dir = out / f"run_{idx}"
            assert cli.main(["run", "--out", str(run_dir), *settings,
                             "--set", f"model.omega={omega}",
                             "--set", f"model.mu={mu}"]) == 0
            point_dir = out / "sweep" / f"point_{idx:04d}"
            for name in ("series.csv", "report.json"):
                assert ((point_dir / name).read_bytes()
                        == (run_dir / name).read_bytes())


EIGHT_POINTS = ["--vary", "model.omega=0,0.1,0.5,1", "--vary", "model.mu=0.5,1"]


def _set_cpus(monkeypatch, cpus):
    """Let the process run on `cpus` CPUs, as `taskset` would, with no CPU
    quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(cli, "CGROUP_ROOT", Path(os.devnull) / "absent")


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children that `os.fork` starts in the test, which
    fails after 30 s rather than hang.  Any child still running at its end
    is killed and reaped, so that a failing test leaves none behind."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(signum, frame):
        raise TimeoutError("the test hung")
    monkeypatch.setattr(os, "fork", recording)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _reaped(pids):
    """Whether every one of these children has been waited for."""
    def gone(pid):
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        return False
    return all(gone(pid) for pid in pids)


def _tree(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


CLI_SWEEP = ["--set", "domain.n=63", "--set", "step.dt=0.005",
             "--set", "run.horizon=0.5", "--vary", "init.kind=stable,unstable",
             "--vary", "init.fraction=0.5,0.9", "--vary", "model.omega=0,0.1"]


def test_sweep_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    """The benchmark's 8-point sweep, shortened, writes the same bytes
    stepped as one stack of 8 and as two stacks of 4."""
    trees = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        assert cli.main(["sweep", "--out", str(out), *CLI_SWEEP]) == 0
        trees.append(_tree(out))
    assert len(trees[0]) == 1 + 8 * 3
    assert trees[0] == trees[1]


def test_a_large_sweep_stack_writes_what_its_split_writes(tmp_path, monkeypatch):
    """On DENSE_MAX_NODES nodes, 65 distinct dampings step as one stack of
    65 on one CPU and as stacks of 33 and 32 on two; the files are the same
    bytes, since the domain alone chooses how a row's midpoint is solved."""
    omegas = ",".join(f"{0.01 * j:g}" for j in range(1, 66))
    argv = ["--set", f"domain.n={mesh.DENSE_MAX_NODES}", "--set", "step.dt=0.005",
            "--set", "run.horizon=0.02", "--vary", f"model.omega={omegas}"]
    trees = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        assert cli.main(["sweep", "--out", str(out), *argv]) == 0
        trees.append(_tree(out))
    assert len(trees[0]) == 1 + 65 * 3
    assert trees[0] == trees[1]


@pytest.mark.parametrize("cpus", [2, 8])
def test_sweep_steps_its_stacks_in_worker_processes(tmp_path, monkeypatch, forked,
                                                    cpus):
    """At two CPUs the 8-point sweep steps two stacks of 4 rows side by side,
    one in this process and one in a forked child, and no child outlives
    `cli.main`.  More CPUs split it no finer: no stack has fewer than
    MIN_STACK_ROWS."""
    calls = tmp_path / "calls.txt"
    run_many = solver.run_many

    def recording(states, *args, **kwargs):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {len(states)}\n")
        # wait for the other stack, so that one worker cannot take both
        deadline = time.monotonic() + 10.0
        while (len(calls.read_text().splitlines()) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return run_many(states, *args, **kwargs)
    monkeypatch.setattr(solver, "run_many", recording)
    _set_cpus(monkeypatch, cpus)
    assert cli.main(["sweep", "--out", str(tmp_path / "out"), *CLI_SWEEP]) == 0
    assert len(forked) == 1 and _reaped(forked)
    seen = [line.split() for line in calls.read_text().splitlines()]
    assert sorted(rows for _, rows in seen) == ["4", "4"]
    assert sorted(int(pid) for pid, _ in seen) == sorted([os.getpid(), *forked])


def test_output_error_in_a_worker_exits_1(tmp_path, monkeypatch, capsys, forked):
    """An OSError while a stack's files are written, in this process or in a
    child, is reported as an output error, and no child is left."""
    def full(self, path):
        raise OSError(28, "No space left on device", str(path))
    monkeypatch.setattr(dw.TimeSeries, "to_csv", full)
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        assert cli.main(["sweep", "--out", str(tmp_path / f"cpus_{cpus}"),
                         *FAST, *EIGHT_POINTS]) == 1
        assert "output error: [Errno 28] No space left on device" in (
            capsys.readouterr().err)
        assert _reaped(forked)
    assert len(forked) == 1


def test_output_error_in_this_process_alone_exits_1(tmp_path, monkeypatch, capsys,
                                                    forked):
    """An OSError in this process's own share ends the sweep with exit 1
    though the child's share succeeds, and the child is reaped."""
    to_csv, test_pid = dw.TimeSeries.to_csv, os.getpid()

    def full_here(self, path):
        if os.getpid() == test_pid:
            raise OSError(28, "No space left on device", str(path))
        return to_csv(self, path)
    monkeypatch.setattr(dw.TimeSeries, "to_csv", full_here)
    _set_cpus(monkeypatch, 2)
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST, *EIGHT_POINTS]) == 1
    assert "output error: [Errno 28] No space left on device" in (
        capsys.readouterr().err)
    assert len(forked) == 1 and _reaped(forked)
    assert not (tmp_path / "sweep.csv").exists()


def test_result_larger_than_a_pipe_buffer_is_read_before_waiting(
        tmp_path, monkeypatch, capsys, forked):
    """A child whose summaries outgrow the 64 KiB pipe buffer finishes while
    this process's own share raises: the pipe is read before the child is
    waited for, so the sweep exits 1 rather than hanging."""
    test_pid = os.getpid()

    def stack(members):
        if os.getpid() == test_pid:
            raise OSError(28, "No space left on device")
        return {idx: {"error": "x" * 2**17} for idx, _ in members}

    monkeypatch.setattr(cli, "_run_stack", stack)
    _set_cpus(monkeypatch, 2)
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST, *EIGHT_POINTS]) == 1
    assert "output error: [Errno 28]" in capsys.readouterr().err
    assert len(forked) == 1 and _reaped(forked)


def test_killed_worker_exits_2(tmp_path, monkeypatch, capsys, forked):
    """A child killed by a signal, as by the out-of-memory killer, ends the
    sweep with exit 2 and no traceback, rather than leaving it waiting for
    the lost stack, and no child is left."""
    run_many, test_pid = solver.run_many, os.getpid()

    def killed(states, *args, **kwargs):
        if os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_many(states, *args, **kwargs)
    monkeypatch.setattr(solver, "run_many", killed)
    _set_cpus(monkeypatch, 2)
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     *EIGHT_POINTS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("worker lost: ") and "Traceback" not in err
    assert len(forked) == 1 and _reaped(forked)
    assert not (tmp_path / "sweep.csv").exists()


def test_worker_that_exits_without_a_result_exits_2(tmp_path, monkeypatch, capsys,
                                                    forked):
    """A child that ends with a non-zero status and sends nothing ends the
    sweep with exit 2, and no sweep.csv is written."""
    run_many, test_pid = solver.run_many, os.getpid()

    def exiting(states, *args, **kwargs):
        if os.getpid() != test_pid:
            os._exit(3)
        return run_many(states, *args, **kwargs)
    monkeypatch.setattr(solver, "run_many", exiting)
    _set_cpus(monkeypatch, 2)
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     *EIGHT_POINTS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("worker lost: ") and "exit status 3" in err
    assert len(forked) == 1 and _reaped(forked)
    assert not (tmp_path / "sweep.csv").exists()


def test_parallel_sweep_imports_no_process_pool(tmp_path):
    """A sweep that forks imports neither `multiprocessing` nor
    `concurrent.futures`, which a fresh interpreter shows."""
    script = f"""
import os, sys
from pathlib import Path
from dampedwave import cli
os.sched_getaffinity = lambda pid: {{0, 1}}
cli.CGROUP_ROOT = Path(os.devnull) / "absent"
forks, fork = [], os.fork
def recording():
    pid = fork()
    forks.append(pid)
    return pid
os.fork = recording
code = cli.main(["sweep", "--out", {str(tmp_path)!r}, *{[*FAST, *EIGHT_POINTS]!r}])
assert code == 0 and len(forks) == 1, (code, forks)
loaded = {{"multiprocessing", "concurrent.futures"}} & set(sys.modules)
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(_sweep_rows(tmp_path)) == 8


@pytest.mark.parametrize("files,affinity,cpus", [
    ({}, 8, 8),  # no cgroup files
    ({"cpu.max": "max 100000\n"}, 8, 8),  # cgroup v2, no quota
    ({"cpu.max": "150000 100000\n"}, 8, 2),
    ({"cpu.max": "50000 100000\n"}, 8, 1),
    ({"cpu.max": "400000 100000\n"}, 2, 2),  # the affinity mask is smaller
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8, 8),
    ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"},
     8, 2),  # cgroup v1
    ({"cpu/cpu.cfs_quota_us": "150000\n"}, 8, 8),  # no period: not read
])
def test_cpu_count_sees_a_cpu_quota(tmp_path, monkeypatch, files, affinity, cpus):
    """The CPUs a sweep splits over are the affinity mask's, but no more than
    the cgroup's CPU quota rounded up."""
    _set_cpus(monkeypatch, affinity)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(cli, "CGROUP_ROOT", tmp_path)
    assert cli._cpu_count() == cpus


@pytest.mark.parametrize("argv,cpus", [
    (["run"], 2),
    (["sweep", "--vary", "model.mu=1"], 2),
    (["sweep", "--vary", "model.p=3,4"], 1),  # two stacks
    (["sweep", "--vary", "model.omega=0,0.1,0.5,1"], 2),  # stacks of 2
])
def test_one_stack_or_one_cpu_starts_no_process(tmp_path, monkeypatch, argv, cpus):
    """One stack or one CPU steps in this process, and so does a group too
    small to split into stacks of MIN_STACK_ROWS."""
    def no_fork():
        raise AssertionError("a process was started")
    monkeypatch.setattr(os, "fork", no_fork)
    _set_cpus(monkeypatch, cpus)
    assert cli.main([*argv, "--out", str(tmp_path), *FAST]) == 0


@pytest.mark.parametrize("vary,calls", [
    (["model.mu=0.5,1", "init.fraction=0.3,0.5"], 1),
    (["model.p=3,4"], 2),
])
def test_sweep_computes_c_star_once_per_exponent(tmp_path, monkeypatch, vary, calls):
    seen = []
    real = well.well_constants

    def counting(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(well, "well_constants", counting)
    argv = ["sweep", "--out", str(tmp_path), *FAST]
    for item in vary:
        argv += ["--vary", item]
    assert cli.main(argv) == 0
    assert len(seen) == calls
    assert all(row["outcome"] != "error" for row in _sweep_rows(tmp_path))


def test_sweep_determinism(tmp_path):
    args = ["sweep", *FAST, "--set", "run.horizon=0.1",
            "--vary", "model.mu=0.5,1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main([*args, "--out", str(out1)]) == 0
    assert cli.main([*args, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    assert cli.main(["well", *FAST]) == 0
    assert (tmp_path / "envout" / "well.json").exists()


EXPERIMENT_SMALL = ["--set", "domain.n=15", "--set", "run.horizon=0.5"]


def _sweep_rows(outdir):
    with open(outdir / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_stable_matrix_sweep(tmp_path):
    """The README stable-matrix experiment, on a small grid."""
    assert cli.main(["sweep", "--out", str(tmp_path), *EXPERIMENT_SMALL,
                     "--set", "step.dt=0.005",
                     "--vary", "model.p=3,4",
                     "--vary", "model.omega=0,0.1,1",
                     "--vary", "model.mu=0,1"]) == 0
    rows = _sweep_rows(tmp_path)
    assert len(rows) == 10  # (p, omega, mu) grid minus the two undamped points
    for row in rows:
        assert row["outcome"] == "completed"
        report = json.loads(
            (tmp_path / f"point_{int(row['index']):04d}" / "report.json")
            .read_text())
        assert report["certificate"]["violated_at"] is None
        assert report["equivalence"]["passed"]


def test_energy_level_sweep_certifies_only_stable_data(tmp_path):
    """The README energy-level experiment: no decay rate for unstable data."""
    assert cli.main(["sweep", "--out", str(tmp_path), *EXPERIMENT_SMALL,
                     "--set", "model.omega=0",
                     "--set", "step.dt=0.002",
                     "--vary", "init.kind=stable,unstable",
                     "--vary", "init.fraction=0.1,0.3,0.5,0.7,0.9"]) == 0
    rows = _sweep_rows(tmp_path)
    assert len(rows) == 10
    for row in rows:
        certified = [row[key] for key in ("xi", "xi_fitted", "fit_r2")]
        if row["init.kind"] == "stable":
            assert all(certified)
        else:
            assert certified == ["", "", ""]
