import csv
import json

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import cli, mesh, well
from dampedwave.series import TimeSeries

FAST = [
    "--set", "domain.n=31",
    "--set", "run.horizon=0.2",
    "--set", "step.dt=0.01",
    "--set", "cstar.starts=2",
]


def test_well_report_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["well", "--out", str(out), *FAST]) == 0
    text1 = (out1 / "well.json").read_text()
    assert text1 == (out2 / "well.json").read_text()
    report = json.loads(text1)
    for key in ("c_star", "d", "beta", "lambda1", "resolution"):
        assert key in report


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
    assert cli.main(["well", "--out", str(tmp_path),
                     "--set", "model.banana=1"]) == 1


def test_config_file_and_override(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("# comment\nmodel.p=3.0\ndomain.n=31\n")
    cfg = cli.load_config(str(cfg_path), ["model.omega=0.25"])
    assert cfg.get_float("model.p") == 3.0
    assert cfg.get_float("model.omega") == 0.25
    assert cfg.get_int("domain.n") == 31


def test_run_zero_data(tmp_path):
    code = cli.main(["run", "--out", str(tmp_path), *FAST,
                     "--set", "init.kind=zero"])
    assert code == 0
    series = TimeSeries.read_csv(tmp_path / "series.csv")
    assert not np.asarray(series.rows)[:, 1:].any()
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


def test_sweep_computes_c_star_once_per_exponent(tmp_path, monkeypatch):
    calls = []
    original = well.compute_c_star

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(well, "compute_c_star", counting)
    assert cli.main(["sweep", "--out", str(tmp_path), *FAST,
                     "--vary", "model.p=3,4",
                     "--vary", "model.omega=0,0.1"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert len(calls) == 2


EXPERIMENT_SMALL = ["--set", "domain.n=15", "--set", "run.horizon=0.5",
                    "--set", "cstar.starts=2"]


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
