"""Experiment runner: compute constants, run trajectories, certify, sweep.

Configuration is a flat key=value text file; any key can be overridden on
the command line with --set key=value.  Subcommands: well, run, sweep,
classify.  Exit codes: 0 success, 1 config/validation error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import lyapunov, mesh, solver, well
from .functionals import ModelParams, SimState
from .mesh import Domain, GridField

OUTPUT_DIR_ENV = "DAMPEDWAVE_OUTDIR"

DEFAULTS: dict[str, str] = {
    "domain.kind": "interval",
    "domain.extents": "1.0",
    "domain.n": "63",
    "model.omega": "1.0",
    "model.mu": "1.0",
    "model.p": "4.0",
    "init.kind": "stable",       # stable | unstable | zero | file
    "init.fraction": "0.5",
    "init.file": "",
    "step.dt": "0.005",
    "run.horizon": "20.0",
    "cstar.starts": "8",
    "cstar.max_iter": "100000",
    "cstar.grad_tol": "1e-10",
    "seed": "0",
    "output.dir": "",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    raw: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        table = dict(self.raw)
        if key not in table:
            raise ConfigError(f"unknown config key: {key}")
        return table[key]

    def get_float(self, key: str) -> float:
        try:
            return float(self.get(key))
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number") from exc

    def get_int(self, key: str) -> int:
        try:
            return int(self.get(key))
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer") from exc

    def override(self, key: str, value: str) -> "ExperimentConfig":
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        return ExperimentConfig(tuple((k, value if k == key else v)
                                      for k, v in self.raw))

    def domain(self) -> Domain:
        extents = tuple(float(x) for x in self.get("domain.extents").split(","))
        counts = tuple(int(x) for x in self.get("domain.n").split(","))
        return Domain(self.get("domain.kind"), extents, counts)

    def model(self) -> ModelParams:
        return ModelParams(omega=self.get_float("model.omega"),
                           mu=self.get_float("model.mu"),
                           p=self.get_float("model.p"))

    def step_config(self) -> solver.StepConfig:
        return solver.StepConfig(dt=self.get_float("step.dt"))

    def minimize_opts(self) -> well.MinimizeOpts:
        return well.MinimizeOpts(n_starts=self.get_int("cstar.starts"),
                                 max_iter=self.get_int("cstar.max_iter"),
                                 grad_tol=self.get_float("cstar.grad_tol"),
                                 seed=self.get_int("seed"))

    def output_dir(self) -> Path:
        configured = self.get("output.dir")
        if configured:
            return Path(configured)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "."))

    def validate(self) -> None:
        """Build every parsed object once so bad input fails before any work."""
        self.domain()
        self.model()
        if self.get_float("run.horizon") <= 0:
            raise ConfigError("run.horizon must be positive")
        self.step_config()


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    table = dict(DEFAULTS)
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            table[key] = value.strip()
    cfg = ExperimentConfig(tuple(sorted(table.items())))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg = cfg.override(key.strip(), value.strip())
    return cfg


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _well_report(cfg: ExperimentConfig, memo: dict | None = None
                 ) -> tuple[well.WellConstants, dict]:
    """Constants and their report; `memo` reuses C* across one sweep's points."""
    dom = cfg.domain()
    p = cfg.get_float("model.p")
    opts = cfg.minimize_opts()
    memo = {} if memo is None else memo
    key = (dom, p, opts)
    if key not in memo:
        memo[key] = well.well_constants(dom, p, opts)
    wc = memo[key]
    report = {
        "c_star": wc.c_star,
        "d": wc.d,
        "beta": wc.beta,
        "lambda1": wc.lambda1,
        "p": wc.p,
        "domain": wc.fingerprint,
        "resolution": list(dom.n),
        "seed": cfg.get_int("seed"),
        "starts": cfg.get_int("cstar.starts"),
    }
    return wc, report


def cmd_well(cfg: ExperimentConfig, outdir: Path) -> int:
    cfg.validate()
    _, report = _well_report(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "well.json"
    _json_dump(report, path)
    print(f"wrote {path}")
    return 0


def _initial_state(cfg: ExperimentConfig, params: ModelParams,
                   wc: well.WellConstants) -> SimState:
    kind = cfg.get("init.kind")
    dom = cfg.domain()
    if kind == "zero":
        return SimState.rest(GridField.zeros(dom))
    if kind == "file":
        u0 = mesh.read_field(cfg.get("init.file"))
        if u0.domain != dom:
            raise ConfigError("initial-data file domain does not match config")
        return SimState.rest(u0)
    if kind in ("stable", "unstable"):
        fraction = cfg.get_float("init.fraction")
        u0, u1 = well.prepare_initial_data(dom, params, wc, (kind, fraction))
        return SimState(0.0, u0, u1)
    raise ConfigError(f"unknown init.kind {kind!r}")


def _classification_dict(cls: well.Classification) -> dict:
    return {"category": cls.category, "in_W": cls.in_W, "in_U": cls.in_U,
            "high_energy": cls.high_energy, "smallness_holds": cls.smallness_holds,
            "I": cls.I, "J": cls.J, "E": cls.E}


def _certificate_dict(cert: lyapunov.DecayCertificate) -> dict:
    return {"delta": cert.delta, "eta": cert.eta, "M": cert.M,
            "epsilon": cert.epsilon, "beta1": cert.beta1, "beta2": cert.beta2,
            "xi": cert.xi, "xi_fitted": cert.xi_fitted, "fit_r2": cert.fit_r2,
            "violated_at": cert.violated_at}


def run_experiment(cfg: ExperimentConfig, outdir: Path,
                   well_memo: dict | None = None) -> dict:
    """One full run: constants, data, trajectory, certification, reports."""
    cfg.validate()
    outdir.mkdir(parents=True, exist_ok=True)
    params = cfg.model()
    step_cfg = cfg.step_config()
    wc, well_report = _well_report(cfg, well_memo)
    initial = _initial_state(cfg, params, wc)
    mesh.write_field(outdir / "u0.txt", initial.u)
    cls = well.classify(initial, params, wc)
    e0 = cls.E

    cert = None
    monitors = solver.MonitorSet(wc=wc)
    if cls.category == "N_plus" and 0.0 < e0 < wc.d:
        cert = lyapunov.select_constants(e0, params, wc)
        monitors = solver.MonitorSet(wc=wc, epsilon=cert.epsilon,
                                     nehari_invariance=True, grad_bound=True,
                                     energy_monotone=True)

    series, outcome = solver.run(initial, params, step_cfg,
                                 cfg.get_float("run.horizon"), monitors)
    series.to_csv(outdir / "series.csv")

    summary: dict = {
        "config": dict(cfg.raw),
        "well": well_report,
        "classification": _classification_dict(cls),
        "E0": e0,
        "outcome": {"kind": outcome.kind, "T": outcome.T,
                    "t_max_estimate": outcome.t_max_estimate,
                    "details": outcome.details,
                    "energy_drift": outcome.energy_drift},
    }
    if cert is not None and outcome.kind == "completed" and len(series) >= 2:
        tol_cert = 10.0 * step_cfg.dt**2
        cert = lyapunov.certify_decay(series, cert, tol_cert)
        equiv = lyapunov.equivalence_check(series, cert)
        summary["certificate"] = _certificate_dict(cert)
        summary["certificate"]["tol_cert"] = tol_cert
        summary["equivalence"] = {"passed": equiv.passed,
                                  "n_violations": equiv.n_violations}
    _json_dump(summary, outdir / "report.json")
    return summary


def cmd_run(cfg: ExperimentConfig, outdir: Path) -> int:
    summary = run_experiment(cfg, outdir)
    outcome = summary["outcome"]
    line = f"outcome={outcome['kind']} T={outcome['T']:.6g}"
    if outcome["t_max_estimate"] is not None:
        line += f" t_max~{outcome['t_max_estimate']:.6g}"
    if "certificate" in summary:
        cert = summary["certificate"]
        line += (f" xi={cert['xi']:.6g} xi_fitted={cert['xi_fitted']:.6g}"
                 f" violated_at={cert['violated_at']}")
    print(line)
    return 0


def cmd_classify(cfg: ExperimentConfig, outdir: Path) -> int:
    cfg.validate()
    params = cfg.model()
    wc, _ = _well_report(cfg)
    initial = _initial_state(cfg, params, wc)
    cls = well.classify(initial, params, wc)
    print(json.dumps(_classification_dict(cls), indent=2, sort_keys=True))
    return 0


def _parse_vary(items: list[str]) -> list[tuple[str, list[str]]]:
    grid = []
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--vary needs key=v1,v2,..., got {item!r}")
        key, values = item.split("=", 1)
        vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"--vary {key}: empty value list")
        grid.append((key.strip(), vals))
    return grid


SWEEP_COLUMNS = ("index", "outcome", "E0", "d", "xi", "xi_fitted", "fit_r2",
                 "t_max_estimate", "error")


def _run_point(point_cfg: ExperimentConfig, point_dir: Path,
               well_memo: dict) -> dict:
    """One sweep point's summary, or {"error": ...} when the point fails."""
    try:
        return run_experiment(point_cfg, point_dir, well_memo)
    except (ConfigError, ValueError) as exc:
        return {"error": f"config: {exc}"}
    except (well.ConvergenceError, solver.StepFailure, RuntimeError) as exc:
        return {"error": f"numerical: {exc}"}


def cmd_sweep(cfg: ExperimentConfig, outdir: Path, vary: list[str]) -> int:
    grid = _parse_vary(vary)
    if not grid:
        raise ConfigError("sweep needs at least one --vary")
    keys = [key for key, _ in grid]
    points = list(itertools.product(*(vals for _, vals in grid)))
    outdir.mkdir(parents=True, exist_ok=True)

    results = []
    well_memo: dict = {}  # C* per distinct (domain, p, MinimizeOpts)
    for idx, combo in enumerate(points):
        point_cfg = cfg
        for key, value in zip(keys, combo):
            point_cfg = point_cfg.override(key, value)
        if (point_cfg.get_float("model.omega") == 0.0
                and point_cfg.get_float("model.mu") == 0.0):
            continue  # undamped: outside the theory, ModelParams rejects it
        results.append((idx, combo,
                        _run_point(point_cfg, outdir / f"point_{idx:04d}",
                                   well_memo)))

    path = outdir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write(",".join(keys + list(SWEEP_COLUMNS)) + "\n")
        for idx, combo, summary in results:
            if "error" in summary:
                row = list(combo) + [str(idx), "error", "", "", "", "", "", "",
                                     summary["error"].replace(",", ";")]
            else:
                cert = summary.get("certificate", {})
                outcome = summary["outcome"]
                est = outcome["t_max_estimate"]
                row = list(combo) + [
                    str(idx), outcome["kind"],
                    f"{summary['E0']:.17g}", f"{summary['well']['d']:.17g}",
                    _fmt(cert.get("xi")), _fmt(cert.get("xi_fitted")),
                    _fmt(cert.get("fit_r2")),
                    _fmt(est), "",
                ]
            fh.write(",".join(row) + "\n")
    print(f"wrote {path} ({len(results)} rows)")
    return 0


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


def build_parser() -> argparse.ArgumentParser:
    epilog = "config keys and defaults:\n" + "\n".join(
        f"  {k}={v}" for k, v in sorted(DEFAULTS.items()))
    parser = argparse.ArgumentParser(
        prog="dampedwave",
        description="Numerical laboratory for the strongly damped "
                    "semilinear wave equation.",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("well", "compute variational constants and write well.json"),
            ("run", "prepare data, integrate, certify, write CSV + report"),
            ("sweep", "run a parameter grid and aggregate one row per point"),
            ("classify", "classify initial data against the Nehari sets")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="key=value config file")
        cmd.add_argument("--set", action="append", default=[], metavar="K=V",
                         dest="overrides", help="override one config key")
        cmd.add_argument("--out", help="output directory (default: output.dir "
                         f"key, then ${OUTPUT_DIR_ENV}, then cwd)")
        if name == "sweep":
            cmd.add_argument("--vary", action="append", default=[],
                             metavar="K=V1,V2,...", help="grid axis (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        outdir = Path(args.out) if args.out else cfg.output_dir()
        if args.command == "well":
            return cmd_well(cfg, outdir)
        if args.command == "run":
            return cmd_run(cfg, outdir)
        if args.command == "classify":
            return cmd_classify(cfg, outdir)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.vary)
    except (ConfigError, well.InfeasibleTargetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (well.ConvergenceError, solver.StepFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
