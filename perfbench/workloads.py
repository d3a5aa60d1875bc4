"""The benchmark's workloads: inputs built from a seed, one timed pass, answers.

Each workload is one closed-loop client in a single process.  `setup` builds
the inputs a user would have ready before asking for answers; `run` produces
every answer of one pass and is the timed region; `collect` turns what `run`
returned into one answer record per parameter point, outside the timed
region, for `check.check_point`.

The seed feeds only the `C*` multistart (`MinimizeOpts.seed`, or the CLI
`seed` key), so the reference answers hold for every seed.

All calls into the package go through module attributes (`dw.run`,
`dampedwave.cli.main`) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import dampedwave as dw

TOL_CERT_PER_DT_SQ = 10.0  # certify_decay tolerance = 10 * dt^2
EQUIVALENCE_RTOL = 1e-12


@dataclass
class Collected:
    points: list[dict]
    bytes_written: int = 0


def _point_key(p: float, omega: float, mu: float) -> str:
    return f"p{p:g}_om{omega:g}_mu{mu:g}"


class LibraryDecay:
    """Stable(0.5) data through the library API, one `C*` per exponent.

    Each point runs prepare_initial_data, select_constants, run with all
    monitors on, certify_decay and equivalence_check.
    """

    def __init__(self, name: str, domain, points, dt: float, horizon: float):
        self.name = name
        self.domain = domain
        self.points = points
        self.dt = dt
        self.horizon = horizon

    def setup(self) -> None:
        self.cfg = dw.StepConfig(dt=self.dt)
        self.params = {pt: dw.ModelParams(omega=pt[1], mu=pt[2], p=pt[0])
                       for pt in self.points}
        self.exponents = sorted({pt[0] for pt in self.points})

    def run(self, seed: int) -> list:
        opts = dw.MinimizeOpts(seed=seed)
        out = []
        for p in self.exponents:
            wc = dw.well_constants(self.domain, p, opts)
            for pt in (pt for pt in self.points if pt[0] == p):
                try:
                    out.append((pt, wc, *self._point(pt, wc)))
                except Exception as exc:  # one failed point must not end the pass
                    out.append((pt, wc, exc))
        return out

    def _point(self, pt, wc):
        params = self.params[pt]
        u0, u1 = dw.prepare_initial_data(self.domain, params, wc, ("stable", 0.5))
        state = dw.SimState(0.0, u0, u1)
        cert = dw.select_constants(dw.total_energy(state, params).E, params, wc)
        monitors = dw.MonitorSet(wc=wc, epsilon=cert.epsilon,
                                 nehari_invariance=True, grad_bound=True,
                                 energy_monotone=True)
        series, outcome = dw.run(state, params, self.cfg, self.horizon, monitors)
        done = dw.certify_decay(series, cert, TOL_CERT_PER_DT_SQ * self.dt**2)
        equiv = dw.equivalence_check(series, done, rtol=EQUIVALENCE_RTOL)
        return outcome, done, equiv

    def collect(self, raw: list) -> Collected:
        points = []
        for pt, wc, *rest in raw:
            rec = {"key": f"{self.name}/{_point_key(*pt)}",
                   "domain": self.domain.fingerprint(), "p": pt[0],
                   "c_star": wc.c_star, "d": wc.d}
            if len(rest) == 1:
                rec["error"] = f"{type(rest[0]).__name__}: {rest[0]}"
            else:
                outcome, done, equiv = rest
                rec.update(outcome=outcome.kind,
                           t_max_estimate=outcome.t_max_estimate,
                           energy_drift=outcome.energy_drift,
                           xi=done.xi, xi_fitted=done.xi_fitted,
                           fit_r2=done.fit_r2, violated_at=done.violated_at,
                           equivalence_passed=equiv.passed)
            points.append(rec)
        return Collected(points)

    def cleanup(self) -> None:
        pass


class CliSweep:
    """One in-process `dampedwave sweep` into a fresh directory per pass."""

    name = "cli-sweep"
    SETTINGS = ("domain.n=63", "step.dt=0.005", "run.horizon=10")
    VARY = ("init.kind=stable,unstable", "init.fraction=0.5,0.9",
            "model.omega=0,0.1")

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self) -> None:
        import dampedwave.cli  # noqa: F401  (the user's entry point)

        self.argv = ["sweep"]
        for item in self.SETTINGS:
            self.argv += ["--set", item]
        for item in self.VARY:
            self.argv += ["--vary", item]
        self.work_root.mkdir(parents=True, exist_ok=True)

    def run(self, seed: int):
        outdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_root))
        argv = self.argv + ["--set", f"seed={seed}", "--out", str(outdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = dw.cli.main(argv)
            except Exception as exc:  # recorded as a failure of every point
                code = exc
        return code, outdir

    def collect(self, raw) -> Collected:
        code, outdir = raw
        try:
            return self._collect(code, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _collect(self, code, outdir: Path) -> Collected:
        written = sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
        sweep_csv = outdir / "sweep.csv"
        if code != 0 or not sweep_csv.exists():
            # The reference lists every point, so a crash fails all of them.
            return Collected([{"key": None, "error": f"cli.main returned {code!r}"}],
                             written)
        points = []
        with open(sweep_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (f"{self.name}/{row['init.kind']}_{row['init.fraction']}"
                       f"_om{row['model.omega']}")
                rec = {"key": key}
                if row["error"]:
                    rec["error"] = f"sweep.csv error column: {row['error']}"
                else:
                    point_dir = outdir / f"point_{int(row['index']):04d}"
                    report = json.loads((point_dir / "report.json").read_text())
                    rec.update(_report_answers(report))
                points.append(rec)
        return Collected(points, written)

    def cleanup(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)


def _report_answers(report: dict) -> dict:
    """The answer fields of one report.json, in the library record's shape."""
    outcome = report["outcome"]
    cert = report.get("certificate", {})
    return {"domain": report["well"]["domain"], "p": report["well"]["p"],
            "c_star": report["well"]["c_star"], "d": report["well"]["d"],
            "outcome": outcome["kind"],
            "t_max_estimate": outcome["t_max_estimate"],
            "energy_drift": outcome["energy_drift"],
            "xi": cert.get("xi"), "xi_fitted": cert.get("xi_fitted"),
            "fit_r2": cert.get("fit_r2"), "violated_at": cert.get("violated_at"),
            "equivalence_passed": report.get("equivalence", {}).get("passed")}


# The AC-2 matrix: p in {3,4} x omega in {0, 0.1, 1} x mu in {0, 1}, minus
# the undamped point.
AC2_MATRIX = [(p, om, mu) for p in (3.0, 4.0) for om in (0.0, 0.1, 1.0)
              for mu in (0.0, 1.0) if not (om == 0.0 and mu == 0.0)]


def make(name: str, root: Path):
    """The workload called `name`; `root` is the checkout it may write in."""
    if name == "interval-decay":
        return LibraryDecay(name, dw.interval(1.0, 63), AC2_MATRIX,
                            dt=5e-3, horizon=10.0)
    if name == "rectangle-decay":
        # Non-square so that a solver with the axes swapped fails the check.
        return LibraryDecay(name, dw.rectangle((1.5, 1.0), (47, 31)),
                            [(4.0, 1.0, 1.0), (3.0, 0.1, 1.0), (4.0, 0.0, 1.0)],
                            dt=5e-3, horizon=5.0)
    if name == "cli-sweep":
        return CliSweep(root / "perfbench" / "tmp")
    raise KeyError(name)

