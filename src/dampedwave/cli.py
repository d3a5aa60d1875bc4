"""Experiment runner: compute constants, run trajectories, certify, sweep.

Configuration is a flat key=value text file; any key can be overridden on
the command line with --set key=value.  Subcommands: well, run, sweep,
classify.  Exit codes: 0 success, 1 config/validation error or unusable
output path, 2 numerical failure or a sweep worker process that died.

A sweep steps its points as stacks, split over the CPUs the process may use
(which `taskset` and a container's CPU quota limit), with no stack of fewer
than MIN_STACK_ROWS rows.  With two stacks and two CPUs or more, this
process steps one share of the stacks and a forked child steps each other
share; each writes its points' series.csv and report.json.  Every file is
byte for byte the same whatever the number of CPUs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import lyapunov, mesh, solver, well
from .functionals import ModelParams, SimState
from .mesh import Domain, GridField

OUTPUT_DIR_ENV = "DAMPEDWAVE_OUTDIR"

# A sweep splits a group into stacks of no fewer rows than this.  On 2 CPUs
# (n = 63, 2000 steps) two stacks of 4 stepped in about 20% less wall time
# than one of 8, while two stacks of 2 or of 1 saved none beyond the noise,
# and every split costs CPU time: the per-step work is paid once per stack.
MIN_STACK_ROWS = 4

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
    "seed": "0",                 # no effect: C* is computed deterministically
}


class ConfigError(ValueError):
    pass


class WorkerLost(RuntimeError):
    """A sweep's worker process ended without a result (a signal, say from
    the out-of-memory killer)."""


def _pair(item: str, where: str) -> tuple[str, str]:
    """One `key=value` item with a known key; `where` names its source."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    """DEFAULTS, then the config file's lines, then each --set, as raw strings."""
    table = dict(DEFAULTS)
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"--config: {exc}") from exc
        table.update(_pair(line, f"{path}:{lineno}")
                     for lineno, line in enumerate(text.splitlines(), 1)
                     if line.strip() and not line.strip().startswith("#"))
    table.update(_pair(item, "--set") for item in overrides)
    return table


def _float(table: dict[str, str], key: str) -> float:
    try:
        value = float(table[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number")
    return value


def _int(table: dict[str, str], key: str) -> int:
    try:
        return int(table[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer") from exc


def _each(table: dict[str, str], key: str, convert) -> tuple:
    """The comma-separated items of one key, each converted by `convert`."""
    return tuple(convert({key: item}, key) for item in table[key].split(","))


@dataclass(frozen=True)
class Experiment:
    """Every setting of one experiment, parsed and checked."""

    config: dict[str, str]  # the raw strings, as report.json records them
    domain: Domain
    params: ModelParams
    step: solver.StepConfig
    horizon: float
    init_kind: str
    init_fraction: float
    init_field: GridField | None  # the init.file field when init_kind is "file"


def parse(table: dict[str, str]) -> Experiment:
    """Build every object of an experiment, so bad input fails before any work."""
    domain = Domain(table["domain.kind"], _each(table, "domain.extents", _float),
                    _each(table, "domain.n", _int))
    params = ModelParams(omega=_float(table, "model.omega"),
                         mu=_float(table, "model.mu"), p=_float(table, "model.p"))
    horizon = _float(table, "run.horizon")
    step = solver.StepConfig(dt=_float(table, "step.dt"))
    try:
        solver.step_count(horizon, step.dt)
    except ValueError as exc:
        raise ConfigError(f"run.horizon and step.dt: {exc}") from exc
    _int(table, "seed")  # checked, though nothing reads it
    kind = table["init.kind"]
    if kind not in ("stable", "unstable", "zero", "file"):
        raise ConfigError(f"unknown init.kind {kind!r}")
    fraction = _float(table, "init.fraction")
    field = None
    if kind == "file":
        try:
            field = mesh.read_field(table["init.file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"init.file: {exc}") from exc
        if field.domain != domain:
            raise ConfigError("initial-data file domain does not match config")
    return Experiment(dict(table), domain, params, step, horizon, kind, fraction,
                      field)


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _well_report(exp: Experiment) -> tuple[well.WellConstants, dict]:
    wc = well.well_constants(exp.domain, exp.params.p)
    report = dict(asdict(wc), resolution=list(exp.domain.n))
    report["domain"] = report.pop("fingerprint")
    return wc, report


def cmd_well(exp: Experiment, outdir: Path) -> int:
    _, report = _well_report(exp)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "well.json"
    _json_dump(report, path)
    print(f"wrote {path}")
    return 0


def _initial_state(exp: Experiment, wc: well.WellConstants) -> SimState:
    if exp.init_kind == "zero":
        return SimState.rest(GridField.zeros(exp.domain))
    if exp.init_kind == "file":
        return SimState.rest(exp.init_field)
    u0, u1 = well.prepare_initial_data(exp.domain, exp.params, wc,
                                       (exp.init_kind, exp.init_fraction))
    return SimState(0.0, u0, u1)


@dataclass(frozen=True)
class _Prepared:
    """A point ready to step: its data, classification and certificate."""

    exp: Experiment
    outdir: Path
    report: dict  # the report.json entries known before the run
    initial: SimState
    cert: lyapunov.DecayCertificate | None


def _prepare(exp: Experiment, outdir: Path, constants: dict) -> _Prepared:
    """Constants, initial data, classification and certificate.

    `constants` maps (domain, p) to the `_well_report` of an earlier
    point, and receives this point's.  The directory and its u0.txt are
    written last, so a point that fails leaves none behind.
    """
    key = (exp.domain, exp.params.p)
    if key not in constants:
        constants[key] = _well_report(exp)
    wc, well_report = constants[key]
    initial = _initial_state(exp, wc)
    cls = well.classify(initial, exp.params, wc)
    e0 = cls.E

    # certified where the classification passes the test of select_constants
    certified = cls.category == "N_plus" and e0 > 0.0 and cls.smallness_holds
    cert = lyapunov.select_constants(e0, exp.params, wc) if certified else None
    report = {"config": exp.config, "well": well_report,
              "classification": asdict(cls), "E0": e0}
    outdir.mkdir(parents=True, exist_ok=True)
    mesh.write_field(outdir / "u0.txt", initial.u)
    return _Prepared(exp, outdir, report, initial, cert)


def _finish(pt: _Prepared, result) -> dict:
    """Write series.csv and report.json from one `solver.run_many` result.

    A StepFailure result is raised.
    """
    if isinstance(result, solver.StepFailure):
        raise result
    series, outcome = result
    series.to_csv(pt.outdir / "series.csv")

    summary = dict(pt.report, outcome=asdict(outcome))
    if pt.cert is not None and outcome.kind == "completed" and len(series) >= 2:
        tol_cert = 10.0 * pt.exp.step.dt**2
        cert = lyapunov.certify_decay(series, pt.cert, tol_cert)
        equiv = lyapunov.equivalence_check(series, cert)
        summary["certificate"] = asdict(cert)
        summary["certificate"]["tol_cert"] = tol_cert
        summary["equivalence"] = asdict(equiv)
    _json_dump(summary, pt.outdir / "report.json")
    return summary


def _step(points: list[_Prepared]) -> list:
    """`solver.run_many` over points that share a domain, dt, horizon and p,
    with every monitor armed for a certified point."""
    first = points[0].exp
    monitors = [None if pt.cert is None else solver.MonitorSet(
        epsilon=pt.cert.epsilon, nehari_invariance=True, grad_bound=True,
        energy_monotone=True) for pt in points]
    return solver.run_many([pt.initial for pt in points],
                           [pt.exp.params for pt in points], first.step,
                           first.horizon, monitors)


def cmd_run(exp: Experiment, outdir: Path) -> int:
    """One full run: constants, data, trajectory, certification, reports."""
    pt = _prepare(exp, outdir, {})
    (result,) = _step([pt])
    summary = _finish(pt, result)
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


def cmd_classify(exp: Experiment, outdir: Path) -> int:
    wc, _ = _well_report(exp)
    cls = well.classify(_initial_state(exp, wc), exp.params, wc)
    print(json.dumps(asdict(cls), indent=2, sort_keys=True))
    return 0


def _parse_vary(items: list[str]) -> dict[str, list[str]]:
    grid = {}
    for item in items:
        key, values = _pair(item, "--vary")
        vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"--vary {key}: empty value list")
        if key in grid:
            raise ConfigError(f"--vary {key}: key given twice")
        grid[key] = vals
    return grid


SWEEP_COLUMNS = ("index", "outcome", "E0", "d", "xi", "xi_fitted", "fit_r2",
                 "t_max_estimate", "error")


def _guarded(fn, *args):
    """fn(*args), or {"error": ...} when it fails for one sweep point."""
    try:
        return fn(*args)
    except ValueError as exc:  # ConfigError among them
        return {"error": f"config: {exc}"}
    except RuntimeError as exc:  # ConvergenceError and StepFailure among them
        return {"error": f"numerical: {exc}"}


def _run_stack(members: list[tuple[int, _Prepared]]) -> dict[int, dict]:
    """Step one stack, write its points' files, and return their summaries
    by sweep index."""
    results = _guarded(_step, [pt for _, pt in members])
    return {idx: results if isinstance(results, dict)
            else _guarded(_finish, pt, results[n])
            for n, (idx, pt) in enumerate(members)}


CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cpu_quota() -> int | None:
    """The CPU quota of the cgroup mounted at CGROUP_ROOT, rounded up to
    whole CPUs, or None for no quota or no readable file."""
    try:
        quota, period = (CGROUP_ROOT / "cpu.max").read_text().split()  # v2
    except (OSError, ValueError):
        try:
            quota, period = ((CGROUP_ROOT / "cpu" / name).read_text()  # v1
                             for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    if quota_us <= 0 or period_us <= 0:  # -1: no quota
        return None
    return math.ceil(quota_us / period_us)


def _cpu_count() -> int:
    """The CPUs this process may use: those it may run on, which `taskset`
    and cpusets limit, and no more than its CPU quota (`docker --cpus`).

    The quota is read at CGROUP_ROOT, where a container sees its own
    cgroup: `cpu.max` (cgroup v2) or `cpu/cpu.cfs_quota_us` over
    `cpu/cpu.cfs_period_us` (v1).  The quota of a nested cgroup outside a
    container is not seen.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _child(share: list, read: int, write: int) -> None:
    """Step `share` in a forked child and send the pickled (summaries, None),
    or (None, the exception it raised), through the pipe's write end.  An
    exception that does not pickle is sent as its text.  The child ends
    here, so it never returns into its caller nor flushes buffers it
    inherited."""
    try:
        os.close(read)
        try:
            payload = pickle.dumps(([_run_stack(members) for members in share],
                                    None))
        except BaseException as exc:  # raised again in the parent
            try:
                payload = pickle.dumps((None, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((None, f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _received(pid: int, status: int, data: bytes) -> list[dict[int, dict]]:
    """The summaries a reaped child sent, or its exception raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"by signal {-code}" if code < 0 else f"with exit status {code}"
        raise WorkerLost(f"process {pid} ended {how}")
    try:
        results, error = pickle.loads(data)
    except Exception:
        raise WorkerLost(f"process {pid} left no complete result") from None
    if isinstance(error, str):
        raise WorkerLost(f"process {pid} raised {error}")
    if error is not None:
        raise error
    return results


def _map_stacks(stacks: list, cpus: int) -> dict[int, dict]:
    """`_run_stack` over each stack: every stack's summaries by sweep index.

    With `workers = min(cpus, len(stacks))` processes, this one included,
    share i is stacks[i::workers]: this process steps share 0, and one
    forked child steps each other share and sends its summaries back
    through a pipe.  Every child is reaped before this returns or raises,
    and an exception raised in a child is raised again here.  A child that
    ends by a signal or a non-zero status, or with no complete result,
    raises `WorkerLost`.  With one worker, or where the platform does not
    fork, this process steps every stack in turn.
    """
    workers = max(1, min(cpus, len(stacks))) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe)
    try:
        for i in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(stacks[i::workers], read, write)  # never returns
                children.append((pid, read))
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)  # so a dead child's pipe reads EOF at once
        parts = [_run_stack(members) for members in stacks[::workers]]
    finally:
        ended = []
        for pid, read in children:
            # read to EOF first: a child blocks on a result larger than the
            # pipe's buffer until it is read
            with open(read, "rb") as pipe:
                data = pipe.read()
            ended.append((pid, os.waitpid(pid, 0)[1], data))
    for child in ended:
        parts += _received(*child)
    return {idx: summary for part in parts for idx, summary in part.items()}


def cmd_sweep(table: dict[str, str], outdir: Path, vary: list[str]) -> int:
    """Prepare every point, step the points, write their files and sweep.csv.

    The points that share a domain, dt, horizon and p form a group.  Each
    group is split into interleaved stacks, about as many as its share of
    the stepped points times the CPUs the process may use, but none of
    fewer than MIN_STACK_ROWS rows, and `_map_stacks` steps them, in this
    process and in forked children when there are two stacks and two CPUs
    or more.  A row rounds the same in any stack, so no file depends on the
    split.
    """
    grid = _parse_vary(vary)
    if not grid:
        raise ConfigError("sweep needs at least one --vary")
    keys = list(grid)
    # Parse every point before anything is written, so bad input leaves no
    # output directory behind.
    todo = []
    for idx, combo in enumerate(itertools.product(*grid.values())):
        point = {**table, **dict(zip(keys, combo))}
        if _float(point, "model.omega") == _float(point, "model.mu") == 0.0:
            continue  # undamped: outside the theory, ModelParams rejects it
        todo.append((idx, combo, parse(point)))
    if not todo:
        raise ConfigError("no damped point to run: every point has omega = mu = 0")
    outdir.mkdir(parents=True, exist_ok=True)
    summaries = {}
    constants: dict = {}  # one C* per distinct (domain, p)
    groups: dict[tuple, list[tuple[int, _Prepared]]] = {}
    for idx, _, exp in todo:
        pt = _guarded(_prepare, exp, outdir / f"point_{idx:04d}", constants)
        if isinstance(pt, dict):
            summaries[idx] = pt
        else:
            key = (exp.domain, exp.step.dt, exp.horizon, exp.params.p)
            groups.setdefault(key, []).append((idx, pt))
    cpus = _cpu_count()
    stepped = sum(len(members) for members in groups.values())
    stacks = []
    for members in groups.values():
        parts = max(1, min(math.ceil(cpus * len(members) / stepped),
                           len(members) // MIN_STACK_ROWS))
        stacks += [members[i::parts] for i in range(parts)]
    summaries.update(_map_stacks(stacks, cpus))

    path = outdir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write(",".join(keys + list(SWEEP_COLUMNS)) + "\n")
        for idx, combo, _ in todo:
            row = dict(_sweep_row(summaries[idx]), index=idx)
            fh.write(",".join([*combo, *(_fmt(row.get(col))
                                         for col in SWEEP_COLUMNS)]) + "\n")
    print(f"wrote {path} ({len(todo)} rows)")
    return 0


def _sweep_row(summary: dict) -> dict:
    """The sweep.csv entries of one point's summary, or of its error."""
    if "error" in summary:
        return {"outcome": "error", "error": summary["error"].replace(",", ";")}
    return {**summary.get("certificate", {}), **summary["outcome"],
            "outcome": summary["outcome"]["kind"], "E0": summary["E0"],
            "d": summary["well"]["d"]}


def _fmt(x) -> str:
    return "" if x is None else x if isinstance(x, str) else f"{x:.17g}"


COMMANDS = {"well": cmd_well, "run": cmd_run, "classify": cmd_classify}


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
        cmd.add_argument("--out", help="output directory (default: "
                         f"${OUTPUT_DIR_ENV}, then cwd)")
        if name == "sweep":
            cmd.add_argument("--vary", action="append", default=[],
                             metavar="K=V1,V2,...", help="grid axis (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        table = load_config(args.config, args.overrides)
        outdir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "."))
        if args.command == "sweep":
            return cmd_sweep(table, outdir, args.vary)
        return COMMANDS[args.command](parse(table), outdir)
    except (ConfigError, well.InfeasibleTargetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (well.ConvergenceError, solver.StepFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except WorkerLost as exc:
        print(f"worker lost: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
