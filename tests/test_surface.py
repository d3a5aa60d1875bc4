"""The public surface that callers outside the package look names up in."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import dampedwave as dw

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# Named only as strings in perfbench/tracing.py's TARGETS, so no AST node
# refers to them; they go with the next change to the benchmark.
TRACED_ONLY = {"inner", "l2_norm_sq"}


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    """Every function the benchmark's traced run wraps still exists."""
    for span, modname, attr in _load_perfbench("tracing").TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {modname}.{attr} is gone"
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"


def test_library_names_have_a_caller_outside_the_tests():
    """Each public function and class of the package is referred to by code
    other than its definition, its re-export and the tests."""
    package = sorted((ROOT / "src" / "dampedwave").glob("*.py"))
    callers = [*package, *PERFBENCH.glob("*.py"), *(ROOT / "tools").glob("*.py")]
    defined, referred = {}, set()
    for path in callers:
        if path.name == "__init__.py" or path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        if path in package:
            defined.update((node.name, path.name) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    traced = {attr for _, _, attr in _load_perfbench("tracing").TARGETS}
    assert TRACED_ONLY <= traced
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in referred | TRACED_ONLY)
    assert not unused


def test_exports_exist():
    assert len(set(dw.__all__)) == len(dw.__all__)
    missing = [name for name in dw.__all__ if not hasattr(dw, name)]
    assert not missing


def test_runtime_imports_no_scipy():
    """SciPy is a test-only dependency: the package and its CLI never load it."""
    code = ("import sys, dampedwave, dampedwave.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_solver_imports_no_theory_module():
    """The solver integrates; the potential well and the Lyapunov
    certificate read its series.  So `solver.py` imports neither `well` nor
    `lyapunov` when it runs; an import for annotations under
    `if TYPE_CHECKING:` does not run."""
    tree = ast.parse((ROOT / "src" / "dampedwave" / "solver.py").read_text())
    checking_only = {id(node) for branch in ast.walk(tree)
                     if isinstance(branch, ast.If)
                     and ast.unparse(branch.test) == "TYPE_CHECKING"
                     for stmt in branch.body for node in ast.walk(stmt)}
    imported = set()
    for node in ast.walk(tree):
        if id(node) in checking_only:
            continue
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if not node.module:  # from . import a, b
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    modules = {name.rsplit(".", 1)[-1] for name in imported}
    assert "mesh" in modules and "functionals" in modules
    assert not modules & {"well", "lyapunov"}, sorted(imported)


def test_tracer_counts_the_step_loop(monkeypatch):
    """The benchmark's per-layer hook sees every step, solve and sample of `run`."""
    dom = dw.interval(1.0, 63)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    u0 = 2.0 * dw.mesh.eigenmode(dom).values
    solves = []  # one entry per call of the midpoint solve
    shifted_solver = dw.mesh.shifted_solver

    def counting_solver(*args):
        solve = shifted_solver(*args)

        def counted(rhs):
            solves.append(len(rhs))
            return solve(rhs)
        return counted
    monkeypatch.setattr(dw.mesh, "shifted_solver", counting_solver)

    tracer = _load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        _, outcome = dw.run(dw.SimState.rest(dw.GridField(dom, u0)), params, cfg,
                            20 * cfg.dt)
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(0)
    assert metrics["solver.advance_calls"] == 20
    assert metrics["solver.linear_solves"] == outcome.linear_solves >= 20
    assert outcome.linear_solves == len(solves)
    assert metrics["series.rows"] == 21


def test_tracer_counts_the_stacked_step_loop():
    """Under `run_many` the hook sees each stacked step once, every row's
    solves and every row's samples."""
    dom = dw.interval(1.0, 63)
    cfg = dw.StepConfig(dt=5e-3)
    params = [dw.ModelParams(omega=omega, mu=1.0, p=4.0) for omega in (0.0, 0.1, 1.0)]
    u0s = [scale * dw.mesh.eigenmode(dom).values for scale in (0.5, 2.0, 3.0)]

    tracer = _load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        results = dw.run_many([dw.SimState.rest(dw.GridField(dom, u0)) for u0 in u0s],
                              params, cfg, 20 * cfg.dt)
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(0)
    assert [outcome.kind for _, outcome in results] == ["completed"] * 3
    assert metrics["solver.advance_calls"] == 20
    iters = sum(outcome.linear_solves for _, outcome in results)
    assert metrics["solver.linear_solves"] == iters > 3 * 20
    assert metrics["series.rows"] == sum(len(series) for series, _ in results) == 3 * 21


def test_benchmark_workloads_run(tmp_path):
    """One reduced pass of each benchmark workload finishes with no error.

    The workloads build `MinimizeOpts(seed=...)`, `MonitorSet(wc=...)`, the
    `seed` config key and `dw.run`; a change that breaks one of them fails
    here rather than in the benchmark.
    """
    workloads = _load_perfbench("workloads")

    class SmallSweep(workloads.CliSweep):
        SETTINGS = ("domain.n=15", "step.dt=0.005", "run.horizon=1")

    decay = workloads.LibraryDecay("interval-decay", dw.interval(1.0, 15),
                                   [(4.0, 1.0, 1.0), (3.0, 0.0, 1.0)],
                                   dt=5e-3, horizon=0.2)
    sweep = SmallSweep(tmp_path / "sweep")
    kinds = []
    for workload in (decay, sweep):
        workload.setup()
        try:
            points = workload.collect(workload.run(seed=3)).points
        finally:
            workload.cleanup()
        assert [pt for pt in points if "error" in pt] == []
        kinds += [pt["outcome"] for pt in points]
    assert sorted(kinds) == ["blew_up"] * 4 + ["completed"] * 6
