"""The public surface that callers outside the package look names up in."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dampedwave as dw

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    """Every function the benchmark's traced run wraps still exists."""
    for span, modname, attr in _load_tracing().TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {modname}.{attr} is gone"
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"


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


def test_tracer_counts_the_step_loop():
    """The benchmark's per-layer hook sees every step, solve and sample of `run`."""
    dom = dw.interval(1.0, 63)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    u0 = 2.0 * dw.mesh.eigenmode(dom).values
    stepper = dw.Stepper(dom, params, cfg)
    u, v, iters = u0, np.zeros(dom.size), 0
    for _ in range(20):
        (u, v), stats = stepper.advance(u, v)
        iters += stats.picard_iters

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        dw.run(dw.SimState.rest(dw.GridField(dom, u0)), params, cfg, 20 * cfg.dt)
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(0)
    assert metrics["solver.advance_calls"] == 20
    assert metrics["solver.linear_solves"] == iters >= 20
    assert metrics["series.rows"] == 21


def test_tracer_counts_the_stacked_step_loop():
    """Under `run_many` the hook sees each stacked step once, every row's
    solves and every row's samples."""
    dom = dw.interval(1.0, 63)
    cfg = dw.StepConfig(dt=5e-3)
    params = [dw.ModelParams(omega=omega, mu=1.0, p=4.0) for omega in (0.0, 0.1, 1.0)]
    u0s = [scale * dw.mesh.eigenmode(dom).values for scale in (0.5, 2.0, 3.0)]
    iters = 0
    for prm, u in zip(params, u0s):
        stepper = dw.Stepper(dom, prm, cfg)
        v = np.zeros(dom.size)
        for _ in range(20):
            (u, v), stats = stepper.advance(u, v)
            iters += stats.picard_iters

    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        results = dw.run_many([dw.SimState.rest(dw.GridField(dom, u0)) for u0 in u0s],
                              params, cfg, 20 * cfg.dt)
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(0)
    assert [outcome.kind for _, outcome in results] == ["completed"] * 3
    assert metrics["solver.advance_calls"] == 20
    assert metrics["solver.linear_solves"] == iters > 3 * 20
    assert metrics["series.rows"] == sum(len(series) for series, _ in results) == 3 * 21
