import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import mesh, solver
from dampedwave.series import TimeSeries


def test_step_config_validation():
    with pytest.raises(ValueError):
        dw.StepConfig(dt=0.0)
    with pytest.raises(ValueError):
        dw.StepConfig(dt=-1e-3)


def test_zero_is_fixed_point(dom63):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    state = dw.SimState.rest(dw.GridField.zeros(dom63))
    stepper = dw.Stepper(dom63, params, dw.StepConfig(dt=1e-2))
    for _ in range(5):
        state = stepper.advance(state)[0]
    assert not state.u.values.any()
    assert not state.v.values.any()


def test_linear_mode_oracle(dom63, source_free_stepper):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    lam = mesh.eigenvalue(dom63)
    s1, s2 = np.roots([1.0, params.omega * lam + params.mu, lam])
    phi = mesh.eigenmode(dom63)

    def exact(t):
        c1, c2 = -s2 / (s1 - s2), s1 / (s1 - s2)
        return float((c1 * np.exp(s1 * t) + c2 * np.exp(s2 * t)).real)

    cfg = dw.StepConfig(dt=2e-3)
    state = dw.SimState.rest(phi)
    stepper = source_free_stepper(dom63, params, cfg)
    for _ in range(int(round(1.0 / cfg.dt))):
        state, _ = stepper.advance(state)
    err = np.max(np.abs(state.u.values - exact(state.t) * phi.values))
    assert err < 5e-6


def test_energy_identity_second_order(dom63, wc63_p4):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("stable", 0.5))
    drifts = []
    for dt in (2e-3, 1e-3):
        _, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                            dw.StepConfig(dt=dt), 1.0, dw.MonitorSet())
        drifts.append(outcome.energy_drift)
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.25)


def test_run_zero_data_completes(dom63):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    state = dw.SimState.rest(dw.GridField.zeros(dom63))
    series, outcome = dw.run(state, params, dw.StepConfig(dt=1e-2), 0.1)
    assert outcome.kind == "completed"
    assert not np.asarray(series.rows)[:, 1:].any()


def test_monitor_catches_unstable_data(dom63, wc63_p4):
    params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("unstable", 0.9))
    monitors = dw.MonitorSet(wc=wc63_p4, nehari_invariance=True)
    series, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                             dw.StepConfig(dt=1e-3), 1.0, monitors)
    assert outcome.kind == "monitor_violation"
    assert "Nehari" in outcome.details


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_run_blows_up(dom63, wc63_p4):
    params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("unstable", 0.9))
    series, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                             dw.StepConfig(dt=1e-3), 50.0, dw.MonitorSet())
    assert outcome.kind == "blew_up"
    assert outcome.t_max_estimate is not None
    assert outcome.t_max_estimate < 50.0


def test_2d_run_dissipates(rng):
    dom = dw.rectangle((1.0, 1.0), (15, 15))
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u = dw.GridField(dom, 0.1 * rng.standard_normal(dom.size))
    series, outcome = dw.run(dw.SimState.rest(u), params,
                             dw.StepConfig(dt=5e-3), 0.5, dw.MonitorSet())
    assert outcome.kind == "completed"
    e = series.col("E")
    assert e[-1] < e[0]


class TestDetectBlowup:
    def test_decaying_series_is_quiet(self):
        t = np.linspace(0, 1, 50)
        series = TimeSeries.from_arrays(t=t, grad_sq=np.exp(-t),
                                        l2_v=np.exp(-t))
        assert dw.detect_blowup(series) is None

    def test_doubling_series_fires(self):
        t = np.arange(40.0)
        y = 2.0 ** np.arange(40.0)
        series = TimeSeries.from_arrays(t=t, grad_sq=y**2,
                                        l2_v=np.zeros_like(y))
        assert dw.detect_blowup(series) is not None

    def test_pole_fit_estimate(self):
        t = np.linspace(0.0, 0.99, 200)
        y = 1.0 / (1.0 - t)
        series = TimeSeries.from_arrays(t=t, grad_sq=y**2,
                                        l2_v=np.zeros_like(y))
        est = dw.detect_blowup(series, norm_threshold=50.0)
        assert est == pytest.approx(1.0, abs=0.05)

    def test_step_failure_with_growth(self):
        t = np.arange(20.0)
        y = np.exp(t)
        series = TimeSeries.from_arrays(t=t, grad_sq=y**2,
                                        l2_v=np.zeros_like(y))
        assert dw.detect_blowup(series, step_failed=True) is not None

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            dw.detect_blowup(TimeSeries())


def test_series_csv_roundtrip(tmp_path, dom63, wc63_p4):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("stable", 0.5))
    series, _ = dw.run(dw.SimState(0.0, u0, u1), params,
                       dw.StepConfig(dt=5e-3), 0.2, dw.MonitorSet(epsilon=0.1))
    path = tmp_path / "series.csv"
    series.to_csv(path)
    back = TimeSeries.read_csv(path)
    assert back.rows == series.rows
    header = path.read_text().splitlines()[0]
    assert header == "t,E,I,J,L,kinetic,grad_sq,lp_p,l2_v,grad_v_sq"


@pytest.mark.parametrize("dom, n_steps", [
    (dw.interval(1.0, 63), 30),
    # 345 nodes: above SAMPLE_EVERY_STEP_MAX_NODES, so rows are every 10th step
    (dw.rectangle((1.5, 1.0), (23, 15)), 25),
])
def test_series_rows_match_public_functions(dom, n_steps):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    eps = 0.1
    u0 = dw.GridField(dom, 0.5 * mesh.eigenmode(dom).values)
    v0 = dw.GridField(dom, 0.3 * mesh.eigenmode(dom, (2,) * dom.dim).values)
    initial = dw.SimState(0.0, u0, v0)
    series, outcome = dw.run(initial, params, cfg, n_steps * cfg.dt,
                             dw.MonitorSet(epsilon=eps))
    assert outcome.kind == "completed"

    stride = 1 if dom.size <= solver.SAMPLE_EVERY_STEP_MAX_NODES else 10
    stepper = dw.Stepper(dom, params, cfg)
    states = [initial]
    for _ in range(n_steps):
        state, stats = stepper.advance(states[-1])
        vm = dw.GridField(dom, 0.5 * (states[-1].v.values + state.v.values))
        want = dw.dissipation_rate(dw.SimState(state.t, state.u, vm), params)
        assert stats.midpoint_dissipation == pytest.approx(want, rel=1e-12, abs=0)
        states.append(state)
    sampled = [s for k, s in enumerate(states)
               if k % stride == 0 or k == n_steps]
    assert len(series) == len(sampled)

    for row, state in zip(series.rows, sampled):
        rep = dw.total_energy(state, params)
        assert rep.grad_sq == mesh.grad_norm_sq(state.u)
        assert rep.lp_p == mesh.lp_norm_p(state.u, params.p)
        assert rep.kinetic == 0.5 * mesh.l2_norm_sq(state.v)
        ell = dw.lyapunov_L(state, params, eps)
        expected = (state.t, rep.E, rep.I, rep.J, ell, rep.kinetic, rep.grad_sq,
                    rep.lp_p, mesh.l2_norm_sq(state.v), mesh.grad_norm_sq(state.v))
        assert row == expected


@pytest.mark.parametrize("field", ["u", "v"])
def test_run_rejects_non_finite_initial_data(dom63, field):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    values = {"u": 0.1 * mesh.eigenmode(dom63).values, "v": np.zeros(dom63.size)}
    values[field][5] = math.nan
    state = dw.SimState(0.0, dw.GridField(dom63, values["u"]),
                        dw.GridField(dom63, values["v"]))
    with pytest.raises(mesh.CorruptFieldError):
        dw.run(state, params, dw.StepConfig(dt=1e-2), 0.1)
