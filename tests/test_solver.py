import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import mesh, solver
from dampedwave.functionals import energy_terms
from dampedwave.series import COLUMNS, TimeSeries
from dampedwave.well import scale_invariant_tol


def test_step_config_validation():
    with pytest.raises(ValueError):
        dw.StepConfig(dt=0.0)
    with pytest.raises(ValueError):
        dw.StepConfig(dt=-1e-3)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            dw.StepConfig(dt=dt)


@pytest.mark.parametrize("epsilon", [-5.0, -1e-300, math.nan, math.inf])
def test_monitor_epsilon_must_be_finite_and_nonnegative(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        dw.MonitorSet(epsilon=epsilon)


def test_zero_is_fixed_point(dom63):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u = v = np.zeros((1, dom63.size))
    stepper = dw.Stepper(dom63, [params], dw.StepConfig(dt=1e-2))
    for _ in range(5):
        u, v = stepper.advance(u, v, stepper.a(u))[0]
    assert not u.any()
    assert not v.any()


def test_advance_rejects_a_single_field(dom63):
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=1e-2))
    zeros = np.zeros(dom63.size)
    with pytest.raises(ValueError, match=r"\(K, size\)"):
        stepper.advance(zeros, zeros, zeros)
    stack = np.zeros((2, dom63.size))  # one row more than the stepper has params
    with pytest.raises(ValueError, match=r"K = 1 rows"):
        stepper.advance(stack, stack, stack)


def _stub_solve(stepper, outputs):
    """Replace the stepper's per-iteration solve, which maps the step's affine
    part and the source at the midpoint to the next iterate, by one
    returning `outputs` in turn."""
    calls = []

    def solve(affine, source):
        calls.append(source)
        return outputs[(len(calls) - 1) % len(outputs)].copy().reshape(source.shape)
    stepper._solve = solve
    return calls


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_solve_fails_on_first_iteration(dom63, bad):
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=1e-2))
    out = np.zeros(dom63.size)
    out[7] = bad
    calls = _stub_solve(stepper, [out])
    u, v = np.full((1, dom63.size), 0.5), np.full((1, dom63.size), -0.25)
    (u_new, v_new), stats = stepper.advance(u, v, np.zeros_like(u))
    assert stats.failures == ["midpoint solve produced non-finite values"]
    assert len(calls) == 1 == stats.row_iters[0]
    assert u_new.tobytes() == u.tobytes() and v_new.tobytes() == v.tobytes()


def test_overflowing_picard_change_is_not_non_finite(dom63):
    """Finite iterates whose difference overflows stall; they are not NaN/inf."""
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=1e-2))
    calls = _stub_solve(stepper, [np.full(dom63.size, 1e308),
                                  np.full(dom63.size, -1e308)])
    u, v = np.full((1, dom63.size), 0.5), np.full((1, dom63.size), -0.25)
    with np.errstate(over="ignore", invalid="ignore"):  # the change overflows
        (u_new, v_new), stats = stepper.advance(u, v, np.zeros_like(u))
    assert stats.failures == [f"Picard stalled after {solver.PICARD_MAX} iterations"]
    assert len(calls) == solver.PICARD_MAX == stats.row_iters[0]
    assert u_new.tobytes() == u.tobytes() and v_new.tobytes() == v.tobytes()


def _midpoint_map(a, params, dt, u, v):
    """The step's Picard map vm -> S^-1 (2v - dt Au + dt f(u + dt vm/2)) of
    the (K, size) stacks u and v, row k under params[k], from the assembled
    stiffness matrix `a` and a sparse LU of each row's S, not the stepper."""
    eye = sp.identity(a.shape[0], format="csc")
    solves = [spla.factorized(((2.0 + dt * prm.mu) * eye
                               + (0.5 * dt * dt + dt * prm.omega) * a).tocsc())
              for prm in params]
    base = 2.0 * v - dt * (a @ u.T).T
    q = params[0].p - 2.0

    def step_map(vm):
        um = u + 0.5 * dt * vm
        rhs = base + dt * (um * np.abs(um) ** q)
        return np.array([solve(row) for solve, row in zip(solves, rhs)])
    return step_map


@pytest.mark.parametrize("dom", [dw.interval(1.0, 63),
                                 dw.rectangle((1.5, 1.0), (47, 31)),
                                 dw.interval(1.0, 64)])
@pytest.mark.parametrize("rows", [
    [((0.1, 1.0), 20.0, 0.0)],
    [((0.1, 1.0), 2.0, 0.5), ((0.0, 1.0), 25.0, -3.0), ((1.0, 0.5), 10.0, 1.0)],
])
def test_picard_stop_is_within_tolerance_of_the_fixed_point(dom, rows, csr_stiffness):
    """The returned midpoint velocity is PICARD_TOL-close to the fixed point
    of the step's midpoint equation, by the dense 1D products, the 2D
    transforms and, at 64 nodes, the 1D transforms."""
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0) for (om, mu), _, _ in rows]
    phi, psi = mesh.eigenmode(dom).values, mesh.eigenmode(dom, (2,) * dom.dim).values
    u = np.array([a * phi for _, a, _ in rows])
    v = np.array([b * psi for _, _, b in rows])
    stepper = dw.Stepper(dom, params, dw.StepConfig(dt=5e-3))
    contractions = []
    for _ in range(5):
        au = stepper.a(u)
        (u_new, v_new), stats = stepper.advance(u, v, au)
        vm = 0.5 * (v + v_new)
        step_map, fixed = _midpoint_map(csr_stiffness(dom), params, 5e-3, u, v), vm
        for _ in range(100):
            fixed = step_map(fixed)
        err = np.abs(vm - fixed).max(axis=-1)
        scale = np.maximum(1.0, np.abs(vm).max(axis=-1))
        assert (err <= solver.PICARD_TOL * scale).all()
        contractions += stats.contraction
        u, v = u_new, v_new
    assert len(contractions) == 5 * len(rows)
    assert max(c for c in contractions if c < math.inf) > 1e-3  # a bound that bites
    assert all(c < 0.5 or c == math.inf for c in contractions)


def test_contraction_bound_saves_a_solve_per_step(dom63, wc63_p4, csr_stiffness):
    """Against the test on the change alone, iterating the step's midpoint
    equation from the same states, over 200 steps."""
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("stable", 0.5))
    stepper = dw.Stepper(dom63, [params], dw.StepConfig(dt=5e-3))
    u, v = u0.values[None], u1.values[None]
    solves = old_solves = 0
    for _ in range(200):
        au = stepper.a(u)
        step_map, vm = _midpoint_map(csr_stiffness(dom63), [params], 5e-3, u, v), v
        for it in range(1, solver.PICARD_MAX + 1):
            vm, prev = step_map(vm), vm
            tol = solver.PICARD_TOL * max(1.0, np.abs(vm).max())
            if np.abs(vm - prev).max() <= tol:
                break
        old_solves += it
        (u, v), stats = stepper.advance(u, v, au)
        solves += stats.picard_iters
    assert solves / 200 <= old_solves / 200 - 0.9


@pytest.mark.parametrize("level, n_solves, by_rho", [
    (0.0, 2, True),      # rho ~ 2e-9: the second iterate is certified
    (100.0, 3, False),   # rho ~ 0.75 >= 1/2: only the change test may stop
    (1e200, 3, False),   # M^(p-2) overflows a float: the change test decides
])
def test_contraction_test_falls_back_to_the_change_test(dom63, level, n_solves, by_rho):
    dt = 1e-2
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=dt))
    out = np.ones(dom63.size)
    # the second change, 5e-12, fails the change test; the third is 0
    calls = _stub_solve(stepper, [out, out + 5e-12, out + 5e-12])
    u, zeros = np.full((1, dom63.size), level), np.zeros((1, dom63.size))
    with np.errstate(over="ignore", invalid="ignore"):  # the source term overflows at level 1e200
        _, stats = stepper.advance(u, zeros, zeros)
    assert len(calls) == stats.picard_iters == n_solves
    (rho,) = stats.contraction
    if by_rho:
        bound = level + 0.5 * dt * (1.0 + 1e-11)
        assert rho == pytest.approx(dt**2 * 3.0 * bound**2 / (2.0 * 2.01), rel=1e-12)
    else:
        assert rho == math.inf


def test_linear_mode_oracle(dom63, source_free_stepper):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    lam = mesh.eigenvalue(dom63)
    s1, s2 = np.roots([1.0, params.omega * lam + params.mu, lam])
    phi = mesh.eigenmode(dom63)

    def exact(t):
        c1, c2 = -s2 / (s1 - s2), s1 / (s1 - s2)
        return float((c1 * np.exp(s1 * t) + c2 * np.exp(s2 * t)).real)

    cfg = dw.StepConfig(dt=2e-3)
    t, u, v = 0.0, phi.values[None], np.zeros((1, dom63.size))
    stepper = source_free_stepper(dom63, [params], cfg)
    for _ in range(int(round(1.0 / cfg.dt))):
        (u, v), _ = stepper.advance(u, v, stepper.a(u))
        t += cfg.dt
    err = np.max(np.abs(u[0] - exact(t) * phi.values))
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
    assert not any(series.col(name).any() for name in COLUMNS[1:])


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


def test_unstable_run_ends_on_the_threshold(dom63, wc63_p4):
    """The AC-5 data at dt=2.5e-4 reach BLOWUP_NORM_THRESHOLD before a step
    fails, so the run ends on the threshold, deciding at its last sample."""
    params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("unstable", 0.9))
    series, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                             dw.StepConfig(dt=2.5e-4), 1.0)
    assert outcome.kind == "blew_up"
    assert outcome.details == "divergence norm 1.441e+06 crossed threshold"
    assert outcome.T == pytest.approx(0.64675, rel=1e-12)
    assert outcome.t_max_estimate == pytest.approx(0.64705, abs=1e-5)
    assert dw.detect_blowup(series) == outcome.t_max_estimate


@pytest.mark.parametrize("at", [2, 5, 10, 20])
def test_stable_run_whose_step_fails_raises(monkeypatch, at):
    """Stable data stay in the positive Nehari set, where the energy bounds
    the state, so a step that leaves a NaN there ends the run in the
    StepFailure, however early it fails and whatever the norm did before."""
    dom = dw.interval(1.0, 31)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom, params, dw.well_constants(dom, 4.0),
                                     ("stable", 0.5))
    advance, steps = dw.Stepper.advance, [0]

    def corrupting(self, u, *args):
        (u, v), stats = advance(self, u, *args)
        steps[0] += 1
        if steps[0] == at:
            u[0] = np.nan
        return (u, v), stats
    monkeypatch.setattr(dw.Stepper, "advance", corrupting)
    with pytest.raises(solver.StepFailure, match="^step produced non-finite values$"):
        dw.run(dw.SimState(0.0, u0, u1), params, dw.StepConfig(dt=0.01), 1.0)


def test_high_energy_run_that_stalls_in_n_minus_blows_up(dom63, wc63_p4):
    """Above the well depth neither sign of I bounds the state.  Data at rest
    kicked along the first mode with E0 = 20 d leave the positive Nehari set,
    and the step that stalls there ends the run blown up."""
    phi = mesh.eigenmode(dom63).values
    kick = math.sqrt(40.0 * wc63_p4.d / (dom63.weight * float(phi @ phi)))
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    state = dw.SimState(0.0, dw.GridField.zeros(dom63), dw.GridField(dom63, kick * phi))
    series, outcome = dw.run(state, params, dw.StepConfig(dt=5e-3), 5.0)
    assert series.col("E")[0] == pytest.approx(20.0 * wc63_p4.d, rel=1e-12)
    assert series.col("I")[-1] < 0
    assert outcome.kind == "blew_up"
    assert outcome.details == f"Picard stalled after {solver.PICARD_MAX} iterations"
    assert outcome.T == pytest.approx(0.46, rel=1e-12)
    assert outcome.t_max_estimate == pytest.approx(0.469, abs=1e-3)


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

    @staticmethod
    def crossing(t, y, first):
        """The samples of y up to `first`, scaled to pass the blow-up threshold
        first there; the pole fit does not see the scale."""
        y = y[:first + 1] * (solver.BLOWUP_NORM_THRESHOLD
                             / math.sqrt(y[first - 1] * y[first]))
        assert y[first - 1] <= solver.BLOWUP_NORM_THRESHOLD < y[first]
        return TimeSeries.from_arrays(t=t[:first + 1], grad_sq=y**2,
                                      l2_v=np.zeros_like(y))

    def test_pole_fit_estimate(self):
        t = np.linspace(0.0, 0.99, 200)
        y = 1.0 / (1.0 - t)
        est = dw.detect_blowup(self.crossing(t, y, int(np.argmax(y > 50.0))))
        assert est == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("T, alpha", [(1.0, 1.0), (0.645, 2.0), (2.03, 3.0)])
    def test_pole_fit_recovers_exact_pole(self, T, alpha):
        t = np.linspace(0.0, 0.99 * T, 200)
        y = (T - t) ** -alpha
        est = dw.detect_blowup(self.crossing(t, y, len(y) - 19))
        assert abs(est - T) <= 1e-8 * T

    def test_decides_at_the_last_sample(self):
        t = np.linspace(0.0, 0.99, 200)
        y = 1.0 / (1.0 - t)
        series = self.crossing(t, y, 150)
        assert dw.detect_blowup(series) is not None
        before = TimeSeries.from_arrays(**{name: series.col(name)[:-1]
                                           for name in COLUMNS})
        assert dw.detect_blowup(before) is None
        # past the threshold at an earlier sample but not at the last: no call
        row = [before.col(name)[-1] for name in COLUMNS]
        row[0] = 1.0
        series.append(*row)
        assert dw.detect_blowup(series) is None

    def test_step_failure_with_growth(self):
        """Below the threshold, a failed step is a blow-up when the last
        sample lies in N_minus, whatever the growth: a growing series with
        I < 0 gets an estimate, the same series with I > 0 none, and so does
        a lone sample with I < 0, whose first step failed."""
        t = np.arange(20.0)
        grad_sq = np.exp(t)  # the norm ends at e^9.5, far below the threshold

        def series(lp_over_grad, k=len(t)):
            return TimeSeries.from_arrays(
                t=t[:k], grad_sq=grad_sq[:k], lp_p=lp_over_grad * grad_sq[:k],
                I=(1.0 - lp_over_grad) * grad_sq[:k])
        assert series(2.0).col("I")[-1] < 0 < series(0.5).col("I")[-1]
        assert dw.detect_blowup(series(2.0)) is None
        assert dw.detect_blowup(series(2.0), step_failed=True) is not None
        assert dw.detect_blowup(series(0.5), step_failed=True) is None
        assert dw.detect_blowup(series(2.0, k=1), step_failed=True) is None

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
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(back) == len(series)
    for j, name in enumerate(COLUMNS):
        assert back[:, j].tobytes() == series.col(name).tobytes()
    header = path.read_text().splitlines()[0]
    assert header == "t,E,I,J,L,kinetic,grad_sq,lp_p,l2_v,grad_v_sq"


@pytest.mark.parametrize("dom, n_steps", [
    (dw.interval(1.0, 63), 30),
    # 345 nodes: above SAMPLE_EVERY_STEP_MAX_NODES, so rows are every 10th step
    (dw.rectangle((1.5, 1.0), (23, 15)), 25),
])
def test_series_rows_match_public_functions(dom, n_steps, csr_stiffness):
    """Each sample row against the public norms, its L against the formula,
    and each step's midpoint dissipation against the assembled matrix; at
    omega = 0 only the frictional term is left."""
    a, w = csr_stiffness(dom), dom.weight
    cfg = dw.StepConfig(dt=5e-3)
    eps = 0.1
    u0 = dw.GridField(dom, 0.5 * mesh.eigenmode(dom).values)
    v0 = dw.GridField(dom, 0.3 * mesh.eigenmode(dom, (2,) * dom.dim).values)
    initial = dw.SimState(0.0, u0, v0)
    stride = 1 if dom.size <= solver.SAMPLE_EVERY_STEP_MAX_NODES else 10
    for omega, mu in ((0.1, 1.0), (0.0, 2.0)):
        params = dw.ModelParams(omega=omega, mu=mu, p=4.0)
        series, outcome = dw.run(initial, params, cfg, n_steps * cfg.dt,
                                 dw.MonitorSet(epsilon=eps))
        assert outcome.kind == "completed"

        stepper = dw.Stepper(dom, [params], cfg)
        states, ring = [initial], np.zeros((solver.HISTORY, 1, dom.size))
        for k in range(n_steps):
            prev = states[-1]
            u = prev.u.values[None]
            (u, v), stats = stepper.advance(u, prev.v.values[None], stepper.a(u),
                                            solver.start_guess(ring, k))
            ring[k % solver.HISTORY] = stats.vm
            vm = 0.5 * (prev.v.values + v[0])
            want = -omega * w * (vm @ (a @ vm)) - mu * w * (vm @ vm)
            (diss,) = stepper.dissipation(stats.vm)
            assert diss == pytest.approx(want, rel=1e-12, abs=0)
            states.append(dw.SimState(prev.t + cfg.dt, dw.GridField(dom, u[0]),
                                      dw.GridField(dom, v[0])))
        sampled = [s for k, s in enumerate(states)
                   if k % stride == 0 or k == n_steps]
        assert len(series) == len(sampled)

        rows = zip(*(series.col(name) for name in COLUMNS))
        for row, state in zip(rows, sampled):
            rep = dw.total_energy(state, params)
            assert rep.grad_sq == mesh.grad_norm_sq(state.u)
            assert rep.lp_p == mesh.lp_norm_p(state.u, params.p)
            assert rep.kinetic == 0.5 * mesh.l2_norm_sq(state.v)
            ell = (rep.E + eps * mesh.inner(state.v, state.u)
                   + 0.5 * eps * omega * rep.grad_sq)
            expected = (state.t, rep.E, rep.I, rep.J, ell, rep.kinetic,
                        rep.grad_sq, rep.lp_p, mesh.l2_norm_sq(state.v),
                        mesh.grad_norm_sq(state.v))
            assert row == expected


NODE_VALUES = st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                       min_size=3, max_size=3)
DAMPING = st.tuples(st.floats(min_value=0, max_value=2),
                    st.floats(min_value=0, max_value=2)).filter(lambda d: sum(d) > 0)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(NODE_VALUES, NODE_VALUES, DAMPING),
                     min_size=1, max_size=3))
def test_midpoint_dissipation_is_nonpositive(rows):
    """dE/dt = -omega ||grad u_t||^2 - mu ||u_t||^2 <= 0 at every step's midpoint."""
    dom = dw.interval(1.0, 3)
    params = [dw.ModelParams(omega=omega, mu=mu, p=4.0) for _, _, (omega, mu) in rows]
    stepper = dw.Stepper(dom, params, dw.StepConfig(dt=5e-3))
    u = np.array([u for u, _, _ in rows])
    v = np.array([v for _, v, _ in rows])
    _, stats = stepper.advance(u, v, stepper.a(u))
    assert all(diss <= 0.0 for diss in stepper.dissipation(stats.vm))


# a start guess: factor * the step's midpoint velocity from v, plus an offset
GUESS = st.tuples(st.sampled_from([0.0, 1.0, 10.0]), NODE_VALUES)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(NODE_VALUES, NODE_VALUES, DAMPING, GUESS),
                     min_size=1, max_size=3),
       amp=st.floats(min_value=0.0, max_value=60.0), p=st.sampled_from([3.0, 4.0, 5.0]))
@np.errstate(over="ignore", invalid="ignore")  # a guess far from vm may overflow
def test_any_start_guess_keeps_the_picard_tolerance(rows, amp, p, csr_stiffness):
    """From any guess, a row that the contraction bound ends is within
    PICARD_TOL of the step's fixed point, and every row rounds in a stack as
    it does alone.

    Amplitudes up to 60 reach contraction constants near 1/2, where a guess
    far from vm can fail a step that converges from v: a 5,000-example
    search found such rows at amplitudes near 40, p = 4, guess 10 vm plus an
    offset.  The extrapolated guesses of a run are not such guesses
    (`test_a_row_that_fails_from_its_guess_fails_from_v`)."""
    dom, cfg = dw.interval(1.0, 3), dw.StepConfig(dt=5e-3)
    stack = []
    for u, v, (omega, mu), (factor, offset) in rows:
        params = dw.ModelParams(omega=omega, mu=mu, p=p)
        stepper = dw.Stepper(dom, [params], cfg)
        u, v = amp * np.array([u]), amp * np.array([v])
        au = stepper.a(u)
        _, plain = stepper.advance(u, v, au)
        if plain.failures[0] is not None:
            continue
        guess = factor * plain.vm + amp * np.array([offset])
        _, stats = stepper.advance(u, v, au, guess)
        if stats.failures[0] is None and stats.contraction[0] < math.inf:
            step_map, fixed = _midpoint_map(csr_stiffness(dom), [params], cfg.dt,
                                            u, v), stats.vm
            for _ in range(200):
                fixed, prev = step_map(fixed), fixed
                if (fixed == prev).all():
                    break
            scale = max(1.0, np.abs(stats.vm).max())
            assert np.abs(stats.vm - fixed).max() <= solver.PICARD_TOL * scale
        stack.append((params, u[0], v[0], guess[0], stats))
    if not stack:
        return
    params, u, v, guess, solo = zip(*stack)
    stepper = dw.Stepper(dom, params, cfg)
    u = np.array(u)
    _, stats = stepper.advance(u, np.array(v), stepper.a(u), np.array(guess))
    assert stats.row_iters == [s.row_iters[0] for s in solo]
    assert stats.failures == [s.failures[0] for s in solo]
    assert stats.vm.tobytes() == np.concatenate([s.vm for s in solo]).tobytes()


@np.errstate(over="ignore", invalid="ignore")  # the non-finite guess
def test_a_non_finite_guess_fails_its_row_after_one_solve(dom63):
    """A row whose guess turns non-finite fails its step there, with its u
    and v as given; the other row keeps its guess."""
    params = [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)] * 2
    stepper = dw.Stepper(dom63, params, dw.StepConfig(dt=5e-3))
    u = np.array([0.5, 2.0])[:, None] * mesh.eigenmode(dom63).values
    v = np.zeros_like(u)
    au = stepper.a(u)
    _, plain = stepper.advance(u, v, au)
    guess = plain.vm.copy()
    guess[0, 7] = math.inf
    (u_g, v_g), stats = stepper.advance(u, v, au, guess)
    assert stats.failures == ["midpoint solve produced non-finite values", None]
    assert u_g[0].tobytes() == u[0].tobytes() and v_g[0].tobytes() == v[0].tobytes()
    assert stats.vm[0].tobytes() == v[0].tobytes()
    assert stats.row_iters[0] == 1
    assert stats.row_iters[1] == 1 < plain.row_iters[1]  # certified by its first solve
    assert stats.contraction[1] < 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_caller_of_advance_owns_the_error_state(dom63):
    """An overflowing step warns outside np.errstate and fails, bit for bit,
    as it does inside it; `run_many` holds that state over its whole step
    loop, so a stack with a row that blows up warns nothing."""
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=5e-3))
    u = 0.5 * mesh.eigenmode(dom63).values[None]
    v = np.zeros_like(u)
    au, guess = stepper.a(u), np.full_like(u, math.inf)
    with pytest.warns(RuntimeWarning):
        (u_w, v_w), warned = stepper.advance(u, v, au, guess)
    with np.errstate(over="ignore", invalid="ignore"):
        (u_q, v_q), quiet = stepper.advance(u, v, au, guess)
    assert warned.failures == quiet.failures == [
        "midpoint solve produced non-finite values"]
    assert warned.row_iters == quiet.row_iters == [1]
    for got, want in ((u_w, u_q), (v_w, v_q), (warned.vm, quiet.vm)):
        assert got.tobytes() == want.tobytes()

    phi = mesh.eigenmode(dom63).values
    states = [dw.SimState.rest(dw.GridField(dom63, amp * phi)) for amp in (0.5, 20.0)]
    (_, calm), (_, blown) = dw.run_many(states, [dw.ModelParams(omega=0.0, mu=1.0,
                                                                p=4.0)] * 2,
                                        dw.StepConfig(dt=5e-3), 0.2)
    assert calm.kind == "completed"
    assert blown.kind == "blew_up" and "non-finite" in blown.details


def test_a_stalled_guess_fails_after_picard_max_solves(dom63):
    """A row whose guess stalls for PICARD_MAX solves fails its step there;
    the stubbed solves after those would converge, but it takes none."""
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=1e-2))
    stall = [np.full(dom63.size, (-1.0) ** k * 1e308) for k in range(solver.PICARD_MAX)]
    calls = _stub_solve(stepper, stall + [np.full(dom63.size, 0.125)] * 3)
    u, v = np.full((1, dom63.size), 0.5), np.full((1, dom63.size), -0.25)
    with np.errstate(over="ignore", invalid="ignore"):  # the stalled changes overflow
        (u_new, v_new), stats = stepper.advance(u, v, np.zeros_like(u),
                                                np.full_like(v, 3.0))
    assert stats.failures == [f"Picard stalled after {solver.PICARD_MAX} iterations"]
    assert len(calls) == solver.PICARD_MAX == stats.row_iters[0]
    assert u_new.tobytes() == u.tobytes() and v_new.tobytes() == v.tobytes()


@np.errstate(over="ignore", invalid="ignore")  # the last row overflows
def test_one_advance_ends_each_row_as_its_solo_step(dom63):
    """In one pass, a row that converges from its guess, a row whose guess
    turns non-finite and a row that fails from v, each under its own damping,
    end as they do alone, and so does each row's midpoint dissipation."""
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0)
              for om, mu in ((0.1, 1.0), (1.0, 0.0), (0.0, 0.5))]
    cfg = dw.StepConfig(dt=5e-3)
    a = mesh.stiffness(dom63)
    u = np.array([0.5, 0.0, 1e3])[:, None] * mesh.eigenmode(dom63).values
    v = 0.1 * u
    stepper = dw.Stepper(dom63, params, cfg)
    _, plain = stepper.advance(u, v, a(u))
    guess = plain.vm.copy()
    guess[1, 7] = math.inf
    guess[2] = v[2]
    (u1, v1), stats = stepper.advance(u, v, a(u), guess)
    assert stats.failures[:2] == [None, "midpoint solve produced non-finite values"]
    assert stats.failures[2] is not None
    assert stats.row_iters[:2] == [1, 1]
    assert stats.picard_iters == sum(stats.row_iters)
    assert stats.contraction[0] < 0.5
    for r in (1, 2):
        assert u1[r].tobytes() == u[r].tobytes() and v1[r].tobytes() == v[r].tobytes()
    diss = stepper.dissipation(stats.vm)
    for r, prm in enumerate(params):
        ur, solo_stepper = u[r:r + 1], dw.Stepper(dom63, [prm], cfg)
        (ur, vr), solo = solo_stepper.advance(ur, v[r:r + 1], a(ur), guess[r:r + 1])
        assert ur.tobytes() == u1[r].tobytes() and vr.tobytes() == v1[r].tobytes()
        assert solo.vm.tobytes() == stats.vm[r].tobytes()
        assert solo.row_iters == [stats.row_iters[r]]
        assert solo.failures == [stats.failures[r]]
        assert solo_stepper.dissipation(solo.vm) == [diss[r]]


class _NumpyCountingMaxima:
    """numpy, with its calls of `maximum.reduce` counted."""

    def __init__(self):
        self.reductions = 0
        self.maximum = SimpleNamespace(reduce=self._reduce)

    def _reduce(self, *args, **kwargs):
        self.reductions += 1
        return np.maximum.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@np.errstate(over="ignore", invalid="ignore")  # the non-finite guess
def test_advance_takes_one_max_reduction_per_picard_iteration(dom63, monkeypatch):
    """|u|_inf, the start's |vm|_inf, the change and |vm|_inf come from one
    reduction: a step certified by its first solve makes one, and so does a
    step whose guess turns non-finite, which fails there."""
    params, cfg = [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)] * 2, dw.StepConfig(dt=5e-3)
    stepper, solo = dw.Stepper(dom63, params, cfg), dw.Stepper(dom63, params[:1], cfg)
    u = np.array([0.5, 2.0])[:, None] * mesh.eigenmode(dom63).values
    v = np.zeros_like(u)
    au = stepper.a(u)
    _, plain = stepper.advance(u, v, au)
    counting = _NumpyCountingMaxima()
    monkeypatch.setattr(solver, "np", counting)
    for r in range(2):
        _, stats = solo.advance(u[r:r + 1], v[r:r + 1], au[r:r + 1], plain.vm[r:r + 1])
        assert stats.row_iters == [1]
        assert counting.reductions == r + 1
    guess = plain.vm.copy()
    guess[0, 7] = math.inf
    counting.reductions = 0
    _, stats = solo.advance(u[:1], v[:1], au[:1], guess[:1])
    assert stats.failures == ["midpoint solve produced non-finite values"]
    assert stats.row_iters == [1]
    assert counting.reductions == 1
    # in a stack every busy row takes each iteration's solve
    counting.reductions = 0
    _, stats = stepper.advance(u, v, au, guess)
    assert stats.row_iters == [1, 1] and stats.failures[1] is None
    assert counting.reductions == 1
    counting.reductions = 0
    _, stats = stepper.advance(u, v, au)
    assert stats.row_iters == plain.row_iters
    assert counting.reductions == max(stats.row_iters) >= 2


def test_contraction_is_the_bound_from_four_separate_maxima(dom63):
    """Over rows whose |u|_inf spans 1e-3 to 1e3, each row's contraction
    is, bit for bit, its solo step's and lip (|u|_inf + dt/2
    max(|vm_0|_inf, |vm_1|_inf + delta))^(p-2) from maxima taken row by row."""
    dt, p = 1e-4, 4.0
    cfg = dw.StepConfig(dt=dt)
    amps = [1e-3, 1e-1, 1e1, 1e3]
    params = [dw.ModelParams(omega=om, mu=mu, p=p)
              for om, mu in ((0.1, 1.0), (1.0, 0.0), (0.0, 0.5), (0.1, 1.0))]
    phi = mesh.eigenmode(dom63).values
    u = np.array(amps)[:, None] * (phi / np.abs(phi).max())
    v = 0.1 * u[::-1] * mesh.eigenmode(dom63, (3,)).values
    stepper = dw.Stepper(dom63, params, cfg)
    au = stepper.a(u)
    guess = stepper.advance(u, v, au)[1].vm
    _, stats = stepper.advance(u, v, au, guess)
    assert stats.row_iters == [1] * len(amps)
    for r, prm in enumerate(params):
        _, solo = dw.Stepper(dom63, [prm], cfg).advance(
            u[r:r + 1], v[r:r + 1], au[r:r + 1], guess[r:r + 1])
        vm0, vm1 = guess[r], stats.vm[r]
        umax, delta = float(np.abs(u[r]).max()), float(np.abs(vm1 - vm0).max())
        assert umax == amps[r]
        bound = umax + 0.5 * dt * max(float(np.abs(vm0).max()),
                                      float(np.abs(vm1).max()) + delta)
        lip = 0.5 * dt * dt * (p - 1.0) / (2.0 + dt * prm.mu)
        assert stats.contraction[r] == solo.contraction[0] == lip * bound ** (p - 2.0)
    assert 0.0 < stats.contraction[0] < 1e-12 < 1e-3 < stats.contraction[-1] < 0.5


def test_run_many_advances_once_per_step_when_a_row_fails(dom63, monkeypatch):
    """A row that fails a step leaves the stack in that step's pass; the
    survivors are not stepped again."""
    calls = []
    advance = dw.Stepper.advance

    def counted(self, u, *args):
        calls.append(len(u))
        return advance(self, u, *args)
    monkeypatch.setattr(dw.Stepper, "advance", counted)
    params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    phi = mesh.eigenmode(dom63).values
    states = [dw.SimState.rest(dw.GridField(dom63, amp * phi)) for amp in (0.5, 20.0)]
    (_, calm), (_, failed) = dw.run_many(states, [params] * 2, cfg, 40 * cfg.dt)
    assert calm.kind == "completed"
    assert failed.kind == "blew_up" and "non-finite" in failed.details
    stacked = round(failed.T / cfg.dt) + 1  # the steps up to the failed one
    assert 1 < stacked < 40
    assert calls == [2] * stacked + [1] * (40 - stacked)


def test_extrapolated_start_takes_under_1_5_solves_per_step():
    """A decaying 2D run certifies most steps from their first solve."""
    dom = dw.rectangle((1.5, 1.0), (23, 15))
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    state = dw.SimState.rest(dw.GridField(dom, 2.0 * mesh.eigenmode(dom).values))
    _, outcome = dw.run(state, params, cfg, 200 * cfg.dt)
    assert outcome.kind == "completed"
    assert outcome.linear_solves / 200 < 1.5


def _guess_grid_rows(dom, p):
    """Per damping (omega, mu), stable 0.5 and 0.95 and unstable 0.5 and
    0.05 data at rest, and u0 = 0 kicked along mode 1 or 5 with E0 = 2 d or
    50 d: 48 rows."""
    wc = dw.well_constants(dom, p)
    states, params = [], []
    for omega, mu in ((0.0, 1.0), (0.1, 1.0), (1.0, 0.0), (1.0, 1.0),
                      (10.0, 0.0), (0.0, 10.0)):
        prm = dw.ModelParams(omega=omega, mu=mu, p=p)
        for target in (("stable", 0.5), ("stable", 0.95),
                       ("unstable", 0.5), ("unstable", 0.05)):
            u0, u1 = dw.prepare_initial_data(dom, prm, wc, target)
            states.append(dw.SimState(0.0, u0, u1))
        for k in (1, 5):
            phi = mesh.eigenmode(dom, (k,)).values
            for level in (2.0, 50.0):
                kick = math.sqrt(2.0 * level * wc.d / (dom.weight * float(phi @ phi)))
                states.append(dw.SimState(0.0, dw.GridField.zeros(dom),
                                          dw.GridField(dom, kick * phi)))
        params += [prm] * 8
    return states, params


def test_a_row_that_fails_from_its_guess_fails_from_v(monkeypatch):
    """`advance` starts each row once, from `start_guess`.  Over stable,
    unstable and kicked data, each row that fails a step from its guess
    fails the same step stepped alone from v, so no restart from v could
    have saved it."""
    advance, init = dw.Stepper.advance, dw.Stepper.__init__
    checked = []

    def keep_params(self, domain, params, cfg):
        init(self, domain, params, cfg)
        self.row_params = list(params)

    def restep_failures(self, u, v, au, guess=None):
        step = advance(self, u, v, au, guess)
        for r, failure in enumerate(step[1].failures):
            if failure is not None and guess is not None:
                alone = dw.Stepper(self.domain, self.row_params[r:r + 1], self.cfg)
                _, from_v = advance(alone, u[r:r + 1], v[r:r + 1],
                                    None if au is None else au[r:r + 1])
                assert from_v.failures[0] is not None, (self.row_params[r], failure)
                checked.append(failure)
        return step
    monkeypatch.setattr(dw.Stepper, "__init__", keep_params)
    monkeypatch.setattr(dw.Stepper, "advance", restep_failures)
    dom = dw.interval(1.0, 31)
    for p in (4.0, 10.0):
        states, params = _guess_grid_rows(dom, p)
        for dt in (0.01, 0.05):
            results = dw.run_many(states, params, dw.StepConfig(dt=dt), 2.0)
            assert len(results) == 48
    assert len(checked) > 0


@pytest.mark.parametrize("field", ["u", "v"])
def test_run_rejects_non_finite_initial_data(dom63, field):
    """No state with a NaN reaches `run`: its field fails when it is built."""
    values = {"u": 0.1 * mesh.eigenmode(dom63).values, "v": np.zeros(dom63.size)}
    values[field][5] = math.nan
    with pytest.raises(mesh.CorruptFieldError):
        dw.SimState(0.0, dw.GridField(dom63, values["u"]),
                    dw.GridField(dom63, values["v"]))


def _assert_rows_equal(batch, solo):
    """One `run_many` row against `run` on that row alone, bit for bit."""
    if isinstance(solo, solver.StepFailure):
        assert isinstance(batch, solver.StepFailure)
        assert str(batch) == str(solo)
        return
    (series, outcome), (want_series, want_outcome) = batch, solo
    assert outcome == want_outcome
    assert len(series) == len(want_series)
    for name in COLUMNS:
        assert series.col(name).tobytes() == want_series.col(name).tobytes()


def _solo(state, params, cfg, horizon, monitors):
    try:
        return dw.run(state, params, cfg, horizon, monitors)
    except solver.StepFailure as failure:
        return failure


def _per_step_reference(state, params, cfg, horizon, monitors):
    """One trajectory stepped by hand, every diagnostic evaluated at its own
    step: what `run` returns for it, or the StepFailure that ends it.  A step
    fails when `advance` says so or when it leaves a NaN or Inf in u or v."""
    dom = state.u.domain
    stepper = dw.Stepper(dom, [params], cfg)
    a, w, p, dt = stepper.a, dom.weight, params.p, cfg.dt
    n_steps = solver.step_count(horizon, dt)
    stride = 1 if dom.size <= solver.SAMPLE_EVERY_STEP_MAX_NODES else 10
    t, u, v = state.t, state.u.values[None], state.v.values[None]
    series, drift, solves = TimeSeries(), 0.0, 0
    ring = np.zeros((solver.HISTORY, 1, dom.size))

    def sample(terms):
        E, I, J, kinetic, grad_sq, lp_p, l2_v = terms
        ell = E + monitors.epsilon * (w * float(np.vdot(v, u)))
        if params.omega > 0:
            ell += 0.5 * monitors.epsilon * params.omega * grad_sq
        series.append(t, E, I, J, ell, kinetic, grad_sq, lp_p, l2_v,
                      max(w * float(np.vdot(v, a(v))), 0.0))

    def outcome(kind, details="", est=None):
        return series, dw.RunOutcome(kind=kind, T=t, details=details,
                                     t_max_estimate=est, energy_drift=drift,
                                     linear_solves=solves)

    au = a(u)
    (terms,) = energy_terms(u, au, v, w, p)
    e_prev = terms[0]
    grad_cap = (2.0 * p / (p - 2.0)) * e_prev * (1.0 + 1e-6)
    energy_tol = solver.ENERGY_TOL_COEFF * dt**3 * max(1.0, abs(e_prev))
    sample(terms)
    for k in range(1, n_steps + 1):
        (u1, v1), stats = stepper.advance(u, v, au, solver.start_guess(ring, k - 1))
        ring[(k - 1) % solver.HISTORY] = stats.vm
        (failure,) = stats.failures
        if failure is None and not (np.isfinite(u1).all() and np.isfinite(v1).all()):
            failure = "step produced non-finite values"
        if failure is not None:
            est = dw.detect_blowup(series, step_failed=True)
            return solver.StepFailure(failure) if est is None else outcome(
                "blew_up", failure, est)
        (diss,) = stepper.dissipation(stats.vm)
        t, u, v, solves = t + dt, u1, v1, solves + stats.picard_iters
        au = a(u)
        (terms,) = energy_terms(u, au, v, w, p)
        E, I, _, _, grad_sq, lp_p, l2_v = terms
        drift += abs(E - e_prev - dt * diss)
        if k % stride == 0 or k == n_steps:
            sample(terms)
            if monitors.nehari_invariance and I < -scale_invariant_tol(grad_sq, lp_p):
                return outcome("monitor_violation",
                               f"Nehari invariance lost: I={I} at t={t}")
            if monitors.grad_bound and grad_sq > grad_cap:
                return outcome("monitor_violation",
                               f"gradient bound exceeded: {grad_sq} > {grad_cap}")
            if monitors.energy_monotone and E > e_prev + energy_tol:
                return outcome("monitor_violation",
                               f"energy increased beyond tolerance at t={t}")
            norm = math.sqrt(grad_sq) + math.sqrt(l2_v)
            if norm > solver.BLOWUP_NORM_THRESHOLD:
                return outcome("blew_up", f"divergence norm {norm:.3e} crossed threshold",
                               dw.detect_blowup(series))
        e_prev = E
    return outcome("completed")


# domain, p, dt, steps, and per row: (omega, mu), u0 as a multiple of the
# first eigenmode, v0 as (multiple, eigenmode), the monitors armed (Nehari,
# gradient bound, energy monotone), and how and at which step the row ends
# (a StepFailure carries no time, so its step is not checked)
BLOCK_CASES = {
    "interval": (dw.interval(1.0, 63), 4.0, 5e-4, 97, [
        ((0.0, 1.0), 2000.0, (0.0, (1,)), "", ("StepFailure", "non-finite", 1)),
        ((0.0, 1.0), 320.0, (0.0, (1,)), "", ("blew_up", "crossed threshold", 10)),
        ((0.1, 1.0), 160.0, (0.0, (1,)), "", ("blew_up", "non-finite", 21)),
        ((0.0, 1.0), 0.0, (320.0, (1,)), "n", ("monitor_violation", "Nehari", 23)),
        ((0.1, 1.0), 0.5, (0.3, (1,)), "nge", ("completed", "", 97)),
    ]),
    "interval-p6": (dw.interval(1.0, 31), 6.0, 1e-2, 41, [
        ((0.0, 1e-3), 0.0, (50.0, (5,)), "nge", ("monitor_violation", "energy", 16)),
        ((0.0, 1.0), 0.5, (12.0, (1,)), "g", ("monitor_violation", "gradient", 30)),
        ((1.0, 0.0), 0.3, (0.3, (3,)), "nge", ("completed", "", 41)),
        ((0.1, 1.0), 0.5, (0.3, (1,)), "nge", ("completed", "", 41)),
    ]),
    # 345 nodes: sampled every 10th step, and at the last, step 73
    "rectangle": (dw.rectangle((1.5, 1.0), (23, 15)), 3.0, 2e-3, 73, [
        ((0.0, 1.0), 3e5, (0.0, (1, 1)), "", ("StepFailure", "non-finite", 1)),
        ((0.0, 1.0), 6400.0, (0.0, (1, 1)), "", ("blew_up", "non-finite", 16)),
        ((0.0, 1.0), 1600.0, (0.0, (1, 1)), "", ("blew_up", "crossed threshold", 30)),
        ((0.0, 1.0), 0.0, (200.0, (1, 1)), "n", ("monitor_violation", "Nehari", 60)),
        ((1.0, 0.5), 1.0, (-0.2, (2, 1)), "nge", ("completed", "", 73)),
        ((0.1, 1.0), 1.0, (0.5, (1, 1)), "nge", ("completed", "", 73)),
    ]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block_values", [0, 1000, 4096, solver.BLOCK_VALUES, 10**9])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_rows_ending_inside_a_block_match_per_step_stepping(case, block_values,
                                                             monkeypatch):
    """Every way a stacked row can end: a failed first step, a failed step
    in N_minus, the threshold, each monitor and the horizon, which is no
    multiple of the block.  Each row equals its solo run and the
    hand-stepped reference bit for bit, from blocks of one step to one block
    for the run; 4096 is a block a third the size of the default.

    At the default BLOCK_VALUES a block of the interval stack of 4, 3 and 2
    rows holds up to 13, 17 and 25 steps, and a failed step folds it early:
    its blocks end at steps 1, 11, 22, 47, 96 and 97.  So the threshold row
    (step 10) and the Nehari row (step 23) end inside blocks and are stepped
    past their endings, as is the interval-p6 energy row (step 16, in the
    block of steps 1 to 25)."""
    dom, p, dt, n_steps, rows = BLOCK_CASES[case]
    cfg, horizon = dw.StepConfig(dt=dt), n_steps * dt
    phi = mesh.eigenmode(dom).values
    params = [dw.ModelParams(omega=om, mu=mu, p=p) for (om, mu), *_ in rows]
    states = [dw.SimState(0.0, dw.GridField(dom, a * phi),
                          dw.GridField(dom, b * mesh.eigenmode(dom, mode).values))
              for _, a, (b, mode), _, _ in rows]
    monitors = [dw.MonitorSet(epsilon=0.1, nehari_invariance="n" in armed,
                              grad_bound="g" in armed, energy_monotone="e" in armed)
                for *_, armed, _ in rows]
    monkeypatch.setattr(solver, "BLOCK_VALUES", block_values)
    batch = dw.run_many(states, params, cfg, horizon, monitors)
    for state, prm, mon, got, row in zip(states, params, monitors, batch, rows):
        want = _per_step_reference(state, prm, cfg, horizon, mon)
        _assert_rows_equal(got, want)
        _assert_rows_equal(_solo(state, prm, cfg, horizon, mon), want)
        kind, words, step = row[-1]
        if kind == "StepFailure":
            assert isinstance(got, solver.StepFailure) and words in str(got)
            continue
        series, outcome = got
        assert outcome.kind == kind and words in outcome.details
        assert round(outcome.T / dt) == step and len(series) > 1


def test_a_step_past_a_rows_ending_cannot_raise(dom63, monkeypatch):
    """A row whose steps after its threshold step return a non-finite u, in
    the same block and with no failure, still ends at the threshold and the
    other row equals its solo run.  A row that reaches such a step fails
    there, and the other row still equals its solo run."""
    dt = 5e-4
    cfg, horizon, phi = dw.StepConfig(dt=dt), 40 * dt, mesh.eigenmode(dom63).values
    params = [dw.ModelParams(omega=0.0, mu=1.0, p=4.0),
              dw.ModelParams(omega=0.1, mu=1.0, p=4.0)]
    states = [dw.SimState.rest(dw.GridField(dom63, 320.0 * phi)),
              dw.SimState(0.0, dw.GridField(dom63, 0.5 * phi),
                          dw.GridField(dom63, 0.3 * phi))]
    monitors = [None, dw.MonitorSet(epsilon=0.1, nehari_invariance=True,
                                    grad_bound=True, energy_monotone=True)]
    solo = [_solo(state, prm, cfg, horizon, mon)
            for state, prm, mon in zip(states, params, monitors)]
    # two rows hold 504 node values a step, so steps 1 to 25 are one block
    assert 10 < solver.BLOCK_VALUES / 504 <= 25
    advance, stacks, corrupt = dw.Stepper.advance, [], [0]

    def corrupting(self, u, *args):
        (u, v), stats = advance(self, u, *args)
        stacks.append(len(u))
        if len(stacks) > 10 and len(u) == 2:  # past the threshold step, 10
            (r,) = corrupt
            u[r] = math.nan
            stats.failures[r] = None
        return (u, v), stats
    monkeypatch.setattr(dw.Stepper, "advance", corrupting)
    blown, calm = dw.run_many(states, params, cfg, horizon, monitors)
    assert stacks[10] == 2  # step 11 was taken past the ending
    (_, outcome), (_, calm_outcome) = blown, calm
    assert outcome.kind == "blew_up" and "crossed threshold" in outcome.details
    assert round(outcome.T / dt) == 10 and calm_outcome.kind == "completed"
    _assert_rows_equal(blown, solo[0])
    _assert_rows_equal(calm, solo[1])

    corrupt[0], stacks[:] = 1, []
    blown, failed = dw.run_many(states, params, cfg, horizon, monitors)
    _assert_rows_equal(blown, solo[0])
    # the calm row reaches step 11 with a NaN u: that step fails, and with its
    # last sample outside N_minus the row ends in the StepFailure
    assert isinstance(failed, solver.StepFailure)
    assert str(failed) == "step produced non-finite values"


def _decaying_run(dom):
    """A 400-step run on `dom` that completes."""
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    state = dw.SimState.rest(dw.GridField(dom, 0.5 * mesh.eigenmode(dom).values))
    _, outcome = dw.run(state, params, dw.StepConfig(dt=5e-3), 400 * 5e-3)
    assert outcome.kind == "completed"


# a step holds u, A u, v and vm: 252 node values on dom63, so a block is 49 steps
STEPS_PER_BLOCK = 49


def _count_stiffness_products(monkeypatch):
    """Record the rows of every stiffness product the solver takes."""
    products = []
    stiffness = mesh.stiffness

    def counted(domain):
        apply = stiffness(domain)

        def product(x):
            products.append(len(x))
            return apply(x)
        return product
    monkeypatch.setattr(mesh, "stiffness", counted)
    return products


def test_a_dense_run_takes_no_stiffness_product_per_step(dom63, monkeypatch):
    """On an interval of up to DENSE_MAX_NODES nodes the step folds A into
    its products with the midpoint inverse: A u, A vm and A v wait for the
    block, and each covers the block's stacked steps."""
    products = _count_stiffness_products(monkeypatch)
    _decaying_run(dom63)
    assert math.ceil(solver.BLOCK_VALUES / (4 * dom63.size)) == STEPS_PER_BLOCK
    # A u and A v at t = 0, then A u, A vm and A v per block
    blocks = math.ceil(400 / STEPS_PER_BLOCK)
    assert len(products) == 2 + 3 * blocks == 29
    assert products[2:5] == [STEPS_PER_BLOCK] * 3


@pytest.mark.parametrize("dom", [dw.interval(1.0, mesh.DENSE_MAX_NODES + 1),
                                 dw.rectangle((1.5, 1.0), (7, 5))])
def test_a_transform_run_takes_one_stiffness_product_per_step(dom, monkeypatch):
    """Where the sine transforms solve, the step takes A u, which also serves
    the block's energies; A vm and A v wait for the block."""
    products = _count_stiffness_products(monkeypatch)
    _decaying_run(dom)
    # A u and A v at t = 0, A u per step, A vm and A v per block
    blocks = math.ceil(400 / math.ceil(solver.BLOCK_VALUES / (4 * dom.size)))
    assert len(products) == 2 + 400 + 2 * blocks


def test_a_run_evaluates_the_energy_once_per_block(dom63, monkeypatch):
    """One energy_terms call at t = 0 and one over each block's stacked steps."""
    rows = []
    energy = solver.energy_terms

    def counted(u, *args):
        rows.append(len(u))
        return energy(u, *args)
    monkeypatch.setattr(solver, "energy_terms", counted)
    _decaying_run(dom63)
    assert len(rows) == 1 + math.ceil(400 / STEPS_PER_BLOCK) == 10
    assert rows == [1] + [STEPS_PER_BLOCK] * 8 + [400 - 8 * STEPS_PER_BLOCK]


def test_stack_rows_must_share_p_and_domain(dom63):
    cfg = dw.StepConfig(dt=1e-2)
    rest = dw.SimState.rest(dw.GridField.zeros(dom63))
    other = dw.SimState.rest(dw.GridField.zeros(dw.interval(1.0, 31)))
    p3, p4 = (dw.ModelParams(omega=0.1, mu=1.0, p=p) for p in (3.0, 4.0))
    with pytest.raises(ValueError, match="share p"):
        dw.run_many([rest, rest], [p3, p4], cfg, 0.1)
    with pytest.raises(ValueError, match="share a domain"):
        dw.run_many([rest, other], [p4, p4], cfg, 0.1)


@pytest.mark.parametrize("horizon, dt", [(1e12, 5e-3), (1e300, 5e-3), (1e300, 1e-10)])
def test_run_many_rejects_a_step_count_past_the_ceiling(dom63, horizon, dt):
    """horizon/dt beyond MAX_STEPS, infinite at 1e300/1e-10, is a ValueError."""
    rest = dw.SimState.rest(dw.GridField.zeros(dom63))
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    with pytest.raises(ValueError, match="ceiling"):
        dw.run_many([rest], [params], dw.StepConfig(dt=dt), horizon)


def test_step_count_allows_the_ceiling_and_takes_at_least_one_step():
    assert solver.step_count(solver.MAX_STEPS * 0.5, 0.5) == solver.MAX_STEPS
    assert solver.step_count(0.1, 1.0) == 1


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_step_count_rejects_a_horizon_that_is_not_positive(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        solver.step_count(horizon, 1e-2)


def test_run_many_needs_params_for_every_state(dom63):
    rest = dw.SimState.rest(dw.GridField.zeros(dom63))
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    with pytest.raises(ValueError, match="one ModelParams"):
        dw.run_many([rest, rest], [params], dw.StepConfig(dt=1e-2), 0.1)


# AC-2's damped (omega, mu)
DAMPINGS = [(0.0, 1.0), (0.1, 1.0), (1.0, 1.0), (0.1, 0.0), (1.0, 0.0)]


@pytest.mark.parametrize("degree, first", [(4, solver.HISTORY), (1, 2)])
def test_the_ring_guess_reproduces_a_polynomial_history(degree, first, rng):
    """The start guess continues a midpoint-velocity history that is a
    polynomial in time to rounding: a quartic one from HISTORY steps on, a
    linear one from two steps on, whichever slot of the ring holds the
    oldest velocity."""
    coef = rng.standard_normal((degree + 1, 2, 63))

    def vm(j):  # the (2, 63) stack of step j, at time j / 8
        return sum(c * (j / 8.0) ** i for i, c in enumerate(coef))
    ring = np.zeros((solver.HISTORY, 2, 63))
    assert solver.start_guess(ring, 0) is None and solver.start_guess(ring, 1) is None
    for k in range(3 * solver.HISTORY):
        if k >= first:
            want = vm(k)
            tol = 32 * np.finfo(float).eps * np.abs(ring).max()
            np.testing.assert_allclose(solver.start_guess(ring, k), want, rtol=0,
                                       atol=tol)
        ring[k % solver.HISTORY] = vm(k)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_stack_rows_equal_their_solo_runs(dom63, k):
    """Each row of a K-row stack equals its solo run bit for bit, series and
    outcome.  The three rows share one damping, so one dense inverse; the
    seven cycle through AC-2's five dampings, two of them twice."""
    cfg, horizon = dw.StepConfig(dt=5e-3), 1.0
    phi = mesh.eigenmode(dom63).values
    dampings = DAMPINGS[1:2] * 3 if k == 3 else (DAMPINGS * 2)[:k]
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0) for om, mu in dampings]
    states = [dw.SimState.rest(dw.GridField(dom63, (0.5 + 0.25 * r) * phi))
              for r in range(k)]
    batch = dw.run_many(states, params, cfg, horizon)
    for state, prm, got in zip(states, params, batch):
        _assert_rows_equal(got, _solo(state, prm, cfg, horizon, None))


def test_rows_leaving_a_stack_keep_their_dense_inverses(dom63):
    """When a row ends, the rows that step on reuse their dense inverses:
    over the whole run each shift's inverse is built once."""
    cfg, phi = dw.StepConfig(dt=5e-4), mesh.eigenmode(dom63).values
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0) for om, mu in DAMPINGS[:3]]
    states = [dw.SimState.rest(dw.GridField(dom63, a * phi)) for a in (320.0, 0.5, 0.5)]
    mesh._dense_inverse.cache_clear()
    blown, *calm = dw.run_many(states, params, cfg, 100 * cfg.dt)
    assert blown[1].kind == "blew_up" and blown[1].T < 100 * cfg.dt
    assert [outcome.kind for _, outcome in calm] == ["completed"] * 2
    info = mesh._dense_inverse.cache_info()
    assert (info.misses, info.hits) == (3, 2)
