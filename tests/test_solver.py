import math

import numpy as np
import pytest
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


def _stub_solve(stepper, outputs):
    """Replace the stepper's linear solve by one returning `outputs` in turn."""
    calls = []

    def solve(rhs):
        calls.append(rhs)
        return outputs[(len(calls) - 1) % len(outputs)].copy().reshape(rhs.shape)
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
    (u_new, v_new), stats = stepper.advance(u, v, np.zeros_like(u))
    assert stats.failures == [f"Picard stalled after {solver.PICARD_MAX} iterations"]
    assert len(calls) == solver.PICARD_MAX == stats.row_iters[0]
    assert u_new.tobytes() == u.tobytes() and v_new.tobytes() == v.tobytes()


def _midpoint_map(stepper, u, v, au):
    """The step's exact Picard map vm -> S^-1 (2v - dt Au + dt f(u + dt vm/2))."""
    dt = stepper.cfg.dt
    base = 2.0 * v - dt * au
    return lambda vm: stepper._solve(base + dt * stepper._nonlinear(u + 0.5 * dt * vm))


@pytest.mark.parametrize("dom", [dw.interval(1.0, 63),
                                 dw.rectangle((1.5, 1.0), (47, 31))])
@pytest.mark.parametrize("rows", [
    [((0.1, 1.0), 20.0, 0.0)],
    [((0.1, 1.0), 2.0, 0.5), ((0.0, 1.0), 25.0, -3.0), ((1.0, 0.5), 10.0, 1.0)],
])
def test_picard_stop_is_within_tolerance_of_the_fixed_point(dom, rows):
    """The returned midpoint velocity is PICARD_TOL-close to the step's fixed point."""
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
        step_map, fixed = _midpoint_map(stepper, u, v, au), vm
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


def test_contraction_bound_saves_a_solve_per_step(dom63, wc63_p4):
    """Against the test on the change alone, from the same states, over 200 steps."""
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom63, params, wc63_p4, ("stable", 0.5))
    stepper = dw.Stepper(dom63, [params], dw.StepConfig(dt=5e-3))
    u, v = u0.values[None], u1.values[None]
    solves = old_solves = 0
    for _ in range(200):
        au = stepper.a(u)
        step_map, vm = _midpoint_map(stepper, u, v, au), v
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
        states, history = [initial], []
        for _ in range(n_steps):
            prev = states[-1]
            u = prev.u.values[None]
            (u, v), stats = stepper.advance(u, prev.v.values[None], stepper.a(u),
                                            solver.start_guess(history))
            history.append(stats.vm)
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
def test_any_start_guess_keeps_the_picard_tolerance(rows, amp, p):
    """From any guess, a row that converges from v converges, within
    PICARD_TOL of the step's fixed point wherever the contraction bound ended
    it, and rounds in a stack as it does alone.

    Amplitudes up to 60 reach contraction constants near 1/2, where a guess
    far from vm can fail and the row falls back to v;
    `test_a_failed_guess_falls_back_to_v` and
    `test_a_stalled_guess_falls_back_to_v` check those paths directly."""
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
        assert stats.failures[0] is None
        if stats.contraction[0] < math.inf:
            step_map, fixed = _midpoint_map(stepper, u, v, au), stats.vm
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


def test_a_failed_guess_falls_back_to_v(dom63):
    """A row whose guess turns non-finite steps from v, charged the solve it
    spent on the guess; the other row keeps its guess."""
    params = [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)] * 2
    stepper = dw.Stepper(dom63, params, dw.StepConfig(dt=5e-3))
    u = np.array([0.5, 2.0])[:, None] * mesh.eigenmode(dom63).values
    v = np.zeros_like(u)
    au = stepper.a(u)
    (u_v, v_v), plain = stepper.advance(u, v, au)
    guess = plain.vm.copy()
    guess[0, 7] = math.inf
    (u_g, v_g), stats = stepper.advance(u, v, au, guess)
    assert u_g[0].tobytes() == u_v[0].tobytes() and v_g[0].tobytes() == v_v[0].tobytes()
    assert stats.row_iters[0] == plain.row_iters[0] + 1
    assert stats.row_iters[1] == 1 < plain.row_iters[1]  # certified by its first solve


def test_a_stalled_guess_falls_back_to_v(dom63):
    """A row whose guess stalls for PICARD_MAX solves starts again from v and
    converges there, charged every solve it spent."""
    stepper = dw.Stepper(dom63, [dw.ModelParams(omega=0.1, mu=1.0, p=4.0)],
                         dw.StepConfig(dt=1e-2))
    stall = [np.full(dom63.size, (-1.0) ** k * 1e308) for k in range(solver.PICARD_MAX)]
    fixed = np.full(dom63.size, 0.125)
    calls = _stub_solve(stepper, stall + [fixed] * 3)
    u, v = np.full((1, dom63.size), 0.5), np.full((1, dom63.size), -0.25)
    (u_new, v_new), stats = stepper.advance(u, v, np.zeros_like(u), np.full_like(v, 3.0))
    assert stats.failures == [None]
    assert len(calls) == solver.PICARD_MAX + 2 == stats.row_iters[0]
    assert stats.vm.tobytes() == fixed[None].tobytes()
    assert v_new.tobytes() == (2.0 * fixed - v).tobytes()


def test_one_advance_ends_each_row_as_its_solo_step(dom63):
    """In one pass, a row that converges from its guess, a row whose guess
    turns non-finite and a row that fails from v each end as they do alone.

    The middle row rests, so from v its first solve passes the contraction
    bound, which it does only if the fallback restarts its |vm|_inf too."""
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    cfg = dw.StepConfig(dt=5e-3)
    solo_stepper = dw.Stepper(dom63, [params], cfg)
    a = solo_stepper.a
    u = np.array([0.5, 0.0, 1e3])[:, None] * mesh.eigenmode(dom63).values
    v = 0.1 * u
    stepper = dw.Stepper(dom63, [params] * 3, cfg)
    _, plain = stepper.advance(u, v, a(u))
    guess = plain.vm.copy()
    guess[1, 7] = math.inf
    guess[2] = v[2]
    (u1, v1), stats = stepper.advance(u, v, a(u), guess)
    assert stats.failures[:2] == [None, None] and stats.failures[2] is not None
    assert stats.row_iters[:2] == [1, plain.row_iters[1] + 1] == [1, 2]
    assert stats.contraction[1] == plain.contraction[1] < math.inf
    assert u1[2].tobytes() == u[2].tobytes() and v1[2].tobytes() == v[2].tobytes()
    for r in range(3):
        ur = u[r:r + 1]
        (ur, vr), solo = solo_stepper.advance(ur, v[r:r + 1], a(ur), guess[r:r + 1])
        assert ur.tobytes() == u1[r].tobytes() and vr.tobytes() == v1[r].tobytes()
        assert solo.vm.tobytes() == stats.vm[r].tobytes()
        assert solo.row_iters == [stats.row_iters[r]]
        assert solo.failures == [stats.failures[r]]


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


@pytest.mark.parametrize("field", ["u", "v"])
def test_run_rejects_non_finite_initial_data(dom63, field):
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    values = {"u": 0.1 * mesh.eigenmode(dom63).values, "v": np.zeros(dom63.size)}
    values[field][5] = math.nan
    state = dw.SimState(0.0, dw.GridField(dom63, values["u"]),
                        dw.GridField(dom63, values["v"]))
    with pytest.raises(mesh.CorruptFieldError):
        dw.run(state, params, dw.StepConfig(dt=1e-2), 0.1)


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


def test_stack_rows_equal_their_solo_runs(dom63, wc63_p4):
    """Rows leave by step failure, by a monitor and at the horizon; all match."""
    cfg = dw.StepConfig(dt=4e-3)
    eps = 0.05
    armed = dw.MonitorSet(wc=wc63_p4, epsilon=eps, nehari_invariance=True,
                          grad_bound=True, energy_monotone=True)
    rows = [  # (omega, mu), initial data, monitors
        ((0.1, 1.0), ("stable", 0.5), armed),
        ((0.0, 0.5), ("stable", 0.9), armed),
        ((0.0, 1.0), ("unstable", 0.9), None),
        ((0.1, 1.0), ("unstable", 0.5), armed),
        ((1.0, 0.0), ("stable", 0.3), dw.MonitorSet(epsilon=eps)),
        ((0.1, 0.5), ("unstable", 0.7), None),
    ]
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0) for (om, mu), _, _ in rows]
    states = []
    for prm, (_, target, _) in zip(params, rows):
        u0, u1 = dw.prepare_initial_data(dom63, prm, wc63_p4, target)
        states.append(dw.SimState(0.0, u0, u1))
    # give two rows a velocity so that the first step's Picard counts differ
    for k in (1, 4):
        v0 = states[k].u.values + 0.3 * mesh.eigenmode(dom63, (3,)).values
        states[k] = dw.SimState(0.0, states[k].u, dw.GridField(dom63, v0))
    monitors = [mon for _, _, mon in rows]

    u = np.array([s.u.values for s in states])
    v = np.array([s.v.values for s in states])
    a = mesh.stiffness(dom63)
    stepper = dw.Stepper(dom63, params, cfg)
    (u1, v1), stats = stepper.advance(u, v, a(u))
    diss = stepper.dissipation(stats.vm)
    iters = []
    for k, (state, prm) in enumerate(zip(states, params)):
        uk = state.u.values[None]
        solo_stepper = dw.Stepper(dom63, [prm], cfg)
        (uk, vk), solo = solo_stepper.advance(uk, state.v.values[None], a(uk))
        assert uk.tobytes() == u1[k].tobytes() and vk.tobytes() == v1[k].tobytes()
        assert solo_stepper.dissipation(solo.vm) == [diss[k]]
        iters.append(solo.picard_iters)
    assert len(set(iters)) > 1
    assert stats.picard_iters == sum(iters)

    batch = dw.run_many(states, params, cfg, 1.0, monitors)
    kinds = set()
    for state, prm, mon, got in zip(states, params, monitors, batch):
        _assert_rows_equal(got, _solo(state, prm, cfg, 1.0, mon))
        kinds.add(got[1].kind)
    assert kinds == {"completed", "blew_up", "monitor_violation"}
    assert "non-finite" in batch[2][1].details  # left by a failed step


def test_rectangle_stack_rows_equal_their_solo_runs():
    dom = dw.rectangle((1.5, 1.0), (23, 15))
    cfg = dw.StepConfig(dt=5e-3)
    phi, psi = mesh.eigenmode(dom).values, mesh.eigenmode(dom, (2, 1)).values
    rows = [((0.1, 1.0), 0.5, 0.0), ((0.0, 1.0), 2.0, 0.3), ((1.0, 0.5), 1.0, -0.2),
            ((0.0, 0.1), 10.0, 0.0), ((0.0, 0.1), 30.0, 0.0), ((0.0, 0.1), 60.0, 0.0)]
    params = [dw.ModelParams(omega=om, mu=mu, p=4.0) for (om, mu), _, _ in rows]
    states = [dw.SimState(0.0, dw.GridField(dom, a * phi), dw.GridField(dom, b * psi))
              for _, a, b in rows]
    monitors = [dw.MonitorSet(epsilon=0.1)] * len(rows)
    batch = dw.run_many(states, params, cfg, 0.3, monitors)
    for state, prm, mon, got in zip(states, params, monitors, batch):
        _assert_rows_equal(got, _solo(state, prm, cfg, 0.3, mon))
    # the last row fails its first step, before any growth shows
    assert isinstance(batch[-1], solver.StepFailure)
    assert {got[1].kind for got in batch[:-1]} == {"completed", "blew_up"}


def _per_step_reference(state, params, cfg, horizon, monitors):
    """One trajectory stepped by hand, every diagnostic evaluated at its own
    step: what `run` returns for it, or the StepFailure that ends it."""
    dom = state.u.domain
    stepper = dw.Stepper(dom, [params], cfg)
    a, w, p, dt = stepper.a, dom.weight, params.p, cfg.dt
    n_steps = solver.step_count(horizon, dt)
    stride = 1 if dom.size <= solver.SAMPLE_EVERY_STEP_MAX_NODES else 10
    t, u, v = state.t, state.u.values[None], state.v.values[None]
    series, drift, solves, history = TimeSeries(), 0.0, 0, []

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
        (u1, v1), stats = stepper.advance(u, v, au, solver.start_guess(history))
        history.append(stats.vm)
        (failure,) = stats.failures
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


# domain, p, dt, steps, and per row: (omega, mu), u0 and v0 as multiples of
# the first eigenmode, whether the Nehari monitor is armed, and how it ends
BLOCK_CASES = {
    "interval": (dw.interval(1.0, 63), 4.0, 5e-4, 97, [
        ((0.0, 1.0), 2000.0, 0.0, False, "StepFailure"),  # at step 1
        ((0.0, 1.0), 320.0, 0.0, False, "crossed threshold"),  # at step 10
        ((0.1, 1.0), 160.0, 0.0, False, "non-finite"),  # at step 21
        ((0.0, 1.0), 0.0, 320.0, True, "Nehari"),  # at step 23
        ((0.1, 1.0), 0.5, 0.3, True, "completed"),
    ]),
    # 345 nodes: sampled every 10th step, and at the last, step 73
    "rectangle": (dw.rectangle((1.5, 1.0), (23, 15)), 3.0, 2e-3, 73, [
        ((0.0, 1.0), 6400.0, 0.0, False, "non-finite"),  # at step 16
        ((0.0, 1.0), 1600.0, 0.0, False, "crossed threshold"),  # at step 30
        ((0.0, 1.0), 0.0, 200.0, True, "Nehari"),  # at step 60
        ((0.1, 1.0), 1.0, 0.5, True, "completed"),
    ]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block_values", [0, 1000, solver.BLOCK_VALUES, 10**9])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_rows_ending_inside_a_block_match_per_step_stepping(case, block_values,
                                                             monkeypatch):
    """Rows that end by a failed step, by the threshold and by a monitor
    inside a block of deferred diagnostics, at a horizon that is no multiple
    of the block: each row equals its solo run and the hand-stepped
    reference bit for bit, from blocks of one step to one block for the run.

    At the default BLOCK_VALUES the interval stack of 5, 4, 3 and 2 rows
    folds every 5, 6, 8 and 11 steps, so its endings after step 1 fall
    inside blocks."""
    dom, p, dt, n_steps, rows = BLOCK_CASES[case]
    cfg, horizon = dw.StepConfig(dt=dt), n_steps * dt
    phi = mesh.eigenmode(dom).values
    params = [dw.ModelParams(omega=om, mu=mu, p=p) for (om, mu), *_ in rows]
    states = [dw.SimState(0.0, dw.GridField(dom, a * phi), dw.GridField(dom, b * phi))
              for _, a, b, _, _ in rows]
    monitors = [dw.MonitorSet(epsilon=0.1, nehari_invariance=armed)
                for _, _, _, armed, _ in rows]
    monkeypatch.setattr(solver, "BLOCK_VALUES", block_values)
    batch = dw.run_many(states, params, cfg, horizon, monitors)
    for state, prm, mon, got, (*_, ending) in zip(states, params, monitors, batch, rows):
        want = _per_step_reference(state, prm, cfg, horizon, mon)
        _assert_rows_equal(got, want)
        _assert_rows_equal(_solo(state, prm, cfg, horizon, mon), want)
        if ending == "StepFailure":
            assert isinstance(got, solver.StepFailure)
        elif ending == "completed":
            assert got[1].kind == "completed" and len(got[0]) > 1
        else:
            assert ending in got[1].details


def test_a_run_takes_about_one_stiffness_product_per_step(dom63, monkeypatch):
    """A @ u is the one product per step; A vm and A v wait for the block."""
    products = []
    stiffness = mesh.stiffness

    def counted(domain):
        apply = stiffness(domain)

        def product(x):
            products.append(len(x))
            return apply(x)
        return product
    monkeypatch.setattr(mesh, "stiffness", counted)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    state = dw.SimState.rest(dw.GridField(dom63, 0.5 * mesh.eigenmode(dom63).values))
    _, outcome = dw.run(state, params, dw.StepConfig(dt=5e-3), 400 * 5e-3)
    assert outcome.kind == "completed"
    # a step holds vm, u and v: 189 node values, so a block is 22 steps
    per_block = math.ceil(solver.BLOCK_VALUES / (3 * dom63.size))
    assert per_block == 22
    # A u and A v at t = 0, A u per step, A vm and A v per block
    assert len(products) == 2 + 400 + 2 * math.ceil(400 / per_block) == 440


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
