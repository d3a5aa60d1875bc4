"""Acceptance criteria, one test per criterion, one printed verdict line each.

The stable-run matrix (p in {3,4} x omega in {0, 0.1, 1} x mu in {0, 1},
minus the undamped point) is integrated once per session and shared by the
invariance, decay, and equivalence criteria.
"""

import math

import numpy as np
import pytest
import scipy.optimize

import dampedwave as dw
from dampedwave import lyapunov, mesh, solver, well

N_MATRIX = 63
DT_MATRIX = 5e-3
HORIZON = 20.0

MATRIX = [(p, om, mu)
          for p in (3.0, 4.0)
          for om in (0.0, 0.1, 1.0)
          for mu in (0.0, 1.0)
          if not (om == 0.0 and mu == 0.0)]


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def domain():
    return dw.interval(1.0, N_MATRIX)


@pytest.fixture(scope="module")
def constants(domain):
    return {p: dw.well_constants(domain, p) for p in (3.0, 4.0)}


@pytest.fixture(scope="module")
def stable_matrix(domain, constants):
    """(p, omega, mu) -> run artifacts for stable(0.5) initial data."""
    results = {}
    for p, om, mu in MATRIX:
        wc = constants[p]
        params = dw.ModelParams(omega=om, mu=mu, p=p)
        u0, u1 = dw.prepare_initial_data(domain, params, wc, ("stable", 0.5))
        state = dw.SimState(0.0, u0, u1)
        e0 = dw.total_energy(state, params).E
        cert = dw.select_constants(e0, params, wc)
        cfg = dw.StepConfig(dt=DT_MATRIX)
        monitors = dw.MonitorSet(wc=wc, epsilon=cert.epsilon)
        series, outcome = dw.run(state, params, cfg, HORIZON, monitors)
        results[(p, om, mu)] = dict(series=series, outcome=outcome, cert=cert,
                                    wc=wc, e0=e0, params=params, cfg=cfg)
    return results


def test_ac1_dissipation_identity():
    """Per-step energy balance vs midpoint-rule dissipation is O(dt^2)."""
    dom = dw.interval(1.0, 127)
    wc = dw.well_constants(dom, 4.0)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(dom, params, wc, ("stable", 0.5))
    drifts = []
    for dt in (1e-3, 5e-4):
        _, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                            dw.StepConfig(dt=dt), 5.0)
        drifts.append(outcome.energy_drift)
    ratio = drifts[0] / drifts[1]
    ok = 3.0 <= ratio <= 5.0
    assert verdict("AC-1", ok, f"drift ratio {ratio:.4f} (target 4 +- 25%)")


def test_ac2_invariance_and_gradient_bound(stable_matrix):
    """I(u(t)) stays above -tol_I and the gradient obeys the energy bound."""
    violations = []
    for key, art in stable_matrix.items():
        p, _, _ = key
        s = art["series"]
        if art["outcome"].kind != "completed":
            violations.append((key, art["outcome"].kind))
            continue
        i_vals = s.col("I")
        tol_i = 1e-9 * np.maximum(s.col("grad_sq"), s.col("lp_p"))
        if np.any(i_vals <= -tol_i):
            violations.append((key, "I crossed"))
        cap = (2 * p / (p - 2)) * art["e0"] * (1 + 1e-6)
        if np.any(s.col("grad_sq") > cap):
            violations.append((key, "grad bound"))
    ok = not violations
    assert verdict("AC-2", ok, f"{len(stable_matrix)} runs, violations: {violations}")


def linear_energy_rate(lam: float, params: dw.ModelParams) -> float:
    """-2 max Re s over the roots s of s^2 + (omega lam + mu) s + lam = 0: the
    energy decay rate of the linear mode of stiffness eigenvalue lam."""
    roots = np.roots([1.0, params.omega * lam + params.mu, lam])
    return -2.0 * float(roots.real.max())


def test_ac3_exponential_decay(stable_matrix, domain):
    """Certified decay holds, with the report's tolerance and with none; the
    fitted rate dominates the certified one and lies within 5% of the linear
    energy rate of the data's mode (the first: stable data are a multiple
    of the first eigenmode)."""
    lam1 = mesh.eigenvalue(domain)
    failures = []
    for key, art in stable_matrix.items():
        cfg = art["cfg"]
        tol_cert = 10.0 * cfg.dt**2
        done = dw.certify_decay(art["series"], art["cert"], tol_cert)
        exact = dw.certify_decay(art["series"], art["cert"], 0.0)
        e = art["series"].col("E")
        t = art["series"].col("t")
        tail_cap = math.exp(-done.xi * t[-1]) * (1 + tol_cert * t[-1] / cfg.dt)
        linear = linear_energy_rate(lam1, art["params"])
        checks = {
            "violated": done.violated_at is None,
            "violated at tol 0": exact.violated_at is None,
            "rate": done.xi_fitted >= done.xi,
            "linear rate": abs(done.xi_fitted / linear - 1.0) <= 0.05,
            "r2": done.fit_r2 >= 0.98,
            "tail": e[-1] / e[0] <= tail_cap,
        }
        if not all(checks.values()):
            failures.append((key, [k for k, v in checks.items() if not v]))
    ok = not failures
    assert verdict("AC-3", ok, f"failures: {failures}")


def test_ac4_linear_mode_oracle(source_free_stepper):
    """Source-free eigenmode run matches the damped-oscillator closed form."""
    dom = dw.interval(1.0, N_MATRIX)
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
    lam = mesh.eigenvalue(dom)
    s1, s2 = np.roots([1.0, params.omega * lam + params.mu, lam])
    phi = mesh.eigenmode(dom)

    def exact(t):
        c1, c2 = -s2 / (s1 - s2), s1 / (s1 - s2)
        return float((c1 * np.exp(s1 * t) + c2 * np.exp(s2 * t)).real)

    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = dw.StepConfig(dt=dt)
        t, u, v = 0.0, phi.values[None], np.zeros((1, dom.size))
        stepper = source_free_stepper(dom, [params], cfg)
        for _ in range(int(round(1.0 / dt))):
            (u, v), _ = stepper.advance(u, v, stepper.a(u))
            t += dt
        errs.append(np.max(np.abs(u[0] - exact(t) * phi.values)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # decay rate through the slow-mode complex amplitude |c' - s2 c|
    cfg = dw.StepConfig(dt=1e-3)
    t, u, v = 0.0, phi.values[None], np.zeros((1, dom.size))
    stepper = source_free_stepper(dom, [params], cfg)
    norm2 = float(phi.values @ phi.values)
    ts, zs = [], []
    for _ in range(int(round(6.0 / cfg.dt))):
        (u, v), _ = stepper.advance(u, v, stepper.a(u))
        t += cfg.dt
        c = float(u[0] @ phi.values) / norm2
        cd = float(v[0] @ phi.values) / norm2
        ts.append(t)
        zs.append(abs(cd - s2 * c))
    rate, _ = lyapunov.fit_exponential_rate(np.array(ts), np.array(zs))
    target = -max(s1.real, s2.real)
    rate_err = abs(rate - target) / target

    ok = all(1.8 <= o <= 2.2 for o in orders) and rate_err <= 0.02
    assert verdict("AC-4", ok,
                   f"orders {['%.3f' % o for o in orders]}, "
                   f"rate {rate:.6f} vs {target:.6f} ({rate_err:.2e})")


AC5_DTS = (1e-3, 5e-4)


@pytest.fixture(scope="module")
def ac5_runs(domain, constants):
    """dt -> the AC-5 run, unstable(0.9) data with omega = 0, mu = 1 and
    p = 4 to horizon 50, as (series, outcome, stats), where stats holds the
    StepStats of each step the run kept, in order."""
    wc = constants[4.0]
    params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
    u0, u1 = dw.prepare_initial_data(domain, params, wc, ("unstable", 0.9))
    advance = dw.Stepper.advance
    runs = {}
    for dt in AC5_DTS:
        stats = []

        def recorded(self, *args):
            step = advance(self, *args)
            stats.append(step[1])
            return step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dw.Stepper, "advance", recorded)
            series, outcome = dw.run(dw.SimState(0.0, u0, u1), params,
                                     dw.StepConfig(dt=dt), 50.0)
        runs[dt] = series, outcome, stats[:round(outcome.T / dt)]
    return runs


def test_ac5_blowup_alternative(ac5_runs, constants):
    """Unstable(0.9) data diverges with a finite blow-up time estimate."""
    wc = constants[4.0]
    series, outcome, _ = ac5_runs[1e-3]
    grad = np.sqrt(series.col("grad_sq"))
    checks = {
        "blew_up": outcome.kind == "blew_up",
        "finite_estimate": outcome.t_max_estimate is not None
                           and math.isfinite(outcome.t_max_estimate),
        "grad_past_100beta": bool((grad > 100 * wc.beta).any()),
    }
    ok = all(checks.values())
    assert verdict("AC-5", ok,
                   f"{outcome.kind}, t_max~{outcome.t_max_estimate}, "
                   f"max grad {grad.max():.3e} vs 100*beta {100 * wc.beta:.3e}")


def test_ac5_t_max_converges_in_dt(ac5_runs):
    """The AC-5 blow-up time estimate agrees within 0.5% when dt is halved."""
    estimates = []
    for dt in AC5_DTS:
        _, outcome, _ = ac5_runs[dt]
        assert outcome.kind == "blew_up"
        estimates.append(outcome.t_max_estimate)
    gap = abs(estimates[0] - estimates[1]) / estimates[1]
    assert verdict("AC-5 dt-convergence", gap <= 5e-3,
                   f"t_max~{estimates[0]:.6f} (dt=1e-3), {estimates[1]:.6f} "
                   f"(dt=5e-4), gap {gap:.2e}")


def test_ac5_every_step_ends_on_the_banach_bound(ac5_runs):
    """Every step the AC-5 runs keep is certified: the contraction bound,
    not the test on the change alone, ended its Picard iteration."""
    counts, ok = [], True
    for dt in AC5_DTS:
        _, _, stats = ac5_runs[dt]
        uncertified = sum(not math.isfinite(step.contraction[0]) for step in stats)
        ok = ok and len(stats) > 0 and uncertified == 0
        counts.append(f"{uncertified}/{len(stats)} steps uncertified (dt={dt:g})")
    assert verdict("AC-5 certified steps", ok, ", ".join(counts))


def test_ac6_variational_constants(lbfgs_c_star):
    """C* is resolution-consistent, oracle-consistent, and ties to d, beta."""
    p = 4.0
    c127, _ = dw.compute_c_star(dw.interval(1.0, 127), p)
    dom = dw.interval(1.0, 255)
    c255, minimizer = dw.compute_c_star(dom, p)

    # independent multi-start oracle on the scale-invariant Rayleigh ratio
    rng = np.random.default_rng(123)
    oracle = lbfgs_c_star(dom, p, [rng.standard_normal(dom.size)
                                   for _ in range(50)])

    wc = well.WellConstants(c_star=c255, p=p, lambda1=mesh.eigenvalue(dom))
    identity_d = abs(wc.d - (p - 2) / (2 * p) * c255 ** (-2 * p / (p - 2)))
    identity_beta = abs(wc.beta**2 - 2 * wc.d * p / (p - 2))

    params = dw.ModelParams(omega=1.0, mu=1.0, p=p)
    proj_ok = True
    for _ in range(200):
        u = dw.GridField(dom, rng.standard_normal(dom.size))
        lam = dw.nehari_scale(u, p)
        proj = dw.SimState.rest(dw.GridField(dom, lam * u.values))
        j = dw.total_energy(proj, params).J
        if j < wc.d * (1 - 1e-9):
            proj_ok = False
            break

    checks = {
        "richardson": abs(c127 - c255) <= 1e-3,
        "oracle": abs(oracle - c255) <= 1e-6,
        "identities": identity_d <= 1e-14 * wc.d and identity_beta <= 1e-13 * wc.beta**2,
        "nehari_min": proj_ok,
    }
    ok = all(checks.values())
    assert verdict("AC-6", ok,
                   f"|c127-c255|={abs(c127 - c255):.2e}, "
                   f"|oracle-c255|={abs(oracle - c255):.2e}, checks={checks}")


def test_ac7_admissibility_equivalence(domain, constants, rng):
    """The smallness condition agrees with E(0) < d outside the dead band."""
    wc = constants[4.0]
    params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
    agreements = 0
    tested = 0
    while tested < 100:
        shape = rng.standard_normal(domain.size)
        u = dw.GridField(domain, shape)
        target_e = rng.uniform(0.05, 2.0) * wc.d
        g = mesh.grad_norm_sq(u)
        pw = mesh.lp_norm_p(u, 4.0)
        lam_star = (g / pw) ** 0.5

        def j_of(s, g=g, pw=pw):
            return 0.5 * s * s * g - 0.25 * s**4 * pw

        if j_of(lam_star) <= target_e:
            continue  # rising branch cannot reach this level; new shape
        s = scipy.optimize.brentq(lambda s: j_of(s) - target_e, 0.0, lam_star)
        state = dw.SimState.rest(dw.GridField(domain, s * shape))
        e = dw.total_energy(state, params).E
        if abs(e - wc.d) <= 1e-9 * wc.d:
            continue
        tested += 1
        cls = dw.classify(state, params, wc)
        if cls.smallness_holds == (e < wc.d):
            agreements += 1
    ok = agreements == tested == 100
    assert verdict("AC-7", ok, f"{agreements}/{tested} agree")


def test_ac8_omega_zero_path(stable_matrix):
    """The reduced Lyapunov function certifies the omega = 0 runs."""
    failures = []
    for p in (3.0, 4.0):
        art = stable_matrix[(p, 0.0, 1.0)]
        tol_cert = 10.0 * art["cfg"].dt**2
        done = dw.certify_decay(art["series"], art["cert"], tol_cert)
        # omega = 0: L carries no gradient term, so beta2 has no omega part
        expected_b2 = 1.0 + art["cert"].epsilon * max(
            1.0, (p / (p - 2)) / art["wc"].lambda1)
        checks = {
            "violated": done.violated_at is None,
            "rate": done.xi_fitted >= done.xi,
            "r2": done.fit_r2 >= 0.98,
            "beta2_reduced": art["cert"].beta2 == pytest.approx(expected_b2),
        }
        if not all(checks.values()):
            failures.append((p, [k for k, v in checks.items() if not v]))
    ok = not failures
    assert verdict("AC-8", ok, f"failures: {failures}")


def test_ac9_equivalence_on_trajectories(stable_matrix):
    """beta1 E <= L <= beta2 E at every stable-run sample."""
    failures = []
    for key, art in stable_matrix.items():
        report = dw.equivalence_check(art["series"], art["cert"], rtol=1e-12)
        if not report.passed:
            failures.append((key, report.n_violations))
    ok = not failures
    assert verdict("AC-9", ok, f"failures: {failures}")
