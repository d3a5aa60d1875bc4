"""Implicit-midpoint time integration with runtime monitors.

All stiff linear terms (stiffness, strong damping, friction) are implicit;
the nonlinear source is evaluated at the midpoint by Picard iteration.  For
quadratic energies the scheme's per-step energy balance against the
dissipation identity is exact, so the measured residual isolates the
nonlinear quadrature error, which is third order per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import mesh
from .functionals import ModelParams, SimState, energy_terms
from .mesh import GridField
from .series import TimeSeries
from .well import WellConstants, scale_invariant_tol

SAMPLE_EVERY_STEP_MAX_NODES = 255  # above this, sample every 10th step
ENERGY_TOL_COEFF = 100.0  # monotone-energy allowance: coeff * dt^3 * max(1, E0)
BLOWUP_NORM_THRESHOLD = 1e6  # ||grad u|| + ||u_t|| at which a run has blown up
GROWTH_WINDOW = 10  # samples over which a failed step must show growth
FIT_SAMPLES = 30  # trailing samples in the pole fit of T_max
PICARD_TOL = 1e-12  # relative max-norm change of the midpoint velocity
PICARD_MAX = 50  # Picard iterations before a step fails


class StepFailure(RuntimeError):
    """Picard iteration did not converge within the allowed iterations."""

    def __init__(self, message: str, state: SimState):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class StepConfig:
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class StepStats:
    picard_iters: int
    midpoint_dissipation: float  # dissipation identity evaluated at the midpoint


@dataclass
class MonitorSet:
    """Runtime assertions armed for stable-set runs; all off by default."""

    wc: WellConstants | None = None
    epsilon: float = 0.0  # Lyapunov perturbation recorded in the L column
    nehari_invariance: bool = False   # I(u(t)) > -tol_I
    grad_bound: bool = False          # ||grad u||^2 <= 2p/(p-2) E(0)
    energy_monotone: bool = False


@dataclass(frozen=True)
class RunOutcome:
    kind: str  # "completed" | "blew_up" | "monitor_violation"
    T: float
    t_max_estimate: float | None = None
    details: str = ""
    energy_drift: float = 0.0  # summed |dE - midpoint dissipation| over all steps


class Stepper:
    """Holds the exact midpoint solve (2 + dt mu) I + (dt^2/2 + dt omega) A."""

    def __init__(self, domain: mesh.Domain, params: ModelParams, cfg: StepConfig):
        self.domain = domain
        self.params = params
        self.cfg = cfg
        self.a = mesh.stiffness_matrix(domain)
        self.w = domain.weight
        dt = cfg.dt
        self._solve = mesh.shifted_solver(domain, 2.0 + dt * params.mu,
                                          0.5 * dt * dt + dt * params.omega)

    def _nonlinear(self, um: np.ndarray) -> np.ndarray:
        return um * np.abs(um) ** (self.params.p - 2.0)

    def advance(self, state: SimState) -> tuple[SimState, StepStats]:
        dt = self.cfg.dt
        u, v = state.u.values, state.v.values
        base = 2.0 * v - dt * (self.a @ u)
        vm = v.copy()
        converged = False
        iters = 0
        # Overflow near blow-up is expected; non-finite values are caught
        # below and surfaced as a step failure.
        with np.errstate(over="ignore", invalid="ignore"):
            for iters in range(1, PICARD_MAX + 1):
                um = u + 0.5 * dt * vm
                rhs = base + dt * self._nonlinear(um)
                vm_new = self._solve(rhs)
                delta = np.max(np.abs(vm_new - vm))
                vm = vm_new
                if not np.all(np.isfinite(vm)):
                    raise StepFailure("midpoint solve produced non-finite values",
                                      state)
                if delta <= PICARD_TOL * max(1.0, np.max(np.abs(vm))):
                    converged = True
                    break
        if not converged:
            raise StepFailure(
                f"Picard stalled after {PICARD_MAX} iterations", state)
        u_new = u + dt * vm
        v_new = 2.0 * vm - v
        diss = (-self.params.omega * self.w * float(vm @ (self.a @ vm))
                - self.params.mu * self.w * float(vm @ vm))
        new_state = SimState(state.t + dt,
                             GridField(self.domain, u_new),
                             GridField(self.domain, v_new))
        return new_state, StepStats(picard_iters=iters, midpoint_dissipation=diss)


def _record(series: TimeSeries, t: float, u: np.ndarray, v: np.ndarray,
            terms: tuple, stepper: Stepper, epsilon: float) -> None:
    """Append one sample row, reusing the step's `energy_terms` tuple."""
    E, I, J, kinetic, grad_sq, lp_p, l2_v = terms
    w = stepper.w
    ell = E + epsilon * (w * float(v @ u))
    omega = stepper.params.omega
    if omega > 0:
        ell += 0.5 * epsilon * omega * grad_sq
    grad_v = max(w * float(v @ (stepper.a @ v)), 0.0)
    series.append(t=t, E=E, I=I, J=J, L=ell, kinetic=kinetic, grad_sq=grad_sq,
                  lp_p=lp_p, l2_v=l2_v, grad_v_sq=grad_v)


def run(initial: SimState, params: ModelParams, cfg: StepConfig, horizon: float,
        monitors: MonitorSet | None = None) -> tuple[TimeSeries, RunOutcome]:
    """Integrate to the horizon, sampling diagnostics and enforcing monitors.

    The energy is evaluated once per step on raw arrays; the drift, the
    monitors and the sampled row all share that evaluation.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    monitors = monitors or MonitorSet()
    domain = initial.u.domain
    stepper = Stepper(domain, params, cfg)
    a, w, p, dt = stepper.a, stepper.w, params.p, cfg.dt
    eps = monitors.epsilon
    stride = 1 if domain.size <= SAMPLE_EVERY_STEP_MAX_NODES else 10
    n_steps = max(1, int(round(horizon / dt)))

    series = TimeSeries()
    u, v = initial.u.values, initial.v.values
    terms = energy_terms(u, a @ u, v, w, p)
    _record(series, initial.t, u, v, terms, stepper, eps)
    e0 = terms[0]
    e_prev = e0
    grad_cap = (2.0 * p / (p - 2.0)) * e0 * (1.0 + 1e-6)
    energy_tol = ENERGY_TOL_COEFF * dt**3 * max(1.0, abs(e0))
    drift = 0.0
    state = initial

    for k in range(1, n_steps + 1):
        try:
            state, stats = stepper.advance(state)
        except StepFailure as failure:
            est = detect_blowup(series, step_failed=True)
            if est is not None:
                return series, RunOutcome(
                    kind="blew_up", T=failure.state.t, t_max_estimate=est,
                    details=str(failure), energy_drift=drift)
            raise
        u, v = state.u.values, state.v.values
        terms = energy_terms(u, a @ u, v, w, p)
        e_now = terms[0]
        drift += abs(e_now - e_prev - dt * stats.midpoint_dissipation)
        if k % stride == 0 or k == n_steps:
            _record(series, state.t, u, v, terms, stepper, eps)
            _, i_now, _, _, grad_sq, lp_p, l2_v = terms
            if (monitors.nehari_invariance
                    and i_now < -scale_invariant_tol(grad_sq, lp_p)):
                return series, RunOutcome(
                    kind="monitor_violation", T=state.t, energy_drift=drift,
                    details=f"Nehari invariance lost: I={i_now} at t={state.t}")
            if monitors.grad_bound and grad_sq > grad_cap:
                return series, RunOutcome(
                    kind="monitor_violation", T=state.t, energy_drift=drift,
                    details=f"gradient bound exceeded: {grad_sq} > {grad_cap}")
            if monitors.energy_monotone and e_now > e_prev + energy_tol:
                return series, RunOutcome(
                    kind="monitor_violation", T=state.t, energy_drift=drift,
                    details=f"energy increased beyond tolerance at t={state.t}")
            norm = math.sqrt(grad_sq) + math.sqrt(l2_v)
            if norm > BLOWUP_NORM_THRESHOLD:
                est = detect_blowup(series)
                return series, RunOutcome(
                    kind="blew_up", T=state.t, energy_drift=drift,
                    t_max_estimate=est if est is not None else state.t,
                    details=f"divergence norm {norm:.3e} crossed threshold")
        e_prev = e_now
    return series, RunOutcome(kind="completed", T=state.t, energy_drift=drift)


def _pole_fit(t: np.ndarray, y: np.ndarray, horizon_span: float) -> float | None:
    """Fit y ~ C (T - t)^(-alpha) by scanning T; returns the best T."""
    def misfit(T: float) -> float:
        logs = np.log(T - t)
        coeffs = np.polyfit(logs, np.log(y), 1)
        resid = np.log(y) - np.polyval(coeffs, logs)
        return float(np.sum(resid**2))

    t_end = t[-1]
    lo = t_end + 1e-9 * max(horizon_span, 1.0)
    hi = t_end + 10.0 * max(horizon_span, 1e-6)
    try:
        res = scipy.optimize.minimize_scalar(misfit, bounds=(lo, hi),
                                             method="bounded")
    except (ValueError, np.linalg.LinAlgError):
        return None
    return float(res.x) if res.success else None


def detect_blowup(series: TimeSeries,
                  norm_threshold: float = BLOWUP_NORM_THRESHOLD,
                  step_failed: bool = False) -> float | None:
    """Blow-up time estimate, or None when the series shows no divergence.

    Fires on a threshold crossing of ||grad u|| + ||u_t||, or on a step
    failure that coincides with growth over the trailing window.  The
    estimate extrapolates a power-law pole through the final samples.
    """
    if len(series) == 0:
        raise ValueError("empty series")
    t = series.col("t")
    y = series.divergence_norm()
    crossed = y > norm_threshold
    fired_at = None
    if crossed.any():
        fired_at = int(np.argmax(crossed))
    elif step_failed and len(y) >= 2:
        w = min(GROWTH_WINDOW, len(y) - 1)
        if y[-1] > y[-1 - w]:
            fired_at = len(y) - 1
    if fired_at is None:
        return None

    m = min(FIT_SAMPLES, fired_at + 1)
    tt, yy = t[fired_at - m + 1:fired_at + 1], y[fired_at - m + 1:fired_at + 1]
    keep = yy > 0
    tt, yy = tt[keep], yy[keep]
    if len(tt) >= 3 and tt[-1] > tt[0]:
        est = _pole_fit(tt, yy, tt[-1] - tt[0])
        if est is not None and np.isfinite(est):
            return est
    return float(t[fired_at])
