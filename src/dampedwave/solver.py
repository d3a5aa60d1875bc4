"""Implicit-midpoint time integration with runtime monitors.

All stiff linear terms (stiffness, strong damping, friction) are implicit;
the nonlinear source is evaluated at the midpoint by Picard iteration.  For
quadratic energies the scheme's per-step energy balance against the
dissipation identity is exact, so the measured residual isolates the
nonlinear quadrature error, which is third order per step.

Each step stops its Picard iteration on an a-posteriori bound.  The
midpoint matrix S = c0 I + c1 A, c0 = 2 + dt mu, is strictly diagonally
dominant, so ||S^-1||_inf <= 1/c0 (Varah, Linear Algebra Appl. 11, 1975),
and the Picard map is a contraction with constant
rho = dt^2 (p-1) M^(p-2) / (2 c0) wherever |u_mid| <= M.  By the Banach
fixed-point theorem the iterate is then within rho/(1-rho) times its last
change of the step's fixed point.  A step ends when that bound meets
PICARD_TOL, from the first solve on.

`run_many` starts each step's iteration from the midpoint velocities of the
last HISTORY steps extrapolated in time (`start_guess`; Hairer and Wanner,
Solving ODEs II, IV.8).  On the smooth trajectories of the stable set that
start is close enough for the first solve to pass the bound, so most steps
take one solve.

`run_many` steps trajectories that share a domain, dt, horizon and p as one
(K, size) stack, in which every row rounds exactly as it does alone; `run` is
its one-row case.  A step is one `advance` call and one A @ u, under the one
np.errstate of the step loop; the energy and the samples wait for a block
of steps (`_fold`).  The solver imports no theory module: the certificate
reaches it as `MonitorSet.epsilon` and the monitors' flags.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import mesh
from .functionals import ModelParams, SimState, energy_terms, scale_invariant_tol
from .series import TimeSeries

if TYPE_CHECKING:
    from .well import WellConstants

SAMPLE_EVERY_STEP_MAX_NODES = 255  # above this, sample every 10th step
ENERGY_TOL_COEFF = 100.0  # monotone-energy allowance: coeff * dt^3 * max(1, E0)
BLOWUP_NORM_THRESHOLD = 1e6  # ||grad u|| + ||u_t|| at which a run has blown up
FIT_SAMPLES = 30  # trailing samples in the pole fit of T_max
PICARD_TOL = 1e-12  # bound on |vm - fixed point|_inf / max(1, |vm|_inf)
PICARD_MAX = 50  # Picard iterations before a step fails
POLE_RTOL = 1e-9  # T_max search stops at this bracket width over its upper end
MAX_STEPS = 10**7  # most steps of one run; its series grows with the steps
HISTORY = 5  # midpoint velocities behind the quartic start guess of a step
BLOCK_VALUES = 12288  # node values (96 KiB) a block of steps holds before it is folded
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class StepFailure(RuntimeError):
    """Picard iteration did not converge or produced non-finite values."""


@dataclass(frozen=True)
class StepConfig:
    dt: float

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


@dataclass(slots=True)
class StepStats:
    row_iters: list[int]  # linear solves per row
    # per row, the contraction constant rho that ended the row's iteration,
    # or inf where the test on the change alone ended it
    contraction: list[float]
    vm: np.ndarray  # the midpoint velocities the step ended on, (K, size)
    failures: list[str | None]  # per row, why its step failed, or None

    @property
    def picard_iters(self) -> int:
        """Linear solves, summed over the rows of the stack."""
        return sum(self.row_iters)


@dataclass
class MonitorSet:
    """Runtime assertions armed for stable-set runs; all off by default."""

    wc: WellConstants | None = None  # not read; accepted for callers that pass it
    epsilon: float = 0.0  # Lyapunov perturbation recorded in the L column
    nehari_invariance: bool = False   # I(u(t)) > -scale_invariant_tol
    grad_bound: bool = False          # ||grad u||^2 <= 2p/(p-2) E(0)
    energy_monotone: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class RunOutcome:
    kind: str  # "completed" | "blew_up" | "monitor_violation"
    T: float
    t_max_estimate: float | None = None
    details: str = ""
    energy_drift: float = 0.0  # summed |dE - midpoint dissipation| over all steps
    linear_solves: int = 0  # midpoint solves of all completed steps


class Stepper:
    """Holds the exact midpoint solve (2 + dt mu) I + (dt^2/2 + dt omega) A.

    It steps a (K, size) stack, row k under params[k]; the K ModelParams
    share p, and one trajectory is a stack of one row.  Every row rounds
    exactly as it does stepped alone.
    """

    def __init__(self, domain: mesh.Domain, params: Sequence[ModelParams],
                 cfg: StepConfig):
        if len({prm.p for prm in params}) != 1:
            raise ValueError("the rows of a stack must share p")
        self.domain = domain
        self.cfg = cfg
        self.p = params[0].p
        self.a = mesh.stiffness(domain)
        w = self.w = domain.weight
        self._damping = [(-prm.omega * w, prm.mu * w) for prm in params]
        dt = cfg.dt
        c0 = [2.0 + dt * prm.mu for prm in params]
        self._solve = mesh.shifted_solver(
            domain, c0, [0.5 * dt * dt + dt * prm.omega for prm in params])
        # rho = lip * M^(p-2) per row
        self._lip = [0.5 * dt * dt * (self.p - 1.0) / c for c in c0]

    def _nonlinear(self, um: np.ndarray) -> np.ndarray:
        return um * np.abs(um) ** (self.p - 2.0)

    def advance(self, u: np.ndarray, v: np.ndarray, au: np.ndarray,
                guess: np.ndarray | None = None
                ) -> tuple[tuple[np.ndarray, np.ndarray], StepStats]:
        """One midpoint step from the (K, size) stacks u and v; `au` is A @ u.

        The Picard iteration starts from vm_0 = `guess`, or from v when no
        guess is given.  Each row iterates until its own Picard test passes
        and then stays fixed while the other rows go on.  With
        delta = |vm_k - vm_{k-1}|_inf and m = |vm_k|_inf, a row stops when
        rho < 1/2 and rho delta <= (1 - rho) PICARD_TOL max(1, m), where
        M = |u|_inf + dt/2 max(|vm_{k-1}|_inf, m + delta) bounds |u_mid| on
        the segments from vm_{k-1} to the ball around vm_k that holds the
        fixed point.  The ball argument asks of vm_{k-1} only that the map
        sends it to vm_k, not that it is itself an iterate, so it holds from
        k = 1 on, with vm_0 the start.  Otherwise a row stops when
        delta <= PICARD_TOL max(1, m).  That test bounds the distance to the
        fixed point only by rho/(1 - rho) delta, so a row it ends (contraction
        inf) is not certified within PICARD_TOL max(1, |vm|_inf); property
        probes found such rows 1.0-1.4e-12 relative from the fixed point.

        Every iteration takes these maxima, per row, from one max-reduction
        over the stacked |u|, |vm_{k-1}|, |vm_k - vm_{k-1}| and |vm_k|, and
        once a row has ended, keeps every ended row's vm fixed.  A max is
        exact and each row is reduced on its own, so every maximum, and so
        every rho and every stop, is the one the row gives alone.

        Each row starts once.  A row whose iterate turns non-finite, or that
        has not converged after PICARD_MAX solves, fails, whether it started
        from a guess or from v: its entry of `StepStats.failures` says why,
        its midpoint velocity is v, and its u and v are returned as given.
        The caller owns numpy's error state: a step near blow-up overflows,
        which warns unless the caller holds np.errstate, as `run_many` does;
        the state changes the warnings only, never what is returned.
        """
        if u.ndim != 2 or len(u) != len(self._lip):
            raise ValueError(f"advance takes (K, size) stacks of K = {len(self._lip)} "
                             f"rows, got shape {u.shape}")
        dt, q = self.cfg.dt, self.p - 2.0
        half_dt = 0.5 * dt
        base = 2.0 * v - dt * au
        n_rows = len(u)
        solves = [0] * n_rows
        ended = [False] * n_rows  # converged or failed: the row stays fixed
        rho = [math.inf] * n_rows
        failures: list[str | None] = [None] * n_rows
        busy = n_rows
        vm = v if guess is None else guess
        while busy:
            um = u + half_dt * vm
            rhs = base + dt * self._nonlinear(um)
            vm_new = self._solve(rhs)
            if busy < n_rows:
                vm_new[ended] = vm[ended]
            stacked = np.concatenate((u, vm, vm_new - vm, vm_new))
            # max propagates NaN and inf, so this also checks for both
            maxima = np.maximum.reduce(np.abs(stacked, out=stacked),
                                       axis=-1).tolist()
            umax, prev, delta, vmax = (maxima[i:i + n_rows]
                                       for i in range(0, 4 * n_rows, n_rows))
            vm = vm_new
            for r, (d, m) in enumerate(zip(delta, vmax)):
                if ended[r]:
                    continue
                solves[r] += 1
                if math.isfinite(m):
                    tol = PICARD_TOL * max(1.0, m)
                    bound = umax[r] + half_dt * max(prev[r], m + d)
                    try:
                        rho_k = self._lip[r] * bound ** q
                    except OverflowError:  # so large a bound never contracts
                        rho_k = math.inf
                    if rho_k < 0.5 and rho_k * d <= (1.0 - rho_k) * tol:
                        rho[r] = rho_k
                    elif d > tol:
                        if solves[r] < PICARD_MAX:
                            continue
                        failures[r] = f"Picard stalled after {PICARD_MAX} iterations"
                else:
                    failures[r] = "midpoint solve produced non-finite values"
                if failures[r]:
                    vm[r] = v[r]
                ended[r] = True
                busy -= 1
        u_new, v_new = u + dt * vm, 2.0 * vm - v
        failed = [r for r, failure in enumerate(failures) if failure]
        if failed:
            u_new[failed], v_new[failed] = u[failed], v[failed]
        return (u_new, v_new), StepStats(
            row_iters=solves, contraction=rho, vm=vm, failures=failures)

    def dissipation(self, vm: np.ndarray) -> list[float]:
        """-omega |grad vm|^2 - mu |vm|^2, the dissipation identity at the
        midpoint, for each row of a (B K, size) stack of B steps' midpoint
        velocities; row j is under the parameters of stack row j mod K.

        Each row is reduced on its own, so it rounds as it does alone.
        """
        damping = self._damping * (len(vm) // len(self._damping))
        return [omega_w * grad_sq - mu_w * sq
                for (omega_w, mu_w), grad_sq, sq in zip(
                    damping, mesh.row_dots(vm, self.a(vm)), mesh.row_dots(vm, vm))]


def start_guess(history: Sequence[np.ndarray]) -> np.ndarray | None:
    """The start of a step's Picard iteration from the midpoint velocities of
    the steps before it, oldest first: their quartic extrapolation once
    HISTORY are known, the linear one from two, else None (start from v).

    Each entry is a (K, size) stack; the combination is elementwise, so each
    row rounds as it does alone.  An overflowing guess is non-finite, which
    fails the row's step in `advance`; as for `advance`, the caller owns
    np.errstate.
    """
    if len(history) >= HISTORY:
        h5, h4, h3, h2, h1 = history[-HISTORY:]
        return h5 + 5.0 * (h1 - h4) + 10.0 * (h3 - h2)
    if len(history) >= 2:
        return 2.0 * history[-1] - history[-2]
    return None


def step_count(horizon: float, dt: float) -> int:
    """round(horizon/dt), at least 1; ValueError when the horizon is not
    positive or the count exceeds MAX_STEPS."""
    if not horizon > 0:  # NaN too
        raise ValueError("horizon must be positive")
    steps = horizon / dt
    if not steps <= MAX_STEPS:  # inf and NaN too
        raise ValueError(f"horizon/dt = {steps:.6g} exceeds the ceiling of "
                         f"{MAX_STEPS} steps")
    return max(1, round(steps))


class _Row:
    """One trajectory of a stack: its samples, clock, energy and monitors."""

    def __init__(self, index: int, t: float, params: ModelParams,
                 monitors: MonitorSet, e0: float, dt: float):
        p = params.p
        self.index = index
        self.t = t
        self.omega = params.omega
        self.monitors = monitors
        self.series = TimeSeries()
        self.e_prev = e0
        self.grad_cap = (2.0 * p / (p - 2.0)) * e0 * (1.0 + 1e-6)
        self.energy_tol = ENERGY_TOL_COEFF * dt**3 * max(1.0, abs(e0))
        self.drift = 0.0
        self.solves = 0

    def record(self, t: float, terms: tuple, vu: float, vav: float, w: float) -> None:
        """Append the sample at time t from its `energy_terms` of this row.

        `vu` is v @ u and `vav` is v @ A v for the row's state at t.
        """
        E, I, J, kinetic, grad_sq, lp_p, l2_v = terms
        eps = self.monitors.epsilon
        ell = E + eps * (w * vu)
        if self.omega > 0:
            ell += 0.5 * eps * self.omega * grad_sq
        self.series.append(t, E, I, J, ell, kinetic, grad_sq, lp_p, l2_v,
                           max(w * vav, 0.0))

    def verdict(self, terms: tuple) -> tuple[str, str] | None:
        """The (kind, details) that end this row at a sample, from its terms."""
        e_now, i_now, _, _, grad_sq, lp_p, l2_v = terms
        t, monitors = self.t, self.monitors
        if (monitors.nehari_invariance
                and i_now < -scale_invariant_tol(grad_sq, lp_p)):
            return "monitor_violation", f"Nehari invariance lost: I={i_now} at t={t}"
        if monitors.grad_bound and grad_sq > self.grad_cap:
            return ("monitor_violation",
                    f"gradient bound exceeded: {grad_sq} > {self.grad_cap}")
        if monitors.energy_monotone and e_now > self.e_prev + self.energy_tol:
            return "monitor_violation", f"energy increased beyond tolerance at t={t}"
        norm = math.sqrt(grad_sq) + math.sqrt(l2_v)
        if norm > BLOWUP_NORM_THRESHOLD:
            return "blew_up", f"divergence norm {norm:.3e} crossed threshold"
        return None

    def end(self, kind: str, details: str = ""
            ) -> tuple[TimeSeries, RunOutcome] | StepFailure:
        """This row's result, ended now with outcome `kind`, on its full series.

        After a failed step (`kind` "failed", `details` the failure) the row
        has blown up if its last sample lies in N_minus (`detect_blowup`),
        and otherwise ends in the StepFailure.
        """
        est = None
        if kind in ("blew_up", "failed"):
            # a threshold ending's last sample crosses it, so an estimate exists
            est = detect_blowup(self.series, step_failed=kind == "failed")
            if est is None:
                return StepFailure(details)
            kind = "blew_up"
        return self.series, RunOutcome(kind=kind, T=self.t, details=details,
                                       t_max_estimate=est, energy_drift=self.drift,
                                       linear_solves=self.solves)


def _fold(rows: list[_Row], block: list, stepper: Stepper, stride: int,
          n_steps: int) -> dict[int, tuple[str, str]]:
    """Evaluate a block of steps over its stacked arrays, then walk each row
    through the block's steps in order.  Returns the rows that end, by stack
    position, with their (kind, details).

    Each entry of `block` is one step: its index k, its StepStats and the
    (K, size) u, A u and v it ended on.  One `energy_terms` call and one
    `Stepper.dissipation` call cover every step of the block; v @ u and
    v @ A v cover its sampled steps.  At each step a row advances its clock
    and solve count, adds its drift, records a sampled step and takes its
    verdict there, and at the horizon completes.  It ends at its first failed
    step or ending, and its later steps in the block are dropped.  A step
    whose terms are None, a NaN or Inf in the row's u or v, fails as
    "step produced non-finite values".
    """
    n, dt, w, p = len(rows), stepper.cfg.dt, stepper.w, stepper.p
    steps, stats, us, aus, vs = zip(*block)
    u, au, v = np.concatenate(us), np.concatenate(aus), np.concatenate(vs)
    terms = energy_terms(u, au, v, w, p)
    diss = stepper.dissipation(np.concatenate([s.vm for s in stats]))
    sampled = [k % stride == 0 or k == n_steps for k in steps]
    if any(sampled):
        if not all(sampled):
            picked = np.repeat(sampled, n)
            u, v = u[picked], v[picked]
        vus, vavs = mesh.row_dots(v, u), mesh.row_dots(v, stepper.a(v))
    ended: dict[int, tuple[str, str]] = {}
    j = 0  # the first row of this step in the samples
    for i, (k, step) in enumerate(zip(steps, stats)):
        if len(ended) == n:
            break
        step_terms = terms[i * n:(i + 1) * n]
        for r, (row, iters, failure, row_terms) in enumerate(
                zip(rows, step.row_iters, step.failures, step_terms)):
            if r in ended:
                continue
            if failure is not None or row_terms is None:
                ended[r] = "failed", failure or "step produced non-finite values"
                continue
            row.t += dt
            row.solves += iters
            e_now = row_terms[0]
            row.drift += abs(e_now - row.e_prev - dt * diss[i * n + r])
            ending = None
            if sampled[i]:
                row.record(row.t, row_terms, vus[j + r], vavs[j + r], w)
                ending = row.verdict(row_terms)
            if ending is None and k == n_steps:
                ending = "completed", ""
            if ending is not None:
                ended[r] = ending
            row.e_prev = e_now
        if sampled[i]:
            j += n
    return ended


def run_many(states: Sequence[SimState], params: Sequence[ModelParams],
             cfg: StepConfig, horizon: float,
             monitors: Sequence[MonitorSet | None] | None = None
             ) -> list[tuple[TimeSeries, RunOutcome] | StepFailure]:
    """Integrate K trajectories that share a domain, dt, horizon and p as one stack.

    Returns per row what `run` returns for that row alone, bit for bit: its
    (series, outcome), or the StepFailure that ended it.  A row ends when it
    fails a step, trips a monitor, blows up or reaches the horizon; the
    others keep the steps they computed.  A step that leaves a NaN or Inf in
    a row's u or v fails for that row, as a non-finite midpoint solve does;
    the initial states are GridFields, which hold none.  A horizon that is
    not positive or of more than MAX_STEPS steps raises ValueError.

    Each step calls `Stepper.advance` once, from `start_guess` of the
    stack's last HISTORY midpoint velocities, and evaluates A @ u, which
    also serves the next step.  Everything else waits in a block of steps:
    the energy terms, which the drift, the samples, the monitors and the
    divergence norm share, the midpoint dissipation, and the sample's v @ u
    and A @ v.  `_fold` evaluates the block and decides which rows end when
    it holds BLOCK_VALUES node values, when a row's step fails and at the
    horizon; the rows it ends leave the stack then.  So a row may be stepped
    up to one block past its ending, and those steps are thrown away.
    """
    n_steps = step_count(horizon, cfg.dt)
    if monitors is None:
        monitors = [None] * len(states)
    if not states or not len(states) == len(params) == len(monitors):
        raise ValueError("need one ModelParams and one MonitorSet or None per state")
    domain = states[0].u.domain
    if any(state.u.domain != domain for state in states):
        raise ValueError("the rows of a stack must share a domain")
    stepper = Stepper(domain, params, cfg)
    a, w, p = stepper.a, stepper.w, stepper.p
    stride = 1 if domain.size <= SAMPLE_EVERY_STEP_MAX_NODES else 10

    u = np.array([state.u.values for state in states])
    v = np.array([state.v.values for state in states])
    au = a(u)
    terms = energy_terms(u, au, v, w, p)
    rows = [_Row(k, state.t, prm, mon or MonitorSet(), row_terms[0], cfg.dt)
            for k, (state, prm, mon, row_terms) in enumerate(
                zip(states, params, monitors, terms))]
    for row, row_terms, vu, vav in zip(rows, terms, mesh.row_dots(v, u),
                                       mesh.row_dots(v, a(v))):
        row.record(row.t, row_terms, vu, vav, w)
    results: list = [None] * len(states)
    history: list[np.ndarray] = []  # the last HISTORY midpoint velocities
    block: list = []  # the steps not yet folded, see `_fold`

    # the step loop's one error state, which `advance` and `start_guess`
    # leave to their caller: overflow is expected in a guess or a step that
    # goes non-finite, which fails the row's step, and in a row stepped past
    # its ending, whose steps `_fold` drops
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            (u, v), stats = stepper.advance(u, v, au, start_guess(history))
            history.append(stats.vm)
            del history[:-HISTORY]
            au = a(u)
            block.append((k, stats, u, au, v))
            if (4 * u.size * len(block) < BLOCK_VALUES and k < n_steps
                    and not any(stats.failures)):
                continue
            ended = _fold(rows, block, stepper, stride, n_steps)
            block = []
            if not ended:
                continue
            for r, (kind, details) in ended.items():
                results[rows[r].index] = rows[r].end(kind, details)
            keep = [r for r in range(len(rows)) if r not in ended]
            rows, u, v, au = [rows[r] for r in keep], u[keep], v[keep], au[keep]
            history = [vm[keep] for vm in history]
            if not rows:
                break
            stepper = Stepper(domain, [params[row.index] for row in rows], cfg)
    return results


def run(initial: SimState, params: ModelParams, cfg: StepConfig, horizon: float,
        monitors: MonitorSet | None = None) -> tuple[TimeSeries, RunOutcome]:
    """Integrate to the horizon, sampling diagnostics and enforcing monitors.

    This is `run_many` with one row; a StepFailure that ends the run is raised.
    """
    (result,) = run_many([initial], [params], cfg, horizon, [monitors])
    if isinstance(result, StepFailure):
        raise result
    return result


def _pole_fit(t: np.ndarray, y: np.ndarray) -> float:
    """Fit y ~ C (T - t)^(-alpha) by golden-section search over T; returns T.

    The misfit of each T is the residual of the least-squares line through
    (log(T - t), log y), in closed form on centred data.
    """
    ly = np.log(y)
    ly = ly - ly.mean()

    def misfit(T: float) -> float:
        x = np.log(T - t)
        x -= x.mean()
        r = ly - (x @ ly / (x @ x)) * x
        return float(r @ r)

    t_end = t[-1]
    span = t_end - t[0]
    lo = t_end + 1e-9 * max(span, 1.0)
    hi = t_end + 10.0 * max(span, 1e-6)
    tol = POLE_RTOL * max(abs(lo), abs(hi))
    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    fc, fd = misfit(c), misfit(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = misfit(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = misfit(d)
    return float(c if fc < fd else d)


def detect_blowup(series: TimeSeries, step_failed: bool = False) -> float | None:
    """Blow-up time estimate, or None when the series shows no divergence.

    Decides at the last sample.  It fires when that sample's divergence norm
    ||grad u|| + ||u_t|| is past BLOWUP_NORM_THRESHOLD, or, after a failed
    step, when the series holds a sample after its start and the last one
    lies in N_minus, I < -scale_invariant_tol(grad_sq, lp_p).  While I >= 0,
    E(0) >= E >= J >= (p-2)/(2p) ||grad u||^2 bounds the state (Payne and
    Sattinger, Israel J. Math. 22, 1975), so a step that fails there is the
    scheme's failure, not a blow-up; above the well depth the rule is not a
    theorem.  The estimate extrapolates a power-law pole through the last
    FIT_SAMPLES samples.
    """
    if len(series) == 0:
        raise ValueError("empty series")
    t, grad_sq = series.col("t"), series.col("grad_sq")
    y = np.sqrt(grad_sq) + np.sqrt(series.col("l2_v"))
    if not (y[-1] > BLOWUP_NORM_THRESHOLD or step_failed and len(y) > 1
            and series.col("I")[-1] < -scale_invariant_tol(grad_sq[-1],
                                                            series.col("lp_p")[-1])):
        return None
    tt, yy = t[-FIT_SAMPLES:], y[-FIT_SAMPLES:]
    keep = yy > 0
    tt, yy = tt[keep], yy[keep]
    if len(tt) >= 3 and tt[-1] > tt[0]:
        est = _pole_fit(tt, yy)
        if math.isfinite(est):
            return est
    return float(t[-1])
