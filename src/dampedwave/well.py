"""Variational constants and potential-well classification.

Computes the best embedding constant by a fixed-point iteration, derives
the well depth and the Nehari distance from it, and classifies states
against the Nehari manifold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh
from .functionals import ModelParams, SimState, total_energy
from .mesh import Domain, GridField

LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# C* iteration: cap, relative-gradient tolerance, and the float fixed point,
# where the max-normalized iterate moved by at most 4 ulps of 1
MAX_ITER = 1000
GRAD_TOL = 1e-10
FIXED_POINT_MOVE = 4.0 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """The C* iteration reached neither the gradient tolerance nor a fixed point."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleTargetError(ValueError):
    """Requested initial-data target cannot be met with the chosen shape."""


@dataclass(frozen=True)
class WellConstants:
    """Embedding constant, well depth, Nehari distance, Poincare constant.

    `d` and `beta` follow from C* and p.  `iterations` and `residual` record
    how C* was computed (see `compute_c_star`); they are 0 for constants
    built from a given C*.
    """

    c_star: float
    d: float = field(init=False)
    beta: float = field(init=False)
    lambda1: float
    p: float
    fingerprint: str = ""
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self) -> None:
        # d and beta are defined by these identities; they hold exactly.
        # For p near 2, C*^(-2p/(p-2)) leaves the float range.
        p = self.p
        try:
            d = ((p - 2.0) / (2.0 * p)) * self.c_star ** (-2.0 * p / (p - 2.0))
            beta = math.sqrt(2.0 * d * p / (p - 2.0))
        except OverflowError:
            d = beta = math.inf
        if not (0.0 < d < math.inf and beta < math.inf):
            raise ValueError(f"p={p} and C*={self.c_star} give d={d} and "
                             f"beta={beta}, outside the float range")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class MinimizeOpts:
    """Accepted by `well_constants` and never read: C* is deterministic."""

    seed: int = 0


def compute_c_star(domain: Domain, p: float,
                   stats: dict | None = None) -> tuple[float, GridField]:
    """Best constant of the H^1_0 -> L^p embedding on the discrete domain.

    Minimizes R(u) = ||grad u||_2 / ||u||_p by the Petviashvili iteration for
    the ground state A u = u|u|^(p-2) (Petviashvili, Sov. J. Plasma Phys. 2,
    1976; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42, 2004), started
    from the first eigenmode: u <- M^((p-1)/(p-2)) A^(-1) f with
    f = u|u|^(p-2) and M = u'Au / u'f.  The step sends u and c*u to the same
    iterate, so the factor M^((p-1)/(p-2)) only sets the amplitude, which is
    that of the ground state, about lambda1^(1/(p-2)) and beyond the float
    range for p near 2.  Each iterate is therefore rescaled to max|u| = 1,
    which leaves the sequence of shapes unchanged.  The iteration stops when
    the relative gradient ||grad R|| ||u|| / R falls below GRAD_TOL, or at
    a float fixed point, when the normalized iterate moved by at most
    FIXED_POINT_MOVE: on fine grids the gradient's rounding floor, about
    n^2 eps, lies above the tolerance.  Past MAX_ITER iterations it raises
    ConvergenceError.

    Returns C* = 1/min R and the minimizer, sign-normalized and with
    ||u||_p = 1.  A given `stats` dict receives the number of iterations and
    the final relative gradient under "iterations" and "residual".
    """
    if p <= 2.0:
        raise ValueError(f"source exponent must satisfy p > 2, got {p}")
    a = mesh.stiffness(domain)
    w = domain.weight
    solve = mesh.shifted_solver(domain, [0.0], [1.0])
    x = mesh.eigenmode(domain).values
    best_residual = moved = math.inf
    for iterations in itertools.count():
        ax = a(x)
        f = x * np.abs(x) ** (p - 2.0)
        xax, xf = float(x @ ax), float(x @ f)
        relgrad = float(np.linalg.norm(ax / xax - f / xf) * np.linalg.norm(x))
        best_residual = min(best_residual, relgrad)
        if relgrad < GRAD_TOL or moved <= FIXED_POINT_MOVE:
            break
        if iterations >= MAX_ITER or not math.isfinite(relgrad):
            raise ConvergenceError(
                f"Petviashvili iteration stopped after {iterations} of "
                f"MAX_ITER={MAX_ITER} iterations above GRAD_TOL={GRAD_TOL}; "
                f"best relative gradient {best_residual:.3e}", best_residual)
        x_prev = x
        x = solve(f[None])[0]
        x /= np.abs(x).max()
        moved = float(np.abs(x - x_prev).max())
    if stats is not None:
        stats.update(iterations=iterations, residual=relgrad)
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    lp = (w * xf) ** (1.0 / p)
    return lp / math.sqrt(w * xax), GridField(domain, x / lp)


def well_constants(domain: Domain, p: float,
                   opts: MinimizeOpts = MinimizeOpts()) -> WellConstants:
    """C*, d, beta and the discrete Poincare constant; `opts` is not read."""
    stats: dict = {}
    c_star, _ = compute_c_star(domain, p, stats)
    return WellConstants(c_star=c_star, lambda1=mesh.eigenvalue(domain), p=p,
                         fingerprint=domain.fingerprint(), **stats)


def nehari_scale(u: GridField, p: float) -> float:
    """The lambda* > 0 with I(lambda* u) = 0 (projection onto the manifold)."""
    if u.is_zero():
        raise ValueError("cannot project the zero field onto the Nehari manifold")
    g = mesh.grad_norm_sq(u)
    pw = mesh.lp_norm_p(u, p)
    return (g / pw) ** (1.0 / (p - 2.0))


def scale_invariant_tol(grad_sq: float, lp_p: float) -> float:
    """Dead band for the sign of I; the continuum sets use strict signs."""
    return 1e-9 * max(grad_sq, lp_p)


@dataclass(frozen=True)
class Classification:
    """Nehari sign class plus stable/unstable set and admissibility tags."""

    category: str  # "N_plus" | "N_zero" | "N_minus"
    in_W: bool
    in_U: bool
    high_energy: bool
    smallness_holds: bool  # smallness condition on E, equivalent to E < d
    I: float
    J: float
    E: float


def admissibility_quantity(E: float, c_star: float, p: float) -> float:
    """C*^p (2p/(p-2) E)^((p-2)/2); < 1 is the smallness condition on E(0)."""
    if E <= 0.0:
        return 0.0
    try:
        return c_star**p * ((2.0 * p / (p - 2.0)) * E) ** ((p - 2.0) / 2.0)
    except OverflowError:  # large p: from the logarithm, inf past the float range
        log_k = (p * math.log(c_star)
                 + 0.5 * (p - 2.0) * math.log((2.0 * p / (p - 2.0)) * E))
        return math.exp(log_k) if log_k < LOG_FLOAT_MAX else math.inf


def classify(state: SimState, params: ModelParams,
             wc: WellConstants) -> Classification:
    rep = total_energy(state, params)
    tol_i = scale_invariant_tol(rep.grad_sq, rep.lp_p)
    if state.u.is_zero() or rep.I > tol_i:
        category = "N_plus"
    elif rep.I < -tol_i:
        category = "N_minus"
    else:
        category = "N_zero"
    return Classification(
        category=category,
        in_W=(rep.J <= wc.d and category == "N_plus"),
        in_U=(rep.J <= wc.d and category == "N_minus"),
        high_energy=(rep.E >= wc.d),
        smallness_holds=(admissibility_quantity(rep.E, wc.c_star, params.p) < 1.0),
        I=rep.I, J=rep.J, E=rep.E,
    )


def prepare_initial_data(domain: Domain, params: ModelParams, wc: WellConstants,
                         target: tuple[str, float]) -> tuple[GridField, GridField]:
    """Scale the first eigenmode to hit a prescribed energy level.

    ("stable", f) with 0 < f < 1: u0 = s*phi on the rising branch of J, so
    E(0) = f*d and u0 is in the interior of the well.  ("unstable", f): s is
    taken past the Nehari scale on the falling branch, so I(u0) < 0 and
    J(u0) = f*d.  u1 is identically zero in both cases.
    """
    kind, fraction = target
    if kind == "stable":
        if not 0.0 < fraction < 1.0:
            raise ValueError("stable target needs 0 < fraction < 1")
    elif kind == "unstable":
        if not fraction > 0.0:  # NaN too
            raise ValueError("unstable target needs fraction > 0")
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    p = params.p
    phi = mesh.eigenmode(domain)
    g = mesh.grad_norm_sq(phi)
    pw = mesh.lp_norm_p(phi, p)
    lam_star = nehari_scale(phi, p)

    def j_of(s: float) -> float:
        try:
            return 0.5 * s * s * g - s**p * pw / p
        except OverflowError:  # s^p past the float range (large p)
            return -math.inf

    j_max = j_of(lam_star)
    target_j = fraction * wc.d
    if target_j >= j_max:
        level = "energy" if kind == "stable" else "J-level"
        raise InfeasibleTargetError(
            f"target {level} {target_j} above peak {j_max} of this shape")
    rising = kind == "stable"  # J rises on [0, lam_star] and falls past it
    # J(2 lam_star) = g lam_star^2 (2 - 2^p/p) < 0 < target_j for p > 2
    lo, hi = (0.0, lam_star) if rising else (lam_star, 2.0 * lam_star)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float left between the ends
            break
        if (j_of(mid) < target_j) == rising:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    u0 = GridField(domain, s * phi.values)
    return u0, GridField.zeros(domain)
