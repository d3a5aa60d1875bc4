"""Variational constants and potential-well classification.

Computes the best embedding constant by constrained minimization, derives
the well depth and the Nehari distance from it, and classifies states
against the Nehari manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .functionals import ModelParams, SimState, total_energy
from .mesh import Domain, GridField


class ConvergenceError(RuntimeError):
    """Constrained minimization did not reach the gradient tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleTargetError(ValueError):
    """Requested initial-data target cannot be met with the chosen shape."""


@dataclass(frozen=True)
class WellConstants:
    """Embedding constant, well depth, Nehari distance, Poincare constant."""

    c_star: float
    d: float
    beta: float
    lambda1: float
    p: float
    fingerprint: str

    @classmethod
    def from_c_star(cls, c_star: float, p: float, lambda1: float,
                    fingerprint: str = "") -> "WellConstants":
        # d and beta are defined by these identities; they hold exactly.
        d = ((p - 2.0) / (2.0 * p)) * c_star ** (-2.0 * p / (p - 2.0))
        beta = math.sqrt(2.0 * d * p / (p - 2.0))
        return cls(c_star=c_star, d=d, beta=beta, lambda1=lambda1,
                   p=p, fingerprint=fingerprint)


@dataclass(frozen=True)
class MinimizeOpts:
    n_starts: int = 8
    max_iter: int = 100_000
    grad_tol: float = 1e-10
    seed: int = 0


def _ratio_and_grad(a, w: float, p: float, x: np.ndarray):
    """Rayleigh-type ratio R(x) = sqrt(grad_sq)/lp^(1/p) and its gradient."""
    ax = a @ x
    g = w * float(x @ ax)
    pw = w * float(np.sum(np.abs(x) ** p))
    r = math.sqrt(g) / pw ** (1.0 / p)
    grad_g = 2.0 * w * ax
    grad_p = p * w * np.abs(x) ** (p - 2.0) * x
    grad_r = r * (grad_g / (2.0 * g) - grad_p / (p * pw))
    return r, grad_r, pw


def _descend(a, w: float, p: float, x0: np.ndarray, opts: MinimizeOpts):
    """Normalized gradient descent with Barzilai-Borwein steps on R."""
    x = x0 / (w * np.sum(np.abs(x0) ** p)) ** (1.0 / p)
    r, grad, _ = _ratio_and_grad(a, w, p, x)
    tau = 1e-2 / max(np.linalg.norm(grad), 1e-30)
    relgrad = math.inf
    for _ in range(opts.max_iter):
        relgrad = np.linalg.norm(grad) * np.linalg.norm(x) / r
        if relgrad < opts.grad_tol:
            return x, r, relgrad, True
        x_new = x - tau * grad
        x_new /= (w * np.sum(np.abs(x_new) ** p)) ** (1.0 / p)
        r_new, grad_new, _ = _ratio_and_grad(a, w, p, x_new)
        # Nonmonotone acceptance: BB steps may raise R slightly; only large
        # jumps are rejected, otherwise the descent stalls at roundoff level.
        if not math.isfinite(r_new) or r_new > 1.1 * r:
            tau *= 0.5
            continue
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 0:
            tau = min(max(float(s @ s) / sy, 1e-14), 1e6)
        else:
            tau = max(2.0 * tau, 1e-2 / max(np.linalg.norm(grad_new), 1e-30))
        x, r, grad = x_new, r_new, grad_new
    return x, r, relgrad, relgrad < opts.grad_tol


def compute_c_star(domain: Domain, p: float,
                   opts: MinimizeOpts = MinimizeOpts()) -> tuple[float, GridField]:
    """Best constant of the H^1_0 -> L^p embedding on the discrete domain.

    Multi-start minimization of ||grad u||_2 / ||u||_p; returns C* = 1/min
    and the minimizer, sign-normalized and with ||u||_p = 1.
    """
    if p <= 2.0:
        raise ValueError(f"source exponent must satisfy p > 2, got {p}")
    a = mesh.stiffness_matrix(domain)
    w = domain.weight
    rng = np.random.default_rng(opts.seed)
    starts = [mesh.eigenmode(domain).values]
    starts.extend(rng.standard_normal(domain.size) for _ in range(opts.n_starts))

    best = None
    best_residual = math.inf
    for x0 in starts:
        x, r, relgrad, ok = _descend(a, w, p, x0, opts)
        best_residual = min(best_residual, relgrad)
        if ok and (best is None or r < best[1]):
            best = (x, r)
    if best is None:
        raise ConvergenceError(
            f"no start converged below grad_tol={opts.grad_tol}; best relative "
            f"gradient {best_residual:.3e}", best_residual)
    x, r = best
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    x /= (w * np.sum(np.abs(x) ** p)) ** (1.0 / p)
    return 1.0 / r, GridField(domain, x)


def well_constants(domain: Domain, p: float,
                   opts: MinimizeOpts = MinimizeOpts()) -> WellConstants:
    """C*, d, beta and the discrete Poincare constant for one domain."""
    c_star, _ = compute_c_star(domain, p, opts)
    lambda1 = mesh.eigenvalue(domain)
    return WellConstants.from_c_star(c_star, p, lambda1, domain.fingerprint())


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
    tol_I: float


def admissibility_quantity(E: float, c_star: float, p: float) -> float:
    """C*^p (2p/(p-2) E)^((p-2)/2); < 1 is the smallness condition on E(0)."""
    if E <= 0.0:
        return 0.0
    return c_star**p * ((2.0 * p / (p - 2.0)) * E) ** ((p - 2.0) / 2.0)


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
        I=rep.I, J=rep.J, E=rep.E, tol_I=tol_i,
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
    phi = mesh.eigenmode(domain)
    g = mesh.grad_norm_sq(phi)
    pw = mesh.lp_norm_p(phi, params.p)
    p = params.p
    lam_star = (g / pw) ** (1.0 / (p - 2.0))

    def j_of(s: float) -> float:
        return 0.5 * s * s * g - s**p * pw / p

    j_max = j_of(lam_star)
    target_j = fraction * wc.d
    if kind == "stable":
        if not 0.0 < fraction < 1.0:
            raise ValueError("stable target needs 0 < fraction < 1")
        if target_j >= j_max:
            raise InfeasibleTargetError(
                f"target energy {target_j} above peak {j_max} of this shape")
        lo, hi = 0.0, lam_star
        increasing = True
    elif kind == "unstable":
        if fraction <= 0.0:
            raise ValueError("unstable target needs fraction > 0")
        if target_j >= j_max:
            raise InfeasibleTargetError(
                f"target J-level {target_j} above peak {j_max} of this shape")
        hi = 2.0 * lam_star
        while j_of(hi) > target_j:
            hi *= 2.0
        lo = lam_star
        increasing = False
    else:
        raise ValueError(f"unknown target kind {kind!r}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (j_of(mid) < target_j) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    s = 0.5 * (lo + hi)
    u0 = GridField(domain, s * phi.values)
    return u0, GridField.zeros(domain)
