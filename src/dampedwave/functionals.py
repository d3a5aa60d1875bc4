"""Energy machinery: the functionals I, J, E and the dissipation identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (CorruptFieldError, GridField, grad_norm_sq, l2_norm_sq,
                   lp_norm_p, stiffness_matrix)


@dataclass(frozen=True)
class ModelParams:
    """PDE coefficients for u_tt + A u + omega*A u_t + mu*u_t = u|u|^(p-2).

    The damped theory needs omega + mu > 0; on 1D and 2D domains every
    p > 2 is admissible.
    """

    omega: float
    mu: float
    p: float

    def __post_init__(self) -> None:
        if self.omega < 0 or self.mu < 0:
            raise ValueError("damping coefficients must be nonnegative")
        if self.omega == 0 and self.mu == 0:
            raise ValueError("need omega + mu > 0")
        if self.p <= 2:
            raise ValueError(f"source exponent must satisfy p > 2, got {self.p}")


@dataclass(frozen=True, eq=False)
class SimState:
    """Dynamical state (t, u, u_t)."""

    t: float
    u: GridField
    v: GridField

    def __post_init__(self) -> None:
        if self.u.domain != self.v.domain:
            raise ValueError("u and v must share a domain")

    @classmethod
    def rest(cls, u0: GridField, t: float = 0.0) -> "SimState":
        return cls(t, u0, GridField.zeros(u0.domain))


@dataclass(frozen=True)
class EnergyReport:
    """I, J, E and their constituent norms at one time."""

    t: float
    I: float
    J: float
    E: float
    kinetic: float
    grad_sq: float
    lp_p: float


def functional_I(u: GridField, params: ModelParams) -> float:
    """I(u) = ||grad u||_2^2 - ||u||_p^p."""
    return grad_norm_sq(u) - lp_norm_p(u, params.p)


def functional_J(u: GridField, params: ModelParams) -> float:
    """J(u) = 1/2 ||grad u||_2^2 - 1/p ||u||_p^p."""
    return 0.5 * grad_norm_sq(u) - lp_norm_p(u, params.p) / params.p


def energy_terms(u: np.ndarray, au: np.ndarray, v: np.ndarray, w: float,
                 p: float) -> tuple[float, ...]:
    """(E, I, J, kinetic, grad_sq, lp_p, l2_v) from raw node values.

    `au` is A @ u and `w` the node weight; the terms are reduced exactly as
    the mesh norms reduce them, so the results agree bit for bit.
    """
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise CorruptFieldError("field contains NaN or Inf")
    grad_sq = max(w * float(u @ au), 0.0)
    lp_p = w * float(np.sum(np.abs(u) ** p))
    l2_v = w * float(np.sum(v**2))
    kinetic = 0.5 * l2_v
    j = 0.5 * grad_sq - lp_p / p
    return j + kinetic, grad_sq - lp_p, j, kinetic, grad_sq, lp_p, l2_v


def total_energy(state: SimState, params: ModelParams) -> EnergyReport:
    """E = J + kinetic energy, with cached constituent norms."""
    domain = state.u.domain
    u = state.u.values
    E, I, J, kinetic, grad_sq, lp_p, _ = energy_terms(
        u, stiffness_matrix(domain) @ u, state.v.values, domain.weight, params.p)
    return EnergyReport(t=state.t, I=I, J=J, E=E, kinetic=kinetic,
                        grad_sq=grad_sq, lp_p=lp_p)


def dissipation_rate(state: SimState, params: ModelParams) -> float:
    """dE/dt = -omega ||grad u_t||_2^2 - mu ||u_t||_2^2 (always <= 0)."""
    return -params.omega * grad_norm_sq(state.v) - params.mu * l2_norm_sq(state.v)
