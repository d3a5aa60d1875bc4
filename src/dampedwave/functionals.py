"""Energy machinery: the functionals I, J, E and the dissipation identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import GridField, grad_norm_sq, l2_norm_sq, lp_norm_p


@dataclass(frozen=True)
class ModelParams:
    """PDE coefficients for u_tt + A u + omega*A u_t + mu*u_t = u|u|^(p-2).

    `diagnostic` permits the undamped (omega = mu = 0) conservative mode and
    marks runs whose monitors are not backed by the damped theory.
    `source_enabled=False` drops the nonlinearity (linear-mode oracles).
    """

    omega: float
    mu: float
    p: float
    source_enabled: bool = True
    diagnostic: bool = False

    def __post_init__(self) -> None:
        if self.omega < 0 or self.mu < 0:
            raise ValueError("damping coefficients must be nonnegative")
        if self.omega == 0 and self.mu == 0 and not self.diagnostic:
            raise ValueError("need omega + mu > 0 (or diagnostic=True)")
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


def source_term(u: GridField, params: ModelParams) -> GridField:
    """Nodewise nonlinearity u|u|^(p-2)."""
    vals = u.values
    return GridField(u.domain, vals * np.abs(vals) ** (params.p - 2.0))


def functional_I(u: GridField, params: ModelParams) -> float:
    """I(u) = ||grad u||_2^2 - ||u||_p^p."""
    return grad_norm_sq(u) - lp_norm_p(u, params.p)


def functional_J(u: GridField, params: ModelParams) -> float:
    """J(u) = 1/2 ||grad u||_2^2 - 1/p ||u||_p^p."""
    return 0.5 * grad_norm_sq(u) - lp_norm_p(u, params.p) / params.p


def total_energy(state: SimState, params: ModelParams) -> EnergyReport:
    """E = J + kinetic energy, with cached constituent norms."""
    grad_sq = grad_norm_sq(state.u)
    lp_p = lp_norm_p(state.u, params.p)
    kinetic = 0.5 * l2_norm_sq(state.v)
    j = 0.5 * grad_sq - lp_p / params.p
    return EnergyReport(
        t=state.t,
        I=grad_sq - lp_p,
        J=j,
        E=j + kinetic,
        kinetic=kinetic,
        grad_sq=grad_sq,
        lp_p=lp_p,
    )


def dissipation_rate(state: SimState, params: ModelParams) -> float:
    """dE/dt = -omega ||grad u_t||_2^2 - mu ||u_t||_2^2 (always <= 0)."""
    return -params.omega * grad_norm_sq(state.v) - params.mu * l2_norm_sq(state.v)
