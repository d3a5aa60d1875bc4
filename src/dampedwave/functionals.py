"""Energy machinery: model parameters, states and the functionals I, J, E.

`energy_terms` is the one place that evaluates I, J and E, for a stack of
rows; `total_energy` applies it to one state.  The dissipation
-omega ||grad u_t||^2 - mu ||u_t||^2 of the energy identity is evaluated
at each step's midpoint by `solver.Stepper.dissipation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import GridField, row_dots, stiffness


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
        if not all(map(math.isfinite, (self.omega, self.mu, self.p))):
            raise ValueError("omega, mu and p must be finite")
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


def energy_terms(u: np.ndarray, au: np.ndarray, v: np.ndarray, w: float,
                 p: float) -> list[tuple[float, ...] | None]:
    """(E, I, J, kinetic, grad_sq, lp_p, l2_v) for each row of (K, n) node
    values, or None for a row whose u or v holds a NaN or Inf.

    `au` is A @ u and `w` the node weight; each row is reduced exactly as the
    mesh norms reduce one field, so the results agree bit for bit.
    """
    lp_sums = np.add.reduce(np.abs(u) ** p, axis=-1).tolist()
    v_sums = np.add.reduce(v**2, axis=-1).tolist()
    terms: list = []
    for uau, upp, vv in zip(row_dots(u, au), lp_sums, v_sums):
        grad_sq = max(w * uau, 0.0)
        lp_p = w * upp
        l2_v = w * vv
        kinetic = 0.5 * l2_v
        j = 0.5 * grad_sq - lp_p / p
        terms.append((j + kinetic, grad_sq - lp_p, j, kinetic, grad_sq, lp_p, l2_v))
    # a sum of |u|^p or v^2 is finite only if all its terms are, so the
    # entries need a look of their own only when a sum is not
    if not math.isfinite(sum(lp_sums) + sum(v_sums)):
        for r in range(len(terms)):
            if not (np.isfinite(u[r]).all() and np.isfinite(v[r]).all()):
                terms[r] = None
    return terms


def total_energy(state: SimState, params: ModelParams) -> EnergyReport:
    """I, J and E = J + kinetic energy of one state, with their norms."""
    domain = state.u.domain
    u = state.u.values[None]
    ((E, I, J, kinetic, grad_sq, lp_p, _),) = energy_terms(
        u, stiffness(domain)(u), state.v.values[None], domain.weight, params.p)
    return EnergyReport(t=state.t, I=I, J=J, E=E, kinetic=kinetic,
                        grad_sq=grad_sq, lp_p=lp_p)
