"""Exponential-decay certification via the perturbed-energy Lyapunov function.

The run loop records L = E + eps*<u_t, u> + (eps*omega/2)*||grad u||^2 in
the series' L column (`solver._Row.record`, with eps = `MonitorSet.epsilon`).
This module selects the constant chain delta -> eta -> M -> eps ->
(beta1, beta2) -> xi from the admissibility margin, and checks
dL/dt <= -xi L discretely on that column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .functionals import ModelParams
from .series import TimeSeries
from .well import WellConstants, admissibility_quantity


class HypothesesUnmetError(ValueError):
    """Initial energy is not below the well depth; no certificate exists."""


class SeriesDataError(ValueError):
    """Trajectory data contradicts positivity of the energy."""


FIT_FLOOR_FRACTION = 1e-12  # fit window: samples with E >= this fraction of E(0)


@dataclass(frozen=True)
class DecayCertificate:
    """The constant chain of the decay proof plus the fitted empirical rate.

    The certified rate xi = M*epsilon/beta2 follows from the chain.
    """

    delta: float
    eta: float
    M: float
    epsilon: float
    beta1: float
    beta2: float
    xi: float = field(init=False)
    xi_fitted: float = math.nan
    fit_r2: float = math.nan
    violated_at: float | None = None

    def __post_init__(self) -> None:
        for name in ("delta", "eta", "M", "epsilon"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"certificate constant {name} must be positive")
        if not 0.0 < self.beta1 <= self.beta2:
            raise ValueError("need 0 < beta1 <= beta2 (epsilon too large?)")
        object.__setattr__(self, "xi", self.M * self.epsilon / self.beta2)


def select_constants(E0: float, params: ModelParams,
                     wc: WellConstants) -> DecayCertificate:
    """Deterministic constant chain; requires the smallness condition on E0.

    With margin K < 1: delta sits at the midpoint of its feasibility range,
    M = eta, and eps at half its bound, so every strict inequality of the
    chain holds with slack in floating point.  For mu = 0 the velocity term
    is absorbed through omega*lambda1 instead of the frictional damping.
    """
    p, mu, omega = params.p, params.mu, params.omega
    if E0 < 0.0:
        raise HypothesesUnmetError(f"E0 = {E0} is negative")
    k = admissibility_quantity(E0, wc.c_star, p)
    if not k < 1.0:
        raise HypothesesUnmetError(
            f"smallness condition fails (K = {k} >= 1, i.e. E0 >= d)")
    eta = 0.5 * (1.0 - k)
    m = eta
    c0 = max(1.0, (p / (p - 2.0)) / wc.lambda1)
    if mu > 0:
        delta = (1.0 - k) / (2.0 * mu * wc.c_star**2)
        eps_damping = mu / (mu / (4.0 * delta) + 1.0 + m / 2.0)
    else:
        # Frictional damping absent: the eps*||u_t||^2 excess is absorbed by
        # the strong damping through the Poincare inequality.
        delta = 1.0
        eps_damping = omega * wc.lambda1 / (1.0 + m / 2.0)
    epsilon = 0.5 * min(eps_damping, 1.0 / (2.0 * c0))
    beta1 = 1.0 - epsilon * c0
    beta2 = 1.0 + epsilon * c0 + epsilon * omega * p / (p - 2.0)
    return DecayCertificate(delta=delta, eta=eta, M=m, epsilon=epsilon,
                            beta1=beta1, beta2=beta2)


def fit_exponential_rate(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y vs t; returns (decay rate, R^2)."""
    t = np.asarray(t, dtype=float)
    logy = np.log(np.asarray(y, dtype=float))
    if len(t) < 2:
        raise ValueError("need at least two samples to fit a rate")
    coeffs = np.polyfit(t, logy, 1)
    resid = logy - np.polyval(coeffs, t)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -coeffs[0], r2


def certify_decay(series: TimeSeries, cert: DecayCertificate,
                  tol_cert: float = 1e-6) -> DecayCertificate:
    """Check L(t_{k+1}) <= L(t_k) e^{-xi dt} (1 + tol_cert) at every sample.

    Records the first violation time, then fits the empirical rate on log E
    over the window where E is above a relative floor.
    """
    t = series.col("t")
    e = series.col("E")
    ell = series.col("L")
    if len(t) < 2:
        raise ValueError("series too short to certify")

    above = e >= FIT_FLOOR_FRACTION * e[0]
    cutoff = len(e) if bool(above.all()) else int(np.argmin(above))
    if cutoff < 2:
        raise SeriesDataError("energy fell below the fit floor immediately")
    if np.any(e[:cutoff] <= 0.0):
        raise SeriesDataError("non-positive energy inside the fit window")

    bad = ell[1:] > ell[:-1] * np.exp(-cert.xi * np.diff(t)) * (1.0 + tol_cert)
    violated_at = float(t[1:][bad.argmax()]) if bad.any() else None

    rate, r2 = fit_exponential_rate(t[:cutoff], e[:cutoff])
    return replace(cert, xi_fitted=rate, fit_r2=r2, violated_at=violated_at)


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    n_violations: int


def equivalence_check(series: TimeSeries, cert: DecayCertificate,
                      rtol: float = 1e-12) -> EquivalenceReport:
    """Verify beta1*E <= L <= beta2*E at every sample, up to relative slack."""
    e = series.col("E")
    ell = series.col("L")
    slack = rtol * (np.abs(e) + np.abs(ell))
    bad = np.logical_or(ell - cert.beta1 * e < -slack, cert.beta2 * e - ell < -slack)
    return EquivalenceReport(passed=not bad.any(), n_violations=int(bad.sum()))
