import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import lyapunov, well
from dampedwave.series import TimeSeries

WC_UNIT = well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0)


def field3(values):
    return dw.GridField(dw.interval(1.0, 3), values)


def l_at_start(state, params, epsilon):
    """The L column that `run` records at t = 0, the library's one L path."""
    series, _ = dw.run(state, params, dw.StepConfig(dt=1e-3), 1e-3,
                       dw.MonitorSet(epsilon=epsilon))
    return series.col("L")[0]


class TestLyapunovL:
    def test_zero_state(self):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        z = dw.GridField.zeros(dw.interval(1.0, 3))
        assert l_at_start(dw.SimState(0.0, z, z), params, 0.1) == 0.0

    def test_reduces_to_energy(self):
        params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
        u = field3([1, 2, 1])
        state = dw.SimState.rest(u)
        e = dw.total_energy(state, params).E
        assert l_at_start(state, params, 0.3) == pytest.approx(e, rel=1e-14)

    def test_hand_value(self):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        u = field3([1, 1, 1])
        state = dw.SimState(0.0, u, u)
        assert l_at_start(state, params, 0.1) == pytest.approx(4.6625)


class TestSelectConstants:
    def _wc_with_k(self, k):
        # choose E0 so the admissibility quantity equals k for C*=1, p=4
        e0 = k / 4.0
        return e0

    def test_plugin_arithmetic(self):
        params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
        e0 = self._wc_with_k(0.5)
        cert = dw.select_constants(e0, params, WC_UNIT)
        assert cert.delta == pytest.approx(0.25)
        assert cert.eta == pytest.approx(0.25)
        assert cert.M == pytest.approx(0.25)
        c0 = max(1.0, 2.0 / WC_UNIT.lambda1)
        assert cert.epsilon == pytest.approx(
            0.5 * min(1.0 / (1.0 + 1.0 + 0.125), 1.0 / (2 * c0)))
        # strict feasibility of the delta inequality
        assert 1.0 * 1.0 * cert.delta + 0.5 - 1.0 == pytest.approx(-0.25)

    def test_certificate_invariants(self, wc63_p4):
        params = dw.ModelParams(omega=0.5, mu=1.0, p=4.0)
        e0 = 0.3 * wc63_p4.d
        cert = dw.select_constants(e0, params, wc63_p4)
        k = well.admissibility_quantity(e0, wc63_p4.c_star, 4.0)
        assert params.mu * wc63_p4.c_star**2 * cert.delta + k - 1.0 < 0.0
        assert cert.epsilon * (params.mu / (4 * cert.delta) + 1 + cert.M / 2) \
            - params.mu < 0.0
        assert 0 < cert.beta1 <= cert.beta2
        assert cert.xi == pytest.approx(cert.M * cert.epsilon / cert.beta2)

    def test_small_energy_limit(self):
        params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
        cert = dw.select_constants(1e-12, params, WC_UNIT)
        assert cert.eta == pytest.approx(0.5, rel=1e-5)
        assert cert.M == pytest.approx(0.5, rel=1e-5)

    def test_rejects_supercritical_energy(self, wc63_p4):
        params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
        with pytest.raises(lyapunov.HypothesesUnmetError):
            dw.select_constants(wc63_p4.d * 1.01, params, wc63_p4)

    def test_rejects_negative_energy(self):
        params = dw.ModelParams(omega=0.0, mu=1.0, p=4.0)
        with pytest.raises(lyapunov.HypothesesUnmetError, match="negative"):
            dw.select_constants(-1e-3, params, WC_UNIT)

    def test_mu_zero_path(self, wc63_p4):
        params = dw.ModelParams(omega=0.5, mu=0.0, p=4.0)
        cert = dw.select_constants(0.3 * wc63_p4.d, params, wc63_p4)
        assert cert.xi > 0
        assert cert.beta1 > 0

    def test_rate_positive_and_monotone_in_energy(self, wc63_p4):
        params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)
        fractions = np.linspace(0.05, 0.95, 10)
        certs = [dw.select_constants(f * wc63_p4.d, params, wc63_p4)
                 for f in fractions]
        xis = [c.xi for c in certs]
        assert all(x > 0 for x in xis)
        assert all(a >= b for a, b in zip(xis, xis[1:]))
        etas = [c.eta for c in certs]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_adversarial_epsilon_rejected(self):
        with pytest.raises(ValueError):
            lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5, epsilon=2.0,
                                      beta1=-1.0, beta2=3.0)

    def test_xi_is_derived_from_the_chain(self):
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5, epsilon=0.1,
                                         beta1=0.9, beta2=1.1)
        assert cert.xi == 0.5 * 0.1 / 1.1
        with pytest.raises(TypeError):
            lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5, epsilon=0.1,
                                      beta1=0.9, beta2=1.1, xi=0.5)


def synthetic_series(t, e, ell=None):
    ell = e if ell is None else ell
    return TimeSeries.from_arrays(t=t, E=e, L=ell)


class TestCertifyDecay:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 10.0, 500)
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.5, beta1=0.5, beta2=0.5)
        done = dw.certify_decay(synthetic_series(t, np.exp(-t)), cert,
                                tol_cert=1e-9)
        assert done.violated_at is None
        assert done.xi_fitted == pytest.approx(1.0, abs=1e-6)
        assert done.fit_r2 > 0.999999

    def test_bump_is_flagged(self):
        t = np.array([0.0, 1.0, 2.0])
        ell = np.array([1.0, 2.0, 0.1])
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.5, beta1=0.5, beta2=0.5)
        done = dw.certify_decay(synthetic_series(t, np.exp(-t), ell), cert)
        assert done.violated_at == pytest.approx(1.0)

    def test_first_violation_matches_the_sample_loop(self, rng):
        """The array test finds the sample that a loop over samples finds."""
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.5, beta1=0.5, beta2=0.5)
        tol = 1e-6

        def by_loop(t, ell):
            for k in range(len(t) - 1):
                bound = ell[k] * math.exp(-cert.xi * (t[k + 1] - t[k])) * (1.0 + tol)
                if ell[k + 1] > bound:
                    return float(t[k + 1])
            return None

        for trial in range(20):
            t = np.cumsum(rng.uniform(1e-3, 1e-2, 300))
            ell = np.exp(-0.6 * t)
            if trial % 4:
                ell[rng.integers(1, 300, size=trial % 4)] *= 1.01
            series = synthetic_series(t, ell)
            want = by_loop(t, ell)
            assert (want is None) == (trial % 4 == 0)
            assert dw.certify_decay(series, cert, tol).violated_at == want

    def test_energy_below_the_fit_floor_at_once_rejected(self):
        t = np.array([0.0, 1.0, 2.0])
        e = np.array([1.0, -0.5, 0.2])
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.5, beta1=0.5, beta2=0.5)
        with pytest.raises(lyapunov.SeriesDataError,
                           match="fell below the fit floor immediately"):
            dw.certify_decay(synthetic_series(t, e), cert)

    def test_short_series_and_nonpositive_window_rejected(self):
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.5, beta1=0.5, beta2=0.5)
        with pytest.raises(ValueError, match="too short"):
            dw.certify_decay(synthetic_series(np.zeros(1), np.ones(1)), cert)
        # E(0) = 0 puts the fit floor at 0, so the window is the whole series
        t, e = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5])
        with pytest.raises(lyapunov.SeriesDataError, match="inside the fit window"):
            dw.certify_decay(synthetic_series(t, e), cert)


class TestEquivalence:
    def test_rest_samples_with_omega_zero(self):
        t = np.linspace(0, 1, 5)
        e = np.exp(-t)
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.1, beta1=0.9, beta2=1.1)
        report = dw.equivalence_check(synthetic_series(t, e), cert)
        assert report.passed
        assert report.n_violations == 0

    def test_violation_counted(self):
        t = np.array([0.0, 1.0])
        e = np.array([1.0, 1.0])
        ell = np.array([1.0, 5.0])
        cert = lyapunov.DecayCertificate(delta=1.0, eta=0.5, M=0.5,
                                         epsilon=0.1, beta1=0.9, beta2=1.1)
        report = dw.equivalence_check(synthetic_series(t, e, ell), cert)
        assert not report.passed
        assert report.n_violations == 1


def test_fit_exponential_rate_exact():
    t = np.linspace(0, 5, 100)
    rate, r2 = lyapunov.fit_exponential_rate(t, 3.0 * np.exp(-0.7 * t))
    assert rate == pytest.approx(0.7, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
