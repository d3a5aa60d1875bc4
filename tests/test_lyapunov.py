import itertools
import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import lyapunov, mesh, well
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


DAMPED = ((0.0, 1.0), (0.1, 0.0), (0.1, 1.0), (1.0, 0.0), (1.0, 1.0))  # AC-2's
LEVELS = (0.5, 0.9, 0.99)  # E0 / d


def stiffness_eigenvalues(domain, per_axis=None):
    """The eigenvalues of A, the closed form (2/h^2)(1 - cos(k pi h/extent))
    per axis summed over the axes, for mode numbers k = 1 .. per_axis (all
    of them by default) on every axis, in the row-major order of the modes."""
    lam = np.zeros(())
    for axis, (m, ha, ext) in enumerate(zip(domain.n, domain.h, domain.extents)):
        k = np.arange(1, (per_axis or m) + 1)
        shape = [1] * domain.dim
        shape[axis] = -1
        lam = lam + ((2.0 / ha**2) * (1.0 - np.cos(k * math.pi * ha / ext))).reshape(shape)
    return lam.reshape(-1)


def sublevel_worst(domain, wc, params, level, rng, n_mix=24, n_scale=16):
    """The worst (L' + xi L)/E and the worst equivalence excess
    max((beta1 E - L)/E, (L - beta2 E)/E) over states of {E <= E0, I >= 0},
    E0 = level d, under the certificate `select_constants` gives at E0; and
    whether every state passes with a rounding slack.

    u runs over n_mix random mixes of the sine modes of number at most 4 (8
    in 1D) per axis, each scaled by n_scale fractions of the largest scale
    on the rising branch of J with J(u) <= E0.  On the semi-discrete system
    u' = v, v' = -A u - omega A v - mu v + u|u|^(p-2), with the weighted forms
    (a, b) = w a.b, |grad a|^2 = (a, A a) and |u|_p^p = w sum |u|^p, and with
    L = E + eps (v, u) + eps omega |grad u|^2 / 2,

        L' = -omega |grad v|^2 - (mu - eps)|v|^2 - eps |grad u|^2
             - eps mu (v, u) + eps |u|_p^p.

    For a given u, L' + xi L is a quadratic in v over the ball
    |v|^2 <= 2 (E0 - J(u)).  A is diagonal in the orthonormal sine basis and
    the linear term lies in u's modes, so its maximum (the trust-region
    subproblem; Conn, Gould and Toint, Trust-Region Methods, 7.2) has the
    coordinates b / (2 (h + sigma)) in those modes, with sigma >= 0 from the
    scalar secular equation |v| = radius unless sigma = 0 gives a v inside
    the ball.  h grows with lam, so its least entry is mode 1's, which every
    mix holds: the hard case, which needs other modes, does not arise.
    Each half of the equivalence depends on v only through |v|^2 and
    (v, u), so its worst v lies along u.
    """
    p, omega, mu = params.p, params.omega, params.mu
    e0 = level * wc.d
    cert = dw.select_constants(e0, params, wc)
    eps, xi, beta1, beta2 = cert.epsilon, cert.xi, cert.beta1, cert.beta2
    w, per_axis = domain.weight, 8 if domain.dim == 1 else 4
    modes = list(itertools.product(range(1, per_axis + 1), repeat=domain.dim))
    lam = stiffness_eigenvalues(domain, per_axis)
    psi = np.array([mesh.eigenmode(domain, k).values for k in modes])
    psi /= np.sqrt(w * np.einsum("ij,ij->i", psi, psi))[:, None]
    a_of = mesh.stiffness(domain)
    assert np.allclose(a_of(psi), lam[:, None] * psi, rtol=0, atol=1e-9 * lam.max())

    c = rng.standard_normal((n_mix, len(modes)))
    c /= np.linalg.norm(c, axis=1)[:, None]
    ubar = c @ psi
    grad1 = w * np.einsum("ij,ij->i", ubar, a_of(ubar))
    lp1 = w * np.sum(np.abs(ubar) ** p, axis=1)
    # J(s ubar) rises on [0, s_nehari]; it passes d > E0 there
    lo, hi = np.zeros(n_mix), (grad1 / lp1) ** (1.0 / (p - 2.0))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = 0.5 * mid**2 * grad1 - mid**p * lp1 / p <= e0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    scale = lo[:, None] * np.linspace(1.0 / n_scale, 1.0, n_scale)
    u = (scale[..., None] * ubar[:, None, :]).reshape(-1, ubar.shape[1])
    uh = (scale[..., None] * c[:, None, :]).reshape(-1, len(modes))  # (u, psi_k)
    grad = w * np.einsum("ij,ij->i", u, a_of(u))
    lp = w * np.sum(np.abs(u) ** p, axis=1)
    j_u = 0.5 * grad - lp / p
    assert np.all(grad - lp >= -1e-12 * grad) and np.all(j_u <= e0 * (1.0 + 1e-12))
    radius = np.sqrt(np.maximum(2.0 * (e0 - j_u), 0.0))

    # L' + xi L = -sum h a^2 + b.a + const in the sine coordinates a of v
    h = omega * lam + mu - eps - 0.5 * xi
    b = eps * (xi - mu) * uh
    b_norm = np.linalg.norm(b, axis=1)

    def v_of(sigma):
        return b / (2.0 * (h + sigma[:, None]))

    lo = np.full(len(u), max(0.0, -h.min()))
    hi = lo + b_norm / (2.0 * np.maximum(radius, 1e-300))
    inside = (h.min() > 0) & (np.linalg.norm(v_of(np.zeros(len(u))), axis=1) <= radius)
    hi[inside] = lo[inside] = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        out = np.linalg.norm(v_of(mid), axis=1) > radius
        lo, hi = np.where(out, mid, lo), np.where(out, hi, mid)
    a = np.where((radius > 0)[:, None], v_of(hi), 0.0)
    vv, gv, vu = (a * a).sum(1), (lam * a * a).sum(1), (a * uh).sum(1)
    energy = 0.5 * vv + j_u
    ell = energy + eps * vu + 0.5 * eps * omega * grad
    dell = -omega * gv - (mu - eps) * vv - eps * grad - eps * mu * vu + eps * lp
    size = (omega * gv + (mu + eps) * vv + eps * grad + eps * mu * abs(vu)
            + eps * lp + xi * abs(ell))
    decay = dell + xi * ell

    # beta1 E <= L <= beta2 E: sign (L - beta E) at v = t u/|u| is a
    # quadratic in t, least at an end of [-radius, radius] or at its vertex
    u_norm = np.sqrt(w * np.einsum("ij,ij->i", u, u))
    ok = bool(np.all(decay <= 1e-12 * size))
    excess = -math.inf
    for beta, sign in ((beta1, 1.0), (beta2, -1.0)):
        curv = sign * (1.0 - beta)
        ts = [radius, -radius]
        if curv > 0:
            ts.append(np.clip(-sign * eps * u_norm / curv, -radius, radius))
        for t in ts:
            e_t = 0.5 * t * t + j_u
            gap = curv * e_t + sign * (eps * t * u_norm + 0.5 * eps * omega * grad)
            excess = max(excess, float(np.max(-gap / e_t)))
            ok &= bool(np.all(gap >= -1e-12 * (1.0 + beta) * e_t))
    return float(np.max(decay / energy)), excess, ok


@pytest.mark.parametrize("domain", (dw.interval(1.0, 63), dw.rectangle((1.5, 1.0), (23, 15))),
                         ids=("interval", "rectangle"))
def test_lyapunov_inequality_over_the_sublevel_set(domain):
    """L' <= -xi L and beta1 E <= L <= beta2 E at every state searched of
    {E <= E0, I >= 0}, with only a rounding slack: the certificate's claim
    over the whole sublevel set, not along one trajectory (Haraux and
    Zuazua, ARMA 100, 1988; the well of Payne and Sattinger, Israel J.
    Math. 22, 1975), for p = 3, 4, 6, AC-2's damped (omega, mu) and
    E0/d = 0.5, 0.9, 0.99."""
    rng = np.random.default_rng(20881)
    failures = []
    for p in (3.0, 4.0, 6.0):
        wc = dw.well_constants(domain, p)
        for omega, mu in DAMPED:
            params = dw.ModelParams(omega=omega, mu=mu, p=p)
            for level in LEVELS:
                decay, equiv, ok = sublevel_worst(domain, wc, params, level, rng)
                if not ok:
                    failures.append((p, omega, mu, level, decay, equiv))
    assert not failures


def spectral_rate(domain, params):
    """min over the discrete modes of -2 Re s, s the slower root of
    s^2 + (omega lam + mu) s + lam = 0: the slowest linear energy decay."""
    lam = stiffness_eigenvalues(domain)
    b = params.omega * lam + params.mu
    disc = b * b - 4.0 * lam
    # b - sqrt(disc) for real roots, without its cancellation; b for complex
    rate = np.where(disc < 0, b, 4.0 * lam / (b + np.sqrt(np.maximum(disc, 0.0))))
    return float(rate.min())


@pytest.mark.parametrize("domain, points", [
    (dw.interval(1.0, 63), [(p, omega, mu) for p in (3.0, 4.0, 6.0)
                            for omega, mu in DAMPED]),
    # the rectangle-decay workload's three points
    (dw.rectangle((1.5, 1.0), (47, 31)), [(4.0, 1.0, 1.0), (3.0, 0.1, 1.0), (4.0, 0.0, 1.0)]),
], ids=("interval", "rectangle"))
def test_xi_stays_under_the_spectral_rate(domain, points):
    """The certificate bounds E(t) <= (beta2/beta1) E0 e^(-xi t) from every
    state of its level, data along the slowest mode included, which decay
    at that mode's linear rate once small: so xi cannot exceed it."""
    excess = []
    for p, omega, mu in points:
        wc = dw.well_constants(domain, p)
        params = dw.ModelParams(omega=omega, mu=mu, p=p)
        bound = spectral_rate(domain, params)
        for level in LEVELS:
            xi = dw.select_constants(level * wc.d, params, wc).xi
            if not xi <= bound:
                excess.append((p, omega, mu, level, xi, bound))
    assert not excess
