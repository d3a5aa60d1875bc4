import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import mesh, well


def _continuum_c_star(length, p):
    """Sharp constant of H^1_0(0, L) -> L^p, after E. Schmidt (1940).

    From the first integral of the extremal's equation -u'' = u^(p-1).
    """
    def beta(x, y):
        return math.gamma(x) * math.gamma(y) / math.gamma(x + y)

    peak = ((length / 2) * p / (math.sqrt(p / 2) * beta(1 / p, 0.5))) ** (
        1 / (1 - p / 2))
    integral = 2 * math.sqrt(p / 2) * peak ** (p / 2 + 1) * beta(1 + 1 / p, 0.5) / p
    return integral ** (-(p - 2) / (2 * p))


class TestValidateExponent:
    """On 1D and 2D domains every p > 2 is admissible, whatever the damping."""

    def test_low_dimensions_unbounded(self):
        dw.ModelParams(omega=0.0, mu=1.0, p=17.0)
        for dom in (dw.interval(1.0, 15), dw.rectangle((1.0, 1.5), (5, 7))):
            c_star, _ = dw.compute_c_star(dom, 17.0)
            assert math.isfinite(c_star) and c_star > 0

    @pytest.mark.parametrize("p", [12.0, 17.0])
    def test_large_p_on_rectangle_is_global(self, p, lbfgs_c_star):
        """At large p the ratio has many local minima, spikes at single nodes.

        White-noise starts end in spikes near the boundary, with a lower C*,
        so the L-BFGS oracle starts from randomly perturbed eigenmodes; it
        must find no lower ratio than the computed minimizer.
        """
        dom = dw.rectangle((1.5, 1.0), (47, 31))
        c_star, _ = dw.compute_c_star(dom, p)
        phi = mesh.eigenmode(dom).values
        rng = np.random.default_rng(123)
        oracle = lbfgs_c_star(dom, p, [phi * (1 + 0.5 * rng.uniform(-1, 1, dom.size))
                                       for _ in range(16)])
        assert abs(oracle - c_star) <= 1e-6
        assert oracle <= c_star * (1 + 1e-9)
        if p == 17.0:
            assert c_star > 0.56  # a spike near the boundary gives 0.4876

    def test_p_below_2_rejected(self, dom3):
        for p in (2.0, 1.5):
            with pytest.raises(ValueError, match="p > 2"):
                dw.ModelParams(omega=1.0, mu=1.0, p=p)
            with pytest.raises(ValueError, match="p > 2"):
                dw.compute_c_star(dom3, p)


class TestWellConstants:
    def test_plugin_identities(self):
        wc = well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0)
        assert wc.d == pytest.approx(0.25)
        assert wc.beta == pytest.approx(1.0)

    def test_d_and_beta_are_derived_only(self):
        with pytest.raises(TypeError):
            well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0, d=0.25)
        with pytest.raises(ValueError, match="outside the float range"):
            well.WellConstants(c_star=0.1, p=2.005, lambda1=1.0)

    def test_beta_squared_relation(self, wc63_p4):
        p = wc63_p4.p
        assert wc63_p4.beta**2 == pytest.approx(2 * p / (p - 2) * wc63_p4.d,
                                                rel=1e-14)

    def test_embedding_inequality_random_fields(self, dom63, wc63_p4, rng):
        for _ in range(200):
            u = dw.GridField(dom63, rng.standard_normal(dom63.size))
            lp = mesh.lp_norm_p(u, 4.0) ** 0.25
            grad = math.sqrt(mesh.grad_norm_sq(u))
            assert lp <= wc63_p4.c_star * grad * (1 + 1e-8)

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 17.0])
    def test_second_order_convergence_to_continuum(self, p):
        exact = _continuum_c_star(1.0, p)
        errors = [abs(dw.compute_c_star(dw.interval(1.0, n), p)[0] - exact)
                  for n in (31, 63, 127, 255)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.1)

    def test_fine_grid_stops_at_a_fixed_point(self):
        # at n=2047 the relative gradient's rounding floor (about 1.8e-10)
        # lies above GRAD_TOL, so the fixed-point test ends it
        stats = {}
        c_star, _ = dw.compute_c_star(dw.interval(1.0, 2047), 4.0, stats=stats)
        assert stats["residual"] >= well.GRAD_TOL
        assert c_star == pytest.approx(_continuum_c_star(1.0, 4.0), rel=2e-7)

    def test_seed_has_no_effect(self):
        for dom in (dw.interval(1.0, 63), dw.rectangle((1.5, 1.0), (47, 31))):
            wc0 = dw.well_constants(dom, 4.0, dw.MinimizeOpts(seed=0))
            wc1 = dw.well_constants(dom, 4.0, dw.MinimizeOpts(seed=12345))
            assert wc0 == wc1

    def test_monotone_refinement(self):
        values = [dw.compute_c_star(dw.interval(1.0, n), 4.0)[0]
                  for n in (31, 63, 127)]
        gaps = [abs(values[0] - values[1]), abs(values[1] - values[2])]
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.3)

    def test_minimizer_normalized(self, dom63):
        c_star, u = dw.compute_c_star(dom63, 4.0)
        assert mesh.lp_norm_p(u, 4.0) == pytest.approx(1.0, abs=1e-12)
        assert u.values.max() > 0
        assert c_star == pytest.approx(1.0 / math.sqrt(mesh.grad_norm_sq(u)),
                                       rel=1e-12)

    def test_depth_is_nehari_minimum_at_minimizer(self, dom63, wc63_p4):
        _, u = dw.compute_c_star(dom63, 4.0)
        lam = dw.nehari_scale(u, 4.0)
        proj = dw.GridField(dom63, lam * u.values)
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        j = dw.total_energy(dw.SimState.rest(proj), params).J
        assert j == pytest.approx(wc63_p4.d, abs=1e-6)

    def test_depth_bounds_random_projections(self, dom63, wc63_p4, rng):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        for _ in range(50):
            u = dw.GridField(dom63, rng.standard_normal(dom63.size))
            lam = dw.nehari_scale(u, 4.0)
            proj = dw.GridField(dom63, lam * u.values)
            j = dw.total_energy(dw.SimState.rest(proj), params).J
            assert j >= wc63_p4.d * (1 - 1e-9)

    def test_invalid_exponent_rejected(self, dom63):
        with pytest.raises(ValueError):
            dw.compute_c_star(dom63, 2.0)

    def test_unconverged_reports_best_residual(self, dom63, monkeypatch):
        monkeypatch.setattr(well, "MAX_ITER", 1)
        with pytest.raises(well.ConvergenceError) as info:
            dw.compute_c_star(dom63, 4.0)
        best = info.value.best_residual
        assert math.isfinite(best)
        assert best >= well.GRAD_TOL
        assert f"{best:.3e}" in str(info.value)
        assert "start" not in str(info.value)
        assert "MAX_ITER=1 " in str(info.value)


class TestNehariScale:
    def test_hand_value(self, dom3):
        u = dw.GridField(dom3, [1, 1, 1])
        assert dw.nehari_scale(u, 4.0) == pytest.approx(math.sqrt(8 / 0.75))

    def test_fixed_point(self, dom3):
        u = dw.GridField(dom3, [1, 1, 1])
        lam = dw.nehari_scale(u, 4.0)
        on_manifold = dw.GridField(dom3, lam * u.values)
        assert dw.nehari_scale(on_manifold, 4.0) == pytest.approx(1.0, rel=1e-10)

    def test_projection_zeroes_I(self, dom63, rng):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        u = dw.GridField(dom63, rng.standard_normal(dom63.size))
        lam = dw.nehari_scale(u, 4.0)
        proj = dw.GridField(dom63, lam * u.values)
        scale = mesh.grad_norm_sq(proj)
        i = dw.total_energy(dw.SimState.rest(proj), params).I
        assert abs(i) <= 1e-10 * scale

    def test_maximizes_J(self, dom3):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        u = dw.GridField(dom3, [1, 1, 1])
        lam = dw.nehari_scale(u, 4.0)

        def j_at(scale):
            state = dw.SimState.rest(dw.GridField(dom3, scale * u.values))
            return dw.total_energy(state, params).J

        j_star = j_at(lam)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert j_star >= j_at(factor * lam)

    def test_zero_rejected(self, dom3):
        with pytest.raises(ValueError):
            dw.nehari_scale(dw.GridField.zeros(dom3), 4.0)

    def test_beta_is_distance_to_manifold(self, dom63, wc63_p4, rng):
        for _ in range(50):
            u = dw.GridField(dom63, rng.standard_normal(dom63.size))
            lam = dw.nehari_scale(u, 4.0)
            proj = dw.GridField(dom63, lam * u.values)
            assert math.sqrt(mesh.grad_norm_sq(proj)) >= wc63_p4.beta - 1e-6


class TestClassify:
    params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)

    def test_zero_in_n_plus(self, dom3, wc63_p4):
        wc = well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0)
        state = dw.SimState.rest(dw.GridField.zeros(dom3))
        cls = dw.classify(state, self.params, wc)
        assert cls.category == "N_plus"
        assert cls.in_W

    def test_hand_positive(self, dom3):
        wc = well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0)
        state = dw.SimState.rest(dw.GridField(dom3, [1, 1, 1]))
        cls = dw.classify(state, self.params, wc)
        assert cls.category == "N_plus"
        assert cls.I == pytest.approx(7.25)

    def test_scaled_past_manifold_negative(self, dom3):
        wc = well.WellConstants(c_star=1.0, p=4.0, lambda1=1.0)
        lam = 2 * math.sqrt(8 / 0.75)
        state = dw.SimState.rest(dw.GridField(dom3, lam * np.ones(3)))
        assert dw.classify(state, self.params, wc).category == "N_minus"

    def test_on_manifold_dead_band(self, dom63, wc63_p4, rng):
        u = dw.GridField(dom63, rng.standard_normal(dom63.size))
        lam = dw.nehari_scale(u, 4.0)
        state = dw.SimState.rest(dw.GridField(dom63, lam * u.values))
        assert dw.classify(state, self.params, wc63_p4).category == "N_zero"


class TestPrepareInitialData:
    params = dw.ModelParams(omega=0.1, mu=1.0, p=4.0)

    def test_stable_hits_energy_target(self, dom63, wc63_p4):
        u0, u1 = dw.prepare_initial_data(dom63, self.params, wc63_p4,
                                         ("stable", 0.5))
        state = dw.SimState(0.0, u0, u1)
        e0 = dw.total_energy(state, self.params).E
        assert e0 == pytest.approx(0.5 * wc63_p4.d, abs=1e-10 * wc63_p4.d)
        cls = dw.classify(state, self.params, wc63_p4)
        assert cls.category == "N_plus"
        assert cls.in_W
        assert cls.smallness_holds
        assert not u1.values.any()

    def test_stable_admissibility_quantity(self, dom63, wc63_p4):
        u0, u1 = dw.prepare_initial_data(dom63, self.params, wc63_p4,
                                         ("stable", 0.5))
        e0 = dw.total_energy(dw.SimState(0.0, u0, u1), self.params).E
        assert well.admissibility_quantity(e0, wc63_p4.c_star, 4.0) < 1.0

    def test_unstable_target(self, dom63, wc63_p4):
        u0, u1 = dw.prepare_initial_data(dom63, self.params, wc63_p4,
                                         ("unstable", 0.9))
        cls = dw.classify(dw.SimState(0.0, u0, u1), self.params, wc63_p4)
        assert cls.category == "N_minus"
        assert cls.J <= wc63_p4.d
        assert cls.in_U

    @pytest.mark.parametrize("kind, fraction", [
        ("stable", 1e-6), ("stable", 0.5), ("stable", 0.999999),
        ("unstable", 1e-6), ("unstable", 0.5), ("unstable", 0.999999)])
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_scale_matches_a_full_bisection(self, dom63, kind, fraction, p):
        """Stopping once the bracket holds no float between its ends gives the
        scale that all 200 bisection steps give."""
        wc = dw.well_constants(dom63, p)
        phi = mesh.eigenmode(dom63)
        g, pw = mesh.grad_norm_sq(phi), mesh.lp_norm_p(phi, p)
        lam = dw.nehari_scale(phi, p)
        target = fraction * wc.d
        rising = kind == "stable"

        def j_of(s):
            return 0.5 * s * s * g - s**p * pw / p

        lo, hi = (0.0, lam) if rising else (lam, 2.0 * lam)
        while not rising and j_of(hi) > target:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (j_of(mid) < target) == rising:
                lo = mid
            else:
                hi = mid
        u0, _ = dw.prepare_initial_data(dom63, dw.ModelParams(omega=0.1, mu=1.0, p=p),
                                        wc, (kind, fraction))
        assert u0.values.tobytes() == (0.5 * (lo + hi) * phi.values).tobytes()

    @pytest.mark.parametrize("p", [1500, 3000])
    def test_unstable_target_at_large_exponent(self, p):
        """Past the Nehari scale s^p leaves the float range; the data still
        land past the manifold at the asked J-level."""
        dom = dw.interval(1.0, 31)
        params = dw.ModelParams(omega=0.0, mu=1.0, p=p)
        wc = dw.well_constants(dom, p)
        u0, u1 = dw.prepare_initial_data(dom, params, wc, ("unstable", 0.5))
        cls = dw.classify(dw.SimState(0.0, u0, u1), params, wc)
        assert cls.category == "N_minus" and cls.in_U
        assert cls.J == pytest.approx(0.5 * wc.d, rel=1e-9)

    @pytest.mark.parametrize("target, message", [
        (("bogus", 0.5), "unknown target kind"), (("unstable", 0.0), "fraction > 0"),
        (("unstable", math.nan), "fraction > 0")])
    def test_invalid_target_rejected(self, dom63, wc63_p4, target, message):
        with pytest.raises(ValueError, match=message):
            dw.prepare_initial_data(dom63, self.params, wc63_p4, target)

    def test_infeasible_fraction(self, dom63, wc63_p4):
        with pytest.raises(ValueError):
            dw.prepare_initial_data(dom63, self.params, wc63_p4, ("stable", 1.5))
        with pytest.raises(well.InfeasibleTargetError):
            dw.prepare_initial_data(dom63, self.params, wc63_p4,
                                    ("unstable", 50.0))


def test_admissibility_quantity_past_the_float_range():
    """Where C*^p or the energy factor overflows, the value comes from its
    logarithm: inf above the float range, 0 below it, finite in between."""
    p = 3000.0
    assert well.admissibility_quantity(1.0, 2.0, p) == math.inf
    assert well.admissibility_quantity(1.0, 0.5, p) == 0.0
    # C*^p overflows, but the product is 1
    e = 1.5 ** (-p / (0.5 * (p - 2.0))) * (p - 2.0) / (2.0 * p)
    assert well.admissibility_quantity(e, 1.5, p) == pytest.approx(1.0, rel=1e-10)
    # where the expression is finite, it is the value
    assert well.admissibility_quantity(0.3, 1.2, 4.0) == 1.2**4 * (4.0 * 0.3) ** 1.0


def test_smallness_equivalent_to_subcritical_energy(dom63, wc63_p4, rng):
    # the smallness condition on E(0) and E(0) < d agree outside a dead band
    params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
    for _ in range(30):
        u = dw.GridField(dom63, rng.standard_normal(dom63.size))
        scale = rng.uniform(0.01, 0.3)
        state = dw.SimState.rest(dw.GridField(dom63, scale * u.values))
        e = dw.total_energy(state, params).E
        if abs(e - wc63_p4.d) <= 1e-9 * wc63_p4.d:
            continue
        cls = dw.classify(state, params, wc63_p4)
        assert cls.smallness_holds == (e < wc63_p4.d)
