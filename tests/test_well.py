import math

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import mesh, well


class TestValidateExponent:
    """On 1D and 2D domains every p > 2 is admissible, whatever the damping."""

    def test_low_dimensions_unbounded(self):
        dw.ModelParams(omega=0.0, mu=1.0, p=17.0)
        for dom in (dw.interval(1.0, 15), dw.rectangle((1.0, 1.5), (5, 7))):
            c_star, _ = dw.compute_c_star(dom, 17.0, dw.MinimizeOpts(n_starts=2))
            assert math.isfinite(c_star) and c_star > 0

    def test_p_below_2_rejected(self, dom3):
        for p in (2.0, 1.5):
            with pytest.raises(ValueError, match="p > 2"):
                dw.ModelParams(omega=1.0, mu=1.0, p=p)
            with pytest.raises(ValueError, match="p > 2"):
                dw.compute_c_star(dom3, p)


class TestWellConstants:
    def test_plugin_identities(self):
        wc = well.WellConstants.from_c_star(1.0, 4.0, lambda1=1.0)
        assert wc.d == pytest.approx(0.25)
        assert wc.beta == pytest.approx(1.0)

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
        assert dw.functional_J(proj, params) == pytest.approx(wc63_p4.d,
                                                              abs=1e-6)

    def test_depth_bounds_random_projections(self, dom63, wc63_p4, rng):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        for _ in range(50):
            u = dw.GridField(dom63, rng.standard_normal(dom63.size))
            lam = dw.nehari_scale(u, 4.0)
            proj = dw.GridField(dom63, lam * u.values)
            assert dw.functional_J(proj, params) >= wc63_p4.d * (1 - 1e-9)

    def test_invalid_exponent_rejected(self, dom63):
        with pytest.raises(ValueError):
            dw.compute_c_star(dom63, 2.0)

    def test_unconverged_reports_best_residual(self, dom63):
        opts = dw.MinimizeOpts(max_iter=1)
        with pytest.raises(well.ConvergenceError) as info:
            dw.compute_c_star(dom63, 4.0, opts)
        best = info.value.best_residual
        assert math.isfinite(best)
        assert best >= opts.grad_tol
        assert f"{best:.3e}" in str(info.value)


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
        assert abs(dw.functional_I(proj, params)) <= 1e-10 * scale

    def test_maximizes_J(self, dom3):
        params = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)
        u = dw.GridField(dom3, [1, 1, 1])
        lam = dw.nehari_scale(u, 4.0)
        j_star = dw.functional_J(dw.GridField(dom3, lam * u.values), params)
        for factor in (0.5, 0.9, 1.1, 2.0):
            j = dw.functional_J(dw.GridField(dom3, factor * lam * u.values), params)
            assert j_star >= j

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
        wc = well.WellConstants.from_c_star(1.0, 4.0, 1.0)
        state = dw.SimState.rest(dw.GridField.zeros(dom3))
        cls = dw.classify(state, self.params, wc)
        assert cls.category == "N_plus"
        assert cls.in_W

    def test_hand_positive(self, dom3):
        wc = well.WellConstants.from_c_star(1.0, 4.0, 1.0)
        state = dw.SimState.rest(dw.GridField(dom3, [1, 1, 1]))
        cls = dw.classify(state, self.params, wc)
        assert cls.category == "N_plus"
        assert cls.I == pytest.approx(7.25)

    def test_scaled_past_manifold_negative(self, dom3):
        wc = well.WellConstants.from_c_star(1.0, 4.0, 1.0)
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

    def test_infeasible_fraction(self, dom63, wc63_p4):
        with pytest.raises(ValueError):
            dw.prepare_initial_data(dom63, self.params, wc63_p4, ("stable", 1.5))
        with pytest.raises(well.InfeasibleTargetError):
            dw.prepare_initial_data(dom63, self.params, wc63_p4,
                                    ("unstable", 50.0))


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
