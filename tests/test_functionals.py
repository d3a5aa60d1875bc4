import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import mesh

P4 = dw.ModelParams(omega=1.0, mu=1.0, p=4.0)


def field3(values):
    return dw.GridField(dw.interval(1.0, 3), values)


def test_params_validation():
    with pytest.raises(ValueError):
        dw.ModelParams(omega=0.0, mu=0.0, p=4.0)
    with pytest.raises(ValueError):
        dw.ModelParams(omega=1.0, mu=1.0, p=2.0)
    with pytest.raises(ValueError):
        dw.ModelParams(omega=-1.0, mu=1.0, p=4.0)


def test_state_domain_mismatch():
    with pytest.raises(ValueError):
        dw.SimState(0.0, field3([1, 1, 1]),
                    dw.GridField.zeros(dw.interval(1.0, 5)))


class TestIJ:
    def test_zero(self):
        z = dw.GridField.zeros(dw.interval(1.0, 3))
        assert dw.functional_I(z, P4) == 0.0
        assert dw.functional_J(z, P4) == 0.0

    def test_hand_values(self):
        u = field3([1, 1, 1])
        assert dw.functional_I(u, P4) == pytest.approx(7.25)
        assert dw.functional_J(u, P4) == pytest.approx(3.8125)

    def test_j_split_identity(self):
        # J = (p-2)/(2p) grad_sq + I/p
        u = field3([1, 1, 1])
        p = P4.p
        lhs = dw.functional_J(u, P4)
        rhs = (p - 2) / (2 * p) * mesh.grad_norm_sq(u) + dw.functional_I(u, P4) / p
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert lhs == pytest.approx((2 / 8) * 8 + 7.25 / 4)

    def test_scaling_root(self):
        u = field3([1, 1, 1])
        lam = np.sqrt(8 / 0.75)
        scaled = dw.GridField(u.domain, lam * u.values)
        assert dw.functional_I(scaled, P4) == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(u=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                      min_size=3, max_size=3),
           lam=st.floats(min_value=0, max_value=3, allow_nan=False))
    def test_scaling_law(self, u, lam):
        f = field3(u)
        g = mesh.grad_norm_sq(f)
        lp = mesh.lp_norm_p(f, 4.0)
        scaled = dw.GridField(f.domain, lam * f.values)
        expected = lam**2 * g - lam**4 * lp
        assert dw.functional_I(scaled, P4) == pytest.approx(
            expected, abs=1e-9 * (1 + abs(expected)))


class TestEnergy:
    def test_zero_state(self):
        z = dw.GridField.zeros(dw.interval(1.0, 3))
        rep = dw.total_energy(dw.SimState(0.0, z, z), P4)
        assert rep.E == 0.0

    def test_hand_values(self):
        u = field3([1, 1, 1])
        z = dw.GridField.zeros(u.domain)
        assert dw.total_energy(dw.SimState(0.0, u, z), P4).E == pytest.approx(3.8125)
        v = field3([2, 0, 0])
        assert dw.total_energy(dw.SimState(0.0, z, v), P4).E == pytest.approx(0.5)

    def test_report_internal_consistency(self, rng):
        dom = dw.interval(1.0, 31)
        u = dw.GridField(dom, rng.standard_normal(dom.size))
        v = dw.GridField(dom, rng.standard_normal(dom.size))
        rep = dw.total_energy(dw.SimState(0.0, u, v), P4)
        assert rep.J == pytest.approx(0.5 * rep.grad_sq - rep.lp_p / 4, rel=1e-14)
        assert rep.I == pytest.approx(rep.grad_sq - rep.lp_p, rel=1e-14)
        assert rep.E == pytest.approx(rep.J + rep.kinetic, rel=1e-14)


class TestDissipation:
    def test_zero_velocity(self):
        u = field3([1, 1, 1])
        z = dw.GridField.zeros(u.domain)
        assert dw.dissipation_rate(dw.SimState(0.0, u, z), P4) == 0.0

    def test_hand_value(self):
        v = field3([2, 0, 0])
        z = dw.GridField.zeros(v.domain)
        assert dw.dissipation_rate(dw.SimState(0.0, z, v), P4) == pytest.approx(-33.0)

    def test_weak_only_reduction(self):
        params = dw.ModelParams(omega=0.0, mu=2.0, p=4.0)
        v = field3([1, -2, 3])
        z = dw.GridField.zeros(v.domain)
        expected = -2.0 * mesh.l2_norm_sq(v)
        assert dw.dissipation_rate(dw.SimState(0.0, z, v), params) == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(v=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                      min_size=3, max_size=3))
    def test_always_nonpositive(self, v):
        f = field3(v)
        z = dw.GridField.zeros(f.domain)
        rate = dw.dissipation_rate(dw.SimState(0.0, z, f), P4)
        assert rate <= 0.0
        # strict only when the squares cannot underflow to zero
        if any(abs(x) > 1e-150 for x in v):
            assert rate < 0.0
