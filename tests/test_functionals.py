import math

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
    for bad in (math.nan, math.inf):
        for kwargs in ({"omega": bad, "mu": 1.0, "p": 4.0},
                       {"omega": 1.0, "mu": bad, "p": 4.0},
                       {"omega": 1.0, "mu": 1.0, "p": bad}):
            with pytest.raises(ValueError, match="finite"):
                dw.ModelParams(**kwargs)


def test_state_domain_mismatch():
    with pytest.raises(ValueError):
        dw.SimState(0.0, field3([1, 1, 1]),
                    dw.GridField.zeros(dw.interval(1.0, 5)))


def i_and_j(u, params=P4):
    """I and J of a field at rest, from the library's one energy path."""
    rep = dw.total_energy(dw.SimState.rest(u), params)
    return rep.I, rep.J


class TestIJ:
    def test_zero(self):
        z = dw.GridField.zeros(dw.interval(1.0, 3))
        assert i_and_j(z) == (0.0, 0.0)

    def test_hand_values(self):
        i, j = i_and_j(field3([1, 1, 1]))
        assert i == pytest.approx(7.25)
        assert j == pytest.approx(3.8125)

    def test_j_split_identity(self):
        # J = (p-2)/(2p) grad_sq + I/p
        u = field3([1, 1, 1])
        p = P4.p
        i, lhs = i_and_j(u)
        rhs = (p - 2) / (2 * p) * mesh.grad_norm_sq(u) + i / p
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert lhs == pytest.approx((2 / 8) * 8 + 7.25 / 4)

    def test_scaling_root(self):
        u = field3([1, 1, 1])
        lam = np.sqrt(8 / 0.75)
        scaled = dw.GridField(u.domain, lam * u.values)
        assert i_and_j(scaled)[0] == pytest.approx(0.0, abs=1e-10)

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
        assert i_and_j(scaled)[0] == pytest.approx(
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
