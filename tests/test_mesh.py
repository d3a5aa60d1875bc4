import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import mesh

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)
small_fields = st.lists(finite_floats, min_size=3, max_size=3)


def field3(values):
    return dw.GridField(dw.interval(1.0, 3), values)


def stiffness_apply(u):
    """A u as a field on the same domain."""
    return dw.GridField(u.domain, mesh.stiffness(u.domain)(u.values))


class TestDomain:
    def test_spacing(self, dom3):
        assert dom3.h == (0.25,)
        assert dom3.weight == 0.25
        assert dom3.size == 3

    def test_rectangle(self):
        dom = dw.rectangle((1.0, 2.0), (3, 7))
        assert dom.dim == 2
        assert dom.h == (0.25, 0.25)
        assert dom.size == 21

    @pytest.mark.parametrize("kwargs", [
        dict(kind="triangle", extents=(1.0,), n=(3,)),
        dict(kind="interval", extents=(0.0,), n=(3,)),
        dict(kind="interval", extents=(1.0,), n=(1,)),
        dict(kind="interval", extents=(1.0, 1.0), n=(3, 3)),
        dict(kind="rectangle", extents=(1.0,), n=(3,)),
        dict(kind="interval", extents=(math.inf,), n=(3,)),
        dict(kind="rectangle", extents=(1.0, math.nan), n=(3, 3)),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            dw.Domain(**kwargs)

    @pytest.mark.parametrize("n", [(mesh.MAX_AXIS_NODES + 1,),
                                   (3, mesh.MAX_AXIS_NODES + 1)])
    def test_node_ceiling(self, n):
        """One node past the ceiling fails before anything is allocated."""
        ceiling = tuple(min(m, mesh.MAX_AXIS_NODES) for m in n)
        kind = "interval" if len(n) == 1 else "rectangle"
        assert dw.Domain(kind, (1.0,) * len(n), ceiling).n == ceiling
        with pytest.raises(ValueError, match=f"2 to {mesh.MAX_AXIS_NODES} interior"):
            dw.Domain(kind, (1.0,) * len(n), n)

    def test_fingerprint_roundtrip(self):
        dom = dw.rectangle((1.0, 0.75), (5, 9))
        assert mesh.Domain.from_fingerprint(dom.fingerprint()) == dom

    def test_field_size_mismatch(self, dom3):
        with pytest.raises(ValueError):
            dw.GridField(dom3, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_corrupt_field_rejected(self, dom3, bad):
        """A field holds finite values only: NaN and Inf fail when it is built."""
        with pytest.raises(mesh.CorruptFieldError, match="NaN or Inf"):
            field3([1.0, bad, 0.0])


class TestLaplacian:
    def test_zero(self, dom3):
        out = stiffness_apply(dw.GridField.zeros(dom3))
        assert not out.values.any()

    def test_hand_stencil(self, dom3):
        out = stiffness_apply(field3([1, 1, 1]))
        np.testing.assert_allclose(out.values, [16.0, 0.0, 16.0])

    def test_discrete_eigenpair(self):
        dom = dw.interval(1.0, 31)
        u = mesh.eigenmode(dom)
        lam = mesh.eigenvalue(dom)
        h = dom.h[0]
        assert lam == pytest.approx((2 / h**2) * (1 - math.cos(math.pi * h)))
        np.testing.assert_allclose(stiffness_apply(u).values,
                                   lam * u.values, rtol=1e-13, atol=1e-12)

    def test_higher_modes(self):
        dom = dw.interval(1.0, 31)
        for k in (2, 3, 5):
            u = mesh.eigenmode(dom, (k,))
            lam = mesh.eigenvalue(dom, (k,))
            np.testing.assert_allclose(stiffness_apply(u).values,
                                       lam * u.values, rtol=1e-12, atol=1e-11)

    def test_2d_eigenpair(self):
        dom = dw.rectangle((1.0, 1.5), (7, 11))
        u = mesh.eigenmode(dom, (2, 1))
        lam = mesh.eigenvalue(dom, (2, 1))
        np.testing.assert_allclose(stiffness_apply(u).values,
                                   lam * u.values, rtol=1e-12, atol=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(u=small_fields, w=small_fields)
    def test_symmetry(self, u, w):
        fu, fw = field3(u), field3(w)
        lhs = mesh.inner(fw, stiffness_apply(fu))
        rhs = mesh.inner(fu, stiffness_apply(fw))
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


class TestNorms:
    def test_grad_hand_value(self):
        assert mesh.grad_norm_sq(field3([1, 1, 1])) == pytest.approx(8.0)

    def test_grad_eigen_identity(self):
        dom = dw.interval(1.0, 63)
        u = mesh.eigenmode(dom)
        lam = mesh.eigenvalue(dom)
        assert mesh.grad_norm_sq(u) == pytest.approx(lam * mesh.l2_norm_sq(u),
                                                     rel=1e-13)

    def test_grad_refines_to_continuum(self):
        # extent 1, sin(pi x): continuum value pi^2/2
        errors = []
        for n in (31, 63, 127):
            dom = dw.interval(1.0, n)
            errors.append(abs(mesh.grad_norm_sq(mesh.eigenmode(dom)) - math.pi**2 / 2))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_lp_hand_value(self):
        assert mesh.lp_norm_p(field3([1, 1, 1]), 4.0) == pytest.approx(0.75)

    def test_lp_rejects_p_le_2(self, dom3):
        with pytest.raises(ValueError):
            mesh.lp_norm_p(dw.GridField.zeros(dom3), 2.0)

    @settings(max_examples=30, deadline=None)
    @given(u=small_fields, lam=st.floats(min_value=-4, max_value=4,
                                         allow_nan=False))
    def test_lp_homogeneity(self, u, lam):
        base = mesh.lp_norm_p(field3(u), 4.0)
        scaled = mesh.lp_norm_p(field3([lam * x for x in u]), 4.0)
        assert scaled == pytest.approx(abs(lam) ** 4 * base,
                                       abs=1e-10 * (1 + base))

    def test_l2_hand_value(self):
        assert mesh.l2_norm_sq(field3([2, 0, 0])) == pytest.approx(1.0)

    def test_l2_parseval(self, rng):
        dom = dw.interval(1.0, 15)
        u = dw.GridField(dom, rng.standard_normal(dom.size))
        modes = [mesh.eigenmode(dom, (k,)) for k in range(1, dom.size + 1)]
        total = sum(mesh.inner(u, m) ** 2 / mesh.l2_norm_sq(m) for m in modes)
        assert total == pytest.approx(mesh.l2_norm_sq(u), rel=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(u=small_fields)
    def test_positivity_and_poincare(self, u):
        f = field3(u)
        g = mesh.grad_norm_sq(f)
        # strict only when the squares cannot underflow to zero
        if any(abs(x) > 1e-150 for x in u):
            assert g > 0
        lam1 = mesh.eigenvalue(f.domain)
        assert mesh.l2_norm_sq(f) <= g / lam1 + 1e-10 * (1 + g)

    def test_poincare_constant_matches_dense_eigensolver(self, csr_stiffness):
        dom = dw.interval(1.0, 63)
        dense = csr_stiffness(dom).toarray()
        assert mesh.eigenvalue(dom) == pytest.approx(
            np.linalg.eigvalsh(dense)[0], rel=1e-11)


@pytest.mark.parametrize("dom", [
    dw.interval(1.0, 3), dw.interval(1.0, 63), dw.interval(1.0, 255),
    dw.rectangle((1.5, 1.0), (47, 31)), dw.rectangle((1.5, 1.0), (23, 15)),
    dw.rectangle((1.0, 1.5), (5, 7)),
], ids=lambda dom: "x".join(map(str, dom.n)))
def test_stiffness_stencil_matches_csr(dom, rng, csr_stiffness):
    """The stencil sums in CSR order, so A x agrees bit for bit, zero signs too."""
    a, apply = csr_stiffness(dom), mesh.stiffness(dom)
    inputs = [scale * rng.standard_normal(dom.size)
              for scale in 10.0 ** np.arange(-300, 151, 30)]
    inputs += [mesh.eigenmode(dom).values, np.zeros(dom.size),
               np.where(rng.random(dom.size) < 0.5, 0.0, -0.0)]
    for x in inputs:
        want, got = a @ x, apply(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dom", [dw.interval(1.0, 63),
                                 dw.rectangle((1.5, 1.0), (7, 5))])
def test_shifted_solver_matches_sparse_direct_solve(dom, rng, csr_stiffness):
    # dt = 5e-3 with omega = mu = 1, then with omega = 0.1, mu = 0
    c0, c1 = [2.005, 2.0], [0.0050125, 0.0005125]
    a = csr_stiffness(dom)
    b = rng.standard_normal((2, dom.size))
    for k in (1, 2):  # the one-row and the stacked solve
        solved = mesh.shifted_solver(dom, c0[:k], c1[:k])(b[:k])
        for s0, s1, row, got in zip(c0, c1, b, solved):
            m = (s0 * sp.identity(dom.size) + s1 * a).tocsc()
            want = spla.spsolve(m, row)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestFieldIO:
    def test_roundtrip(self, tmp_path, rng):
        dom = dw.rectangle((1.0, 0.5), (4, 6))
        u = dw.GridField(dom, rng.standard_normal(dom.size))
        path = tmp_path / "field.txt"
        mesh.write_field(path, u)
        back = mesh.read_field(path)
        assert back.domain == dom
        np.testing.assert_array_equal(back.values, u.values)

    def test_rejects_a_domain_past_the_node_ceiling(self, tmp_path):
        path = tmp_path / "field.txt"
        n = mesh.MAX_AXIS_NODES + 1
        path.write_text(f"{mesh.FIELD_HEADER_PREFIX}interval:1.0:{n}\n"
                        + "0\n" * n)
        with pytest.raises(ValueError, match="interior nodes per axis"):
            mesh.read_field(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a field\n1\n2\n")
        with pytest.raises(ValueError):
            mesh.read_field(path)
