import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import dampedwave as dw
from dampedwave import mesh


class SourceFreeStepper(dw.Stepper):
    """The production stepper with the source u|u|^(p-2) switched off."""

    def _nonlinear(self, um):
        return np.zeros_like(um)


@pytest.fixture(scope="session")
def source_free_stepper():
    """The linear-mode stepper class, for closed-form oracles."""
    return SourceFreeStepper


def _csr_stiffness(domain):
    """Reference stiffness matrix: the assembled 3-point / 5-point stencil."""
    per_axis = []
    for m, ha in zip(domain.n, domain.h):
        main = np.full(m, 2.0 / ha**2)
        off = np.full(m - 1, -1.0 / ha**2)
        per_axis.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if domain.dim == 1:
        return per_axis[0]
    ax, ay = per_axis
    ix = sp.identity(domain.n[0], format="csr")
    iy = sp.identity(domain.n[1], format="csr")
    return (sp.kron(ax, iy) + sp.kron(ix, ay)).tocsr()


@pytest.fixture(scope="session")
def csr_stiffness():
    """Builds the SciPy CSR stiffness matrix of a domain, as an oracle."""
    return _csr_stiffness


def _lbfgs_c_star(dom, p, starts):
    """Largest 1/R over L-BFGS minimizations of R = ||grad u||_2 / ||u||_p."""
    a = _csr_stiffness(dom)
    w = dom.weight

    def ratio(x):
        ax = a @ x
        g = w * float(x @ ax)
        pw = w * float(np.sum(np.abs(x) ** p))
        r = math.sqrt(g) / pw ** (1 / p)
        grad = r * (w * ax / g - w * np.abs(x) ** (p - 2) * x / pw)
        return r, grad

    best = min(scipy.optimize.minimize(ratio, x0, jac=True, method="L-BFGS-B",
                                       options=dict(maxiter=5000, ftol=1e-18,
                                                    gtol=1e-14)).fun
               for x0 in starts)
    return 1.0 / best


@pytest.fixture(scope="session")
def lbfgs_c_star():
    """Independent C* oracle: L-BFGS on the scale-invariant ratio from given starts."""
    return _lbfgs_c_star


@pytest.fixture(scope="session")
def dom3():
    """The tiny hand-checkable interval: extent 1, n=3, h=0.25."""
    return dw.interval(1.0, 3)


@pytest.fixture(scope="session")
def dom63():
    return dw.interval(1.0, 63)


@pytest.fixture(scope="session")
def wc63_p4(dom63):
    return dw.well_constants(dom63, 4.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
