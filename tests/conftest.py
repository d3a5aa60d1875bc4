import numpy as np
import pytest

import dampedwave as dw


class SourceFreeStepper(dw.Stepper):
    """The production stepper with the source u|u|^(p-2) switched off."""

    def _nonlinear(self, um):
        return np.zeros_like(um)


@pytest.fixture(scope="session")
def source_free_stepper():
    """The linear-mode stepper class, for closed-form oracles."""
    return SourceFreeStepper


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
