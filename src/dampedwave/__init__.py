"""Numerical laboratory for the strongly damped semilinear wave equation."""

from .functionals import (EnergyReport, ModelParams, SimState, dissipation_rate,
                          functional_I, functional_J, total_energy)
from .lyapunov import (DecayCertificate, certify_decay, equivalence_check,
                       lyapunov_L, select_constants)
from .mesh import Domain, GridField, interval, rectangle
from .series import TimeSeries
from .solver import (MonitorSet, RunOutcome, StepConfig, Stepper, detect_blowup,
                     run)
from .well import (Classification, MinimizeOpts, WellConstants, classify,
                   compute_c_star, nehari_scale, prepare_initial_data,
                   well_constants)

__all__ = [
    "Classification", "DecayCertificate", "Domain", "EnergyReport", "GridField",
    "MinimizeOpts", "ModelParams", "MonitorSet", "RunOutcome", "SimState",
    "StepConfig", "Stepper", "TimeSeries", "WellConstants", "certify_decay",
    "classify", "compute_c_star", "detect_blowup", "dissipation_rate",
    "equivalence_check", "functional_I", "functional_J", "interval",
    "lyapunov_L", "nehari_scale", "prepare_initial_data", "rectangle", "run",
    "select_constants", "total_energy", "well_constants",
]

__version__ = "0.1.0"
