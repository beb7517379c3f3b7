"""critmode: Jordan-basis spectral analysis of critically damped oscillators.

Builds the Jordan normal basis of the phase-space evolution operator,
normalized under the symmetric bilinear map of the damped dynamics; evolves
states and Green's functions in that basis; predicts fractional-power
eigenvalue splitting under stiffness perturbations; and constructs critical
two-oscillator designs in closed form.
"""

from .design import catalog, catalog_system
from .dynamics import (
    check_sum_rules,
    cluster_cancellation_experiment,
    evolve_state,
    greens_freq,
    greens_time,
    rk4_evolve,
)
from .jordan import VerificationError, compute_spectrum
from .linalg import ArgumentError, NumericalError
from .model import build_system
from .perturb import predict_splitting

__version__ = "0.1.0"
