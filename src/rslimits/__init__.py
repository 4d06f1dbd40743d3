"""Asymptotic mutual information and MMSE of multiview spiked matrix models.

The package evaluates the replica-symmetric variational formula for the
multiview symmetric spiked matrix model (potential, state evolution, single
letter value, predicted MMSE matrix), validates it against an exact
finite-size posterior oracle, and carries a companion module for random
linear estimation with rotationally invariant matrices via the R-transform.
"""

from . import channel, oracle, potential, priors, psdlinalg, quadrature, rotinv, solver
from .potential import ModelSpec, PotentialValue, check_hypothesis
from .priors import Prior
from .quadrature import QuadratureScheme, default_scheme, gauss_hermite, monte_carlo
from .rotinv import RotInvModel, SpectralDistribution
from .solver import FixedPointResult, SolveSettings, SweepPath

__version__ = "0.1.0"

__all__ = [
    "ModelSpec", "PotentialValue", "Prior", "QuadratureScheme",
    "FixedPointResult", "SolveSettings", "SweepPath",
    "RotInvModel", "SpectralDistribution",
    "channel", "oracle", "potential", "priors", "psdlinalg",
    "quadrature", "rotinv", "solver",
    "check_hypothesis", "default_scheme", "gauss_hermite", "monte_carlo",
]
