"""Row priors for the signal matrix: discrete atom mixtures and centered Gaussians.

The theory assumes a bounded support, which only the discrete kind satisfies.
The Gaussian kind is included as an analytic test fixture (closed-form mutual
information and MMSE); the limit theorems are not claimed for it.
"""

from dataclasses import dataclass

import numpy as np

from . import psdlinalg

DISCRETE = "discrete"
GAUSSIAN = "gaussian"

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """Distribution of one signal row on R^d.

    Use the :func:`discrete` / :func:`gaussian` constructors; the raw
    initializer performs full validation either way.
    """

    kind: str
    atoms: np.ndarray | None = None      # (K, d), discrete only
    weights: np.ndarray | None = None    # (K,), simplex, discrete only
    cov: np.ndarray | None = None        # (d, d) PSD, gaussian only

    def __post_init__(self):
        if self.kind == DISCRETE:
            atoms = np.atleast_2d(np.asarray(self.atoms, dtype=np.float64))
            weights = np.asarray(self.weights, dtype=np.float64).ravel()
            if atoms.ndim != 2 or atoms.shape[0] != weights.size:
                raise ValueError("atoms must be (K, d) with one weight per atom")
            if not np.all(np.isfinite(atoms)):
                raise ValueError("atoms must be finite (bounded support)")
            if not np.all(weights >= -WEIGHT_TOL):     # NaN fails this and the sum test
                raise ValueError("weights must be nonnegative")
            if not abs(weights.sum() - 1.0) <= WEIGHT_TOL:
                raise ValueError(f"weights must sum to 1 (got {float(weights.sum())!r})")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "weights", np.maximum(weights, 0.0))
        elif self.kind == GAUSSIAN:
            cov = psdlinalg.check_psd(self.cov, name="gaussian prior covariance")
            object.__setattr__(self, "cov", cov)
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")

    @property
    def dim(self):
        return self.atoms.shape[1] if self.kind == DISCRETE else self.cov.shape[0]

    @property
    def atom_count(self):
        if self.kind != DISCRETE:
            raise ValueError("atom_count only defined for discrete priors")
        return self.atoms.shape[0]

    def mean(self):
        if self.kind == DISCRETE:
            return self.weights @ self.atoms
        return np.zeros(self.dim)

    def second_moment(self):
        """rho_bar = E[X X^T], exact (finite sum or covariance copy)."""
        if self.kind == DISCRETE:
            return psdlinalg.sym(np.einsum("k,ki,kj->ij", self.weights, self.atoms, self.atoms))
        return self.cov.copy()

    def covariance(self):
        """cov(X) = rho_bar - E[X] E[X]^T (the zero-information MMSE matrix)."""
        mu = self.mean()
        return psdlinalg.sym(self.second_moment() - np.outer(mu, mu))


def discrete(atoms, weights):
    return Prior(DISCRETE, atoms=atoms, weights=weights)


def gaussian(cov):
    return Prior(GAUSSIAN, cov=cov)


def rademacher():
    """Scalar +-1 prior with equal weights (rho = 1)."""
    return discrete([[1.0], [-1.0]], [0.5, 0.5])
