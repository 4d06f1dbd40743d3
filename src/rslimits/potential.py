"""Replica-symmetric potential for the multiview symmetric spiked matrix model.

The model observes a hidden n x d signal X with i.i.d. rows through

    Y_tilde = X S^{1/2} + noise,
    Y_l     = X B_l X^T / sqrt(n) + noise,   l = 1..L,

and the asymptotic mutual information per row is the inf-sup of the potential

    I(r, q) = I_S(r) + Tr[r (q - rho_bar)] / 2
            + sum_l Tr[B_l^T rho_bar B_l rho_bar - B_l^T q B_l q] / 2

over PSD order parameters (r, q).  This module evaluates the potential and
its stationarity structure: the state-evolution map r*(q), the reduced
potential at a q-stationary point, the positive-coupling condition on the
couplings, and the Hessian of the q-dependent quadratic piece in vech
coordinates.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import psdlinalg
from .channel import _mi_core
from .priors import Prior

HYPOTHESIS_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Multiview spiked model: dimension, couplings (B_l), side channel S, prior."""

    d: int
    couplings: tuple        # of (d, d) float arrays
    s: np.ndarray           # (d, d) PSD
    prior: Prior

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.prior.dim != self.d:
            raise ValueError(f"prior dimension {self.prior.dim} != model dimension {self.d}")
        bs = []
        for i, b in enumerate(self.couplings):
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (self.d, self.d):
                raise ValueError(f"coupling {i} must be {self.d}x{self.d}, got {b.shape}")
            psdlinalg.check_finite(b, f"coupling {i}")
            b.setflags(write=False)
            bs.append(b)
        object.__setattr__(self, "couplings", tuple(bs))
        s = psdlinalg.check_psd(self.s, name="side channel s")
        if s.shape != (self.d, self.d):
            raise ValueError(f"side channel s must be d x d = {self.d}x{self.d}, got {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def num_views(self):
        return len(self.couplings)

    def rho_bar(self):
        return self.prior.second_moment()

    def with_s(self, s):
        return ModelSpec(self.d, self.couplings, s, self.prior)

    def with_couplings(self, couplings):
        return ModelSpec(self.d, tuple(couplings), self.s, self.prior)


@dataclass(frozen=True)
class PotentialValue:
    """Three-term decomposition of the potential (value in nats per row)."""

    value: float
    channel_term: float
    linear_term: float
    quartic_term: float


def _trace_prod(a, b):
    # Tr[a b] for symmetric a: elementwise product, no explicit matmul
    return float(np.sum(a * b))


def r_star(model, q):
    """State-evolution map r*(q) = sum_l (B_l q B_l^T + B_l^T q B_l).

    Linear in q, symmetric by construction, and maps the PSD cone into
    itself (each summand is a congruence of q).  ``q`` is trusted to be
    symmetric (callers check it where it enters); only its shape is checked.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (model.d, model.d):
        raise ValueError(f"q must be {model.d}x{model.d}, got {q.shape}")
    out = np.zeros((model.d, model.d))
    for b in model.couplings:
        bq = b @ q
        out += bq @ b.T + (b.T @ q) @ b
    return psdlinalg.sym(out)


def potential(model, r, q, quad=None, check_interval=True):
    """Evaluate I(r, q); returns the three-term decomposition.

    q outside the Loewner interval [0, rho_bar] is accepted (the
    ``potential`` subcommand evaluates any symmetric q a user passes) but
    flagged with a warning.
    """
    r = psdlinalg.check_psd(r, name="r")
    q = psdlinalg.check_symmetric(q, name="q")
    if r.shape != (model.d, model.d) or q.shape != (model.d, model.d):
        raise ValueError(f"r and q must be {model.d}x{model.d}")
    rho = model.rho_bar()
    if check_interval and not (psdlinalg.is_psd(q, tol=1e-7)
                               and psdlinalg.loewner_leq(q, rho, tol=1e-7)):
        warnings.warn("q lies outside the interval [0, rho_bar]", RuntimeWarning)
    channel_term = _mi_core(model.prior, model.s + r, quad)
    linear_term = 0.5 * _trace_prod(r, q - rho)
    quartic = 0.0
    for b in model.couplings:
        quartic += _trace_prod(b.T @ rho @ b, rho) - _trace_prod(b.T @ q @ b, q)
    quartic_term = 0.5 * quartic
    return PotentialValue(channel_term + linear_term + quartic_term,
                          channel_term, linear_term, quartic_term)


def potential_at_stationary_q(model, q, quad=None):
    """I(r*(q), q) in reduced form: I_S(r*(q)) + sum_l Tr[B^T (rho-q) B (rho-q)]/2.

    Algebraically identical to potential(model, r_star(q), q); the identity
    is pinned by tests.  ``q`` is checked for symmetry only: it is trusted to
    be PSD (state-evolution iterates are projected), so r*(q) is PSD and the
    channel core runs unchecked.
    """
    q = psdlinalg.check_symmetric(q, name="q")
    gap = model.rho_bar() - q
    value = _mi_core(model.prior, model.s + r_star(model, q), quad)
    for b in model.couplings:
        value += 0.5 * _trace_prod(b.T @ gap @ b, gap)
    return float(value)


@dataclass(frozen=True)
class HypothesisReport:
    holds: bool
    min_eigenvalue: float


def coupling_structure_matrix(model):
    """The d^2 x d^2 symmetrized Kronecker sum sum_l (B_l x B_l + (B_l x B_l)^T)."""
    d2 = model.d * model.d
    H = np.zeros((d2, d2))
    for b in model.couplings:
        kb = np.kron(b, b)
        H += kb + kb.T
    return H


def check_hypothesis(model):
    """Positive-coupling condition: the symmetrized Kronecker sum is PSD.

    Dense d^2 x d^2 eigensolve; fine for the supported d <= 16.
    """
    H = coupling_structure_matrix(model)
    w = np.linalg.eigvalsh(H)
    min_eig = float(w.min()) if w.size else 0.0
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return HypothesisReport(holds=bool(min_eig >= -HYPOTHESIS_TOL * scale),
                            min_eigenvalue=min_eig)


def q_hessian(model):
    """Hessian of q -> Tr[r q] - sum_l Tr[B_l^T q B_l q] in vech coordinates.

    Equals -D_d^T sum_l (B_l x B_l + (B_l x B_l)^T) D_d: independent of r
    (the piece is quadratic), and negative semidefinite exactly when the
    positive-coupling condition holds.
    """
    D = psdlinalg.duplication_matrix(model.d).astype(np.float64)
    return psdlinalg.sym(-D.T @ coupling_structure_matrix(model) @ D)
