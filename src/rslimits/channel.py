"""The d-dimensional Gaussian channel Y = (S + r)^{1/2} X + W under a row prior.

Two oracles are exposed: the mutual information I_S(r) = I(X; Y) in nats and
the MMSE matrix M_S(r) = E[cov(X | Y)].  They are the building blocks of the
replica-symmetric potential.

Gaussian priors are always evaluated in closed form (no quadrature) and serve
as an exactness anchor.  Discrete priors reduce to a finite mixture; their
expectation over the noise W runs through a quadrature scheme and a hot
kernel (see _kernels).  The mutual information uses the numerically stable
form

    I = -E_{k,W}[ log sum_j w_j exp(-||A(x_k - x_j)||^2 / 2 - W . A(x_k - x_j)) ]

with log-sum-exp, which avoids density ratios entirely; the same logits give
the posterior weights used for the covariance.  No result needs both from
one kernel call: ``_mi_core`` (the potential, f(S)) asks the kernel for the
mutual information alone (``moments=False``), and ``_mmse_core`` (each
state-evolution step) for the posterior moments.

Validation policy: :func:`mutual_information` and :func:`mmse_matrix` check
``s`` and ``r`` (symmetric PSD, d x d) and pass S + r to the private cores
``_mi_core`` / ``_mmse_core``, which check nothing and take the root
A = (S + r)^{1/2} themselves; the state-evolution loop, the potential and
the rotationally invariant module call the cores directly.  ``quad=None``
is ``default_scheme`` at the prior's dimension, read where nodes are built.
"""

import numpy as np

from . import _kernels, psdlinalg
from .priors import GAUSSIAN
from .quadrature import default_scheme


def _channel_matrix(prior, s, r):
    d = prior.dim
    s = psdlinalg.check_psd(s, name="side channel s")
    r = psdlinalg.check_psd(r, name="snr matrix r")
    if s.shape != (d, d) or r.shape != (d, d):
        raise ValueError("s and r must be d x d for the prior dimension d")
    return s + r


def _discrete_moments(prior, a, quad, moments):
    """Kernel output (mi, second moment, mean outer product) of a discrete prior;
    the two moments are None unless ``moments``."""
    quad = quad or default_scheme(prior.dim)
    nodes, node_w = quad.nodes_weights(prior.dim)
    atoms = prior.atoms
    delta = atoms[:, None, :] - atoms[None, :, :]       # x_k - x_j
    D = np.einsum("kjt,td->kjd", delta, a)              # A (x_k - x_j)
    c = -0.5 * np.einsum("kjd,kjd->kj", D, D)
    with np.errstate(divide="ignore"):
        logw = np.log(prior.weights)
    return _kernels.channel_discrete_moments(logw, c, D, atoms, nodes, node_w, moments=moments)


def _mi_core(prior, snr, quad):
    """I(X; (S + r)^{1/2} X + W) for a trusted ``snr`` = S + r (symmetric PSD, d x d)."""
    a = psdlinalg.sqrtm_psd(snr)
    if prior.kind == GAUSSIAN:
        M = np.eye(prior.dim) + a @ prior.cov @ a
        sign, logdet = np.linalg.slogdet(M)
        if sign <= 0:
            raise FloatingPointError("log-det of I + A Sigma A not positive")
        return 0.5 * logdet
    mi, _, _ = _discrete_moments(prior, a, quad, moments=False)
    if not np.isfinite(mi):
        raise FloatingPointError("quadrature produced a non-finite mutual information")
    return float(mi)


def _mmse_core(prior, snr, quad):
    """E[cov(X | (S + r)^{1/2} X + W)] for a trusted ``snr`` = S + r (symmetric PSD, d x d)."""
    a = psdlinalg.sqrtm_psd(snr)
    if prior.kind == GAUSSIAN:
        Sig = prior.cov
        M = np.eye(prior.dim) + a @ Sig @ a
        out = Sig - Sig @ a @ np.linalg.solve(M, a @ Sig)
        return psdlinalg.project_psd(out)
    _, second, outer = _discrete_moments(prior, a, quad, moments=True)
    cov = second - outer
    if not np.all(np.isfinite(cov)):
        raise FloatingPointError("quadrature produced a non-finite MMSE matrix")
    return psdlinalg.project_psd(cov)


def mutual_information(prior, s, r, quad=None):
    """I(X; (S+r)^{1/2} X + W) in nats; W ~ N(0, I_d).

    Gaussian prior with covariance Sigma: exactly 0.5 * logdet(I + A Sigma A)
    with A the symmetric PSD root of S + r.
    """
    return _mi_core(prior, _channel_matrix(prior, s, r), quad)


def mmse_matrix(prior, s, r, quad=None):
    """M_S(r) = E[cov(X | (S+r)^{1/2} X + W)]; symmetric PSD, <= rho_bar.

    Gaussian prior: Sigma - Sigma A (I + A Sigma A)^{-1} A Sigma, valid for
    singular Sigma as well (equals (Sigma^{-1} + A^2)^{-1} when invertible).
    """
    return _mmse_core(prior, _channel_matrix(prior, s, r), quad)
