"""The d-dimensional Gaussian channel Y = (S + r)^{1/2} X + W under a row prior.

Two oracles are exposed: the mutual information I_S(r) = I(X; Y) in nats and
the MMSE matrix M_S(r) = E[cov(X | Y)].  They are the building blocks of the
replica-symmetric potential.

Gaussian priors are always evaluated in closed form (no quadrature) and serve
as an exactness anchor.  Discrete priors reduce to a finite mixture; their
expectation over the noise W runs through a quadrature scheme and a hot
kernel (see _kernels).  The mutual information

    I = -E_{k,W}[ log sum_j w_j exp(-||A(x_k - x_j)||^2 / 2 - W . A(x_k - x_j)) ]

is summed over the atoms of weight > 0 without a max-shift: log Z_k lies
between log w_k and |W|^2 / 2, which is at most 45.3 on the floored
Gauss-Hermite grids (every n <= 300 at d = 1, 2; 42.9 on GH-21^3) and about
19 over 10^6 Monte Carlo draws at d = 4, far below exp's overflow at 709;
beyond it the cores refuse the non-finite result.  The same logits give the
posterior weights.  ``_mi_core`` (the potential, f(S)) asks the kernel for
the MI alone (``moments=False``), ``_mmse_core`` (each SE step) for moments.

A tensor Gauss-Hermite grid reaches the kernel without its nodes of weight
q_m <= ``GH_WEIGHT_FLOOR`` (1e-20), about 60 % of the GH-63^2 grid; the
floored grid is built once per (scheme, dimension) and cached, Monte Carlo
nodes pass as drawn.  With D = sum over dropped nodes of q_m (1 + |W_m|^2 / 2)
the floor moves I by at most max(1, log K) D, since log Z_k lies between
log w_k and |W|^2 / 2 and sum_k w_k log(1 / w_k) <= log K, and
each entry of the two posterior moments by at most max_k |x_k|^2 D.  D is
1.4e-17 at GH-63^2, 7.0e-17 at GH-21^3 and at most 8.4e-17 over every rule
with n <= 300 at d = 1, 2, below the rounding of the sums.

Validation policy: :func:`mutual_information` and :func:`mmse_matrix` check
``s`` and ``r`` (symmetric PSD, d x d) and pass S + r to the private cores
``_mi_core`` / ``_mmse_core``, which check nothing and take the root
A = (S + r)^{1/2} themselves.  The package calls the cores directly on
matrices checked where they entered: the state-evolution loop, ``sweep`` and
``predict_mmse`` (solver), the potential and the rotationally invariant
module.  ``quad=None`` is ``default_scheme`` at the prior's dimension, read
where nodes are built.
"""

from functools import lru_cache

import numpy as np

from . import _kernels, psdlinalg
from .priors import GAUSSIAN
from .quadrature import GAUSS_HERMITE, default_scheme

# tensor Gauss-Hermite nodes of weight <= this are left out of the kernel's grid
# (see the module docstring for what that moves)
GH_WEIGHT_FLOOR = 1e-20


def _channel_matrix(prior, s, r):
    d = prior.dim
    s = psdlinalg.check_psd(s, name="side channel s")
    r = psdlinalg.check_psd(r, name="snr matrix r")
    if s.shape != (d, d) or r.shape != (d, d):
        raise ValueError("s and r must be d x d for the prior dimension d")
    return s + r


@lru_cache(maxsize=32)
def _floored_gauss_hermite(scheme, dim):
    """The Gauss-Hermite rule's nodes and weights with weight > GH_WEIGHT_FLOOR."""
    nodes, weights = scheme.nodes_weights(dim)
    keep = weights > GH_WEIGHT_FLOOR
    nodes, weights = nodes[keep], weights[keep]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _kernel_nodes(quad, dim):
    """Nodes and weights the kernel sums over: the floored Gauss-Hermite grid,
    built once per (scheme, dim), or the Monte Carlo draw as it is."""
    if quad.kind == GAUSS_HERMITE:
        return _floored_gauss_hermite(quad, dim)
    return quad.nodes_weights(dim)


def _discrete_moments(prior, a, quad, moments):
    """Kernel output (mi, second moment, mean outer product) of a discrete prior;
    the two moments are None unless ``moments``."""
    quad = quad or default_scheme(prior.dim)
    nodes, node_w = _kernel_nodes(quad, prior.dim)
    present = prior.weights > 0                         # an atom of weight 0 adds nothing
    atoms, logw = prior.atoms[present], np.log(prior.weights[present])
    delta = atoms[:, None, :] - atoms[None, :, :]       # x_k - x_j
    D = np.einsum("kjt,td->kjd", delta, a)              # A (x_k - x_j)
    c = -0.5 * np.einsum("kjd,kjd->kj", D, D)
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
