"""Hot numeric kernels, vectorized with numpy.

Kernels
-------
* ``channel_discrete_moments``: inner loop of mutual information / posterior
  covariance for a discrete prior observed through a Gaussian channel,
  summed over (atom, quadrature node) pairs.
* ``config_quadratic_terms``: data-dependent part of the log posterior
  weight for every enumerated signal configuration of a finite instance.
* ``config_row_marginals``: posterior single-row marginals accumulated over
  enumerated configurations.

Brute-force loop versions of all three live in tests/kernel_reference.py and
pin these vectorized forms.
"""

import numpy as np


def get_backend():
    """Name of the kernel implementation (recorded in benchmark metadata)."""
    return "numpy"


# ---------------------------------------------------------------------------
# discrete-prior Gaussian channel: MI and averaged posterior covariance
# ---------------------------------------------------------------------------

def channel_discrete_moments(logw, c, D, atoms, nodes, node_w):
    """Channel moments, chunked over quadrature nodes to bound memory.

    logw (K,), c (K, K), D (K, K, d) = A (x_k - x_j), atoms (K, d),
    nodes (M, d), node_w (M,).
    Returns (mi, second_moment (d,d), mean_outer (d,d)) where
      mi = -sum_k w_k E_W[logsumexp_j(logw_j + c_kj - D_kj . W)]
      second_moment = sum_k w_k E_W[sum_j p_j x_j x_j^T]
      mean_outer   = sum_k w_k E_W[m m^T],  m = sum_j p_j x_j
    with p the posterior over atoms given the channel output.
    """
    K, d = atoms.shape
    M = nodes.shape[0]
    w_prior = np.exp(logw)
    mi = 0.0
    second = np.zeros((d, d))
    outer = np.zeros((d, d))
    chunk = max(1, int(2_000_000 // max(K * K, 1)))
    for lo in range(0, M, chunk):
        W = nodes[lo:lo + chunk]                       # (m, d)
        qw = node_w[lo:lo + chunk]                     # (m,)
        # logits (K, m, K): logw_j + c_kj - D_kj . W_m
        logits = logw[None, None, :] + c[:, None, :] - np.einsum("kjd,md->mkj", D, W).transpose(1, 0, 2)
        lse = _logsumexp(logits, axis=2)               # (K, m)
        mi -= float(np.einsum("k,m,km->", w_prior, qw, lse))
        p = np.exp(logits - lse[:, :, None])           # (K, m, K) posterior over j
        pw = np.einsum("k,m,kmj->kmj", w_prior, qw, p)
        second += np.einsum("kmj,ja,jb->ab", pw, atoms, atoms)
        means = p @ atoms                              # (K, m, d)
        outer += np.einsum("k,m,kma,kmb->ab", w_prior, qw, means, means)
    return mi, second, outer


def _logsumexp(a, axis):
    amax = a.max(axis=axis, keepdims=True)
    return (amax + np.log(np.exp(a - amax).sum(axis=axis, keepdims=True))).squeeze(axis)


# ---------------------------------------------------------------------------
# exact posterior enumeration for finite instances
# ---------------------------------------------------------------------------

def config_quadratic_terms(C, T1, u1, E):
    """Data-dependent quadratic statistic per enumerated configuration.

    C (M, n) atom indices; T1 (n, K) side-channel cross terms; u1 (K)
    side-channel self terms; E (n, n, K, K) combined pairwise terms.
    Returns (M,) with sum_i (-2 T1[i, c_i] + u1[c_i]) + sum_ij E[i, j, c_i, c_j].
    """
    M, n = C.shape
    idx = np.arange(n)
    out = (-2.0 * T1[idx[None, :], C] + u1[C]).sum(axis=1)
    for i in range(n):
        Ci = C[:, i]
        for j in range(n):
            out += E[i, j][Ci, C[:, j]]
    return out


def config_row_marginals(C, p, K):
    """Posterior marginal of each row's atom index: (n, K) from configs/probs."""
    M, n = C.shape
    marg = np.empty((n, K))
    for i in range(n):
        marg[i] = np.bincount(C[:, i], weights=p, minlength=K)
    return marg
