"""Hot numeric kernels, vectorized with numpy.

Kernels
-------
* ``channel_discrete_moments``: inner loop of mutual information / posterior
  covariance for a discrete prior observed through a Gaussian channel,
  summed over (atom, quadrature node) pairs.
* ``config_quadratic_terms``: data-dependent part of the log posterior
  weight of every enumerated signal configuration, for a chunk of data
  replicas at once: one GEMM of the configurations' signal matrix against
  the replicas' stacked quadratic coefficients.
* ``config_row_marginals``: posterior single-row marginals accumulated over
  enumerated configurations.  The oracle no longer calls it (it takes its
  posterior row means as P^T p); it stays because perfbench's traced run
  wraps it by name.

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

def config_quadratic_terms(C, P, L, Q):
    """Data-dependent log weight of every configuration, for B replicas at once.

    C (M, n) atom indices of the configurations; P (M, n d) their signal
    rows atoms[C], flattened row-major; L (n d, B) linear and Q (B, n d, n d)
    quadratic coefficients, one column / matrix per replica.
    Returns (M, B) with out[m, b] = P[m] . L[:, b] + P[m] . Q[b] . P[m].
    The quadratic forms are one (M, n d) x (n d, B n d) GEMM; its (M, B n d)
    result is the largest array, so B is the caller's memory bound.  Only
    P is read: C names the configurations and gives the call's (M, n).
    """
    M, nd = P.shape
    B = Q.shape[0]
    PQ = (P @ Q.transpose(1, 0, 2).reshape(nd, B * nd)).reshape(M, B, nd)
    out = P @ L
    out += np.einsum("mbj,mj->mb", PQ, P)
    return out


def config_row_marginals(C, p, K):
    """Posterior marginal of each row's atom index: (n, K) from configs/probs."""
    M, n = C.shape
    marg = np.empty((n, K))
    for i in range(n):
        marg[i] = np.bincount(C[:, i], weights=p, minlength=K)
    return marg
