"""Hot numeric kernels, vectorized with numpy.

Kernels
-------
* ``channel_discrete_moments``: mutual information and posterior moments of
  a discrete prior seen through a Gaussian channel, summed over (atom,
  quadrature node) pairs in one fused pass per chunk of ``CHUNK_LOGITS``
  logits: one GEMM, one ``exp``; ``moments=False`` stops after log Z.  A
  chunk's arrays are sized to stay in cache; the nodes are whatever the
  caller passes (the channel passes a Gauss-Hermite grid without its
  negligible nodes).
* ``config_quadratic_terms``: data-dependent part of the log posterior
  weight of every enumerated signal configuration, for a chunk of data
  replicas at once: head-only and tail-only terms plus one batched bilinear
  GEMM between the two halves of the rows (meet in the middle).
* ``config_row_marginals``: posterior single-row marginals accumulated over
  enumerated configurations.  The oracle no longer calls it (it takes its
  posterior row means from the head and tail marginals of p); it stays
  because perfbench's traced run wraps it by name.
* ``logsumexp``: max-shifted log-sum-exp along an axis, the oracle's
  normalization (numpy only, so the package needs no scipy at run time).

Brute-force loop versions of the first three live in
tests/kernel_reference.py and pin these vectorized forms; ``logsumexp`` is
pinned against scipy's in the tests.
"""

import numpy as np

# logits per chunk of quadrature nodes: the (K, K, m) buffer, 512 KB of
# doubles.  It and the (K, m) temporaries are allocated afresh on every call;
# at this size they stay below glibc's mmap threshold and in cache, while
# larger ones are mapped and page-faulted in again on every call.
CHUNK_LOGITS = 65_536


def get_backend():
    """Name of the kernel implementation (recorded in benchmark metadata)."""
    return "numpy"


# ---------------------------------------------------------------------------
# discrete-prior Gaussian channel: MI and averaged posterior covariance
# ---------------------------------------------------------------------------

def channel_discrete_moments(logw, c, D, atoms, nodes, node_w, *, moments=True):
    """Channel moments in one fused pass per chunk of quadrature nodes.

    logw (K,), c (K, K), D (K, K, d) = A (x_k - x_j), atoms (K, d),
    nodes (M, d), node_w (M,).
    Returns (mi, second_moment (d,d), mean_outer (d,d)) where
      mi = -sum_k w_k E_W[logsumexp_j(logw_j + c_kj - D_kj . W)]
      second_moment = sum_k w_k E_W[sum_j p_j x_j x_j^T]
      mean_outer   = sum_k w_k E_W[m m^T],  m = sum_j p_j x_j
    with p the posterior over atoms given the channel output.  With
    ``moments=False`` the pass stops after log Z and returns (mi, None, None).

    Per chunk of m nodes the logits are one (K^2, d) x (d, m) GEMM into one
    (K, K, m) buffer indexed [j, k, m] (at most CHUNK_LOGITS entries, the
    largest array; j leads, so reductions over j run over whole rows),
    exponentiated once for both log Z = max + log sum e and the posterior.
    Scaled by sqrt(w_k q_m) that is P~ (K, K m): pj = P~ sqrt(w q) gives the
    second moment (atoms^T * pj) @ atoms, and the mean outer product is
    atoms^T (P~ P~^T) atoms.
    """
    K, d = atoms.shape
    M = nodes.shape[0]
    w_prior = np.exp(logw)
    base = (logw[None, :] + c).T[:, :, None]           # [j, k]: logw_j + c_kj
    Dj = D.transpose(1, 0, 2).reshape(K * K, d)        # row j K + k: D_kj
    mi = 0.0
    pj = np.zeros(K)
    gram = np.zeros((K, K))
    chunk = max(1, CHUNK_LOGITS // (K * K))
    store = np.empty(K * K * min(chunk, M))            # one buffer, reused by every chunk
    for lo in range(0, M, chunk):
        qw = node_w[lo:lo + chunk]                     # (m,)
        m = qw.shape[0]
        buf = store[:K * K * m].reshape(K, K, m)
        np.matmul(Dj, nodes[lo:lo + chunk].T, out=buf.reshape(K * K, m))
        np.subtract(base, buf, out=buf)                # logits [j, k, m]
        top = buf.max(axis=0)                          # (K, m), finite: w_j > 0 for some j
        buf -= top
        np.exp(buf, out=buf)
        z = buf.sum(axis=0)                            # (K, m)
        mi -= float(w_prior @ (top + np.log(z)) @ qw)  # log Z = top + log z
        if not moments:
            continue
        root = np.sqrt(np.multiply.outer(w_prior, qw))
        buf *= root / z                                # sqrt(w_k q_m) p_jkm
        flat = buf.reshape(K, K * m)
        pj += flat @ root.reshape(K * m)
        gram += flat @ flat.T
    if not moments:
        return mi, None, None
    return mi, (atoms.T * pj) @ atoms, atoms.T @ gram @ atoms


# ---------------------------------------------------------------------------
# exact posterior enumeration for finite instances
# ---------------------------------------------------------------------------

def config_quadratic_terms(C, head, tail, L, Q):
    """Data-dependent log weight of every configuration, for B replicas at once.

    C (M, n): M configurations of n rows; configuration m = a M_b + b has
    the signal rows x_m = (head[a], tail[b]), head (M_a, n_a d) and tail
    (M_b, n_b d) being its first n_a and last n_b rows flattened row-major
    (n_b = 0: a (1, 0) tail).  L (B, n d) and Q (B, n d, n d): coefficients,
    one per replica.  Returns (B, M), out[b, m] = x_m . L[b] + x_m . Q[b] . x_m:
    head-only and tail-only terms once per head or tail, and the cross term
    head[a] . (Q_ab + Q_ba^T) . tail[b] as one batched GEMM, about M n_b d
    multiply-adds per replica.  The (B, M) result is the largest array.  C is
    read only for its shape, by perfbench's ``_hook_enum`` until ROADMAP item 7.
    """
    ja = head.shape[1]
    qab = Q[:, :ja, ja:] + Q[:, ja:, :ja].transpose(0, 2, 1)
    out = (head @ qab) @ tail.T                                   # (B, M_a, M_b)
    out += (((head @ Q[:, :ja, :ja]) * head).sum(axis=2) + L[:, :ja] @ head.T)[:, :, None]
    out += (((tail @ Q[:, ja:, ja:]) * tail).sum(axis=2) + L[:, ja:] @ tail.T)[:, None, :]
    return out.reshape(len(Q), -1)


def config_row_marginals(C, p, K):
    """Posterior marginal of each row's atom index: (n, K) from configs/probs."""
    M, n = C.shape
    marg = np.empty((n, K))
    for i in range(n):
        marg[i] = np.bincount(C[:, i], weights=p, minlength=K)
    return marg


def logsumexp(a, axis=0):
    """log sum exp(a) along ``axis``, shifted by the maximum so no term overflows.

    A slice whose entries are all -inf gives -inf (its shift is taken as 0).
    """
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    shifted = a - top
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis, keepdims=True))
    return np.squeeze(out + top, axis=axis)
