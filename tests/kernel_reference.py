"""Brute-force loop versions of the kernels in ``rslimits._kernels``.

Each loop follows the formula in the docstring of the vectorized kernel
term by term; tests/test_kernels.py uses them as the reference.
"""

import numpy as np


def channel_discrete_moments(logw, c, D, atoms, nodes, node_w, *, moments=True):
    K, d = atoms.shape
    M = nodes.shape[0]
    w_prior = np.exp(logw)
    mi = 0.0
    second = np.zeros((d, d))
    outer = np.zeros((d, d))
    logits = np.empty(K)
    mean = np.empty(d)
    for k in range(K):
        wk = w_prior[k]
        if wk == 0.0:
            continue
        for m in range(M):
            for j in range(K):
                s = logw[j] + c[k, j]
                for t in range(d):
                    s -= D[k, j, t] * nodes[m, t]
                logits[j] = s
            top = logits[0]
            for j in range(1, K):
                if logits[j] > top:
                    top = logits[j]
            z = 0.0
            for j in range(K):
                z += np.exp(logits[j] - top)
            lse = top + np.log(z)
            wkm = wk * node_w[m]
            mi -= wkm * lse
            if not moments:
                continue
            for t in range(d):
                mean[t] = 0.0
            for j in range(K):
                pj = np.exp(logits[j] - lse)
                pwj = wkm * pj
                for a in range(d):
                    xa = atoms[j, a]
                    mean[a] += pj * xa
                    for b in range(d):
                        second[a, b] += pwj * xa * atoms[j, b]
            for a in range(d):
                for b in range(d):
                    outer[a, b] += wkm * mean[a] * mean[b]
    if not moments:
        return mi, None, None
    return mi, second, outer


def config_quadratic_terms(C, P, L, Q):
    M, nd = P.shape
    B = L.shape[1]
    out = np.empty((M, B))
    for m in range(M):
        for b in range(B):
            acc = 0.0
            for j in range(nd):
                acc += P[m, j] * L[j, b]
                for k in range(nd):
                    acc += P[m, j] * Q[b, j, k] * P[m, k]
            out[m, b] = acc
    return out


def config_row_marginals(C, p, K):
    M, n = C.shape
    marg = np.zeros((n, K))
    for m in range(M):
        pm = p[m]
        for i in range(n):
            marg[i, C[m, i]] += pm
    return marg
