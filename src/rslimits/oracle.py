"""Exact finite-size Bayesian posterior for discrete priors by full enumeration.

A finite instance realizes the observation model at some small n; the
posterior over the atom_count**n signal configurations is computed exactly
in the log domain (a single log-sum-exp normalization per instance), which
yields exact per-row means/covariances, the log evidence, overlap statistics
and finite-n mutual information estimates.  These validate the asymptotic
predictions of the variational solver at desk scale.

One routine, ``_score``, enumerates and normalizes a chunk of instances.
``exact_posterior`` passes it a chunk of one; ``replica_average`` passes it
its seeded data replicas chunk by chunk and feeds both of its estimates
(finite-n mutual information and the Nishimori residual) from that one pass.

Cost model
----------
With A = S^{1/2}, the log weight of a configuration with signal X (n, d) is

    log prior(X) + <y~ A, X> + sum_l <Y_l, X B_l X^T> / sqrt(n) + base(X),

linear plus quadratic in X given the data; base(X) depends on X only, through
its Gram matrix X^T X.  Once per request the M = atom_count**n configurations
are enumerated with their signal matrix P (M, n d) and their data-free log
weights.  A chunk of B replicas then costs one (M, n d) x (n d, B n d) GEMM
for the quadratic forms, a log-sum-exp over the M axis, and P^T p for the
posterior row means.  ``CHUNK_DOUBLES`` bounds the GEMM's (M, B n d) result,
the chunk's largest array.  The budget on M is what keeps enumeration
affordable.  Rows are the i.i.d. unit, so enumeration runs over rows, not
entries.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, psdlinalg
from ._kernels import logsumexp
from .priors import DISCRETE

DEFAULT_BUDGET = 200_000      # configurations one request may enumerate
# np.indices builds an (n + 1)-dimensional array and numpy allows 64 axes, so
# at most 63 rows can be enumerated whatever the atom count.
MAX_ROWS = 63
# doubles in the largest array of a chunk of replicas (2 MB)
CHUNK_DOUBLES = 250_000


@dataclass(frozen=True)
class FiniteInstance:
    """One realization of the observation model at size n."""

    model: object
    n: int
    seed: object
    signal: np.ndarray        # (n, d) rows drawn i.i.d. from the prior atoms
    signal_idx: np.ndarray    # (n,) atom indices of the signal rows
    y_tilde: np.ndarray       # (n, d) side-channel observation
    ys: tuple                 # L arrays (n, n), pairwise observations


@dataclass(frozen=True)
class PosteriorSummary:
    per_row_mean: np.ndarray          # (n, d) exact posterior means
    per_row_cov_avg: np.ndarray       # (d, d) row-averaged posterior covariance
    log_evidence: float               # up to the Gaussian 2*pi normalization
    overlap_mean: np.ndarray          # (d, d) signal/posterior-mean overlap
    replica_overlap_mean: np.ndarray  # (d, d) two-replica overlap


def _check_enumerable(model, n, data_samples=1):
    """The one check of an oracle request."""
    if model.prior.kind != DISCRETE:
        raise ValueError("exact enumeration requires a discrete prior")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if data_samples < 1:
        raise ValueError(f"data_samples must be >= 1, got {data_samples}")
    if n > MAX_ROWS:
        raise ValueError(f"enumeration budget exceeded: n = {n} > {MAX_ROWS} rows")
    K = model.prior.atom_count
    if K ** n > DEFAULT_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {K}^{n} configurations > {DEFAULT_BUDGET}")


def _rng(seed, stream):
    ss = np.random.SeedSequence(_as_entropy(seed) + (stream,))
    return np.random.Generator(np.random.Philox(ss))


def _as_entropy(seed):
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def sample_instance(model, n, seed):
    """Draw signal and data; reproducible given the seed.

    The signal and noise streams are independent (separate counter-based
    streams derived from the seed), so e.g. the noise realization does not
    change when the prior gains atoms.
    """
    _check_enumerable(model, n)
    return _draw(model, n, seed, psdlinalg.sqrtm_psd(model.s))


def _draw(model, n, seed, a_root):
    """``sample_instance`` for a checked request whose S^{1/2} is ``a_root``."""
    prior = model.prior
    signal_rng = _rng(seed, 0)
    noise_rng = _rng(seed, 1)
    idx = signal_rng.choice(prior.atom_count, size=n, p=prior.weights)
    signal = prior.atoms[idx]
    y_tilde = signal @ a_root + noise_rng.standard_normal((n, model.d))
    ys = tuple(
        (signal @ b @ signal.T) / math.sqrt(n) + noise_rng.standard_normal((n, n))
        for b in model.couplings)
    return FiniteInstance(model=model, n=n, seed=seed, signal=signal,
                          signal_idx=idx, y_tilde=y_tilde, ys=ys)


def enumerate_configs(atom_count, n):
    """All atom_count**n row-index configurations, shape (M, n), int64."""
    grids = np.indices((atom_count,) * n)
    return grids.reshape(n, -1).T.astype(np.int64).copy()


@dataclass(frozen=True)
class _Enumeration:
    """The configurations of one request, and what the data do not change."""

    configs: np.ndarray   # (M, n) atom indices
    signals: np.ndarray   # (M, n d) P: each configuration's signal rows, flattened
    grams: np.ndarray     # (M, d, d) X^T X of each configuration
    base: np.ndarray      # (M,) data-free part of each log weight, prior included


def _enumerate(model, n, a_root):
    prior = model.prior
    configs = enumerate_configs(prior.atom_count, n)
    x = prior.atoms[configs]                                 # (M, n, d)
    grams = np.einsum("mia,mib->mab", x, x)
    base = np.log(prior.weights)[configs].sum(axis=1) + _data_free(model, n, grams, a_root)
    return _Enumeration(configs, x.reshape(len(configs), -1), grams, base)


def _data_free(model, n, grams, a_root):
    """Data-free part of the log weight (prior aside), from Gram matrices X^T X.

    -1/2 (||X A||^2 + sum_l ||X B_l X^T||^2 / n), written through X^T X.
    """
    ss = np.einsum("...ab,ab->...", grams, a_root @ a_root.T)
    for b in model.couplings:
        ss += np.einsum("...ab,...ab->...", grams, b @ grams @ b.T) / n
    return -0.5 * ss


def _data_terms(insts, a_root):
    """Coefficients of the data-dependent log weight, one column per instance.

    Returns L (n d, B) = vec(y~ A^T) and Q (B, n d, n d) =
    sum_l kron(Y_l, B_l) / sqrt(n), so that a configuration's term is
    vec(X) . L + vec(X) . Q vec(X) (row-major vec).
    """
    model, n = insts[0].model, insts[0].n
    d = model.d
    y_tilde = np.stack([inst.y_tilde for inst in insts])      # (B, n, d)
    lin = (y_tilde @ a_root.T).reshape(len(insts), n * d).T
    quad = np.zeros((len(insts), n, d, n, d))
    for l, b in enumerate(model.couplings):
        ys = np.stack([inst.ys[l] for inst in insts])         # (B, n, n)
        quad += np.einsum("bij,ac->biajc", ys, b)
    return lin, quad.reshape(len(insts), n * d, n * d) / math.sqrt(n)


def _chunk_size(m, nd):
    """Replicas per chunk: the (m, B nd) GEMM result and Q stay within CHUNK_DOUBLES."""
    return max(1, CHUNK_DOUBLES // (nd * max(m, nd)))


def _score(insts, enum, a_root):
    """Enumerate a chunk of B instances: the single scoring routine of the oracle.

    Returns (log_z, ll_signal, means, p): per instance the log normalizer of
    the configuration weights (B,), the log weight of the true signal without
    its prior factor (B,), the posterior row means (B, n, d), and the (M, B)
    posterior probabilities of the configurations.
    """
    model, n = insts[0].model, insts[0].n
    lin, quad = _data_terms(insts, a_root)
    lw = _kernels.config_quadratic_terms(enum.configs, enum.signals, lin, quad)
    lw += enum.base[:, None]
    log_z = logsumexp(lw, axis=0)
    lw -= log_z
    p = np.exp(lw, out=lw)
    means = (enum.signals.T @ p).T.reshape(len(insts), n, model.d)
    signals = np.stack([inst.signal for inst in insts])        # (B, n, d)
    flat = signals.reshape(len(insts), -1)
    ll_signal = (_data_free(model, n, signals.transpose(0, 2, 1) @ signals, a_root)
                 + np.einsum("bj,jb->b", flat, lin)
                 + np.einsum("bj,bjk,bk->b", flat, quad, flat))
    return log_z, ll_signal, means, p


def exact_posterior(inst):
    """Enumerate the posterior exactly; log-domain weights throughout."""
    model, n = inst.model, inst.n
    _check_enumerable(model, n)
    a_root = psdlinalg.sqrtm_psd(model.s)
    enum = _enumerate(model, n, a_root)
    log_z, _, means, p = _score([inst], enum, a_root)
    per_row_mean = means[0]
    second = np.einsum("m,mab->ab", p[:, 0], enum.grams) / n
    outer = per_row_mean.T @ per_row_mean / n
    const = float(np.sum(inst.y_tilde ** 2)) + sum(float(np.sum(y ** 2)) for y in inst.ys)
    return PosteriorSummary(
        per_row_mean=per_row_mean,
        per_row_cov_avg=psdlinalg.project_psd(second - outer),
        log_evidence=float(log_z[0]) - 0.5 * const,
        overlap_mean=inst.signal.T @ per_row_mean / n,
        replica_overlap_mean=outer,
    )


@dataclass(frozen=True)
class ReplicaAverage:
    mi_per_row: float
    mi_std_err: float
    nishimori_residual: float
    nishimori_std_err: float
    overlap_mean: np.ndarray           # (d, d) E<Q>
    replica_overlap_mean: np.ndarray   # (d, d) E<Q^(1,2)>
    samples: int


def replica_average(model, n, data_samples, seed):
    """Monte Carlo averages over seeded data replicas, scored in chunks.

    Replica ``rep`` is ``sample_instance(model, n, seed + (rep,))``; the
    request is checked, S^{1/2} taken and the configurations enumerated once,
    then replicas are drawn and scored ``_chunk_size`` at a time.  Two
    estimates share each replica's scoring:

    * the finite-n mutual information (1/n) I(X; data), per replica the exact
      (log p(data | signal) - log p(data)) / n; both terms share the data
      sample, which couples them and cuts the variance.  Nonnegative in
      expectation (it is a KL divergence).
    * the Nishimori residual || E<Q> - E<Q^(1,2)> ||_F.  The Bayes identity
      makes the expectation of the difference exactly zero; its
      ``nishimori_std_err`` is the Frobenius norm of the entrywise standard
      errors of the difference, for "residual <= k sigma" style checks.

    Standard errors are NaN for a single replica.
    """
    _check_enumerable(model, n, data_samples)
    a_root = psdlinalg.sqrtm_psd(model.s)
    enum = _enumerate(model, n, a_root)
    chunk = _chunk_size(len(enum.configs), n * model.d)
    entropy = _as_entropy(seed)
    mi = np.empty(data_samples)
    q = np.empty((data_samples, model.d, model.d))
    r = np.empty_like(q)
    for lo in range(0, data_samples, chunk):
        insts = [_draw(model, n, entropy + (rep,), a_root)
                 for rep in range(lo, min(lo + chunk, data_samples))]
        reps = slice(lo, lo + len(insts))
        log_z, ll_signal, means, _ = _score(insts, enum, a_root)
        signals = np.stack([inst.signal for inst in insts])
        mi[reps] = (ll_signal - log_z) / n
        q[reps] = signals.transpose(0, 2, 1) @ means / n
        r[reps] = means.transpose(0, 2, 1) @ means / n
    diffs = q - r
    if data_samples > 1:
        mi_se = float(mi.std(ddof=1)) / math.sqrt(data_samples)
        entry_se = diffs.std(axis=0, ddof=1) / math.sqrt(data_samples)
        nishimori_se = float(np.linalg.norm(entry_se, "fro"))
    else:
        mi_se = nishimori_se = float("nan")
    return ReplicaAverage(
        mi_per_row=float(mi.mean()),
        mi_std_err=mi_se,
        nishimori_residual=float(np.linalg.norm(diffs.mean(axis=0), "fro")),
        nishimori_std_err=nishimori_se,
        overlap_mean=q.mean(axis=0),
        replica_overlap_mean=r.mean(axis=0),
        samples=data_samples,
    )
