"""Exact finite-size Bayesian posterior for discrete priors by full enumeration.

A finite instance realizes the observation model at some small n; the
posterior over the atom_count**n signal configurations is computed exactly
in the log domain (a single log-sum-exp normalization per instance), which
yields exact per-row means/covariances, the log evidence, overlap statistics
and finite-n mutual information estimates.  These validate the asymptotic
predictions of the variational solver at desk scale.

One routine, ``_score``, enumerates and normalizes an instance.
``exact_posterior`` calls it once; ``replica_average`` calls it once per
seeded data replica and feeds both of its estimates (finite-n mutual
information and the Nishimori residual) from that one pass.

The enumeration cost is the reason for the budget: atom_count**n
configurations, each scored in O(n^2) through a hot kernel.  Rows are the
i.i.d. unit, so enumeration runs over rows, not entries.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import _kernels, psdlinalg
from .priors import DISCRETE

DEFAULT_BUDGET = 200_000
# np.indices builds an (n + 1)-dimensional array and numpy allows 64 axes, so
# at most 63 rows can be enumerated whatever the atom count.
MAX_ROWS = 63


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


def _check_enumerable(model, n, budget, data_samples=1):
    """The one check of an oracle request; returns the atom count K."""
    if model.prior.kind != DISCRETE:
        raise ValueError("exact enumeration requires a discrete prior")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if data_samples < 1:
        raise ValueError(f"data_samples must be >= 1, got {data_samples}")
    if n > MAX_ROWS:
        raise ValueError(f"enumeration budget exceeded: n = {n} > {MAX_ROWS} rows")
    K = model.prior.atom_count
    if K ** n > budget:
        raise ValueError(f"enumeration budget exceeded: {K}^{n} configurations > {budget}")
    return K


def _rng(seed, stream):
    ss = np.random.SeedSequence(_as_entropy(seed) + (stream,))
    return np.random.Generator(np.random.Philox(ss))


def _as_entropy(seed):
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def sample_instance(model, n, seed, budget=DEFAULT_BUDGET):
    """Draw signal and data; reproducible given the seed.

    The signal and noise streams are independent (separate counter-based
    streams derived from the seed), so e.g. the noise realization does not
    change when the prior gains atoms.
    """
    _check_enumerable(model, n, budget)
    prior = model.prior
    signal_rng = _rng(seed, 0)
    noise_rng = _rng(seed, 1)
    idx = signal_rng.choice(prior.atom_count, size=n, p=prior.weights)
    signal = prior.atoms[idx]
    a_root = psdlinalg.sqrtm_psd(model.s)
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


def _instance_terms(inst, a_root):
    """Per-configuration statistics of the log posterior weight.

    ``a_root`` is S^{1/2}, computed once by the caller.  Returns
    (T1, u1, E, const) with the data-dependent quadratic pieces: the residual
    of configuration x decomposes as
        ||data - mean(x)||^2 = const + sum_i (-2 T1[i, c_i] + u1[c_i])
                               + sum_ij E[i, j, c_i, c_j].
    """
    model, n = inst.model, inst.n
    atoms = model.prior.atoms
    sa = atoms @ a_root                                  # (K, d)
    T1 = inst.y_tilde @ sa.T                             # (n, K)
    u1 = np.einsum("kd,kd->k", sa, sa)                   # (K,)
    K = atoms.shape[0]
    E = np.zeros((n, n, K, K))
    const = float(np.sum(inst.y_tilde ** 2))
    inv_sqrt_n = 1.0 / math.sqrt(n)
    for b, y in zip(model.couplings, inst.ys):
        G = atoms @ b @ atoms.T                          # (K, K) pair means
        E += np.einsum("ij,ab->ijab", -2.0 * inv_sqrt_n * y, G)
        E += (G * G)[None, None] / n
        const += float(np.sum(y ** 2))
    return T1, u1, E, const


def _signal_quadratic(inst, T1, u1, E):
    idx = inst.signal_idx
    rows = np.arange(inst.n)
    ss = float(np.sum(-2.0 * T1[rows, idx] + u1[idx]))
    ss += float(E[rows[:, None], rows[None, :], idx[:, None], idx[None, :]].sum())
    return ss


def _log_weights(inst, configs, T1, u1, E):
    logw = np.log(inst.model.prior.weights)
    ss_red = _kernels.config_quadratic_terms(configs, T1, u1, E)
    return logw[configs].sum(axis=1) - 0.5 * ss_red


def _score(inst, configs, a_root):
    """Enumerate one instance: the single scoring routine of the oracle.

    Returns (log_z, ll_signal, const, marg): the log normalizer of the
    configuration weights, the log weight of the true signal without its
    prior factor, the data constant both leave out, and the (n, K) row
    marginals of the posterior.
    """
    T1, u1, E, const = _instance_terms(inst, a_root)
    lw = _log_weights(inst, configs, T1, u1, E)
    log_z = float(logsumexp(lw))
    marg = _kernels.config_row_marginals(configs, np.exp(lw - log_z),
                                         inst.model.prior.atom_count)
    return log_z, -0.5 * _signal_quadratic(inst, T1, u1, E), const, marg


def exact_posterior(inst, budget=DEFAULT_BUDGET):
    """Enumerate the posterior exactly; log-domain weights throughout."""
    model, n = inst.model, inst.n
    K = _check_enumerable(model, n, budget)
    log_z, _, const, marg = _score(inst, enumerate_configs(K, n),
                                   psdlinalg.sqrtm_psd(model.s))
    atoms = model.prior.atoms
    per_row_mean = marg @ atoms
    second = np.einsum("ik,ka,kb->ab", marg, atoms, atoms) / n
    outer = per_row_mean.T @ per_row_mean / n
    return PosteriorSummary(
        per_row_mean=per_row_mean,
        per_row_cov_avg=psdlinalg.project_psd(second - outer),
        log_evidence=log_z - 0.5 * const,
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


def replica_average(model, n, data_samples, seed, budget=DEFAULT_BUDGET):
    """Monte Carlo averages over seeded data replicas, one enumeration each.

    Replica ``rep`` is ``sample_instance(model, n, seed + (rep,))``.  Two
    estimates share each enumeration:

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
    K = _check_enumerable(model, n, budget, data_samples)
    configs = enumerate_configs(K, n)
    a_root = psdlinalg.sqrtm_psd(model.s)
    atoms = model.prior.atoms
    d = model.d
    mi = np.empty(data_samples)
    diffs = np.empty((data_samples, d, d))
    q_sum = np.zeros((d, d))
    r_sum = np.zeros((d, d))
    for rep in range(data_samples):
        inst = sample_instance(model, n, _as_entropy(seed) + (rep,), budget)
        log_z, ll_signal, _, marg = _score(inst, configs, a_root)
        mi[rep] = (ll_signal - log_z) / n
        mean = marg @ atoms
        q_rep = inst.signal.T @ mean / n
        r_rep = mean.T @ mean / n
        diffs[rep] = q_rep - r_rep
        q_sum += q_rep
        r_sum += r_rep
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
        overlap_mean=q_sum / data_samples,
        replica_overlap_mean=r_sum / data_samples,
        samples=data_samples,
    )
