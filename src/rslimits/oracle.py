"""Exact finite-size Bayesian posterior for discrete priors by full enumeration.

A finite instance realizes the observation model at some small n; the
posterior over the atom_count**n signal configurations is computed exactly
in the log domain (a single log-sum-exp normalization per instance), which
yields exact per-row means/covariances, the log evidence, overlap statistics
and finite-n mutual information estimates.  These validate the asymptotic
predictions of the variational solver at desk scale.

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
    K = model.prior.atom_count
    if K ** n > budget:
        raise ValueError(f"enumeration budget exceeded: {K}^{n} = {K ** n} > {budget}")
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


def _instance_terms(inst):
    """Per-configuration statistics of the log posterior weight.

    Returns (T1, u1, E, const) with the data-dependent quadratic pieces:
    the residual of configuration x decomposes as
        ||data - mean(x)||^2 = const + sum_i (-2 T1[i, c_i] + u1[c_i])
                               + sum_ij E[i, j, c_i, c_j].
    """
    model, n = inst.model, inst.n
    atoms = model.prior.atoms
    a_root = psdlinalg.sqrtm_psd(model.s)
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


def exact_posterior(inst, budget=DEFAULT_BUDGET):
    """Enumerate the posterior exactly; log-domain weights throughout."""
    model = inst.model
    K = _check_enumerable(model, inst.n, budget)
    configs = enumerate_configs(K, inst.n)
    T1, u1, E, const = _instance_terms(inst)
    lw = _log_weights(inst, configs, T1, u1, E)
    log_z = float(logsumexp(lw))
    p = np.exp(lw - log_z)
    marg = _kernels.config_row_marginals(configs, p, K)   # (n, K)
    atoms = model.prior.atoms
    per_row_mean = marg @ atoms
    n = inst.n
    second = np.einsum("ik,ka,kb->ab", marg, atoms, atoms) / n
    outer = per_row_mean.T @ per_row_mean / n
    cov_avg = psdlinalg.project_psd(second - outer)
    overlap = inst.signal.T @ per_row_mean / n
    replica_overlap = per_row_mean.T @ per_row_mean / n
    return PosteriorSummary(
        per_row_mean=per_row_mean,
        per_row_cov_avg=cov_avg,
        log_evidence=log_z - 0.5 * const,
        overlap_mean=overlap,
        replica_overlap_mean=replica_overlap,
    )


@dataclass(frozen=True)
class FiniteMiResult:
    mi_per_row: float
    std_err: float
    samples: int


def finite_mi(model, n, data_samples, seed, budget=DEFAULT_BUDGET):
    """Monte Carlo estimate of (1/n) I(X; data) over data realizations.

    Per realization the estimator is the exact
    (log p(data | signal) - log p(data)) / n; both terms share the data
    sample, which couples them and cuts the variance.  Nonnegative in
    expectation (it is a KL divergence).
    """
    K = _check_enumerable(model, n, budget, data_samples)
    configs = enumerate_configs(K, n)
    vals = np.empty(data_samples)
    for rep in range(data_samples):
        inst = sample_instance(model, n, _as_entropy(seed) + (rep,), budget)
        T1, u1, E, _ = _instance_terms(inst)
        lw = _log_weights(inst, configs, T1, u1, E)
        ll_signal = -0.5 * _signal_quadratic(inst, T1, u1, E)
        vals[rep] = (ll_signal - float(logsumexp(lw))) / n
    std = float(vals.std(ddof=1)) if data_samples > 1 else float("nan")
    return FiniteMiResult(
        mi_per_row=float(vals.mean()),
        std_err=std / math.sqrt(data_samples) if data_samples > 1 else float("nan"),
        samples=data_samples,
    )


@dataclass(frozen=True)
class NishimoriResult:
    residual: float
    std_err: float
    overlap_mean: np.ndarray
    replica_overlap_mean: np.ndarray
    samples: int


def nishimori_residual(model, n, data_samples, seed, budget=DEFAULT_BUDGET):
    """|| E<Q> - E<Q^(1,2)> ||_F estimated by Monte Carlo over the data.

    The Bayes identity makes the expectation of the difference exactly zero;
    the returned std_err is the Frobenius norm of the entrywise standard
    errors of the difference, for "residual <= k sigma" style checks.
    """
    K = _check_enumerable(model, n, budget, data_samples)
    configs = enumerate_configs(K, n)
    atoms = model.prior.atoms
    d = model.d
    diffs = np.empty((data_samples, d, d))
    q_sum = np.zeros((d, d))
    r_sum = np.zeros((d, d))
    for rep in range(data_samples):
        inst = sample_instance(model, n, _as_entropy(seed) + (rep,), budget)
        T1, u1, E, _ = _instance_terms(inst)
        lw = _log_weights(inst, configs, T1, u1, E)
        p = np.exp(lw - logsumexp(lw))
        marg = _kernels.config_row_marginals(configs, p, K)
        mean = marg @ atoms
        q_rep = inst.signal.T @ mean / n
        r_rep = mean.T @ mean / n
        diffs[rep] = q_rep - r_rep
        q_sum += q_rep
        r_sum += r_rep
    mean_diff = diffs.mean(axis=0)
    if data_samples > 1:
        entry_se = diffs.std(axis=0, ddof=1) / math.sqrt(data_samples)
        std_err = float(np.linalg.norm(entry_se, "fro"))
    else:
        std_err = float("nan")
    return NishimoriResult(
        residual=float(np.linalg.norm(mean_diff, "fro")),
        std_err=std_err,
        overlap_mean=q_sum / data_samples,
        replica_overlap_mean=r_sum / data_samples,
        samples=data_samples,
    )
