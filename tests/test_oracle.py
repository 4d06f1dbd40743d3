import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import logsumexp
from scipy.stats import chisquare

from rslimits import channel, oracle, priors, psdlinalg
from rslimits.potential import ModelSpec

from conftest import rademacher_model


def hand_posterior_means(model, inst):
    """Separately coded enumeration over explicit atom tuples (slow, d=1)."""
    atoms = model.prior.atoms[:, 0]
    weights = model.prior.weights
    n = inst.n
    root_s = math.sqrt(model.s[0, 0])
    lws, configs = [], []
    for combo in itertools.product(range(len(atoms)), repeat=n):
        x = atoms[list(combo)].reshape(n, 1)
        ss = np.sum((inst.y_tilde - x * root_s) ** 2)
        for b, y in zip(model.couplings, inst.ys):
            ss += np.sum((y - b[0, 0] * (x @ x.T) / math.sqrt(n)) ** 2)
        lws.append(np.sum(np.log(weights[list(combo)])) - 0.5 * ss)
        configs.append(x.ravel())
    lws = np.array(lws)
    p = np.exp(lws - logsumexp(lws))
    means = np.einsum("m,mi->i", p, np.array(configs))
    return means, float(logsumexp(lws))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_instance_deterministic(wigner_rademacher):
    a = oracle.sample_instance(wigner_rademacher, 3, seed=11)
    b = oracle.sample_instance(wigner_rademacher, 3, seed=11)
    npt.assert_array_equal(a.signal, b.signal)
    npt.assert_array_equal(a.y_tilde, b.y_tilde)
    for ya, yb in zip(a.ys, b.ys):
        npt.assert_array_equal(ya, yb)


def test_sample_instance_prior_frequencies():
    p = priors.discrete([[1.0], [0.0], [-1.0]], [0.2, 0.5, 0.3])
    m = ModelSpec(1, (), [[0.0]], p)
    counts = np.zeros(3)
    n_seeds = 10_000
    for seed in range(n_seeds):
        inst = oracle.sample_instance(m, 1, seed)
        counts[inst.signal_idx[0]] += 1
    stat = chisquare(counts, f_exp=n_seeds * p.weights)
    assert stat.pvalue > 0.01


def test_sample_instance_data_independent_of_signal():
    # L=0, S=0: flipping the atom values must not move the noise stream
    m1 = ModelSpec(1, (), [[0.0]], priors.discrete([[1.0], [-1.0]], [0.5, 0.5]))
    m2 = ModelSpec(1, (), [[0.0]], priors.discrete([[5.0], [-5.0]], [0.5, 0.5]))
    a = oracle.sample_instance(m1, 4, seed=3)
    b = oracle.sample_instance(m2, 4, seed=3)
    npt.assert_array_equal(a.y_tilde, b.y_tilde)


def test_budget_and_prior_guards():
    m = rademacher_model(2.0)
    with pytest.raises(ValueError):
        oracle.sample_instance(m, 25, seed=0)   # 2^25 over budget
    g = ModelSpec(1, ([[1.0]],), [[0.0]], priors.gaussian([[1.0]]))
    with pytest.raises(ValueError):
        oracle.sample_instance(g, 2, seed=0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            oracle.replica_average(m, n, 10, seed=0)
    with pytest.raises(ValueError, match="data_samples"):
        oracle.replica_average(m, 2, -5, seed=0)


# ---------------------------------------------------------------------------
# exact posterior
# ---------------------------------------------------------------------------

def test_posterior_scalar_tanh():
    m = ModelSpec(1, (), [[1.7]], priors.rademacher())
    inst = oracle.sample_instance(m, 1, seed=5)
    summ = oracle.exact_posterior(inst)
    npt.assert_allclose(summ.per_row_mean[0, 0],
                        np.tanh(math.sqrt(1.7) * inst.y_tilde[0, 0]), atol=1e-12)


def test_posterior_flat_data_symmetric_mean_zero():
    m = rademacher_model(2.0)
    inst = oracle.FiniteInstance(model=m, n=3, seed=0,
                                 signal=np.ones((3, 1)),
                                 signal_idx=np.zeros(3, dtype=np.int64),
                                 y_tilde=np.zeros((3, 1)),
                                 ys=(np.zeros((3, 3)),))
    summ = oracle.exact_posterior(inst)
    npt.assert_allclose(summ.per_row_mean, np.zeros((3, 1)), atol=1e-12)


@pytest.mark.parametrize("s_val", [0.0, 0.3])
def test_posterior_matches_hand_enumeration(s_val):
    m = rademacher_model(2.0, s=s_val)
    inst = oracle.sample_instance(m, 2, seed=9)
    summ = oracle.exact_posterior(inst)
    means, log_ev = hand_posterior_means(m, inst)
    npt.assert_allclose(summ.per_row_mean.ravel(), means, atol=1e-12)
    npt.assert_allclose(summ.log_evidence, log_ev, atol=1e-10)


def test_posterior_cov_psd_and_bounded(wigner_rademacher):
    inst = oracle.sample_instance(wigner_rademacher, 4, seed=2)
    summ = oracle.exact_posterior(inst)
    assert psdlinalg.is_psd(summ.per_row_cov_avg, tol=1e-9)
    assert psdlinalg.loewner_leq(summ.per_row_cov_avg,
                                 wigner_rademacher.prior.covariance(), tol=1e-9)


def test_side_channel_breaks_symmetry():
    m = rademacher_model(2.0, s=0.5)
    means = [oracle.exact_posterior(oracle.sample_instance(m, 3, seed)).per_row_mean
             for seed in range(6)]
    spread = np.std([mm[0, 0] for mm in means])
    assert spread > 1e-3


# ---------------------------------------------------------------------------
# finite-size mutual information
# ---------------------------------------------------------------------------

def test_finite_mi_matches_scalar_channel():
    m = ModelSpec(1, (), [[1.3]], priors.rademacher())
    res = oracle.replica_average(m, 1, 3000, seed=17)
    truth = channel.mutual_information(priors.rademacher(), [[1.3]], [[0.0]])
    assert abs(res.mi_per_row - truth) <= 3.0 * res.mi_std_err


def test_finite_mi_zero_without_observations():
    m = ModelSpec(1, (), [[0.0]], priors.rademacher())
    res = oracle.replica_average(m, 3, 50, seed=1)
    npt.assert_allclose(res.mi_per_row, 0.0, atol=1e-12)


def test_finite_mi_nonnegative(wigner_rademacher):
    res = oracle.replica_average(wigner_rademacher, 4, 400, seed=3)
    assert res.mi_per_row > -3.0 * res.mi_std_err


# ---------------------------------------------------------------------------
# Nishimori identity
# ---------------------------------------------------------------------------

def test_replica_average_matches_exact_posterior():
    # per replica, (log p(data | signal) - log p(data)) / n with the
    # likelihood coded here and the evidence from exact_posterior
    m = rademacher_model(2.0, s=0.3)
    n, reps, seed = 3, 5, 4
    res = oracle.replica_average(m, n, reps, seed)
    mi, q, r = [], [], []
    for rep in range(reps):
        inst = oracle.sample_instance(m, n, (seed, rep))
        x = inst.signal
        ss = np.sum((inst.y_tilde - x * math.sqrt(m.s[0, 0])) ** 2)
        for b, y in zip(m.couplings, inst.ys):
            ss += np.sum((y - x @ b @ x.T / math.sqrt(n)) ** 2)
        summ = oracle.exact_posterior(inst)
        mi.append((-0.5 * ss - summ.log_evidence) / n)
        q.append(summ.overlap_mean)
        r.append(summ.replica_overlap_mean)
    assert res.samples == reps
    npt.assert_allclose(res.mi_per_row, np.mean(mi), rtol=0, atol=1e-12)
    npt.assert_allclose(res.overlap_mean, np.mean(q, axis=0), rtol=0, atol=1e-12)
    npt.assert_allclose(res.replica_overlap_mean, np.mean(r, axis=0), rtol=0, atol=1e-12)


def test_nishimori_within_mc_error():
    m = rademacher_model(2.0, s=0.2)
    res = oracle.replica_average(m, 4, 2000, seed=5)
    assert res.nishimori_residual <= 4.0 * res.nishimori_std_err


def test_nishimori_exact_for_symmetric_model():
    # S=0, symmetric prior and coupling: both overlaps are exactly zero
    m = rademacher_model(2.0)
    res = oracle.replica_average(m, 3, 50, seed=2)
    npt.assert_allclose(res.nishimori_residual, 0.0, atol=1e-14)


def test_nishimori_exact_under_data_quadrature():
    # replace the data average by quadrature over common data nodes: the
    # conditional X-average is exact, so both sides agree pointwise
    m = rademacher_model(1.0, s=0.4)
    n = 2
    rng = np.random.default_rng(0)
    lhs = np.zeros((1, 1))
    rhs = np.zeros((1, 1))
    atoms = m.prior.atoms
    for _ in range(64):   # arbitrary common data nodes
        y_tilde = rng.normal(scale=2.0, size=(n, 1))
        y = rng.normal(scale=2.0, size=(n, n))
        inst = oracle.FiniteInstance(model=m, n=n, seed=0,
                                     signal=atoms[[0] * n],
                                     signal_idx=np.zeros(n, dtype=np.int64),
                                     y_tilde=y_tilde, ys=(y,))
        summ = oracle.exact_posterior(inst)
        # joint E[X^T <X~>] with the X-average done by the posterior
        configs = oracle.enumerate_configs(m.prior.atom_count, n)
        T1, u1, E, _ = oracle._instance_terms(inst, psdlinalg.sqrtm_psd(m.s))
        lw = oracle._log_weights(inst, configs, T1, u1, E)
        p = np.exp(lw - logsumexp(lw))
        mean_rows = summ.per_row_mean
        for cfg, pc in zip(configs, p):
            x = atoms[cfg]
            lhs += pc * (x.T @ mean_rows) / n
        rhs += mean_rows.T @ mean_rows / n
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_posterior_mean_shrinks():
    m = rademacher_model(2.0, s=0.3)
    covs = []
    for seed in range(40):
        inst = oracle.sample_instance(m, 3, seed)
        covs.append(oracle.exact_posterior(inst).per_row_cov_avg)
    avg = np.mean(covs, axis=0)
    se = np.std(covs, axis=0, ddof=1).max() / math.sqrt(len(covs))
    prior_cov = m.prior.covariance()
    assert psdlinalg.loewner_leq(avg, prior_cov + 4.0 * se * np.eye(1), tol=1e-9)
