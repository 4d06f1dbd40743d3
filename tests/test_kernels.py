"""The vectorized kernels must match their brute-force loop references."""

import numpy as np
import numpy.testing as npt

from rslimits import _kernels, channel, oracle, priors, psdlinalg
from rslimits.quadrature import gauss_hermite, monte_carlo

import kernel_reference as ref
from conftest import rademacher_model, random_discrete_prior


def test_channel_moments_match_reference(rng, monkeypatch):
    for prior, quad in [(priors.rademacher(), gauss_hermite(63)),
                        (random_discrete_prior(rng, 2), gauss_hermite(21)),
                        (random_discrete_prior(rng, 3, atom_count=3), monte_carlo(2000, seed=4))]:
        d = prior.dim
        s = 0.1 * np.eye(d)
        r = 0.7 * np.eye(d)
        fast = (channel.mutual_information(prior, s, r, quad),
                channel.mmse_matrix(prior, s, r, quad))
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "channel_discrete_moments", ref.channel_discrete_moments)
            slow = (channel.mutual_information(prior, s, r, quad),
                    channel.mmse_matrix(prior, s, r, quad))
        npt.assert_allclose(fast[0], slow[0], rtol=1e-12, atol=1e-13)
        npt.assert_allclose(fast[1], slow[1], rtol=1e-10, atol=1e-13)


def test_config_kernels_match_reference():
    m = rademacher_model(2.0, s=0.3)
    inst = oracle.sample_instance(m, 5, seed=8)
    configs = oracle.enumerate_configs(2, 5)
    T1, u1, E, _ = oracle._instance_terms(inst, psdlinalg.sqrtm_psd(m.s))
    out = {}
    for name, kernels in (("fast", _kernels), ("slow", ref)):
        ss = kernels.config_quadratic_terms(configs, T1, u1, E)
        p = np.exp(ss - ss.max())
        p /= p.sum()
        out[name] = (ss, kernels.config_row_marginals(configs, p, 2))
    npt.assert_allclose(out["fast"][0], out["slow"][0], rtol=1e-13, atol=1e-13)
    npt.assert_allclose(out["fast"][1], out["slow"][1], rtol=1e-13, atol=1e-15)


def test_reference_kernels_full_pipeline(monkeypatch):
    m = rademacher_model(1.6, s=0.2)
    fast = oracle.replica_average(m, 4, 50, seed=3).mi_per_row
    monkeypatch.setattr(_kernels, "config_quadratic_terms", ref.config_quadratic_terms)
    monkeypatch.setattr(_kernels, "config_row_marginals", ref.config_row_marginals)
    slow = oracle.replica_average(m, 4, 50, seed=3).mi_per_row
    npt.assert_allclose(fast, slow, rtol=1e-12)
