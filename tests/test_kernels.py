"""The vectorized kernels must match their brute-force loop references."""

import numpy as np
import numpy.testing as npt

from rslimits import _kernels, channel, oracle, priors, psdlinalg
from rslimits.potential import ModelSpec
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
    # every replica column of the batched kernel against the loop reference;
    # the d=2 model with two couplings exercises the kron(Y_l, B_l) layout
    d2 = ModelSpec(2, (0.5 * np.eye(2), [[0.3, 0.1], [0.1, -0.2]]), [[0.3, 0.1], [0.1, 0.2]],
                   priors.discrete([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-0.5, -1.0]],
                                   [0.1, 0.2, 0.3, 0.4]))
    for m, n in ((rademacher_model(2.0, s=0.3), 5), (d2, 3)):
        a_root = psdlinalg.sqrtm_psd(m.s)
        enum = oracle._enumerate(m, n, a_root)
        insts = [oracle.sample_instance(m, n, seed=(8, rep)) for rep in range(3)]
        L, Q = oracle._data_terms(insts, a_root)
        fast = _kernels.config_quadratic_terms(enum.configs, enum.signals, L, Q)
        assert fast.shape == (len(enum.configs), len(insts))
        for b in range(len(insts)):
            slow = ref.config_quadratic_terms(enum.configs, enum.signals, L[:, b:b + 1], Q[b:b + 1])
            npt.assert_allclose(fast[:, b], slow[:, 0], rtol=0, atol=1e-12)
        K = m.prior.atom_count
        p = np.exp(fast[:, 0] - fast[:, 0].max())
        p /= p.sum()
        npt.assert_allclose(_kernels.config_row_marginals(enum.configs, p, K),
                            ref.config_row_marginals(enum.configs, p, K), rtol=1e-13, atol=1e-15)


def test_reference_kernels_full_pipeline(monkeypatch):
    m = rademacher_model(1.6, s=0.2)
    fast = oracle.replica_average(m, 4, 50, seed=3).mi_per_row
    monkeypatch.setattr(_kernels, "config_quadratic_terms", ref.config_quadratic_terms)
    monkeypatch.setattr(_kernels, "config_row_marginals", ref.config_row_marginals)
    slow = oracle.replica_average(m, 4, 50, seed=3).mi_per_row
    npt.assert_allclose(fast, slow, rtol=1e-12)
