"""The vectorized kernels must match their brute-force loop references."""

import tracemalloc

import numpy as np
import numpy.testing as npt
from scipy.special import logsumexp as scipy_logsumexp

from rslimits import _kernels, channel, oracle, priors, psdlinalg
from rslimits.potential import ModelSpec
from rslimits.quadrature import gauss_hermite, monte_carlo

import kernel_reference as ref
from conftest import rademacher_model, random_discrete_prior


def _product_prior_d4():
    # d=4, K=16: +-1 on two coordinates, {0, 1} on two, uniform weights
    pm, zo = (1.0, -1.0), (0.0, 1.0)
    atoms = np.array(np.meshgrid(pm, pm, zo, zo, indexing="ij")).reshape(4, -1).T
    return priors.discrete(atoms, np.full(16, 1.0 / 16))


def _channel_pair(prior, quad):
    d = prior.dim
    s = 0.1 * np.eye(d)
    r = 0.7 * np.eye(d)
    return (channel.mutual_information(prior, s, r, quad),
            channel.mmse_matrix(prior, s, r, quad))


def test_channel_moments_match_reference(rng, monkeypatch):
    atoms, weights = [[1.0, 0.5], [-1.0, 0.0], [0.2, -1.2]], [0.5, 0.3, 0.2]
    cases = [(priors.rademacher(), gauss_hermite(63), None),
             (random_discrete_prior(rng, 2), gauss_hermite(21), None),
             (random_discrete_prior(rng, 3, atom_count=3), monte_carlo(2000, seed=4), None),
             # 441 nodes in chunks of 6, the last one partial
             (random_discrete_prior(rng, 2), gauss_hermite(21), 100),
             (_product_prior_d4(), monte_carlo(64, seed=2), None),
             # last: a zero-weight atom, whose -inf logits the one exp sends to 0
             (priors.discrete(atoms + [[2.0, 2.0]], weights + [0.0]), monte_carlo(3000, seed=6), None)]
    for prior, quad, chunk_logits in cases:
        with monkeypatch.context() as mp:
            if chunk_logits is not None:
                mp.setattr(_kernels, "CHUNK_LOGITS", chunk_logits)
            fast = _channel_pair(prior, quad)
            # the MI-only path computes the full path's MI, bit for bit
            a = psdlinalg.sqrtm_psd(0.8 * np.eye(prior.dim))
            mi = channel._discrete_moments(prior, a, quad, moments=True)[0]
            assert channel._discrete_moments(prior, a, quad, moments=False) == (mi, None, None)
            mp.setattr(_kernels, "channel_discrete_moments", ref.channel_discrete_moments)
            slow = _channel_pair(prior, quad)
        npt.assert_allclose(fast[0], slow[0], rtol=1e-12, atol=1e-13)
        npt.assert_allclose(fast[1], slow[1], rtol=1e-10, atol=1e-13)
        if chunk_logits is not None:
            whole = _channel_pair(prior, quad)
            npt.assert_allclose(fast[0], whole[0], rtol=1e-13, atol=1e-14)
            npt.assert_allclose(fast[1], whole[1], rtol=1e-12, atol=1e-14)
    # the zero-weight atom drops out: the numbers of the prior without it
    without = _channel_pair(priors.discrete(atoms, weights), quad)
    npt.assert_allclose(fast[0], without[0], rtol=0, atol=1e-13)
    npt.assert_allclose(fast[1], without[1], rtol=0, atol=1e-13)


def test_channel_kernel_memory_bounded():
    # one (K, K, m) buffer of CHUNK_LOGITS doubles (16 MB) is the largest
    # array: the peak is the 2e5 nodes and weights (8 MB) plus that buffer
    # plus (K, m) rows.  Measured 27.0 MB; the unfused kernel peaked at
    # 94.0 MB (several K^2 m temporaries at once).
    prior = _product_prior_d4()
    quad = monte_carlo(200_000, seed=1)
    nodes_bytes = 200_000 * (4 + 1) * 8
    tracemalloc.start()
    try:
        channel.mutual_information(prior, np.zeros((4, 4)), 0.8 * np.eye(4), quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nodes_bytes + 1.5 * 8 * _kernels.CHUNK_LOGITS


def test_config_kernels_match_reference():
    # every replica row of the batched kernel against the loop reference; the
    # K = 3, d = 2 model with two couplings exercises the kron(Y_l, B_l)
    # layout, n = 1 an empty tail and n = 3, 5 a head longer than the tail
    d2 = ModelSpec(2, (0.5 * np.eye(2), [[0.3, 0.1], [0.1, -0.2]]), [[0.3, 0.1], [0.1, 0.2]],
                   priors.discrete([[1.0, 0.5], [-1.0, 0.0], [0.2, -1.2]], [0.5, 0.3, 0.2]))
    cases = [(rademacher_model(2.0, s=0.3), 5)] + [(d2, n) for n in (1, 2, 3, 5)]
    for m, n in cases:
        a_root = psdlinalg.sqrtm_psd(m.s)
        enum = oracle._enumerate(m, n, a_root)
        # configuration a M_b + b is head a followed by tail b
        m_b = len(enum.tail)
        rows = np.concatenate([np.repeat(enum.head, m_b, axis=0),
                               np.tile(enum.tail, (len(enum.head), 1))], axis=1)
        npt.assert_array_equal(rows, m.prior.atoms[enum.configs].reshape(len(enum.configs), -1))
        # replicas 0..2 of seed 8, drawn as one chunk
        y_tilde, ys = oracle._draw(m, n, a_root, [8], np.arange(3))[2:]
        L, Q = oracle._data_terms(m, a_root, y_tilde, ys)
        fast = _kernels.config_quadratic_terms(enum.configs, enum.head, enum.tail, L, Q)
        assert fast.shape == (3, len(enum.configs))
        for b in range(3):
            slow = ref.config_quadratic_terms(enum.configs, enum.head, enum.tail,
                                              L[b:b + 1], Q[b:b + 1])
            npt.assert_allclose(fast[b], slow[0], rtol=0, atol=1e-12)
        K = m.prior.atom_count
        p = np.exp(fast[0] - fast[0].max())
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


def test_logsumexp_matches_scipy(rng):
    # columns far from 0 (a shift-free sum would overflow or underflow), a
    # column with -inf entries (zero-weight terms) and an all -inf column
    a = rng.normal(0.0, 30.0, size=(257, 6))
    a[:, 1] += 800.0
    a[:, 2] -= 800.0
    a[::3, 3] = -np.inf
    a[:, 4] = -np.inf
    got = _kernels.logsumexp(a, axis=0)
    assert got.shape == (6,) and got[4] == -np.inf
    npt.assert_allclose(got, scipy_logsumexp(a, axis=0), rtol=1e-15, atol=0)
    npt.assert_allclose(_kernels.logsumexp(a.T, axis=1), got, rtol=1e-15, atol=0)
