import itertools
import math
import tracemalloc

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


def test_sample_instance_matches_generator_per_stream():
    # bit for bit the draws of a fresh Generator(Philox(SeedSequence(seed +
    # (stream,)))) per stream with Generator.choice, for integer and tuple
    # seeds and non-uniform weights, from sample_instance and from one
    # chunk's generator re-keyed replica after replica (seed + (rep,))
    prior = priors.discrete([[1.0, 0.5], [-1.0, 0.0], [0.2, -1.2]], [0.5, 0.3, 0.2])
    m = ModelSpec(2, (0.5 * np.eye(2), [[0.3, 0.1], [0.1, -0.2]]), [[0.3, 0.1], [0.1, 0.2]],
                  prior)
    n, reps = 5, 3
    a_root = psdlinalg.sqrtm_psd(m.s)
    seeds = [(0, (0,)), (11, (11,)), (2 ** 40 + 3, (2 ** 40 + 3,)), ((7, 3), (7, 3)),
             ([777, 19, 5], (777, 19, 5))]

    def reference(entropy):
        signal_rng, noise_rng = (
            np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy + (stream,))))
            for stream in (0, 1))
        idx = signal_rng.choice(3, size=n, p=prior.weights)
        x = prior.atoms[idx]
        y_tilde = x @ a_root + noise_rng.standard_normal((n, 2))
        ys = [x @ b @ x.T / math.sqrt(n) + noise_rng.standard_normal((n, n)) for b in m.couplings]
        return idx, x, y_tilde, ys

    for seed, entropy in seeds:
        inst = oracle.sample_instance(m, n, seed)
        chunk = oracle._draw(m, n, a_root, oracle._entropy_words(seed), np.arange(reps))
        drawn = [(inst.signal_idx, inst.signal, inst.y_tilde, inst.ys)]
        drawn += [tuple(a[b] for a in chunk) for b in range(reps)]
        wanted = [reference(entropy)] + [reference(entropy + (rep,)) for rep in range(reps)]
        for (idx_got, x_got, y_tilde_got, ys_got), (idx, x, y_tilde, ys) in zip(drawn, wanted,
                                                                              strict=True):
            assert idx_got.dtype == idx.dtype
            npt.assert_array_equal(idx_got, idx)
            npt.assert_array_equal(x_got, x)
            npt.assert_array_equal(y_tilde_got, y_tilde)
            for got, want in zip(ys_got, ys, strict=True):
                npt.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 11, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 1, (5,), [2 ** 32 + 7, 3],
                                  (1, 2 ** 64 + 1, 9), [0, 0, 0, 4], (2 ** 40, 1, 2, 3, 4)])
def test_stream_keys_match_seed_sequence(seed):
    # numpy's SeedSequence hash over a chunk, bit for bit, for both streams:
    # one- and multi-word ints, sequences of 1-5 ints (4 or more entropy words
    # mix words beyond the pool), replicas on both sides of a chunk boundary
    # and the last replica a request may draw
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    words = oracle._entropy_words(seed)
    chunk = oracle._chunk_size(2 ** 12, 12)
    for reps in (np.arange(chunk - 3, chunk), np.arange(chunk, chunk + 4),
                 np.array([oracle.MAX_REPLICAS - 1])):
        keys = oracle._stream_keys(words, reps)
        assert keys.dtype == np.uint64 and keys.shape == (len(reps), 2, 2)
        for rep, rep_keys in zip(reps, keys, strict=True):
            for stream in (0, 1):
                want = np.random.SeedSequence(entropy + (int(rep), stream)).generate_state(
                    2, np.uint64)
                npt.assert_array_equal(rep_keys[stream], want)


def test_negative_seed_refused():
    # refused before its words are split, as SeedSequence refuses it
    m = rademacher_model(2.0)
    for seed in (-1, (3, -1), [-2 ** 70]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            oracle.sample_instance(m, 2, seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            oracle.replica_average(m, 2, 3, seed)


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
    # the cap admits the n = 14 fit of 4,000 replicas, and keeps a replica
    # index one 32-bit entropy word
    assert 4_000 <= oracle.MAX_REPLICAS < 2 ** 32
    with pytest.raises(ValueError, match="replica budget exceeded"):
        oracle.replica_average(m, 2, oracle.MAX_REPLICAS + 1, seed=0)


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


def test_score_matches_direct_residual_d2():
    # a chunk of d=2 replicas with two couplings and a non-diagonal S: each
    # column of _score against log weights coded here from the residual; with
    # a non-symmetric coupling too, whose atom-pair table T is symmetrised
    prior = priors.discrete([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-0.5, -1.0]],
                            [0.1, 0.2, 0.3, 0.4])
    for second in ([[0.3, 0.1], [0.1, -0.2]], [[0.3, 0.7], [-0.2, 0.1]]):
        m = ModelSpec(2, (0.5 * np.eye(2), second), [[0.3, 0.1], [0.1, 0.2]], prior)
        _check_score_against_residual(m, 3)


def _check_score_against_residual(m, n):
    a_root = psdlinalg.sqrtm_psd(m.s)
    enum = oracle._enumerate(m, n, a_root)
    configs = np.indices((m.prior.atom_count,) * n).reshape(n, -1).T   # row-major, (M, n)
    insts = [oracle.sample_instance(m, n, (6, rep)) for rep in range(3)]
    log_z, ll_signal, means, counts = oracle._score(
        m, enum, a_root, np.stack([inst.signal_idx for inst in insts]),
        np.stack([inst.y_tilde for inst in insts]), np.stack([inst.ys for inst in insts]))
    for b, inst in enumerate(insts):
        def log_weight(cfg):
            x = m.prior.atoms[list(cfg)]
            ss = np.sum((inst.y_tilde - x @ a_root) ** 2)
            for c, y in zip(m.couplings, inst.ys):
                ss += np.sum((y - x @ c @ x.T / math.sqrt(n)) ** 2)
            const = np.sum(inst.y_tilde ** 2) + sum(np.sum(y ** 2) for y in inst.ys)
            return np.sum(np.log(m.prior.weights[list(cfg)])) - 0.5 * (ss - const)
        lw = np.array([log_weight(cfg) for cfg in configs])
        npt.assert_allclose(log_z[b], logsumexp(lw), rtol=0, atol=1e-12)
        p = np.exp(lw - logsumexp(lw))
        tallies = [np.bincount(cfg, minlength=m.prior.atom_count) for cfg in configs]
        npt.assert_allclose(counts[b], p @ tallies, rtol=0, atol=1e-14)
        npt.assert_allclose(means[b], np.einsum("m,mia->ia", p, m.prior.atoms[configs]),
                            rtol=0, atol=1e-14)
        prior_lw = np.sum(np.log(m.prior.weights[inst.signal_idx]))
        npt.assert_allclose(ll_signal[b], log_weight(inst.signal_idx) - prior_lw, rtol=0, atol=1e-12)


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
    # likelihood coded here and the evidence from exact_posterior; the
    # replicas span more than one chunk and end on a partial one
    m = rademacher_model(2.0, s=0.3)
    n, reps, seed = 15, 7, 4
    chunk = oracle._chunk_size(2 ** n, n)
    assert chunk < reps and reps % chunk
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


def test_replica_average_memory_bounded():
    # replicas are scored in chunks of about CHUNK_DOUBLES doubles (2 MB), so
    # the peak does not grow with the replica count (unchunked: about 22 MB)
    m = rademacher_model(2.0, s=0.2)
    tracemalloc.start()
    try:
        oracle.replica_average(m, 12, 300, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_replica_memory_bounded_by_n_d():
    # a one-atom prior enumerates M = 1 configuration at any n, so only the
    # n d bound limits the work: one replica's coefficient matrix Q holds
    # (n d)^2 doubles, CHUNK_DOUBLES (2 MB) at the largest accepted n d = 500,
    # and the peak stays within Q and less than one more array of its size
    # (3.4 MB measured)
    d = 20
    m = ModelSpec(d, (0.5 * np.eye(d),), 0.1 * np.eye(d), priors.discrete([np.ones(d)], [1.0]))
    tracemalloc.start()
    try:
        res = oracle.replica_average(m, 25, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * oracle.CHUNK_DOUBLES
    # the true signal is the one configuration: its log weight is log Z exactly
    assert res.mi_per_row == 0.0
    with pytest.raises(ValueError, match=r"n d = 520, \(n d\)\^2 > 250000"):
        oracle.replica_average(m, 26, 2, seed=0)
    # M = 2^17 = 131,072 configurations: the data-free log weights come from
    # atom counts, so no (M, n) index array and no (M, d, d) Gram matrices are
    # built (measured 3.9 and 5.9 MB; with them 38.9 MB, and the d = 20 Gram
    # matrices alone take 419 MB)
    two_atoms = ModelSpec(d, (0.5 * np.eye(d),), 0.1 * np.eye(d),
                          priors.discrete([np.ones(d), -np.ones(d)], [0.5, 0.5]))
    for model in (rademacher_model(2.0, s=0.2), two_atoms):
        tracemalloc.start()
        try:
            oracle.replica_average(model, 17, 2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * oracle.CHUNK_DOUBLES


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
    a_root = psdlinalg.sqrtm_psd(m.s)
    coupling = np.asarray(m.couplings[0])
    configs = np.indices((m.prior.atom_count,) * n).reshape(n, -1).T   # row-major, (M, n)
    for _ in range(64):   # arbitrary common data nodes
        y_tilde = rng.normal(scale=2.0, size=(n, 1))
        y = rng.normal(scale=2.0, size=(n, n))
        inst = oracle.FiniteInstance(model=m, n=n, seed=0,
                                     signal=atoms[[0] * n],
                                     signal_idx=np.zeros(n, dtype=np.int64),
                                     y_tilde=y_tilde, ys=(y,))
        summ = oracle.exact_posterior(inst)
        # joint E[X^T <X~>] with the X-average done by the posterior, its log
        # weights coded here from the residual
        lw = np.array([np.sum(np.log(m.prior.weights[cfg]))
                       - 0.5 * np.sum((y_tilde - atoms[cfg] @ a_root) ** 2)
                       - 0.5 * np.sum((y - atoms[cfg] @ coupling @ atoms[cfg].T / math.sqrt(n)) ** 2)
                       for cfg in configs])
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
