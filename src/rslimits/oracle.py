"""Exact finite-size Bayesian posterior for discrete priors by full enumeration.

A finite instance realizes the observation model at some small n; the
posterior over the atom_count**n signal configurations is computed exactly
in the log domain (a single log-sum-exp normalization per instance), which
yields exact per-row means/covariances, the log evidence, overlap statistics
and finite-n mutual information estimates.  These validate the asymptotic
predictions of the variational solver at desk scale.

Two routines work on a chunk of instances as arrays: ``_draw`` draws it and
``_score`` enumerates and normalizes it.  ``sample_instance`` and
``exact_posterior`` use them on a chunk of one; ``replica_average`` passes
them its seeded data replicas chunk by chunk and feeds both of its estimates
(finite-n mutual information and the Nishimori residual) from that one pass,
with no per-replica object.

Cost model
----------
With A = S^{1/2}, the log weight of a configuration with signal X (n, d) is

    log prior(X) + <y~ A, X> + sum_l <Y_l, X B_l X^T> / sqrt(n) + base(X),

linear plus quadratic in X given the data; base(X) = -1/2 (||X A||^2 +
sum_l ||X B_l X^T||^2 / n).  With the log prior it depends on X only through
its atom counts c (K,): c . v - 1/2 c^T T c, with v_k = log w_k -
1/2 ||x_k A||^2 and T_kj = sum_l (x_k B_l x_j^T)^2 / n, symmetrised.  Once
per request the M = atom_count**n configurations are enumerated with their
data-free log weights, the one place a log weight is computed: a replica's
true signal is one of the configurations and is scored with them.
Configuration a M_b + b is head a on the first n_a = n - n // 2 rows and
tail b on the last n_b = n // 2 (meet in the middle): only the M_a heads' and
M_b tails' signal rows and atom counts are stored, and a chunk of B replicas
costs head-only and tail-only terms, one batched (M_a, n_b d) x (n_b d, M_b)
GEMM for the cross term (about M n_b d multiply-adds per replica, not
M (n d)^2), a log-sum-exp over the M axis and the head and tail marginals of
p for the row means and atom counts.  Only the (M,) data-free and the
chunk's (B, M) log weights have a row per configuration.  ``CHUNK_DOUBLES``
bounds the chunk's largest arrays and one replica's (n d)^2 coefficients;
the budget on M and K^2 keeps enumeration affordable.

Draws.  Each replica reads two counter-based Philox streams, one for the
signal and one for the noise; a stream is fixed by its 128-bit key alone.
So the 2 B keys of a chunk are derived first, in one vectorized pass of
numpy's SeedSequence hash (about 0.1 ms per chunk, against about 17 us per
stream through ``SeedSequence``).  Then the one generator is re-keyed once
per stream, and each stream is read by one call: n uniforms for the signal,
n d + L n^2 normals for the noise.  Signals and data are built from these
with batched matmuls over the chunk.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, psdlinalg
from ._kernels import logsumexp
from .priors import DISCRETE

DEFAULT_BUDGET = 200_000      # configurations one request may enumerate, and entries of T
# doubles in the largest arrays of a chunk of replicas (2 MB), one replica's Q too
CHUNK_DOUBLES = 250_000
# data replicas one request may draw: bounds its time and its per-replica
# results, and keeps a replica index one 32-bit entropy word of its seed
MAX_REPLICAS = 100_000

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pinned bit for
# bit in the tests: a pool of 4 uint32 words, two multiplicative hash-constant
# sequences (A while mixing entropy in, B while reading the state out)
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


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
    """The one check of an oracle request (K^max(n, 2): K^n configurations, K^2 in T)."""
    if model.prior.kind != DISCRETE:
        raise ValueError("exact enumeration requires a discrete prior")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if data_samples < 1:
        raise ValueError(f"data_samples must be >= 1, got {data_samples}")
    if data_samples > MAX_REPLICAS:
        raise ValueError(f"replica budget exceeded: {data_samples} data samples "
                         f"> {MAX_REPLICAS}")
    if (nd := n * model.d) ** 2 > CHUNK_DOUBLES:     # one replica's Q, (n d)^2 doubles
        raise ValueError(f"enumeration budget exceeded: n d = {nd}, (n d)^2 > {CHUNK_DOUBLES}")
    K = model.prior.atom_count
    if K ** max(n, 2) > DEFAULT_BUDGET:
        raise ValueError(f"enumeration budget exceeded: K^max(n, 2) = {K}^{max(n, 2)} > "
                         f"{DEFAULT_BUDGET} (K^n configurations, a K^2 atom-pair table)")


def _entropy_words(seed):
    """The uint32 words numpy's ``SeedSequence`` reads from an int or a sequence
    of ints: each int in 32-bit little-endian words, 0 as one word."""
    words = []
    for value in seed if isinstance(seed, (tuple, list)) else (seed,):
        value = int(value)
        if value < 0:       # refused before splitting: the shifts below would not end
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _hash_constants(init, mult, count):
    """init * mult**k mod 2**32 for k < count, shaped to broadcast over the lanes."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None, None]


def _stream_keys(words, last):
    """Philox keys of both streams of a chunk of seeds, in one pass over the chunk.

    Seed b is the entropy words + [last[b]] (last[b] < 2**32); its stream s is
    keyed by ``SeedSequence(words + [last[b], s]).generate_state(2, uint64)``,
    returned as keys[b, s] (B, 2, 2) uint64.  This is numpy's SeedSequence
    (pool of 4 words, ``hashmix``/``mix``, no spawn key) on uint32 arrays with
    one lane per (seed, stream): the hash constant runs the same sequence in
    every lane, so the pool rows that one step updates are hashed together.
    """
    entropy = np.empty((len(words) + 2, len(last), 2), dtype=np.uint32)
    entropy[:-2] = np.reshape(words, (-1, 1, 1))
    entropy[-2] = np.reshape(last, (-1, 1))
    entropy[-1] = (0, 1)
    extra = max(0, len(entropy) - _POOL_SIZE)
    hash_const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra) + 1)
    done = 0

    def hashmix(value, rows):           # row i at the (done + i)-th step
        nonlocal done
        out = value ^ hash_const[done:done + rows]
        out *= hash_const[done + 1:done + rows + 1]
        out ^= out >> _XSHIFT
        done += rows
        return out

    def mix(x, y):
        out = x * _MIX_MULT_L - y * _MIX_MULT_R
        out ^= out >> _XSHIFT
        return out

    head = entropy[:_POOL_SIZE]
    pool = np.zeros((_POOL_SIZE, *entropy.shape[1:]), dtype=np.uint32)   # short entropy: 0s
    pool[:len(head)] = head
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):       # mix all bits together: src into every other row
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in entropy[_POOL_SIZE:]:   # entropy beyond the pool, into every row
        pool = mix(pool, hashmix(word, _POOL_SIZE))
    # generate_state: 4 uint32 words off the pool, read as 2 little-endian uint64
    hash_const = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)
    pool ^= hash_const[:-1]
    pool *= hash_const[1:]
    pool ^= pool >> _XSHIFT
    state = pool.astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).transpose(1, 2, 0)


def _draw(model, n, a_root, words, last):
    """Signal and data of a chunk of B seeds, as arrays over the chunk.

    Seed b is the entropy words + [last[b]]; its stream s is
    Philox(SeedSequence(words + [last[b], s])).  The keys of the chunk come
    from ``_stream_keys`` in one pass, then the one generator is re-keyed per
    stream as the Philox constructor keys it: stream 0 gives the atom indices
    through ``Generator.choice``'s weighted path (``cdf.searchsorted`` of
    uniforms), stream 1 one ``standard_normal`` run that reads the noise of
    y~ and then of each Y_l, bit for bit the draws of separate calls.
    Returns idx (B, n), signal (B, n, d), y_tilde (B, n, d), ys (B, L, n, n).
    """
    keys = _stream_keys(words, last).tolist()     # Python ints: the state setter's fast path
    count, d, links = len(last), model.d, len(model.couplings)
    rng = np.random.Generator(np.random.Philox(0))
    philox = {"counter": [0] * 4, "key": None}
    state = {"bit_generator": "Philox", "buffer": [0] * 4, "state": philox,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(key):
        philox["key"] = key
        rng.bit_generator.state = state
        return rng

    uniforms = np.empty((count, n))
    noise = np.empty((count, n * d + links * n * n))
    for b, (signal_key, noise_key) in enumerate(keys):
        stream(signal_key).random(out=uniforms[b])
        stream(noise_key).standard_normal(out=noise[b])
    cdf = np.cumsum(model.prior.weights)
    cdf /= cdf[-1]
    idx = cdf.searchsorted(uniforms, side="right")
    signal = model.prior.atoms[idx]
    y_tilde = signal @ a_root + noise[:, :n * d].reshape(count, n, d)
    couplings = np.reshape(model.couplings, (links, d, d))
    ys = signal[:, None] @ couplings @ signal.transpose(0, 2, 1)[:, None]
    ys /= math.sqrt(n)
    ys += noise[:, n * d:].reshape(count, links, n, n)
    return idx, signal, y_tilde, ys


def sample_instance(model, n, seed):
    """Draw signal and data; reproducible given the seed.

    ``_draw`` on a chunk of one: the last entropy word of the seed is the
    chunk's one varying word.  The signal and noise streams are independent
    (separate counter-based streams derived from the seed), so e.g. the noise
    realization does not change when the prior gains atoms.
    """
    _check_enumerable(model, n)
    words = _entropy_words(seed)
    idx, signal, y_tilde, ys = _draw(model, n, psdlinalg.sqrtm_psd(model.s), words[:-1],
                                     words[-1:])
    return FiniteInstance(model=model, n=n, seed=seed, signal=signal[0], signal_idx=idx[0],
                          y_tilde=y_tilde[0], ys=tuple(ys[0]))


@dataclass(frozen=True)
class _Enumeration:
    """The configurations of one request, and what the data do not change."""

    head: np.ndarray          # (M_a, n_a d) signal rows of the heads, flattened
    tail: np.ndarray          # (M_b, n_b d) of the tails; (1, 0) when n_b = 0
    head_counts: np.ndarray   # (M_a, K) atom counts of the heads
    tail_counts: np.ndarray   # (M_b, K) of the tails; a zero row when n_b = 0
    base: np.ndarray          # (M,) data-free part of each log weight, prior included


def _sequences(prior, rows):
    """Signal rows (K^rows, rows d) and atom counts (K^rows, K) of all atom-index
    sequences of length ``rows``, row-major (the last row varies fastest)."""
    K = prior.atom_count
    idx = np.arange(K ** rows)[:, None] // K ** np.arange(rows - 1, -1, -1) % K
    return prior.atoms[idx].reshape(len(idx), -1), (idx[:, :, None] == np.arange(K)).sum(axis=1)


def _enumerate(model, n, a_root):
    """All atom_count**n configurations with the data-free part of their log weights.

    Configuration m is head m // M_b and tail m % M_b.  With counts c = c_a + c_b
    the data-free part c . v - 1/2 c^T T c (module docstring) splits, as the
    data term does, into head and tail terms and the cross term -c_a^T T c_b.
    """
    prior = model.prior
    head, head_counts = _sequences(prior, n - n // 2)
    tail, tail_counts = _sequences(prior, n // 2)
    v = np.log(prior.weights) - 0.5 * np.sum((prior.atoms @ a_root) ** 2, axis=1)
    couplings = np.reshape(model.couplings, (-1, model.d, model.d))
    t = np.sum((prior.atoms @ couplings @ prior.atoms.T) ** 2, axis=0) / n   # (K, K); L = 0: 0
    t = 0.5 * (t + t.T)
    own = [c @ v - 0.5 * np.sum((c @ t) * c, axis=1) for c in (head_counts, tail_counts)]
    base = own[0][:, None] + own[1] - head_counts @ t @ tail_counts.T
    return _Enumeration(head, tail, head_counts, tail_counts, base.ravel())


def _data_terms(model, a_root, y_tilde, ys):
    """Coefficients of the data-dependent log weight, one row per replica.

    From y~ (B, n, d) and the Y_l (B, L, n, n) returns L (B, n d) =
    vec(y~ A^T) and Q (B, n d, n d) = sum_l kron(Y_l, B_l / sqrt(n)), so that
    a configuration's term is vec(X) . L + vec(X) . Q vec(X) (row-major vec).
    The sum over l is one einsum written straight into Q, so Q is the only
    array of its size (L = 0: Q = 0).
    """
    count, n, d = y_tilde.shape
    lin = (y_tilde @ a_root.T).reshape(count, n * d)
    scaled = np.reshape(model.couplings, (-1, d, d)) / math.sqrt(n)
    quad = np.empty((count, n, d, n, d))
    np.einsum("blij,lac->biajc", ys, scaled, out=quad)
    return lin, quad.reshape(count, n * d, n * d)


def _chunk_size(m, nd):
    """Replicas per chunk: live together while log Z is taken, the (B, m) log
    weights, the copy ``logsumexp`` shifts and Q stay within CHUNK_DOUBLES."""
    return max(1, CHUNK_DOUBLES // (2 * m + nd * nd))


def _score(model, enum, a_root, idx, y_tilde, ys):
    """Enumerate a chunk of B replicas: the single scoring routine of the oracle.

    Takes the chunk as arrays: the true signals' atom indices idx (B, n), y~
    (B, n, d) and the Y_l (B, L, n, n).  Returns (log_z, ll_signal, means,
    counts): per replica the log normalizer of the weights (B,), the log
    weight of the true signal without its prior factor (B,), read off its own
    configuration idx . K^(n-1 .. 0), and from the head and tail marginals of
    p the posterior row means (B, n, d) and expected atom counts (B, K).
    """
    count, n = idx.shape
    lin, quad = _data_terms(model, a_root, y_tilde, ys)
    lw = _kernels.config_quadratic_terms(np.broadcast_to(np.intp(0), (len(enum.base), n)),
                                         enum.head, enum.tail, lin, quad)   # C: shape only
    lw += enum.base
    m_true = idx @ model.prior.atom_count ** np.arange(n - 1, -1, -1)
    ll_signal = lw[np.arange(count), m_true] - np.log(model.prior.weights)[idx].sum(axis=1)
    log_z = logsumexp(lw, axis=1)
    lw -= log_z[:, None]
    joint = np.exp(lw, out=lw).reshape(count, len(enum.head), len(enum.tail))
    p_head, p_tail = joint.sum(axis=2), joint.sum(axis=1)
    means = np.concatenate([p_head @ enum.head, p_tail @ enum.tail],
                           axis=1).reshape(count, n, model.d)
    return log_z, ll_signal, means, p_head @ enum.head_counts + p_tail @ enum.tail_counts


def exact_posterior(inst):
    """Enumerate the posterior exactly, scoring the instance (``_score``) as a chunk of one."""
    model, n = inst.model, inst.n
    _check_enumerable(model, n)
    a_root = psdlinalg.sqrtm_psd(model.s)
    enum = _enumerate(model, n, a_root)
    ys = np.reshape(inst.ys, (1, len(inst.ys), n, n))
    log_z, _, means, counts = _score(model, enum, a_root, inst.signal_idx[None],
                                     inst.y_tilde[None], ys)
    per_row_mean = means[0]
    second = (model.prior.atoms.T * counts[0]) @ model.prior.atoms / n
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
    then replicas are drawn (``_draw``) and scored (``_score``) as arrays,
    ``_chunk_size`` at a time, with no per-replica object.  Two estimates
    share each replica's scoring:

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
    words = _entropy_words(seed)
    a_root = psdlinalg.sqrtm_psd(model.s)
    enum = _enumerate(model, n, a_root)
    chunk = _chunk_size(len(enum.base), n * model.d)
    mi = np.empty(data_samples)
    q = np.empty((data_samples, model.d, model.d))
    r = np.empty_like(q)
    for lo in range(0, data_samples, chunk):
        hi = min(lo + chunk, data_samples)
        idx, signal, y_tilde, ys = _draw(model, n, a_root, words, range(lo, hi))
        log_z, ll_signal, means = _score(model, enum, a_root, idx, y_tilde, ys)[:3]
        mi[lo:hi] = (ll_signal - log_z) / n
        q[lo:hi] = signal.transpose(0, 2, 1) @ means / n
        r[lo:hi] = means.transpose(0, 2, 1) @ means / n
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
