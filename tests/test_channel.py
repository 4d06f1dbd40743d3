import numpy as np
import numpy.testing as npt
import pytest

from rslimits import channel, priors, psdlinalg
from rslimits.quadrature import gauss_hermite, monte_carlo

from conftest import random_discrete_prior, random_psd

Z0 = np.zeros((1, 1))

# Independent 127-node oracle of the binary-input scalar channel, evaluated
# before the build and frozen below.
_gh_x, _gh_w = np.polynomial.hermite.hermgauss(127)
_Z127 = np.sqrt(2.0) * _gh_x
_W127 = _gh_w / np.sqrt(np.pi)

RADEMACHER_MI_R1 = 0.33683082034683176     # r - E ln cosh(r + sqrt(r) Z) at r=1
RADEMACHER_MMSE_R1 = 0.4495995092066696    # 1 - E tanh(r + sqrt(r) Z) at r=1


def oracle_rademacher_mi(r):
    return r - np.sum(_W127 * np.log(np.cosh(r + np.sqrt(r) * _Z127)))


def oracle_rademacher_mmse(r):
    return 1.0 - np.sum(_W127 * np.tanh(r + np.sqrt(r) * _Z127))


def test_oracle_matches_frozen_values():
    npt.assert_allclose(oracle_rademacher_mi(1.0), RADEMACHER_MI_R1, atol=1e-14)
    npt.assert_allclose(oracle_rademacher_mmse(1.0), RADEMACHER_MMSE_R1, atol=1e-14)


# ---------------------------------------------------------------------------
# second moment
# ---------------------------------------------------------------------------

def test_second_moment_rademacher():
    npt.assert_array_equal(priors.rademacher().second_moment(), [[1.0]])


def test_second_moment_gaussian():
    npt.assert_array_equal(priors.gaussian(np.eye(2)).second_moment(), np.eye(2))


def test_second_moment_two_atoms():
    p = priors.discrete([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    npt.assert_allclose(p.second_moment(), [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def test_prior_validation():
    with pytest.raises(ValueError):
        priors.discrete([[1.0], [-1.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        priors.discrete([[np.inf]], [1.0])
    # NaN weights compare False both ways: each test must still refuse them
    for weights in ([np.nan, np.nan], [1.0, np.nan]):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            priors.discrete([[1.0], [-1.0]], weights)
    with pytest.raises(ValueError):
        priors.gaussian([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"atoms must be \(K, d\) with one weight per atom"):
        priors.discrete([[1.0], [-1.0]], [1.0])
    with pytest.raises(ValueError, match="unknown prior kind 'laplace'"):
        priors.Prior("laplace")
    with pytest.raises(ValueError, match="atom_count only defined for discrete priors"):
        priors.gaussian([[1.0]]).atom_count


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mi_gaussian_closed_form():
    p = priors.gaussian([[1.0]])
    npt.assert_allclose(channel.mutual_information(p, Z0, [[3.0]]),
                        0.5 * np.log(4.0), rtol=1e-14)


def test_mi_zero_snr_is_zero():
    for p in (priors.rademacher(), priors.gaussian([[2.0]])):
        assert abs(channel.mutual_information(p, Z0, Z0)) < 1e-12


def test_mi_rademacher_against_oracle():
    mi = channel.mutual_information(priors.rademacher(), Z0, [[1.0]])
    npt.assert_allclose(mi, RADEMACHER_MI_R1, atol=1e-9)


def test_mi_gaussian_matrix_closed_form(rng):
    sig = random_psd(rng, 3) + 0.5 * np.eye(3)
    p = priors.gaussian(sig)
    s = random_psd(rng, 3, 0.5)
    r = random_psd(rng, 3, 0.5)
    a = psdlinalg.sqrtm_psd(s + r)
    expected = 0.5 * np.linalg.slogdet(np.eye(3) + a @ sig @ a)[1]
    npt.assert_allclose(channel.mutual_information(p, s, r), expected, rtol=1e-12)


def test_mi_rejects_non_psd():
    p = priors.rademacher()
    for fn in (channel.mutual_information, channel.mmse_matrix):
        with pytest.raises(ValueError, match="snr matrix r"):
            fn(p, Z0, [[-1.0]])
        with pytest.raises(ValueError, match="side channel s"):
            fn(p, [[-1.0]], [[2.0]])


def test_channel_refuses_wrong_shape():
    p = priors.rademacher()
    for fn in (channel.mutual_information, channel.mmse_matrix):
        for s, r in ((np.eye(2), [[1.0]]), ([[0.0]], np.eye(2))):
            with pytest.raises(ValueError, match="s and r must be d x d for the prior"):
                fn(p, s, r)


# ---------------------------------------------------------------------------
# MMSE matrix
# ---------------------------------------------------------------------------

def test_mmse_no_information_is_prior_covariance():
    # noncentered prior: E[cov] at zero snr is rho_bar - mean mean^T
    p = priors.discrete([[1.0], [0.0]], [0.3, 0.7])
    m = channel.mmse_matrix(p, Z0, Z0)
    npt.assert_allclose(m, p.covariance(), atol=1e-12)


def test_mmse_gaussian_closed_form():
    p = priors.gaussian([[1.0]])
    npt.assert_allclose(channel.mmse_matrix(p, Z0, [[3.0]]), [[0.25]], rtol=1e-14)


def test_mmse_rademacher_against_oracle():
    m = channel.mmse_matrix(priors.rademacher(), Z0, [[1.0]])
    npt.assert_allclose(m[0, 0], RADEMACHER_MMSE_R1, atol=1e-8)


def test_mmse_gaussian_singular_covariance():
    p = priors.gaussian(np.diag([1.0, 0.0]))
    m = channel.mmse_matrix(p, np.zeros((2, 2)), np.eye(2))
    npt.assert_allclose(m, np.diag([0.5, 0.0]), atol=1e-12)


def test_gauss_hermite_matches_monte_carlo(rng):
    p = random_discrete_prior(rng, 2)
    s = random_psd(rng, 2, 0.3)
    r = random_psd(rng, 2, 0.8)
    gh = channel.mutual_information(p, s, r, gauss_hermite(63))
    mc = channel.mutual_information(p, s, r, monte_carlo(200_000, seed=5))
    npt.assert_allclose(gh, mc, atol=5e-3)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_matrix_i_mmse_relation(rng):
    # central finite difference of r -> I_S in direction T equals Tr[T M]/2
    for prior in (priors.rademacher(),
                  random_discrete_prior(rng, 2),
                  priors.gaussian(random_psd(rng, 2) + 0.3 * np.eye(2))):
        d = prior.dim
        s = random_psd(rng, d, 0.2)
        r = random_psd(rng, d, 0.5) + 0.3 * np.eye(d)
        for _ in range(3):
            t = psdlinalg.sym(rng.standard_normal((d, d)))
            h = 1e-5 / max(1.0, np.abs(np.linalg.eigvalsh(t)).max())
            ip = channel.mutual_information(prior, s, r + h * t)
            im = channel.mutual_information(prior, s, r - h * t)
            lhs = (ip - im) / (2.0 * h)
            rhs = 0.5 * np.sum(t * channel.mmse_matrix(prior, s, r))
            npt.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-8)


def test_mi_concavity_in_r(rng):
    p = random_discrete_prior(rng, 2)
    s = 0.1 * np.eye(2)
    for _ in range(5):
        r1 = random_psd(rng, 2)
        r2 = random_psd(rng, 2)
        mid = channel.mutual_information(p, s, 0.5 * (r1 + r2))
        avg = 0.5 * (channel.mutual_information(p, s, r1)
                     + channel.mutual_information(p, s, r2))
        assert mid >= avg - 1e-8


def test_mmse_loewner_monotone(rng):
    p = random_discrete_prior(rng, 2)
    s = np.zeros((2, 2))
    for _ in range(5):
        r1 = random_psd(rng, 2)
        r2 = r1 + random_psd(rng, 2)      # r1 <= r2
        m1 = channel.mmse_matrix(p, s, r1)
        m2 = channel.mmse_matrix(p, s, r2)
        assert psdlinalg.loewner_leq(m2, m1, tol=1e-7)


def test_mmse_between_zero_and_second_moment(rng):
    for prior in (priors.rademacher(), random_discrete_prior(rng, 2)):
        d = prior.dim
        rho = prior.second_moment()
        for _ in range(4):
            r = random_psd(rng, d)
            m = channel.mmse_matrix(prior, np.zeros((d, d)), r)
            assert psdlinalg.is_psd(m, tol=1e-9)
            assert psdlinalg.loewner_leq(m, rho, tol=1e-7)


def test_mi_data_processing_monotone(rng):
    p = random_discrete_prior(rng, 2)
    s = np.zeros((2, 2))
    r = random_psd(rng, 2, 0.5)
    t = random_psd(rng, 2, 0.5)
    vals = [channel.mutual_information(p, s, r + tau * t) for tau in (0.0, 0.5, 1.0, 2.0)]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
