import numpy as np
import numpy.testing as npt
import pytest

from rslimits import channel, priors, psdlinalg
from rslimits.potential import (ModelSpec, check_hypothesis, potential,
                                potential_at_stationary_q, q_hessian, r_star)
from rslimits.quadrature import gauss_hermite

from conftest import random_discrete_prior, random_psd

WIGNER_F_HALF = 0.47157359027997264   # 0.5 ln 2 + 1/8, hand evaluated


def random_model(rng, d, num_views, prior=None, s_scale=0.0):
    bs = tuple(rng.uniform(-2.0, 2.0, (d, d)) for _ in range(num_views))
    s = random_psd(rng, d, s_scale) if s_scale else np.zeros((d, d))
    prior = prior or random_discrete_prior(rng, d)
    return ModelSpec(d, bs, s, prior)


# ---------------------------------------------------------------------------
# r_star
# ---------------------------------------------------------------------------

def test_r_star_nilpotent_identity():
    m = ModelSpec(2, ([[0.0, 1.0], [0.0, 0.0]],), np.zeros((2, 2)),
                  priors.gaussian(np.eye(2)))
    npt.assert_allclose(r_star(m, np.eye(2)), np.eye(2), atol=1e-15)


def test_r_star_zero():
    m = ModelSpec(2, (np.eye(2), [[0.0, 2.0], [1.0, 0.0]]), np.zeros((2, 2)),
                  priors.gaussian(np.eye(2)))
    npt.assert_array_equal(r_star(m, np.zeros((2, 2))), np.zeros((2, 2)))


def test_r_star_scalar():
    b = 0.7
    m = ModelSpec(1, ([[b]],), [[0.0]], priors.gaussian([[1.0]]))
    npt.assert_allclose(r_star(m, [[0.3]]), [[2.0 * b * b * 0.3]], rtol=1e-14)


def test_r_star_linear(rng):
    m = random_model(rng, 3, 2)
    q1 = psdlinalg.sym(rng.standard_normal((3, 3)))
    q2 = psdlinalg.sym(rng.standard_normal((3, 3)))
    a, b = 1.7, -0.4
    npt.assert_allclose(r_star(m, a * q1 + b * q2),
                        a * r_star(m, q1) + b * r_star(m, q2), atol=1e-12)


def test_r_star_dimension_mismatch(rng):
    m = random_model(rng, 2, 1)
    with pytest.raises(ValueError):
        r_star(m, np.eye(3))


def test_model_rejects_side_channel_of_wrong_size():
    # a 1x1 S would broadcast over the 2x2 S + r*(q) of every channel call
    prior = priors.discrete([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"side channel s must be d x d = 2x2, got \(1, 1\)"):
        ModelSpec(2, (np.eye(2),), [[0.5]], prior)


def test_model_refuses_malformed_fields():
    prior = priors.discrete([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
    for args, message in (
            ((0, (), np.zeros((0, 0)), prior), "dimension must be >= 1"),
            ((1, (), [[0.0]], prior), "prior dimension 2 != model dimension 1"),
            ((2, (np.eye(2), np.eye(3)), np.zeros((2, 2)), prior),
             r"coupling 1 must be 2x2, got \(3, 3\)"),
            ((2, ([[1.0, np.inf], [0.0, 1.0]],), np.zeros((2, 2)), prior),
             "coupling 0 contains non-finite entries")):
        with pytest.raises(ValueError, match=message):
            ModelSpec(*args)


def test_r_star_preserves_cone(rng):
    # every summand is a congruence, so PSD in -> PSD out for any couplings
    for _ in range(20):
        m = random_model(rng, 3, 2)
        q = random_psd(rng, 3)
        assert psdlinalg.is_psd(r_star(m, q), tol=1e-9)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_no_couplings(rng):
    p = random_discrete_prior(rng, 2)
    m = ModelSpec(2, (), np.zeros((2, 2)), p)
    r = random_psd(rng, 2)
    q = 0.3 * p.second_moment()
    pv = potential(m, r, q)
    expected = channel.mutual_information(p, m.s, r) + 0.5 * np.sum(r * (q - p.second_moment()))
    npt.assert_allclose(pv.value, expected, rtol=1e-12)
    assert pv.quartic_term == 0.0


def test_potential_scalar_hand_value(wigner_gaussian):
    pv = potential(wigner_gaussian, [[1.0]], [[0.5]])
    npt.assert_allclose(pv.value, WIGNER_F_HALF, atol=1e-12)
    npt.assert_allclose(pv.channel_term, 0.5 * np.log(2.0), atol=1e-12)
    npt.assert_allclose(pv.linear_term, -0.25, atol=1e-15)
    npt.assert_allclose(pv.quartic_term, 0.375, atol=1e-15)


def test_potential_cancellation_at_q_rho(rng):
    m = random_model(rng, 2, 2)
    rho = m.rho_bar()
    pv = potential(m, np.zeros((2, 2)), rho)
    npt.assert_allclose(pv.value, channel.mutual_information(m.prior, m.s, np.zeros((2, 2))),
                        atol=1e-12)


def test_potential_decomposition_sums(rng):
    m = random_model(rng, 2, 1, s_scale=0.2)
    r = random_psd(rng, 2)
    q = random_psd(rng, 2, 0.2)
    pv = potential(m, r, q)
    npt.assert_allclose(pv.value, pv.channel_term + pv.linear_term + pv.quartic_term,
                        atol=1e-12)


def test_potential_flags_q_outside_interval(wigner_gaussian):
    with pytest.warns(RuntimeWarning):
        potential(wigner_gaussian, [[1.0]], [[5.0]])


def test_potential_rejects_non_psd_r(wigner_gaussian):
    with pytest.raises(ValueError):
        potential(wigner_gaussian, [[-1.0]], [[0.5]])


def test_potential_refuses_wrong_shape(wigner_gaussian):
    for r, q in ((np.eye(2), [[0.5]]), ([[1.0]], np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="r and q must be 1x1"):
            potential(wigner_gaussian, r, q)


# ---------------------------------------------------------------------------
# reduced potential (stationary q)
# ---------------------------------------------------------------------------

def test_stationary_identity_random(rng):
    # I(r*(q), q) equals the reduced form for arbitrary q in [0, rho]
    quad = gauss_hermite(21)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        m = random_model(rng, d, int(rng.integers(0, 3)))
        lam = rng.uniform(0.0, 1.0)
        q = lam * m.rho_bar()
        lhs = potential(m, r_star(m, q), q, quad).value
        rhs = potential_at_stationary_q(m, q, quad)
        npt.assert_allclose(lhs, rhs, atol=1e-10)


def test_stationary_at_rho(rng):
    m = random_model(rng, 2, 1)
    rho = m.rho_bar()
    npt.assert_allclose(potential_at_stationary_q(m, rho),
                        channel.mutual_information(m.prior, m.s, r_star(m, rho)),
                        atol=1e-12)


def test_stationary_at_zero(rng):
    m = random_model(rng, 2, 2)
    rho = m.rho_bar()
    expected = channel.mutual_information(m.prior, m.s, np.zeros((2, 2)))
    for b in m.couplings:
        expected += 0.5 * np.sum((b.T @ rho @ b) * rho)
    npt.assert_allclose(potential_at_stationary_q(m, np.zeros((2, 2))), expected,
                        atol=1e-12)


def test_stationary_scalar_value(wigner_gaussian):
    npt.assert_allclose(potential_at_stationary_q(wigner_gaussian, [[0.5]]),
                        WIGNER_F_HALF, atol=1e-12)


def test_r_gradient_vanishes_at_stationary_q(rng):
    # directional derivative of r -> I(r, rho - M_S(r)) is zero
    for prior in (priors.rademacher(), random_discrete_prior(rng, 2)):
        d = prior.dim
        m = ModelSpec(d, (0.8 * np.eye(d),), 0.1 * np.eye(d), prior)
        r = random_psd(rng, d, 0.5) + 0.2 * np.eye(d)
        q = m.rho_bar() - channel.mmse_matrix(prior, m.s, r)
        for _ in range(2):
            t = psdlinalg.sym(rng.standard_normal((d, d)))
            h = 1e-5 / max(1.0, np.abs(np.linalg.eigvalsh(t)).max())
            up = potential(m, r + h * t, q).value
            dn = potential(m, r - h * t, q).value
            assert abs((up - dn) / (2 * h)) < 1e-5


def test_q_concavity_under_hypothesis(rng):
    m = ModelSpec(2, (np.array([[1.0, 0.3], [0.3, 0.8]]),), np.zeros((2, 2)),
                  random_discrete_prior(rng, 2))
    assert check_hypothesis(m).holds
    r = random_psd(rng, 2)
    # concavity holds for every symmetric q; these random PSD q need not lie
    # below rho_bar, and potential flags those that do not
    with pytest.warns(RuntimeWarning, match=r"q lies outside the interval \[0, rho_bar\]"):
        for _ in range(5):
            q1 = random_psd(rng, 2, 0.4)
            q2 = random_psd(rng, 2, 0.4)
            mid = potential(m, r, 0.5 * (q1 + q2)).value
            avg = 0.5 * (potential(m, r, q1).value + potential(m, r, q2).value)
            assert mid >= avg - 1e-9


# ---------------------------------------------------------------------------
# hypothesis check and q-Hessian
# ---------------------------------------------------------------------------

def test_hypothesis_identity_coupling():
    m = ModelSpec(2, (np.eye(2),), np.zeros((2, 2)), priors.gaussian(np.eye(2)))
    rep = check_hypothesis(m)
    assert rep.holds
    npt.assert_allclose(rep.min_eigenvalue, 2.0, atol=1e-12)


def test_hypothesis_nilpotent_fails():
    m = ModelSpec(2, ([[0.0, 1.0], [0.0, 0.0]],), np.zeros((2, 2)),
                  priors.gaussian(np.eye(2)))
    rep = check_hypothesis(m)
    assert not rep.holds
    npt.assert_allclose(rep.min_eigenvalue, -1.0, atol=1e-12)


def test_hypothesis_two_views():
    m = ModelSpec(2, (np.eye(2), [[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)),
                  priors.gaussian(np.eye(2)))
    rep = check_hypothesis(m)
    assert rep.holds
    npt.assert_allclose(rep.min_eigenvalue, 1.0, atol=1e-12)


def test_hypothesis_no_couplings():
    m = ModelSpec(2, (), np.zeros((2, 2)), priors.gaussian(np.eye(2)))
    assert check_hypothesis(m).holds


def test_q_hessian_no_couplings():
    m = ModelSpec(2, (), np.zeros((2, 2)), priors.gaussian(np.eye(2)))
    npt.assert_array_equal(q_hessian(m), np.zeros((3, 3)))


def test_q_hessian_scalar():
    b = 1.3
    m = ModelSpec(1, ([[b]],), [[0.0]], priors.gaussian([[1.0]]))
    npt.assert_allclose(q_hessian(m), [[-2.0 * b * b]], rtol=1e-14)


def quadratic_piece(m, q):
    # q -> -sum_l Tr[B^T q B q]; the r-linear part has no curvature
    out = 0.0
    for b in m.couplings:
        out -= np.sum((b.T @ q @ b) * q)
    return out


def finite_diff_hessian(m, h=1e-4):
    d = m.d
    k = d * (d + 1) // 2
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h
            ej[j] = h
            f = lambda v: quadratic_piece(m, psdlinalg.unvech(v))
            H[i, j] = (f(ei + ej) - f(ei - ej) - f(ej - ei) + f(-ei - ej)) / (4 * h * h)
    return H


def test_q_hessian_matches_finite_differences(rng):
    m = ModelSpec(2, (np.eye(2),), np.zeros((2, 2)), priors.gaussian(np.eye(2)))
    npt.assert_allclose(q_hessian(m), finite_diff_hessian(m), atol=1e-8)
    m2 = random_model(rng, 3, 2)
    npt.assert_allclose(q_hessian(m2), finite_diff_hessian(m2), atol=1e-8)


def test_q_hessian_nsd_iff_hypothesis(rng):
    agree = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        m = random_model(rng, d, int(rng.integers(1, 3)))
        H = q_hessian(m)
        w = np.linalg.eigvalsh(H)
        scale = max(1.0, np.abs(w).max())
        nsd = bool(w.max() <= 1e-9 * scale)
        agree += nsd == check_hypothesis(m).holds
    assert agree == 200
