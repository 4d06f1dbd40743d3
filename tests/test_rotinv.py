import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad as scipy_quad

from rslimits import priors, rotinv

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_VALUE = 0.2902288194345509        # ln(1 + r) - r^2/2 at the fixed point
TWO_ATOM = rotinv.SpectralDistribution([1.0, 4.0], [0.5, 0.5])
FP_TOL = 1e-7      # fixed-point tolerance of tests/test_solver.py

# 127-node oracle for the scalar Rademacher channel (independent of package code)
_gx, _gw = np.polynomial.hermite.hermgauss(127)
_Z, _W = np.sqrt(2.0) * _gx, _gw / np.sqrt(np.pi)


def golden_model():
    return rotinv.RotInvModel(1.0, 1.0, priors.gaussian([[1.0]]),
                              rotinv.marchenko_pastur_unit())


# the sparse prior {0, +-1/sqrt(eps)} at eps = 0.1 (rho = 1) has three fixed
# points at alpha = 0.3 for lam = 30 and 100
_EPS = 0.1
SPARSE = priors.discrete([[0.0], [1.0 / np.sqrt(_EPS)], [-1.0 / np.sqrt(_EPS)]],
                         [1.0 - _EPS, _EPS / 2.0, _EPS / 2.0])
GAMMA_MODELS = {
    "c8": golden_model(),
    "tau3": rotinv.RotInvModel(1.0, 1.0, priors.rademacher(),
                               rotinv.SpectralDistribution([0.2, 1.0, 3.0], [0.3, 0.4, 0.3])),
    "two-atom": rotinv.RotInvModel(0.9, 1.4, priors.rademacher(), TWO_ATOM),
    "sparse-lam30": rotinv.RotInvModel(0.3, 30.0, SPARSE, rotinv.marchenko_pastur_unit()),
    "sparse-lam100": rotinv.RotInvModel(0.3, 100.0, SPARSE, rotinv.marchenko_pastur_unit()),
}


def test_golden_value_is_frozen_correctly():
    npt.assert_allclose(np.log1p(GOLDEN) - GOLDEN**2 / 2.0, GOLDEN_VALUE, atol=1e-15)
    npt.assert_allclose(GOLDEN**2 + GOLDEN - 1.0, 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# R-transform machinery
# ---------------------------------------------------------------------------

def test_r_transform_single_atom():
    m = golden_model()
    for u in (0.0, 0.5, 2.0, 10.0):
        npt.assert_allclose(rotinv.r_transform(m, u), 1.0 / (1.0 + u), rtol=1e-14)


def test_r_transform_at_zero_is_scaled_mean():
    m = rotinv.RotInvModel(1.7, 1.0, priors.gaussian([[1.0]]), TWO_ATOM)
    npt.assert_allclose(rotinv.r_transform(m, 0.0), 1.7 * 2.5, rtol=1e-14)


def test_r_transform_two_atoms():
    m = rotinv.RotInvModel(2.0, 1.0, priors.gaussian([[1.0]]), TWO_ATOM)
    npt.assert_allclose(rotinv.r_transform(m, 1.0), 1.3, rtol=1e-14)


def test_r_transform_decreasing_positive():
    m = rotinv.RotInvModel(0.8, 1.0, priors.gaussian([[1.0]]), TWO_ATOM)
    us = np.linspace(0.0, 10.0, 50)
    vals = [rotinv.r_transform(m, u) for u in us]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_r_transform_rejects_negative():
    with pytest.raises(ValueError):
        rotinv.r_transform(golden_model(), -0.1)


def test_integrated_r_at_zero():
    assert rotinv.integrated_r(golden_model(), 0.0) == 0.0


def test_integrated_r_single_atom():
    npt.assert_allclose(rotinv.integrated_r(golden_model(), 1.0), np.log(2.0), rtol=1e-14)


def test_integrated_r_two_atoms_frozen():
    m = rotinv.RotInvModel(1.0, 1.0, priors.gaussian([[1.0]]), TWO_ATOM)
    npt.assert_allclose(rotinv.integrated_r(m, 0.5), 0.7520386983881371, atol=1e-14)


@pytest.mark.parametrize("tau", [rotinv.marchenko_pastur_unit(), TWO_ATOM,
                                 rotinv.SpectralDistribution([0.2, 1.0, 3.0],
                                                             [0.3, 0.4, 0.3])])
def test_integrated_r_matches_adaptive_quadrature(tau):
    m = rotinv.RotInvModel(1.3, 1.0, priors.gaussian([[1.0]]), tau)
    for a in (0.1, 1.0, 4.0, 10.0):
        numeric, err = scipy_quad(lambda z: rotinv.r_transform(m, z), 0.0, a,
                                  epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        npt.assert_allclose(rotinv.integrated_r(m, a), numeric, atol=1e-10)


def test_shannon_term_concave_in_e():
    # E -> 0.5 * int_0^{E lam} R(-z) dz has nonpositive second differences
    m = rotinv.RotInvModel(1.2, 1.5, priors.gaussian([[1.0]]), TWO_ATOM)
    es = np.linspace(0.0, 1.0, 60)
    g = np.array([0.5 * rotinv.integrated_r(m, e * m.lam) for e in es])
    second = g[:-2] - 2.0 * g[1:-1] + g[2:]
    assert np.all(second <= 1e-10)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_i_rs_zero_point():
    assert rotinv.i_rs(golden_model(), 0.0, 0.0) == 0.0


def test_i_rs_golden_point():
    npt.assert_allclose(rotinv.i_rs(golden_model(), GOLDEN, GOLDEN),
                        GOLDEN_VALUE, atol=1e-12)


def test_i_rs_large_r_diverges_negative():
    val = rotinv.i_rs(golden_model(), 0.5, 1e6)
    assert val < -1e5


def test_i_rs_rejects_e_outside_range():
    with pytest.raises(ValueError):
        rotinv.i_rs(golden_model(), 1.5, 0.1)


# ---------------------------------------------------------------------------
# state evolution and the variational value
# ---------------------------------------------------------------------------

def test_state_evolution_golden():
    pts = rotinv.state_evolution(golden_model())
    assert len(pts) == 1
    npt.assert_allclose(pts[0].e, GOLDEN, atol=1e-9)
    npt.assert_allclose(pts[0].r, GOLDEN, atol=1e-9)
    assert pts[0].residual < 1e-9


def test_state_evolution_vanishing_snr():
    m = rotinv.RotInvModel(1.0, 1e-8, priors.gaussian([[1.0]]),
                           rotinv.marchenko_pastur_unit())
    pts = rotinv.state_evolution(m)
    assert len(pts) == 1
    npt.assert_allclose(pts[0].e, 1.0, atol=1e-6)
    assert pts[0].r < 1e-6


def test_state_evolution_fixed_point_equations_rademacher():
    m = rotinv.RotInvModel(0.9, 1.4, priors.rademacher(), TWO_ATOM)
    for p in rotinv.state_evolution(m):
        # E = 1 - E[tanh(r + sqrt(r) Z)] via the independent 127-node rule
        mmse = 1.0 - np.sum(_W * np.tanh(p.r + np.sqrt(p.r) * _Z))
        npt.assert_allclose(p.e, mmse, atol=1e-9)
        npt.assert_allclose(p.r, m.lam * rotinv.r_transform(m, p.e * m.lam), atol=1e-9)


def test_iid_reduction_matches_independent_routine():
    # tau = delta_1: fixed point reduces to r = alpha lam / (1 + lam E)
    rng = np.random.default_rng(7)
    for _ in range(10):
        alpha = float(rng.uniform(0.3, 2.0))
        lam = float(rng.uniform(0.3, 2.0))
        if rng.uniform() < 0.5:
            prior = priors.gaussian([[1.0]])

            def mmse(r):
                return 1.0 / (1.0 + r)

            def mi(r):
                return 0.5 * np.log1p(r)
        else:
            prior = priors.rademacher()

            def mmse(r):
                return 1.0 - np.sum(_W * np.tanh(r + np.sqrt(r) * _Z))

            def mi(r):
                return r - np.sum(_W * np.log(np.cosh(r + np.sqrt(r) * _Z)))

        # independent scalar solver: bisection on E - mmse(alpha lam/(1+lam E))
        def psi(e):
            return e - mmse(alpha * lam / (1.0 + lam * e))

        lo, hi = 0.0, 1.0
        flo = psi(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if flo * psi(mid) <= 0:
                hi = mid
            else:
                lo, flo = mid, psi(mid)
        e_ref = 0.5 * (lo + hi)
        r_ref = alpha * lam / (1.0 + lam * e_ref)
        value_ref = mi(r_ref) + 0.5 * alpha * np.log1p(e_ref * lam) - 0.5 * r_ref * e_ref

        m = rotinv.RotInvModel(alpha, lam, prior, rotinv.marchenko_pastur_unit())
        sol = rotinv.solve_rotinv(m)
        npt.assert_allclose(sol.value, value_ref, atol=1e-8)
        # e* sits where quadrature differences are slope-amplified; value is
        # the pinned quantity
        npt.assert_allclose(sol.e_star, e_ref, atol=1e-6)


def test_solve_rotinv_golden():
    sol = rotinv.solve_rotinv(golden_model())
    npt.assert_allclose(sol.value, GOLDEN_VALUE, atol=1e-9)
    npt.assert_allclose(sol.e_star, GOLDEN, atol=1e-8)
    npt.assert_allclose(sol.r_star, GOLDEN, atol=1e-8)


def test_solve_rotinv_bracket_refine_budget(monkeypatch):
    # a Chebyshev proxy of degree 16-32 on [0, rho] plus one Illinois refine
    # per bracket (a 201-point grid with its refines took about 225 map calls)
    calls = []
    se_map = rotinv._se_map

    def counting(*args):
        calls.append(1)
        return se_map(*args)

    monkeypatch.setattr(rotinv, "_se_map", counting)
    for name in ("tau3", "c8"):
        calls.clear()
        sol = rotinv.solve_rotinv(GAMMA_MODELS[name])
        assert len(calls) <= 40, name
    npt.assert_allclose(sol.value, GOLDEN_VALUE, atol=FP_TOL)
    npt.assert_allclose(sol.e_star, GOLDEN, atol=FP_TOL)
    npt.assert_allclose(sol.r_star, GOLDEN, atol=FP_TOL)


def _sign_scan(psi, a, b, points=2001):
    """Brackets [x_i, x_i+1] of the sign changes and exact zeros of psi on a uniform grid."""
    xs = np.linspace(a, b, points)
    v = np.array([psi(x) for x in xs])
    return [(x, x) for x, fx in zip(xs, v) if fx == 0.0] + [
        (xs[i], xs[i + 1]) for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]


@pytest.mark.parametrize("name", list(GAMMA_MODELS))
def test_gamma_matches_dense_sign_scan(name):
    # every root of psi(E) = E - mmse(lam R(-E lam)) that a 2001-point scan
    # brackets is in Gamma, and Gamma holds nothing else
    m = GAMMA_MODELS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = rotinv.state_evolution(m)
    brackets = sorted(_sign_scan(lambda e: e - rotinv._se_map(m, e, None), 0.0, m.rho()))
    assert len(gamma) == len(brackets)
    for p, (lo, hi) in zip(gamma, brackets):
        assert p.converged and lo <= p.e <= hi and p.residual <= 1e-14
        assert p.r == m.lam * rotinv.r_transform(m, p.e * m.lam)
    # stable and unstable roots alternate along E, starting and ending stable
    assert [p.stable for p in gamma] == [i % 2 == 0 for i in range(len(gamma))]


def test_gamma_three_root_sparse_models():
    for lam, want in ((30.0, (6.7152e-6, 0.22796, 0.53520)), (100.0, (0.0, 0.33213, 0.46627))):
        gamma = rotinv.state_evolution(GAMMA_MODELS[f"sparse-lam{lam:g}"])
        npt.assert_allclose([p.e for p in gamma], want, rtol=1e-4, atol=1e-12)


@pytest.mark.parametrize("centre", [0.5, 0.3])
def test_scalar_roots_close_pair_within_one_sample_spacing(centre):
    # roots centre -+ 3.2e-5: at 0.3 no Chebyshev-Lobatto sample lies between
    # them (the degree-8 samples resolve the quadratic), the midpoint of the
    # two proxy roots does; at 0.5 the centre sample separates them
    roots = rotinv.scalar_roots(lambda x: (x - centre) ** 2 - 1e-9, 0.0, 1.0)
    npt.assert_allclose([x for x, _, _ in roots], centre + np.array([-1.0, 1.0]) * np.sqrt(1e-9),
                        atol=1e-13)
    assert [c for _, _, c in roots] == [-1, 1]


@pytest.mark.parametrize("centre", [0.5, 0.3])
def test_scalar_roots_flags_double_root(centre):
    # psi touches zero without crossing: reported once, with crossing 0 and a warning
    with pytest.warns(RuntimeWarning, match="near-double root"):
        roots = rotinv.scalar_roots(lambda x: (x - centre) ** 2, 0.0, 1.0)
    assert len(roots) == 1
    x, fx, crossing = roots[0]
    assert crossing == 0 and abs(x - centre) <= 1e-7 and fx <= 1e-14


def test_scalar_roots_many_roots_and_endpoint_zero():
    roots = rotinv.scalar_roots(lambda x: np.sin(40.0 * x), 0.0, 1.0)
    npt.assert_allclose([x for x, _, _ in roots], np.pi / 40.0 * np.arange(13), atol=1e-14)
    assert [c for _, _, c in roots] == [1, -1] * 6 + [1]


def test_scalar_roots_refuses_what_no_proxy_resolves():
    with pytest.raises(RuntimeError, match="no Chebyshev proxy resolves psi"):
        rotinv.scalar_roots(lambda x: np.sign(x - 0.37) + 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="empty interval"):
        rotinv.scalar_roots(lambda x: x, 1.0, 1.0)


def test_solve_rotinv_skips_flagged_points(monkeypatch):
    # a flagged near-double root is reported in Gamma but never selected, even
    # where its potential is the least (here the golden fixed point, flagged)
    monkeypatch.setattr(rotinv, "scalar_roots",
                        lambda psi, a, b: [(0.1, 0.01, 1), (GOLDEN, 0.0, 0)])
    sol = rotinv.solve_rotinv(golden_model())
    assert [(p.converged, p.stable) for p in sol.fixed_points] == [(True, True), (False, False)]
    assert sol.e_star == 0.1 and sol.value > GOLDEN_VALUE + 0.01


def test_model_rejects_non_finite_scalars():
    prior, tau = priors.gaussian([[1.0]]), rotinv.marchenko_pastur_unit()
    for bad in (float("nan"), float("inf"), float("-inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            rotinv.RotInvModel(bad, 1.0, prior, tau)
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            rotinv.RotInvModel(1.0, bad, prior, tau)
    # NaN spectral weights compare False both ways: the probability test must
    # still refuse them
    for weights in ([np.nan], [0.5, np.nan]):
        with pytest.raises(ValueError, match="spectral weights must be a probability vector"):
            rotinv.SpectralDistribution([1.0] * len(weights), weights)


def test_solve_rotinv_vanishing_snr():
    m = rotinv.RotInvModel(1.0, 1e-8, priors.gaussian([[1.0]]),
                           rotinv.marchenko_pastur_unit())
    assert rotinv.solve_rotinv(m).value < 1e-7


def test_solve_rotinv_two_atom_grid_oracle():
    m = rotinv.RotInvModel(0.7, 1.2, priors.gaussian([[1.0]]), TWO_ATOM)
    sol = rotinv.solve_rotinv(m)
    rs = np.linspace(0.0, 4.0, 1000)
    es = np.linspace(0.0, 1.0, 1000)
    shannon = np.array([0.5 * rotinv.integrated_r(m, e * m.lam) for e in es])
    inner = np.empty(len(rs))
    for i, r in enumerate(rs):
        inner[i] = (0.5 * np.log1p(r) + shannon - 0.5 * r * es).max()
    npt.assert_allclose(sol.value, inner.min(), atol=1e-4)


# ---------------------------------------------------------------------------
# empirical spectra
# ---------------------------------------------------------------------------

def test_empirical_spectrum_identity_case():
    sd = rotinv.empirical_spectrum(0, 500, 1.0)
    npt.assert_array_equal(sd.atoms, np.ones(500))
    npt.assert_allclose(sd.weights.sum(), 1.0, rtol=1e-12)


def test_empirical_spectrum_marchenko_pastur_moments():
    sd = rotinv.empirical_spectrum(1, 1000, 1.0, seed=123)
    assert abs(sd.mean() - 1.0) < 0.05
    assert abs(sd.moment(2) - 2.0) < 0.1


def test_empirical_spectrum_reproducible():
    a = rotinv.empirical_spectrum(2, 200, 0.5, seed=9)
    b = rotinv.empirical_spectrum(2, 200, 0.5, seed=9)
    npt.assert_array_equal(a.atoms, b.atoms)


def test_empirical_spectrum_guards():
    with pytest.raises(ValueError):
        rotinv.empirical_spectrum(6, 100, 1.0)
    with pytest.raises(ValueError):
        rotinv.empirical_spectrum(1, 5000, 1.0)


def test_spectral_distribution_validation():
    with pytest.raises(ValueError):
        rotinv.SpectralDistribution([-1.0], [1.0])
    with pytest.raises(ValueError):
        rotinv.SpectralDistribution([1.0, 2.0], [0.7, 0.7])
