import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad as scipy_quad

from rslimits import priors, rotinv, solver
from rslimits.quadrature import gauss_hermite

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_VALUE = 0.2902288194345509        # ln(1 + r) - r^2/2 at the fixed point
TWO_ATOM = rotinv.SpectralDistribution([1.0, 4.0], [0.5, 0.5])
GH63 = gauss_hermite(63)
FP_TOL = 1e-7      # fixed-point tolerance of tests/test_solver.py

# 127-node oracle for the scalar Rademacher channel (independent of package code)
_gx, _gw = np.polynomial.hermite.hermgauss(127)
_Z, _W = np.sqrt(2.0) * _gx, _gw / np.sqrt(np.pi)


def golden_model():
    return rotinv.RotInvModel(1.0, 1.0, priors.gaussian([[1.0]]),
                              rotinv.marchenko_pastur_unit())


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


def test_state_evolution_origin_does_not_depend_on_tol():
    # a start that reaches a grid root's fixed point is merged into the grid
    # root (refined to width 1e-15), so neither the point nor its label
    # follows the tolerance the starts ran at
    m = golden_model()
    tight = rotinv.state_evolution(m, solver.SolveSettings(tol=1e-12))
    assert tight == rotinv.state_evolution(m)
    assert [p.origin for p in tight] == ["grid"]


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
    # a 201-point grid and, per sign-change bracket, an Illinois regula falsi
    # refine (bisection to 1e-15 took about 44 map calls per bracket)
    calls = []
    se_map = rotinv._se_map

    def counting(*args):
        calls.append(1)
        return se_map(*args)

    monkeypatch.setattr(rotinv, "_se_map", counting)
    sol = rotinv.solve_rotinv(golden_model())
    assert len(calls) <= 235
    npt.assert_allclose(sol.value, GOLDEN_VALUE, atol=FP_TOL)
    npt.assert_allclose(sol.e_star, GOLDEN, atol=FP_TOL)
    npt.assert_allclose(sol.r_star, GOLDEN, atol=FP_TOL)


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
