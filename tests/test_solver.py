import warnings

import numpy as np
import numpy.testing as npt
import pytest

from rslimits import channel, priors, psdlinalg, rotinv, solver
from rslimits.potential import (ModelSpec, check_hypothesis, potential,
                                potential_at_stationary_q, r_star)
from rslimits.quadrature import gauss_hermite

import se_reference
from conftest import rademacher_model, random_discrete_prior, random_psd

WIGNER_F = 0.47157359027997264
GH63 = gauss_hermite(63)
# a residual below tol = 1e-10 puts an iterate whose damped map contracts by
# c <= 0.999 within tol / (1 - c) = 1e-7 of its fixed point
FP_TOL = 1e-7

# Independent scalar routine (127-node quadrature + dense grid + golden
# refinement).  Shares no code with the solver; used as the reduction oracle.
_gx, _gw = np.polynomial.hermite.hermgauss(127)
_Z = np.sqrt(2.0) * _gx
_W = _gw / np.sqrt(np.pi)


def scalar_mi(atoms, weights, gamma):
    if gamma < 0:
        gamma = 0.0
    a = np.sqrt(gamma)
    out = 0.0
    for xk, wk in zip(atoms, weights):
        delta = a * (xk - atoms)
        logits = np.log(weights)[None, :] - 0.5 * delta[None, :] ** 2 - _Z[:, None] * delta[None, :]
        top = logits.max(axis=1, keepdims=True)
        lse = (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True))).ravel()
        out -= wk * np.sum(_W * lse)
    return out


def scalar_gaussian_mi(sigma2, gamma):
    return 0.5 * np.log1p(gamma * sigma2)


def scalar_potential(prior, s, b, q):
    # reduced potential of the d=1 model at stationary q
    lam = 2.0 * b * b
    rho = float(prior.second_moment()[0, 0])
    gamma = s + lam * q
    if prior.kind == priors.GAUSSIAN:
        mi = scalar_gaussian_mi(prior.cov[0, 0], gamma)
    else:
        mi = scalar_mi(prior.atoms[:, 0], prior.weights, gamma)
    return mi + 0.25 * lam * (rho - q) ** 2


def scalar_grid_solve(prior, s, b, points=2001):
    rho = float(prior.second_moment()[0, 0])
    qs = np.linspace(0.0, rho, points)
    vals = np.array([scalar_potential(prior, s, b, q) for q in qs])
    k = int(vals.argmin())
    lo = qs[max(k - 1, 0)]
    hi = qs[min(k + 1, points - 1)]
    # golden-section refinement
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, c = lo, hi
    for _ in range(200):
        m1 = c - invphi * (c - a)
        m2 = a + invphi * (c - a)
        if scalar_potential(prior, s, b, m1) <= scalar_potential(prior, s, b, m2):
            c = m2
        else:
            a = m1
        if c - a < 1e-13:
            break
    q = 0.5 * (a + c)
    return q, scalar_potential(prior, s, b, q)


# ---------------------------------------------------------------------------
# se_iterate
# ---------------------------------------------------------------------------

def test_se_iterate_analytic_quadratic(wigner_gaussian, fast_settings):
    res = solver.se_iterate(wigner_gaussian, wigner_gaussian.rho_bar(), fast_settings)
    assert res.converged
    npt.assert_allclose(res.q_star, [[0.5]], atol=1e-8)
    npt.assert_allclose(res.r_star, [[1.0]], atol=1e-8)


def test_se_iterate_no_couplings_single_step(rng):
    prior = priors.discrete([[1.0], [0.0]], [0.3, 0.7])   # noncentered
    m = ModelSpec(1, (), [[0.0]], prior)
    settings = solver.SolveSettings(damping=1.0, tol=1e-12, max_iters=10)
    res = solver.se_iterate(m, 0.7 * m.rho_bar(), settings)
    assert res.converged and res.iterations <= 2
    expected = m.rho_bar() - prior.covariance()
    npt.assert_allclose(res.q_star, expected, atol=1e-12)
    npt.assert_array_equal(res.r_star, [[0.0]])


def test_se_iterate_below_threshold(fast_settings):
    m = rademacher_model(0.5)
    res = solver.se_iterate(m, m.rho_bar(), fast_settings)
    assert res.converged
    assert abs(res.q_star[0, 0]) < 1e-6


def test_se_iterate_nonconvergence_is_flagged(wigner_gaussian):
    settings = solver.SolveSettings(damping=0.5, tol=1e-14, max_iters=3)
    res = solver.se_iterate(wigner_gaussian, wigner_gaussian.rho_bar(), settings)
    assert not res.converged
    assert res.iterations == 3


def test_se_iterate_loop_runs_unchecked(monkeypatch):
    # inputs are checked where they enter: the count of symmetry checks must
    # not grow with the number of iterations
    calls = []
    check_symmetric = psdlinalg.check_symmetric

    def counting(*args, **kwargs):
        calls.append(1)
        return check_symmetric(*args, **kwargs)

    monkeypatch.setattr(psdlinalg, "check_symmetric", counting)
    m = rademacher_model(1.0)     # at lambda_c: 25 iterations leave the residual near 1e-7
    counts = []
    for max_iters in (5, 25):
        calls.clear()
        settings = solver.SolveSettings(tol=1e-14, max_iters=max_iters)
        res = solver.se_iterate(m, m.rho_bar(), settings, GH63)
        assert not res.converged and res.iterations == max_iters
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_se_iterate_refuses_bad_q0():
    # q0 is checked where it enters, before any projection: a NaN start must
    # not be clipped into a "converged" run, and a 1x1 start must not be
    # broadcast to a d = 2 state
    with pytest.raises(ValueError, match="non-finite"):
        solver.se_iterate(rademacher_model(1.5), [[np.nan]], quad=GH63)
    m = ModelSpec(2, (np.eye(2),), np.zeros((2, 2)), PRODUCT_PM1)
    with pytest.raises(ValueError, match="q0 must be 2x2"):
        solver.se_iterate(m, [[1.0]], quad=GH63)


@pytest.mark.parametrize("lam, q_damped", [(1.05, 0.049086659325136985),
                                           (2.0, 0.6184475351921406)])
def test_se_iterate_leaves_unstable_zero(lam, q_damped):
    # q = 0 is a fixed point of the symmetric prior, unstable for lambda > 1
    # (damped-map radius (1 + lambda)/2); squared extrapolation multiplies the
    # offset from it by at least 4 per cycle, so the uninformative start walks
    # off it (19 and 17 iterations, one certificate each) to the damped
    # iteration's fixed point (q_damped, recorded with damped state evolution)
    m = rademacher_model(lam)
    res = solver.se_iterate(m, solver.UNINFORMATIVE_SCALE * m.rho_bar(), quad=GH63)
    assert res.converged and res.stability_radius < 1.0
    npt.assert_allclose(res.q_star, [[q_damped]], atol=FP_TOL)
    # leaving it spends iterations from the same budget
    capped = solver.se_iterate(m, solver.UNINFORMATIVE_SCALE * m.rho_bar(),
                               solver.SolveSettings(max_iters=10), GH63)
    assert not capped.converged and capped.iterations == 10


@pytest.mark.parametrize("lam", [1.01, 1.05, 1.1])
def test_se_iterate_escape_budget_d1(lam):
    # near lambda_c the radius of q = 0 is close to 1, so damped steps off it
    # grow the offset slowly (464 / 177 / 112 iterations); squared
    # extrapolation grows it at least 4-fold per cycle of two map calls and
    # reaches the stable point in 19 / 19 / 15
    m = rademacher_model(lam)
    q0 = solver.UNINFORMATIVE_SCALE * m.rho_bar()
    res = solver.se_iterate(m, q0, quad=GH63)
    q_ref, ref_converged = se_reference.damped_se(m, q0, GH63)
    assert ref_converged
    assert res.converged and res.stability_radius < 1.0
    npt.assert_allclose(res.q_star, q_ref, atol=FP_TOL)
    assert res.iterations <= 30


PRODUCT_PM1 = priors.discrete([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4)


def _coarse_floored_gauss_hermite(scheme, dim):
    # drops the lightest nodes while their cumulative D = sum q_m (1 + |W_m|^2 / 2)
    # stays <= 1e-16: a grid that moves the channel's sums only at rounding level
    nodes, weights = scheme.nodes_weights(dim)
    order = np.argsort(weights, kind="stable")
    mass = weights[order] * (1.0 + 0.5 * np.sum(nodes[order] ** 2, axis=1))
    drop = np.zeros(weights.size, dtype=bool)
    drop[order[np.cumsum(mass) <= 1e-16]] = True
    return nodes[~drop], weights[~drop]


D2_BOUNDARY = [(1.5, 1.2, 0.0), (2.0, 1.05, 0.0), (1.1, 0.8, 0.2), (3.0, 2.0, -0.4)]


@pytest.mark.parametrize("lam1, lam2, c, floored", [
    *(pytest.param(*case, channel._floored_gauss_hermite, id="-".join(map(str, case)))
      for case in D2_BOUNDARY),
    *(pytest.param(*case, _coarse_floored_gauss_hermite,
                   id="-".join(map(str, case)) + "-mass-floor") for case in D2_BOUNDARY)])
def test_se_iterate_escape_at_singular_boundary_d2(lam1, lam2, c, floored, monkeypatch):
    # S = 0 and q = 0 at d = 2: S + r*(q) is singular there, and the
    # certificate's off-diagonal differences see the map's clipping at zero.
    # (2.0, 1.05, 0) passes through the saddle q = diag(0.618, 0); squared
    # extrapolation walks off it as off q = 0, so the count must not hinge on
    # the channel's last digits: 27, 35, 19 and 23 iterations under both grids
    monkeypatch.setattr(channel, "_floored_gauss_hermite", floored)
    b = np.array([[np.sqrt(lam1 / 2.0), c], [c, np.sqrt(lam2 / 2.0)]])
    m = ModelSpec(2, (b,), np.zeros((2, 2)), PRODUCT_PM1)
    quad = gauss_hermite(31)
    q0 = solver.UNINFORMATIVE_SCALE * m.rho_bar()
    res = solver.se_iterate(m, q0, quad=quad)
    q_ref, ref_converged = se_reference.damped_se(m, q0, quad)
    assert ref_converged
    assert res.converged and res.stability_radius < 1.0
    npt.assert_allclose(res.q_star, q_ref, atol=FP_TOL)
    assert res.iterations <= 60


def sparse_model(lam):
    prior = priors.discrete([[1.0], [0.0], [-1.0]], [0.025, 0.95, 0.025])
    return ModelSpec(1, ([[np.sqrt(lam / 2.0)]],), [[0.0]], prior)


def test_first_order_transition_matches_damped_reference():
    # centred sparse prior (rho = 0.05): q = 0 is a stable fixed point up to
    # lambda rho^2 = 1, and an informative branch appears near lambda = 290,
    # so between them the two starts reach different fixed points and the
    # smaller potential picks the winner; where both reach the same q*, the
    # label names both
    winners = {}
    for lam in (250, 280, 285, 290, 295, 300, 350, 400, 450, 500):
        m = sparse_model(lam)
        res = solver.solve_f(m, quad=GH63)
        ref = se_reference.branches(m, GH63)
        f_ref, q_ref, label_ref = min(ref, key=lambda b: b[0])
        assert res.converged
        assert abs(res.f_value - f_ref) <= FP_TOL, lam
        npt.assert_allclose(res.q_star, q_ref, atol=FP_TOL, err_msg=str(lam))
        assert res.init_label == label_ref, lam
        winners[lam] = label_ref
    assert winners[250] == winners[285] == "uninformative+informative"
    assert winners[290] == "uninformative" and winners[300] == "informative"


def test_stalled_acceleration_falls_back_to_damping():
    # lambda = 285, informative start: near q = 0.02 T(q) - q comes within
    # 2.6e-4 of zero without a root, where damped steps crawl (212 iterations
    # in all); squared extrapolation crosses the near-root and reaches q = 0
    # in 9
    m = sparse_model(285)
    res = solver.se_iterate(m, m.rho_bar(), quad=GH63)
    assert res.converged and res.q_star[0, 0] < 1e-9
    assert res.iterations <= 150


def test_fixed_point_ends_on_first_return_to_unstable_point():
    # T(x) = 2x with every x projected to 0: the nudge off the unstable fixed
    # point 0 (damped-map radius 1.5) lands back on it, and that first return
    # ends the run with the point as found, not at the 10,000-call cap
    x, residual, iterations, converged, radius = solver.fixed_point(
        lambda x: 2 * x, [0.0], None, lambda x: np.zeros_like(x))
    npt.assert_array_equal(x, [0.0])
    assert converged and residual == 0.0
    assert radius == pytest.approx(1.5)
    assert iterations == 2


@pytest.mark.parametrize("step, x0, x_star", [
    (lambda x: np.minimum(2.0 * x, 1.0), [1e-3], [1.0]),
    (lambda x: np.array([min(2.0 * x[0], 1.0), 0.5 * x[1]]), [1e-3, 0.5], [1.0, 0.0])],
    ids=["1d", "2d-saddle"])
def test_fixed_point_walks_off_unstable_points_without_a_certificate(step, x0, x_star):
    # 0 is unstable along the first coordinate (damped-map radius 1.5): the
    # run from near it must reach the stable point without ever converging on
    # 0, so the only uncounted map calls are the one certificate's x.size
    calls = []

    def counting(x):
        calls.append(1)
        return step(x)

    x, residual, iterations, converged, radius = solver.fixed_point(
        counting, x0, None, lambda x: np.clip(x, 0.0, 1.0))
    assert converged and radius < 1.0
    npt.assert_allclose(x, x_star, atol=1e-10)
    assert len(calls) == iterations + len(x0)


def test_sweep_path_refuses_unknown_kind():
    with pytest.raises(ValueError, match="unknown sweep path kind 'diagonal'"):
        solver.SweepPath("diagonal").check(rademacher_model(2.0))


def test_settings_reject_out_of_range():
    for field, bad in (("max_iters", 0), ("max_iters", -3),
                       ("tol", np.inf), ("tol", np.nan), ("tol", 0.0),
                       ("damping", 0.0), ("damping", 1.5), ("damping", np.nan)):
        with pytest.raises(ValueError, match=field):
            solver.SolveSettings(**{field: bad})


# ---------------------------------------------------------------------------
# solve_f
# ---------------------------------------------------------------------------

def test_solve_f_gaussian_wigner(wigner_gaussian, fast_settings):
    res = solver.solve_f(wigner_gaussian, fast_settings)
    assert res.converged
    npt.assert_allclose(res.f_value, WIGNER_F, atol=1e-9)
    npt.assert_allclose(res.q_star, [[0.5]], atol=1e-8)


def test_solve_f_no_couplings(rng):
    prior = random_discrete_prior(rng, 2)
    m = ModelSpec(2, (), np.zeros((2, 2)), prior)
    res = solver.solve_f(m)
    npt.assert_allclose(res.f_value,
                        channel.mutual_information(prior, m.s, np.zeros((2, 2))),
                        atol=1e-10)


def test_solve_f_below_threshold_value():
    # lambda = 0.9 < 1: inf at q = 0, value lambda/4
    res = solver.solve_f(rademacher_model(0.9))
    assert res.converged
    npt.assert_allclose(res.f_value, 0.225, atol=1e-8)
    q_grid, f_grid = scalar_grid_solve(priors.rademacher(), 0.0, np.sqrt(0.45))
    npt.assert_allclose(f_grid, 0.225, atol=1e-7)
    assert q_grid < 1e-4


D1_SPARSE = priors.discrete([[0.0], [1.0 / np.sqrt(0.05)], [-1.0 / np.sqrt(0.05)]],
                            [0.95, 0.025, 0.025])


@pytest.mark.parametrize("prior, lam, s, roots", [
    (priors.rademacher(), 0.5, 0.05, 1), (priors.rademacher(), 1.5, 0.05, 1),
    (priors.rademacher(), 2.0, 0.05, 1), (priors.rademacher(), 4.0, 0.05, 1),
    (D1_SPARSE, 1.0, 0.0, 3)])
def test_solve_f_is_least_potential_over_all_d1_fixed_points(prior, lam, s, roots):
    # d = 1 oracle: every root of psi(q) = q - (rho - mmse(S + r*(q))) on
    # [0, rho], stable or not, from rotinv.scalar_roots; solve_f's value is
    # the least potential over them (the sparse model has roots 0, 0.0230 and
    # 0.8663)
    m = ModelSpec(1, ([[np.sqrt(lam / 2.0)]],), [[s]], prior)
    rho = m.rho_bar()[0, 0]

    def psi(q):
        return q - (rho - channel.mmse_matrix(prior, m.s, r_star(m, [[q]]), GH63)[0, 0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = rotinv.scalar_roots(psi, 0.0, rho)
    assert len(found) == roots and all(c != 0 for _, _, c in found)
    least = min(potential_at_stationary_q(m, [[q]], GH63) for q, _, _ in found)
    assert abs(solver.solve_f(m, quad=GH63).f_value - least) <= 1e-12


def _recording_se_iterate(monkeypatch):
    runs = []
    se_iterate = solver.se_iterate

    def recording(*args, **kwargs):
        runs.append(se_iterate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(solver, "se_iterate", recording)
    return runs


def test_solve_f_converges_at_lambda_c_within_budget(monkeypatch):
    # at lambda_c = 1 the damped iteration crawls (10,000 iterations per start
    # leave both unconverged); the accelerated run needs a few dozen
    runs = _recording_se_iterate(monkeypatch)
    res = solver.solve_f(rademacher_model(1.0), quad=GH63)
    assert [r.init_label for r in runs] == ["uninformative", "informative"]
    assert all(r.converged for r in runs)
    assert sum(r.iterations for r in runs) <= 200
    assert res.converged and res.q_star[0, 0] <= 1e-5   # sqrt(tol) at a critical point


def test_solve_f_reports_best_converged_run_of_a_branch(monkeypatch):
    # lambda = 1.05: both starts reach the same q* (the uninformative one after
    # leaving the unstable q = 0), so their f values tie to rounding; the
    # branch is labelled by both starts in init order, whichever run has the
    # smaller residual, and reports that run's iterations and residual
    runs = _recording_se_iterate(monkeypatch)
    res = solver.solve_f(rademacher_model(1.05), quad=GH63)
    assert len(runs) == 2 and all(r.converged for r in runs)
    assert psdlinalg.frobenius(runs[0].q_star - runs[1].q_star) <= solver.DEGENERACY_Q_TOL
    best = min(runs, key=lambda r: r.residual)
    assert (res.init_label, res.iterations, res.residual) == (
        "uninformative+informative", best.iterations, best.residual)
    npt.assert_array_equal(res.q_star, best.q_star)


def test_solve_f_cone_interval(rng, fast_settings):
    for lam in (0.7, 1.5, 2.5):
        m = rademacher_model(lam, s=0.1)
        res = solver.solve_f(m, fast_settings)
        rho = m.rho_bar()
        assert psdlinalg.is_psd(res.q_star, tol=1e-7)
        assert psdlinalg.loewner_leq(res.q_star, rho, tol=1e-7)


# ---------------------------------------------------------------------------
# solve_infsup
# ---------------------------------------------------------------------------

def test_infsup_gaussian_wigner(wigner_gaussian, fast_settings):
    res = solver.solve_infsup(wigner_gaussian, fast_settings)
    npt.assert_allclose(res.f_value, WIGNER_F, atol=1e-7)
    f = solver.solve_f(wigner_gaussian, fast_settings)
    assert abs(res.f_value - f.f_value) <= 1e-6


def test_infsup_no_couplings(rng):
    prior = random_discrete_prior(rng, 2)
    m = ModelSpec(2, (), np.zeros((2, 2)), prior)
    res = solver.solve_infsup(m)
    npt.assert_allclose(res.f_value,
                        channel.mutual_information(prior, m.s, np.zeros((2, 2))),
                        atol=1e-10)
    npt.assert_allclose(res.r_star, np.zeros((2, 2)), atol=1e-12)


def test_infsup_rademacher_grid_oracle(fast_settings):
    # independent 2-d grid scan over (r, q) in [0,4] x [0,1] at 400^2
    m = rademacher_model(2.0)
    res_f = solver.solve_f(m, fast_settings)
    res_is = solver.solve_infsup(m, fast_settings)
    assert abs(res_f.f_value - res_is.f_value) <= 1e-6
    rs = np.linspace(0.0, 4.0, 400)
    qs = np.linspace(0.0, 1.0, 400)
    mi = np.array([scalar_mi(np.array([1.0, -1.0]), np.array([0.5, 0.5]), r) for r in rs])
    lam = 2.0
    # I(r, q) = I(r) + r(q-1)/2 + (lam/4)(1 - q^2)  [scalar potential, b^2 = lam/2]
    inner_max = np.array([
        (mi[i] + rs[i] * (qs - 1.0) / 2.0 + lam / 4.0 * (1.0 - qs ** 2)).max()
        for i in range(len(rs))
    ])
    grid_value = inner_max.min()
    assert abs(grid_value - res_is.f_value) < 5e-5   # grid resolution limited
    npt.assert_allclose(res_is.f_value, res_f.f_value, atol=1e-9)


def test_infsup_reports_the_winning_branch(rng, monkeypatch):
    # at r = r*(q*) the inner sup is attained at q* itself, so the inf-sup
    # result is a branch: its SE iterations and residual, solve_f's q* and r*,
    # and the three-term potential there as its value
    m = ModelSpec(2, (np.diag([1.5, 1.2]),), 0.2 * np.eye(2), random_discrete_prior(rng, 2))
    assert check_hypothesis(m).holds
    res_f = solver.solve_f(m, quad=GH63)
    runs = _recording_se_iterate(monkeypatch)
    res = solver.solve_infsup(m, quad=GH63)
    won = [r for r in runs if r.iterations == res.iterations and r.residual == res.residual]
    reached = [r.init_label for r in runs
               if psdlinalg.frobenius(r.q_star - res.q_star) <= solver.DEGENERACY_Q_TOL]
    assert won and res.init_label == "infsup:" + "+".join(reached)
    assert res.iterations > 1 and res.residual > 0.0
    npt.assert_array_equal(res.q_star, res_f.q_star)
    npt.assert_array_equal(res.r_star, res_f.r_star)
    assert res.f_value == potential(m, res.r_star, res.q_star, GH63).value
    assert abs(res.f_value - res_f.f_value) <= 1e-12


def test_infsup_refuses_without_hypothesis():
    m = ModelSpec(2, ([[0.0, 1.0], [0.0, 0.0]],), np.zeros((2, 2)),
                  priors.gaussian(np.eye(2)))
    assert not check_hypothesis(m).holds
    with pytest.raises(ValueError):
        solver.solve_infsup(m)


# ---------------------------------------------------------------------------
# predict_mmse
# ---------------------------------------------------------------------------

def test_predict_mmse_analytic(fast_settings):
    # d=1 Gaussian, lambda=2, S=0.5: q* solves 2q^2 - q/2 - 1/2 = 0
    m = ModelSpec(1, ([[1.0]],), [[0.5]], priors.gaussian([[1.0]]))
    pred = solver.predict_mmse(m, fast_settings)
    q_star = (0.5 + np.sqrt(0.25 + 4.0)) / 4.0   # root of 2q^2 - q/2 - 1/2
    mmse = 1.0 / (1.5 + 2.0 * q_star)
    npt.assert_allclose(pred.q_star, [[q_star]], atol=1e-8)
    npt.assert_allclose(pred.mmse, [[mmse]], atol=1e-8)
    assert pred.consistency_gap <= 1e-4
    assert not pred.degenerate


def test_predict_mmse_no_couplings(rng, fast_settings):
    prior = random_discrete_prior(rng, 2)
    m = ModelSpec(2, (), np.eye(2), prior)
    pred = solver.predict_mmse(m, fast_settings)
    npt.assert_allclose(pred.mmse,
                        channel.mmse_matrix(prior, np.eye(2), np.zeros((2, 2))),
                        atol=1e-9)
    assert pred.consistency_gap <= 1e-4


def test_predict_mmse_rademacher(fast_settings):
    m = rademacher_model(2.0, s=0.1)
    pred = solver.predict_mmse(m, fast_settings)
    assert pred.consistency_gap <= 1e-4


def test_predict_mmse_rejects_singular():
    m = ModelSpec(1, ([[1.0]],), [[0.0]], priors.gaussian([[1.0]]))
    with pytest.raises(ValueError):
        solver.predict_mmse(m)
    with pytest.warns(RuntimeWarning):
        pred = solver.predict_mmse(m, allow_singular=True)
    assert np.isfinite(pred.consistency_gap)
    # positive but within the cone test's tolerance: singular too (a step
    # capped at a quarter of S, 2.5e-15, leaves a gap of 1.7e-2)
    m = m.with_s([[1e-14]])
    with pytest.raises(ValueError):
        solver.predict_mmse(m)
    with pytest.warns(RuntimeWarning, match="singular S regularized"):
        pred = solver.predict_mmse(m, allow_singular=True)
    assert pred.consistency_gap <= 1e-4
    # slightly negative, within the cone tolerance of a large S: the shift
    # lifts the least eigenvalue to 1e-8, so every S +- hE is positive definite
    prior = priors.discrete([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4)
    m = ModelSpec(2, (0.6 * np.eye(2),), np.diag([100.0, -5e-8]), prior)
    with pytest.warns(RuntimeWarning, match="singular S regularized by 6e-08 I"):
        pred = solver.predict_mmse(m, quad=gauss_hermite(21), allow_singular=True)
    assert pred.consistency_gap <= 1e-4


def test_predict_mmse_reports_bounds_at_a_tie():
    # the sparse model at S = 1e-3 and lambda = 298.855: the uninformative and
    # informative branches' f differ by about 2e-8, within DEGENERACY_VALUE_TOL,
    # so both MMSE matrices are reported as bounds, the winner's first
    m = sparse_model(298.855).with_s([[1e-3]])
    with pytest.warns(RuntimeWarning, match="numerically non-unique"):
        pred = solver.predict_mmse(m, quad=GH63)
    assert pred.degenerate and len(pred.mmse_bounds) == 2
    npt.assert_array_equal(pred.mmse_bounds[0], pred.mmse)
    # the gradient follows the winning branch: no quotient mixes the two
    # branches, which would put grad_f near 0.0178 instead of M/2 = 0.0250
    assert pred.consistency_gap <= 1e-8
    # uninformative (about the prior variance 0.05) and informative (0.021)
    assert pred.mmse_bounds[0][0, 0] > 0.049 and pred.mmse_bounds[1][0, 0] < 0.022


def test_predict_mmse_gradient_continues_the_best_branch(monkeypatch):
    # the C4 one-coupling d=2 model: two searching runs, then one run per
    # point S +- hE, d(d+1) = 6 of them, each started at the winner's q*
    starts = []
    se_iterate = solver.se_iterate

    def spy(model, q0, *args, **kwargs):
        starts.append(np.array(q0))
        return se_iterate(model, q0, *args, **kwargs)

    monkeypatch.setattr(solver, "se_iterate", spy)
    prior = priors.discrete([[0.9, 0.9], [0.05, -0.65], [-1.35, -0.35], [-0.25, -1.35]],
                            [0.1, 0.4, 0.3, 0.2])
    m = ModelSpec(2, (0.6 * np.eye(2),), [[0.47, -0.15], [-0.15, 0.45]], prior)
    pred = solver.predict_mmse(m, quad=GH63)
    assert len(starts) == 2 + 2 * 3
    for q0 in starts[2:]:
        npt.assert_array_equal(q0, pred.q_star)
    assert pred.consistency_gap <= 1e-4


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_zero_coupling_rows(rng):
    m = rademacher_model(2.0)
    rows = solver.sweep(m, solver.SweepPath("coupling", 0), [0.0, 0.0, 0.0])
    trivial = channel.mutual_information(m.prior, m.s, np.zeros((1, 1)))
    for row in rows:
        assert row.converged
        npt.assert_allclose(row.f_value, trivial, atol=1e-12)
        npt.assert_allclose(row.r_trace, 0.0, atol=1e-12)


def test_sweep_monotone_and_threshold(fast_settings):
    m = rademacher_model(2.0)   # base B = 1, multiplier t -> lambda = 2 t^2
    lams = np.arange(0.5, 2.0001, 0.1)
    grid = np.sqrt(lams / 2.0)
    rows = solver.sweep(m, solver.SweepPath("coupling", 0), grid, fast_settings)
    assert all(r.converged for r in rows)
    fs = [r.f_value for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))
    for lam, row in zip(lams, rows):
        if lam <= 0.95:
            assert row.q_trace < 1e-4
        if lam >= 1.1:
            assert row.q_trace > 0.01


def test_sweep_c2_work_count(monkeypatch):
    # the C2 sweep takes 975 SE iterations, the runs that start near the
    # unstable q = 0 included; iteration counts repeat exactly, so this guards
    # the extrapolation's saving without a wall-clock gate
    runs = _recording_se_iterate(monkeypatch)
    lams = np.round(np.arange(0.5, 2.0001, 0.05), 10)
    rows = solver.sweep(rademacher_model(2.0), solver.SweepPath("coupling", 0),
                        np.sqrt(lams / 2.0), quad=GH63)
    assert len(rows) == 31 and all(row.converged for row in rows)
    assert sum(r.iterations for r in runs) <= 1300


def test_sweep_s_entry():
    m = rademacher_model(1.5)
    rows = solver.sweep(m, solver.SweepPath("s-entry", entry=(0, 0)), [0.0, 0.2, 0.5])
    assert [r.param for r in rows] == [0.0, 0.2, 0.5]
    fs = [r.f_value for r in rows]
    assert fs[0] < fs[1] < fs[2]    # more side information, more information


def test_sweep_continues_past_failure():
    m = rademacher_model(1.5)
    settings = solver.SolveSettings(max_iters=10_000)
    with pytest.warns(RuntimeWarning):
        rows = solver.sweep(m, solver.SweepPath("s-entry", entry=(0, 0)),
                            [0.1, -1.0, 0.3], settings)
    assert rows[1].branch == "failed" and not rows[1].converged
    assert rows[0].converged and rows[2].converged


# ---------------------------------------------------------------------------
# embeddings and reductions
# ---------------------------------------------------------------------------

def test_wishart_embedding_cross_block():
    gamma = 1.3
    b = np.array([[0.0, gamma], [0.0, 0.0]])
    prior = priors.discrete([[u, v] for u in (1.0, -1.0) for v in (1.0, -1.0)],
                            [0.25] * 4)
    m = ModelSpec(2, (b,), np.zeros((2, 2)), prior)
    qu, qv = 0.4, 0.7
    r = solver.r_star(m, np.diag([qu, qv])) if hasattr(solver, "r_star") else None
    from rslimits.potential import r_star
    r = r_star(m, np.diag([qu, qv]))
    # u-block snr comes from the v-overlap and vice versa
    npt.assert_allclose(r, np.diag([gamma**2 * qv, gamma**2 * qu]), atol=1e-14)
    pv = potential(m, np.zeros((2, 2)), np.diag([qu, qv]), GH63)
    rho_u = rho_v = 1.0
    npt.assert_allclose(pv.quartic_term,
                        0.5 * gamma**2 * (rho_u * rho_v - qu * qv), atol=1e-12)


def test_scalar_reduction_against_grid_oracle(rng, fast_settings):
    # full pipeline vs the independent scalar grid routine, 20 random triples
    for trial in range(20):
        b = float(rng.uniform(0.3, 1.2))
        s = float(rng.uniform(0.0, 0.6))
        kind = trial % 3
        if kind == 0:
            prior = priors.gaussian([[float(rng.uniform(0.5, 1.5))]])
        elif kind == 1:
            prior = priors.rademacher()
        else:
            atoms = rng.uniform(-1.5, 1.5, size=(3, 1))
            w = rng.uniform(0.2, 1.0, size=3)
            prior = priors.discrete(atoms, w / w.sum())
        m = ModelSpec(1, ([[b]],), [[s]], prior)
        res = solver.solve_f(m, fast_settings)
        q_grid, f_grid = scalar_grid_solve(prior, s, b)
        assert abs(res.f_value - f_grid) < 1e-6, (b, s, prior.kind)
