"""Acceptance gate: every shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Timings are wall-clock for the criterion body (the solver and
oracle paths run once up front, so first-call costs such as lazy imports and
quadrature-node caches are not billed to any criterion).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from rslimits import channel, cli, oracle, priors, psdlinalg, rotinv, solver
from rslimits.potential import (ModelSpec, check_hypothesis,
                                potential_at_stationary_q, q_hessian)
from rslimits.quadrature import gauss_hermite
from rslimits.solver import SolveSettings

from conftest import rademacher_model, random_discrete_prior, random_psd

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_VALUE = 0.2902288194345509   # analytic oracle: ln(1+r) - r^2/2 at r = GOLDEN
WIGNER_F = 0.47157359027997264      # analytic oracle: ln(2)/2 + 1/8


def report(name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"{status} — {name}: {detail} ({time.perf_counter() - t0:.1f} s)")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warm_first_calls():
    m = rademacher_model(2.0, s=0.2)
    solver.solve_f(m, SolveSettings(max_iters=5))
    oracle.replica_average(m, 2, 2, seed=0)


def test_c1_scalar_wigner_analytic():
    t0 = time.perf_counter()
    m = ModelSpec(1, ([[1.0]],), [[0.0]], priors.gaussian([[1.0]]))
    res = solver.solve_f(m)
    elapsed = time.perf_counter() - t0
    errs = (abs(res.q_star[0, 0] - 0.5), abs(res.r_star[0, 0] - 1.0),
            abs(res.f_value - WIGNER_F))
    ok = res.converged and all(e <= 1e-6 for e in errs) and elapsed < 1.0
    report("C1 scalar spiked-Wigner analytic check", ok,
           f"q*/r*/f errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, {elapsed:.2f} s", t0)


def test_c2_rademacher_phase_transition():
    t0 = time.perf_counter()
    base = rademacher_model(2.0)      # B = 1, multiplier t gives lambda = 2 t^2
    lams = np.round(np.arange(0.5, 2.0001, 0.05), 10)
    grid = np.sqrt(lams / 2.0)
    rows = solver.sweep(base, solver.SweepPath("coupling", 0), grid)
    ok = True
    detail = []
    q_grid_pts = np.linspace(0.0, 1.0, 1001)    # independent scan, resolution 1e-3
    for lam, row in zip(lams, rows):
        q_sol = row.q_trace
        if lam <= 0.95 and not q_sol < 1e-4:
            ok, _ = False, detail.append(f"lambda={lam}: q*={q_sol:.2e} not < 1e-4")
        if lam >= 1.1 and not q_sol > 0.01:
            ok, _ = False, detail.append(f"lambda={lam}: q*={q_sol:.2e} not > 0.01")
        m = rademacher_model(float(lam))
        vals = [potential_at_stationary_q(m, [[q]]) for q in q_grid_pts]
        q_ref = q_grid_pts[int(np.argmin(vals))]
        if abs(q_ref - q_sol) > 2e-3:
            ok = False
            detail.append(f"lambda={lam}: grid argmin {q_ref:.4f} vs solver {q_sol:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report("C2 Rademacher phase transition (lambda_c = 1)", ok,
           "; ".join(detail) or f"31 points confirmed by 1e-3 grid scans, {elapsed:.1f} s", t0)


def _random_hypothesis_model(rng):
    while True:
        bs = tuple(rng.uniform(-2.0, 2.0, (2, 2)) for _ in range(2))
        s = random_psd(rng, 2, 0.3) + 0.05 * np.eye(2)
        prior = (random_discrete_prior(rng, 2)
                 if rng.uniform() < 0.5
                 else priors.gaussian(random_psd(rng, 2) + 0.4 * np.eye(2)))
        m = ModelSpec(2, bs, s, prior)
        if check_hypothesis(m).holds:
            return m


def test_c3_duality_gap():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        m = _random_hypothesis_model(rng)
        f = solver.solve_f(m)
        fs = solver.solve_infsup(m)
        worst = max(worst, abs(f.f_value - fs.f_value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    report("C3 duality gap on 10 random hypothesis-true models", ok,
           f"worst |solve_f - solve_infsup| = {worst:.2e}, {elapsed:.1f} s", t0)


def test_c4_envelope_immse_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    pd2 = random_discrete_prior(rng, 2)
    models = [
        ModelSpec(1, ([[1.0]],), [[0.5]], priors.gaussian([[1.0]])),
        rademacher_model(2.0, s=0.1),
        ModelSpec(2, (), np.eye(2), pd2),
        ModelSpec(2, (0.6 * np.eye(2),), 0.3 * np.eye(2) + random_psd(rng, 2, 0.1), pd2),
        ModelSpec(2, (np.array([[0.8, 0.2], [0.2, 0.6]]),),
                  0.4 * np.eye(2), priors.gaussian(random_psd(rng, 2) + 0.5 * np.eye(2))),
    ]
    worst = 0.0
    for m in models:
        pred = solver.predict_mmse(m)
        worst = max(worst, pred.consistency_gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    report("C4 envelope / matrix I-MMSE consistency on 5 interior-S models", ok,
           f"worst Frobenius gap = {worst:.2e}, {elapsed:.1f} s", t0)


def _fd_hessian_quadratic(m, h=1e-3):
    def g(v):
        q = psdlinalg.unvech(v)
        out = 0.0
        for b in m.couplings:
            out -= np.sum((b.T @ q @ b) * q)
        return out

    k = m.d * (m.d + 1) // 2
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei, ej = np.zeros(k), np.zeros(k)
            ei[i] = h
            ej[j] = h
            H[i, j] = (g(ei + ej) - g(ei - ej) - g(ej - ei) + g(-ei - ej)) / (4 * h * h)
    return H


def test_c5_concavity_hessian():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    agree = 0
    fd_worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        L = int(rng.integers(1, 3))
        m = ModelSpec(d, tuple(rng.uniform(-2.0, 2.0, (d, d)) for _ in range(L)),
                      np.zeros((d, d)), priors.gaussian(np.eye(d)))
        H = q_hessian(m)
        w = np.linalg.eigvalsh(H)
        nsd = bool(w.max() <= 1e-9 * max(1.0, np.abs(w).max()))
        agree += int(nsd == check_hypothesis(m).holds)
        fd_worst = max(fd_worst, float(np.abs(H - _fd_hessian_quadratic(m)).max()))
    elapsed = time.perf_counter() - t0
    ok = agree == 200 and fd_worst <= 1e-8
    report("C5 concavity Hessian vs positive-coupling hypothesis", ok,
           f"verdict agreement {agree}/200, worst FD deviation {fd_worst:.2e}", t0)


def test_c6_finite_n_convergence():
    t0 = time.perf_counter()
    m = rademacher_model(2.0, s=0.2)
    f = solver.solve_f(m).f_value
    ns = (4, 6, 8, 10)
    wins = 0
    rows = []
    for seed in range(20):
        gaps = {n: abs(oracle.replica_average(m, n, 2000, seed=(777, seed)).mi_per_row - f)
                for n in ns}
        rows.append(gaps)
        wins += int(gaps[10] < gaps[4])
    elapsed = time.perf_counter() - t0
    ok = wins >= 18 and elapsed < 600.0
    mean_gaps = {n: float(np.mean([r[n] for r in rows])) for n in ns}
    report("C6 finite-n mutual information approaches f", ok,
           f"|mi(n)-f| improved for {wins}/20 seeds; mean gaps "
           + ", ".join(f"n={n}: {g:.4f}" for n, g in mean_gaps.items())
           + f"; {elapsed:.0f} s", t0)


def test_c7_nishimori_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    configs = [
        (rademacher_model(2.0, s=0.2), 4),
        (rademacher_model(1.0, s=0.5), 3),
        (rademacher_model(3.0, s=0.05), 5),
        (ModelSpec(1, (), [[0.8]], priors.discrete([[1.0], [0.0]], [0.3, 0.7])), 4),
        (ModelSpec(2, (0.5 * np.eye(2),), 0.3 * np.eye(2),
                   priors.discrete([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
                                   [0.25] * 4)), 3),
    ]
    details = []
    ok = True
    for i, (m, n) in enumerate(configs):
        res = oracle.replica_average(m, n, 2000, seed=(55, i))
        ratio = (res.nishimori_residual / res.nishimori_std_err
                 if res.nishimori_std_err > 0 else 0.0)
        details.append(f"{ratio:.2f}")
        ok = ok and res.nishimori_residual <= 4.0 * res.nishimori_std_err
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report("C7 Nishimori identity within 4 MC standard errors", ok,
           f"residual/se ratios: {', '.join(details)}; {elapsed:.0f} s", t0)


def test_c8_rotationally_invariant_module():
    t0 = time.perf_counter()
    m = rotinv.RotInvModel(1.0, 1.0, priors.gaussian([[1.0]]),
                           rotinv.marchenko_pastur_unit())
    sol = rotinv.solve_rotinv(m)
    errs = (abs(sol.value - GOLDEN_VALUE), abs(sol.e_star - GOLDEN),
            abs(sol.r_star - GOLDEN))
    ok = all(e <= 1e-6 for e in errs)
    # closed-form integrated R-transform vs adaptive quadrature
    worst_q = 0.0
    for tau in (rotinv.marchenko_pastur_unit(),
                rotinv.SpectralDistribution([1.0, 4.0], [0.5, 0.5]),
                rotinv.SpectralDistribution([0.2, 1.0, 3.0], [0.3, 0.4, 0.3])):
        mm = rotinv.RotInvModel(1.1, 1.0, priors.gaussian([[1.0]]), tau)
        for a in (0.5, 2.0, 10.0):
            numeric, _ = scipy_quad(lambda z: rotinv.r_transform(mm, z), 0.0, a,
                                    epsabs=1e-13, epsrel=1e-13)
            worst_q = max(worst_q, abs(rotinv.integrated_r(mm, a) - numeric))
    ok = ok and worst_q <= 1e-10
    sd = rotinv.empirical_spectrum(1, 1000, 1.0, seed=2024)
    mp_ok = abs(sd.mean() - 1.0) < 0.05 and abs(sd.moment(2) - 2.0) < 0.1
    elapsed = time.perf_counter() - t0
    ok = ok and mp_ok and elapsed < 60.0
    report("C8 rotationally invariant module", ok,
           f"value/E/r errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}; "
           f"integrated-R worst {worst_q:.1e}; MP moments {sd.mean():.3f}, "
           f"{sd.moment(2):.3f}; {elapsed:.1f} s", t0)


def test_c9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    model = tmp_path / "model.json"
    model.write_text(
        '{"d": 1, "couplings": [[[1.0]]], "s": [[0.2]], '
        '"prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}}')
    blobs = {"solve": [], "sweep": [], "oracle": []}
    for rep in range(3):
        for cmd, extra in [("solve", []),
                           ("sweep", ["--path", "coupling:0", "--grid", "0.6,0.8,1.0"]),
                           ("oracle", ["--n", "3", "--mc-samples", "60"])]:
            out = tmp_path / f"{cmd}_{rep}.out"
            code = cli.run([cmd, "--model", str(model), "--seed", "13",
                            "--out", str(out), *extra])
            assert code == 0
            blobs[cmd].append(out.read_bytes())
    ok = all(b[0] == b[1] == b[2] for b in blobs.values())
    report("C9 byte-identical artifacts across 3 seeded CLI runs", ok,
           "solve/sweep/oracle artifacts compared", t0)
