"""Variational solver: state-evolution fixed points, the single-letter inf,
the inf-sup cross-check, and the predicted asymptotic MMSE matrix.

The single-letter value is

    f(S) = inf_q { I_S(r*(q)) + sum_l Tr[B_l^T (rho-q) B_l (rho-q)] / 2 }

over PSD q, reached at state-evolution fixed points q = rho_bar - M_S(r*(q)).
With several fixed points the inf picks the smallest potential value; that is
the selection rule everywhere in this module.

The inf-sup route solves the inner concave maximization over q directly
(projected gradient ascent on (r - r*(q))/2, whose iteration cost is pure
linear algebra) for each candidate r in the image of r* over the fixed-point
set, and must agree with the single-letter value up to duality tolerance.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import psdlinalg
from .channel import mmse_matrix
from .potential import (check_hypothesis, coupling_structure_matrix, potential,
                        potential_at_stationary_q, r_star)
from .quadrature import default_scheme

UNINFORMATIVE_SCALE = 1e-3   # strict zero can be a symmetry-pinned fixed point
DEGENERACY_VALUE_TOL = 1e-6
DEGENERACY_Q_TOL = 1e-5


@dataclass(frozen=True)
class SolveSettings:
    """Damping, tolerances and starting points for the fixed-point solver."""

    damping: float = 0.5
    tol: float = 1e-10
    max_iters: int = 10_000
    inits: tuple | None = None        # ((label, q0), ...); None -> defaults
    finite_diff_step: float = 1e-4
    polish: bool = False              # derivative-free refinement of the inf

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FixedPointResult:
    q_star: np.ndarray
    r_star: np.ndarray
    f_value: float
    residual: float
    iterations: int
    init_label: str
    converged: bool


def default_inits(model):
    rho = model.rho_bar()
    return (("uninformative", UNINFORMATIVE_SCALE * rho), ("informative", rho.copy()))


def se_iterate(model, q0, settings=None, quad=None, init_label="custom"):
    """Damped state evolution q <- (1-beta) q + beta proj_psd(rho - M_S(r*(q))).

    Stops when the Frobenius norm of the undamped update falls below tol.
    Non-convergence is reported through ``converged=False`` with the last
    iterate, not an exception.
    """
    settings = settings or SolveSettings()
    quad = quad or default_scheme(model.d)
    rho = model.rho_bar()
    q = psdlinalg.project_psd(np.asarray(q0, dtype=np.float64))
    beta = settings.damping
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iters + 1):
        target = psdlinalg.project_psd(rho - mmse_matrix(model.prior, model.s,
                                                         r_star(model, q), quad))
        residual = psdlinalg.frobenius(target - q)
        if residual <= settings.tol:
            converged = True
            break
        q = (1.0 - beta) * q + beta * target
    q = psdlinalg.project_psd(q)
    return FixedPointResult(
        q_star=q,
        r_star=r_star(model, q),
        f_value=potential_at_stationary_q(model, q, quad),
        residual=residual,
        iterations=iterations,
        init_label=init_label,
        converged=converged,
    )


def _candidate_runs(model, settings, quad, extra_inits=()):
    inits = list(settings.inits) if settings.inits is not None else list(default_inits(model))
    inits.extend(extra_inits)
    return [se_iterate(model, q0, settings, quad, init_label=label)
            for label, q0 in inits]


def _polish_candidate(model, settings, quad, start):
    """Derivative-free minimization of the reduced potential over q = L L^T."""
    from scipy.optimize import minimize

    d = model.d
    tril = np.tril_indices(d)
    w, v = np.linalg.eigh(start.q_star)
    L0 = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T

    def objective(x):
        L = np.zeros((d, d))
        L[tril] = x
        return potential_at_stationary_q(model, L @ L.T, quad)

    res = minimize(objective, L0[tril], method="Nelder-Mead",
                   options=dict(xatol=1e-9, fatol=1e-12, maxiter=4000))
    L = np.zeros((d, d))
    L[tril] = res.x
    q = psdlinalg.sym(L @ L.T)
    return FixedPointResult(
        q_star=q,
        r_star=r_star(model, q),
        f_value=float(res.fun),
        residual=np.nan,
        iterations=int(res.nit),
        init_label="polish",
        converged=bool(res.success),
    )


def solve_f(model, settings=None, quad=None, extra_inits=()):
    """Single-letter value: run every init, return the smallest potential value."""
    settings = settings or SolveSettings()
    quad = quad or default_scheme(model.d)
    runs = _candidate_runs(model, settings, quad, extra_inits)
    if settings.polish:
        best_run = min(runs, key=lambda r: r.f_value)
        runs.append(_polish_candidate(model, settings, quad, best_run))
    converged = [r for r in runs if r.converged]
    pool = converged if converged else runs
    best = min(pool, key=lambda r: r.f_value)
    if not converged:
        best = replace(best, converged=False)
    return best


def _dedupe_fixed_points(runs, tol=1e-6):
    unique = []
    for run in runs:
        if all(psdlinalg.frobenius(run.q_star - u.q_star) > tol for u in unique):
            unique.append(run)
    return unique


def _inner_sup(model, r, q0, settings):
    """Concave maximization of q -> I(r, q) by projected gradient ascent.

    The gradient (r - r*(q))/2 is linear algebra only; the step size is the
    inverse Lipschitz constant of the gradient (half the spectral norm of
    the coupling structure matrix).
    """
    H = coupling_structure_matrix(model)
    lip = 0.5 * float(np.linalg.norm(H, 2)) if H.size else 0.0
    scale = max(1.0, psdlinalg.frobenius(model.rho_bar()))
    if lip <= 0.0:
        # no quartic piece: the objective is linear in q, finite only at r = 0
        if psdlinalg.frobenius(r) <= settings.tol * scale:
            return q0.copy(), 0.0, 0, True
        return q0.copy(), np.inf, 0, False
    step = 1.0 / lip
    q = psdlinalg.project_psd(q0)
    residual = np.inf
    for it in range(1, settings.max_iters + 1):
        g = 0.5 * (r - r_star(model, q))
        q_new = psdlinalg.project_psd(q + step * g)
        residual = psdlinalg.frobenius(q_new - q) / step
        q = q_new
        if residual <= settings.tol * scale:
            return q, residual, it, True
        if psdlinalg.frobenius(q) > 1e9 * scale:
            break
    return q, residual, settings.max_iters, False


def solve_infsup(model, settings=None, quad=None):
    """inf over candidate r of sup over PSD q of the potential.

    Candidate r values are the image of r* over the fixed-point set.  The
    inner sup is concave under the positive-coupling hypothesis; without it
    this routine refuses.
    """
    settings = settings or SolveSettings()
    quad = quad or default_scheme(model.d)
    report = check_hypothesis(model)
    if not report.holds:
        raise ValueError(
            "positive-coupling hypothesis violated "
            f"(min eigenvalue {report.min_eigenvalue:.3e}): the inner sup over q "
            "is not concave, refusing the inf-sup route")
    runs = _dedupe_fixed_points(_candidate_runs(model, settings, quad))
    best = None
    for run in runs:
        r_cand = run.r_star
        q_sup, residual, iters, ok = _inner_sup(model, r_cand, run.q_star, settings)
        if not ok:
            warnings.warn(f"inner sup did not converge from branch {run.init_label!r}",
                          RuntimeWarning)
            continue
        value = potential(model, r_cand, q_sup, quad, check_interval=False).value
        cand = FixedPointResult(
            q_star=q_sup,
            r_star=r_cand,
            f_value=value,
            residual=residual,
            iterations=iters,
            init_label=f"infsup:{run.init_label}",
            converged=run.converged,
        )
        if best is None or value < best.f_value:
            best = cand
    if best is None:
        raise RuntimeError("inner sup failed to converge from every fixed-point branch")
    return best


@dataclass(frozen=True)
class MmsePrediction:
    mmse: np.ndarray
    grad_f: np.ndarray
    consistency_gap: float
    f_value: float
    q_star: np.ndarray
    degenerate: bool = False
    mmse_bounds: tuple = ()


def _symmetric_fd_gradient(model, settings, quad, warm_q):
    """Central finite differences of S -> f(S) over the d(d+1)/2 entries.

    Off-diagonal entries are perturbed jointly at (k, l) and (l, k), i.e. the
    differentiation is over the symmetric cone; entry steps scale with the
    entry magnitude and are capped so S stays positive definite.
    """
    d = model.d
    s0 = model.s
    min_eig = float(np.linalg.eigvalsh(s0).min())
    grad = np.zeros((d, d))
    warm = (("warm", warm_q),)

    def f_at(s_pert):
        return solve_f(model.with_s(s_pert), settings, quad, extra_inits=warm).f_value

    for k in range(d):
        for l in range(k, d):
            h = settings.finite_diff_step * (1.0 + abs(s0[k, l]))
            if min_eig > 0:
                h = min(h, 0.25 * min_eig)
            E = np.zeros((d, d))
            E[k, l] = E[l, k] = 1.0
            df = f_at(s0 + h * E) - f_at(s0 - h * E)
            if k == l:
                grad[k, k] = df / (2.0 * h)
            else:
                grad[k, l] = grad[l, k] = df / (4.0 * h)
    return grad


def predict_mmse(model, settings=None, quad=None, allow_singular=False):
    """Asymptotic MMSE matrix M_S(r*(q*)) with a gradient-consistency check.

    Requires S strictly positive definite (f is differentiable there when
    the optimum is unique).  ``consistency_gap`` is the Frobenius distance
    between the finite-difference gradient of f and half the MMSE matrix;
    a near-tie between fixed points is flagged as ``degenerate`` and the
    per-branch MMSE matrices are reported as subdifferential bounds.
    """
    settings = settings or SolveSettings()
    quad = quad or default_scheme(model.d)
    min_eig = float(np.linalg.eigvalsh(model.s).min())
    if min_eig <= 0.0:
        if not allow_singular:
            raise ValueError("predict_mmse requires S strictly positive definite; "
                             "pass allow_singular=True to regularize")
        warnings.warn("singular S regularized by 1e-8 I for the MMSE prediction; "
                      "the limit theorem assumes S positive definite", RuntimeWarning)
        model = model.with_s(model.s + 1e-8 * np.eye(model.d))
    runs = _dedupe_fixed_points(_candidate_runs(model, settings, quad))
    best = min(runs, key=lambda r: r.f_value)
    ties = [r for r in runs
            if abs(r.f_value - best.f_value) <= DEGENERACY_VALUE_TOL
            and psdlinalg.frobenius(r.q_star - best.q_star) > DEGENERACY_Q_TOL]
    degenerate = bool(ties)
    mmse = mmse_matrix(model.prior, model.s, best.r_star, quad)
    bounds = ()
    if degenerate:
        warnings.warn("optimum is numerically non-unique: reporting per-branch "
                      "MMSE matrices as subdifferential bounds", RuntimeWarning)
        bounds = tuple(mmse_matrix(model.prior, model.s, r.r_star, quad)
                       for r in (best, *ties))
    grad = _symmetric_fd_gradient(model, settings, quad, best.q_star)
    gap = psdlinalg.frobenius(grad - 0.5 * mmse)
    return MmsePrediction(
        mmse=mmse,
        grad_f=grad,
        consistency_gap=gap,
        f_value=best.f_value,
        q_star=best.q_star,
        degenerate=degenerate,
        mmse_bounds=bounds,
    )


@dataclass(frozen=True)
class SweepPath:
    """Selects what the sweep multiplies or sets.

    kind "coupling": grid value multiplies the base coupling B[index].
    kind "s-entry": grid value is assigned to S[entry] (and its transpose).
    """

    kind: str
    index: int = 0
    entry: tuple = (0, 0)

    def check(self, model):
        """Raise ValueError unless the path names an existing entry of ``model``."""
        if self.kind == "coupling":
            if not 0 <= self.index < model.num_views:
                raise ValueError(f"coupling index {self.index} out of range "
                                 f"(the model has {model.num_views} couplings)")
        elif self.kind == "s-entry":
            if not all(0 <= i < model.d for i in self.entry):
                raise ValueError(f"S entry {tuple(self.entry)} out of range for d = {model.d}")
        else:
            raise ValueError(f"unknown sweep path kind {self.kind!r}")

    def apply(self, model, value):
        """``model`` at grid value ``value``; the path must have passed :meth:`check`."""
        if self.kind == "coupling":
            bs = list(model.couplings)
            bs[self.index] = value * bs[self.index]
            return model.with_couplings(bs)
        k, l = self.entry
        s = model.s.copy()
        s[k, l] = s[l, k] = value
        return model.with_s(s)


@dataclass(frozen=True)
class SweepRow:
    param: float
    f_value: float
    q_star: np.ndarray | None
    r_star: np.ndarray | None
    q_trace: float
    r_trace: float
    mmse_trace: float
    converged: bool
    branch: str


def sweep(model, path, grid, settings=None, quad=None, warm_start=True):
    """Solve along a parameter path; rows ordered by the grid, deterministic.

    The previous grid point's q* is reused as an extra init (hysteresis
    tracking near first-order transitions), which makes the sweep sequential
    by contract.  A failing point yields an unconverged row and the sweep
    continues.  A path that names no entry of ``model`` raises ValueError
    before any point is solved.
    """
    path.check(model)
    settings = settings or SolveSettings()
    quad = quad or default_scheme(model.d)
    rows = []
    warm_q = None
    for value in grid:
        try:
            m = path.apply(model, float(value))
            extra = (("warm-start", warm_q),) if (warm_start and warm_q is not None) else ()
            res = solve_f(m, settings, quad, extra_inits=extra)
            mmse = mmse_matrix(m.prior, m.s, res.r_star, quad)
            rows.append(SweepRow(
                param=float(value),
                f_value=res.f_value,
                q_star=res.q_star,
                r_star=res.r_star,
                q_trace=float(np.trace(res.q_star)),
                r_trace=float(np.trace(res.r_star)),
                mmse_trace=float(np.trace(mmse)),
                converged=res.converged,
                branch=res.init_label,
            ))
            if res.converged:
                warm_q = res.q_star
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"sweep point {value!r} failed: {exc}", RuntimeWarning)
            rows.append(SweepRow(
                param=float(value), f_value=np.nan, q_star=None, r_star=None,
                q_trace=np.nan, r_trace=np.nan, mmse_trace=np.nan,
                converged=False, branch="failed",
            ))
    return rows
