"""Variational solver: state-evolution fixed points, the single-letter inf,
the inf-sup cross-check, and the predicted asymptotic MMSE matrix.

The single-letter value is

    f(S) = inf_q { I_S(r*(q)) + sum_l Tr[B_l^T (rho-q) B_l (rho-q)] / 2 }

over PSD q, reached at state-evolution fixed points q = rho_bar - M_S(r*(q)).
With several fixed points the inf picks the smallest potential value; that is
the selection rule everywhere in this module.

Fixed points are found by :func:`fixed_point`.  It works on a flat
coordinate vector with a projection onto the admissible set (here vech(q),
off-diagonal entries scaled by sqrt(2) so the Euclidean norm is the
Frobenius norm, projected onto the PSD cone).  It extrapolates the damped
step q <- (1-beta) q + beta T(q), beta = ``SolveSettings.damping``, by
SQUAREM, which speeds toward stable fixed points and away from unstable ones
(from the uninformative start it walks off q = 0), and certifies the
stability of every point it returns.  The selection rule therefore compares
the stable fixed points the damped iteration converges to; where several
coexist, which one a start reaches can differ from the damped iteration's,
and the test suite checks the selected value against damped state evolution
through a first-order transition.

Every selection reads one list of branches (:func:`_branches`): the runs
from all inits, merged where their q* agree within ``DEGENERACY_Q_TOL``.
``solve_f`` takes the least f, ``predict_mmse`` its best branch and the
branches that tie with it in value (its S-gradient continues the best
branch alone), ``sweep`` goes through ``solve_f`` warm-started at the last q*.
``settings=None`` means ``SolveSettings()``, read in :func:`fixed_point`;
``quad=None`` means the channel's default quadrature.

The inf-sup route takes the candidate r from the image of r* over the
branches.  At r = r*(q*) the inner objective q -> I(r, q) is concave under
the positive-coupling hypothesis and its gradient (r - r*(q))/2 is zero at
q*, so the inner sup is attained at q* in closed form: each branch scores
the full three-term potential(model, r*, q*), and the least score must agree
with the single-letter value up to duality tolerance.  No outer inf over
other r is searched.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import psdlinalg
from .channel import _mmse_core
from .potential import check_hypothesis, potential, potential_at_stationary_q, r_star

UNINFORMATIVE_SCALE = 1e-3   # strict zero can be a symmetry-pinned fixed point
DEGENERACY_VALUE_TOL = 1e-6
DEGENERACY_Q_TOL = 1e-5
FINITE_DIFF_STEP = 1e-4      # relative step of the S-gradient in predict_mmse


@dataclass(frozen=True)
class SolveSettings:
    """Damping, tolerance and iteration cap for the fixed-point solver."""

    damping: float = 0.5
    tol: float = 1e-10
    max_iters: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FixedPointResult:
    q_star: np.ndarray
    r_star: np.ndarray
    f_value: float
    residual: float
    iterations: int
    init_label: str
    converged: bool
    stability_radius: float


def _stability(step, x, g, beta, h):
    """Spectral radius of the damped map's Jacobian at ``x`` and its eigenvector.

    Forward differences of ``step`` with step ``h`` along each coordinate;
    ``g = step(x)`` is the base point, so this costs ``x.size`` map calls.
    """
    jac = np.empty((x.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        jac[:, i] = (step(x + e) - g) / h
    w, v = np.linalg.eig((1.0 - beta) * np.eye(x.size) + beta * jac)
    k = int(np.argmax(np.abs(w)))
    return float(abs(w[k])), v[:, k].real


def fixed_point(step, x0, settings, project):
    """Certified fixed point of ``step`` by squared extrapolation of the damped step.

    ``step`` maps flat coordinates x to the undamped update T(x); ``project``
    maps any x to the nearest admissible point and is applied to ``x0``, to
    each extrapolated iterate and to each nudge (a damped step between
    admissible points stays admissible).  Returns ``(x, residual, iterations,
    converged, stability_radius)``.

    * Iteration: SQUAREM cycles (Varadhan & Roland 2008) over the damped map
      with ``beta = settings.damping`` and F = T - x.  From y0 a cycle takes
      the damped step y1 = y0 + r, r = beta F(y0), sets v = beta (F(y1) -
      F(y0)) and a = min(-1, -|r| / |v|) (a = -1 when v = 0), and moves to
      project(y0 - 2a r + a^2 v), whose map call starts the next cycle.  On a
      linear map with rate c this multiplies the error by (1 - a(c - 1))^2:
      zero on a contraction, at least 4 near an expanding point, so cycles
      speed toward stable points and away from unstable ones.  The run stops
      at the first evaluated x whose residual |T(x) - x| is at most
      ``settings.tol``.
    * Certificate: at every returned point, the spectral radius of the
      damped map's Jacobian by forward differences with step h = sqrt(tol)
      (``x.size`` map calls, the last iteration's T(x) as base point).  The
      forward difference is off by O(h) and a base point within tol of the
      fixed point moves the quotient by O(tol / h), so a radius above
      1 + h + tol / h marks an unstable point.
    * Unstable point: the run nudges x along the unstable eigenvector toward
      ``x0`` (by |x0 - x|, at least h) and starts a new cycle there.  A
      return within h of a known unstable point ends the run at that point.
    * Budget: ``iterations`` counts the map calls of the iteration and never
      exceeds ``settings.max_iters``; certificate calls are not counted.  At
      the cap the last evaluated iterate is returned with ``converged=False``
      (or, if the last call found an unstable point, that point).
    """
    settings = settings or SolveSettings()
    beta, tol = settings.damping, settings.tol
    h = math.sqrt(tol)
    margin = h + tol / h
    start = x = project(np.asarray(x0, dtype=np.float64))
    cycle, unstable = None, []          # cycle: the current cycle's y0 and r
    for iterations in range(1, settings.max_iters + 1):
        g = step(x)
        last, f = (x, g), g - x
        residual = float(np.linalg.norm(f))
        if residual <= tol:
            radius, v = _stability(step, x, g, beta, h)
            if (radius <= 1.0 + margin or iterations == settings.max_iters
                    or any(np.linalg.norm(x - u) <= h for u in unstable)):
                return x, residual, iterations, True, radius
            unstable.append(x)
            toward = start - x
            x = project(x + math.copysign(max(np.linalg.norm(toward), h), v @ toward) * v)
            cycle = None
        elif cycle is None:
            cycle = x, beta * f
            x = x + beta * f
        else:
            y0, r = cycle
            v = beta * f - r
            norm_v = np.linalg.norm(v)
            a = min(-1.0, -np.linalg.norm(r) / norm_v) if norm_v > 0.0 else -1.0
            x, cycle = project(y0 - 2.0 * a * r + a * a * v), None
    x, g = last
    return x, residual, iterations, False, _stability(step, x, g, beta, h)[0]


def se_iterate(model, q0, settings=None, quad=None, init_label="custom"):
    """State-evolution fixed point from ``q0`` through :func:`fixed_point`.

    The map is T(q) = proj_psd(rho - M_S(r*(q))); the damped iteration it
    accelerates is q <- (1-beta) q + beta T(q).  Coordinates are vech(q)
    with off-diagonal entries scaled by sqrt(2), so the residual is the
    Frobenius norm |T(q) - q| and converged means residual <= tol.
    ``iterations`` counts map calls of the iteration (at most
    ``max_iters``); the stability certificate adds d(d+1)/2 uncounted calls
    and its radius is ``stability_radius`` (above 1: an unstable point).
    Non-convergence is reported through ``converged=False`` with the last
    evaluated iterate, not an exception.  ``q0`` is checked once, by
    :func:`psdlinalg.check_symmetric` and a d x d shape test, and projected
    onto the PSD cone by :func:`fixed_point`; the loop validates nothing.
    """
    q0 = psdlinalg.check_symmetric(q0, name="q0")
    if q0.shape != (model.d, model.d):
        raise ValueError(f"q0 must be {model.d}x{model.d}, got {q0.shape}")
    rho = model.rho_bar()
    scale = psdlinalg.vech(np.sqrt(2.0) - (np.sqrt(2.0) - 1.0) * np.eye(model.d))

    def to_q(x):
        return psdlinalg.unvech(x / scale)

    def step(x):
        m = _mmse_core(model.prior, model.s + r_star(model, to_q(x)), quad)
        return scale * psdlinalg.vech(psdlinalg.project_psd(rho - m))

    def project(x):
        return scale * psdlinalg.vech(psdlinalg.project_psd(to_q(x)))

    x, residual, iterations, converged, radius = fixed_point(
        step, scale * psdlinalg.vech(q0), settings, project)
    q = to_q(x)
    return FixedPointResult(
        q_star=q,
        r_star=r_star(model, q),
        f_value=potential_at_stationary_q(model, q, quad),
        residual=residual,
        iterations=iterations,
        init_label=init_label,
        converged=converged,
        stability_radius=radius,
    )


def _branches(model, settings, quad, warm_q=None):
    """The fixed-point branches that every selection in this module reads.

    Runs ``se_iterate`` from each init (uninformative, informative, then
    ``warm_q`` as ``warm-start`` if given) and keeps the converged runs, or
    every run if none converged.  Runs whose q* lie within
    ``DEGENERACY_Q_TOL`` of each other are one branch, represented by its run
    with the smallest residual, so distinct branches are more than
    ``DEGENERACY_Q_TOL`` apart.  A branch's ``init_label`` joins with ``+``,
    in init order, every start that close.
    """
    rho = model.rho_bar()
    inits = (("uninformative", UNINFORMATIVE_SCALE * rho), ("informative", rho),
             ("warm-start", warm_q))
    runs = [se_iterate(model, q0, settings, quad, label) for label, q0 in inits if q0 is not None]
    runs = [r for r in runs if r.converged] or runs
    branches = []
    for run in sorted(runs, key=lambda r: r.residual):
        if all(psdlinalg.frobenius(run.q_star - b.q_star) > DEGENERACY_Q_TOL for b in branches):
            branches.append(run)
    return [replace(b, init_label="+".join(r.init_label for r in runs if psdlinalg.frobenius(
        r.q_star - b.q_star) <= DEGENERACY_Q_TOL)) for b in branches]


def solve_f(model, settings=None, quad=None, warm_q=None):
    """Single-letter value: the branch with the smallest potential value.

    ``warm_q``, if given, is a third start (see :func:`_branches`).  Where
    several inits reach the same fixed point, ``init_label`` names them all
    and ``iterations`` is that of the run with the smallest residual;
    ``converged`` is False only if no run converged.
    """
    return min(_branches(model, settings, quad, warm_q), key=lambda b: b.f_value)


def solve_infsup(model, settings=None, quad=None):
    """inf over the branches' r = r*(q*) of sup over PSD q of the potential.

    Under the positive-coupling hypothesis q -> I(r, q) is concave with
    gradient (r - r*(q))/2, which vanishes at q = q*, so the sup is attained
    at q* and each branch scores the full three-term potential(model, r*,
    q*).  The result is the lowest-scoring branch with its own SE
    ``iterations``, ``residual`` and ``converged``, labelled
    ``infsup:<init>``.  Without the hypothesis this routine refuses.
    """
    report = check_hypothesis(model)
    if not report.holds:
        raise ValueError(
            "positive-coupling hypothesis violated "
            f"(min eigenvalue {report.min_eigenvalue:.3e}): the inner sup over q "
            "is not concave, refusing the inf-sup route")
    scored = [(potential(model, b.r_star, b.q_star, quad).value, b)
              for b in _branches(model, settings, quad)]
    value, best = min(scored, key=lambda vb: vb[0])
    return replace(best, f_value=value, init_label=f"infsup:{best.init_label}")


@dataclass(frozen=True)
class MmsePrediction:
    mmse: np.ndarray
    grad_f: np.ndarray
    consistency_gap: float
    f_value: float
    q_star: np.ndarray
    degenerate: bool = False
    mmse_bounds: tuple = ()


def _symmetric_fd_gradient(model, settings, quad, q_star):
    """Central finite differences of S -> f(S) along the branch through ``q_star``.

    Each f(S +- hE) is one ``se_iterate`` from ``q_star``; it leaves the
    branch only if a spinodal lies within h of S, and the jump then shows up
    as a large ``consistency_gap``.  Off-diagonal entries are perturbed
    jointly at (k, l) and (l, k), i.e. over the symmetric cone; entry steps
    scale with the entry magnitude and are capped so S stays positive definite.
    """
    d = model.d
    s0 = model.s
    min_eig = float(np.linalg.eigvalsh(s0).min())
    grad = np.zeros((d, d))

    def f_at(s_pert):
        return se_iterate(model.with_s(s_pert), q_star, settings, quad).f_value

    for k in range(d):
        for l in range(k, d):
            h = min(FINITE_DIFF_STEP * (1.0 + abs(s0[k, l])), 0.25 * min_eig)
            E = np.zeros((d, d))
            E[k, l] = E[l, k] = 1.0
            df = f_at(s0 + h * E) - f_at(s0 - h * E)
            grad[k, l] = grad[l, k] = df / ((2.0 if k == l else 4.0) * h)
    return grad


def predict_mmse(model, settings=None, quad=None, allow_singular=False):
    """Asymptotic MMSE matrix M_S(r*(q*)) with a gradient-consistency check.

    Requires S's least eigenvalue above the cone test's tolerance
    ``DEFAULT_PSD_TOL * max(1, |S|_2)`` (f is differentiable there when the
    optimum is unique).  ``consistency_gap`` is the Frobenius distance
    between half the MMSE matrix and the finite-difference gradient of f
    along the best branch (see :func:`_symmetric_fd_gradient`); a near-tie
    between fixed points is flagged as ``degenerate`` and the per-branch
    MMSE matrices, the winner's first, are reported as subdifferential bounds.
    """
    eigs = np.linalg.eigvalsh(model.s)
    if eigs.min() <= psdlinalg.DEFAULT_PSD_TOL * max(1.0, np.abs(eigs).max()):
        if not allow_singular:
            raise ValueError("predict_mmse requires S strictly positive definite; "
                             "pass allow_singular=True to regularize")
        shift = 1e-8 - min(eigs.min(), 0.0)     # least eigenvalue at least 1e-8
        warnings.warn(f"singular S regularized by {shift:.3g} I for the MMSE prediction; "
                      "the limit theorem assumes S positive definite", RuntimeWarning)
        model = model.with_s(model.s + shift * np.eye(model.d))
    branches = _branches(model, settings, quad)
    best = min(branches, key=lambda b: b.f_value)
    ties = [b for b in branches
            if b is not best and abs(b.f_value - best.f_value) <= DEGENERACY_VALUE_TOL]
    degenerate = bool(ties)
    mmse = _mmse_core(model.prior, model.s + best.r_star, quad)
    bounds = ()
    if degenerate:
        warnings.warn("optimum is numerically non-unique: reporting per-branch "
                      "MMSE matrices as subdifferential bounds", RuntimeWarning)
        bounds = (mmse, *(_mmse_core(model.prior, model.s + r.r_star, quad) for r in ties))
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


def sweep(model, path, grid, settings=None, quad=None):
    """Solve along a parameter path; rows ordered by the grid, deterministic.

    The last converged point's q* is :func:`solve_f`'s ``warm_q`` (hysteresis
    tracking near first-order transitions), which makes the sweep sequential
    by contract.  A failing point yields an unconverged row and the sweep
    continues.  A row's ``branch`` is :func:`solve_f`'s label.  A path that
    names no entry of ``model`` raises ValueError before any point is solved.
    """
    path.check(model)
    rows = []
    warm_q = None
    for value in grid:
        try:
            m = path.apply(model, float(value))
            res = solve_f(m, settings, quad, warm_q)
            mmse = _mmse_core(m.prior, m.s + res.r_star, quad)
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
