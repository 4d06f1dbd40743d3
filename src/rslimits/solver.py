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
Frobenius norm, projected onto the PSD cone).  It runs
Anderson acceleration (type II, window ``ANDERSON_WINDOW``, mixing
``SolveSettings.damping``; Walker & Ni 2011) and falls back to the damped
step q <- (1-beta) q + beta T(q) when an accelerated run stalls.
Acceleration is a root finder: it converges to unstable fixed points as
readily as to stable ones (from the uninformative start it lands on q = 0,
which the damped iteration escapes).  So every returned point carries a
stability certificate, the spectral radius of the damped map's Jacobian by
forward differences (unstable above 1 + 2 sqrt(tol), the error bound of that
difference), and an unstable point is left along its unstable direction
before the run goes on, within the same ``max_iters`` budget.  Each step
off it may double the distance travelled, so leaving takes O(log distance)
map calls where damped steps take O(log distance / log radius).  The
selection rule therefore compares the stable fixed points the damped
iteration converges to; where several coexist, which one a start reaches can
differ from the damped iteration's, and the test suite checks the selected
value against damped state evolution through a first-order transition.

Every selection reads one list of branches (:func:`_branches`): the runs
from all inits, merged where their q* agree within ``DEGENERACY_Q_TOL``.
``solve_f`` takes the least f, ``predict_mmse`` its best branch and the
branches that tie with it in value, ``sweep`` goes through ``solve_f``.
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
from .channel import _mmse_core, mmse_matrix
from .potential import check_hypothesis, potential, potential_at_stationary_q, r_star

UNINFORMATIVE_SCALE = 1e-3   # strict zero can be a symmetry-pinned fixed point
DEGENERACY_VALUE_TOL = 1e-6
DEGENERACY_Q_TOL = 1e-5
FINITE_DIFF_STEP = 1e-4      # relative step of the S-gradient in predict_mmse
ANDERSON_WINDOW = 3          # past differences in each least-squares mix
STALL_STEPS = 5              # accelerated steps without a new best residual before damping


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
    """Certified fixed point of ``step``: Anderson-accelerated, damped fallback.

    ``step`` maps flat coordinates x to the undamped update T(x); ``project``
    maps any x to the nearest admissible point and is applied to ``x0``, to
    each extrapolated iterate and to each nudge (a damped step between
    admissible points stays admissible).  Returns ``(x, residual, iterations,
    converged, stability_radius)``.

    * Iteration: Anderson type II over the last ``ANDERSON_WINDOW``
      differences, mixing ``beta = settings.damping``; the run stops when
      the residual |T(x) - x| is at most ``settings.tol``.
    * Fallback: after ``STALL_STEPS`` accelerated steps with no new best
      residual, plain damped steps x <- x + beta (T(x) - x) until the
      residual falls below that best, then acceleration restarts with an
      empty history.
    * Certificate: at every returned point, the spectral radius of the
      damped map's Jacobian by forward differences with step h = sqrt(tol)
      (``x.size`` map calls, the last iteration's T(x) as base point).  The
      forward difference is off by O(h) and a base point within tol of the
      fixed point moves the quotient by O(tol / h), so a radius above
      1 + h + tol / h marks an unstable point.
    * Escape: off an unstable point u the run nudges x along the unstable
      eigenvector toward ``x0`` (by |x0 - x|, at least h), then takes escape
      steps x <- project(x + max(beta, |x - u| / |F(x)|) F(x)), F = T - x:
      the longer of the damped step and a step of length |x - u|, so the
      distance from u grows geometrically, at most doubling per map call
      unless the damped step is longer.  Escape ends
      at the first iteration where the residual falls or F turns back
      toward u (F . (x - u) <= 0); from there damped steps run until the
      residual falls, then acceleration resumes.  An accelerated iterate
      that lands closer to a known unstable point than half the current
      iterate's distance to it is replaced by the damped step, with the
      Anderson history cleared, so the secant cannot jump straight back.
      If the run comes back to a known unstable point (within h) anyway,
      it finishes with damped steps only, without escape steps.
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
    xs, fs = [], []                     # accelerated history
    accelerate = may_accelerate = True
    best, since_best, ceiling, unstable = np.inf, 0, np.inf, []
    escape = None                       # the unstable point being left
    for iterations in range(1, settings.max_iters + 1):
        g = step(x)
        last, f = (x, g), g - x
        residual = float(np.linalg.norm(f))
        if residual <= tol:
            radius, v = _stability(step, x, g, beta, h)
            if (radius <= 1.0 + margin or not may_accelerate
                    or iterations == settings.max_iters):
                return x, residual, iterations, True, radius
            if any(np.linalg.norm(x - u) <= h for u in unstable):
                may_accelerate = False
            unstable.append(x)
            escape = x if may_accelerate else None
            toward = start - x
            x = project(x + math.copysign(max(np.linalg.norm(toward), h), v @ toward) * v)
            accelerate, ceiling, prev = False, np.inf, residual
            continue
        if escape is not None and (residual < prev or f @ (x - escape) <= 0.0):
            escape = None
        if not accelerate:
            if may_accelerate and residual < min(prev, ceiling):
                accelerate, best, since_best, xs, fs = True, residual, 0, [], []
        elif residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
            if since_best >= STALL_STEPS:
                accelerate, ceiling = False, best
        prev = residual
        if escape is not None:
            x = project(x + max(beta, np.linalg.norm(x - escape) / residual) * f)
            continue
        if not accelerate:
            x = x + beta * f
            continue
        xs.append(x)
        fs.append(f)
        del xs[:-ANDERSON_WINDOW - 1], fs[:-ANDERSON_WINDOW - 1]
        x_next = x + beta * f
        if len(xs) > 1:
            dx, df = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
            gamma = np.linalg.lstsq(df, f, rcond=None)[0]
            x_next = x_next - (dx + beta * df) @ gamma
        x_next = project(x_next)
        if any(np.linalg.norm(x_next - u) < 0.5 * np.linalg.norm(x - u) for u in unstable):
            x_next, xs, fs = x + beta * f, [], []
        x = x_next
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
    evaluated iterate, not an exception.  ``q0`` is checked once, by its
    projection onto the PSD cone; the loop validates nothing.
    """
    rho = model.rho_bar()
    scale = psdlinalg.vech(np.sqrt(2.0) - (np.sqrt(2.0) - 1.0) * np.eye(model.d))

    def to_q(x):
        return psdlinalg.unvech(x / scale)

    def step(x):
        m = _mmse_core(model.prior, model.s + r_star(model, to_q(x)), quad)
        return scale * psdlinalg.vech(psdlinalg.project_psd(rho - m))

    def project(x):
        return scale * psdlinalg.vech(psdlinalg.project_psd(to_q(x)))

    q0 = psdlinalg.project_psd(np.asarray(q0, dtype=np.float64))
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


def _branches(model, settings, quad, extra_inits=()):
    """The fixed-point branches that every selection in this module reads.

    Runs ``se_iterate`` from each init (uninformative, informative, then
    ``extra_inits``) and keeps the converged runs, or every run if none
    converged.  Runs whose q* lie within ``DEGENERACY_Q_TOL`` of each other
    are one branch, represented by its run with the smallest residual, so
    distinct branches are more than ``DEGENERACY_Q_TOL`` apart.
    """
    rho = model.rho_bar()
    inits = (("uninformative", UNINFORMATIVE_SCALE * rho), ("informative", rho), *extra_inits)
    runs = [se_iterate(model, q0, settings, quad, init_label=label) for label, q0 in inits]
    branches = []
    for run in sorted([r for r in runs if r.converged] or runs, key=lambda r: r.residual):
        if all(psdlinalg.frobenius(run.q_star - b.q_star) > DEGENERACY_Q_TOL for b in branches):
            branches.append(run)
    return branches


def solve_f(model, settings=None, quad=None, extra_inits=()):
    """Single-letter value: the branch with the smallest potential value.

    Where several inits reach the same fixed point, ``init_label`` and
    ``iterations`` are those of the run with the smallest residual (see
    :func:`_branches`); ``converged`` is False only if no run converged.
    """
    return min(_branches(model, settings, quad, extra_inits), key=lambda b: b.f_value)


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
    scored = [(potential(model, b.r_star, b.q_star, quad, check_interval=False).value, b)
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
            h = FINITE_DIFF_STEP * (1.0 + abs(s0[k, l]))
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
    min_eig = float(np.linalg.eigvalsh(model.s).min())
    if min_eig <= 0.0:
        if not allow_singular:
            raise ValueError("predict_mmse requires S strictly positive definite; "
                             "pass allow_singular=True to regularize")
        warnings.warn("singular S regularized by 1e-8 I for the MMSE prediction; "
                      "the limit theorem assumes S positive definite", RuntimeWarning)
        model = model.with_s(model.s + 1e-8 * np.eye(model.d))
    branches = _branches(model, settings, quad)
    best = min(branches, key=lambda b: b.f_value)
    ties = [b for b in branches
            if b is not best and abs(b.f_value - best.f_value) <= DEGENERACY_VALUE_TOL]
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


def sweep(model, path, grid, settings=None, quad=None):
    """Solve along a parameter path; rows ordered by the grid, deterministic.

    The previous grid point's q* is reused as an extra init (hysteresis
    tracking near first-order transitions), which makes the sweep sequential
    by contract.  A failing point yields an unconverged row and the sweep
    continues.  A row's ``branch`` is the label :func:`solve_f` reports:
    where several inits reach the same q*, the run with the smallest
    residual.  A path that names no entry of ``model`` raises ValueError
    before any point is solved.
    """
    path.check(model)
    rows = []
    warm_q = None
    for value in grid:
        try:
            m = path.apply(model, float(value))
            extra = (("warm-start", warm_q),) if warm_q is not None else ()
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
