"""Replica formula for random linear estimation with rotationally invariant
measurement matrices.

The matrix ensemble enters only through the R-transform of the limiting
spectral law of R = (1/n) Phi^T Phi.  For ensembles Phi = Phi' W with W
i.i.d. Gaussian, the R-transform reduces to a weighted rational sum over the
spectral law tau of (1/n) Phi'^T Phi':

    R(-u) = alpha E_tau[X' / (1 + u X')],

whose antiderivative (the Shannon transform) is alpha E_tau[log(1 + a X')].
The scalar replica potential is

    i_RS(E, r) = I(X; sqrt(r) X + Z) + (1/2) int_0^{E lam} R(-z) dz - r E / 2

and the asymptotic mutual information per variable is
inf_{r>=0} sup_{E in [0, rho]} i_RS.  At fixed r the E-section is strictly
concave, so the inner sup is a monotone root-find; the outer inf runs over
the state-evolution fixed points

    Gamma = {(E, r): E = mmse(X | sqrt(r) X + Z), r = lam R(-E lam)}

plus the boundary sections E in {0, rho}.  With several fixed points the
inf-sup value is the smallest potential value over Gamma (a dense-grid
cross-check of this selection is part of the test suite).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import _mi_core, _mmse_core
from .solver import UNINFORMATIVE_SCALE, fixed_point

GAMMA_GRID_POINTS = 200   # coarse bracketing captures up to ~3 fixed points
MAX_GAUSSIAN_FACTORS = 5  # conditioning of longer products is not validated
_DESK_SCALE = 2000        # largest n and m = round(alpha n) of an empirical spectrum


@dataclass(frozen=True)
class SpectralDistribution:
    """Discrete eigenvalue law of the limiting spectrum of (1/n) Phi'^T Phi'."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if atoms.size != weights.size or atoms.size == 0:
            raise ValueError("atoms and weights must be equally sized and nonempty")
        if np.any(atoms < 0) or not np.all(np.isfinite(atoms)):
            raise ValueError("spectral atoms must be finite and nonnegative")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("spectral weights must be a probability vector")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def mean(self):
        return float(self.weights @ self.atoms)

    def moment(self, k):
        return float(self.weights @ self.atoms ** k)


def marchenko_pastur_unit():
    """tau = delta_1: the i.i.d.-Gaussian measurement case."""
    return SpectralDistribution(np.array([1.0]), np.array([1.0]))


@dataclass(frozen=True)
class RotInvModel:
    """Scalar linear estimation: aspect ratio, SNR, prior, spectral law."""

    alpha: float
    lam: float
    prior: object               # scalar Prior (d = 1)
    tau: SpectralDistribution

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("lambda", self.lam)):
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.prior.dim != 1:
            raise ValueError("the rotationally invariant module is scalar (d = 1)")

    def rho(self):
        return float(self.prior.second_moment()[0, 0])


def r_transform(model, u):
    """R(-u) = alpha * E_tau[X' / (1 + u X')] for u >= 0.

    Positive and strictly decreasing in u for nondegenerate tau.
    """
    if u < 0:
        raise ValueError("r_transform is evaluated at -u with u >= 0 only")
    t = model.tau
    return float(model.alpha * np.sum(t.weights * t.atoms / (1.0 + u * t.atoms)))


def integrated_r(model, a):
    """int_0^a R(-z) dz = alpha * E_tau[log(1 + a X')] (exact antiderivative)."""
    if a < 0:
        raise ValueError("integration endpoint must be nonnegative")
    t = model.tau
    return float(model.alpha * np.sum(t.weights * np.log1p(a * t.atoms)))


def i_rs(model, e, r, quad=None):
    """Replica-symmetric potential i_RS(E, r) in nats per signal entry."""
    rho = model.rho()
    if not (-1e-12 <= e <= rho * (1.0 + 1e-12)):
        raise ValueError(f"E = {e} outside [0, rho = {rho}]")
    if r < 0:
        raise ValueError("r must be nonnegative")
    e = min(max(e, 0.0), rho)
    mi = _mi_core(model.prior, np.array([[r]]), quad)
    return mi + 0.5 * integrated_r(model, e * model.lam) - 0.5 * r * e


@dataclass(frozen=True)
class ScalarFixedPoint:
    e: float
    r: float
    residual: float
    converged: bool
    origin: str


def _se_map(model, e, quad):
    """(mmse(X | sqrt(r) X + Z), r) at r = lam R(-E lam); r >= 0 by construction."""
    r = model.lam * r_transform(model, e * model.lam)
    return float(_mmse_core(model.prior, np.array([[r]]), quad)[0, 0]), r


def _se_run(model, e0, settings, quad, origin):
    """State evolution from ``e0`` on :func:`solver.fixed_point`, E clipped to [0, rho]."""
    rho = model.rho()
    e, residual, _, converged, _ = fixed_point(
        lambda x: np.array([_se_map(model, x[0], quad)[0]]), [e0], settings,
        lambda x: np.clip(x, 0.0, rho))
    e = float(e[0])
    r = model.lam * r_transform(model, e * model.lam)
    return ScalarFixedPoint(e, r, residual, converged, origin)


def _bracketed_roots(model, quad):
    """Sign-change bracketing of psi(E) = E - mmse(lam R(-E lam)) on a grid.

    Each bracket is refined by Illinois regula falsi: the root stays
    bracketed, and the value at an end kept twice in a row is halved, so both
    ends move.  The refinement stops at width 1e-15 max(1, rho) or at
    |psi| <= 1e-15.
    """
    rho = model.rho()
    width = 1e-15 * max(1.0, rho)
    grid = np.linspace(0.0, rho, GAMMA_GRID_POINTS + 1)
    psi = np.array([e - _se_map(model, e, quad)[0] for e in grid])
    out = []
    for i in range(len(grid) - 1):
        if psi[i] == 0.0:
            e = grid[i]
        elif psi[i] * psi[i + 1] < 0.0:
            lo, hi, flo, fhi, kept = grid[i], grid[i + 1], psi[i], psi[i + 1], None
            for _ in range(200):
                e = lo + (hi - lo) * flo / (flo - fhi)
                fe = e - _se_map(model, e, quad)[0]
                if abs(fe) <= 1e-15:
                    break
                if flo * fe < 0.0:          # root in [lo, e]: lo is kept
                    if kept == "lo":
                        flo *= 0.5
                    hi, fhi, kept = e, fe, "lo"
                else:
                    if kept == "hi":
                        fhi *= 0.5
                    lo, flo, kept = e, fe, "hi"
                if hi - lo <= width:
                    break
        else:
            continue
        m, r = _se_map(model, e, quad)
        out.append(ScalarFixedPoint(e, r, abs(m - e), True, "grid"))
    return out


def state_evolution(model, settings=None, quad=None):
    """The fixed-point set Gamma: grid bracketing plus two accelerated starts.

    Every returned pair satisfies both state-evolution equations within the
    solver tolerance; non-convergent starts are flagged, not raised.  Of the
    points within 1e-7 max(1, rho) in E the first is kept, grid roots (width
    1e-15) before the informative and uninformative starts; sorted by E.
    """
    rho = model.rho()
    points = [*_bracketed_roots(model, quad),
              _se_run(model, rho, settings, quad, "informative"),
              _se_run(model, UNINFORMATIVE_SCALE * rho, settings, quad, "uninformative")]
    unique = []
    for p in points:
        if not p.converged:
            warnings.warn(f"state-evolution start {p.origin!r} did not converge",
                          RuntimeWarning)
            continue
        if all(abs(p.e - u.e) > 1e-7 * max(1.0, rho) for u in unique):
            unique.append(p)
    return tuple(sorted(unique, key=lambda p: p.e))


@dataclass(frozen=True)
class RotInvSolution:
    value: float
    e_star: float
    r_star: float
    fixed_points: tuple


def solve_rotinv(model, settings=None, quad=None):
    """inf_r sup_E of the potential, evaluated over Gamma and the E-boundaries.

    The E-sections are strictly concave, so every Gamma member is an inner
    maximizer; the outer inf selects the smallest potential value among them.
    The boundary sections E in {0, rho} are evaluated explicitly in case an
    extremizer is not interior.
    """
    gamma = state_evolution(model, settings, quad)
    if not gamma:
        raise RuntimeError("empty fixed-point set; state evolution failed to converge")
    candidates = [(i_rs(model, p.e, p.r, quad), p.e, p.r) for p in gamma]
    rho = model.rho()
    # boundary sections: at E = rho the inner sup of the r = 0 section, and the
    # E = 0 section whose sup over r is at r = 0 (value I(0) >= 0, never below
    # a Gamma value for centered priors but evaluated for safety)
    candidates.append((i_rs(model, rho, 0.0, quad), rho, 0.0))
    candidates.append((i_rs(model, 0.0, model.lam * r_transform(model, 0.0), quad),
                       0.0, model.lam * r_transform(model, 0.0)))
    value, e_star, r_star = min(candidates, key=lambda c: c[0])
    return RotInvSolution(value=value, e_star=e_star, r_star=r_star, fixed_points=gamma)


def empirical_spectrum(num_factors, n, alpha, seed=0):
    """Sample tau from a product-of-Gaussians ensemble at finite n.

    Phi' is a product of ``num_factors`` independent m x m matrices with
    standard Gaussian entries (m = round(alpha n)), scaled by n^{(1-k)/2} so
    that (1/n) Phi'^T Phi' keeps an O(1) spectrum; num_factors = 0 is the
    identity ensemble (all atoms exactly 1, the i.i.d.-Gaussian measurement
    case).  Returns the exact eigenvalues with uniform weights.
    """
    if num_factors < 0 or num_factors > MAX_GAUSSIAN_FACTORS:
        raise ValueError(f"number of Gaussian factors must be in [0, {MAX_GAUSSIAN_FACTORS}]")
    if n < 1 or n > _DESK_SCALE:
        raise ValueError(f"n must be in [1, {_DESK_SCALE}] (desk scale)")
    if not 0.0 < alpha <= _DESK_SCALE:      # n >= 1: a larger alpha makes m too large
        raise ValueError(f"alpha must be in (0, {_DESK_SCALE}], got {alpha}")
    m = max(1, int(round(alpha * n)))
    if m > _DESK_SCALE:
        raise ValueError(f"m = round(alpha n) = {m} exceeds {_DESK_SCALE} (desk scale)")
    if num_factors == 0:
        return SpectralDistribution(np.ones(m), np.full(m, 1.0 / m))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    phi = np.eye(m)
    for _ in range(num_factors):
        phi = phi @ rng.standard_normal((m, m))
    phi *= float(n) ** ((1 - num_factors) / 2.0)
    t = phi.T @ phi / n
    eig = np.linalg.eigvalsh(0.5 * (t + t.T))
    eig = np.maximum(eig, 0.0)
    return SpectralDistribution(eig, np.full(m, 1.0 / m))
