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

Gamma, unstable points included, is the root set of psi(E) = E - mmse(...)
on [0, rho], found by a piecewise Chebyshev proxy (:func:`scalar_roots`).
A point is ``stable`` where psi crosses upward (E <- mmse(...) contracts); a
near-double root is flagged ``converged=False`` and never selected.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import _mi_core, _mmse_core

PROXY_DEGREES = (8, 16, 32)   # nested Chebyshev-Lobatto degrees of one proxy piece
PROXY_TOL = 1e-6          # resolved: last three coefficients <= PROXY_TOL * sampled scale
MAX_SPLITS = 16           # proxy pieces are no narrower than (b - a) / 2**MAX_SPLITS
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
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):   # NaN fails
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
    stable: bool


def _se_map(model, e, quad):
    """mmse(X | sqrt(r) X + Z) at r = lam R(-E lam) >= 0."""
    r = model.lam * r_transform(model, e * model.lam)
    return float(_mmse_core(model.prior, np.array([[r]]), quad)[0, 0])


def _illinois(f, lo, hi, flo, fhi, width):
    """Root in a bracket (flo * fhi < 0) by Illinois regula falsi: the value at an end
    kept twice in a row is halved.  Stops at width ``width`` or |f| <= 1e-15."""
    kept = 0                        # -1: lo was kept last step, +1: hi was
    for _ in range(200):
        x = lo + (hi - lo) * flo / (flo - fhi)
        fx = f(x)
        if abs(fx) <= 1e-15:
            break
        if flo * fx < 0.0:          # root in [lo, x]: lo is kept
            hi, fhi, flo, kept = x, fx, flo * (0.5 if kept < 0 else 1.0), -1
        else:
            lo, flo, fhi, kept = x, fx, fhi * (0.5 if kept > 0 else 1.0), 1
        if hi - lo <= width:
            break
    return x, fx


def scalar_roots(psi, a, b):
    """Every root of a continuous scalar ``psi`` on [a, b]: (x, psi(x), crossing)
    sorted by x, crossing +1 where psi crosses zero upward, -1 downward.

    * Proxy: Chebyshev interpolants at nested Lobatto points (``PROXY_DEGREES``,
      each value computed once); a piece whose last three coefficients still
      exceed ``PROXY_TOL`` times the largest |psi| first sampled is halved,
      down to width (b - a) / 2**MAX_SPLITS, then RuntimeError.
    * Brackets: sign changes of psi over all samples, which include the
      midpoint of neighbouring proxy roots (imaginary part at most
      sqrt(PROXY_TOL)) no sample separates; each is refined by
      :func:`_illinois` on psi.
    * crossing 0, unrefined, with a RuntimeWarning: a proxy root where psi
      keeps its sign (a near-double root) and a sampled zero psi only touches.
    """
    from numpy.polynomial import chebyshev

    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    values = {}

    def f(x):
        return values[x] if x in values else values.setdefault(x, psi(x))

    pieces, roots, scale = [(a, b)], [], None
    while pieces:
        lo, hi = pieces.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for n in PROXY_DEGREES:
            t = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))   # 1 ... -1, exact 0 at n/2
            v = [f(x) for x in (hi, *(mid + half * t[1:-1]), lo)]
            scale = max(map(abs, v)) if scale is None else scale
            c = chebyshev.chebfit(t, v, n)
            if np.all(np.abs(c[-3:]) <= PROXY_TOL * scale):
                break
        else:
            if hi - lo <= (b - a) * 2.0 ** -MAX_SPLITS:
                raise RuntimeError(f"no Chebyshev proxy resolves psi on [{lo}, {hi}]")
            pieces += [(lo, mid), (mid, hi)]
            continue
        z = chebyshev.chebroots(chebyshev.chebtrim(c, PROXY_TOL * scale))
        roots.extend(mid + half * z.real[(abs(z.imag) <= PROXY_TOL ** 0.5) & (abs(z.real) <= 1)])

    roots, xs = np.sort(roots), np.array(sorted(values))
    for z0, z1 in zip(roots, roots[1:]):
        if not np.any((xs > z0) & (xs < z1)):
            f(0.5 * (z0 + z1))
    xs = np.array(sorted(values))
    s = np.sign([values[x] for x in xs])
    ends = np.concatenate([[-s[1]], s, [-s[-2]]])     # a missing neighbour mirrors the other
    out = [(xs[i], 0.0, int(np.sign(ends[i + 2] - ends[i]))) for i in np.flatnonzero(s == 0)]
    out += [(*_illinois(f, xs[i], xs[i + 1], values[xs[i]], values[xs[i + 1]],
                        1e-15 * max(1.0, abs(a), abs(b))), int(s[i + 1]))
            for i in np.flatnonzero(s[:-1] * s[1:] < 0)]
    at = np.clip(np.searchsorted(xs, roots), 1, len(xs) - 1)
    lone = {i: z for i, z in zip(at, roots) if s[i - 1] * s[i] > 0}   # sample interval -> root
    for i in sorted(lone):          # a pair across one sample is one root, at that sample
        if i - 1 in lone:
            lone[i - 1] = xs[i - 1]
            del lone[i]
    out += [(z, f(z), 0) for z in lone.values()]
    for x in [x for x, _, crossing in out if crossing == 0]:
        warnings.warn(f"near-double root of psi at {x:.6g}, not refined", RuntimeWarning)
    return sorted(out)


def state_evolution(model, quad=None):
    """Gamma, sorted by E: :func:`scalar_roots` of psi(E) = E - mmse(lam R(-E lam))
    on [0, rho]; a flagged near-double root has ``converged=False``."""
    return tuple(ScalarFixedPoint(e, model.lam * r_transform(model, e * model.lam), abs(psi_e),
                                  crossing != 0, crossing > 0)
                 for e, psi_e, crossing in scalar_roots(
                     lambda e: e - _se_map(model, e, quad), 0.0, model.rho()))


@dataclass(frozen=True)
class RotInvSolution:
    value: float
    e_star: float
    r_star: float
    fixed_points: tuple


def solve_rotinv(model, quad=None):
    """inf_r sup_E of the potential, evaluated over Gamma and the E-boundaries.

    The E-sections are strictly concave, so every Gamma member is an inner
    maximizer; the outer inf selects the smallest potential value among the
    converged ones (psi(0) <= 0 <= psi(rho): there is one).  The boundary
    sections E in {0, rho} are evaluated explicitly in case an extremizer is
    not interior.
    """
    gamma = state_evolution(model, quad)
    candidates = [(i_rs(model, p.e, p.r, quad), p.e, p.r) for p in gamma if p.converged]
    rho = model.rho()
    # boundary sections: at E = rho the inner sup of the r = 0 section, and the
    # E = 0 section whose sup over r is at r = 0 (value I(0) >= 0, never below
    # a Gamma value for centered priors but evaluated for safety)
    r0 = model.lam * r_transform(model, 0.0)
    candidates += [(i_rs(model, rho, 0.0, quad), rho, 0.0), (i_rs(model, 0.0, r0, quad), 0.0, r0)]
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
