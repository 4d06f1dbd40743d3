"""Plain damped state evolution: the reference for ``rslimits.solver.fixed_point``.

The loop is q <- (1 - beta) q + beta proj_psd(rho - M_S(r*(q))), stopped when
the Frobenius norm of the undamped update is at most ``tol``, with the two
cold starts of ``solver.solve_f``.  It has no acceleration and no stability
check; tests/test_solver.py compares the solver against it.
"""

from rslimits import psdlinalg
from rslimits.channel import _mmse_core
from rslimits.potential import potential_at_stationary_q, r_star
from rslimits.solver import UNINFORMATIVE_SCALE


def damped_se(model, q0, quad, beta=0.5, tol=1e-10, max_iters=10_000):
    """(q, converged) of the damped iteration from ``q0``."""
    rho = model.rho_bar()
    q = psdlinalg.project_psd(q0)
    for _ in range(max_iters):
        m = _mmse_core(model.prior, model.s + r_star(model, q), quad)
        target = psdlinalg.project_psd(rho - m)
        if psdlinalg.frobenius(target - q) <= tol:
            return q, True
        q = (1.0 - beta) * q + beta * target
    return q, False


def branches(model, quad):
    """[(f, q*, label)] of the cold starts whose damped iteration converged."""
    rho = model.rho_bar()
    out = []
    for label, q0 in (("uninformative", UNINFORMATIVE_SCALE * rho), ("informative", rho)):
        q, converged = damped_se(model, q0, quad)
        if converged:
            out.append((potential_at_stationary_q(model, q, quad), q, label))
    return out
