"""Command-line front end: config parsing, subcommand dispatch, serialization.

Artifacts are JSON (results) and CSV (sweep tables); matrices are row-major
nested lists and every float is rendered with 17 significant digits, which
round-trips 64-bit reals exactly.  Identical inputs and seed produce
byte-identical outputs.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import oracle, priors, rotinv, solver
from .potential import ModelSpec, check_hypothesis, potential
from .quadrature import MAX_NODES, MONTE_CARLO, default_scheme, gauss_hermite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2

MAX_GRID_POINTS = 10_000     # each sweep point is a full solve


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    out = format(x, ".17g")
    # keep float-ness through a parse round trip ("2" -> "2.0")
    if not any(ch in out for ch in ".eE"):
        out += ".0"
    return out


def to_json_text(obj, indent=0):
    """Minimal JSON emitter with fixed float formatting and sorted keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {to_json_text(obj[k], indent + 1)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        inner = [to_json_text(v, indent + 1) for v in obj]
        if flat:
            return "[" + ", ".join(inner) + "]"
        return "[\n" + ",\n".join(f"{pad}  {v}" for v in inner) + f"\n{pad}]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return to_json_text(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix(m):
    return np.asarray(m, dtype=np.float64).tolist()


# ---------------------------------------------------------------------------
# model parsing with field-path diagnostics
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _need(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"missing field '{_join(path, key)}'")
    return doc[key]


def _join(path, key):
    return f"{path}.{key}" if path else key


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _as_float_array(value, path, shape=None):
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: an int past 1e308
        raise ConfigError(f"field '{path}' is not a numeric array: {exc}") from None
    # numpy reads true as 1.0 and "2" as 2.0, also inside a list of numbers;
    # walked once the array is regular, so at most 64 lists deep
    for leaf in _leaves(value):
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ConfigError(f"field '{path}' holds {json.dumps(leaf)}, not a number")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field '{path}' contains non-finite entries")
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"field '{path}' must have shape {shape}, got {arr.shape}")
    return arr


def _parse_prior(doc, path):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ConfigError(f"field '{path}' must hold exactly one of 'discrete'/'gaussian'")
    if "discrete" in doc:
        sub = doc["discrete"]
        atoms = _as_float_array(_need(sub, "atoms", _join(path, "discrete")),
                                _join(path, "discrete.atoms"))
        weights = _as_float_array(_need(sub, "weights", _join(path, "discrete")),
                                  _join(path, "discrete.weights"))
        try:
            return priors.discrete(atoms, weights)
        except ValueError as exc:
            raise ConfigError(f"field '{_join(path, 'discrete.weights')}': {exc}") from None
    if "gaussian" in doc:
        sub = doc["gaussian"]
        cov = _as_float_array(_need(sub, "cov", _join(path, "gaussian")),
                              _join(path, "gaussian.cov"))
        try:
            return priors.gaussian(cov)
        except ValueError as exc:
            raise ConfigError(f"field '{_join(path, 'gaussian.cov')}': {exc}") from None
    raise ConfigError(f"field '{path}' must hold 'discrete' or 'gaussian'")


def parse_model(text):
    """Parse and validate a multiview model document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    d = _need(doc, "d", "")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:   # JSON true is a bool
        raise ConfigError("field 'd' must be a positive integer")
    couplings_doc = _need(doc, "couplings", "")
    if not isinstance(couplings_doc, list):
        raise ConfigError("field 'couplings' must be a list of d x d matrices")
    couplings = tuple(_as_float_array(b, f"couplings[{i}]", (d, d))
                      for i, b in enumerate(couplings_doc))
    s = _as_float_array(_need(doc, "s", ""), "s", (d, d))
    prior = _parse_prior(_need(doc, "prior", ""), "prior")
    if prior.dim != d:
        raise ConfigError(f"field 'prior': dimension {prior.dim} != d = {d}")
    try:
        # every other field is checked above: ModelSpec's only objection left is to s
        return ModelSpec(d, couplings, s, prior)
    except ValueError as exc:
        raise ConfigError(f"field 's': {exc}") from None


def parse_rotinv_model(text):
    """Parse a rotationally-invariant estimation document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    alpha = _need(doc, "alpha", "")
    lam = _need(doc, "lambda", "")
    for key, value in (("alpha", alpha), ("lambda", lam)):
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not 0 < value < math.inf):
            raise ConfigError(f"field '{key}' must be a finite positive number")
    prior = _parse_prior(_need(doc, "prior", ""), "prior")
    tau_doc = _need(doc, "tau", "")
    atoms = _as_float_array(_need(tau_doc, "atoms", "tau"), "tau.atoms")
    weights = _as_float_array(_need(tau_doc, "weights", "tau"), "tau.weights")
    try:
        tau = rotinv.SpectralDistribution(atoms, weights)
    except ValueError as exc:
        raise ConfigError(f"field 'tau': {exc}") from None
    try:
        # alpha and lambda are checked above: RotInvModel's only objection left is to the prior
        return rotinv.RotInvModel(float(alpha), float(lam), prior, tau)
    except ValueError as exc:
        raise ConfigError(f"field 'prior': {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _quad_for(args, dim):
    if args.quad_nodes is not None:
        quad = gauss_hermite(args.quad_nodes)
    else:
        quad = default_scheme(dim, seed=args.seed)
        if quad.kind == MONTE_CARLO and args.mc_samples is not None:
            quad = replace(quad, sample_count=args.mc_samples)
    count = quad.node_count(dim)
    if count > MAX_NODES:
        raise ConfigError(f"quadrature too large: {quad.kind} with {count} nodes at d = {dim} "
                          f"> {MAX_NODES}")
    return quad


def _settings(args):
    return solver.SolveSettings(damping=args.damping, tol=args.tol,
                                max_iters=args.max_iters)


def _load_model(args, parse=parse_model):
    with open(args.model, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _fixed_point_doc(res):
    return {
        "f": res.f_value,
        "q_star": _matrix(res.q_star),
        "r_star": _matrix(res.r_star),
        "residual": res.residual,
        "iterations": res.iterations,
        "branch": res.init_label,
        "converged": bool(res.converged),
        "stability_radius": res.stability_radius,
    }


def _cmd_check_hypothesis(args):
    return asdict(check_hypothesis(_load_model(args))), EXIT_OK


def _cmd_potential(args):
    model = _load_model(args)
    r = _as_float_array(json.loads(args.r), "--r", (model.d, model.d))
    q = _as_float_array(json.loads(args.q), "--q", (model.d, model.d))
    return asdict(potential(model, r, q, _quad_for(args, model.d))), EXIT_OK


def _cmd_solve(args):
    model = _load_model(args)
    res = solver.solve_f(model, _settings(args), _quad_for(args, model.d))
    return _fixed_point_doc(res), EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_infsup(args):
    model = _load_model(args)
    res = solver.solve_infsup(model, _settings(args), _quad_for(args, model.d))
    return _fixed_point_doc(res), EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_mmse(args):
    model = _load_model(args)
    pred = solver.predict_mmse(model, _settings(args), _quad_for(args, model.d),
                               allow_singular=args.force_singular)
    doc = {
        "mmse": _matrix(pred.mmse),
        "grad_f": _matrix(pred.grad_f),
        "consistency_gap": pred.consistency_gap,
        "f": pred.f_value,
        "q_star": _matrix(pred.q_star),
        "degenerate": pred.degenerate,
        "mmse_bounds": [_matrix(b) for b in pred.mmse_bounds],
    }
    return doc, EXIT_OK


def _parse_path(text):
    kind, _, rest = text.partition(":")
    if kind == "coupling":
        return solver.SweepPath("coupling", index=int(rest))
    if kind == "s":
        k, _, l = rest.partition(",")
        return solver.SweepPath("s-entry", entry=(int(k), int(l)))
    raise ConfigError(f"--path must be 'coupling:IDX' or 's:K,L', got {text!r}")


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid range form is START:STOP:STEP")
        start, stop, step = map(float, parts)
        if not all(map(math.isfinite, (start, stop, step))) or step == 0.0:
            raise ConfigError("--grid START:STOP:STEP needs finite values and a nonzero STEP")
        span = (stop - start) / step          # inf when STEP is tiny against the range
        if not span <= MAX_GRID_POINTS - 1:
            raise ConfigError(f"--grid range has more than {MAX_GRID_POINTS} points")
        count = int(round(span)) + 1
        if count < 1:
            raise ConfigError("--grid range is empty")
        return [start + i * step for i in range(count)]
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError("--grid list form v1,v2,... needs one or more finite values")
    return values


def _cmd_sweep(args):
    model = _load_model(args)
    path = _parse_path(args.path)
    grid = _parse_grid(args.grid)
    rows = solver.sweep(model, path, grid, _settings(args), _quad_for(args, model.d))
    lines = ["param,f,q_trace,r_trace,mmse_trace,converged,branch"]
    for row in rows:
        lines.append(",".join([
            _fmt_float(row.param), _fmt_float(row.f_value), _fmt_float(row.q_trace),
            _fmt_float(row.r_trace), _fmt_float(row.mmse_trace),
            "true" if row.converged else "false", row.branch,
        ]))
    text = "\n".join(lines) + "\n"
    code = EXIT_OK if all(r.converged for r in rows) else EXIT_NOCONV
    return text, code


def _cmd_oracle(args):
    model = _load_model(args)
    samples = 2000 if args.mc_samples is None else args.mc_samples
    res = oracle.replica_average(model, args.n, samples, args.seed)
    return {"n": args.n, **asdict(res)}, EXIT_OK


def _cmd_rotinv_solve(args):
    model = _load_model(args, parse_rotinv_model)
    return asdict(rotinv.solve_rotinv(model, _quad_for(args, 1))), EXIT_OK


def _cmd_rotinv_spectrum(args):
    sd = rotinv.empirical_spectrum(args.factors, args.n, args.alpha, seed=args.seed)
    return {**asdict(sd), "mean": sd.mean(), "second_moment": sd.moment(2)}, EXIT_OK


_COMMANDS = {
    "check-hypothesis": _cmd_check_hypothesis,
    "potential": _cmd_potential,
    "solve": _cmd_solve,
    "infsup": _cmd_infsup,
    "mmse": _cmd_mmse,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "rotinv-solve": _cmd_rotinv_solve,
    "rotinv-spectrum": _cmd_rotinv_spectrum,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a usage error is an input error: exit 1, not 2
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="rslimits",
        description="Replica-symmetric limits of multiview spiked matrix models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:         # each shared flag only on the commands that read it
        p = sub.add_parser(name)
        solves = name in ("solve", "infsup", "mmse", "sweep")
        quadrature = solves or name in ("potential", "rotinv-solve")
        if name != "rotinv-spectrum":
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", help="output artifact path (default: stdout)")
        if name != "check-hypothesis":
            p.add_argument("--seed", type=int, default=0)
        if solves:
            p.add_argument("--damping", type=float, default=solver.SolveSettings.damping)
            p.add_argument("--tol", type=float, default=solver.SolveSettings.tol)
            p.add_argument("--max-iters", type=int, default=solver.SolveSettings.max_iters)
        if quadrature:
            p.add_argument("--quad-nodes", type=int,
                           help="Gauss-Hermite nodes per dimension (default: by policy)")
        if quadrature or name == "oracle":
            p.add_argument("--mc-samples", type=int,
                           help="Monte Carlo samples (quadrature d>=4, oracle replicas)")
        if name == "potential":
            p.add_argument("--r", required=True, help="inline JSON d x d matrix")
            p.add_argument("--q", required=True, help="inline JSON d x d matrix")
        if name == "mmse":
            p.add_argument("--force-singular", action="store_true",
                           help="regularize a singular S instead of refusing")
        if name == "sweep":
            p.add_argument("--path", required=True, help="'coupling:IDX' or 's:K,L'")
            p.add_argument("--grid", required=True, help="START:STOP:STEP or v1,v2,...")
        if name == "oracle":
            p.add_argument("--n", type=int, required=True, help="instance rows")
        if name == "rotinv-spectrum":
            p.add_argument("--factors", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--alpha", type=float, required=True)
    return parser


_parser = functools.cache(build_parser)   # built once per process; parsing leaves it as is


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
        for flag in ("quad_nodes", "mc_samples"):
            count = getattr(args, flag, None)
            if count is not None and count < 1:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {count}")
        result, code = _COMMANDS[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    text = result if isinstance(result, str) else to_json_text(result) + "\n"
    _write(text, args.out)
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
