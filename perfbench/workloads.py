"""The benchmark's four workloads: model documents, CLI jobs, references.

A workload is a fixed list of jobs.  A job is one ``rslimits`` subcommand
run in-process through ``rslimits.cli.run(argv)``; the benchmark adds
``--model``, ``--seed`` and ``--out``.  Every job carries the check its
artifact must pass, with the tolerance stated beside it.

Tolerances
----------
Every fixed-point job runs at the CLI defaults ``--tol 1e-10`` and
``--max-iters 10000``.  State evolution stops once the undamped update is
below ``SE_TOL``, so an iterate whose contraction factor is ``c`` lies within
``SE_TOL / (1 - c)`` of the fixed point.  ``FP_TOL`` covers every ``c`` up to
0.999.  At a critical point the residual is quadratic in the distance, so the
lambda = 1 sweep row gets ``CRIT_TOL = sqrt(SE_TOL)``.  Recorded values come
from ``references.json`` (see README.md for the commit and seed).
"""

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SE_TOL = 1e-10                        # the CLI default --tol
FP_TOL = SE_TOL / (1.0 - 0.999)       # fixed-point values: 1e-7
CRIT_TOL = math.sqrt(SE_TOL)          # q and r at lambda_c = 1: 1e-5
GRAD_TOL = 10 * SE_TOL / 1e-4         # finite-difference gradient, step 1e-4: 1e-5
C4_GAP = 1e-4                         # acceptance criterion C4 on the I-MMSE gap
EXACT_TOL = 1e-12                     # closed-form algebra or fixed quadrature, no iteration
ORACLE_TOL = 1e-10                    # seeded oracle at a recorded seed
ORACLE_SIGMAS = 6.0                   # seeded oracle at any other seed
# d=4 channel term at 2e5 Monte Carlo nodes vs the exact product anchor: six
# times the spread measured over seeds 0..9 (std 1.05e-3 at r = 0.5 I,
# 1.09e-3 at r = 1.5 I).
MC_TOL = 6.6e-3

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

RADEMACHER = {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}
GAUSSIAN_1 = {"gaussian": {"cov": [[1.0]]}}


def _rademacher(lam, s=0.0):
    """d=1 Rademacher model whose effective SNR is lam (coupling sqrt(lam/2))."""
    return {"d": 1, "couplings": [[[math.sqrt(lam / 2.0)]]], "s": [[s]], "prior": RADEMACHER}


def _diag(values):
    return [[values[i] if i == j else 0.0 for j in range(len(values))] for i in range(len(values))]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(name, got, want, tol, errors):
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{name}: shape differs from reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close(f"{name}[{i}]", g, w, tol, errors)
        return
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        errors.append(f"{name} = {got!r}, reference {want!r} +- {tol:g}")


def expect(doc, spec):
    """Errors of a JSON artifact against {field: (reference, tolerance)}."""
    errors = []
    for key, (want, tol) in spec.items():
        _close(key, doc.get(key), want, tol, errors)
    return errors


def check_fixed_point(ref, tol=FP_TOL):
    def check(text, seed):
        doc = json.loads(text)
        errors = [] if doc["converged"] is True else ["not converged"]
        return errors + expect(doc, {k: (ref[k], tol) for k in ("f", "q_star", "r_star")})
    return check


def check_mmse(ref):
    def check(text, seed):
        doc = json.loads(text)
        errors = expect(doc, {"f": (ref["f"], FP_TOL), "q_star": (ref["q_star"], FP_TOL),
                              "mmse": (ref["mmse"], FP_TOL), "grad_f": (ref["grad_f"], GRAD_TOL)})
        if not doc["consistency_gap"] <= C4_GAP:
            errors.append(f"consistency_gap {doc['consistency_gap']!r} > {C4_GAP:g}")
        if doc["degenerate"] is not False:
            errors.append("optimum flagged degenerate")
        return errors
    return check


def check_rotinv(ref, tol=FP_TOL):
    def check(text, seed):
        return expect(json.loads(text), {k: (ref[k], tol) for k in ("value", "e_star", "r_star")})
    return check


def check_sweep(ref_rows, crit_param):
    """CSV rows against recorded rows; the critical row gets CRIT_TOL on q and r."""
    def check(text, seed):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(ref_rows):
            return [f"{len(rows)} sweep rows, reference {len(ref_rows)}"]
        errors = []
        for row, ref in zip(rows, ref_rows):
            p = float(row["param"])
            if p != ref["param"]:
                errors.append(f"row param {p!r}, reference {ref['param']!r}")
                continue
            if row["converged"] != "true":
                errors.append(f"row {p!r} not converged")
            tol = CRIT_TOL if p == crit_param else FP_TOL
            spec = {"f": (ref["f"], FP_TOL), "q_trace": (ref["q_trace"], tol),
                    "r_trace": (ref["r_trace"], tol), "mmse_trace": (ref["mmse_trace"], tol)}
            errors += expect({k: float(row[k]) for k in spec}, spec)
        return errors
    return check


def check_oracle(refs, n, samples):
    """Tight at a recorded seed; at any other seed, the finite-n MI within
    ORACLE_SIGMAS joint standard errors of the recorded estimate and the
    Nishimori residual within ORACLE_SIGMAS of its standard error."""
    def check(text, seed):
        doc = json.loads(text)
        errors = []
        if doc["n"] != n or doc["samples"] != samples:
            errors.append(f"n/samples {doc['n']}/{doc['samples']}, asked {n}/{samples}")
        ref = refs.get(str(seed))
        if ref is not None:
            return errors + expect(doc, {k: (v, ORACLE_TOL) for k, v in ref.items()})
        base = refs[str(DEFAULT_SEED)]
        sigma = math.hypot(doc["mi_std_err"], base["mi_std_err"])
        if not abs(doc["mi_per_row"] - base["mi_per_row"]) <= ORACLE_SIGMAS * sigma:
            errors.append(f"mi_per_row {doc['mi_per_row']!r} vs {base['mi_per_row']!r}: "
                          f"more than {ORACLE_SIGMAS:g} sigma = {sigma:.3g} apart")
        if not doc["nishimori_residual"] <= ORACLE_SIGMAS * doc["nishimori_std_err"]:
            errors.append(f"nishimori_residual {doc['nishimori_residual']!r} above "
                          f"{ORACLE_SIGMAS:g} x std_err {doc['nishimori_std_err']!r}")
        return errors
    return check


def check_potential(channel, linear, quartic, channel_tol):
    def check(text, seed):
        return expect(json.loads(text), {
            "channel_term": (channel, channel_tol),
            "linear_term": (linear, EXACT_TOL),
            "quartic_term": (quartic, EXACT_TOL),
            "value": (channel + linear + quartic, channel_tol),
        })
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    name: str
    command: str
    model: str                 # key into Workload.models
    check: object              # (artifact text, seed) -> list of error strings
    args: tuple = ()

    def argv(self, model_path, seed, out_path):
        return [self.command, "--model", str(model_path), "--seed", str(seed),
                "--out", str(out_path), *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    models: dict               # name -> model document
    jobs: tuple
    mc_samples: dict = field(default_factory=dict)   # model -> --mc-samples of its quadrature

    def is_rotinv(self, model_name):
        return "alpha" in self.models[model_name]

    def quadrature(self, model_name):
        """The quadrature the CLI builds for this model: (kind, size, dim) or None."""
        doc = self.models[model_name]
        if self.is_rotinv(model_name):       # rotinv-solve: GH-63 on a scalar channel
            return ("gauss-hermite", 63, 1)
        if all(job.command == "oracle" for job in self.jobs if job.model == model_name):
            return None                      # exact enumeration, no quadrature
        d = doc["d"]
        if d >= 4:
            return ("monte-carlo", self.mc_samples.get(model_name, 1_000_000), d)
        return ("gauss-hermite", 63 if d <= 2 else 21, d)


DEFAULT_SEED = 7

# --- scalar-transition ------------------------------------------------------

SWEEP_LAMBDAS = [round(0.5 + 0.05 * i, 10) for i in range(31)]    # the C2 grid
SWEEP_GRID = [math.sqrt(lam / 2.0) for lam in SWEEP_LAMBDAS]     # coupling multipliers
SOLVE_LAMBDAS = (0.5, 0.9, 0.95, 1.05, 1.1, 1.5, 2.0)
# single potential evaluations on the lambda=2 model: each is CLI parsing plus
# one channel call, so the median job of this workload is a small solve
POTENTIAL_POINTS = ((0.5, 0.25), (1.0, 0.5), (1.5, 0.75), (2.0, 0.9))
WIGNER_F = math.log(2.0) / 2.0 + 0.125                           # C1 analytic anchor
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0                            # C8 analytic anchor
GOLDEN_VALUE = 0.2902288194345509

_scalar_models = {"rademacher-b1": {"d": 1, "couplings": [[[1.0]]], "s": [[0.0]],
                                    "prior": RADEMACHER},
                  "wigner-gaussian": {"d": 1, "couplings": [[[1.0]]], "s": [[0.0]],
                                      "prior": GAUSSIAN_1},
                  "rotinv-gaussian-delta1": {"alpha": 1.0, "lambda": 1.0, "prior": GAUSSIAN_1,
                                             "tau": {"atoms": [1.0], "weights": [1.0]}},
                  "rotinv-rademacher-tau3": {"alpha": 1.0, "lambda": 1.0, "prior": RADEMACHER,
                                             "tau": {"atoms": [0.2, 1.0, 3.0],
                                                     "weights": [0.3, 0.4, 0.3]}}}
_scalar_models.update({f"rademacher-lam{lam}": _rademacher(lam) for lam in SOLVE_LAMBDAS})

SCALAR_TRANSITION = Workload(
    name="scalar-transition",
    models=_scalar_models,
    jobs=(
        Job("sweep-c2", "sweep", "rademacher-b1",
            check_sweep(REFERENCES["sweep-c2"], crit_param=math.sqrt(0.5)),
            ("--path", "coupling:0", "--grid", ",".join(repr(v) for v in SWEEP_GRID))),
        *(Job(f"solve-lam{lam}", "solve", f"rademacher-lam{lam}",
              check_fixed_point(REFERENCES[f"solve-lam{lam}"])) for lam in SOLVE_LAMBDAS),
        *(Job(f"potential-d1-r{r}", "potential", "rademacher-b1",
              check_potential(**REFERENCES[f"potential-d1-r{r}"], channel_tol=EXACT_TOL),
              ("--r", json.dumps([[r]]), "--q", json.dumps([[q]])))
          for r, q in POTENTIAL_POINTS),
        Job("solve-c1", "solve", "wigner-gaussian",
            check_fixed_point({"f": WIGNER_F, "q_star": [[0.5]], "r_star": [[1.0]]})),
        Job("rotinv-c8", "rotinv-solve", "rotinv-gaussian-delta1",
            check_rotinv({"value": GOLDEN_VALUE, "e_star": GOLDEN, "r_star": GOLDEN})),
        Job("rotinv-tau3", "rotinv-solve", "rotinv-rademacher-tau3",
            check_rotinv(REFERENCES["rotinv-tau3"])),
    ),
)

# --- multiview-kernel -------------------------------------------------------

_multiview_models = {
    # the C4 one-coupling model: coupling 0.6 I, discrete K=4 prior, GH-63^2
    "c4-d2": {"d": 2, "couplings": [_diag([0.6, 0.6])],
              "s": [[0.47, -0.15], [-0.15, 0.45]],
              "prior": {"discrete": {"atoms": [[0.9, 0.9], [0.05, -0.65], [-1.35, -0.35],
                                               [-0.25, -1.35]],
                                     "weights": [0.1, 0.4, 0.3, 0.2]}}},
    # a hypothesis-true two-coupling model drawn as in C3
    "c3-d2": {"d": 2, "couplings": [[[0.5, 0.2], [-0.65, 0.55]], [[-1.65, -0.1], [-0.2, -1.15]]],
              "s": [[0.17, 0.05], [0.05, 0.12]],
              "prior": {"discrete": {"atoms": [[0.3, -1.25], [-0.8, -0.15], [-0.15, -1.4],
                                               [1.35, -0.8]],
                                     "weights": [0.3, 0.2, 0.3, 0.2]}}},
    # d=3, K=4, GH-21^3 = 9261 nodes
    "d3": {"d": 3, "couplings": [[[0.7, 0.1, 0.0], [0.1, 0.6, 0.1], [0.0, 0.1, 0.5]]],
           "s": _diag([0.8, 0.8, 0.8]),
           "prior": {"discrete": {"atoms": [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [-1.0, 0.0, 1.0],
                                            [0.0, -1.0, -1.0]],
                                  "weights": [0.25, 0.25, 0.25, 0.25]}}},
}

MULTIVIEW_KERNEL = Workload(
    name="multiview-kernel",
    models=_multiview_models,
    jobs=(
        Job("mmse-c4", "mmse", "c4-d2", check_mmse(REFERENCES["mmse-c4"])),
        Job("infsup-c3", "infsup", "c3-d2", check_fixed_point(REFERENCES["infsup-c3"])),
        Job("solve-d3", "solve", "d3", check_fixed_point(REFERENCES["solve-d3"])),
    ),
)

# --- oracle-enum ------------------------------------------------------------

ORACLE_SAMPLES = 300
_oracle_jobs = [("c6", n) for n in (6, 8, 10, 12)] + [("d2k4", 6)]

ORACLE_ENUM = Workload(
    name="oracle-enum",
    models={"c6": _rademacher(2.0, s=0.2),
            "d2k4": {"d": 2, "couplings": [_diag([0.5, 0.5])], "s": _diag([0.3, 0.3]),
                     "prior": {"discrete": {"atoms": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                                                      [-1.0, -1.0]],
                                            "weights": [0.25, 0.25, 0.25, 0.25]}}}},
    jobs=tuple(Job(f"oracle-{m}-n{n}", "oracle", m,
                   check_oracle(REFERENCES[f"oracle-{m}-n{n}"], n, ORACLE_SAMPLES),
                   ("--n", str(n), "--mc-samples", str(ORACLE_SAMPLES)))
               for m, n in _oracle_jobs),
)

# --- highdim-mc -------------------------------------------------------------

# d=4 product prior: two +-1 coordinates, two {1, 0} coordinates at 0.3/0.7
# (K=16), diagonal S.  With diagonal S + r the channel factorises into four
# scalar channels, so its MI is the sum of four scalar GH-63 values (these
# agree with adaptive 1-D quadrature to 1e-9).
_PRODUCT_ATOMS = [list(a) for a in itertools.product([1.0, -1.0], [1.0, -1.0],
                                                     [1.0, 0.0], [1.0, 0.0])]
_PRODUCT_WEIGHTS = [0.25 * (0.3 if a[2] else 0.7) * (0.3 if a[3] else 0.7) for a in _PRODUCT_ATOMS]
HIGHDIM_S = [0.3, 0.5, 0.4, 0.6]
HIGHDIM_SAMPLES = 200_000
# (r diagonal, q diagonal, channel anchor, linear term, quartic term)
_HIGHDIM_POINTS = (
    ([0.5] * 4, [0.0] * 4, 0.8149980040907601, -0.65, 0.274525),
    ([1.5] * 4, [0.5, 0.5, 0.1, 0.1], 1.3211177887767573, -1.05, 0.209525),
)

HIGHDIM_MC = Workload(
    name="highdim-mc",
    models={"product-d4": {"d": 4, "couplings": [_diag([0.5] * 4)], "s": _diag(HIGHDIM_S),
                           "prior": {"discrete": {"atoms": _PRODUCT_ATOMS,
                                                  "weights": _PRODUCT_WEIGHTS}}}},
    mc_samples={"product-d4": HIGHDIM_SAMPLES},
    jobs=tuple(Job(f"potential-d4-r{r[0]}", "potential", "product-d4",
                   check_potential(anchor, linear, quartic, MC_TOL),
                   ("--mc-samples", str(HIGHDIM_SAMPLES),
                    "--r", json.dumps(_diag(r)), "--q", json.dumps(_diag(q))))
               for r, q, anchor, linear, quartic in _HIGHDIM_POINTS),
)

WORKLOADS = {w.name: w for w in (SCALAR_TRANSITION, MULTIVIEW_KERNEL, ORACLE_ENUM, HIGHDIM_MC)}
