"""Span tracer for the traced run, installed from outside the program.

Each public function of a layer is replaced by a wrapper that records a span
(name, start, end, parent, job id).  A module that imported the function by
name (``from .channel import mmse_matrix``) holds its own reference, so every
``rslimits`` module attribute bound to the original is replaced, and
restored by :meth:`Tracer.uninstall`.  Spans stay in flat in-memory arrays
until :meth:`Tracer.save` writes them once the run ends.

A call from a layer in ``FLAT`` into its own module (``check_psd`` calling
``check_symmetric``) records no span: its time stays in the outer span's self
time and ``<layer>.calls`` counts calls into the layer from outside it.
Solver and oracle keep nested spans, because ``se_iterate`` inside
``solve_f`` and ``sample_instance`` inside ``finite_mi`` carry counts.

Counts come from arguments and results at the same boundaries; they are
recorded on the span as a payload and turned into metrics by
:func:`layer_metrics`.
"""

import inspect
import sys
import time
from array import array

import numpy as np

# layer -> (module, public functions wrapped); cli.run is each job's root span
LAYERS = {
    "cli": ("rslimits.cli", ("run",)),
    "psdlinalg": ("rslimits.psdlinalg", None),           # None: every public function
    "quadrature": ("rslimits.quadrature", None),
    "channel": ("rslimits.channel", None),
    "kernels.channel": ("rslimits._kernels", ("channel_discrete_moments",)),
    "kernels.enum": ("rslimits._kernels", ("config_quadratic_terms",)),
    "kernels.marginals": ("rslimits._kernels", ("config_row_marginals",)),
    "potential": ("rslimits.potential", None),
    "solver": ("rslimits.solver", None),
    "oracle": ("rslimits.oracle", None),
    "oracle.logsumexp": ("rslimits.oracle", ("logsumexp",)),   # scipy's, called per replica
    "rotinv": ("rslimits.rotinv", None),
}
METHODS = {"quadrature": (("QuadratureScheme", "nodes_weights"),)}
FLAT = {"psdlinalg", "quadrature", "potential", "rotinv"}


def _public_functions(module):
    return tuple(name for name, obj in vars(module).items()
                 if inspect.isfunction(obj) and obj.__module__ == module.__name__
                 and not name.startswith("_"))


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.job = array("i")
        self.names = []                 # name id -> (layer, function)
        self.payload = {}               # span index -> count payload
        self.job_id = -1
        self._stack = []               # open span indices
        self._layers = []              # their layers
        self._patched = []

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rslimits" or name.startswith("rslimits.")}
        for layer, (modname, funcs) in LAYERS.items():
            mod = mods[modname]
            for fname in funcs or _public_functions(mod):
                orig = getattr(mod, fname)
                wrapper = self._wrap(orig, layer, fname, _HOOKS.get(fname))
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._patched.append((other, attr, orig))
                            setattr(other, attr, wrapper)
        for layer, methods in METHODS.items():
            mod = mods[LAYERS[layer][0]]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, layer, f"{cls_name}.{meth}", _HOOKS.get(meth)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, layer, fname, hook):
        if (layer, fname) not in self.names:
            self.names.append((layer, fname))
        name_id = self.names.index((layer, fname))
        start, end, parent, names, jobs = self.start, self.end, self.parent, self.name, self.job
        stack, layers, payload, clock = self._stack, self._layers, self.payload, time.perf_counter
        flat = layer in FLAT

        def wrapper(*args, **kwargs):
            if flat and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            jobs.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                layers.pop()
            if hook is not None:
                payload[idx] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------------

    def arrays(self, jobs=None):
        """Spans as numpy arrays, optionally restricted to a set of job ids."""
        # copies: an array exporting its buffer cannot grow
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        job = np.array(self.job, dtype=np.int32)
        idx = np.arange(len(start))
        if jobs is not None:
            keep = np.isin(job, list(jobs))
            idx = idx[keep]
        return idx, start, end, parent, name, job

    def save(self, path, job_names, t0):
        _, start, end, parent, name, job = self.arrays()
        np.savez_compressed(path, start=start - t0, end=end - t0, parent=parent.astype(np.int32),
                            name=name.astype(np.uint16), job=job,
                            names=np.array([f"{layer}:{fn}" for layer, fn in self.names]),
                            job_names=np.array(job_names))


# -- count hooks: what a boundary's arguments and result say about work done ---

def _hook_channel_kernel(args, kwargs, result):
    atoms, nodes = args[3], args[4]
    k, d = atoms.shape
    m = nodes.shape[0]
    return {"logits": k * k * m, "bytes": 8 * (k * k * m + m * (d + 1)), "shape": (d, k, m)}


def _hook_enum(args, kwargs, result):
    m, n = args[0].shape
    return {"terms": m * n * n, "shape": (m, n)}


def _hook_marginals(args, kwargs, result):
    return {"shape": args[0].shape}


def _hook_se_iterate(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _hook_solve_f(args, kwargs, result):
    model = args[0]
    return {"iterations": int(result.iterations),
            "d1_discrete": model.d == 1 and model.prior.kind == "discrete"}


def _hook_nodes_weights(args, kwargs, result):
    scheme, dim = args[0], args[1]
    drawn = scheme.sample_count * dim if scheme.kind == "monte-carlo" else 0
    return {"drawn": drawn}


_HOOKS = {
    "channel_discrete_moments": _hook_channel_kernel,
    "config_quadratic_terms": _hook_enum,
    "config_row_marginals": _hook_marginals,
    "se_iterate": _hook_se_iterate,
    "solve_f": _hook_solve_f,
    "nodes_weights": _hook_nodes_weights,
}


# -- metrics ---------------------------------------------------------------------

def _nearest_ancestor(parent, is_target):
    """For each span, the index of its nearest ancestor with is_target, else -1."""
    near = np.where(parent >= 0, np.where(is_target[np.maximum(parent, 0)], parent, -2), -1)
    while np.any(near == -2):
        todo = near == -2
        near[todo] = near[parent[todo]]        # parents precede children
    return near


def layer_metrics(tracer, jobs):
    """Per-layer counts and times of the spans of the given job ids."""
    idx, start, end, parent, name, _ = tracer.arrays(jobs)
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_all = dur - child
    layers = list(LAYERS)
    layer_of = np.array([layers.index(layer) for layer, _ in tracer.names])
    span_layer = layer_of[name[idx]]

    def name_ids(fn):
        return [i for i, (_, f) in enumerate(tracer.names) if f == fn]

    def in_layer(layer):
        return idx[span_layer == layers.index(layer)]

    def spans_of(fn):
        return idx[np.isin(name[idx], name_ids(fn))]

    def self_time(layer):
        return float(self_all[in_layer(layer)].sum())

    def total(fn, key):
        return sum(tracer.payload[i][key] for i in spans_of(fn))

    def median_ms(spans):
        return float(np.median(dur[spans]) * 1e3) if len(spans) else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def shaped(spans, shape):
        return [i for i in spans if tracer.payload[i]["shape"] == shape]

    solve_spans = spans_of("solve_f")
    se_spans = spans_of("se_iterate")
    # useful_iter_frac: the winning branch's iterations over all SE iterations
    # run inside the same solve_f call
    owner = _nearest_ancestor(parent, np.isin(name, name_ids("solve_f")))
    inside = sum(tracer.payload[i]["iterations"] for i in se_spans if owner[i] >= 0)
    winners = total("solve_f", "iterations")
    se_iters = total("se_iterate", "iterations")
    rot_owner = _nearest_ancestor(parent, layer_of[name] == layers.index("rotinv"))
    kernel_spans = spans_of("channel_discrete_moments")
    enum_spans = spans_of("config_quadratic_terms")
    replicas = len(spans_of("sample_instance"))
    oracle_s = float(dur[spans_of("finite_mi")].sum() + dur[spans_of("nishimori_residual")].sum())
    logits = total("channel_discrete_moments", "logits")
    kernel_self = self_time("kernels.channel")
    enum_terms = total("config_quadratic_terms", "terms")
    enum_self = self_time("kernels.enum")
    return {
        "cli.self_s": self_time("cli"),
        "psdlinalg.calls": len(in_layer("psdlinalg")),
        "psdlinalg.self_s": self_time("psdlinalg"),
        "quadrature.calls": len(in_layer("quadrature")),
        "quadrature.nodes_drawn": total("QuadratureScheme.nodes_weights", "drawn"),
        "quadrature.self_s": self_time("quadrature"),
        "channel.calls": len(in_layer("channel")),
        "channel.self_s": self_time("channel"),
        "kernels.channel_calls": len(kernel_spans),
        "kernels.channel_logits": logits,
        "kernels.channel_self_s": kernel_self,
        "kernels.channel_logits_per_s": rate(logits, kernel_self),
        "kernels.channel_bytes_computed": total("channel_discrete_moments", "bytes"),
        "kernels.channel_ms_d2k4": median_ms(shaped(kernel_spans, (2, 4, 63 * 63))),
        "kernels.enum_calls": len(enum_spans),
        "kernels.enum_terms": enum_terms,
        "kernels.enum_self_s": enum_self,
        "kernels.enum_terms_per_s": rate(enum_terms, enum_self),
        "kernels.enum_ms_n10": median_ms(shaped(enum_spans, (1024, 10))),
        "kernels.marginals_self_s": self_time("kernels.marginals"),
        "kernels.marginals_ms_n10": median_ms(shaped(spans_of("config_row_marginals"), (1024, 10))),
        "potential.calls": len(in_layer("potential")),
        "potential.self_s": self_time("potential"),
        "solver.solve_calls": len(solve_spans),
        "solver.se_runs": len(se_spans),
        "solver.se_iters": se_iters,
        "solver.se_unconverged": sum(not tracer.payload[i]["converged"] for i in se_spans),
        "solver.useful_iter_frac": winners / inside if inside else 0.0,
        "solver.s_per_iter": float(dur[se_spans].sum()) / se_iters if se_iters else 0.0,
        "solver.self_s": self_time("solver"),
        "solver.solve_f_ms_d1": median_ms([i for i in solve_spans
                                           if tracer.payload[i]["d1_discrete"]]),
        "oracle.replicas": replicas,
        "oracle.s_per_replica": oracle_s / replicas if replicas else 0.0,
        "oracle.sample_s": float(dur[spans_of("sample_instance")].sum()),
        "oracle.lse_self_s": self_time("oracle.logsumexp"),
        "oracle.self_s": self_time("oracle"),
        "rotinv.calls": len(in_layer("rotinv")),
        "rotinv.channel_calls": int(np.sum(rot_owner[in_layer("channel")] >= 0)),
        "rotinv.self_s": self_time("rotinv"),
    }


COUNTS = ("psdlinalg.calls", "quadrature.calls", "quadrature.nodes_drawn", "channel.calls",
          "kernels.channel_calls", "kernels.channel_logits", "kernels.channel_bytes_computed",
          "kernels.enum_calls", "kernels.enum_terms", "potential.calls", "solver.solve_calls",
          "solver.se_runs", "solver.se_iters", "solver.se_unconverged", "oracle.replicas",
          "rotinv.calls", "rotinv.channel_calls")
