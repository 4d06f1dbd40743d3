"""Contract between the package and the benchmark (perfbench/).

The traced benchmark run wraps package functions by name, and the benchmark
scripts call the CLI and the quadrature directly.  A rename or a deletion in
``rslimits`` would otherwise only surface when a benchmark run fails, so
these tests read the tracer's tables and the scripts' source and check them
against the package.  Nothing under perfbench/ is modified.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

from rslimits import cli, oracle

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SCRIPTS = ("run.py", "probe.py", "selftest.py")
# what the scripts are known to use; a scan that misses one of these is broken
KNOWN_USES = {"_kernels.get_backend", "cli.run", "cli.parse_model", "cli.parse_rotinv_model",
              "cli.to_json_text", "quadrature.gauss_hermite", "quadrature.monte_carlo",
              "quadrature.QuadratureScheme.nodes_weights"}
# arguments for building a returned object whose method a script calls
SAMPLE_ARGS = {"quadrature.gauss_hermite": (3,), "quadrature.monte_carlo": (3,)}

RADEMACHER_DOC = """
{"d": 1, "couplings": [[[1.0]]], "s": [[0.2]],
 "prior": {"discrete": {"atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]}}}
"""


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_named_hooks_resolve(tracer):
    for layer, (modname, funcs) in tracer.LAYERS.items():
        module = importlib.import_module(modname)
        for fname in funcs or ():
            assert callable(getattr(module, fname, None)), f"{layer}: {modname}.{fname}"
    for layer, methods in tracer.METHODS.items():
        module = importlib.import_module(tracer.LAYERS[layer][0])
        for cls_name, meth in methods:
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls), f"{layer}: {cls_name}"
            assert callable(vars(cls).get(meth)), f"{layer}: {cls_name}.{meth}"


def _bindings():
    """Every attribute of every rslimits module and of the traced classes."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "rslimits" or name.startswith("rslimits.")}
    out = {(name, attr): value for name, mod in mods.items() for attr, value in vars(mod).items()}
    for cls in {value for value in out.values() if inspect.isclass(value)
                and value.__module__.startswith("rslimits")}:
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_install_uninstall_restores_every_binding(tracer, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(RADEMACHER_DOC)
    for modname, _ in tracer.LAYERS.values():
        importlib.import_module(modname)
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.run is not before[("rslimits.cli", "run")]
        code = cli.run(["solve", "--model", str(model), "--out", str(tmp_path / "out.json")])
    finally:
        t.uninstall()
    assert code == 0
    names = {t.names[i] for i in t.name}
    assert ("solver", "solve_f") in names and ("kernels.channel", "channel_discrete_moments") in names
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


def test_traced_oracle_records_each_chunk(tracer, tmp_path, monkeypatch):
    # the traced run times the oracle's normalisation and enumeration by the
    # names it wraps (oracle.logsumexp, _kernels.config_quadratic_terms): a
    # scoring path that went around them would read 0 in the benchmark
    model = tmp_path / "model.json"
    model.write_text(RADEMACHER_DOC)
    n, samples = 6, 40
    monkeypatch.setattr(oracle, "CHUNK_DOUBLES", 15 * (2 * 2 ** n + n * n))
    chunks = math.ceil(samples / oracle._chunk_size(2 ** n, n))
    assert chunks == 3
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.run(["oracle", "--model", str(model), "--n", str(n), "--mc-samples",
                        str(samples), "--out", str(tmp_path / "out.json")])
    finally:
        t.uninstall()
    assert code == 0
    calls = [t.names[i] for i in t.name]
    assert calls.count(("oracle", "replica_average")) == 1
    assert calls.count(("oracle.logsumexp", "logsumexp")) == chunks
    assert calls.count(("kernels.enum", "config_quadratic_terms")) == chunks
    # the hook reads the kernel's first argument for (M, n) only: the oracle's
    # zero-stride stand-in must keep kernels.enum_terms and enum_ms_n10 keyed
    enum_id = t.names.index(("kernels.enum", "config_quadratic_terms"))
    shapes = [t.payload[i]["shape"] for i, name in enumerate(t.name) if name == enum_id]
    assert shapes == [(2 ** n, n)] * chunks
    metrics = tracer.layer_metrics(t, {t.job_id})
    assert metrics["kernels.enum_calls"] == chunks
    assert metrics["oracle.lse_self_s"] > 0


def _script_calls(tree):
    """(owner, attr, call) for each attribute of an imported rslimits module.

    owner is "module" for ``module.attr`` or ``obj.module.attr`` (the runner
    holds the cli module as ``self.cli``) and "module.func()" for a method of
    what ``module.func(...)`` returned; call is the ast.Call or None.
    """
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "rslimits"
               for alias in node.names}

    def module_attr(node):
        if isinstance(node, ast.Attribute):
            owner = node.value
            ident = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if ident in modules:
                return ident, node.attr
        return None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if module_attr(node):
            out.append((*module_attr(node), calls.get(id(node))))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
              and module_attr(node.value.func)):
            out.append(("{}.{}()".format(*module_attr(node.value.func)), node.attr,
                        calls.get(id(node))))
    return out


def test_benchmark_scripts_use_existing_names():
    seen = set()
    for script in SCRIPTS:
        tree = ast.parse((TRACER_PATH.parent / script).read_text(encoding="utf-8"))
        for owner, attr, call in _script_calls(tree):
            if owner.endswith("()"):
                func = owner[:-2]
                assert func in SAMPLE_ARGS, f"{script}: no sample arguments for {func}"
                mod, name = func.split(".")
                obj = getattr(importlib.import_module(f"rslimits.{mod}"), name)(*SAMPLE_ARGS[func])
                label = f"{mod}.{type(obj).__name__}.{attr}"
            else:
                obj, label = importlib.import_module(f"rslimits.{owner}"), f"{owner}.{attr}"
            target = getattr(obj, attr, None)
            assert callable(target), f"{script}: {label}"
            if (call is not None and not any(isinstance(a, ast.Starred) for a in call.args)
                    and all(k.arg for k in call.keywords)):
                try:        # arity and keyword names, e.g. monte_carlo(..., seed=...)
                    inspect.signature(target).bind(*call.args, **{k.arg: 0 for k in call.keywords})
                except TypeError as exc:
                    pytest.fail(f"{script}: {label}: {exc}")
            seen.add(label)
    assert KNOWN_USES <= seen, KNOWN_USES - seen
