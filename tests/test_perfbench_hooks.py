"""Contract between the package and the benchmark's tracer (perfbench/tracer.py).

The traced benchmark run wraps package functions by name.  A rename or a
deletion in ``rslimits`` would otherwise only surface when that run fails, so
these tests read the tracer's tables and check them against the package.
Nothing under perfbench/ is modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from rslimits import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
