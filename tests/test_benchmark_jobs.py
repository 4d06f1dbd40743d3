"""The benchmark's own reference checks, run on the package as it stands.

For every workload in perfbench/workloads.py and two seeds, one pass of its
jobs runs through ``perfbench/run.py``'s ``Runner`` (the same CLI calls and
artifact checks the benchmark makes) and must record no failure.  A change
that breaks a benchmark reference then fails here, not first in a benchmark
run.  Nothing under perfbench/ is modified; artifacts go to a temporary
directory.
"""

import importlib.util
from pathlib import Path

import pytest

from rslimits import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
workloads = _load("workloads")


@pytest.mark.parametrize("seed", [7, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_meets_references(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    paths = run.write_models(workload, tmp_path)
    runner = run.Runner(cli, workload, paths, seed, tmp_path)
    runner.run_pass(0)
    assert runner.attempted == len(workload.jobs)
    assert runner.failures == []
