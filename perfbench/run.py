#!/usr/bin/env python3
"""Benchmark of the rslimits CLI: one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of CLI jobs (see workloads.py), run one at a time
in this process through ``rslimits.cli.run``: a closed loop with one caller.
The job list runs in passes until ``--seconds`` have been measured, at least
twice.  Every artifact is checked against its reference and against the
same job's artifact from the first pass (byte-identical, criterion C9).

``--trace 0`` reports the end-to-end metrics: set-up time of fresh
interpreters, wall time of a pass, peak memory.
``--trace 1`` runs untraced and traced passes and reports the per-layer
metrics (see tracer.py); every count must repeat exactly between its traced
passes.  The last line of stdout is the result; details go to
``.perfbench_out/``.  The seed reaches the program only as ``--seed``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_PASSES = 2


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def write_models(workload, directory):
    paths = {}
    for name, doc in workload.models.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def setup_spec(workload, paths, seed):
    spec = []
    for name, path in paths.items():
        quad = workload.quadrature(name)
        if quad is not None and quad[0] == "monte-carlo":
            quad = [*quad, seed]
        spec.append([str(path), "rotinv" if workload.is_rotinv(name) else "model", quad])
    return spec


def probe_setup(spec):
    """Wall time of one fresh interpreter doing the workload's set-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(spec)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over a workload's jobs and judges every artifact."""

    def __init__(self, cli, workload, paths, seed, work):
        self.cli, self.jobs, self.paths = cli, workload.jobs, paths
        self.seed, self.work = seed, work
        self.first = {}            # job name -> artifact bytes of the first pass
        self.verdicts = {}         # (job name, artifact bytes) -> reference errors
        self.attempted = 0
        self.failures = []

    def run_pass(self, pass_no, tracer=None):
        times = []
        cpu0 = time.process_time()
        for i, job in enumerate(self.jobs):
            out = self.work / f"job{i}.out"
            out.unlink(missing_ok=True)
            argv = job.argv(self.paths[job.model], self.seed, out)
            if tracer is not None:
                tracer.job_id = pass_no * len(self.jobs) + i
            t0 = time.perf_counter()
            try:
                code = self.cli.run(argv)
            except Exception:          # a crash is a failed job, not a failed benchmark
                code = "exception: " + traceback.format_exc()
            times.append(time.perf_counter() - t0)
            self._judge(job, code, out, pass_no)
        return times, time.process_time() - cpu0

    def _judge(self, job, code, out, pass_no):
        self.attempted += 1
        blob = out.read_bytes() if out.exists() else None
        if code != 0:
            errors = [f"exit code {code}"]
        elif blob is None:
            errors = ["no artifact written"]
        elif blob != self.first.setdefault(job.name, blob):
            errors = ["artifact differs from the first pass (C9)"]
        else:
            key = (job.name, blob)
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = job.check(blob.decode("utf-8"), self.seed)
                except (ValueError, KeyError, TypeError) as exc:
                    self.verdicts[key] = [f"unreadable artifact: {exc!r}"]
            errors = self.verdicts[key]
        if errors:
            self.failures.append({"pass": pass_no, "job": job.name, "errors": errors})


def metadata(args, workload, default_seed):
    import numpy
    import scipy
    from rslimits import _kernels

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "default_seed": default_seed,
        "seconds": args.seconds, "trace": args.trace, "jobs_per_pass": len(workload.jobs),
        "git_commit": commit, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kernel_backend": _kernels.get_backend(), "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "rslimits").glob("*.py"))),
    }


def timed_run(runner, seconds, spec):
    """End-to-end passes: untraced, at least MIN_PASSES, until `seconds` measured.

    One set-up probe runs before each pass and the rest after the last, so
    set-up time is sampled across the run, not in one burst.
    """
    passes, probes, measured = [], [], 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        probes.append(probe_setup(spec))
        t0 = time.perf_counter()
        passes.append(runner.run_pass(len(passes)))
        measured += time.perf_counter() - t0
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(spec))
    walls = [sum(times) for times, _ in passes]
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"pass_wall_s": walls, "pass_cpu_s": [cpu for _, cpu in passes],
              "job_s": [times for times, _ in passes], "setup_probe_s": probes}
    return metrics, detail


def traced_run(runner, seconds, tracer):
    """Untraced pass (the C9 reference), then traced and untraced passes.

    The order is U T T, then U and T alternately until `seconds` are measured.
    """
    from tracer import COUNTS, layer_metrics

    kinds, walls, cpus, layers, job_times = [], {"U": [], "T": []}, [], [], []
    measured = 0.0
    while len(kinds) < 3 or measured < seconds:
        kind = "UTT"[len(kinds)] if len(kinds) < 3 else "UT"[kinds[-1] == "U"]
        pass_no = len(kinds)
        t0 = time.perf_counter()
        if kind == "T":
            tracer.install()
        try:
            times, cpu = runner.run_pass(pass_no, tracer if kind == "T" else None)
        finally:
            tracer.uninstall()
        measured += time.perf_counter() - t0
        kinds.append(kind)
        walls[kind].append(sum(times))
        if kind == "U":
            cpus.append(cpu)
            job_times += times
        else:
            n = len(runner.jobs)
            layers.append(layer_metrics(tracer, range(pass_no * n, (pass_no + 1) * n)))
    mismatched = [name for name in COUNTS if len({m[name] for m in layers}) != 1]
    metrics = {name: layers[0][name] if name in COUNTS
               else statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["job_p50_s"] = statistics.median(job_times)
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead"] = statistics.median(walls["T"]) / statistics.median(walls["U"])
    detail = {"pass_kinds": kinds, "pass_wall_s": walls, "pass_cpu_s": cpus,
              "per_pass_layers": layers, "count_mismatch": mismatched}
    return metrics, detail, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rslimits" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'rslimits'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import probe
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = write_models(workload, work)
        spec = setup_spec(workload, paths, args.seed)
        probe.set_up(spec)             # the same set-up in this process: passes start warm
        from rslimits import cli

        runner = Runner(cli, workload, paths, args.seed, work)
        meta = metadata(args, workload, DEFAULT_SEED)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            t_zero = time.perf_counter()
            values, detail, mismatched = traced_run(runner, args.seconds, tracer)
            declared = per_layer
            n = len(workload.jobs)
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                        [f"pass{j // n}:{workload.jobs[j % n].name}"
                         for j in range(n * len(detail["pass_kinds"]))], t_zero)
        else:
            values, detail = timed_run(runner, args.seconds, spec)
            declared = end_to_end
            mismatched = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(declared))} "
                         "differ from BENCHMARK.json")
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED pass {failure['pass']} {failure['job']}: "
              + "; ".join(failure["errors"]), file=sys.stderr)
    for name in mismatched:
        print(f"FAILED count {name} differs between traced passes: "
              f"{[m[name] for m in detail['per_pass_layers']]}", file=sys.stderr)
    correct = failed == 0 and not mismatched
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": declared[name]}
                          for name in declared}}
    record = {"meta": meta, "result": result, "detail": detail, "failures": runner.failures}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
