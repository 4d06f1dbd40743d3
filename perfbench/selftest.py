#!/usr/bin/env python3
"""Self-test of the benchmark's artifact checks (about 2 s).

    python3 perfbench/selftest.py

For a few cheap jobs it runs the job through the benchmark's Runner and
shows that (1) the true artifact passes, (2) the same artifact with one value
perturbed just past its tolerance fails its reference check, and (3) a pass
whose artifact differs from the first pass's fails the byte-identity check
(C9).  Exits 0 only if every case is judged as expected.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC, Runner, write_models

sys.path.insert(0, str(SRC))

from rslimits import cli  # noqa: E402
from workloads import DEFAULT_SEED, FP_TOL, ORACLE_TOL, WORKLOADS  # noqa: E402

# (workload, job, field perturbed, perturbation just past the job's tolerance)
CASES = (
    ("scalar-transition", "solve-c1", "f", 2 * FP_TOL),
    ("scalar-transition", "rotinv-c8", "e_star", 2 * FP_TOL),
    ("oracle-enum", "oracle-c6-n6", "mi_per_row", 2 * ORACLE_TOL),
)


class PerturbingCli:
    """rslimits.cli whose artifacts get one field shifted while `shift` is set."""

    def __init__(self, field):
        self.field, self.shift = field, 0.0

    def run(self, argv):
        code = cli.run(argv)
        if self.shift:
            out = argv[argv.index("--out") + 1]
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc[self.field] += self.shift
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(cli.to_json_text(doc) + "\n")
        return code


def judged(workload, job_name, field, shift, passes, work):
    """Failures of a Runner over `passes` (a list of shift-on flags)."""
    wl = WORKLOADS[workload]
    job = next(j for j in wl.jobs if j.name == job_name)
    fake = PerturbingCli(field)
    wl_one = dataclasses.replace(wl, jobs=(job,))
    runner = Runner(fake, wl_one, write_models(wl_one, work), DEFAULT_SEED, work)
    for pass_no, on in enumerate(passes):
        fake.shift = shift if on else 0.0
        runner.run_pass(pass_no)
    return runner


def main():
    OUT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        for workload, job, field, shift in CASES:
            clean = judged(workload, job, field, shift, [False, False], work)
            wrong = judged(workload, job, field, shift, [True], work)
            drift = judged(workload, job, field, shift, [False, True], work)
            cases = [("true artifact passes", clean.failures == []),
                     (f"{field} + {shift:g} fails its reference",
                      [f["pass"] for f in wrong.failures] == [0]),
                     ("changed artifact in pass 2 fails C9",
                      [f["pass"] for f in drift.failures] == [1]
                      and "C9" in drift.failures[0]["errors"][0])]
            for what, good in cases:
                ok &= good
                print(f"{'ok  ' if good else 'FAIL'} {job}: {what}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
