"""Run chosen job kinds of the perfbench plans over a range of seeds.

Usage, from the root of a checkout:

    python3 tools/plan_sweep.py --workload float_verify --kinds gram,jordan \
        --seeds 1-200

Each job of the chosen kinds, in every round of each seed's plan, is one
in-process call of ``puosc.cli.main``, checked by the benchmark's own gate
(``perfbench/jobs.py``).  Every failing job is printed with its seed, its
round (counting from 1) and its command line; the last lines count the
jobs and failures of each kind.  The exit code is 1 if any job failed.

A benchmark run reaches only the rounds that fit in its time budget, so a
faster program meets jobs of later rounds.  This sweep shows beforehand
which of them fail.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import jobs  # noqa: E402
import run  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    first = int(first)
    last = int(last) if last else first
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, "
                                         f"got {text!r}")
    return range(first, last + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--kinds", required=True,
                        help="comma list of job kinds (keys of jobs.EXPECTED)")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="A-B, both included")
    args = parser.parse_args(argv)
    kinds = args.kinds.split(",")
    unknown = [k for k in kinds if k not in jobs.EXPECTED]
    if unknown:
        parser.error(f"unknown job kinds {unknown}")

    from puosc import cli

    attempted, failed = Counter(), Counter()
    failing_seeds = {k: set() for k in kinds}
    for seed in args.seeds:
        for r, round_jobs in enumerate(jobs.plan(args.workload, seed),
                                       start=1):
            for job in round_jobs:
                if job.kind not in failing_seeds:
                    continue
                _, code, report, _ = run.run_job(cli.main, job)
                attempted[job.kind] += 1
                bad = jobs.gate(job, code, report)
                if bad:
                    failed[job.kind] += 1
                    failing_seeds[job.kind].add(seed)
                    print(f"seed {seed} round {r}: puosc "
                          f"{' '.join(job.argv)}: {bad}", flush=True)
    for kind in kinds:
        print(f"# {kind}: {attempted[kind]} jobs, {failed[kind]} failed "
              f"in {len(failing_seeds[kind])} seeds")
    return 1 if sum(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
