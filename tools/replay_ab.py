"""Replay the first rounds of a perfbench plan for two checkouts, A/B.

Usage, from the root of a checkout:

    python3 tools/replay_ab.py --parent DIR [--change DIR] \
        --workload float_verify --seed 31 --rounds 12 --pairs 6

Each replay is a fresh interpreter that imports ``puosc`` from one
checkout's ``src`` and runs ``--rounds`` whole rounds of the plan in
process, one job after another, as ``perfbench/run.py`` does.  The plan,
the job gate and the machine probe are those of this checkout's
``perfbench``, so both sides run the same jobs and their times are scaled
the same way (``run.Pass.scaled_seconds``: each round's wall time times
``PROBE_SECONDS`` over the probe time around it).  The two sides alternate
which runs first, ``--pairs`` times.

Every replay prints its scaled seconds and two digests: one of the
reports, and one of the files the jobs write under ``jobs.OUT_DIR`` (the
``--csv`` trajectories), read after each job.  The last lines give each
side's median, the median ratio parent / change (above 1 when the change is
faster) and the pairs the change won.  The exit code is 1 when any two
replays' digests or failed-job counts differ: a speedup is only worth
reading for the same report and artifact bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import jobs  # noqa: E402

REPLAY = """
import hashlib, json, os, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import jobs, run
from puosc import cli
os.makedirs(jobs.OUT_DIR, exist_ok=True)
artifacts = hashlib.sha256()

def run_job(main, job):
    # the job's time is taken inside run.run_job; its files are read after
    result = run.run_job(main, job)
    for arg in job.argv:
        path = arg.split("=", 1)[-1]
        if path.startswith(jobs.OUT_DIR + "/") and os.path.isfile(path):
            with open(path, "rb") as fh:
                artifacts.update(path.encode() + b"\\0" + fh.read())
    return result

p = run.Pass().run(cli.main, jobs.plan({workload!r}, {seed}), rounds={rounds},
                   run=run_job)
print(json.dumps({{"seconds": p.scaled_seconds(len(p.round_walls)),
                  "rounds": len(p.round_walls), "failed": len(p.failures),
                  "digest": p.digest.hexdigest(),
                  "artifacts": artifacts.hexdigest()}}))
"""


def replay(checkout: str, args, cwd: str) -> dict:
    code = REPLAY.format(src=os.path.join(checkout, "src"), perfbench=PERFBENCH,
                         workload=args.workload, seed=args.seed,
                         rounds=args.rounds)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="root of the parent checkout")
    parser.add_argument("--change", default=ROOT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "src", "puosc", "cli.py")):
            parser.error(f"no puosc sources under {checkout}/src")
    if args.rounds < 1 or args.pairs < 1:
        parser.error("--rounds and --pairs must be at least 1")

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as cwd:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = replay(sides[side], args, cwd)
                runs[side].append(r)
                print(f"pair {i + 1} {side:6s} {r['seconds']:8.3f} s  "
                      f"{r['rounds']} rounds, {r['failed']} failed, "
                      f"reports {r['digest'][:16]}, "
                      f"artifacts {r['artifacts'][:16]}", flush=True)

    seen = {(r["digest"], r["artifacts"], r["rounds"], r["failed"])
            for side in runs.values() for r in side}
    parent = [r["seconds"] for r in runs["parent"]]
    change = [r["seconds"] for r in runs["change"]]
    won = sum(c < p for p, c in zip(parent, change))
    print(f"median parent {statistics.median(parent):.3f} s, change "
          f"{statistics.median(change):.3f} s, speedup "
          f"{statistics.median(p / c for p, c in zip(parent, change)):.3f}x, "
          f"{won} of {args.pairs} pairs won by the change")
    if len(seen) != 1:
        print("FAILED: the replays differ in report or artifact digest, "
              f"rounds or failed jobs: {sorted(seen)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
