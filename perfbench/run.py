"""Report-latency benchmark of the puosc command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each job is one in-process call of ``puosc.cli.main(argv)`` whose JSON
report is written to a buffer and checked.  Jobs run closed-loop from one
caller, one at a time, in whole rounds (see jobs.py) until ``--seconds``
have passed or the plan ends.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
plan untraced, then installs the layer wrappers of layers.py, replays the
first rounds and prints the per-layer metrics.  The last line of standard
output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import jobs  # noqa: E402

# fresh-interpreter imports of a run: one untimed first, to warm the file
# and bytecode caches, then one every tenth of the run, so that a slow
# second on the shared machine moves few of them
SETUP_SAMPLES = 10
# the traced run replays this many rounds, so its counts are the same on
# every run of one seed
TRACE_ROUNDS = 3
# a tail percentile needs this many jobs beyond it
TAIL_BEYOND = 10
# end-to-end times are given for a machine on which machine_probe() takes
# this long (about its time on a 2-core Xeon VM with no other load)
PROBE_SECONDS = 0.01

SETUP_CODE = ("import time; t = time.perf_counter(); import puosc.cli; "
              "print(time.perf_counter() - t)")


def machine_probe() -> float:
    """Seconds for a fixed stretch of interpreter work (fractions, dicts,
    strings), about PROBE_SECONDS on a quiet machine.  A shared machine
    can run everything up to 1.7 times slower for stretches of seconds to
    minutes; this clock shows by how much, around each round."""
    t = perf_counter()
    x, table = Fraction(1, 3), {}
    for i in range(1500):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        table[i, i % 7] = [x.numerator % 97, str(i)]
    return perf_counter() - t


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_job(main, job):
    """One CLI call: (wall seconds, exit code or exception name, report,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except SystemExit as exc:     # argparse exits instead of returning 2
        code = f"SystemExit({exc.code})"
    except Exception as exc:      # a crash fails the job, not the benchmark
        code = type(exc).__name__
        err.write(traceback.format_exc())
    wall = perf_counter() - t
    return wall, code, out.getvalue(), err.getvalue()


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import puosc.cli."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout)


class Pass:
    """Jobs of one pass over a plan, with their checks and report digest."""

    def __init__(self):
        self.walls = []
        self.round_walls = []
        self.failures = []
        self.bounded = []
        self.setup = []
        self.probes = []              # before each round, after the last
        self.digest = hashlib.sha256()
        self.round_digests = []       # digest of all reports so far, by round

    def run(self, main, plan, seconds=0.0, rounds=1, run=run_job,
            setup=False):
        """Run whole rounds of ``plan`` until ``seconds`` have passed, and
        at least ``rounds`` of them, or until the plan ends.  With
        ``setup``, sample the import time between rounds."""
        if setup:
            import_seconds()
        t0 = perf_counter()
        r = 0
        while r < len(plan) and (r < rounds or perf_counter() - t0 < seconds):
            if setup and (perf_counter() - t0 >= len(self.setup) * seconds
                          / SETUP_SAMPLES):
                self.setup.append(import_seconds())
            self.probes.append(machine_probe())
            round_wall = 0.0
            for job in plan[r]:
                wall, code, report, err = run(main, job)
                round_wall += wall
                self.walls.append(wall)
                self.digest.update(report.encode())
                bad = jobs.gate(job, code, report)
                if bad:
                    self.failures.append((job, bad, err[-2000:]))
                elif job.kind == "scan":
                    self.bounded += [c["value"] for c in
                                     json.loads(report)["checks"]
                                     if c["name"] == "bounded-fraction"]
            self.round_walls.append(round_wall)
            self.round_digests.append(self.digest.hexdigest())
            r += 1
        self.probes.append(machine_probe())
        return self

    def speed_factors(self):
        """Per round: PROBE_SECONDS over the mean probe time around the
        round, which scales the round's times to the nominal machine."""
        return [2 * PROBE_SECONDS / (a + b)
                for a, b in zip(self.probes, self.probes[1:])]

    def scaled_seconds(self, rounds: int) -> float:
        """Scaled wall time of the first ``rounds`` rounds."""
        return sum(w * f for w, f in zip(self.round_walls[:rounds],
                                         self.speed_factors()))


def tail(walls):
    """(value, percentile, jobs beyond): the highest whole percentile, by
    nearest rank, that leaves at least TAIL_BEYOND jobs above it."""
    n = len(walls)
    ordered = sorted(walls)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    p = max(p for p in range(100) if math.ceil(p * n / 100) <= n - TAIL_BEYOND)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p, n - rank


def end_to_end(p: Pass):
    """End-to-end metrics and the notes printed beside them.

    Times are scaled round by round with ``Pass.speed_factors``, then
    summarized by medians, so that slow stretches of the shared machine
    move them little."""
    factors = p.speed_factors()
    per_round = len(p.walls) // len(p.round_walls)
    walls = [w * factors[i // per_round] for i, w in enumerate(p.walls)]
    rounds = [w * f for w, f in zip(p.round_walls, factors)]
    value, pct, beyond = tail(walls)
    return {
        "jobs_per_s": per_round / statistics.median(rounds),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": value,
        "setup_s": statistics.median(p.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }, {
        "jobs_per_s": f"{per_round} jobs per round over the median of "
                      f"{len(rounds)} rounds; unscaled "
                      f"{per_round / statistics.median(p.round_walls):.6g}",
        "job_p50_s": f"unscaled {statistics.median(p.walls):.6g}; median "
                     f"speed factor {statistics.median(factors):.4f}",
        "job_tail_s": f"p{pct} of {len(walls)} jobs, {beyond} beyond it; "
                      f"unscaled {tail(p.walls)[0]:.6g}",
        "setup_s": f"median of {len(p.setup)} fresh imports",
    }


def machine_info():
    cpu = "unknown"
    with contextlib.suppress(OSError), \
            open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "puosc", "cli.py")):
        print(f"error: no puosc sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    from puosc import cli

    os.chdir(ROOT)
    os.makedirs(jobs.OUT_DIR, exist_ok=True)
    plan = jobs.plan(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed,
            "plan_sha256": jobs.digest(plan), **machine_info()}

    if not args.trace:
        main_pass = Pass().run(cli.main, plan, seconds=args.seconds,
                               setup=True)
        passes = [main_pass]
        metrics, notes = end_to_end(main_pass)
        correct = True
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        from layers import Tracer
        untraced = Pass().run(cli.main, plan, seconds=args.seconds / 2,
                              rounds=TRACE_ROUNDS)
        tracer = Tracer()
        tracer.install()
        traced = Pass().run(cli.main, plan, rounds=TRACE_ROUNDS,
                            run=tracer.wrap("job.run", run_job))
        passes = [untraced, traced]
        trace_path = os.path.join(jobs.OUT_DIR, f"trace_{args.workload}.npz")
        tracer.write(trace_path)
        info["trace_file"] = trace_path
        info["trace_spans"] = len(tracer.start)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (
            traced.scaled_seconds(TRACE_ROUNDS)
            / untraced.scaled_seconds(TRACE_ROUNDS) - 1)
        notes = {}
        # the wrappers may not change what the program computes: the traced
        # rounds' reports must match the untraced ones byte for byte
        correct = (untraced.round_digests[TRACE_ROUNDS - 1]
                   == traced.round_digests[-1])
        info["traced_reports_identical"] = correct
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    attempted = sum(len(p.walls) for p in passes)
    failures = [f for p in passes for f in p.failures]
    if passes[0].bounded:
        info["scan_bounded_cell_frac"] = statistics.mean(passes[0].bounded)
    info["jobs_failed"] = f"{len(failures)} of {attempted}"
    info["jobs"] = len(passes[0].walls)
    info["rounds"] = len(passes[0].round_walls)
    info["reports_sha256_round_1"] = passes[0].round_digests[0]
    info["reports_sha256"] = passes[0].digest.hexdigest()

    for key, value in info.items():
        print(f"# {key}: {value}")
    for job, why, err in failures:
        print(f"# FAILED {' '.join(job.argv)}: {why}")
        if err:
            print("#   " + err.strip().replace("\n", "\n#   "))
    for key in units:
        print(f"{key:28s} {metrics[key]:>14.6g} {units[key]:6s} "
              f"{notes.get(key, '')}")
    print(json.dumps({
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def smoke() -> int:
    """Quick self-check: one short run of every workload in both modes
    emits every metric BENCHMARK.json names, and the gate rejects a job
    whose expected verdict is wrong."""
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    workload["name"], "--seed", "1", "--seconds", "0",
                    "--trace", str(trace)]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                 text=True, timeout=600)
            where = f"{workload['name']} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}: "
                                f"{out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            names = spec["per_layer" if trace else "end_to_end"]
            missing = {m["name"] for m in names} - set(result["metrics"])
            if missing:
                problems.append(f"{where}: missing metrics {sorted(missing)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct, {result['failed']} "
                                "failed")
            print(f"smoke {where}: {result['attempted']} jobs, "
                  f"{len(result['metrics'])} metrics", file=sys.stderr)

    sys.path.insert(0, SRC)
    from puosc import cli
    os.chdir(ROOT)
    job = next(j for j in jobs.plan("float_verify", 1)[0]
               if j.kind == "jordan")
    _, code, report, _ = run_job(cli.main, job)
    right = jobs.EXPECTED[job.kind][0]
    if jobs.gate(job, code, report) is not None:
        problems.append("gate rejected a correct job")
    if jobs.gate(job, code, report, expected_pass=not right) is None:
        problems.append("gate accepted a job whose expected verdict is wrong")
    for line in problems:
        print(f"smoke FAILED: {line}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check metric names and the gate, then exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
