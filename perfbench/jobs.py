"""Seeded job plans and the per-job correctness gate.

A job is one ``puosc`` command line.  A workload's plan is a seeded
sequence of rounds; every round holds one job from each of the workload's
strata, in a seeded order, with seeded parameters.  Every seed therefore
runs the same mix of job kinds, and only the parameters inside each kind
vary with the seed.  No two jobs of a run share a frequency pair, a single
frequency or an initial state.

Only valid inputs are generated (omega1 > omega2 > 0, never equal
frequencies).  Nothing else is filtered out.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("rational_verify", "float_verify", "classical_orbits",
             "classical_scan")

# A run stops after this many rounds even if time is left; every value a
# plan draws must stay unused over all of them.
MAX_ROUNDS = 100

# Files written by jobs (``--csv``) go here, relative to the checkout root.
OUT_DIR = ".perfbench_out"


@dataclass(frozen=True)
class Job:
    kind: str            # key into EXPECTED
    argv: tuple
    rational: bool = False


# kind -> (expected report "pass", reason).  A job whose report or exit code
# disagrees with this verdict counts as failed.
EXPECTED = {
    "eigen_rational": (True, "ghost eigenfunctions are exact for any rational "
                             "omega1 > omega2 > 0, so every residual is an "
                             "exact zero"),
    "positive_rational": (True, "positive-family and equal-frequency "
                                "residuals are exact zeros in Q(i, sqrt d)"),
    "commutator_rational": (True, "the charge L commutes with H_pu at equal "
                                  "frequencies, decided exactly"),
    "maps_rational": (True, "the four canonical maps are symplectic and "
                            "diagonalize exactly for rational pairs"),
    "descendants_rational": (True, "descendants solve the time-dependent "
                                   "equation exactly"),
    "identities": (True, "both Hermite identities hold as polynomial "
                         "identities over Q"),
    "eigen_float": (True, "float residuals of exact eigenfunctions stay "
                          "within the 1e-9 relative tolerance"),
    "positive_float": (True, "float residuals stay within 1e-12 for "
                             "frequencies of order one"),
    "commutator_float": (True, "float commutator stays within 1e-12"),
    "maps_float": (True, "float map deviations stay within 1e-12"),
    "descendants_float": (True, "float descendant residuals stay within "
                                "1e-12"),
    "continuum": (True, "the truncated continuum series converges, so the "
                        "order-20 residual is below 1e-6 of the order-5 one"),
    "density": (True, "density scan has no expectation, only records"),
    "jordan": (True, "the Jordan-block norm follows its closed form and the "
                     "degenerate metric stays constant"),
    "gram": (True, "the Gram minimum singular value falls strictly as "
                   "delta falls toward coalescence"),
    "variational_check": (True, "closed form matches quadrature and the "
                                "gradient matches finite differences"),
    "variational_descend": (True, "the Gaussian-ansatz energy is unbounded "
                                  "below for nonnegative couplings"),
    "run_pu": (True, "the free Pais-Uhlenbeck system with omega1 != omega2 "
                     "is a sum of two bounded oscillations; energy drift "
                     "stays within its bound"),
    "run_v1": (True, "ghost plus V1 with small lam near the vacuum stays "
                     "bounded (the AC9b regime)"),
    "run_robert": (True, "the bilinear integrable system grows linearly "
                         "and never collapses"),
    "envelope_robert": (True, "the bilinear system's envelope grows "
                              "linearly with correlation above 0.9"),
    "scan": (True, "the origin cell is the vacuum and always bounded"),
}

# Checks whose tolerance is a lower bound; all other numeric tolerances are
# upper bounds on the check value.
LOWER_BOUND_CHECKS = {"envelope-correlation"}


# ---------------------------------------------------------------------------
# parameter draws
# ---------------------------------------------------------------------------

def _f(x: float) -> str:
    return repr(round(x, 6))


class _Draws:
    """Seeded parameter draws that never repeat a frequency or a state."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.used = set()

    def _fresh(self, draw):
        for _ in range(100_000):
            value = draw()
            if value not in self.used:
                self.used.add(value)
                return value
        raise RuntimeError(f"no unused value left after {len(self.used)}")

    def rational_pair(self):
        # the distribution of the CLI's own --random-pairs
        def draw():
            while True:
                om1 = Fraction(self.rng.randint(2, 40), self.rng.randint(1, 8))
                om2 = Fraction(self.rng.randint(1, 30), self.rng.randint(1, 8))
                if om1 > om2 > 0:
                    return ("pair", om1, om2)
        return self._fresh(draw)[1:]

    def rational(self):
        return self._fresh(lambda: ("single", Fraction(
            self.rng.randint(1, 120), self.rng.randint(1, 12))))[1]

    def float_pair(self, lo=0.5, hi=4.0):
        def draw():
            while True:
                a = round(self.rng.uniform(lo, hi), 6)
                b = round(self.rng.uniform(lo, hi), 6)
                om1, om2 = max(a, b), min(a, b)
                if om1 - om2 >= 0.05:
                    return ("pair", om1, om2)
        return self._fresh(draw)[1:]

    def split_pair(self, lo1, hi1, lo2, hi2):
        """omega1 from [lo1, hi1] above omega2 from [lo2, hi2] < lo1."""
        return self._fresh(lambda: ("pair", self.uniform(lo1, hi1),
                                    self.uniform(lo2, hi2)))[1:]

    def float1(self, lo=0.5, hi=3.0):
        return self._fresh(lambda: ("single",
                                    round(self.rng.uniform(lo, hi), 6)))[1]

    def state(self, scale):
        return self._fresh(lambda: ("state",) + tuple(
            round(self.rng.uniform(-scale, scale), 6) for _ in range(4)))[1:]

    def uniform(self, lo, hi):
        return round(self.rng.uniform(lo, hi), 6)

    def randint(self, lo, hi):
        return self.rng.randint(lo, hi)


# ---------------------------------------------------------------------------
# strata: one function per job kind; each returns a Job
# ---------------------------------------------------------------------------

def _eigen_rational(nmax):
    def make(d: _Draws):
        om1, om2 = d.rational_pair()
        return Job("eigen_rational", (
            "verify", "eigen", "--mode", "rational", "--omega1", str(om1),
            "--omega2", str(om2), "--nmax", str(nmax)), rational=True)
    return make


def _positive_rational(nmax):
    def make(d: _Draws):
        om1, om2 = d.rational_pair()
        return Job("positive_rational", (
            "verify", "positive", "--mode", "rational", "--omega1", str(om1),
            "--omega2", str(om2), "--nmax", str(nmax),
            "--eq-nmax", str(d.randint(3, 6)),
            "--omega-eq", str(d.rational())), rational=True)
    return make


def _commutator_rational(d: _Draws):
    omegas = ",".join(str(d.rational()) for _ in range(d.randint(1, 3)))
    return Job("commutator_rational", (
        "verify", "commutator", "--mode", "rational", "--omegas", omegas),
        rational=True)


def _maps_rational(d: _Draws):
    pairs = ",".join(f"{str(a)}:{str(b)}" for a, b in
                     (d.rational_pair() for _ in range(d.randint(1, 3))))
    return Job("maps_rational", (
        "verify", "maps", "--mode", "rational", "--pairs", pairs),
        rational=True)


def _descendants_rational(d: _Draws):
    return Job("descendants_rational", (
        "verify", "descendants", "--mode", "rational",
        "--omega", str(d.rational())), rational=True)


def _identities(d: _Draws):
    return Job("identities", (
        "verify", "identities", "--nmax", str(d.randint(3, 6)),
        "--expmax", str(d.randint(4, 10))), rational=True)


def _eigen_float(nmax):
    def make(d: _Draws):
        om1, om2 = d.float_pair()
        return Job("eigen_float", (
            "verify", "eigen", "--omega1", _f(om1), "--omega2", _f(om2),
            "--nmax", str(nmax)))
    return make


def _positive_float(nmax):
    def make(d: _Draws):
        om1, om2 = d.float_pair()
        return Job("positive_float", (
            "verify", "positive", "--omega1", _f(om1), "--omega2", _f(om2),
            "--nmax", str(nmax), "--eq-nmax", str(d.randint(6, 12))))
    return make


def _commutator_float(d: _Draws):
    omegas = ",".join(_f(d.float1()) for _ in range(d.randint(1, 3)))
    return Job("commutator_float", (
        "verify", "commutator", "--mode", "float", "--omegas", omegas))


def _maps_float(d: _Draws):
    pairs = ",".join(f"{_f(a)}:{_f(b)}" for a, b in
                     (d.float_pair() for _ in range(d.randint(1, 3))))
    return Job("maps_float", (
        "verify", "maps", "--mode", "float", "--pairs", pairs))


def _descendants_float(d: _Draws):
    return Job("descendants_float", (
        "verify", "descendants", "--omega", _f(d.float1())))


def _continuum(d: _Draws):
    return Job("continuum", (
        "continuum", "residual", "--l", str(d.randint(-1, 1)),
        "--k", _f(d.uniform(0.8, 1.5)), "--omega", _f(d.float1(0.8, 1.5)),
        "--orders", "5,10,20"))


def _density(d: _Draws):
    om1, om2 = d.float_pair(1.0, 3.0)
    return Job("density", (
        "spectrum", "density", "--omega1", _f(om1), "--omega2", _f(om2),
        "--target=" + _f(d.uniform(-2.0, 2.0)),
        "--nmax", str(d.randint(60, 160))))


def _jordan(d: _Draws):
    a = complex(d.uniform(-1, 1), d.uniform(-1, 1))
    b = complex(d.uniform(-1, 1), d.uniform(-1, 1))
    return Job("jordan", (
        "jordan", "demo", f"--a={a}", f"--b={b}",
        "--t", _f(d.uniform(0.5, 3.0))))


def _gram(d: _Draws):
    deltas = sorted((d.uniform(0.02, 0.6) for _ in range(3)), reverse=True)
    return Job("gram", (
        "gram", "limit", "--level", str(d.randint(1, 4)),
        "--deltas", ",".join(_f(x) for x in deltas),
        "--base-omega", _f(d.float1(0.8, 1.5))))


def _variational_check(d: _Draws):
    # a fixed set count: this kind is the workload's median job, and a
    # drawn count would move the median from seed to seed
    return Job("variational_check", (
        "variational", "check", "--alpha", _f(d.uniform(0, 2)),
        "--beta", _f(d.uniform(0, 2)), "--gamma", _f(d.uniform(0, 2)),
        "--omega", _f(d.float1()), "--sets", "8",
        "--seed", str(d.randint(0, 10 ** 6))))


def _variational_descend(d: _Draws):
    # "--threshold=-1e6", not "--threshold -1e6": argparse reads a bare
    # "-1e6" as an option flag and exits 2.
    return Job("variational_descend", (
        "variational", "descend", "--alpha", _f(d.uniform(0, 2)),
        "--beta", _f(d.uniform(0, 2)), "--gamma", _f(d.uniform(0, 2)),
        "--omega", _f(d.float1()), "--threshold=-1e6"))


def _classical_pair(d: _Draws):
    # the step count grows with the frequencies, so their range is kept
    # narrow: the cost of a job then varies with its verdicts, not its clock
    om1, om2 = d.split_pair(1.3, 1.7, 0.8, 1.2)
    return ["--omega1", _f(om1), "--omega2", _f(om2)]


def _ic(state):
    return "--ic=" + ",".join(_f(v) for v in state)


def _run_pu(csv):
    def make(d: _Draws):
        argv = ["classical", "run", "--system", "pu", *_classical_pair(d),
                _ic(d.state(1.0)), "--t-end", _f(d.uniform(12.0, 18.0))]
        if csv:
            argv += ["--csv", f"{OUT_DIR}/trajectory.csv"]
        return Job("run_pu", tuple(argv))
    return make


def _run_v1(csv):
    def make(d: _Draws):
        argv = ["classical", "run", "--system", "diag_ghost_plus_V1",
                *_classical_pair(d), "--lam", _f(d.uniform(0.05, 0.15)),
                _ic(d.state(0.1)), "--t-end", _f(d.uniform(12.0, 18.0))]
        if csv:
            argv += ["--csv", f"{OUT_DIR}/trajectory.csv"]
        return Job("run_v1", tuple(argv))
    return make


def _run_robert(csv):
    def make(d: _Draws):
        argv = ["classical", "run", "--system", "robert",
                "--omega", _f(d.float1(0.8, 1.5)),
                "--lam", _f(d.uniform(0.5, 1.5)), _ic(d.state(1.0)),
                "--t-end", _f(d.uniform(12.0, 18.0))]
        if csv:
            argv += ["--csv", f"{OUT_DIR}/trajectory.csv"]
        return Job("run_robert", tuple(argv))
    return make


def _envelope_robert(d: _Draws):
    # the slowest kind, so it sets job_tail_s: its cost-driving inputs
    # (frequency, coupling, amplitude, span) are drawn from narrow ranges
    x, _, dd, _ = d.state(1.0)
    return Job("envelope_robert", (
        "classical", "envelope", "--system", "robert",
        "--omega", _f(d.float1(0.95, 1.05)),
        "--lam", _f(d.uniform(0.9, 1.1)),
        _ic((1.0 + x / 10, 0.0, 0.3 + dd / 20, 0.0)),
        "--t-end", _f(d.uniform(100.0, 105.0)), "--window", "10"))


def _scan(coupling, cells, extent, t_probe):
    def make(d: _Draws):
        return Job("scan", (
            "classical", "scan", "--system", "pu_quartic", *_classical_pair(d),
            f"--{coupling}={_f(d.uniform(0.45, 0.55))}", "--cells", str(cells),
            "--extent", _f(extent), "--t-probe", _f(t_probe)))
    return make


# An odd number of strata per workload puts the median job inside one
# stratum's spread rather than in the gap between two.
STRATA = {
    "rational_verify": (
        _eigen_rational(2), _eigen_rational(3), _eigen_rational(4),
        _positive_rational(2), _positive_rational(3), _positive_rational(4),
        _commutator_rational, _maps_rational, _maps_rational,
        _descendants_rational, _identities),
    "float_verify": (
        _eigen_float(6), _eigen_float(8), _eigen_float(10),
        _positive_float(6), _positive_float(8), _positive_float(10),
        _commutator_float, _maps_float, _descendants_float, _continuum,
        _density, _jordan, _gram, _variational_check, _variational_descend),
    "classical_orbits": (
        _run_pu(False), _run_pu(True), _run_v1(False), _run_v1(True),
        _run_robert(False), _run_robert(True), _envelope_robert),
    "classical_scan": (
        _scan("alpha", 5, 3.0, 10.0), _scan("alpha", 3, 2.0, 20.0),
        _scan("alpha", 3, 3.0, 20.0),
        _scan("beta", 3, 2.0, 4.0), _scan("gamma", 3, 2.0, 4.0),
        _scan("beta", 3, 0.5, 6.0), _scan("gamma", 3, 0.5, 6.0)),
}


def plan(workload: str, seed: int) -> list:
    """The seeded rounds of one workload: MAX_ROUNDS lists of jobs."""
    if workload not in STRATA:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    draws = _Draws(seed)
    rounds = []
    for _ in range(MAX_ROUNDS):
        jobs = [make(draws) for make in STRATA[workload]]
        draws.rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def digest(rounds: list) -> str:
    """sha256 of a plan's argv lists."""
    h = hashlib.sha256()
    for jobs in rounds:
        for job in jobs:
            h.update(json.dumps(job.argv).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def gate(job: Job, code, report_text: str, expected_pass=None):
    """Return None when the job's outcome is correct, else the reason.

    ``code`` is the exit code, or the name of the exception the call raised.
    """
    if expected_pass is None:
        expected_pass = EXPECTED[job.kind][0]
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if report.get("pass") is not (code == 0):
        return f"exit code {code} disagrees with pass={report.get('pass')}"
    if report["pass"] is not expected_pass:
        return f"report pass={report['pass']}, expected {expected_pass}"
    checks = {c["name"]: c for c in report["checks"]}
    for c in report["checks"]:
        bad = _check_value(c, job.rational)
        if bad:
            return f"check {c['name']}: {bad}"
    if job.kind in ("run_pu", "run_v1", "run_robert", "envelope_robert"):
        if checks["outcome"]["value"] != "bounded":
            return f"outcome {checks['outcome']['value']}, expected bounded"
    if job.kind == "run_pu" and "energy-drift" not in checks:
        return "no energy-drift check"
    if (job.kind == "scan"
            and checks["origin-cell-bounded"]["value"] is not True):
        return "origin cell not bounded"
    if (job.kind == "envelope_robert"
            and not checks["envelope-slope"]["value"] > 0):
        return "envelope slope not positive"
    return None


def _check_value(c: dict, rational: bool):
    tol, value = c["tolerance"], c["value"]
    if tol is None:
        return None
    if tol == "exact":
        return None if value is True else f"value {value!r} is not true"
    if rational:
        return None if value == 0 else f"value {value!r} is not an exact zero"
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return f"value {value!r} is not a finite number"
    if c["name"] in LOWER_BOUND_CHECKS:
        return None if value > tol else f"value {value!r} <= {tol!r}"
    return None if value <= tol else f"value {value!r} > {tol!r}"
