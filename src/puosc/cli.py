"""Command-line front end: subcommand dispatch and machine-readable reports.

Every subcommand emits a JSON report with the schema

    {"version", "subcommand", "inputs", "checks", "pass"}

where ``checks`` is a list of ``{"name", "anchor", "value", "tolerance",
"pass"}`` records; the anchor names the physics claim a check verifies.
Reports are deterministic for a fixed configuration (sorted keys, no
timestamps, round-trip float formatting) and artifacts are written
atomically.  Exit codes: 0 all checks pass, 1 check failure, 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

# numpy, dynamics and variational are imported by the handlers that use
# them, so that a verify, continuum or spectrum command starts without them
from . import __version__, spectra
from .phasespace import (CLASSICAL_SYSTEMS, MAP_NAMES, SYSTEMS,
                         build_hamiltonian, build_map, transform_equals,
                         verify_symplectic)
from .polyalg import Field, MultiPoly, hermite_table
from .spectra import SpectrumParams


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    anchor: str
    value: object
    tolerance: object
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "anchor": self.anchor, "value": self.value,
                "tolerance": self.tolerance, "pass": self.passed}


@dataclass
class Report:
    subcommand: str
    inputs: dict
    checks: list = field(default_factory=list)

    def add(self, name: str, anchor: str, value, tolerance, passed: bool):
        self.checks.append(Check(name, anchor, value, tolerance, bool(passed)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def write_text_atomic(text: str, path: str):
    """Write via a sibling temp file and rename, so readers never see
    partial artifacts."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".puosc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: Report, args) -> int:
    payload = report.to_json() + "\n"
    if getattr(args, "out", None):
        write_text_atomic(payload, args.out)
    sys.stdout.write(payload)
    return 0 if report.passed else 1


_KINDS = {int: "an integer", float: "a real number",
          Fraction: "a rational number", complex: "a complex number"}


def _number(dest: str, tok: str, kind=float):
    """``tok`` read as a ``kind``, or a usage error naming the flag."""
    try:
        return kind(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{dest.replace('_', '-')} must be {_KINDS[kind]}, "
                         f"got {tok!r}") from None


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_eigen(args) -> Report:
    tol = args.tol
    exact = args.mode == "rational"
    params = SpectrumParams(args.omega1, args.omega2)
    rep = Report("verify eigen", {
        "omega1": float(params.omega1), "omega2": float(params.omega2),
        "nmax": args.nmax, "mode": args.mode, "tol": tol})
    results = spectra.eigen_suite("ghost", params, args.nmax, exact=exact)
    worst = max(r.residual for r in results)
    rep.add("ghost-eigenfunction-residuals", "ghost-spectrum-eigenfunctions",
            worst, tol, worst <= tol)
    return rep


def _cmd_verify_positive(args) -> Report:
    tol = args.tol
    exact = args.mode == "rational"
    f = Field(exact)
    params = SpectrumParams(args.omega1, args.omega2)
    om = args.omega_eq
    rep = Report("verify positive", {
        "omega1": float(params.omega1), "omega2": float(params.omega2),
        "nmax": args.nmax, "eq_nmax": args.eq_nmax, "omega_eq": float(om),
        "mode": args.mode, "tol": tol})
    results = spectra.eigen_suite("positive", params, args.nmax, exact=exact)
    worst = max(r.residual for r in results)
    rep.add("positive-family-residuals", "positive-realization-polynomials",
            worst, tol, worst <= tol)

    # equal-frequency limit in the (x, y) operator form
    z = MultiPoly.linear({"x": f.sqrt(om), "y": f.sqrt(om) * f.num(om)},
                         spectra.XY, exact)
    o_xy = spectra.build_operator("O_xy", omega1=om, omega2=om, exact=exact)
    worst_eq = 0.0
    for n, hn in enumerate(hermite_table(args.eq_nmax, z)):
        dev = (o_xy.apply(hn) - hn * (om * (n + 1))).max_norm()
        worst_eq = max(worst_eq, dev)
    rep.add("equal-frequency-xy-eigenvalues", "equal-frequency-limit",
            worst_eq, tol, worst_eq <= tol)

    # informational: the single-variable operator form scales as 2N+1,
    # not N+1; recorded, never asserted against the spectrum
    o_eq = spectra.build_operator("O_eq", omega=om, exact=exact)
    zvar = MultiPoly.var("z", ("z",), exact)
    worst_z = max((o_eq.apply(hn) - hn * (om * (2 * n + 1))).max_norm()
                  for n, hn in enumerate(hermite_table(args.eq_nmax, zvar)))
    rep.add("z-form-eigenvalue-2n-plus-1 (informational)",
            "equal-frequency-limit", worst_z, None, True)
    return rep


def _cmd_verify_identities(args) -> Report:
    rep = Report("verify identities", {"nmax": args.nmax,
                                       "expmax": args.expmax,
                                       "mode": "rational"})
    ok_sum = all(spectra.hermite_sum_identity(n, m)
                 for n in range(args.nmax + 1)
                 for m in range(args.nmax + 1 - n))
    rep.add("hermite-product-expansion", "hermite-sum-identity",
            bool(ok_sum), "exact", ok_sum)
    ok_exp = all(spectra.exp_hermite_identity(n)
                 for n in range(args.expmax + 1))
    rep.add("gaussian-smoothing-of-powers", "exp-derivative-hermite-identity",
            bool(ok_exp), "exact", ok_exp)
    return rep


def _cmd_verify_commutator(args) -> Report:
    exact = args.mode == "rational"
    omegas = args.omegas
    rep = Report("verify commutator", {"omegas": [float(o) for o in omegas],
                                       "mode": args.mode, "tol": args.tol})
    for om in omegas:
        dev = spectra.commutator_check(om, exact=exact)
        rep.add(f"charge-commutes-at-omega-{float(om):g}",
                "angular-momentum-conservation", dev, args.tol,
                dev <= args.tol)
    return rep


def _random_rational_pairs(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        om1 = Fraction(rng.randint(2, 40), rng.randint(1, 8))
        om2 = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        if om1 > om2 > 0:
            out.append((om1, om2))
    return out


def _cmd_verify_maps(args) -> Report:
    exact = args.mode == "rational"
    pairs = args.pairs
    if args.random_pairs:
        if not exact:
            raise ValueError("random pairs are drawn as rationals; "
                             "use --mode rational")
        pairs = pairs + _random_rational_pairs(args.random_pairs, args.seed)
    # float arithmetic cannot promise exact zeros
    tol = args.tol if args.tol is not None else 0.0 if exact else 1e-12
    rep = Report("verify maps", {
        "pairs": [[float(a), float(b)] for a, b in pairs],
        "mode": args.mode, "tol": tol,
        "random_pairs": args.random_pairs, "seed": args.seed})
    maps = [{name: build_map(name, om1, exact=exact) if name == "rotation"
             else build_map(name, om1, om2, exact=exact) for name in MAP_NAMES}
            for om1, om2 in pairs]
    worst_sym = 0.0
    for pair_maps in maps:
        for m in pair_maps.values():
            worst_sym = max(worst_sym, verify_symplectic(m).max_deviation)
    rep.add("all-maps-symplectic", "canonical-map-symplecticity",
            worst_sym, tol, worst_sym <= tol)

    worst = {"diag": 0.0, "rotation": 0.0, "complexified": 0.0}
    for (om1, om2), m in zip(pairs, maps):
        pu = build_hamiltonian("pu", omega1=om1, omega2=om2, exact=exact)
        ghost = build_hamiltonian("pu_diag_ghost", omega1=om1, omega2=om2,
                                  exact=exact)
        worst["diag"] = max(worst["diag"],
                            transform_equals(pu, m["diag"], ghost))
        htild = build_hamiltonian("htild", omega=om1, exact=exact)
        hprime = build_hamiltonian("hprime", omega=om1, exact=exact)
        worst["rotation"] = max(worst["rotation"],
                                transform_equals(htild, m["rotation"], hprime))
        dpos = build_hamiltonian("diag_positive", omega1=om1, omega2=om2,
                                 exact=exact)
        rot = build_hamiltonian("rot", omega1=om1, omega2=om2, exact=exact)
        worst["complexified"] = max(worst["complexified"], transform_equals(
            dpos, m["complexified"], rot))
    rep.add("ghost-form-diagonalization", "hamiltonian-diagonalization",
            worst["diag"], tol, worst["diag"] <= tol)
    rep.add("rotation-frame-equivalence", "rotation-frame-equivalence",
            worst["rotation"], tol, worst["rotation"] <= tol)
    rep.add("complex-map-diagonalization", "complex-diagonalization",
            worst["complexified"], tol, worst["complexified"] <= tol)
    return rep


def _cmd_verify_descendants(args) -> Report:
    exact = args.mode == "rational"
    om = args.omega
    rep = Report("verify descendants", {"omega": float(om), "tol": args.tol,
                                        "mode": args.mode})
    worst = 0.0
    for order in (0, 1, 2):
        fn = spectra.descendant(order, om, exact=exact)
        worst = max(worst, spectra.descendant_time_residual(fn, om, exact=exact))
    rep.add("jordan-level-descendants", "nonstationary-descendants",
            worst, args.tol, worst <= args.tol)
    worst_free = 0.0
    for order in spectra.FREE_DESCENDANT_ORDERS:
        fn = spectra.free_descendant(order, exact=exact)
        worst_free = max(worst_free,
                         spectra.free_descendant_time_residual(fn, exact=exact))
    rep.add("free-particle-descendants", "free-particle-descendants",
            worst_free, args.tol, worst_free <= args.tol)
    return rep


# ---------------------------------------------------------------------------
# spectral scans
# ---------------------------------------------------------------------------

def _cmd_continuum_residual(args) -> Report:
    orders = args.orders
    if len(set(orders)) < 2:
        raise ValueError("--orders needs at least two distinct orders, "
                         f"got {','.join(map(str, orders))}")
    rep = Report("continuum residual", {
        "l": args.l, "k": args.k, "omega": args.omega, "orders": orders,
        "ratio_tol": args.ratio_tol})
    residuals = {}
    for m in orders:
        r = spectra.continuum_eigenfunction(args.l, args.k, args.omega, m)
        residuals[m] = r.residual
        rep.add(f"residual-at-truncation-{m}", "continuum-series-truncation",
                r.residual, None, True)
    lo, hi = min(orders), max(orders)
    ratio = residuals[hi] / residuals[lo] if residuals[lo] > 0 else 0.0
    rep.add("tail-dominated-decrease", "continuum-series-truncation",
            ratio, args.ratio_tol, ratio <= args.ratio_tol)
    return rep


def _cmd_spectrum_density(args) -> Report:
    res = spectra.density_scan(args.omega1, args.omega2, args.target, args.nmax)
    rep = Report("spectrum density", {
        "omega1": args.omega1, "omega2": args.omega2,
        "target": args.target, "nmax": args.nmax})
    rep.add("minimum-gap", "dense-point-spectrum", res.min_gap, None, True)
    rep.add("minimizer", "dense-point-spectrum", [res.n, res.m], None, True)
    if args.expect is not None:
        ok = abs(res.min_gap - args.expect) <= args.expect_tol
        rep.add("gap-matches-expected", "dense-point-spectrum",
                res.min_gap, args.expect_tol, ok)
    return rep


def _cmd_jordan_demo(args) -> Report:
    import numpy as np

    a = _number("a", args.a, complex)
    b = _number("b", args.b, complex)
    for flag, z in (("--a", a), ("--b", b)):
        if not cmath.isfinite(z):
            raise ValueError(f"{flag} must be finite, got {z}")
    t = args.t
    rep = Report("jordan demo", {"a": args.a, "b": args.b, "t": t,
                                 "tol": args.tol})
    try:
        closed = abs(a - 1j * b * t) ** 2 + abs(b) ** 2
        dev = abs(spectra.jordan_norm_sq(a, b, t, "euclidean") - closed)
        devs = [abs(spectra.jordan_norm_sq(a, b, tt, "degenerate")
                    - abs(b) ** 2) for tt in np.linspace(0.0, max(t, 1.0), 11)]
    except OverflowError:
        closed = math.inf
    if not math.isfinite(closed):
        raise ValueError("--a, --b and --t overflow a float: "
                         "|a - i*b*t|^2 + |b|^2 is out of range")
    rep.add("euclidean-norm-growth", "jordan-block-norm-growth",
            dev, args.tol, dev <= args.tol)
    rep.add("degenerate-metric-constancy", "degenerate-metric-unitarity",
            max(devs), args.tol, max(devs) <= args.tol)
    return rep


def _cmd_gram_limit(args) -> Report:
    values = spectra.gram_minimum_singular_values(args.level, args.deltas,
                                                  args.base_omega)
    rep = Report("gram limit", {"level": args.level, "deltas": args.deltas,
                                "base_omega": args.base_omega})
    rep.add("singular-values", "exceptional-point-coalescence",
            values, None, True)
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    rep.add("strictly-decreasing-toward-coalescence",
            "exceptional-point-coalescence", bool(decreasing), None,
            args.level == 0 or decreasing)
    return rep


# ---------------------------------------------------------------------------
# classical subcommands
# ---------------------------------------------------------------------------

def _system_from_args(args):
    """The ``dynamics.SystemSpec`` of ``--system`` and its parameters."""
    from . import dynamics

    return dynamics.make_system(args.system, **{
        p: getattr(args, p) for p in SYSTEMS[args.system].params})


def _cmd_classical_run(args) -> Report:
    from . import dynamics

    spec = _system_from_args(args)
    traj, verdict = dynamics.integrate(spec, args.ic, args.t_end,
                                       rtol=args.rtol, atol=args.atol)
    rep = Report("classical run", {
        "system": args.system, "params": {k: float(v)
                                          for k, v in spec.params.items()},
        "ic": args.ic, "t_end": args.t_end, "rtol": args.rtol,
        "atol": args.atol, "tol_energy": args.tol_energy})
    rep.add("outcome", "classical-trajectory", verdict.outcome, None, True)
    if verdict.collapsed:
        rep.add("escape-time-estimate", "finite-time-escape",
                verdict.escape_time, None, verdict.escape_time is not None)
    else:
        drift = traj.energy_drift()
        bound = args.tol_energy * (1 + abs(float(traj.energies[0])))
        rep.add("energy-drift", "energy-conservation", drift, bound,
                drift <= bound)
    if args.csv:
        dynamics_text = "\n".join(dynamics.trajectory_csv_lines(traj)) + "\n"
        write_text_atomic(dynamics_text, args.csv)
    return rep


def _cmd_classical_scan(args) -> Report:
    import numpy as np

    from . import dynamics

    spec = _system_from_args(args)
    grid = np.linspace(-args.extent, args.extent, args.cells)
    res = dynamics.stability_scan(spec, grid, grid, args.t_probe,
                                  rtol=args.rtol, atol=args.atol)
    rep = Report("classical scan", {
        "system": args.system, "params": {k: float(v)
                                          for k, v in spec.params.items()},
        "extent": args.extent, "cells": args.cells, "t_probe": args.t_probe,
        "rtol": args.rtol})
    i0 = int(np.argmin(np.abs(res.q_values)))
    j0 = int(np.argmin(np.abs(res.x_values)))
    rep.add("origin-cell-bounded", "stability-island",
            bool(res.bounded[i0, j0]), None, bool(res.bounded[i0, j0]))
    rep.add("bounded-fraction", "stability-island",
            float(res.bounded.mean()), None, True)
    rep.add("island-cells", "stability-island",
            int(res.island.sum()), None, True)
    rep.add("collapsed-cells", "finite-time-escape",
            int((~res.bounded).sum()), None, True)
    if args.out_grid:
        first, second = spec.state_vars[:2]    # the two scanned components
        payload = json.dumps({
            f"{first}_values": [float(v) for v in res.q_values],
            f"{second}_values": [float(v) for v in res.x_values],
            "bounded": res.bounded.astype(int).tolist(),
            "island": res.island.astype(int).tolist(),
        }, sort_keys=True, indent=2) + "\n"
        write_text_atomic(payload, args.out_grid)
    return rep


def _cmd_classical_envelope(args) -> Report:
    from . import dynamics

    spec = _system_from_args(args)
    traj, verdict = dynamics.integrate(spec, args.ic, args.t_end,
                                       rtol=args.rtol, atol=args.atol)
    rep = Report("classical envelope", {
        "system": args.system, "params": {k: float(v)
                                          for k, v in spec.params.items()},
        "ic": args.ic, "t_end": args.t_end, "window": args.window,
        "rtol": args.rtol, "min_correlation": args.min_correlation})
    rep.add("outcome", "classical-trajectory", verdict.outcome, None,
            not verdict.collapsed)
    if verdict.collapsed:
        return rep
    fit = dynamics.envelope_growth(traj, args.window)
    rep.add("envelope-slope", "linear-amplitude-growth", fit.slope, None,
            fit.slope > 0)
    rep.add("envelope-correlation", "linear-amplitude-growth",
            fit.correlation, args.min_correlation,
            fit.correlation > args.min_correlation)
    return rep


# ---------------------------------------------------------------------------
# variational subcommands
# ---------------------------------------------------------------------------

def _cmd_variational_check(args) -> Report:
    import numpy as np

    from . import variational

    rep = Report("variational check", {
        "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
        "omega": args.omega, "sets": args.sets, "seed": args.seed,
        "tol": args.tol})
    rng = np.random.default_rng(args.seed)
    worst_e = 0.0
    worst_g = 0.0
    for _ in range(args.sets):
        a, c = rng.uniform(0.3, 4.0, 2)
        b = rng.uniform(-2.0, 2.0)
        p = variational.AnsatzParams(a, b, c, alpha=args.alpha,
                                     beta=args.beta, gamma=args.gamma,
                                     omega=args.omega)
        e1 = variational.energy_closed_form(p)
        e2 = variational.energy_quadrature(p)
        worst_e = max(worst_e, abs(e1 - e2) / max(1.0, abs(e1)))
        grad = variational.gradient(p)
        fd = _fd_gradient(p)
        for gi, fi in zip(grad, fd):
            worst_g = max(worst_g, abs(gi - fi) / max(1.0, abs(gi)))
    rep.add("closed-form-vs-quadrature", "variational-energy-formula",
            worst_e, args.tol, worst_e <= args.tol)
    rep.add("gradient-vs-finite-differences", "variational-gradient",
            worst_g, args.tol, worst_g <= args.tol)
    return rep


def _fd_gradient(p, h=1e-5):
    from . import variational

    base = {"A": p.A, "B": p.B, "C": p.C, "alpha": p.alpha, "beta": p.beta,
            "gamma": p.gamma, "omega": p.omega}
    out = []
    for name in ("A", "B", "C"):
        up = dict(base)
        dn = dict(base)
        up[name] += h
        dn[name] -= h
        e_up = variational.energy_closed_form(variational.AnsatzParams(**up))
        e_dn = variational.energy_closed_form(variational.AnsatzParams(**dn))
        out.append((e_up - e_dn) / (2 * h))
    return out


def _cmd_variational_descend(args) -> Report:
    from . import variational

    rep = Report("variational descend", {
        "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
        "omega": args.omega, "threshold": args.threshold})
    cert = variational.unbounded_search(args.alpha, args.beta, args.gamma,
                                        args.omega, args.threshold)
    rep.add("terminal-energy", "energy-unbounded-below",
            cert.terminal_energy, args.threshold,
            cert.terminal_energy <= args.threshold)
    rep.add("strictly-decreasing-path", "energy-unbounded-below",
            bool(cert.monotone()), None, cert.monotone())
    rep.add("path-length", "energy-unbounded-below",
            len(cert.path), None, True)
    if args.cert:
        payload = json.dumps(cert.to_dict(), sort_keys=True, indent=2) + "\n"
        write_text_atomic(payload, args.cert)
    return rep


# ---------------------------------------------------------------------------
# command table
# ---------------------------------------------------------------------------

# a flag's range, tested on each value as a float; every value that is not
# an int must also be finite as a float
AT_LEAST_0, ABOVE_0, AT_LEAST_1, IN_0_1 = ">= 0", "> 0", ">= 1", "in (0, 1)"
_BOUNDS = {AT_LEAST_0: lambda x: x >= 0, ABOVE_0: lambda x: x > 0,
           AT_LEAST_1: lambda x: x >= 1, IN_0_1: lambda x: 0 < x < 1}
# kinds read in the subcommand's --mode: a frequency, or omega1:omega2
FREQUENCY, PAIR = "frequency", "pair"


def _system_params(args):
    missing = [f"--{p}" for p in SYSTEMS[args.system].params
               if getattr(args, p) is None]
    if missing:
        raise ValueError(f"{args.system} needs {' and '.join(missing)}")


def _omega_order(args):
    if not args.omega1 > args.omega2:
        raise ValueError(f"--omega1 must be > --omega2, got {args.omega1} "
                         f"and {args.omega2}")


def _ic_length(args):
    n = len(SYSTEMS[args.system].vars)
    if len(args.ic) != n:
        raise ValueError(f"--ic must have {n} components for --system "
                         f"{args.system}, got {len(args.ic)}")


def _window_count(args):
    # the fewest windows dynamics.envelope_growth fits, known before the run
    if not args.t_end / args.window >= 10:
        raise ValueError(f"--t-end must be >= 10 * --window, got {args.t_end} "
                         f"and {args.window}")


@dataclass(frozen=True)
class Flag:
    """One option of a subcommand, spelled ``--dest`` with dashes.  Of the
    kinds of value in ``type``, argparse converts int, float and str, and
    ``_run`` reads FREQUENCY, PAIR and, with ``comma_list``, lists of any.
    ``across(args)`` checks the value against other flags once every flag
    is read and in range."""
    dest: str
    type: object
    default: object = None
    range: str | None = None
    choices: tuple | None = None
    help: str | None = None
    required: bool = False
    comma_list: bool = False
    across: object = None

    @property
    def name(self) -> str:
        return "--" + self.dest.replace("_", "-")


_MODES = ("float", "rational")
_OUT = Flag("out", str, help="report JSON path")
_COUPLINGS = tuple(Flag(c, float, 0.0) for c in ("alpha", "beta", "gamma"))
_VARIATIONAL = (*_COUPLINGS, Flag("omega", float, 1.0, ABOVE_0))


def _mode_tol(mode: str, tol: float) -> tuple:
    return (Flag("mode", str, mode, choices=_MODES),
            Flag("tol", float, tol, AT_LEAST_0))


def _classical_common(rtol: float = 1e-10, atol: float = 1e-12) -> tuple:
    return (Flag("system", str, choices=CLASSICAL_SYSTEMS, required=True,
                 across=_system_params),
            *(Flag(om, float, None, ABOVE_0)
              for om in ("omega1", "omega2", "omega")),
            *_COUPLINGS, Flag("lam", float, 0.0),
            Flag("rtol", float, rtol, IN_0_1),
            Flag("atol", float, atol, IN_0_1))


# (group, what) -> (handler, flags); the order is that of --help
COMMANDS = {
    ("verify", "eigen"): (_cmd_verify_eigen, (
        Flag("omega1", FREQUENCY, "3", ABOVE_0),
        Flag("omega2", FREQUENCY, "1", ABOVE_0, across=_omega_order),
        Flag("nmax", int, 8, AT_LEAST_0), *_mode_tol("float", 1e-9))),
    ("verify", "positive"): (_cmd_verify_positive, (
        Flag("omega1", FREQUENCY, "2", ABOVE_0),
        Flag("omega2", FREQUENCY, "1", ABOVE_0, across=_omega_order),
        Flag("nmax", int, 10, AT_LEAST_0),
        Flag("eq_nmax", int, 12, AT_LEAST_0),
        Flag("omega_eq", FREQUENCY, "1", ABOVE_0),
        *_mode_tol("float", 1e-12))),
    ("verify", "identities"): (_cmd_verify_identities, (
        Flag("nmax", int, 14, AT_LEAST_0,
             help="verify the product expansion for all n+m <= nmax"),
        Flag("expmax", int, 20, AT_LEAST_0),
        Flag("mode", str, "rational", choices=("rational",)))),
    ("verify", "commutator"): (_cmd_verify_commutator, (
        Flag("omegas", FREQUENCY, "1,2", ABOVE_0, comma_list=True),
        *_mode_tol("rational", 1e-12))),
    ("verify", "maps"): (_cmd_verify_maps, (
        Flag("pairs", PAIR, "3:1,2:1", ABOVE_0, comma_list=True,
             help="comma-separated omega1:omega2 pairs"),
        Flag("random_pairs", int, 0, AT_LEAST_0),
        Flag("seed", int, 20259),
        Flag("mode", str, "rational", choices=_MODES),
        Flag("tol", float, None, AT_LEAST_0,
             help="default 0 in rational mode, 1e-12 in float mode"))),
    ("verify", "descendants"): (_cmd_verify_descendants, (
        Flag("omega", FREQUENCY, "1", ABOVE_0), *_mode_tol("float", 1e-12))),
    ("continuum", "residual"): (_cmd_continuum_residual, (
        Flag("l", int, 0), Flag("k", float, 1.0),
        Flag("omega", float, 1.0, ABOVE_0),
        Flag("orders", int, "5,10,20", AT_LEAST_1, comma_list=True),
        Flag("ratio_tol", float, 1e-6, AT_LEAST_0))),
    ("spectrum", "density"): (_cmd_spectrum_density, (
        Flag("omega1", float, math.sqrt(2), ABOVE_0),
        Flag("omega2", float, 1.0, ABOVE_0), Flag("target", float, 0.0),
        Flag("nmax", int, 100, AT_LEAST_0), Flag("expect", float),
        Flag("expect_tol", float, 1e-4, AT_LEAST_0))),
    ("jordan", "demo"): (_cmd_jordan_demo, (
        Flag("a", str, "0"), Flag("b", str, "1"), Flag("t", float, 2.0),
        Flag("tol", float, 1e-14, AT_LEAST_0))),
    ("gram", "limit"): (_cmd_gram_limit, (
        Flag("level", int, 1, AT_LEAST_0),
        Flag("deltas", float, "0.5,0.1,0.02", ABOVE_0, comma_list=True),
        Flag("base_omega", float, 1.0, ABOVE_0))),
    ("classical", "run"): (_cmd_classical_run, (
        *_classical_common(),
        Flag("ic", float, required=True, comma_list=True,
             help="comma-separated 4 components", across=_ic_length),
        Flag("t_end", float, None, ABOVE_0, required=True),
        Flag("tol_energy", float, 1e-6, AT_LEAST_0),
        Flag("csv", str, help="trajectory CSV path"))),
    ("classical", "scan"): (_cmd_classical_scan, (
        *_classical_common(rtol=1e-7, atol=1e-9),
        Flag("extent", float, 3.0, ABOVE_0),
        Flag("cells", int, 9, AT_LEAST_1),
        Flag("t_probe", float, 60.0, ABOVE_0), Flag("out_grid", str))),
    ("classical", "envelope"): (_cmd_classical_envelope, (
        *_classical_common(),
        Flag("ic", float, required=True, comma_list=True, across=_ic_length),
        Flag("t_end", float, 500.0, ABOVE_0),
        Flag("window", float, 25.0, ABOVE_0, across=_window_count),
        Flag("min_correlation", float, 0.9))),
    ("variational", "check"): (_cmd_variational_check, (
        *_VARIATIONAL, Flag("sets", int, 10, AT_LEAST_1),
        Flag("seed", int, 42, AT_LEAST_0),
        Flag("tol", float, 1e-6, AT_LEAST_0))),
    ("variational", "descend"): (_cmd_variational_descend, (
        *_VARIATIONAL, Flag("threshold", float, -1e6),
        Flag("cert", str, help="certificate JSON path"))),
}


def build_parser(chosen: tuple | None = None) -> argparse.ArgumentParser:
    """The argparse tree of ``COMMANDS``, or with ``chosen``, one of its
    ``(group, what)`` keys, only that subcommand's branch."""
    parser = argparse.ArgumentParser(
        prog="puosc",
        description="Verification toolkit for the Pais-Uhlenbeck oscillator")
    parser.add_argument("--config", default=None,
                        help="JSON file of options, read as --key=value "
                             "flags placed before the command line's own")

    def subparsers(p, dest, names):
        # a branch's usage lists every name of the table; the whole tree
        # lists its own choices, and a metavar would rename the argument
        # in argparse's "invalid choice" and "required" errors
        metavar = "{%s}" % ",".join(dict.fromkeys(names)) if chosen else None
        return p.add_subparsers(dest=dest, required=True, metavar=metavar)

    top = subparsers(parser, "group", (group for group, _ in COMMANDS))
    groups = {}
    for (group, what), (handler, flags) in COMMANDS.items():
        if chosen and chosen != (group, what):
            continue
        if group not in groups:
            groups[group] = subparsers(top.add_parser(group), "what", (
                w for g, w in COMMANDS if g == group))
        p = groups[group].add_parser(what)
        p.set_defaults(handler=functools.partial(_run, handler, flags))
        for f in (_OUT, *flags):
            read = f.comma_list or f.type in (FREQUENCY, PAIR)
            p.add_argument(f.name, type=str if read else f.type,
                           default=f.default, choices=f.choices,
                           help=f.help, required=f.required)
    return parser


def _config_flags(argv: list) -> list:
    """Replace each ``--config PATH`` (or ``--config=PATH``) of ``argv`` by
    the file's entries as ``--key=value`` flags placed right after the two
    subcommand tokens, so argparse converts, checks and requires them as it
    does flags, and a flag given later on the command line wins."""
    rest, flags, tokens = [], [], iter(argv)
    for tok in tokens:
        if tok.startswith("--config="):
            path = tok[len("--config="):]
        elif tok == "--config":
            path = next(tokens, None)
            if path is None:
                raise ValueError("--config needs a path")
        else:
            rest.append(tok)
            continue
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise ValueError("expected a JSON object of options")
        for key, value in entries.items():
            if not key.replace("-", "_").isidentifier():
                raise ValueError(f"{key!r} is not an option name")
            # bool is an int, but true/false is no flag text
            if isinstance(value, bool) or not isinstance(value,
                                                         (str, int, float)):
                raise ValueError(f"{key}: expected a JSON string or number, "
                                 f"got {json.dumps(value)}")
            flags.append(f"--{key.replace('_', '-')}={value}")
    return rest[:2] + flags + rest[2:]


def _as_float(x) -> float:
    """``x`` as a float, infinite if it lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:   # a Fraction or an int
        return math.inf if x > 0 else -math.inf


def _run(handler, flags, args) -> Report:
    """Read each of ``flags`` that argparse left as text, check each value
    against its range, naming the flag, in table order; then check the
    flags' constraints across flags, and run ``handler``."""
    frequency = Field(getattr(args, "mode", None) == "rational").param
    for f in flags:
        value = getattr(args, f.dest)
        if value is None or f.type is str:
            continue
        texts, values = [value], [value]    # argparse converted it
        if isinstance(value, str):
            texts = value.split(",") if f.comma_list else [value]
            values = [_read(f, tok, frequency) for tok in texts]
            setattr(args, f.dest, values if f.comma_list else values[0])
        for text, x in zip(texts, values):
            for v in map(_as_float, x if f.type is PAIR else [x]):
                if f.type is not int and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {text}")
                if f.range and not _BOUNDS[f.range](v):
                    raise ValueError(f"{f.name} must be {f.range}, got {text}")
            if f.type is PAIR and not x[0] > x[1]:
                raise ValueError(f"{f.name} must be omega1 > omega2, "
                                 f"got {text}")
    for f in flags:
        if f.across:
            f.across(args)
    return handler(args)


def _read(f: Flag, tok: str, frequency):
    """One entry of ``f``'s text, read with ``frequency`` if a frequency."""
    if f.type is PAIR:
        halves = tok.split(":")
        if len(halves) != 2:
            raise ValueError(f"{f.name} must be omega1:omega2 pairs, "
                             f"got {tok!r}")
        return tuple(_number(f.dest, x, frequency) for x in halves)
    return _number(f.dest, tok, frequency if f.type is FREQUENCY else f.type)


def main(argv=None) -> int:
    try:
        argv = _config_flags(list(sys.argv[1:] if argv is None else argv))
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 3
    except ValueError as err:   # includes JSON and UTF-8 decoding errors
        print(f"error: bad config: {err}", file=sys.stderr)
        return 2
    chosen = tuple(argv[:2])
    parser = build_parser(chosen if chosen in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage or the help
        return 2 if exc.code else 0
    try:
        report = args.handler(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 3
    try:
        return _emit(report, args)
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
