"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else.  AC9's quartic-collapse clause
is implemented exactly as stated; see the project decision log for the
analysis of why the (alpha, beta, gamma) = (0, 0.5, 0) coupling admits no
finite-time escape (its quartic term is self-confining; the q^4 channel
demonstrably collapses and is covered by the regular dynamics tests).
"""

import math
import time
from fractions import Fraction

import numpy as np

from puosc import spectra, variational
from puosc.cli import build_parser
from puosc.dynamics import (envelope_growth, integrate, make_system,
                            stability_scan)
from puosc.phasespace import (MAP_NAMES, build_hamiltonian, build_map,
                              transform_equals, verify_symplectic)
from puosc.polyalg import Field, MultiPoly, hermite
from puosc.spectra import SpectrumParams


def record(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac01_ghost_eigen_residuals():
    start = time.perf_counter()
    worst = 0.0
    for pair in ((3.0, 1.0), (1.9, 0.7)):
        results = spectra.eigen_suite("ghost", SpectrumParams(*pair), 8)
        worst = max(worst, max(r.residual for r in results))
    elapsed = time.perf_counter() - start
    record("AC1", worst <= 1e-9 and elapsed <= 10.0,
           f"ghost residuals n,m<=8 worst {worst:.3e} <= 1e-9 "
           f"in {elapsed:.2f}s <= 10s")


def test_ac02_positive_realization():
    results = spectra.eigen_suite("positive", SpectrumParams(2.0, 1.0), 10)
    worst = max(r.residual for r in results)
    exact = spectra.eigen_suite("positive",
                                SpectrumParams(Fraction(2), Fraction(1)),
                                10, exact=True)
    worst_exact = max(r.residual for r in exact)
    record("AC2", worst <= 1e-12 and worst_exact == 0.0,
           f"positive family n,m<=10 float worst {worst:.3e} <= 1e-12, "
           f"rational worst {worst_exact}")


def test_ac03_equal_frequency_limit():
    num, sqrt_ = Field(True).num, Field(True).sqrt
    worst = 0.0
    for om in (Fraction(1), Fraction(4)):
        o = spectra.build_operator("O_xy", omega1=om, omega2=om, exact=True)
        z = MultiPoly.linear({"x": sqrt_(om), "y": sqrt_(om) * num(om)},
                             spectra.XY, True)
        for n in range(13):
            hn = hermite(n, z)
            worst = max(worst, (o.apply(hn) - hn * (om * (n + 1))).max_norm())
    # the informational z-form record must appear in the report
    parser = build_parser()
    args = parser.parse_args(["verify", "positive", "--nmax", "1",
                              "--eq-nmax", "3"])
    report = args.handler(args)
    informational = [c for c in report.checks
                     if "z-form" in c.name and "informational" in c.name]
    record("AC3", worst == 0.0 and len(informational) == 1,
           f"equal-frequency eigenvalue w(N+1) exact for N<=12 "
           f"(deviation {worst}); z-form discrepancy recorded")


def test_ac04_canonical_map_suite():
    worst_sym = 0.0
    for name in MAP_NAMES:
        m = (build_map(name, Fraction(5, 2), exact=True) if name == "rotation"
             else build_map(name, Fraction(3), Fraction(1), exact=True))
        worst_sym = max(worst_sym, verify_symplectic(m).max_deviation)
    import random
    rng = random.Random(20259)
    pairs = []
    while len(pairs) < 5:
        om1 = Fraction(rng.randint(2, 40), rng.randint(1, 8))
        om2 = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        if om1 > om2 > 0:
            pairs.append((om1, om2))
    worst_tr = 0.0
    for om1, om2 in pairs:
        pu = build_hamiltonian("pu", omega1=om1, omega2=om2, exact=True)
        ghost = build_hamiltonian("pu_diag_ghost", omega1=om1, omega2=om2,
                                  exact=True)
        worst_tr = max(worst_tr, transform_equals(
            pu, build_map("diag", om1, om2, exact=True), ghost))
        htild = build_hamiltonian("htild", omega=om1, exact=True)
        hprime = build_hamiltonian("hprime", omega=om1, exact=True)
        worst_tr = max(worst_tr, transform_equals(
            htild, build_map("rotation", om1, exact=True), hprime))
        dpos = build_hamiltonian("diag_positive", omega1=om1, omega2=om2,
                                 exact=True)
        rot = build_hamiltonian("rot", omega1=om1, omega2=om2, exact=True)
        worst_tr = max(worst_tr, transform_equals(
            dpos, build_map("complexified", om1, om2, exact=True), rot))
    record("AC4", worst_sym == 0.0 and worst_tr == 0.0,
           f"maps symplectic (dev {worst_sym}) and three transport triples "
           f"exact over 5 random rational pairs (dev {worst_tr})")


def test_ac05_conserved_charge():
    devs = [spectra.commutator_check(om, exact=True) for om in (1, 2)]
    record("AC5", all(d == 0.0 for d in devs),
           f"[H, L] exactly zero at omega 1 and 2 (deviations {devs})")


def test_ac06_descendants():
    worst = 0.0
    for om in (1.0, 0.5):
        for order in (0, 1, 2):
            fn = spectra.descendant(order, om)
            worst = max(worst, spectra.descendant_time_residual(fn, om))
    worst_free = 0.0
    for order in spectra.FREE_DESCENDANT_ORDERS:
        fn = spectra.free_descendant(order)
        worst_free = max(worst_free, spectra.free_descendant_time_residual(fn))
    record("AC6", worst <= 1e-12 and worst_free <= 1e-12,
           f"time-dependent residuals: oscillator {worst:.3e}, "
           f"free particle {worst_free:.3e} <= 1e-12")


def test_ac07_continuum_truncation():
    r5 = spectra.continuum_eigenfunction(0, 1.0, 1.0, 5).residual
    r20 = spectra.continuum_eigenfunction(0, 1.0, 1.0, 20).residual
    record("AC7", r20 <= 1e-6 * r5,
           f"continuum residual M=20 ({r20:.3e}) <= 1e-6 * M=5 ({r5:.3e})")


def test_ac08_identities():
    ok_sum = all(spectra.hermite_sum_identity(n, m)
                 for n in range(15) for m in range(15 - n))
    ok_exp = all(spectra.exp_hermite_identity(n) for n in range(21))
    record("AC8", ok_sum and ok_exp,
           "product expansion exact for n+m<=14; "
           "smoothing identity exact for n<=20")


def test_ac09a_free_pu_vs_analytic():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    traj, verdict = integrate(spec, (1.0, 0.0, -4.0, 0.0), 100.0,
                              rtol=1e-10, atol=1e-12)
    ts, ys = traj.resample(0.05)
    err = float(np.max(np.abs(ys[:, 0] - np.cos(2 * ts))))
    record("AC9a", (not verdict.collapsed) and err <= 1e-6,
           f"free run matches cos(2t) to {err:.3e} <= 1e-6 over [0, 100]")


def test_ac09b_benign_benchmark():
    spec = make_system("diag_ghost_plus_V1", omega1=1.2, omega2=1.0, lam=0.1)
    traj, verdict = integrate(spec, (0.1, 0.0, 0.1, 0.0), 1000.0,
                              rtol=1e-10, atol=1e-12)
    drift = traj.energy_drift()
    bound = 1e-6 * (1 + abs(float(traj.energies[0])))
    amp = float(np.max(np.abs(traj.states)))
    record("AC9b", (not verdict.collapsed) and drift <= bound and amp < 1.0,
           f"benign run bounded to t=1e3, drift {drift:.3e} <= {bound:.3e}, "
           f"amplitude stays near the vacuum (max {amp:.3f})")


def test_ac09c_quartic_collapse_as_specified():
    # implemented exactly as stated: couplings (0, 0.5, 0); the scan is
    # expected by the criterion to expose a collapsing exterior cell
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0,
                       alpha=0.0, beta=0.5, gamma=0.0)
    grid = np.linspace(-3.0, 3.0, 5)
    res = stability_scan(spec, grid, grid, 60.0, rtol=1e-7, atol=1e-9)
    collapsed_cells = np.argwhere(~res.bounded)
    ok = False
    detail = "no collapsing cell found on [-3,3]^2 with (0, 0.5, 0)"
    if len(collapsed_cells):
        i, j = collapsed_cells[0]
        _, verdict = integrate(spec, (grid[i], grid[j], 0.0, 0.0), 120.0,
                               rtol=1e-9, atol=1e-11)
        ok = verdict.collapsed and verdict.escape_time is not None \
            and math.isfinite(verdict.escape_time)
        detail = (f"cell ({grid[i]}, {grid[j]}) verdict {verdict.outcome}, "
                  f"escape estimate {verdict.escape_time}")
    record("AC9c", ok, detail)


def test_ac10_gram_degeneracy():
    ok = True
    details = []
    for level in (1, 2):
        vals = spectra.gram_minimum_singular_values(level, (0.5, 0.1, 0.02))
        ok = ok and vals[0] > vals[1] > vals[2]
        details.append(f"N={level}: " + " > ".join(f"{v:.3e}" for v in vals))
    record("AC10", ok, "; ".join(details))


def test_ac11_density():
    r100 = spectra.density_scan(math.sqrt(2), 1.0, 0.0, 100)
    r3 = spectra.density_scan(math.sqrt(2), 1.0, 0.0, 3)
    # enumerated oracle values: (n,m) = (14,20) gives (29 sqrt2 - 41)/2,
    # (n,m) = (2,3) gives (5 sqrt2 - 7)/2
    expected_100 = (29 * math.sqrt(2) - 41) / 2
    ok = abs(r100.min_gap - expected_100) <= 1e-4 \
        and abs(r100.min_gap - 6.1e-3) <= 1e-4 \
        and r100.min_gap < r3.min_gap
    record("AC11", ok,
           f"min gap at N=100 {r100.min_gap:.6e} (~6.1e-3), strictly below "
           f"N=3 value {r3.min_gap:.6e}")


def test_ac12_variational():
    rng = np.random.default_rng(42)
    worst_e = 0.0
    worst_g = 0.0
    h = 1e-5
    for _ in range(10):
        a, c = rng.uniform(0.3, 4.0, 2)
        b = rng.uniform(-2.0, 2.0)
        al, be, ga = rng.uniform(0.0, 1.0, 3)
        p = variational.AnsatzParams(a, b, c, alpha=al, beta=be, gamma=ga)
        e1 = variational.energy_closed_form(p)
        e2 = variational.energy_quadrature(p)
        worst_e = max(worst_e, abs(e1 - e2) / max(1.0, abs(e1)))
        grad = variational.gradient(p)
        base = dict(A=a, B=b, C=c, alpha=al, beta=be, gamma=ga)
        for idx, name in enumerate(("A", "B", "C")):
            up, dn = dict(base), dict(base)
            up[name] += h
            dn[name] -= h
            fd = (variational.energy_closed_form(variational.AnsatzParams(**up))
                  - variational.energy_closed_form(
                      variational.AnsatzParams(**dn))) / (2 * h)
            worst_g = max(worst_g, abs(grad[idx] - fd) / max(1.0,
                                                             abs(grad[idx])))
    cert = variational.unbounded_search(0.0, 0.0, 0.0, 1.0, -1e6)
    ok = worst_e <= 1e-6 and worst_g <= 1e-6 \
        and cert.monotone() and cert.terminal_energy <= -1e6
    record("AC12", ok,
           f"oracle agreement {worst_e:.2e}, gradient agreement {worst_g:.2e} "
           f"<= 1e-6; certificate reaches {cert.terminal_energy:.3e}")


def test_ac13_jordan_demo():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        t = float(rng.uniform(0.0, 12.0))
        closed = abs(a - 1j * b * t) ** 2 + abs(b) ** 2
        worst = max(worst, abs(spectra.jordan_norm_sq(a, b, t) - closed)
                    / max(1.0, closed))
    degen = [spectra.jordan_norm_sq(0.4 + 0.3j, 1.5 - 0.2j, t, "degenerate")
             for t in np.linspace(0.0, 10.0, 21)]
    const_ok = max(degen) - min(degen) <= 1e-14 * max(degen)
    record("AC13", worst <= 1e-14 and const_ok,
           f"euclidean norm matches |a-ibt|^2+|b|^2 to {worst:.1e}; "
           f"degenerate-metric norm constant in t")


def test_ac14_robert_envelope():
    spec = make_system("robert", omega=1.0, lam=1.0)
    traj, verdict = integrate(spec, (1.0, 0.0, 0.3, 0.0), 500.0,
                              rtol=1e-10, atol=1e-12)
    fit = envelope_growth(traj, 25.0)
    ok = (not verdict.collapsed) and fit.slope > 0 and fit.correlation > 0.9
    record("AC14", ok,
           f"windowed amplitude slope {fit.slope:.4f} > 0 with correlation "
           f"{fit.correlation:.4f} > 0.9 over [0, 500]")
