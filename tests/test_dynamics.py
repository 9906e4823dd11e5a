import math

import numpy as np
import pytest

from puosc.dynamics import (detect_collapse, envelope_growth,
                            estimate_escape_time, fourth_order_residual,
                            hamilton_rhs, integrate, make_system,
                            stability_scan, write_trajectory_csv)


def pu_analytic_state(coeffs, om1, om2, t):
    """State (q, x, p_x, p_q) of the general two-frequency solution."""
    a, b, c, d = coeffs
    s1, c1 = math.sin(om1 * t), math.cos(om1 * t)
    s2, c2 = math.sin(om2 * t), math.cos(om2 * t)
    q = a * c1 + b * s1 + c * c2 + d * s2
    dq = -a * om1 * s1 + b * om1 * c1 - c * om2 * s2 + d * om2 * c2
    ddq = -om1 ** 2 * (a * c1 + b * s1) - om2 ** 2 * (c * c2 + d * s2)
    dddq = om1 ** 3 * (a * s1 - b * c1) + om2 ** 3 * (c * s2 - d * c2)
    p_q = -dddq - (om1 ** 2 + om2 ** 2) * dq
    return np.array([q, dq, ddq, p_q])


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_pu_rhs_partials():
    spec = make_system("pu", omega1=1.0, omega2=1.0)
    out = hamilton_rhs(spec, (1.0, 0.0, 0.0, 0.0))
    # qdot = x, xdot = p_x, p_x dot = -p_q - 2x, p_q dot = q
    assert out == pytest.approx([0.0, 0.0, 0.0, 1.0])
    out = hamilton_rhs(spec, (0.0, 1.0, 0.0, 0.0))
    assert out == pytest.approx([1.0, 0.0, -2.0, 0.0])


def test_v1_vacuum_is_fixed_point():
    spec = make_system("diag_ghost_plus_V1", omega1=1.2, omega2=1.0, lam=0.1)
    assert hamilton_rhs(spec, np.zeros(4)) == pytest.approx(np.zeros(4))


def test_robert_rhs():
    spec = make_system("robert", omega=1.0, lam=0.0)
    out = hamilton_rhs(spec, (1.0, 0.0, 0.0, 0.0))
    assert out == pytest.approx([0.0, 0.0, 0.0, -1.0])


def test_rhs_against_hand_written_oracle():
    rng = np.random.default_rng(41)
    spec = make_system("pu_quartic", omega1=1.3, omega2=0.6,
                       alpha=0.2, beta=0.4, gamma=0.7)
    om2sum = 1.3 ** 2 + 0.6 ** 2
    om2prod = (1.3 * 0.6) ** 2
    for _ in range(10):
        q, x, px, pq = rng.normal(size=4)
        want = np.array([
            x,
            px,
            -pq - om2sum * x - 0.4 * 2 * q * q * x - 0.7 * 4 * x ** 3,
            om2prod * q - 0.2 * 4 * q ** 3 - 0.4 * 2 * q * x * x,
        ])
        assert hamilton_rhs(spec, (q, x, px, pq)) == pytest.approx(want)


def test_diag_family_second_order_form():
    # X1'' = -w1^2 X1 - dV/dX1 and X2'' = -w2^2 X2 + dV/dX2, symbolically
    from fractions import Fraction

    from puosc.phasespace import (DIAG_PAIRS, DIAG_VARS, PhasePoly,
                                  build_hamiltonian, poisson_bracket)
    from puosc.polyalg import MultiPoly

    om1, om2, lam = Fraction(6, 5), Fraction(1), Fraction(1, 10)
    for name in ("diag_ghost_plus_V1", "diag_ghost_plus_V2"):
        h = build_hamiltonian(name, omega1=om1, omega2=om2, lam=lam,
                              exact=True)
        x1 = MultiPoly.var("X1", DIAG_VARS, exact=True)
        x2 = MultiPoly.var("X2", DIAG_VARS, exact=True)
        if name == "diag_ghost_plus_V1":
            v = (x1 - x2) * (x1 + x2) ** 3 * lam
        else:
            v = (x1 - x2) ** 3 * (x1 + x2) * lam
        for coord, om, sign in (("X1", om1, -1), ("X2", om2, 1)):
            vel = poisson_bracket(
                PhasePoly(MultiPoly.var(coord, DIAG_VARS, exact=True),
                          DIAG_PAIRS), h)
            acc = poisson_bracket(vel, h).poly
            var = MultiPoly.var(coord, DIAG_VARS, exact=True)
            want = var * (-om ** 2) + v.diff(coord) * sign
            assert acc == want


def test_robert_gamma_rhs_oracle():
    rng = np.random.default_rng(13)
    spec = make_system("robert_gamma", omega=1.4, lam=0.8, gamma=0.3)
    for _ in range(5):
        x, p, d, pp = rng.normal(size=4)
        want = np.array([
            pp,
            -d * (1.4 ** 2 + 3 * 0.8 * x * x),
            p - 0.3 * pp,
            -(1.4 ** 2 * x + 0.8 * x ** 3) + 0.3 * d,
        ])
        assert hamilton_rhs(spec, (x, p, d, pp)) == pytest.approx(want)


def test_rhs_state_layouts():
    assert make_system("pu", omega1=2, omega2=1).state_vars \
        == ("q", "x", "p_x", "p_q")
    assert make_system("diag_ghost_plus_V2", omega1=2, omega2=1,
                       lam=0.3).state_vars == ("X1", "P1", "X2", "P2")
    assert make_system("robert_gamma", omega=1, lam=1,
                       gamma=0.1).state_vars == ("x", "p", "D", "P")
    with pytest.raises(ValueError):
        make_system("lorenz")
    with pytest.raises(ValueError):
        hamilton_rhs(make_system("pu", omega1=2, omega2=1), (1.0, 2.0))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_coefficients_are_rejected(alpha):
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=alpha)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        integrate(spec, [1.0, 0.0, 0.0, 0.0], 5.0)


# ---------------------------------------------------------------------------
# integration accuracy
# ---------------------------------------------------------------------------

def test_free_pu_matches_pure_mode():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    ic = pu_analytic_state((1, 0, 0, 0), 2.0, 1.0, 0.0)
    traj, verdict = integrate(spec, ic, 100.0, rtol=1e-10, atol=1e-12)
    assert not verdict.collapsed
    ts, ys = traj.resample(0.1)
    assert np.max(np.abs(ys[:, 0] - np.cos(2 * ts))) <= 1e-6


def test_free_pu_matches_general_solution():
    coeffs = (0.3, -0.7, 1.1, 0.4)
    om1, om2 = 1.9, 0.7
    spec = make_system("pu", omega1=om1, omega2=om2)
    ic = pu_analytic_state(coeffs, om1, om2, 0.0)
    traj, _ = integrate(spec, ic, 50.0, rtol=1e-10, atol=1e-12)
    for t in np.linspace(0.0, 50.0, 23):
        want = pu_analytic_state(coeffs, om1, om2, float(t))
        assert np.max(np.abs(traj.sample(float(t)) - want)) <= 1e-6


def _pu_field(om1, om2):
    def f(t, s):
        q, x, px, pq = s
        return [x, px, -pq - (om1 ** 2 + om2 ** 2) * x, om1 ** 2 * om2 ** 2 * q]
    return f


def _robert_field(om, lam):
    def f(t, s):
        x, p, d, pp = s
        return [pp, -d * (om ** 2 + 3 * lam * x * x), p,
                -(om ** 2 * x + lam * x ** 3)]
    return f


@pytest.mark.parametrize("name, params, field, ic, t_end", [
    ("pu", {"omega1": 1.9, "omega2": 0.7}, _pu_field(1.9, 0.7),
     (0.3, -0.7, 1.1, 0.4), 50.0),
    ("robert", {"omega": 1.0, "lam": 1.0}, _robert_field(1.0, 1.0),
     (1.0, 0.0, 0.3, 0.0), 60.0),
])
def test_matches_scipy_dop853(name, params, field, ic, t_end):
    # an independent integrator on hand-written vector fields; at rtol
    # 1e-10 the global error over these spans is below 1e-8 of the orbit
    scipy_integrate = pytest.importorskip("scipy.integrate")
    spec = make_system(name, **params)
    traj, verdict = integrate(spec, ic, t_end, rtol=1e-10, atol=1e-12)
    assert not verdict.collapsed
    assert traj.t_final == pytest.approx(t_end, rel=1e-12)
    ref = scipy_integrate.solve_ivp(field, (0.0, t_end), ic, method="DOP853",
                                    rtol=1e-13, atol=1e-13, dense_output=True)
    want = ref.sol(traj.times).T
    scale = np.max(np.abs(traj.states))
    assert np.max(np.abs(want - traj.states)) <= 2e-8 * scale


def test_sample_and_resample_share_one_interpolant():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    traj, _ = integrate(spec, (1.0, 0.0, 0.0, 0.0), 10.0, rtol=1e-9)
    ts, ys = traj.resample(0.3)
    for j in (0, 5, len(ts) - 1):
        assert np.array_equal(traj.sample(float(ts[j])), ys[j])
    assert traj.sample(traj.t_final) == pytest.approx(traj.states[-1],
                                                      abs=1e-12)
    for t in (-1e-9, traj.t_final + 1e-9, math.nan):
        with pytest.raises(ValueError, match="outside the integrated span"):
            traj.sample(t)
    # a run that underflows on its first step has no dense output
    quartic = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    empty, verdict = integrate(quartic, (1e10, 0.0, 0.0, 0.0), 1e-3,
                               rtol=0.1, atol=1e-6, amplitude_limit=math.inf)
    assert (empty.stats.steps, verdict.trigger) == (0, "stepsize-underflow")
    with pytest.raises(ValueError, match="no dense output"):
        empty.resample(1e-4)


def test_tolerance_validation():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    with pytest.raises(ValueError):
        integrate(spec, np.zeros(4), 1.0, rtol=0.0)
    with pytest.raises(ValueError):
        integrate(spec, np.zeros(4), 1.0, rtol=1e-8, atol=2.0)
    with pytest.raises(ValueError):
        integrate(spec, np.zeros(4), -1.0)
    with pytest.raises(ValueError):
        integrate(spec, np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(spec, (math.inf, 0.0, 0.0, 0.0), 1.0)


def test_adaptive_order_scaling():
    # for an order-5 pair the step count grows like rtol^(-1/5)
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    ic = pu_analytic_state((1, 0, 0, 0), 2.0, 1.0, 0.0)
    rtols = [1e-5, 1e-7, 1e-9, 1e-11]
    steps = []
    errs = []
    for rtol in rtols:
        traj, _ = integrate(spec, ic, 20.0, rtol=rtol, atol=1e-14)
        steps.append(traj.stats.steps)
        errs.append(abs(traj.sample(20.0)[0] - math.cos(40.0)))
    slope = np.polyfit(np.log(1.0 / np.array(rtols)), np.log(steps), 1)[0]
    assert 0.12 <= slope <= 0.30
    assert errs[2] < errs[0]


def test_energy_drift_on_benign_run():
    spec = make_system("diag_ghost_plus_V1", omega1=1.2, omega2=1.0, lam=0.1)
    traj, verdict = integrate(spec, (0.1, 0.0, 0.1, 0.0), 200.0,
                              rtol=1e-10, atol=1e-12)
    assert not verdict.collapsed
    assert traj.energy_drift() <= 1e-6 * (1 + abs(float(traj.energies[0])))


def _numpy_attempt(f, h, y, k0, rtol, atol):
    """One attempt of the numpy stage loop that the generated step replaced:
    (error norm, new state, stages); the norm is inf when a stage point is
    not finite.  The last stage point is the new state."""
    from puosc.dynamics import _A, _E

    k = [k0]
    for row in _A[1:]:
        yi = y + h * sum(a * kj for a, kj in zip(row, k) if a)
        if not np.all(np.isfinite(yi)):
            return math.inf, None, k
        k.append(f(yi))
    err = h * sum(e * kj for e, kj in zip(_E, k) if e)
    sc = atol + rtol * np.maximum(np.abs(y), np.abs(yi))
    errnorm = float(np.sqrt(np.mean((err / sc) ** 2)))
    return (errnorm if math.isfinite(errnorm) else math.inf), yi, k


def _numpy_reference(spec, s0, t_end, rtol, atol, amplitude_limit):
    """The numpy integration loop, kept as the reference:
    (times, states, energies, steps, rejected, trigger)."""
    from puosc.dynamics import UNDERFLOW_FACTOR, _initial_step

    rhs = spec.rhs_function()

    def f(y):
        return np.array(rhs(*y))

    def energy(y):
        return spec._energy(*y)[0]

    y = np.asarray(s0, dtype=float)
    k1 = f(y)
    h = _initial_step(f, y, k1, rtol, atol, t_end)
    t, times, states, energies = 0.0, [0.0], [y], [energy(y)]
    h_floor = UNDERFLOW_FACTOR * t_end
    steps = rejected = 0
    rejected_last, trigger = False, None
    while t < t_end and t_end - t > h_floor:
        h = min(h, t_end - t)
        if h < h_floor:
            trigger = "stepsize-underflow"
            break
        errnorm, y1, k = _numpy_attempt(f, h, y, k1, rtol, atol)
        if errnorm > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * errnorm ** -0.2)
            rejected_last = True
            continue
        t += h
        y, k1 = y1, k[6]
        steps += 1
        times.append(t)
        states.append(y)
        energies.append(energy(y))
        if float(np.max(np.abs(y))) > amplitude_limit:
            trigger = "amplitude-threshold"
            break
        factor = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        h *= min(factor, 1.0) if rejected_last else factor
        rejected_last = False
    return (np.array(times), np.array(states), np.array(energies), steps,
            rejected, trigger)


@pytest.mark.parametrize("name, params, ic, t_end, kw", [
    # long enough that squaring the error terms with ** in place of *
    # moves a state (step 3812 of 4588)
    ("pu", {"omega1": 1.5, "omega2": 1.1}, (0.3, -0.2, 0.5, 0.1), 100.0, {}),
    ("robert", {"omega": 1.0, "lam": 1.0}, (1.0, 0.0, 0.3, 0.0), 20.0,
     {"rtol": 1e-9}),
    # collapses through the amplitude trigger
    ("pu_quartic", {"omega1": 1.0, "omega2": 1.0, "alpha": 0.5},
     (2.0, 0.0, 0.0, 0.0), 60.0, {"rtol": 1e-9}),
    # with no amplitude limit the blowup ends in step-size underflow, after
    # rejected steps
    ("pu_quartic", {"omega1": 1.0, "omega2": 1.0, "alpha": 0.5},
     (2.0, 0.0, 0.0, 0.0), 60.0, {"rtol": 1e-2, "amplitude_limit": math.inf}),
])
def test_generated_step_matches_numpy_reference(name, params, ic, t_end, kw):
    kw = {"rtol": 1e-10, "atol": 1e-12, "amplitude_limit": 1e8, **kw}
    spec = make_system(name, **params)
    traj, verdict = integrate(spec, ic, t_end, **kw)
    times, states, energies, steps, rejected, trigger = \
        _numpy_reference(spec, ic, t_end, **kw)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.energies, energies)
    assert (traj.stats.steps, traj.stats.rejected) == (steps, rejected)
    assert verdict.trigger == trigger


def test_overflowing_stages_are_rejected_like_numpy():
    # numpy turns an overflowing power into inf; the generated step, whose
    # float ** raises instead, reports an infinite error norm
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    rhs = spec.rhs_function()
    f = lambda y: np.array(rhs(*y))   # noqa: E731
    for y, k0, evals in [
            ((1e60, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -2e180), 4),
            ((1e200, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -1e308), 1),
            ((0.3, 0.1, -0.2, 0.5), tuple(rhs(0.3, 0.1, -0.2, 0.5)), 6)]:
        with np.errstate(all="ignore"):
            want, want_y1, k = _numpy_attempt(f, 1.0, np.array(y),
                                              np.array(k0), 1e-6, 1e-6)
        err, n, y1, k6, _ = spec._step(1.0, y, k0, 1e-6, 1e-6)
        assert (err, n) == (want, evals)
        if n == 6:
            assert (y1, k6) == (tuple(want_y1), tuple(k[6]))


def test_energy_record_keeps_overflow_as_inf():
    from puosc.dynamics import _energy_at

    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    assert _energy_at(spec._energy, (1e100, 0.0, 0.0, 0.0)) == math.inf
    assert _energy_at(spec._energy, (2.0, 0.0, 0.0, 0.0)) \
        == spec._energy(2.0, 0.0, 0.0, 0.0)[0]


def test_stats_count_rhs_evaluations():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    traj, _ = integrate(spec, (1.0, 0.0, 0.0, 0.0), 10.0, rtol=1e-9)
    s = traj.stats
    # two to choose the first step, six per attempt
    assert s.rhs_evals == 2 + 6 * (s.steps + s.rejected)


def test_integration_is_deterministic():
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, beta=0.5)
    a, _ = integrate(spec, (1.0, 0.5, 0.0, 0.0), 10.0, rtol=1e-9)
    b, _ = integrate(spec, (1.0, 0.5, 0.0, 0.0), 10.0, rtol=1e-9)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


# ---------------------------------------------------------------------------
# collapse detection
# ---------------------------------------------------------------------------

def test_linear_run_is_bounded():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    _, verdict = integrate(spec, (1.0, 0.0, 0.0, 0.0), 50.0, rtol=1e-10)
    assert verdict.outcome == "bounded"
    assert verdict.trigger is None


def test_escape_time_fit_on_synthetic_pole():
    t_star = 10.0
    times = np.linspace(9.995, 9.99999, 400)
    amps = 1.0 / (t_star - times)
    est = estimate_escape_time(list(times), list(amps), trigger_time=9.99999)
    assert abs(est - t_star) <= 0.01 * t_star


def test_escape_fit_falls_back_with_few_points():
    est = estimate_escape_time([0.0, 1.0], [1.0, 2.0], trigger_time=1.0)
    assert est == 1.0


def test_quartic_q4_channel_collapses():
    # alpha > 0 admits the real self-similar blowup q ~ (t*-t)^-2
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    traj, verdict = integrate(spec, (2.0, 0.0, 0.0, 0.0), 60.0, rtol=1e-9)
    assert verdict.collapsed
    assert verdict.trigger == "amplitude-threshold"
    assert verdict.escape_time is not None
    assert traj.t_final <= verdict.escape_time * 1.05
    # the estimate is reproducible
    _, verdict2 = integrate(spec, (2.0, 0.0, 0.0, 0.0), 60.0, rtol=1e-9)
    assert verdict2.escape_time == verdict.escape_time


def test_robert_is_benign():
    spec = make_system("robert", omega=1.0, lam=1.0)
    _, verdict = integrate(spec, (1.0, 0.0, 0.3, 0.0), 120.0, rtol=1e-9)
    assert verdict.outcome == "bounded"


def test_post_hoc_classification_matches_in_loop_verdict():
    quartic = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    traj, verdict = integrate(quartic, (2.0, 0.0, 0.0, 0.0), 60.0, rtol=1e-9)
    post = detect_collapse(traj, t_end=60.0)
    assert post.outcome == verdict.outcome == "collapsed"
    assert post.trigger == verdict.trigger
    assert post.escape_time == pytest.approx(verdict.escape_time, rel=1e-9)

    free = make_system("pu", omega1=2.0, omega2=1.0)
    traj, verdict = integrate(free, (1.0, 0.0, 0.0, 0.0), 30.0, rtol=1e-9)
    post = detect_collapse(traj, t_end=30.0)
    assert post.outcome == verdict.outcome == "bounded"
    assert post.trigger is None

    # with no amplitude limit the same blowup stops on step-size underflow
    traj, verdict = integrate(quartic, (2.0, 0.0, 0.0, 0.0), 60.0, rtol=1e-6,
                              amplitude_limit=math.inf)
    post = detect_collapse(traj, amplitude_limit=math.inf, t_end=60.0)
    assert verdict.trigger == post.trigger == "stepsize-underflow"
    assert post.escape_time == verdict.escape_time
    assert detect_collapse(traj, amplitude_limit=math.inf).outcome == "bounded"


# ---------------------------------------------------------------------------
# fourth-order equation residual
# ---------------------------------------------------------------------------

def test_fourth_order_residual_pure_mode():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    ic = pu_analytic_state((1, 0, 0, 0), 2.0, 1.0, 0.0)
    traj, _ = integrate(spec, ic, 60.0, rtol=1e-10, atol=1e-12)
    _, ys = traj.resample(0.02)
    assert fourth_order_residual(traj) <= 1e-4 * np.max(np.abs(ys[:, 0]))


def test_fourth_order_residual_zero_solution():
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    traj, _ = integrate(spec, np.zeros(4), 10.0, rtol=1e-10)
    assert fourth_order_residual(traj) == 0.0


def test_fourth_order_residual_random_ic_omega3():
    rng = np.random.default_rng(4)
    spec = make_system("pu", omega1=3.0, omega2=1.0)
    ic = rng.normal(size=4)
    traj, _ = integrate(spec, ic, 40.0, rtol=1e-10, atol=1e-12)
    _, ys = traj.resample(0.02)
    assert fourth_order_residual(traj) <= 1e-4 * np.max(np.abs(ys[:, 0]))


def test_fourth_order_residual_needs_pu_family():
    spec = make_system("robert", omega=1.0, lam=0.0)
    traj, _ = integrate(spec, (1.0, 0.0, 0.0, 0.0), 10.0, rtol=1e-9)
    with pytest.raises(ValueError):
        fourth_order_residual(traj)
    pu = make_system("pu", omega1=2.0, omega2=1.0)
    short, _ = integrate(pu, (1.0, 0.0, 0.0, 0.0), 0.05, rtol=1e-9)
    with pytest.raises(ValueError):
        fourth_order_residual(short, spacing=0.02)


# ---------------------------------------------------------------------------
# scans and envelopes
# ---------------------------------------------------------------------------

def test_stability_scan_alpha_channel():
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    grid = np.array([-2.0, 0.0, 2.0])
    res = stability_scan(spec, grid, grid, 40.0, rtol=1e-8)
    assert res.bounded[1, 1]            # the vacuum cell
    assert not res.bounded[0, 0]        # corners escape
    assert not res.bounded[2, 2]
    assert res.island[1, 1]
    assert not res.island[0, 0]
    assert all(t is not None for t in res.escape_times.values())


def test_stability_scan_small_radius_all_bounded():
    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    grid = np.linspace(-0.05, 0.05, 3)
    res = stability_scan(spec, grid, grid, 30.0, rtol=1e-8)
    assert res.bounded.all()
    assert res.island.all()


def test_envelope_growth_robert():
    spec = make_system("robert", omega=1.0, lam=1.0)
    traj, _ = integrate(spec, (1.0, 0.0, 0.3, 0.0), 260.0, rtol=1e-9)
    fit = envelope_growth(traj, 25.0)
    assert fit.slope > 0
    assert fit.correlation > 0.9
    with pytest.raises(ValueError):
        envelope_growth(traj, 100.0)     # fewer than 10 windows


def test_envelope_flat_for_decoupled_linear():
    spec = make_system("robert", omega=1.0, lam=0.0)
    traj, _ = integrate(spec, (1.0, 0.0, 0.3, 0.0), 260.0, rtol=1e-9)
    fit = envelope_growth(traj, 25.0)
    assert abs(fit.slope) < 1e-6


def test_envelope_reported_for_gamma_variant():
    # exploratory: the damped-partner variant reports a fit, no asserted law
    spec = make_system("robert_gamma", omega=1.0, lam=1.0, gamma=0.05)
    traj, verdict = integrate(spec, (1.0, 0.0, 0.3, 0.0), 160.0, rtol=1e-9)
    assert not verdict.collapsed
    fit = envelope_growth(traj, 16.0)
    assert np.isfinite(fit.slope) and np.isfinite(fit.correlation)


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    spec = make_system("pu", omega1=2.0, omega2=1.0)
    traj, _ = integrate(spec, (1.0, 0.0, -4.0, 0.0), 5.0, rtol=1e-9)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v1,v2,v3,v4,H"
    assert len(lines) == len(traj.times) + 1
    for i in (1, len(lines) // 2, len(lines) - 1):
        fields = [float(tok) for tok in lines[i].split(",")]
        k = i - 1
        assert fields[0] == traj.times[k]
        assert fields[1:5] == list(traj.states[k])
        assert fields[5] == traj.energies[k]
