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


def test_step_is_compiled_once_per_term_structure():
    a = make_system("pu_quartic", omega1=1.3, omega2=0.6, alpha=0.2)
    b = make_system("pu_quartic", omega1=2.1, omega2=0.9, alpha=0.7)
    assert a._step is not b._step
    assert a._step.__code__ is b._step.__code__
    assert a._run is not b._run
    assert a._run.__code__ is b._run.__code__
    assert a._rhs.__code__ is b._rhs.__code__
    assert a._energy.__code__ is b._energy.__code__
    assert a._rhs(1.0, 1.0, 1.0, 1.0) != b._rhs(1.0, 1.0, 1.0, 1.0)
    # a gamma term in place of the alpha term is another structure
    c = make_system("pu_quartic", omega1=1.3, omega2=0.6, gamma=0.2)
    assert c._step.__code__ is not a._step.__code__
    assert c._run.__code__ is not a._run.__code__
    assert c._rhs.__code__ is not a._rhs.__code__


def _literal_exprs(polys, state_vars):
    """The expression text as generated before coefficients became names:
    each coefficient inlined as its ``repr``."""
    from puosc.polyalg import to_complex

    exprs = []
    for poly in polys:
        parts = []
        for mono, c in poly.terms.items():
            bits = [repr(to_complex(c).real)]
            for name, e in zip(state_vars, mono):
                if e == 1:
                    bits.append(name)
                elif e:
                    bits.append(f"{name}**{e}")
            parts.append("*".join(bits))
        exprs.append(" + ".join(parts) if parts else "0.0")
    return tuple(exprs)


def _literal_function(exprs, state_vars):
    ns = {}
    exec("def _f({}):\n    return ({},)".format(", ".join(state_vars),
                                               ", ".join(exprs)), {}, ns)
    return ns["_f"]


def _outcome(fn, *args):
    """Bits of a call's floats, or the exception it raised."""
    try:
        out = fn(*args)
    except OverflowError:
        return "OverflowError"
    flat = []
    for v in out:
        flat += v if isinstance(v, tuple) else [v]
    return [v if v is None else float(v).hex() for v in flat]


def _run_outcome(spec, ic, t_end, kw):
    """Bits of a whole run's times, states, verdict and stats, or the text
    of the ValueError it raised."""
    try:
        traj, verdict = integrate(spec, ic, t_end, **kw)
    except ValueError as exc:
        return str(exc)
    s = traj.stats
    return (_bits(traj.times), _bits(traj.states.ravel()), verdict.outcome,
            verdict.trigger, _bits([verdict.escape_time or 0.0]),
            (s.steps, s.rejected, s.min_step.hex(), s.rhs_evals))


# whole runs for the generated loop: a run to t_end, and a weakly coupled
# quartic blowup whose attempts overflow on its way to step-size underflow
_WHOLE_RUNS = [
    ((0.3, -0.2, 0.5, 0.1), 20.0, {"rtol": 1e-9, "atol": 1e-12}),
    ((1e100,) * 4, 60.0, {"rtol": 1e-2, "atol": 1e-6,
                          "amplitude_limit": math.inf}),
]


@pytest.mark.parametrize("name, params", [
    ("pu", {"omega1": 1.9, "omega2": 0.7}),
    ("pu_quartic", {"omega1": 1.3, "omega2": 0.6, "alpha": 0.2, "beta": -0.4,
                    "gamma": 0.7}),
    ("pu_quartic", {"omega1": 1.0, "omega2": 1.0, "alpha": 0.5}),
    ("robert", {"omega": 1.0, "lam": 1.0}),
    ("robert_gamma", {"omega": 1.4, "lam": 0.8, "gamma": 0.3}),
    ("diag_ghost_plus_V1", {"omega1": 1.2, "omega2": 1.0, "lam": 0.1}),
    ("pu_quartic", {"omega1": 1.0, "omega2": 1.0, "alpha": 1e-200}),
])
def test_bound_functions_match_inlined_literals(name, params):
    # the step and loop text around the right-hand side did not change, so
    # the reference step and loop are the module's generators fed the
    # literal text
    import dataclasses

    from puosc.dynamics import _compile_run, _compile_step

    spec = make_system(name, **params)
    vars_ = spec.state_vars
    rhs_text = _literal_exprs(spec.rhs_polys, vars_)
    rhs = _literal_function(rhs_text, vars_)
    energy = _literal_function(
        _literal_exprs((spec.hamiltonian.poly,), vars_), vars_)
    step = _compile_step(rhs_text, vars_, 0)()
    assert step.__code__ is not spec._step.__code__
    rng = np.random.default_rng(17)
    for i in range(60):
        y = tuple((rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)).tolist())
        if i % 20 == 0:
            y = (1e120, -1e110, 3.0, -0.0)       # powers overflow
        assert _outcome(spec._rhs, *y) == _outcome(rhs, *y)
        assert _outcome(spec._energy, *y) == _outcome(energy, *y)
        k0 = spec._rhs(*y) if i % 20 else (0.0, 0.0, 1e300, -1e300)
        h = float(10.0 ** rng.uniform(-4, 0))
        assert _outcome(spec._step, h, y, k0, 1e-6, 1e-9) \
            == _outcome(step, h, y, k0, 1e-6, 1e-9)
    literal = dataclasses.replace(spec)
    literal._run = _compile_run(rhs_text, vars_, 0)()
    assert literal._run.__code__ is not spec._run.__code__
    for ic, t_end, kw in _WHOLE_RUNS:
        assert _run_outcome(spec, ic, t_end, kw) \
            == _run_outcome(literal, ic, t_end, kw)


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


def _numpy_initial_step(f, y0, f0, rtol, atol, span):
    """The first step size on numpy arrays, as ``integrate`` chose it before
    it moved to Python floats; ``f`` maps an array to an array."""
    sc = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not h0 > 0:
        raise ValueError(
            f"no initial step size: the vector field at the initial state, "
            f"scaled by atol + rtol*|y0|, has RMS norm {d1!r}; the initial "
            f"state is too large or atol too small")
    h0 = min(h0, span)
    f1 = f(y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _numpy_reference(spec, s0, t_end, rtol, atol, amplitude_limit):
    """The numpy integration loop, kept as the reference:
    (times, states, energies, steps, rejected, trigger, coefficients), the
    last the step sizes and interpolant coefficients built from the stages
    of the accepted attempts."""
    from puosc.dynamics import UNDERFLOW_FACTOR

    rhs = spec.rhs_function()

    def f(y):
        return np.array(rhs(*y))

    def energy(y):
        return spec._energy(*y)[0]

    y = np.asarray(s0, dtype=float)
    k1 = f(y)
    h = _numpy_initial_step(f, y, k1, rtol, atol, t_end)
    t, times, states, energies = 0.0, [0.0], [y], [energy(y)]
    h_floor = UNDERFLOW_FACTOR * t_end
    steps = rejected = 0
    rejected_last, trigger = False, None
    hs, stages = [], []
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
        hs.append(h)
        stages.append(k)
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
    states = np.array(states)
    return (np.array(times), states, np.array(energies), steps,
            rejected, trigger, _numpy_coefficients(hs, stages, states))


def _numpy_coefficients(hs, stages, states):
    """Step sizes and quartic-interpolant coefficients, (steps, 5, dim),
    from each accepted step's size and seven stages."""
    from puosc.dynamics import _D

    n = states.shape[1]
    h = np.array(hs, dtype=float)[:, None]
    k = np.array(stages, dtype=float).reshape(-1, 7, n)
    y = states[:-1]
    dy = states[1:] - y
    bspl = h * k[:, 0] - dy
    dense = _D[0] * k[:, 0]
    for j in range(2, 7):
        dense = dense + _D[j] * k[:, j]
    rc = np.stack([y, dy, bspl, dy - h * k[:, 6] - bspl, h * dense], axis=1)
    return h[:, 0], rc


_REFERENCE_RUNS = [
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
]


def _reference_run(name, params, ic, t_end, kw):
    kw = {"rtol": 1e-10, "atol": 1e-12, "amplitude_limit": 1e8, **kw}
    spec = make_system(name, **params)
    traj, verdict = integrate(spec, ic, t_end, **kw)
    return spec, kw, traj, verdict, _numpy_reference(spec, ic, t_end, **kw)


@pytest.mark.parametrize("name, params, ic, t_end, kw", _REFERENCE_RUNS)
def test_generated_step_matches_numpy_reference(name, params, ic, t_end, kw):
    _, _, traj, verdict, reference = _reference_run(name, params, ic, t_end,
                                                    kw)
    times, states, energies, steps, rejected, trigger, _ = reference
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.energies, energies)
    assert (traj.stats.steps, traj.stats.rejected) == (steps, rejected)
    assert verdict.trigger == trigger


@pytest.mark.parametrize("name, params, ic, t_end, kw", _REFERENCE_RUNS)
def test_dense_output_rebuild_matches_numpy_stages(name, params, ic, t_end,
                                                   kw):
    # integrate records no stages; the interpolant replays the generated
    # step over the recorded steps and must give the stages of the run
    spec, kw, traj, _, reference = _reference_run(name, params, ic, t_end, kw)
    want_h, want_rc = reference[-1]
    h, rc = traj._coefficients()
    assert h.shape == want_h.shape and rc.shape == want_rc.shape
    assert h.tobytes() == want_h.tobytes()
    assert rc.tobytes() == want_rc.tobytes()
    # each replayed attempt is the accepted one: its new state is the next
    # recorded state, and under the run's tolerances it passes
    k0 = spec.rhs_function()(*traj.states[0].tolist())
    for i, (hi, y) in enumerate(zip(h.tolist(), traj.states.tolist())):
        err, evals, y1, k0, _ = spec._step(hi, y, k0, kw["rtol"], kw["atol"])
        assert evals == 6 and err <= 1.0
        assert _bits(y1) == _bits(traj.states[i + 1])


def _bits(values):
    """Values as hex strings, so that equality is bit for bit (nan == nan)."""
    return [float(v).hex() for v in values]


def _check_initial_step(spec, y, rtol, atol, span):
    """The first derivative and step size on Python floats equal the numpy
    ones bit for bit, or both raise the same ValueError."""
    from puosc.dynamics import _evaluate, _initial_step

    rhs = spec.rhs_function()
    f = lambda yy: np.array(rhs(*yy))   # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(np.array(y))
        try:
            want = _numpy_initial_step(f, np.array(y), k1, rtol, atol, span)
        except ValueError as exc:
            want = exc
    k0 = _evaluate(rhs, y)
    assert _bits(k0) == _bits(k1)
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as exc:
            _initial_step(rhs, y, k0, rtol, atol, span)
        assert str(exc.value) == str(want)
        return None
    got = _initial_step(rhs, y, k0, rtol, atol, span)
    assert got.hex() == want.hex()
    return got


_SPECS = {
    "pu": ("pu", {"omega1": 1.5, "omega2": 1.1}),
    "pu_quartic": ("pu_quartic", {"omega1": 1.3, "omega2": 0.6, "alpha": 0.2,
                                  "beta": 0.4, "gamma": 0.7}),
    "robert_gamma": ("robert_gamma", {"omega": 1.4, "lam": 0.8,
                                      "gamma": 0.3}),
    "diag": ("diag_ghost_plus_V2", {"omega1": 1.2, "omega2": 1.0,
                                    "lam": 0.1}),
}


@pytest.mark.parametrize("key", _SPECS)
def test_initial_step_matches_numpy_on_seeded_states(key):
    name, params = _SPECS[key]
    spec = make_system(name, **params)
    rng = np.random.default_rng(29)
    for _ in range(40):
        y = rng.normal(size=4) * 10.0 ** rng.uniform(-4, 4, size=4)
        y[rng.random(4) < 0.25] = 0.0
        y[rng.random(4) < 0.15] = -0.0
        _check_initial_step(spec, tuple(y.tolist()),
                            10.0 ** rng.uniform(-12, -1),
                            10.0 ** rng.uniform(-14, -1),
                            float(rng.choice([1e-3, 5.0, 100.0])))
    for y in [(0.0,) * 4, (-0.0,) * 4, (-0.0, 1.0, -2.5, 0.0)]:
        _check_initial_step(spec, y, 1e-9, 1e-12, 10.0)


def test_initial_step_falls_back_to_numpy_scalars_on_overflow():
    # the probe moves q from 5.6e102 past 5.64e102, where q**3 overflows;
    # its infinite derivative leaves no first step
    quartic = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=1e-200)
    y = (5.6e102, 1e103, 0.0, 1e150)
    assert all(map(math.isfinite, quartic.rhs_function()(*y)))
    assert _check_initial_step(quartic, y, 1e-300, 1e-3, 10.0) == 0.0
    # q**3 overflows at the state itself: the scaled RMS norm is inf
    quartic = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    y = (1e120, 0.0, 0.0, 0.0)
    with pytest.raises(OverflowError):
        quartic.rhs_function()(*y)
    with pytest.raises(ValueError, match="no initial step size.*RMS norm inf"):
        integrate(quartic, y, 10.0)
    assert _check_initial_step(quartic, y, 1e-8, 1e-10, 10.0) is None


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


def _attempt_by_attempt(spec, s0, t_end, rtol, atol, amplitude_limit):
    """The accept/reject loop with one ``spec._step`` call per attempt, as
    ``integrate`` ran it before the loop was generated: (times, states,
    stats, trigger, evals of each failed attempt)."""
    from puosc.dynamics import (UNDERFLOW_FACTOR, IntegratorStats, _evaluate,
                                _initial_step)

    f = spec.rhs_function()
    y = tuple(float(v) for v in s0)
    k0 = _evaluate(f, y)
    h = _initial_step(f, y, k0, rtol, atol, t_end)
    h_floor = UNDERFLOW_FACTOR * t_end
    t, times, states = 0.0, [0.0], [y]
    stats = IntegratorStats(rhs_evals=2)
    rejected_last, trigger, failed = False, None, []
    while t < t_end:
        if t_end - t <= h_floor:
            break
        h = min(h, t_end - t)
        if h < h_floor:
            trigger = "stepsize-underflow"
            break
        err, evals, y1, k6, _ = spec._step(h, y, k0, rtol, atol)
        stats.rhs_evals += evals
        if y1 is None:
            failed.append(evals)
        if not err <= 1.0:
            stats.rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2
            rejected_last = True
            continue
        t += h
        y, k0 = y1, k6
        stats.steps += 1
        stats.min_step = min(stats.min_step, h)
        times.append(t)
        states.append(y)
        if max(map(abs, y)) > amplitude_limit:
            trigger = "amplitude-threshold"
            break
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if rejected_last:
            factor = min(factor, 1.0)
        h *= factor
        rejected_last = False
    return times, states, stats, trigger, failed


_WEAK_QUARTIC = ("pu_quartic", {"omega1": 1.0, "omega2": 1.0,
                                "alpha": 1e-200})

# runs with rejected attempts and the RHS evaluations after which some of
# their attempts fail: the weakly coupled quartic grows from 1e100 until its
# cubes overflow, to the amplitude trigger or, with no limit, to step-size
# underflow (after 1 and after 4 evaluations, as the overflowing attempts of
# test_overflowing_stages_are_rejected_like_numpy)
_REJECTING_RUNS = [
    (*_WEAK_QUARTIC, (1e100,) * 4, 60.0,
     {"rtol": 1e-6, "atol": 1e-6, "amplitude_limit": 1.4e107},
     "amplitude-threshold", {4}),
    (*_WEAK_QUARTIC, (1e100,) * 4, 60.0,
     {"rtol": 1e-2, "atol": 1e-6, "amplitude_limit": math.inf},
     "stepsize-underflow", {1, 4}),
    ("pu_quartic", {"omega1": 1.0, "omega2": 1.0, "alpha": 0.5},
     (2.0, 0.0, 0.0, 0.0), 60.0,
     {"rtol": 1e-2, "atol": 1e-12, "amplitude_limit": math.inf},
     "stepsize-underflow", set()),
]


@pytest.mark.parametrize("name, params, ic, t_end, kw, trigger, fails", [
    *_REJECTING_RUNS,
    ("pu", {"omega1": 1.5, "omega2": 1.1}, (0.3, -0.2, 0.5, 0.1), 30.0,
     {"rtol": 1e-9, "atol": 1e-12, "amplitude_limit": 1e8}, None, set())])
def test_stats_match_attempt_by_attempt_reference(name, params, ic, t_end, kw,
                                                  trigger, fails):
    spec = make_system(name, **params)
    traj, verdict = integrate(spec, ic, t_end, **kw)
    times, states, stats, want_trigger, failed = \
        _attempt_by_attempt(spec, ic, t_end, **kw)
    assert traj.stats == stats
    assert verdict.trigger == want_trigger == trigger
    assert _bits(traj.times) == _bits(times)
    assert _bits(traj.states.ravel()) == _bits(np.ravel(states))
    assert fails <= set(failed)


@pytest.mark.parametrize("name, params, ic, t_end, kw, trigger, fails",
                         _REJECTING_RUNS)
def test_recorded_states_are_finite(name, params, ic, t_end, kw, trigger,
                                    fails):
    # an accepted state passed the stage-6 finiteness test, which is why
    # the generated amplitude test need not order a nan or inf
    traj, verdict = integrate(make_system(name, **params), ic, t_end, **kw)
    assert verdict.trigger == trigger
    assert traj.stats.rejected > 0
    assert np.isfinite(traj.states).all() and np.isfinite(traj.times).all()


def test_energy_record_keeps_overflow_as_inf():
    from puosc.dynamics import _energy_at

    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    assert _energy_at(spec._energy, (1e100, 0.0, 0.0, 0.0)) == math.inf
    assert _energy_at(spec._energy, (2.0, 0.0, 0.0, 0.0)) \
        == spec._energy(2.0, 0.0, 0.0, 0.0)[0]


def test_energies_are_evaluated_on_first_read(monkeypatch):
    from puosc.dynamics import _energy_at

    spec = make_system("pu_quartic", omega1=1.0, omega2=1.0, alpha=0.5)
    energy, calls = spec._energy, []

    def counted(*y):
        calls.append(y)
        return energy(*y)

    monkeypatch.setattr(spec, "_energy", counted)
    grid = np.array([-2.0, 0.0, 2.0])
    stability_scan(spec, grid, grid, 10.0)
    traj, verdict = integrate(spec, (2.0, 0.0, 0.0, 0.0), 60.0, rtol=1e-2,
                              amplitude_limit=math.inf)
    assert calls == []
    assert verdict.trigger == "stepsize-underflow"
    energies = traj.energies
    assert len(calls) == len(traj.states) and traj.energies is energies
    want = [_energy_at(energy, y) for y in traj.states.tolist()]
    assert _bits(energies) == _bits(want)
    # H overflows at this state: it is recorded as inf
    huge, _ = integrate(spec, (2e77, 1e150, 1e232, 1e232), 1.0, rtol=0.5,
                        atol=0.5, amplitude_limit=math.inf)
    assert huge.energies.tolist() == [math.inf]


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
