"""Classical trajectories: adaptive integration with dense output, collapse
detection, stability scans, and envelope growth fits.

The stepper is an explicit Dormand-Prince 5(4) pair with the standard
quartic interpolant for dense output (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.4-II.6).  Right-hand sides are generated from the phase-space
Hamiltonians through Poisson brackets and compiled to plain Python
expressions, so the vector field used by the integrator is
coefficient-identical to the symbolic one by construction.  Each system
also gets one generated function that makes a whole step attempt on Python
floats, with the tableau constants and the right-hand-side text inlined in
every stage; the accept/reject loop around it stays in ``integrate``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .phasespace import SYSTEMS, PhasePoly, build_hamiltonian, poisson_bracket
from .polyalg import MultiPoly, to_complex

# Dormand-Prince 5(4) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# fifth-order minus embedded fourth-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense-output weights for the quartic interpolant
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)

AMPLITUDE_LIMIT = 1e8
UNDERFLOW_FACTOR = 1e-14

CLASSICAL_SYSTEMS = tuple(n for n, s in SYSTEMS.items() if s.classical)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec:
    """A classical system: Hamiltonian, state layout, bracket-generated RHS.

    The compiled right-hand side, energy and step function are generated on
    first use and cached on the spec.
    """

    name: str
    params: dict
    state_vars: tuple
    hamiltonian: PhasePoly
    rhs_polys: tuple

    def rhs_function(self):
        """The vector field as ``f(*state) -> tuple`` of floats."""
        return self._rhs

    @cached_property
    def _rhs(self):
        return _compile_polys(self.rhs_polys, self.state_vars)

    @cached_property
    def _energy(self):
        return _compile_polys((self.hamiltonian.poly,), self.state_vars)

    @cached_property
    def _step(self):
        return _compile_step(_poly_exprs(self.rhs_polys, self.state_vars),
                             self.state_vars)


def make_system(name: str, **params) -> SystemSpec:
    """Build a SystemSpec; RHS polynomials are the brackets {v, H}."""
    if name not in CLASSICAL_SYSTEMS:
        raise ValueError(f"unknown classical system {name!r}; "
                         f"expected one of {CLASSICAL_SYSTEMS}")
    h = build_hamiltonian(name, **params)
    state_vars = h.poly.vars
    rhs = tuple(
        poisson_bracket(PhasePoly(MultiPoly.var(v, state_vars), h.pairs), h).poly
        for v in state_vars)
    return SystemSpec(name=name, params=dict(params), state_vars=state_vars,
                      hamiltonian=h, rhs_polys=rhs)


def hamilton_rhs(spec: SystemSpec, state) -> np.ndarray:
    """Vector field at one state, from the bracket-generated polynomials."""
    state = np.asarray(state, dtype=float)
    if state.shape != (len(spec.state_vars),):
        raise ValueError(
            f"state must have {len(spec.state_vars)} components "
            f"({spec.state_vars})")
    f = spec.rhs_function()
    return np.array(f(*state))


def _poly_exprs(polys, state_vars):
    """Python expression text of real polynomials over the state registry.

    Powers stay ``x**e``: float ``**`` rounds as numpy's scalar power does,
    where repeated multiplication would not.
    """
    exprs = []
    for poly in polys:
        if poly.vars != tuple(state_vars):
            raise ValueError("polynomial registry does not match state layout")
        parts = []
        for mono, c in poly.terms.items():
            cc = to_complex(c)
            if not cmath.isfinite(cc):
                raise ValueError(
                    f"classical polynomial has a non-finite coefficient {cc}")
            if abs(cc.imag) > 1e-12 * max(1.0, abs(cc)):
                raise ValueError("classical polynomial has a complex coefficient")
            bits = [repr(cc.real)]
            for name, e in zip(poly.vars, mono):
                if e == 1:
                    bits.append(name)
                elif e:
                    bits.append(f"{name}**{e}")
            parts.append("*".join(bits))
        exprs.append(" + ".join(parts) if parts else "0.0")
    return exprs


def _compile(src: str, name: str):
    ns: dict = {}
    exec(src, {"_INF": math.inf, "_sqrt": math.sqrt}, ns)
    return ns[name]


def _compile_polys(polys, state_vars):
    """Compile real polynomials over the state registry to one function."""
    src = "def _f({}):\n    return ({},)".format(
        ", ".join(state_vars), ", ".join(_poly_exprs(polys, state_vars)))
    return _compile(src, "_f")


def _compile_step(rhs_exprs, state_vars):
    """Generate one whole Dormand-Prince attempt on Python floats.

    ``step(h, y, k0, rtol, atol)`` takes the state and its derivative as
    tuples and returns ``(err, evals, y1, k6, record)``: the RMS error norm,
    the RHS evaluations begun, the new state, the derivative there (the next
    step's first stage) and the step's row of dense-output data, ``h`` and
    the stages k0, k2, k3, k4, k5 and k6 flattened.  When a stage point is
    not finite, or a power in a stage overflows, ``err`` is inf and the last
    three are None.

    The arithmetic is the numpy stage loop's, element by element: every
    stage sum starts from ``0 +`` in tableau order (so a sum of negative
    zeros is +0.0, as in numpy), squares are ``r * r``, and the squares are
    summed in index order and divided by n, as ``np.mean`` does for short
    vectors.
    """
    if any(v.startswith("_") for v in state_vars):
        raise ValueError("state variable names may not start with '_'")
    n = len(state_vars)
    comps = range(n)

    def combo(weights, c):
        return "0" + "".join(f" + {w!r} * _k{j}_{c}"
                             for j, w in enumerate(weights) if w)

    failed = "_INF, _n, None, None, None"
    lines = ["def _step(_h, _y, _k0, _rtol, _atol):",
             "    " + "".join(f"_y{c}, " for c in comps) + "= _y",
             "    " + "".join(f"_k0_{c}, " for c in comps) + "= _k0",
             "    _n = 0",
             "    try:"]
    for i in range(1, 7):
        lines += [f"        {v} = _y{c} + _h * ({combo(_A[i], c)})"
                  for c, v in enumerate(state_vars)]
        # v - v is 0.0 for a finite v and nan for inf or nan
        finite = " + ".join(f"({v} - {v})" for v in state_vars)
        lines += [f"        if {finite} != 0.0:",
                  f"            return {failed}",
                  f"        _n = {i}"]
        lines += [f"        _k{i}_{c} = {e}" for c, e in enumerate(rhs_exprs)]
    lines += ["    except OverflowError:",
              f"        return {failed}"]
    # the stage-6 point, still bound to the state names, is the new state
    for c, v in enumerate(state_vars):
        lines += [f"    _a = abs(_y{c})",
                  f"    _b = abs({v})",
                  f"    _r{c} = _h * ({combo(_E, c)}) / "
                  f"(_atol + _rtol * (_a if _a > _b else _b))"]
    squares = " + ".join(f"_r{c} * _r{c}" for c in comps)
    lines += [f"    _err = _sqrt((0.0 + {squares}) / {n})",
              "    return _err, 6, ({}), ({}), (_h, {})".format(
                  "".join(f"{v}, " for v in state_vars),
                  "".join(f"_k6_{c}, " for c in comps),
                  "".join(f"_k{i}_{c}, " for i in (0, 2, 3, 4, 5, 6)
                          for c in comps))]
    return _compile("\n".join(lines), "_step")


# ---------------------------------------------------------------------------
# trajectories and collapse verdicts
# ---------------------------------------------------------------------------

@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    min_step: float = math.inf
    rhs_evals: int = 0


@dataclass
class CollapseVerdict:
    """Outcome of a run: bounded, or collapsed with an escape-time estimate."""

    outcome: str                      # "bounded" | "collapsed"
    trigger: str | None = None        # "amplitude-threshold" | "stepsize-underflow"
    escape_time: float | None = None

    @property
    def collapsed(self) -> bool:
        return self.outcome == "collapsed"


class Trajectory:
    """Accepted states with per-step energies and dense output.

    ``stages`` holds, per accepted step, the step size and the stages
    k0, k2, k3, k4, k5 and k6 in one flat float64 array; the interpolant
    coefficients are built from them on first use.
    """

    def __init__(self, spec, times, states, energies, stages, stats):
        self.spec = spec
        self.times = times
        self.states = states
        self.energies = energies
        self._stages = stages
        self._coeffs = None
        self.stats = stats

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def _coefficients(self):
        """Step sizes and quartic-interpolant coefficients, (steps, 5, dim)."""
        if self._coeffs is None:
            n = self.states.shape[1]
            rows = self._stages.reshape(-1, 1 + 6 * n)
            h = rows[:, :1]
            k0, k2, k3, k4, k5, k6 = (rows[:, 1 + i * n:1 + (i + 1) * n]
                                      for i in range(6))
            y = self.states[:-1]
            dy = self.states[1:] - y
            bspl = h * k0 - dy
            rc = np.stack([
                y, dy, bspl, dy - h * k6 - bspl,
                h * (_D[0] * k0 + _D[2] * k2 + _D[3] * k3 + _D[4] * k4
                     + _D[5] * k5 + _D[6] * k6)], axis=1)
            self._coeffs = (h[:, 0], rc)
        return self._coeffs

    def _interpolate(self, ts: np.ndarray) -> np.ndarray:
        """Dense output at the times ``ts``.

        Each time goes to the first step that ends at or after it (the last
        step for any later time), with theta clamped to [0, 1].
        """
        h, rc = self._coefficients()
        if not len(rc):
            raise ValueError("trajectory has no dense output")
        i = np.minimum(np.searchsorted(self.times[1:], ts), len(rc) - 1)
        theta = np.clip((ts - self.times[i]) / h[i], 0.0, 1.0)[:, None]
        th1 = 1.0 - theta
        c = rc[i]
        return c[:, 0] + theta * (c[:, 1] + th1 * (c[:, 2] + theta * (
            c[:, 3] + th1 * c[:, 4])))

    def sample(self, t: float) -> np.ndarray:
        """Interpolated state at time t inside the integrated span."""
        t0, t1 = float(self.times[0]), self.t_final
        if not t0 <= t <= t1:
            raise ValueError(f"t = {t!r} lies outside the integrated span "
                             f"[{t0!r}, {t1!r}]")
        return self._interpolate(np.array([t], dtype=float))[0]

    def resample(self, spacing: float):
        """Uniform grid over the integrated span via the dense interpolant."""
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        t0, t1 = float(self.times[0]), self.t_final
        n = int(math.floor((t1 - t0) / spacing)) + 1
        ts = t0 + spacing * np.arange(n)
        return ts, self._interpolate(ts)


def integrate(spec: SystemSpec, s0, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, amplitude_limit: float = AMPLITUDE_LIMIT,
              t0: float = 0.0):
    """Adaptive fifth-order run; returns (Trajectory, CollapseVerdict).

    Terminates early with a collapsed verdict when the state max-norm
    exceeds ``amplitude_limit`` or the step size underflows below
    ``UNDERFLOW_FACTOR * (t_end - t0)``; the escape time is then estimated
    from the last decade of amplitude growth.
    """
    # imported on first use, so that importing the package costs no more
    from array import array

    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if not (0 < rtol < 1 and 0 < atol < 1):
        raise ValueError("tolerances must lie in (0, 1)")
    y0 = np.asarray(s0, dtype=float)
    n = len(spec.state_vars)
    if y0.shape != (n,):
        raise ValueError(f"initial state must have {n} components "
                         f"({spec.state_vars})")
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"initial state must be finite, got {y0.tolist()}")
    fc = spec.rhs_function()
    f = lambda yy: np.array(fc(*yy))
    step, energy = spec._step, spec._energy

    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        k1 = f(y0)
        h = _initial_step(f, y0, k1, rtol, atol, t_end - t0)
    y, k0 = tuple(y0.tolist()), tuple(k1.tolist())
    # flat float64 buffers: a few words per step, no object per value
    times = array("d", [t0])
    states = array("d", y)
    energies = array("d", [_energy_at(energy, y)])
    stages = array("d")

    def recorded():
        return np.frombuffer(times), np.frombuffer(states).reshape(-1, n)

    h_floor = UNDERFLOW_FACTOR * (t_end - t0)
    steps = rejected = 0
    rhs_evals = 2                      # k1 and the probe in _initial_step
    min_step = math.inf
    t = t0
    verdict = None
    rejected_last = False

    while t < t_end:
        if t_end - t <= h_floor:
            break                      # integrated to within roundoff of t_end
        h = min(h, t_end - t)
        if h < h_floor:
            verdict = _collapsed("stepsize-underflow", *recorded())
            break
        err, evals, y1, k6, record = step(h, y, k0, rtol, atol)
        rhs_evals += evals
        if not err <= 1.0:             # a nan norm counts as inf
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2
            rejected_last = True
            continue

        # accepted
        stages.extend(record)
        t += h
        y, k0 = y1, k6
        steps += 1
        if h < min_step:
            min_step = h
        times.append(t)
        states.extend(y)
        energies.append(_energy_at(energy, y))

        if max(map(abs, y)) > amplitude_limit:
            verdict = _collapsed("amplitude-threshold", *recorded())
            break

        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if rejected_last:
            factor = min(factor, 1.0)
        h *= factor
        rejected_last = False

    if verdict is None:
        verdict = CollapseVerdict("bounded")
    stats = IntegratorStats(steps, rejected, min_step, rhs_evals)
    traj = Trajectory(spec, *recorded(), np.frombuffer(energies),
                      np.frombuffer(stages), stats)
    return traj, verdict


def _energy_at(energy, y) -> float:
    """H at an accepted state.  Where a float ``**`` overflows, numpy scalars
    give the inf or nan the energy record should hold."""
    try:
        return energy(*y)[0]
    except OverflowError:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(energy(*np.array(y))[0])


def _initial_step(f, y0, f0, rtol, atol, span):
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


def _collapsed(trigger: str, times, states) -> CollapseVerdict:
    """Collapsed verdict at the last recorded state, with the escape-time
    fit over the recorded amplitudes."""
    amps = np.max(np.abs(states), axis=1)
    return CollapseVerdict(
        "collapsed", trigger=trigger,
        escape_time=estimate_escape_time(times, amps, float(times[-1])))


def detect_collapse(traj: Trajectory, amplitude_limit: float = AMPLITUDE_LIMIT,
                    t_end: float | None = None) -> CollapseVerdict:
    """Classify a recorded trajectory by the triggers of ``integrate``.

    The amplitude trigger fires at the first recorded state whose max-norm
    exceeds ``amplitude_limit``.  ``integrate`` stops short of ``t_end`` by
    more than the underflow floor only on a trigger, so a run that does so
    without an amplitude crossing collapsed by step-size underflow; with
    ``t_end`` omitted that trigger is not tested.
    """
    over = np.flatnonzero(np.max(np.abs(traj.states), axis=1)
                          > amplitude_limit)
    if len(over):
        i = int(over[0]) + 1
        return _collapsed("amplitude-threshold", traj.times[:i],
                          traj.states[:i])
    if t_end is not None:
        t0 = float(traj.times[0])
        if t_end - traj.t_final > UNDERFLOW_FACTOR * (t_end - t0):
            return _collapsed("stepsize-underflow", traj.times, traj.states)
    return CollapseVerdict("bounded")


def estimate_escape_time(times, amps, trigger_time: float) -> float:
    """Fit 1/amplitude against time over the last decade of growth.

    Amplitude blowing up like 1/(t* - t) makes 1/a linear in t with root
    t*; fewer than 8 usable points falls back to the trigger time.
    """
    amax = max(amps)
    if amax <= 0:
        return trigger_time
    cutoff = amax / 10.0
    pts = [(t, a) for t, a in zip(times, amps) if a >= cutoff]
    if len(pts) < 8:
        return trigger_time
    ts = np.array([p[0] for p in pts])
    inv = np.array([1.0 / p[1] for p in pts])
    slope, intercept = np.polyfit(ts, inv, 1)
    if slope >= 0:
        return trigger_time
    return float(-intercept / slope)


# ---------------------------------------------------------------------------
# fourth-order equation residual
# ---------------------------------------------------------------------------

def fourth_order_residual(traj: Trajectory, spacing: float = 0.02) -> float:
    """Max residual of q'''' + (w1^2 + w2^2) q'' + w1^2 w2^2 q on a grid.

    Uses 5-point second-derivative stencils on the resampled q and p_x
    series (q'' from q, q'''' from p_x through the canonical identity
    q'' = p_x); double differencing of q alone would amplify dense-output
    noise beyond the stencil truncation error.
    """
    spec = traj.spec
    if spec.state_vars[:2] != ("q", "x"):
        raise ValueError("fourth-order residual applies to the pu family")
    om1 = float(spec.params["omega1"])
    om2 = float(spec.params["omega2"])
    ts, ys = traj.resample(spacing)
    if len(ts) < 5:
        raise ValueError("trajectory too short for the 5-point stencil")
    q = ys[:, 0]
    px = ys[:, 2]
    qdd = _second_derivative_5pt(q, spacing)
    q4 = _second_derivative_5pt(px, spacing)
    inner = slice(2, len(ts) - 2)
    resid = q4 + (om1 ** 2 + om2 ** 2) * qdd + om1 ** 2 * om2 ** 2 * q[inner]
    return float(np.max(np.abs(resid)))


def _second_derivative_5pt(series, h):
    """Fourth-order accurate f'' on the interior of a uniform grid."""
    f = series
    return (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) \
        / (12 * h * h)


# ---------------------------------------------------------------------------
# stability scans and envelope growth
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    q_values: np.ndarray
    x_values: np.ndarray
    bounded: np.ndarray               # bool, shape (len(q), len(x))
    island: np.ndarray                # connected bounded component of origin
    escape_times: dict = field(default_factory=dict)


def stability_scan(spec: SystemSpec, q_values, x_values, t_probe: float,
                   rtol: float = 1e-8, atol: float = 1e-10) -> ScanResult:
    """Probe a (q, x) grid of initial conditions with zero momenta."""
    q_values = np.asarray(q_values, dtype=float)
    x_values = np.asarray(x_values, dtype=float)
    bounded = np.zeros((len(q_values), len(x_values)), dtype=bool)
    escapes = {}
    for i, qv in enumerate(q_values):
        for j, xv in enumerate(x_values):
            _, verdict = integrate(spec, (qv, xv, 0.0, 0.0), t_probe,
                                   rtol=rtol, atol=atol)
            bounded[i, j] = not verdict.collapsed
            if verdict.collapsed:
                escapes[(i, j)] = verdict.escape_time
    island = _flood_fill(bounded, q_values, x_values)
    return ScanResult(q_values, x_values, bounded, island, escapes)


def _flood_fill(bounded, q_values, x_values):
    """Connected bounded component containing the cell nearest the origin."""
    island = np.zeros_like(bounded)
    i0 = int(np.argmin(np.abs(q_values)))
    j0 = int(np.argmin(np.abs(x_values)))
    if not bounded[i0, j0]:
        return island
    stack = [(i0, j0)]
    island[i0, j0] = True
    while stack:
        i, j = stack.pop()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < bounded.shape[0] and 0 <= b < bounded.shape[1] \
                    and bounded[a, b] and not island[a, b]:
                island[a, b] = True
                stack.append((a, b))
    return island


@dataclass
class EnvelopeFit:
    window_times: np.ndarray
    window_maxima: np.ndarray
    slope: float
    correlation: float


def envelope_growth(traj: Trajectory, window: float) -> EnvelopeFit:
    """Windowed amplitude maxima with a least-squares linear fit.

    The amplitude is the state max-norm, which tracks the growing partner
    mode of the integrable ghost systems; the decoupled bounded mode alone
    would hide the growth.
    """
    ts = traj.times
    span = float(ts[-1] - ts[0])
    nwin = int(span / window)
    if nwin < 10:
        raise ValueError("need at least 10 windows for the envelope fit")
    amps = np.max(np.abs(traj.states), axis=1)
    mids, maxima = [], []
    t0 = float(ts[0])
    for k in range(nwin):
        lo, hi = t0 + k * window, t0 + (k + 1) * window
        mask = (ts >= lo) & (ts < hi)
        if not np.any(mask):
            continue
        mids.append(lo + window / 2)
        maxima.append(float(np.max(amps[mask])))
    mids = np.array(mids)
    maxima = np.array(maxima)
    slope = float(np.polyfit(mids, maxima, 1)[0])
    corr = float(np.corrcoef(mids, maxima)[0, 1])
    return EnvelopeFit(mids, maxima, slope, corr)


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

CSV_HEADER = "t,v1,v2,v3,v4,H"


def trajectory_csv_lines(traj: Trajectory):
    """Rows in the export schema, round-trip-exact decimal floats."""
    yield CSV_HEADER
    for t, state, h in zip(traj.times.tolist(), traj.states.tolist(),
                           traj.energies.tolist()):
        yield ",".join(map(repr, [t, *state, h]))


def write_trajectory_csv(traj: Trajectory, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trajectory_csv_lines(traj):
            fh.write(line + "\n")
