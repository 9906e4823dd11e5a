"""Classical trajectories: adaptive integration with dense output, collapse
detection, stability scans, and envelope growth fits.

The stepper is an explicit Dormand-Prince 5(4) pair with the standard
quartic interpolant for dense output.  Right-hand sides are generated from
the phase-space Hamiltonians through Poisson brackets and compiled to
plain Python expressions, so the vector field used by the integrator is
coefficient-identical to the symbolic one by construction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .phasespace import SYSTEMS, PhasePoly, build_hamiltonian, poisson_bracket
from .polyalg import MultiPoly, to_complex

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = _A[6]
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
    """A classical system: Hamiltonian, state layout, bracket-generated RHS."""

    name: str
    params: dict
    state_vars: tuple
    hamiltonian: PhasePoly
    rhs_polys: tuple

    def rhs_function(self):
        return _compile_polys(self.rhs_polys, self.state_vars)

    def energy_function(self):
        f = _compile_polys((self.hamiltonian.poly,), self.state_vars)
        return lambda y: f(*y)[0]


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


def _compile_polys(polys, state_vars):
    """Compile real polynomials over the state registry to one function."""
    exprs = []
    for poly in polys:
        if poly.vars != tuple(state_vars):
            raise ValueError("polynomial registry does not match state layout")
        parts = []
        for mono, c in poly.terms.items():
            cc = to_complex(c)
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
    src = "def _f({}):\n    return ({},)".format(
        ", ".join(state_vars), ", ".join(exprs))
    ns: dict = {}
    exec(src, {}, ns)
    return ns["_f"]


# ---------------------------------------------------------------------------
# trajectories and collapse verdicts
# ---------------------------------------------------------------------------

@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    min_step: float = math.inf


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
    """Dense-output solution samples with per-step energy record."""

    def __init__(self, spec, times, states, energies, dense, stats):
        self.spec = spec
        self.times = np.asarray(times)
        self.states = np.asarray(states)
        self.energies = np.asarray(energies)
        self._dense = dense            # list of (t0, h, rcont[5, dim])
        self.stats = stats

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def sample(self, t: float) -> np.ndarray:
        """Interpolated state at time t inside the integrated span."""
        if not self._dense:
            raise ValueError("trajectory has no dense output")
        lefts = [seg[0] for seg in self._dense]
        i = bisect.bisect_right(lefts, t) - 1
        i = min(max(i, 0), len(self._dense) - 1)
        t0, h, rc = self._dense[i]
        theta = (t - t0) / h
        theta = min(max(theta, 0.0), 1.0)
        th1 = 1.0 - theta
        return rc[0] + theta * (rc[1] + th1 * (rc[2] + theta * (rc[3] + th1 * rc[4])))

    def resample(self, spacing: float):
        """Uniform grid over the integrated span via the dense interpolant."""
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        t0, t1 = float(self.times[0]), float(self.times[-1])
        n = int(math.floor((t1 - t0) / spacing)) + 1
        ts = t0 + spacing * np.arange(n)
        out = np.empty((n, self.states.shape[1]))
        j = 0
        for seg_i, (s0, h, rc) in enumerate(self._dense):
            hi = s0 + h
            while j < n and (ts[j] <= hi or seg_i == len(self._dense) - 1):
                theta = min(max((ts[j] - s0) / h, 0.0), 1.0)
                th1 = 1.0 - theta
                out[j] = rc[0] + theta * (rc[1] + th1 * (rc[2] + theta *
                                                         (rc[3] + th1 * rc[4])))
                j += 1
            if j >= n:
                break
        return ts, out


def integrate(spec: SystemSpec, s0, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, amplitude_limit: float = AMPLITUDE_LIMIT,
              t0: float = 0.0):
    """Adaptive fifth-order run; returns (Trajectory, CollapseVerdict).

    Terminates early with a collapsed verdict when the state max-norm
    exceeds ``amplitude_limit`` or the step size underflows below
    ``UNDERFLOW_FACTOR * t_end``; the escape time is then estimated from
    the last decade of amplitude growth.
    """
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if not (0 < rtol < 1 and 0 < atol < 1):
        raise ValueError("tolerances must lie in (0, 1)")
    y = np.asarray(s0, dtype=float)
    if y.shape != (len(spec.state_vars),):
        raise ValueError(f"initial state must have {len(spec.state_vars)} "
                         f"components ({spec.state_vars})")
    fc = spec.rhs_function()
    f = lambda yy: np.array(fc(*yy))
    efn = spec.energy_function()

    stats = IntegratorStats()
    times = [t0]
    states = [y.copy()]
    energies = [efn(y)]
    dense = []
    h_floor = UNDERFLOW_FACTOR * (t_end - t0)

    t = t0
    k1 = f(y)
    h = _initial_step(f, y, k1, rtol, atol, t_end - t0)
    verdict = None
    rejected_last = False

    while t < t_end:
        if t_end - t <= h_floor:
            break                      # integrated to within roundoff of t_end
        h = min(h, t_end - t)
        if h < h_floor:
            verdict = CollapseVerdict(
                "collapsed", trigger="stepsize-underflow",
                escape_time=_escape_estimate(times, states, t))
            break
        k = [k1] + [None] * 6
        ok = True
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]) if a)
            if not np.all(np.isfinite(yi)):
                ok = False
                break
            k[i] = f(yi)
        if ok:
            y1 = y + h * sum(b * k[j] for j, b in enumerate(_B) if b)
            ok = bool(np.all(np.isfinite(y1)))
        if not ok:
            stats.rejected += 1
            h *= 0.2
            rejected_last = True
            continue
        err = h * sum(e * k[j] for j, e in enumerate(_E) if e)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        errnorm = float(np.sqrt(np.mean((err / sc) ** 2)))
        if not math.isfinite(errnorm):
            errnorm = math.inf
        if errnorm > 1.0:
            stats.rejected += 1
            h *= max(0.2, 0.9 * errnorm ** -0.2)
            rejected_last = True
            continue

        # accepted
        k6 = k[6] if k[6] is not None else f(y1)
        dy = y1 - y
        bspl = h * k[0] - dy
        rc = np.array([
            y,
            dy,
            bspl,
            dy - h * k6 - bspl,
            h * (_D[0] * k[0] + _D[2] * k[2] + _D[3] * k[3]
                 + _D[4] * k[4] + _D[5] * k[5] + _D[6] * k6),
        ])
        dense.append((t, h, rc))
        t += h
        y = y1
        k1 = k6
        stats.steps += 1
        stats.min_step = min(stats.min_step, h)
        times.append(t)
        states.append(y.copy())
        energies.append(efn(y))

        if float(np.max(np.abs(y))) > amplitude_limit:
            verdict = CollapseVerdict(
                "collapsed", trigger="amplitude-threshold",
                escape_time=_escape_estimate(times, states, t))
            break

        factor = 5.0 if errnorm == 0.0 else min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        if rejected_last:
            factor = min(factor, 1.0)
        h *= factor
        rejected_last = False

    if verdict is None:
        verdict = CollapseVerdict("bounded")
    traj = Trajectory(spec, times, states, energies, dense, stats)
    return traj, verdict


def _initial_step(f, y0, f0, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _escape_estimate(times, states, trigger_time):
    amps = [float(np.max(np.abs(s))) for s in states]
    return estimate_escape_time(times, amps, trigger_time)


def detect_collapse(traj: Trajectory, amplitude_limit: float = AMPLITUDE_LIMIT,
                    t_end: float | None = None) -> CollapseVerdict:
    """Classify a recorded trajectory against the collapse triggers.

    Mirrors the in-loop detection: a state max-norm crossing of
    ``amplitude_limit``, or a recorded step below the underflow floor of
    the requested span (the achieved span when ``t_end`` is omitted).
    """
    amps = np.max(np.abs(traj.states), axis=1)
    over = np.flatnonzero(amps > amplitude_limit)
    if len(over):
        i = int(over[0])
        t_trig = float(traj.times[i])
        est = estimate_escape_time(list(traj.times[:i + 1]),
                                   list(amps[:i + 1]), t_trig)
        return CollapseVerdict("collapsed", trigger="amplitude-threshold",
                               escape_time=est)
    span = (t_end if t_end is not None else float(traj.times[-1])) \
        - float(traj.times[0])
    if traj.stats.min_step < UNDERFLOW_FACTOR * span:
        t_trig = float(traj.times[-1])
        est = estimate_escape_time(list(traj.times), list(amps), t_trig)
        return CollapseVerdict("collapsed", trigger="stepsize-underflow",
                               escape_time=est)
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
    for t, state, h in zip(traj.times, traj.states, traj.energies):
        yield ",".join([repr(float(t))] + [repr(float(v)) for v in state]
                       + [repr(float(h))])


def write_trajectory_csv(traj: Trajectory, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trajectory_csv_lines(traj):
            fh.write(line + "\n")
