"""Quantum spectra of the Pais-Uhlenbeck oscillator and its relatives.

Builds the Hamiltonians and the conserved charge as differential
operators, constructs every eigenfunction family (ghost, positive
realization, equal-frequency degenerate, truncated continuum,
non-stationary descendants) and measures eigen-residuals as coefficient
norms after exact operator application, so no grids or quadrature enter
the verification.  The ghost and positive families are built in one place,
:func:`eigen_suite`, which shares the Hermite tables of all members.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Exact
from .polyalg import (DiffOp, ExpPolyFn, Field, MultiPoly, exp_diff_apply,
                      hermite, hermite_table, quad_exponent)

QX = ("q", "x")
QXT = ("q", "x", "t")
XY = ("x", "y")


class EqualFrequencyError(ValueError):
    """Raised by constructions that degenerate at equal frequencies."""


@dataclass(frozen=True)
class SpectrumParams:
    """Frequency pair with the convention omega1 >= omega2 > 0."""

    omega1: float | Fraction
    omega2: float | Fraction

    def __post_init__(self):
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("frequencies must be positive")
        if self.omega1 < self.omega2:
            raise ValueError("expected omega1 >= omega2")

    @property
    def delta(self):
        return self.omega1 - self.omega2

    def require_unequal(self):
        if self.omega1 == self.omega2:
            raise EqualFrequencyError(
                "construction is singular at equal frequencies")


@dataclass
class EigenResult:
    """A wavefunction with its eigenvalue and measured residual."""

    wavefunction: ExpPolyFn
    energy: complex
    residual: float
    labels: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def energy(kind: str, n: int, m: int, params: SpectrumParams):
    """Level energy: ghost (n+1/2)w1 - (m+1/2)w2, positive realization
    (n+1/2)w1 + (m+1/2)w2, or the degenerate equal-frequency w(n-m)."""
    if n < 0 or m < 0:
        raise ValueError("level indices must be nonnegative")
    om1, om2 = params.omega1, params.omega2
    if kind == "ghost":
        return (2 * n + 1) * om1 / 2 - (2 * m + 1) * om2 / 2
    if kind == "positive":
        return (2 * n + 1) * om1 / 2 + (2 * m + 1) * om2 / 2
    if kind == "degenerate":
        if om1 != om2:
            raise EqualFrequencyError("degenerate spectrum needs omega1 == omega2")
        return om1 * (n - m)
    raise ValueError(f"unknown spectrum kind {kind!r}")


def density_scan(omega1, omega2, target: float, nmax: int):
    """Exhaustive min over n, m <= nmax of |E_nm(ghost) - target|."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    omega1, omega2 = Field(False).frequencies(
        "density_scan", ("omega1", "omega2"), omega1=omega1, omega2=omega2)
    best = None
    arg = (0, 0)
    for n in range(nmax + 1):
        en = (n + 0.5) * omega1
        for m in range(nmax + 1):
            gap = abs(en - (m + 0.5) * omega2 - target)
            if best is None or gap < best:
                best, arg = gap, (n, m)
    return DensityScanResult(min_gap=best, n=arg[0], m=arg[1],
                             target=target, nmax=nmax)


@dataclass
class DensityScanResult:
    min_gap: float
    n: int
    m: int
    target: float
    nmax: int


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

OPERATOR_PARAMS = {
    "H_pu": ("omega1", "omega2"), "H_tilde": ("omega",),
    "H_interacting": ("omega",), "O_xy": ("omega1", "omega2"),
    "O_zw": ("omega1", "omega2"), "O_eq": ("omega",), "L_charge": ("omega",),
    "H_free_particle": (),
}
OPERATOR_NAMES = tuple(OPERATOR_PARAMS)
_OPERATOR_VARS = {"O_xy": XY, "O_zw": ("z", "w"), "O_eq": ("z",),
                  "H_free_particle": ("x",)}


def build_operator(name: str, *, omega1=None, omega2=None, omega=None,
                   alpha=0, beta=0, gamma=0, exact: bool = False) -> DiffOp:
    """Quantum operators with momenta realized as -i d/dv."""
    if name not in OPERATOR_PARAMS:
        raise ValueError(
            f"unknown operator {name!r}; expected one of {OPERATOR_NAMES}")
    f = Field(exact)
    om1, om2, om = f.frequencies(name, OPERATOR_PARAMS[name], omega1=omega1,
                                 omega2=omega2, omega=omega)
    num, sqrt, i_, half = f.num, f.sqrt, f.i, f.frac(1, 2)
    vars = _OPERATOR_VARS.get(name, QX)
    one = DiffOp.identity(vars, exact)

    def c(v):
        return DiffOp.coordinate(v, vars, exact)

    def d(v, order=1):
        return DiffOp.derivative(v, vars, exact, order=order)

    if name == "H_pu":
        return (-i_) * (c("x") * d("q")) - d("x", 2) * num(half) \
            + c("x") ** 2 * num((om1 ** 2 + om2 ** 2) * half) \
            - c("q") ** 2 * num(om1 ** 2 * om2 ** 2 * half)

    if name in ("H_tilde", "H_interacting"):
        op = -d("x", 2) * num(half) + i_ * num(om ** 2) * (c("q") * d("x")) \
            - i_ * (c("x") * d("q"))
        if name == "H_interacting":
            op = op + c("q") ** 4 * num(alpha) \
                + c("q") ** 2 * c("x") ** 2 * num(beta) + c("x") ** 4 * num(gamma)
        return op

    if name == "O_xy":
        return -d("x", 2) * num(half) - c("x") * d("y") \
            + c("x") * d("x") * num(om1 + om2) + c("y") * d("x") * num(om1 * om2) \
            + one * num((om1 + om2) * half)

    if name == "O_zw":
        if om1 == om2:
            raise EqualFrequencyError(
                "O_zw is stated for distinct z, w variables")
        dz, dw = d("z"), d("w")
        return (dz * dz * num(-half) + c("z") * dz) * num(om1) \
            + (dw * dw * num(-half) + c("w") * dw) * num(om2) \
            - (dz * dw) * sqrt(om1 * om2) + one * num((om1 + om2) * half)

    if name == "O_eq":
        dz = d("z")
        return (-(dz * dz) + c("z") * dz * 2 + one) * num(om)

    if name == "L_charge":
        quarter = f.frac(1, 4)
        px = DiffOp.momentum("x", QX, exact)
        pq = DiffOp.momentum("q", QX, exact)
        return c("x") * pq * num(half / om) - c("q") * px * num(om * half) \
            + (px * px - pq * pq * num(om ** -2)) * num(quarter / om) \
            + (c("x") * c("x")) * num(3 * om * quarter) \
            - (c("q") * c("q")) * num(3 * om ** 3 * quarter)

    return d("x", 2) * num(-half)                      # H_free_particle


def commutator_check(omega, exact: bool = False) -> float:
    """Max coefficient norm of [H_pu(w, w), L(w)]; zero when L is conserved."""
    h = build_operator("H_pu", omega1=omega, omega2=omega, exact=exact)
    l_op = build_operator("L_charge", omega=omega, exact=exact)
    return h.commutator(l_op).max_norm()


# ---------------------------------------------------------------------------
# eigenfunction families
# ---------------------------------------------------------------------------

def _residual(op: DiffOp, fn: ExpPolyFn, energy_value, relative: bool = True) -> float:
    """Max coefficient norm of (op - E) fn, over that of E fn if E fn != 0."""
    scaled = fn.poly * energy_value
    r = (op.apply(fn).poly - scaled).max_norm()
    if not relative:
        return r
    scale = scaled.max_norm()
    return r / scale if scale > 0 else r


def _ghost_arguments(om1, om2, f: Field):
    """Hermite arguments of the ghost family: H+ at i sqrt(w1) (w2 q - i x),
    H- at sqrt(w2) (w1 q + i x)."""
    s1, s2 = f.sqrt(om1), f.sqrt(om2)
    return (MultiPoly.linear({"q": f.i * s1 * f.num(om2), "x": s1}, QX, f.exact),
            MultiPoly.linear({"q": s2 * f.num(om1), "x": f.i * s2}, QX, f.exact))


class _Family:
    """The ghost or positive family at one frequency pair.

    Holds the two Hermite tables up to ``kmax``, the coupling ``lam`` of the
    double-Hermite sum, the registry, the Gaussian kernel and the name of
    the operator the members are eigenfunctions of.
    """

    def __init__(self, kind: str, params: SpectrumParams, kmax: int,
                 exact: bool):
        params.require_unequal()
        f = Field(exact)
        num, sqrt, i_ = f.num, f.sqrt, f.i
        om1, om2 = f.param(params.omega1), f.param(params.omega2)
        if kind == "ghost":
            first, second = _ghost_arguments(om1, om2, f)
            self.lam = i_ * num(om1 - om2) * sqrt(1 / (om1 * om2)) \
                * num(f.frac(1, 4))
            delta, half = om1 - om2, f.frac(1, 2)
            self.kernel = quad_exponent({
                ("q", "x"): -i_ * num(om1 * om2),
                ("x", "x"): num(-delta * half),
                ("q", "q"): num(-delta * om1 * om2 * half),
            }, QX, exact)
            self.vars, self.operator = QX, "H_pu"
        elif kind == "positive":
            first = MultiPoly.linear(
                {"x": sqrt(om1), "y": sqrt(om1) * num(om2)}, XY, exact)
            second = MultiPoly.linear(
                {"x": sqrt(om2), "y": sqrt(om2) * num(om1)}, XY, exact)
            self.lam = -(num(om1 + om2) * sqrt(1 / (om1 * om2))
                         * num(f.frac(1, 4)))
            self.vars, self.operator, self.kernel = XY, "O_xy", None
        else:
            raise ValueError(f"unknown eigenfunction kind {kind!r}")
        self.exact = f.exact
        self.h_first = hermite_table(kmax, first)
        self.h_second = hermite_table(kmax, second)

    def poly(self, n: int, m: int) -> MultiPoly:
        """Member (n, m).  For n >= m, with F and S the two tables,

            sum_k lam^k m!(n-m)!/((m-k)! k! (n-m+k)!) F_{n-m+k} S_k,

        and the same sum with the tables swapped otherwise.
        """
        first, second = self.h_first, self.h_second
        if n < m:
            n, m, first, second = m, n, second, first
        fact = math.factorial
        total = MultiPoly.zero(self.vars, self.exact)
        for k in range(m + 1):
            if self.exact:      # a Fraction: Exact / int would invert
                c = (self.lam ** k) * Fraction(
                    fact(m) * fact(n - m), fact(m - k) * fact(k) * fact(n - m + k))
            else:
                c = (self.lam ** k) * fact(m) * fact(n - m) \
                    / (fact(m - k) * fact(k) * fact(n - m + k))
            total = total + first[n - m + k] * second[k] * c
        return total


def eigen_suite(kind: str, params: SpectrumParams, nmax: int, mmax: int = None,
                exact: bool = False) -> list[EigenResult]:
    """Members n <= nmax, m <= mmax of the ghost or positive family, in
    row-major order, with their residuals against the owning operator.

    ``ghost`` applies the full position-space Hamiltonian to the Gaussian
    wavefunction; ``positive`` applies the phase-stripped operator in the
    (x, y) variables to the bare polynomial.
    """
    if mmax is None:
        mmax = nmax
    if nmax < 0 or mmax < 0:
        raise ValueError("nmax and mmax must be nonnegative")
    family = _Family(kind, params, max(nmax, mmax), exact)
    op = build_operator(family.operator, omega1=params.omega1,
                        omega2=params.omega2, exact=exact)
    out = []
    for n in range(nmax + 1):
        for m in range(mmax + 1):
            fn = ExpPolyFn(family.poly(n, m), family.kernel)
            e = energy(kind, n, m, params)
            out.append(EigenResult(fn, e, _residual(op, fn, e),
                                   {"n": n, "m": m, "kind": kind}))
    return out


def degenerate_level(level: int, omega, exact: bool = False) -> EigenResult:
    """Equal-frequency representative at n - m = level (either sign)."""
    f = Field(exact)
    (om,) = f.frequencies("degenerate_level", ("omega",), omega=omega)
    arg_plus, arg_minus = _ghost_arguments(om, om, f)
    poly = hermite(abs(level), arg_plus if level >= 0 else arg_minus)
    exponent = quad_exponent({("q", "x"): -f.i * f.num(om ** 2)}, QX, exact)
    fn = ExpPolyFn(poly, exponent)
    e = om * level
    h = build_operator("H_pu", omega1=om, omega2=om, exact=exact)
    return EigenResult(fn, e, _residual(h, fn, e),
                       {"level": level, "kind": "degenerate"})


# ---------------------------------------------------------------------------
# non-stationary descendants
# ---------------------------------------------------------------------------

def descendant(order: int, omega, exact: bool = False) -> ExpPolyFn:
    """Polynomial-in-time solutions sitting over the zero-energy level.

    Orders 0, 1, 2 are the k^0, k^2, k^4 expansion terms of the continuum
    wavefunctions; each satisfies the time-dependent Schroedinger equation
    with the equal-frequency Hamiltonian.
    """
    if order not in (0, 1, 2):
        raise ValueError("descendant order must be 0, 1, or 2")
    f = Field(exact)
    num, i_ = f.num, f.i
    (om,) = f.frequencies("descendant", ("omega",), omega=omega)
    q, x, t = (MultiPoly.var(v, QXT, exact) for v in QXT)
    u = x * x + q * q * num(om ** 2)
    if order == 0:
        poly = MultiPoly.const(1, QXT, exact)
    elif order == 1:
        poly = t - i_ * u
    else:
        poly = t * t - (t * u) * (i_ * 2) - (u * u) * num(f.frac(1, 2)) \
            - (q * x) * i_ + MultiPoly.const(num(f.frac(1, 8) / om ** 2),
                                             QXT, exact)
    exponent = quad_exponent({("q", "x"): -i_ * num(om ** 2)}, QXT, exact)
    return ExpPolyFn(poly, exponent)


def _time_residual(fn: ExpPolyFn, h: DiffOp, exact: bool) -> float:
    """Max coefficient norm of i d/dt fn - h fn."""
    dt = DiffOp.derivative("t", fn.poly.vars, exact)
    return ((dt * Field(exact).i).apply(fn).poly - h.apply(fn).poly).max_norm()


def descendant_time_residual(fn: ExpPolyFn, omega, exact: bool = False) -> float:
    """Time-equation residual of a descendant at equal frequencies."""
    h = build_operator("H_pu", omega1=omega, omega2=omega, exact=exact)
    return _time_residual(fn, h, exact)


FREE_DESCENDANT_ORDERS = (0, 1, 2, 3, 4)


def free_descendant(order: int, exact: bool = False) -> ExpPolyFn:
    """Free-particle analogues: 1, x, t - i x^2, xt - i x^3/3,
    t^2 - 2 i t x^2 - x^4/3."""
    if order not in FREE_DESCENDANT_ORDERS:
        raise ValueError("free descendant order must be in 0..4")
    f = Field(exact)
    i_, third = f.i, f.frac(1, 3)
    xt = ("x", "t")
    x = MultiPoly.var("x", xt, exact)
    t = MultiPoly.var("t", xt, exact)
    polys = {
        0: MultiPoly.const(1, xt, exact),
        1: x,
        2: t - (x * x) * i_,
        3: x * t - (x * x * x) * (i_ * third),
        4: t * t - (t * x * x) * (i_ * 2) - (x ** 4) * third,
    }
    return ExpPolyFn(polys[order])


def free_descendant_time_residual(fn: ExpPolyFn, exact: bool = False) -> float:
    return _time_residual(fn, build_operator("H_free_particle", exact=exact),
                          exact)


# ---------------------------------------------------------------------------
# continuum wavefunctions
# ---------------------------------------------------------------------------

def continuum_eigenfunction(l: int, k: float, omega: float,
                            truncation: int = 12) -> EigenResult:
    """Truncated continuum wavefunction at angular label l and momentum k.

    Sums the double-Hermite series through m = truncation; the residual of
    (H - l*omega - k^2/4) applied to the truncation is tail-dominated and
    falls rapidly with the truncation order.  Negative l swaps the roles
    of the two Hermite arguments.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    (om,) = Field(False).frequencies("continuum_eigenfunction", ("omega",),
                                     omega=omega)
    kk = float(k)
    sq = math.sqrt(om)
    z = MultiPoly.linear({"x": sq, "q": 1j * sq * om}, QX)
    w = MultiPoly.linear({"x": 1j * sq, "q": sq * om}, QX)
    if l < 0:
        z, w = w, z
        l = -l
        sign_l = -1
    else:
        sign_l = 1
    jmax = l + truncation
    hz = hermite_table(jmax, z)
    hw = hermite_table(truncation, w)
    total = MultiPoly.zero(QX)
    for m in range(truncation + 1):
        c = (1j * kk ** 2 / om) ** m / (4.0 ** (2 * m + l)
                                        * math.factorial(m)
                                        * math.factorial(l + m))
        total = total + hz[l + m] * hw[m] * c
    exponent = quad_exponent({("q", "x"): -1j * om ** 2}, QX)
    fn = ExpPolyFn(total, exponent)
    e = sign_l * l * om + kk ** 2 / 4.0
    h = build_operator("H_pu", omega1=om, omega2=om)
    res = _residual(h, fn, e, relative=False)
    return EigenResult(fn, e, res,
                       {"l": sign_l * l, "k": kk, "truncation": truncation})


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def hermite_sum_identity(n: int, m: int) -> bool:
    """H_{n+m}(z) == sum_j (-2)^j n! m! / (j! (n-j)! (m-j)!) H_{n-j} H_{m-j},
    decided in exact rational arithmetic."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    zz = ("z",)
    z = MultiPoly.var("z", zz, exact=True)
    table = hermite_table(n + m, z)
    lhs = table[n + m]
    rhs = MultiPoly.zero(zz, exact=True)
    for j in range(min(n, m) + 1):
        c = Exact.rational(Fraction(
            (-2) ** j * math.factorial(n) * math.factorial(m),
            math.factorial(j) * math.factorial(n - j) * math.factorial(m - j)))
        rhs = rhs + table[n - j] * table[m - j] * c
    return lhs == rhs


def exp_hermite_identity(n: int) -> bool:
    """exp(-d^2/dz^2 / 4) z^n == 2^-n H_n(z), exact."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    zz = ("z",)
    z = MultiPoly.var("z", zz, exact=True)
    op = DiffOp.derivative("z", zz, exact=True, order=2)
    lhs = exp_diff_apply(op, Fraction(-1, 4), z ** n)
    rhs = hermite(n, z) * Fraction(1, 2 ** n)
    return lhs == rhs


# ---------------------------------------------------------------------------
# degeneracy of the positive family at the exceptional point
# ---------------------------------------------------------------------------

def gram_minimum_singular_values(level: int, deltas, base_omega=1.0) -> list[float]:
    """Smallest singular value of the Gram matrix of the level-N positive
    family at omega1 = base + delta, omega2 = base, one value per delta.

    The family {phi_nm : n+m = N} collapses onto a single polynomial as
    delta -> 0, so the reported values decrease toward zero.
    """
    # imported on first use: no other spectra function needs numpy
    import numpy as np

    if level < 0:
        raise ValueError("level must be nonnegative")
    out = []
    for delta in deltas:
        if not delta > 0:
            raise ValueError("deltas must be positive")
        if level == 0:
            out.append(1.0)
            continue
        family = _Family("positive",
                         SpectrumParams(base_omega + delta, base_omega),
                         level, exact=False)
        polys = [family.poly(n, level - n) for n in range(level + 1)]
        monos = sorted({m for p in polys for m in p.terms})
        vecs = []
        for p in polys:
            v = np.array([complex(p.terms.get(m, 0.0)) for m in monos])
            vecs.append(v / np.linalg.norm(v))
        vmat = np.array(vecs)
        gram = vmat @ vmat.conj().T
        out.append(float(np.linalg.svd(gram, compute_uv=False)[-1]))
    return out


# ---------------------------------------------------------------------------
# finite Jordan block demonstration
# ---------------------------------------------------------------------------

def jordan_norm_sq(a: complex, b: complex, t: float,
                   metric: str = "euclidean") -> float:
    """Squared norm of the evolved two-level Jordan-block state.

    The state is a*(1,0)e^{-it} + b*(-it,1)e^{-it}; the euclidean norm
    grows polynomially whenever b != 0 while the degenerate metric
    diag(0, 1) sees the constant |b|^2.
    """
    phase = cmath.exp(-1j * t)
    psi1 = (a - 1j * b * t) * phase
    psi2 = b * phase
    if metric == "euclidean":
        return abs(psi1) ** 2 + abs(psi2) ** 2
    if metric == "degenerate":
        return abs(psi2) ** 2
    raise ValueError(f"unknown metric {metric!r}")
