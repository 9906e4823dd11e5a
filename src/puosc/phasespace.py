"""Classical phase-space algebra: Hamiltonians as polynomials, Poisson
brackets, and the four canonical transformations with symplectic checks.

Maps are stored in substitution form ``old := linear(new)``, matching the
direction in which they are applied to a Hamiltonian.  The inverse
direction is a derived map: for a linear canonical transformation the
inverse matrix is ``-J_new M^T J_old``, which needs no division and is
therefore exact in rational mode; the product with the original matrix is
verified to be the identity before the inverse is returned.

Each model Hamiltonian is listed once, in :data:`SYSTEMS`, with its
parameters, state variables and canonical pairing; ``dynamics`` and the
command line read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .polyalg import (Field, MultiPoly, VariableMismatchError, as_coeff,
                      coeff_is_zero, to_complex)


class SingularMapError(ValueError):
    """Raised for transformations evaluated at their singular frequency."""


# ---------------------------------------------------------------------------
# PhasePoly and Poisson bracket
# ---------------------------------------------------------------------------

class PhasePoly:
    """Polynomial on phase space together with its (coordinate, momentum)
    pairing."""

    __slots__ = ("poly", "pairs")

    def __init__(self, poly: MultiPoly, pairs):
        pairs = tuple(tuple(p) for p in pairs)
        flat = [v for pair in pairs for v in pair]
        if sorted(flat) != sorted(poly.vars):
            raise VariableMismatchError(
                f"pairing {pairs} does not cover registry {poly.vars} exactly")
        if len(set(flat)) != len(flat):
            raise VariableMismatchError(f"variable repeated in pairing {pairs}")
        self.poly = poly
        self.pairs = pairs

    def __add__(self, other: "PhasePoly") -> "PhasePoly":
        self._check(other)
        return PhasePoly(self.poly + other.poly, self.pairs)

    def __sub__(self, other: "PhasePoly") -> "PhasePoly":
        self._check(other)
        return PhasePoly(self.poly - other.poly, self.pairs)

    def __mul__(self, other) -> "PhasePoly":
        if isinstance(other, PhasePoly):
            self._check(other)
            return PhasePoly(self.poly * other.poly, self.pairs)
        return PhasePoly(self.poly * other, self.pairs)

    __rmul__ = __mul__

    def _check(self, other: "PhasePoly"):
        if self.pairs != other.pairs:
            raise VariableMismatchError(
                f"pairings differ: {self.pairs} vs {other.pairs}")

    def __repr__(self):
        return f"PhasePoly({self.poly!r}, pairs={self.pairs})"


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, exact."""
    f._check(g)
    acc = MultiPoly.zero(f.poly.vars, f.poly.exact)
    for q, p in f.pairs:
        acc = acc + f.poly.diff(q) * g.poly.diff(p) \
                  - f.poly.diff(p) * g.poly.diff(q)
    return PhasePoly(acc, f.pairs)


# ---------------------------------------------------------------------------
# CanonicalMap
# ---------------------------------------------------------------------------

@dataclass
class SymplecticReport:
    """Per-bracket deviations of a map from the canonical relations."""

    brackets: dict
    max_deviation: float

    @property
    def exact_zero(self) -> bool:
        return self.max_deviation == 0.0


class CanonicalMap:
    """Linear complex substitution old := linear(new) on phase space."""

    __slots__ = ("kind", "substitutions", "old_pairs", "new_pairs", "params",
                 "old_vars")

    def __init__(self, kind: str, substitutions: dict, old_pairs, new_pairs,
                 params=None, old_vars=None):
        self.kind = kind
        self.substitutions = dict(substitutions)
        self.old_pairs = tuple(tuple(p) for p in old_pairs)
        self.new_pairs = tuple(tuple(p) for p in new_pairs)
        self.params = dict(params or {})
        old_flat = [v for pair in self.old_pairs for v in pair]
        self.old_vars = tuple(old_vars) if old_vars is not None \
            else tuple(old_flat)
        if sorted(old_flat) != sorted(self.substitutions) \
                or sorted(self.old_vars) != sorted(old_flat):
            raise VariableMismatchError(
                "substitutions must cover the old pairing exactly")
        for name, img in self.substitutions.items():
            if img.degree() > 1:
                raise ValueError(f"substitution for {name!r} is not linear")
            zero_mono = (0,) * len(img.vars)
            if zero_mono in img.terms:
                raise ValueError(f"substitution for {name!r} has a constant part")

    @property
    def new_vars(self) -> tuple:
        return next(iter(self.substitutions.values())).vars

    @property
    def exact(self) -> bool:
        return next(iter(self.substitutions.values())).exact

    def matrix(self):
        """Coefficient matrix M with z_old = M z_new (rows follow old_vars)."""
        new_vars = self.new_vars
        rows = []
        for name in self.old_vars:
            img = self.substitutions[name]
            row = []
            for j, _ in enumerate(new_vars):
                mono = tuple(1 if k == j else 0 for k in range(len(new_vars)))
                row.append(img.coefficient(mono))
            rows.append(row)
        return rows

    def inverted(self) -> "CanonicalMap":
        """Inverse substitution new := linear(old); exact for canonical maps."""
        exact = self.exact
        m = self.matrix()
        j_old = _symplectic_structure(self.old_vars, self.old_pairs, exact)
        j_new = _symplectic_structure(self.new_vars, self.new_pairs, exact)
        mt = [list(col) for col in zip(*m)]
        minv = _mat_scale(_mat_mul(_mat_mul(j_new, mt), j_old), as_coeff(-1, exact))
        ident = _mat_mul(m, minv)
        n = len(ident)
        for i in range(n):
            for k in range(n):
                want = as_coeff(1 if i == k else 0, exact)
                dev = abs(ident[i][k] - want)
                if (exact and dev != 0.0) or (not exact and dev > 1e-9):
                    raise ValueError(
                        f"map {self.kind!r} is not symplectic; cannot invert "
                        f"through the symplectic structure (deviation {dev})")
        old_vars = self.old_vars
        subs = {}
        for jdx, name in enumerate(self.new_vars):
            terms = {}
            for kdx in range(len(old_vars)):
                c = minv[jdx][kdx]
                if not coeff_is_zero(c):
                    mono = tuple(1 if t == kdx else 0 for t in range(len(old_vars)))
                    terms[mono] = c
            subs[name] = MultiPoly(old_vars, terms, exact)
        return CanonicalMap(self.kind + "_inverted", subs,
                            old_pairs=self.new_pairs, new_pairs=self.old_pairs,
                            params=self.params, old_vars=self.new_vars)

    def __repr__(self):
        return f"CanonicalMap({self.kind!r}, {self.old_vars} <- {self.new_vars})"


def _symplectic_structure(vars, pairs, exact):
    """J[i][j] = {v_i, v_j} for the canonical pairing."""
    vars = tuple(vars)
    n = len(vars)
    zero = as_coeff(0, exact)
    j = [[zero for _ in range(n)] for _ in range(n)]
    for q, p in pairs:
        qi, pi = vars.index(q), vars.index(p)
        j[qi][pi] = as_coeff(1, exact)
        j[pi][qi] = as_coeff(-1, exact)
    return j


def _mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for jdx in range(m):
            acc = a[i][0] * b[0][jdx]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][jdx]
            row.append(acc)
        out.append(row)
    return out


def _mat_scale(a, c):
    return [[v * c for v in row] for row in a]


def verify_symplectic(m: CanonicalMap) -> SymplecticReport:
    """Poisson-bracket test of canonicity under the new-variable bracket.

    Computes {old_a, old_b} - J_old[a][b] for every unordered pair of old
    variables; the deviations are exact zeros in rational mode.
    """
    old_vars = m.old_vars
    exact = m.exact
    j_old = _symplectic_structure(old_vars, m.old_pairs, exact)
    images = {name: PhasePoly(img, m.new_pairs)
              for name, img in m.substitutions.items()}
    brackets = {}
    worst = 0.0
    for i, a in enumerate(old_vars):
        for k in range(i + 1, len(old_vars)):
            b = old_vars[k]
            br = poisson_bracket(images[a], images[b]).poly
            dev = (br - MultiPoly.const(j_old[i][k], br.vars, exact)).max_norm()
            brackets[(a, b)] = dev
            worst = max(worst, dev)
    return SymplecticReport(brackets=brackets, max_deviation=worst)


# ---------------------------------------------------------------------------
# the four transformations
# ---------------------------------------------------------------------------

PU_VARS = ("q", "x", "p_x", "p_q")
PU_PAIRS = (("q", "p_q"), ("x", "p_x"))
DIAG_VARS = ("X1", "P1", "X2", "P2")
DIAG_PAIRS = (("X1", "P1"), ("X2", "P2"))
ROT_VARS = ("x", "y", "p_x", "p_y")
ROT_PAIRS = (("x", "p_x"), ("y", "p_y"))
ROBERT_VARS = ("x", "p", "D", "P")
ROBERT_PAIRS = (("x", "p"), ("D", "P"))

# map name -> (old pairs, old vars, new pairs, new vars)
_MAP_LAYOUT = {
    "diag": (PU_PAIRS, PU_VARS, DIAG_PAIRS, DIAG_VARS),
    "diag_inverse": (DIAG_PAIRS, DIAG_VARS, PU_PAIRS, PU_VARS),
    "rotation": (PU_PAIRS, PU_VARS, PU_PAIRS, PU_VARS),
    "complexified": (DIAG_PAIRS, DIAG_VARS, ROT_PAIRS, ROT_VARS),
}
MAP_NAMES = tuple(_MAP_LAYOUT)


def build_map(name: str, omega1, omega2=None, exact: bool = False) -> CanonicalMap:
    """Construct one of the four built-in canonical transformations.

    ``diag``/``diag_inverse``/``complexified`` need two frequencies with
    omega1 > omega2 > 0 and are singular at equal frequencies; ``rotation``
    takes a single positive frequency (passed as ``omega1``).
    """
    if name not in MAP_NAMES:
        raise ValueError(f"unknown map {name!r}; expected one of {MAP_NAMES}")
    old_pairs, old_vars, new_pairs, new_vars = _MAP_LAYOUT[name]
    f = Field(exact)
    num, sqrt, i_ = f.num, f.sqrt, f.i
    lin = lambda coeffs: MultiPoly.linear(coeffs, new_vars, exact)
    if name == "rotation":
        if omega2 is not None:
            raise ValueError("rotation map takes a single frequency")
        if not omega1 > 0:
            raise ValueError("frequency must be positive")
        om = f.param(omega1)
        inv4 = f.frac(1, 4)
        subs = {
            "x": lin({"x": 1, "p_q": num(inv4 / om)}),
            "q": lin({"q": num(1 / om), "p_x": num(inv4 / om ** 2)}),
            "p_x": lin({"p_x": 1}),
            "p_q": lin({"p_q": num(om)}),
        }
        return CanonicalMap(name, subs, old_pairs, new_pairs,
                            params={"omega": om}, old_vars=old_vars)

    if omega2 is None:
        raise ValueError(f"map {name!r} needs two frequencies")
    if not (omega1 > 0 and omega2 > 0):
        raise ValueError("frequencies must be positive")
    if omega1 == omega2:
        raise SingularMapError(
            f"map {name!r} is singular at equal frequencies")
    if omega1 < omega2:
        raise ValueError("expected omega1 > omega2")
    om1, om2 = f.param(omega1), f.param(omega2)
    d = om1 ** 2 - om2 ** 2
    inv_s = sqrt(1 / d)                      # 1/sqrt(om1^2 - om2^2)
    inv_om1_s = sqrt(1 / (om1 ** 2 * d))     # 1/(om1 sqrt(...))
    om1_over_s = sqrt(om1 ** 2 / d)          # om1/sqrt(...)
    if name == "diag":
        subs = {
            "q": lin({"X2": inv_s, "P1": -inv_om1_s}),
            "x": lin({"X1": num(om1) * inv_s, "P2": -inv_s}),
            "p_x": lin({"P1": num(om1) * inv_s, "X2": -num(om2 ** 2) * inv_s}),
            "p_q": lin({"P2": num(om1 ** 2) * inv_s,
                        "X1": -num(om1) * num(om2 ** 2) * inv_s}),
        }
    elif name == "diag_inverse":
        subs = {
            "X1": lin({"p_q": inv_om1_s, "x": num(om1 ** 2) * inv_om1_s}),
            "X2": lin({"p_x": inv_s, "q": num(om1 ** 2) * inv_s}),
            "P1": lin({"p_x": om1_over_s, "q": num(om2 ** 2) * om1_over_s}),
            "P2": lin({"p_q": inv_s, "x": num(om2 ** 2) * inv_s}),
        }
    else:       # complexified: the positive-spectrum realization
        subs = {
            "X1": lin({"x": num(om1 ** 2) * inv_om1_s, "p_y": -i_ * inv_om1_s}),
            "X2": lin({"y": num(om1 ** 2) * inv_s, "p_x": -i_ * inv_s}),
            "P1": lin({"p_x": om1_over_s, "y": i_ * num(om2 ** 2) * om1_over_s}),
            "P2": lin({"p_y": inv_s, "x": i_ * num(om2 ** 2) * inv_s}),
        }
    return CanonicalMap(name, subs, old_pairs, new_pairs,
                        params={"omega1": om1, "omega2": om2},
                        old_vars=old_vars)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

class System(NamedTuple):
    """Registry entry of a model Hamiltonian."""

    params: tuple           # parameters a caller gives, frequencies first
    vars: tuple             # state variables, in registry order
    pairs: tuple            # canonical (coordinate, momentum) pairs
    classical: bool = False  # integrated by dynamics.make_system


_PU = (PU_VARS, PU_PAIRS)
_DIAG = (DIAG_VARS, DIAG_PAIRS)
_ROBERT = (ROBERT_VARS, ROBERT_PAIRS)

SYSTEMS = {
    "pu": System(("omega1", "omega2"), *_PU, True),
    "pu_quartic": System(("omega1", "omega2", "alpha", "beta", "gamma"),
                         *_PU, True),
    "htild": System(("omega",), *_PU),
    "hprime": System(("omega",), *_PU),
    "pu_diag_ghost": System(("omega1", "omega2"), *_DIAG),
    "diag_positive": System(("omega1", "omega2"), *_DIAG),
    "diag_ghost_plus_V1": System(("omega1", "omega2", "lam"), *_DIAG, True),
    "diag_ghost_plus_V2": System(("omega1", "omega2", "lam"), *_DIAG, True),
    "rot": System(("omega1", "omega2"), ROT_VARS, ROT_PAIRS),
    "robert": System(("omega", "lam"), *_ROBERT, True),
    "robert_gamma": System(("omega", "lam", "gamma"), *_ROBERT, True),
}
HAMILTONIAN_NAMES = tuple(SYSTEMS)
CLASSICAL_SYSTEMS = tuple(n for n, s in SYSTEMS.items() if s.classical)


def build_hamiltonian(name: str, *, omega1=None, omega2=None, omega=None,
                      alpha=0, beta=0, gamma=0, lam=0,
                      exact: bool = False) -> PhasePoly:
    """Construct one of the model Hamiltonians of :data:`SYSTEMS` by name.

    The frequencies an entry lists must be given and positive; the
    ghost-plus-V1 system requires a positive coupling, matching the regime
    in which its bounded behaviour is claimed.
    """
    system = SYSTEMS.get(name)
    if system is None:
        raise ValueError(
            f"unknown Hamiltonian {name!r}; expected one of {HAMILTONIAN_NAMES}")
    f = Field(exact)
    om1, om2, om = f.frequencies(repr(name), system.params, omega1=omega1,
                                 omega2=omega2, omega=omega)
    num, i_, half = f.num, f.i, f.frac(1, 2)
    v = [MultiPoly.var(n, system.vars, exact) for n in system.vars]

    if name in ("pu", "pu_quartic"):
        q, x, px, pq = v
        h = pq * x + px * px * num(half) \
            + x * x * num((om1 ** 2 + om2 ** 2) * half) \
            - q * q * num(om1 ** 2 * om2 ** 2 * half)
        if name == "pu_quartic":
            h = h + q ** 4 * num(alpha) + q * q * x * x * num(beta) \
                + x ** 4 * num(gamma)
    elif name == "htild":
        q, x, px, pq = v
        h = px * px * num(half) + x * pq - q * px * num(om ** 2)
    elif name == "hprime":
        q, x, px, pq = v
        h = (px * px + pq * pq) * num(f.frac(1, 4)) + (x * pq - q * px) * num(om)
    elif name == "rot":
        x, y, px, py = v
        h = px * px * num(half) - i_ * (x * py) \
            + x * x * num((om1 ** 2 + om2 ** 2) * half) \
            + y * y * num(om1 ** 2 * om2 ** 2 * half)
    elif name in ("robert", "robert_gamma"):
        x, p, d, pp = v
        h = p * pp + d * (x * num(om ** 2) + x ** 3 * num(lam))
        if name == "robert_gamma":
            h = h - (d * d + pp * pp) * num(gamma) * num(half)
    else:                       # the diagonal two-oscillator family
        x1, p1, x2, p2 = v
        plus = (p1 * p1 + x1 * x1 * num(om1 ** 2)) * num(half)
        minus = (p2 * p2 + x2 * x2 * num(om2 ** 2)) * num(half)
        h = plus + minus if name == "diag_positive" else plus - minus
        if name == "diag_ghost_plus_V1":
            if not lam > 0:
                raise ValueError("diag_ghost_plus_V1 requires lam > 0")
            h = h + (x1 - x2) * (x1 + x2) ** 3 * num(lam)
        elif name == "diag_ghost_plus_V2":
            h = h + (x1 - x2) ** 3 * (x1 + x2) * num(lam)
    return PhasePoly(h, system.pairs)


# ---------------------------------------------------------------------------
# transport of Hamiltonians through maps
# ---------------------------------------------------------------------------

def transform_equals(h: PhasePoly, m: CanonicalMap, target: PhasePoly) -> float:
    """Max coefficient deviation of h with m substituted from target."""
    transformed = h.poly.subs(m.substitutions)
    return transformed.max_diff(target.poly)


@dataclass
class InteractionTransform:
    """Quartic rot-frame interaction rewritten in diagonal variables."""

    delta_h: PhasePoly
    real_part: MultiPoly
    imag_part: MultiPoly
    p1x2cubed: complex
    p1cubedx2: complex
    ratio: complex | None = None
    extra_imag_monomials: tuple = ()


def transform_interaction(lam, m: CanonicalMap) -> InteractionTransform:
    """Rewrite the rot-frame quartic lam*y^4 in the diagonal variables.

    The imaginary part is expected to carry the P1*X2^3 and P1^3*X2
    monomials with coefficient ratio -omega1^2; everything else found in
    the imaginary part is reported, not suppressed.
    """
    if m.kind != "complexified":
        raise ValueError("transform_interaction needs the complexified map")
    exact = m.exact
    inv = m.inverted()
    y_expr = inv.substitutions["y"]
    vars = y_expr.vars
    delta = (y_expr ** 4) * as_coeff(lam, exact)

    real_terms, imag_terms = {}, {}
    if exact:
        from .exact import Exact
        i_unit = Exact.imag_unit()
        for mono, c in delta.terms.items():
            re, im = c.real_part(), c.imag_part()
            if not re.is_zero:
                real_terms[mono] = re
            if not im.is_zero:
                imag_terms[mono] = i_unit * im
    else:
        for mono, c in delta.terms.items():
            cc = complex(c)
            scale = max(abs(cc), 1.0)
            if abs(cc.imag) > 1e-12 * scale:
                imag_terms[mono] = complex(0.0, cc.imag)
            if abs(cc.real) > 1e-12 * scale:
                real_terms[mono] = complex(cc.real, 0.0)
    real_part = MultiPoly(vars, real_terms, exact)
    imag_part = MultiPoly(vars, imag_terms, exact)

    def mono_of(**powers):
        return tuple(powers.get(v, 0) for v in vars)

    c_a = to_complex(imag_part.coefficient(mono_of(P1=1, X2=3)))
    c_b = to_complex(imag_part.coefficient(mono_of(P1=3, X2=1)))
    ratio = c_a / c_b if c_b != 0 else None
    key = {mono_of(P1=1, X2=3), mono_of(P1=3, X2=1)}
    extras = tuple(mono for mono in imag_part.terms if mono not in key)
    return InteractionTransform(
        delta_h=PhasePoly(delta, m.old_pairs),
        real_part=real_part, imag_part=imag_part,
        p1x2cubed=c_a, p1cubedx2=c_b, ratio=ratio,
        extra_imag_monomials=extras)
