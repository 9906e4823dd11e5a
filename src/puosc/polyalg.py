"""Sparse complex polynomials, Gaussian-kernel functions, and normal-ordered
differential operators.

Everything downstream is built on three closed classes:

* :class:`MultiPoly` -- sparse multivariate polynomial over a fixed, ordered
  variable registry, with either ``complex`` coefficients (float mode) or
  :class:`~puosc.exact.Exact` coefficients (rational mode).
* :class:`ExpPolyFn` -- polynomial times ``exp(Q)`` for a quadratic form
  ``Q`` (a :class:`MultiPoly` of degree-2 terms, see :func:`quad_exponent`);
  closed under differentiation, so applying any operator returns a member
  of the same class with the same exponent.
* :class:`DiffOp` -- polynomial differential operator kept in normal order
  (multiplications to the left of derivatives); composition re-normalizes
  through the product rule, so the zero operator has an empty term map.

``MultiPoly`` and ``DiffOp`` share one sparse term map, ``_TermMap``: its
constructor, sum, negation, scaling, embedding and repr.  Every key is one
flat tuple of exponents: a polynomial term's exponent per variable, and an
operator term's multiplication exponents followed by its derivative orders.
Sums, differences, scalings, negations and the term sums of
:meth:`DiffOp.apply` all run through one kernel, :meth:`_TermMap._add_to`.

The registry of a value is fixed at construction.  Mixing registries (or
mixing float and rational coefficients) raises
:class:`VariableMismatchError` / :class:`TypeError` instead of guessing an
embedding; widening is the explicit :meth:`MultiPoly.embed`.

:class:`Field` is the one place that picks the scalars of a mode; every
builder of operators, maps and Hamiltonians takes its numbers from it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .exact import Exact

# Float-mode pruning threshold.  Only true underflow is dropped so that
# residual norms reflect genuine cancellation error.
PRUNE_EPS = 1e-300


class VariableMismatchError(ValueError):
    """Raised when two values with incompatible variable registries meet."""


# ---------------------------------------------------------------------------
# coefficient helpers (complex in float mode, Exact in rational mode)
# ---------------------------------------------------------------------------

def as_coeff(value, exact: bool):
    """Coerce a scalar into the coefficient domain of the requested mode."""
    if exact:
        return Exact.coerce(value)
    if isinstance(value, Exact):
        return value.to_complex()
    return complex(value)


def coeff_is_zero(c) -> bool:
    if isinstance(c, Exact):
        return c.is_zero
    return abs(c) < PRUNE_EPS


def _pruned(terms: dict, exact: bool) -> dict:
    """The nonzero terms of a product: a float product can underflow, and
    most keys of a product are sums, so each coefficient is tested."""
    if exact:
        return {k: c for k, c in terms.items() if not c.is_zero}
    # not abs(c) < PRUNE_EPS, so that a NaN is kept, as coeff_is_zero does
    return {k: c for k, c in terms.items() if not abs(c) < PRUNE_EPS}


def to_complex(c) -> complex:
    return c.to_complex() if isinstance(c, Exact) else complex(c)


class Field:
    """The scalars of one arithmetic mode.

    ``param`` parses a frequency (``Fraction`` or ``float``), ``num`` and
    ``sqrt`` make coefficients (``Exact`` or ``complex``), ``i`` is the
    imaginary unit and ``frac(a, b)`` the ratio a/b as a parameter.
    """

    __slots__ = ("exact", "param", "num", "sqrt", "i")

    def __init__(self, exact: bool):
        self.exact = bool(exact)
        if self.exact:
            self.param, self.num, self.sqrt = Fraction, Exact.coerce, Exact.sqrt
            self.i = Exact.imag_unit()
        else:
            self.param = float
            self.num = lambda v: complex(
                float(Fraction(v)) if isinstance(v, Fraction) else v)
            self.sqrt = lambda v: complex(math.sqrt(float(v)))
            self.i = 1j

    def frac(self, a: int, b: int):
        return Fraction(a, b) if self.exact else a / b

    def frequencies(self, owner: str, need, **given) -> list:
        """One entry per keyword of ``given``: the parsed value for the names
        in ``need``, each of which must be given and positive, else None."""
        need = [p for p in need if p in given]
        missing = [p for p in need if given[p] is None]
        if missing:
            raise ValueError(f"{owner} needs {' and '.join(missing)}")
        if not all(given[p] > 0 for p in need):
            raise ValueError("frequencies must be positive")
        return [self.param(v) if p in need else None for p, v in given.items()]


def _unit(name, vars: tuple, e: int = 1) -> tuple:
    """Exponent tuple of ``name**e`` over the registry ``vars``."""
    if name not in vars:
        raise VariableMismatchError(f"{name!r} not in registry {vars}")
    return tuple(e if v == name else 0 for v in vars)


def _positions(vars: tuple, new_vars: tuple) -> list:
    """Index in ``new_vars`` of each of ``vars``; all must be present."""
    for v in vars:
        if v not in new_vars:
            raise VariableMismatchError(f"{v!r} missing from {new_vars}")
    return [new_vars.index(v) for v in vars]


class _TermMap:
    """A sparse term map: a registry ``vars``, a mode flag ``exact`` and a
    ``terms`` map from keys to nonzero coefficients.

    A key is one flat tuple of ``len(_PREFIXES) * len(vars)`` exponents:
    one block of ``len(vars)`` per entry of ``_PREFIXES``, the repr prefix of
    that block's factors.  The constructor takes a dict from keys to
    coefficients; keys that coincide as tuples are summed.  A subclass says
    in which order its terms print (``_repr_order``).
    """

    __slots__ = ("vars", "terms", "exact")

    def __init__(self, vars, terms=None, exact: bool = False):
        self.vars = tuple(vars)
        self.exact = bool(exact)
        clean = {}
        if terms:
            width = len(self._PREFIXES) * len(self.vars)
            for key, c in terms.items():
                key = tuple(key)
                if len(key) != width:
                    raise VariableMismatchError(
                        f"term {key} does not match registry {self.vars}")
                if coeff_is_zero(c):
                    continue
                if key in clean:        # a zero sum is deleted at once
                    c = clean[key] + c
                    if coeff_is_zero(c):
                        del clean[key]
                        continue
                clean[key] = c
        self.terms = clean

    @classmethod
    def _built(cls, vars: tuple, terms: dict, exact: bool):
        """A value of ``terms``, nonzero coefficients at keys of the
        registry's width, that an operation of this module built from valid
        values; ``terms`` is kept, not copied."""
        self = object.__new__(cls)
        self.vars, self.terms, self.exact = vars, terms, exact
        return self

    @classmethod
    def zero(cls, vars, exact: bool = False):
        return cls(vars, {}, exact)

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"registries differ: {self.vars} vs {other.vars}")
        if self.exact != other.exact:
            raise TypeError("cannot mix float-mode and rational-mode "
                            f"{type(self).__name__} values")

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    def max_norm(self) -> float:
        """Largest coefficient magnitude (0 for the zero value)."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.vars == other.vars and self.exact == other.exact
                and self.terms == other.terms)

    def _add_to(self, out: dict, scale=None, shift=None, sign: int = 1):
        """Add ``sign * (self * scale)``, with every key of ``self`` shifted
        by the exponent tuple ``shift``, into the term dict ``out`` in place;
        return ``out``.  ``scale`` is a coefficient of the mode or None.

        Each coefficient meets the float operations of the composition it
        stands for, in its order: the product with the monomial of
        coefficient one at ``shift`` (in float mode ``c * complex(1)``, which
        can move the sign of a zero or turn an infinity's partner into a
        NaN), then ``* scale`` with the product's pruning (a float below
        PRUNE_EPS is dropped and a NaN kept; an Exact is zero only for a zero
        scale), then the negation, then ``out[k] + c``.  The negation is not
        folded into a subtraction: ``a - c`` and ``a + (-c)`` differ in the
        sign of a NaN.  A sum that vanishes is deleted at once; each key of
        ``self`` is met once, so a later part may only insert it again, at
        the end, as a sum of whole maps would.
        """
        exact = self.exact
        if scale is not None and exact and scale.is_zero:
            return out
        one = complex(1) if shift is not None and not exact else None
        add = operator.add
        get = out.get
        for key, c in self.terms.items():
            if shift is not None:
                key = tuple(map(add, key, shift))
                if one is not None:
                    c = c * one
            if scale is not None:
                c = c * scale
                if not exact and abs(c) < PRUNE_EPS:
                    continue
            if sign < 0:
                c = -c
            cur = get(key)
            if cur is None:
                out[key] = c
                continue
            cur = cur + c
            if cur.is_zero if exact else abs(cur) < PRUNE_EPS:
                del out[key]
            else:
                out[key] = cur
        return out

    def _plus(self, other, scale=None, shift=None, sign: int = 1):
        """``self + sign * (other * scale)`` with ``other``'s keys shifted by
        ``shift``, as a new value; see :meth:`_add_to`."""
        self._check(other)
        return self._built(self.vars, other._add_to(dict(self.terms), scale,
                                                    shift, sign), self.exact)

    def _scaled(self, c):
        return self._built(self.vars, self._add_to({}, c), self.exact)

    def __neg__(self):
        return self._built(self.vars, self._add_to({}, sign=-1), self.exact)

    def embed(self, new_vars):
        """Widen to a superset registry (explicit, never implicit)."""
        new_vars = tuple(new_vars)
        pos = _positions(self.vars, new_vars)
        w = len(new_vars)
        where = [b * w + p for b in range(len(self._PREFIXES)) for p in pos]
        out = {}
        for key, c in self.terms.items():
            wide = [0] * (len(self._PREFIXES) * w)
            for p, e in zip(where, key):
                wide[p] = e
            out[tuple(wide)] = c
        return type(self)(new_vars, out, self.exact)

    def __repr__(self):
        bits = []
        labels = [d + v for d in self._PREFIXES for v in self.vars]
        for key in self._repr_order():
            factors = [f"{s}^{e}" if e > 1 else s
                       for s, e in zip(labels, key) if e]
            bits.append("*".join([repr(self.terms[key])] + factors))
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------

class MultiPoly(_TermMap):
    """Sparse polynomial: map from exponent multi-index to coefficient.

    Parameters
    ----------
    vars : sequence of str
        Ordered variable registry.  All arithmetic partners must share it.
    terms : dict, optional
        Map ``exponent tuple -> coefficient``; zero coefficients are pruned.
    exact : bool
        Rational mode flag; coefficients are then :class:`Exact`.
    """

    __slots__ = ()
    _PREFIXES = ("",)

    def _repr_order(self):
        return sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, value, vars, exact: bool = False) -> "MultiPoly":
        c = as_coeff(value, exact)
        return cls(vars, {(0,) * len(tuple(vars)): c}, exact)

    @classmethod
    def var(cls, name, vars, exact: bool = False) -> "MultiPoly":
        vars = tuple(vars)
        return cls(vars, {_unit(name, vars): as_coeff(1, exact)}, exact)

    @classmethod
    def linear(cls, coeffs: dict, vars, exact: bool = False) -> "MultiPoly":
        """Linear form sum(coeffs[name] * name)."""
        vars = tuple(vars)
        return cls(vars, {_unit(name, vars): as_coeff(value, exact)
                          for name, value in coeffs.items()}, exact)

    @classmethod
    def combination(cls, vars, parts, exact: bool = False) -> "MultiPoly":
        """The sum of ``p * c`` over the pairs ``(p, c)`` of ``parts``, in
        order: the terms, term order and float values of the running total
        ``zero + p1 * c1 + p2 * c2 + ...``, summed into one map."""
        total = cls.zero(vars, exact)
        for p, c in parts:
            total._check(p)
            p._add_to(total.terms, as_coeff(c, exact))
        return total

    # -- bookkeeping ------------------------------------------------------

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coefficient(self, mono: tuple):
        """Coefficient of the given exponent multi-index (0 if absent)."""
        mono = tuple(mono)
        if len(mono) != len(self.vars):
            raise VariableMismatchError(
                f"term {mono} does not match registry {self.vars}")
        c = self.terms.get(mono)
        if c is None:
            return as_coeff(0, self.exact)
        return c

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            return self._plus(other)
        try:
            return self + MultiPoly.const(other, self.vars, self.exact)
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.vars, self.exact)
        return self._plus(other, sign=-1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            out = {}
            add = operator.add
            right = other.terms.items()
            for m1, c1 in self.terms.items():
                for m2, c2 in right:
                    mono = tuple(map(add, m1, m2))
                    c = c1 * c2
                    out[mono] = out[mono] + c if mono in out else c
            return MultiPoly._built(self.vars, _pruned(out, self.exact),
                                    self.exact)
        try:
            c = as_coeff(other, self.exact)
        except TypeError:
            return NotImplemented
        return self._scaled(c)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_coeff(scalar, self.exact)
        inv = c.inverse() if isinstance(c, Exact) else 1.0 / c
        return self * inv

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.const(1, self.vars, self.exact)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def max_diff(self, other: "MultiPoly") -> float:
        """Largest coefficient magnitude of self - other."""
        return (self - other).max_norm()

    # -- calculus / substitution -------------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            raise VariableMismatchError(f"{name!r} not in registry {self.vars}")
        i = self.vars.index(name)
        # lowering one exponent maps distinct keys to distinct keys, so no
        # two terms meet; and c * e with e >= 1 cannot vanish
        out = {mono[:i] + (mono[i] - 1,) + mono[i + 1:]: c * mono[i]
               for mono, c in self.terms.items() if mono[i]}
        return MultiPoly._built(self.vars, out, self.exact)

    def subs(self, mapping: dict) -> "MultiPoly":
        """Substitute every variable by a polynomial over a common registry."""
        missing = [v for v in self.vars if v not in mapping]
        if missing:
            raise VariableMismatchError(f"substitution misses variables {missing}")
        images = [mapping[v] for v in self.vars]
        target = images[0].vars
        exact = images[0].exact
        for img in images:
            if img.vars != target or img.exact != exact:
                raise VariableMismatchError(
                    "substitution images must share one registry and mode")
        if exact != self.exact:
            raise TypeError("substitution images must match the source mode")
        result = MultiPoly.zero(target, exact)
        cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in cache:
                cache[key] = images[i] ** e
            return cache[key]

        for mono, c in self.terms.items():
            term = MultiPoly.const(c, target, exact)
            for i, e in enumerate(mono):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def eval(self, point: dict) -> complex:
        """Numeric evaluation (float semantics in both modes)."""
        vals = [complex(point[v]) for v in self.vars]
        total = 0j
        for mono, c in self.terms.items():
            term = to_complex(c)
            for v, e in zip(vals, mono):
                if e:
                    term *= v ** e
            total += term
        return total

    def to_float(self) -> "MultiPoly":
        if not self.exact:
            return self
        return MultiPoly(self.vars,
                         {m: to_complex(c) for m, c in self.terms.items()},
                         exact=False)


# ---------------------------------------------------------------------------
# Gaussian kernels and ExpPolyFn
# ---------------------------------------------------------------------------

def quad_exponent(entries: dict, vars, exact: bool = False) -> MultiPoly:
    """The quadratic form sum(value * a * b) over ``{(a, b): value}``: the
    exponent Q of a kernel exp(Q), a polynomial whose every term has degree 2.
    """
    vars = tuple(vars)
    terms = {}
    for (a, b), value in entries.items():
        mono = tuple(map(operator.add, _unit(a, vars), _unit(b, vars)))
        c = as_coeff(value, exact)
        terms[mono] = terms[mono] + c if mono in terms else c
    return MultiPoly(vars, terms, exact)


class ExpPolyFn:
    """poly(vars) * exp(Q(vars)); the carrier for every wavefunction.

    Q has no linear or constant part, so d/dv exp(Q) is an exact linear form
    times exp(Q) and the function class is closed under differentiation.
    """

    __slots__ = ("poly", "exponent")

    def __init__(self, poly: MultiPoly, exponent: MultiPoly | None = None):
        if exponent is None:
            exponent = MultiPoly.zero(poly.vars, poly.exact)
        if exponent.vars != poly.vars or exponent.exact != poly.exact:
            raise VariableMismatchError(
                "polynomial and exponent must share registry and mode")
        if any(sum(m) != 2 for m in exponent.terms):
            raise ValueError(f"exponent {exponent!r} is not a quadratic form")
        self.poly = poly
        self.exponent = exponent

    def _check(self, other: "ExpPolyFn"):
        if self.exponent != other.exponent:
            raise VariableMismatchError(
                "functions with different exponents cannot be combined")

    def __add__(self, other: "ExpPolyFn") -> "ExpPolyFn":
        self._check(other)
        return ExpPolyFn(self.poly + other.poly, self.exponent)

    def __sub__(self, other: "ExpPolyFn") -> "ExpPolyFn":
        self._check(other)
        return ExpPolyFn(self.poly - other.poly, self.exponent)

    def __mul__(self, scalar) -> "ExpPolyFn":
        return ExpPolyFn(self.poly * scalar, self.exponent)

    __rmul__ = __mul__

    def __neg__(self) -> "ExpPolyFn":
        return ExpPolyFn(-self.poly, self.exponent)

    def __eq__(self, other):
        if not isinstance(other, ExpPolyFn):
            return NotImplemented
        return self.exponent == other.exponent and self.poly == other.poly

    def __repr__(self):
        return f"ExpPolyFn({self.poly!r}, exp={self.exponent!r})"


# ---------------------------------------------------------------------------
# DiffOp
# ---------------------------------------------------------------------------

class DiffOp(_TermMap):
    """Normal-ordered polynomial differential operator.

    A term's key is the flat tuple ``mult + deriv`` of ``2 * len(vars)``
    exponents, the multiplication exponents first and then the derivative
    orders: ``mult + deriv -> c`` stands for ``c * v^mult * D^deriv`` with
    all derivatives acting first.  Products re-normalize through
    ``D^n v^m = sum_k k! C(n,k) C(m,k) v^(m-k) D^(n-k)`` applied per
    variable, so equality of operators is equality of term maps.
    """

    __slots__ = ()
    _PREFIXES = ("", "d")

    def _repr_order(self):
        n = len(self.vars)
        return sorted(self.terms, key=lambda k: (sum(k[n:]), sum(k[:n]), k))

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, vars, exact: bool = False) -> "DiffOp":
        vars = tuple(vars)
        return cls(vars, {(0,) * (2 * len(vars)): as_coeff(1, exact)}, exact)

    @classmethod
    def coordinate(cls, name, vars, exact: bool = False) -> "DiffOp":
        """Multiplication by a coordinate."""
        vars = tuple(vars)
        z = (0,) * len(vars)
        return cls(vars, {_unit(name, vars) + z: as_coeff(1, exact)}, exact)

    @classmethod
    def derivative(cls, name, vars, exact: bool = False, order: int = 1) -> "DiffOp":
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        vars = tuple(vars)
        z = (0,) * len(vars)
        return cls(vars, {z + _unit(name, vars, order): as_coeff(1, exact)},
                   exact)

    @classmethod
    def momentum(cls, name, vars, exact: bool = False) -> "DiffOp":
        """-i d/dname, the quantum momentum conjugate to a coordinate."""
        return cls.derivative(name, vars, exact) * (-Field(exact).i)

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "DiffOp":
        """Multiplication operator by a polynomial."""
        z = (0,) * len(poly.vars)
        return cls(poly.vars, {mono + z: c for mono, c in poly.terms.items()},
                   poly.exact)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DiffOp):
            return self._plus(other)
        return self + DiffOp.identity(self.vars, self.exact) * other

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            other = DiffOp.identity(self.vars, self.exact) * other
        return self._plus(other, sign=-1)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return self._compose(other)
        try:
            c = as_coeff(other, self.exact)
        except TypeError:
            return NotImplemented
        return self._scaled(c)

    def __rmul__(self, other):
        # scalars commute with the whole operator
        return self * other

    def _compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self . other in normal order."""
        self._check(other)
        n = len(self.vars)
        right = [(key2[:n], key2, c2) for key2, c2 in other.terms.items()]
        out = {}
        add, sub = operator.add, operator.sub
        for key1, c1 in self.terms.items():
            d1 = key1[n:]
            for m2, key2, c2 in right:
                # commute d1 past m2 variable by variable
                ranges = [range(min(d, m) + 1) for d, m in zip(d1, m2)]
                base = tuple(map(add, key1, key2))
                for k in itertools.product(*ranges):
                    factor = 1
                    for kv, nv, mv in zip(k, d1, m2):
                        if kv:
                            factor *= math.factorial(kv) * math.comb(nv, kv) \
                                * math.comb(mv, kv)
                    c = c1 * c2 * factor
                    key = tuple(map(sub, base, k + k))
                    out[key] = out[key] + c if key in out else c
        return DiffOp._built(self.vars, _pruned(out, self.exact), self.exact)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        result = DiffOp.identity(self.vars, self.exact)
        for _ in range(n):
            result = result * self
        return result

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """[self, other] = self.other - other.self, normal ordered."""
        return self._compose(other) - other._compose(self)

    # -- action -----------------------------------------------------------

    def apply(self, f):
        """Apply to an ExpPolyFn (or bare MultiPoly); exponent is preserved."""
        bare = isinstance(f, MultiPoly)
        if bare:
            f = ExpPolyFn(f)
        op = self
        if op.vars != f.poly.vars:
            if not set(op.vars) <= set(f.poly.vars):
                raise VariableMismatchError(
                    f"operator variables {op.vars} not contained in "
                    f"function registry {f.poly.vars}")
            op = op.embed(f.poly.vars)
        if op.exact != f.poly.exact:
            raise TypeError("operator and function must share arithmetic mode")
        vars = f.poly.vars
        grads = {}
        if f.exponent.terms:
            grads = {v: f.exponent.diff(v) for v in vars}
        result = MultiPoly.zero(vars, op.exact)
        n = len(vars)
        for key, c in op.terms.items():
            g = f.poly
            for name, order in zip(vars, key[n:]):
                for _ in range(order):
                    step = g.diff(name)
                    if grads:   # d(g exp Q) = (dg + g dQ) exp Q
                        (g * grads[name])._add_to(step.terms)
                    g = step
            mult = key[:n]
            # result + (g * v^mult) * c, without the two products
            g._add_to(result.terms, as_coeff(c, op.exact),
                      mult if any(mult) else None)
        return result if bare else ExpPolyFn(result, f.exponent)


# ---------------------------------------------------------------------------
# named operations
# ---------------------------------------------------------------------------

def hermite_table(k: int, arg: MultiPoly) -> list[MultiPoly]:
    """Physicists' Hermite polynomials [H_0, ..., H_k] at a linear form.

    One pass of H_0 = 1, H_1 = 2z and H_{n+1} = 2 z H_n - 2 n H_{n-1}; each
    entry is expanded over the argument's registry, exact in rational mode.
    """
    if k < 0:
        raise ValueError("Hermite index must be nonnegative")
    if k > 0 and arg.is_zero():
        raise ValueError("Hermite argument must have a nonzero coefficient")
    table = [MultiPoly.const(1, arg.vars, arg.exact), arg * 2]
    for n in range(1, k):
        table.append((arg * table[n] * 2)._plus(
            table[n - 1], as_coeff(2 * n, arg.exact), sign=-1))
    return table[:k + 1]


def hermite(n: int, arg: MultiPoly) -> MultiPoly:
    """Physicists' Hermite polynomial H_n evaluated at a linear form."""
    return hermite_table(n, arg)[n]


def exp_diff_apply(op: DiffOp, scale, p: MultiPoly) -> MultiPoly:
    """Finite expansion of exp(scale * op) applied to a polynomial.

    ``op`` must consist of pure derivative monomials of order >= 1, so that
    each application strictly lowers the degree and the series terminates.
    """
    n = len(op.vars)
    for key in op.terms:
        if any(key[:n]) or not any(key[n:]):
            raise ValueError(
                "exp_diff_apply needs a pure derivative operator of order >= 1")
    scale = as_coeff(scale, p.exact)
    total = p
    term = p
    k = 1
    while True:
        term = op.apply(term)
        if term.is_zero():
            break
        if p.exact:
            term = term * (scale * Fraction(1, k))
        else:
            term = term * (scale / k)
        total = total + term
        k += 1
    return total
