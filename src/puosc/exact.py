"""Exact complex coefficients with square roots of positive rationals.

Rational-mode computations carry every coefficient as a finite sum

    sum_k  (a_k + i b_k) * sqrt(d_k)

with Gaussian-rational weights and pairwise distinct squarefree positive
integer radicands d_k.  The set is closed under addition and
multiplication (sqrt(a)*sqrt(b) reduces by extracting the square part of
a*b), which is all the polynomial algebra needs.  Division works for any
nonzero value: multiplying by the conjugate that flips the sign of every
radical containing one prime p removes p from all radicands, so a few such
steps reach a rational number (the norm in the multiquadratic field).
Zero tests are exact, so "the commutator vanishes" and "the two
Hamiltonians coincide" are decided without tolerances.

A value is stored as integer numerators over one positive integer
denominator shared by all terms, kept canonical (no zero terms, no common
factor of the denominator and all numerators), so arithmetic is integer
arithmetic with one gcd reduction per result and equality is a plain
comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

_gcd = math.gcd


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*d with d squarefree; return (s, d)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


class Exact:
    """An element of Q(i) extended by square roots of positive rationals.

    ``Exact({radicand: (re, im)})`` takes int or Fraction components; the
    radicands are squarefree positive integers and 1 denotes the rational
    part.  Internally ``_terms`` maps radicand -> (re_num, im_num) ints over
    the positive int ``_den``, in canonical form.  Instances are immutable.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None):
        self._terms, self._den = {}, 1
        if terms:
            for d in terms:
                if squarefree_split(d)[0] != 1:
                    raise ValueError(f"radicand {d} is not squarefree")
            parts = [(d, Fraction(re), Fraction(im))
                     for d, (re, im) in terms.items()]
            den = 1
            for _, re, im in parts:
                den = math.lcm(den, re.denominator, im.denominator)
            value = _reduced({d: (re.numerator * (den // re.denominator),
                                  im.numerator * (den // im.denominator))
                              for d, re, im in parts}, den)
            self._terms, self._den = value._terms, value._den

    # -- construction -------------------------------------------------

    @classmethod
    def rational(cls, re, im=0) -> "Exact":
        return cls({1: (Fraction(re), Fraction(im))})

    @classmethod
    def imag_unit(cls) -> "Exact":
        return _make({1: (0, 1)}, 1)

    @classmethod
    def sqrt(cls, value) -> "Exact":
        """Exact square root of a nonnegative rational."""
        v = Fraction(value)
        if v < 0:
            raise ValueError("Exact.sqrt needs a nonnegative rational")
        if v == 0:
            return _ZERO
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = squarefree_split(v.numerator * v.denominator)
        return _reduced({d: (s, 0)}, v.denominator)

    @classmethod
    def coerce(cls, value) -> "Exact":
        if isinstance(value, Exact):
            return value
        if isinstance(value, int):
            return _make({1: (int(value), 0)}, 1) if value else _ZERO
        if isinstance(value, Fraction):
            return (_make({1: (value.numerator, 0)}, value.denominator)
                    if value else _ZERO)
        if isinstance(value, float):
            if value.is_integer():
                return cls.rational(int(value))
            raise TypeError(f"cannot coerce non-integral float {value!r} to Exact; "
                            "pass a Fraction")
        if isinstance(value, complex):
            if value.real.is_integer() and value.imag.is_integer():
                return cls.rational(int(value.real), int(value.imag))
            raise TypeError(f"cannot coerce non-integral complex {value!r} to Exact")
        raise TypeError(f"cannot coerce {type(value).__name__} to Exact")

    # -- predicates / conversions -------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so each term's float equals the
        # float of the reduced Fraction component
        out = 0j
        den = self._den
        for d, (re, im) in self._terms.items():
            out += complex(re / den, im / den) * math.sqrt(d)
        return out

    __complex__ = to_complex

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def real_part(self) -> "Exact":
        return _reduced({d: (re, 0) for d, (re, _) in self._terms.items()},
                        self._den)

    def imag_part(self) -> "Exact":
        """Exact y in x + i*y (a real radical sum)."""
        return _reduced({d: (im, 0) for d, (_, im) in self._terms.items()},
                        self._den)

    def conjugate(self) -> "Exact":
        return _make({d: (re, -im) for d, (re, im) in self._terms.items()},
                     self._den)

    def _flip(self, p: int) -> "Exact":
        """The conjugate sqrt(p) -> -sqrt(p): negate terms whose radicand p divides."""
        return _make({d: (-re, -im) if d % p == 0 else (re, im)
                      for d, (re, im) in self._terms.items()}, self._den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Exact":
        if other.__class__ is not Exact:
            try:
                other = Exact.coerce(other)
            except TypeError:
                return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return _make({d: (-re, -im) for d, (re, im) in self._terms.items()},
                     self._den)

    def __sub__(self, other) -> "Exact":
        if other.__class__ is not Exact:
            try:
                other = Exact.coerce(other)
            except TypeError:
                return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "Exact":
        return _sum(Exact.coerce(other), self, -1)

    def __mul__(self, other) -> "Exact":
        cls = other.__class__
        if cls is not Exact:
            if cls is int:
                return _scale(self, other)
            try:
                other = Exact.coerce(other)
            except TypeError:
                return NotImplemented
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return _ZERO
        den = self._den * other._den
        if len(t1) == 1 and len(t2) == 1:
            # the common case: one nonzero term times one, never zero
            (d1, (a1, b1)), = t1.items()
            (d2, (a2, b2)), = t2.items()
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            if d1 == 1:
                d = d2
            elif d2 == 1:
                d = d1
            else:
                g = _gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                re *= g
                im *= g
            g = _gcd(den, re, im)
            if g != 1:
                re //= g
                im //= g
                den //= g
            obj = _new(Exact)
            obj._terms = {d: (re, im)}
            obj._den = den
            return obj
        out: dict[int, tuple[int, int]] = {}
        for d1, (a1, b1) in t1.items():
            for d2, (a2, b2) in t2.items():
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                if d1 == 1:
                    d = d2
                elif d2 == 1:
                    d = d1
                else:
                    g = _gcd(d1, d2)
                    d = (d1 // g) * (d2 // g)
                    re *= g
                    im *= g
                cur = out.get(d)
                out[d] = (cur[0] + re, cur[1] + im) if cur else (re, im)
        return _reduced(out, den)

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        """Multiplicative inverse of any nonzero value.

        While more than one term is left, multiply by the conjugate that
        flips one prime's square roots; the product no longer contains that
        prime, so this ends at a single term c*sqrt(d), whose inverse is
        conj(c)*sqrt(d)/(|c|^2 d).  The terms of the result are sorted by
        radicand.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of exact zero")
        factor, y = _ONE, self
        while len(y._terms) > 1:
            conj = y._flip(_smallest_prime_factor(max(y._terms)))
            factor = factor * conj
            y = y * conj
        (d, (re, im)), = y._terms.items()
        den = y._den
        last = _reduced({d: (re * den, -im * den)}, (re * re + im * im) * d)
        result = factor * last
        return _make(dict(sorted(result._terms.items())), result._den)

    def __truediv__(self, other) -> "Exact":
        try:
            other = Exact.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Exact":
        return Exact.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Exact":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / display ------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not Exact:
            try:
                other = Exact.coerce(other)
            except TypeError:
                return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "Exact(0)"
        parts = []
        for d in sorted(self._terms):
            re, im = (Fraction(x, self._den) for x in self._terms[d])
            c = f"({re}+{im}j)" if im else f"{re}"
            parts.append(c if d == 1 else f"{c}*sqrt({d})")
        return "Exact(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# integer kernels (callers pass numerators over a positive denominator)
# ---------------------------------------------------------------------------

_new = object.__new__


def _make(terms: dict, den: int) -> Exact:
    """Wrap terms that are already canonical."""
    obj = _new(Exact)
    obj._terms = terms
    obj._den = den
    return obj


_ZERO = _make({}, 1)
_ONE = _make({1: (1, 0)}, 1)


def _reduced(terms: dict, den: int) -> Exact:
    """Canonical value of terms / den: drop zero terms, cancel the common gcd."""
    g = den
    has_zero = False
    for re, im in terms.values():
        if re or im:
            if g != 1:
                g = _gcd(g, re, im)
        else:
            has_zero = True
    if has_zero:
        terms = {d: c for d, c in terms.items() if c[0] or c[1]}
        if not terms:
            return _ZERO
    if g != 1:
        terms = {d: (re // g, im // g) for d, (re, im) in terms.items()}
        den //= g
    return _make(terms, den)


def _scale(x: Exact, k: int) -> Exact:
    """x * k; x is canonical, so gcd(den, k) is the whole reduction."""
    if not k or not x._terms:
        return _ZERO
    den = x._den
    g = _gcd(den, k)
    if g != 1:
        den //= g
        k //= g
    return _make({d: (re * k, im * k) for d, (re, im) in x._terms.items()}, den)


def _sum(x: Exact, y: Exact, sign: int) -> Exact:
    """x + sign * y, keeping x's term order and appending y's new radicands."""
    t2 = y._terms
    if not t2:
        return x
    t1 = x._terms
    if not t1:
        return y if sign == 1 else -y
    den1, den2 = x._den, y._den
    if den1 == den2:
        out = dict(t1)
        m2 = sign
    else:
        g = _gcd(den1, den2)
        m1, m2 = den2 // g, den1 // g
        out = {d: (re * m1, im * m1) for d, (re, im) in t1.items()}
        den1 *= m1
        m2 *= sign
    for d, (re, im) in t2.items():
        re *= m2
        im *= m2
        cur = out.get(d)
        out[d] = (cur[0] + re, cur[1] + im) if cur else (re, im)
    return _reduced(out, den1)
