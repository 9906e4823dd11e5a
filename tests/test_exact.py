import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puosc.exact import Exact, squarefree_split


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(360) == (6, 10)      # 360 = 36 * 10
    assert squarefree_split(97) == (1, 97)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_sqrt_reduces_radicands():
    r2 = Exact.sqrt(2)
    assert r2 * r2 == 2
    assert Exact.sqrt(8) == r2 * 2
    assert Exact.sqrt(Fraction(1, 2)) * 2 == r2
    assert Exact.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert Exact.sqrt(0).is_zero
    for bad in (4, 12, 0, -2):
        with pytest.raises(ValueError):
            Exact({bad: (1, 0)})


def test_products_of_distinct_radicals():
    r2, r3, r6 = Exact.sqrt(2), Exact.sqrt(3), Exact.sqrt(6)
    assert r2 * r3 == r6
    assert (1 + r2) * (1 - r2) == -1
    assert (r2 + r3) * (r2 - r3) == -1


def test_complex_structure():
    i = Exact.imag_unit()
    assert i * i == -1
    z = Exact.rational(3, -4)
    assert abs(z) == pytest.approx(5.0)
    assert z.conjugate() == Exact.rational(3, 4)
    assert z.real_part() == 3
    assert z.imag_part() == -4
    assert complex(i * Exact.sqrt(2)) == pytest.approx(1j * math.sqrt(2))


def test_division():
    r2 = Exact.sqrt(2)
    assert (r2 * 3).inverse() * 3 * r2 == 1
    two_term = Exact.rational(1) + r2 * Fraction(1, 2)
    assert two_term / two_term == 1
    assert (1 / two_term) * two_term == 1
    mixed = Exact.sqrt(3) + Exact.sqrt(5) * Fraction(2, 7)
    assert mixed / mixed == 1
    with pytest.raises(ZeroDivisionError):
        Exact().inverse()
    three = Exact.rational(1) + Exact.sqrt(2) + Exact.sqrt(3)
    assert three * three.inverse() == 1


def test_powers():
    r2 = Exact.sqrt(2)
    assert r2 ** 4 == 4
    assert r2 ** 0 == 1
    assert r2 ** -2 == Fraction(1, 2)
    assert (1 + r2) ** 2 == 3 + 2 * r2


def test_coercion_rejects_inexact_floats():
    assert Exact.coerce(3.0) == 3
    assert Exact.coerce(2 + 1j) == Exact.rational(2, 1)
    with pytest.raises(TypeError):
        Exact.coerce(0.1)
    with pytest.raises(TypeError):
        Exact.coerce(1.5 + 1j)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
radicands = st.sampled_from([1, 2, 3, 5, 7, 10])


@st.composite
def exacts(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(radicands)
        terms[d] = (draw(small_fractions), draw(small_fractions))
    return Exact(terms)


@settings(max_examples=60, deadline=None)
@given(exacts(), exacts(), exacts())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(exacts())
def test_float_embedding_is_consistent(a):
    x = complex(a)
    y = complex(a + a) / 2
    assert x == pytest.approx(y, abs=1e-12)


def test_general_inverse():
    i = Exact.imag_unit()
    cases = [
        Exact.sqrt(2) + Exact.sqrt(3) + Exact.sqrt(5),
        Exact.sqrt(6) + Exact.sqrt(10) + Exact.sqrt(15) * i,
        1 + Exact.sqrt(2) + Exact.sqrt(3) + Exact.sqrt(6) * Fraction(-5, 3),
        (Exact.sqrt(7) - i) * Fraction(2, 9) + Exact.sqrt(30),
    ]
    for x in cases:
        assert x * x.inverse() == 1
        assert 1 / x == x.inverse()
        assert x ** -2 * x * x == 1
    # the result lists its terms by increasing radicand
    inv = cases[0].inverse()
    assert list(inv._terms) == sorted(inv._terms)


def _canonical(x):
    nums = [n for re_im in x._terms.values() for n in re_im]
    if not nums:
        return x._den == 1
    return (x._den > 0 and math.gcd(x._den, *nums) == 1
            and all(re or im for re, im in x._terms.values()))


@settings(max_examples=60, deadline=None)
@given(exacts(), exacts(), exacts())
def test_canonical_form_is_order_independent(a, b, c):
    pairs = [((a * b) * c, c * (b * a)),
             ((a + b) + c, c + (b + a)),
             (a * (b + c), c * a + a * b),
             ((a - b) * (a + b), a * a - b * b)]
    if b:
        pairs.append(((a * b) / b, a))
    for x, y in pairs:
        assert _canonical(x) and _canonical(y)
        assert x == y
        assert x._den == y._den and x._terms == y._terms
        assert hash(x) == hash(y)


wide_radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 42])


@st.composite
def wide_exacts(draw, min_terms=0):
    """Up to four distinct radicands; ``min_terms`` of them nonzero."""
    rads = draw(st.lists(wide_radicands, min_size=min_terms, max_size=4,
                         unique=True))
    nonzero = small_fractions.filter(bool)
    return Exact({d: (draw(nonzero if k < min_terms else small_fractions),
                      draw(small_fractions))
                  for k, d in enumerate(rads)})


def _to_sympy(sympy, x):
    return sympy.Add(*[
        (sympy.Rational(re, x._den) + sympy.I * sympy.Rational(im, x._den))
        * sympy.sqrt(d) for d, (re, im) in x._terms.items()])


@settings(max_examples=40, deadline=None)
@given(wide_exacts(), wide_exacts(min_terms=3))
def test_sympy_cross_check(a, b):
    sympy = pytest.importorskip("sympy")
    assert len(b._terms) >= 3
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    assert sympy.expand(sa * sb - _to_sympy(sympy, a * b)) == 0
    assert sympy.expand(sa + sb - _to_sympy(sympy, a + b)) == 0
    assert sympy.expand(sa - sb - _to_sympy(sympy, a - b)) == 0
    inv = _to_sympy(sympy, b.inverse())
    assert sympy.expand(sb * inv) == 1
    assert complex(sympy.N(1 / sb, 30)) == pytest.approx(
        complex(b.inverse()), rel=1e-12)
