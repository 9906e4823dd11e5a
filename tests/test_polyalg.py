import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puosc.exact import Exact
from puosc.polyalg import (DiffOp, ExpPolyFn, Field, MultiPoly,
                           VariableMismatchError, exp_diff_apply, hermite,
                           hermite_table, quad_exponent)
from puosc.spectra import SpectrumParams, build_operator, eigen_suite

Z = ("z",)
QX = ("q", "x")


def zvar(exact=False):
    return MultiPoly.var("z", Z, exact)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_low_orders():
    z = zvar(exact=True)
    assert hermite(0, z) == MultiPoly.const(1, Z, True)
    assert hermite(1, z) == z * 2
    assert hermite(2, z) == z * z * 4 - 2
    assert hermite(3, z) == z ** 3 * 8 - z * 12


@pytest.mark.parametrize("n", [1, 4, 9, 15])
def test_hermite_against_numpy_expansion(n):
    # independent oracle: numpy's Hermite-to-power-basis conversion
    coeffs = np.polynomial.hermite.herm2poly([0] * n + [1])
    ours = hermite(n, zvar(exact=True))
    for power, c in enumerate(coeffs):
        assert ours.coefficient((power,)) == Exact.rational(int(round(c)))


def test_hermite_recurrence_exact_up_to_20():
    z = zvar(exact=True)
    table = hermite_table(20, z)
    assert len(table) == 21
    for n in range(1, 20):
        assert table[n + 1] == z * table[n] * 2 - table[n - 1] * (2 * n)


def test_hermite_table_is_one_pass(monkeypatch):
    # index-by-index rebuilding would take about 66 polynomial products
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        if isinstance(other, MultiPoly):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    arg = MultiPoly.linear({"q": 2.0, "x": 0.5j}, QX)
    assert len(hermite_table(12, arg)) == 13
    assert len(products) <= 12


def test_hermite_of_linear_form_degree():
    arg = MultiPoly.linear({"q": 2, "x": 1j}, QX)
    assert hermite(5, arg).degree() == 5
    with pytest.raises(ValueError):
        hermite(-1, arg)
    with pytest.raises(ValueError):
        hermite(2, MultiPoly.zero(QX))


def test_exp_fn_equality_needs_identical_exponent():
    poly = MultiPoly.var("q", QX)
    gauss = quad_exponent({("q", "q"): -0.5}, QX)
    wide = quad_exponent({("q", "q"): -0.25}, QX)
    assert ExpPolyFn(poly, gauss) != ExpPolyFn(poly, wide)
    assert ExpPolyFn(poly, gauss) == ExpPolyFn(poly, gauss)
    with pytest.raises(VariableMismatchError):
        _ = ExpPolyFn(poly, gauss) + ExpPolyFn(poly, wide)


@pytest.mark.parametrize("exponent", [
    MultiPoly.var("q", QX), MultiPoly.const(-0.5, QX),
    quad_exponent({("q", "q"): -0.5}, QX) + MultiPoly.var("x", QX)])
def test_exponent_must_be_a_quadratic_form(exponent):
    with pytest.raises(ValueError, match="not a quadratic form"):
        ExpPolyFn(MultiPoly.const(1, QX), exponent)


# ---------------------------------------------------------------------------
# MultiPoly ring structure
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[mono] = Exact.rational(draw(small_fractions),
                                     draw(small_fractions))
    return MultiPoly(QX, terms, exact=True)


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_product_rule(p, q):
    lhs = (p * q).diff("x")
    rhs = p.diff("x") * q + p * q.diff("x")
    assert lhs == rhs


def test_multiplication_against_pointwise_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = MultiPoly(QX, {(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                           complex(*rng.normal(size=2)) for _ in range(4)})
        q = MultiPoly(QX, {(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                           complex(*rng.normal(size=2)) for _ in range(4)})
        pt = {"q": complex(*rng.normal(size=2)), "x": complex(*rng.normal(size=2))}
        assert (p * q).eval(pt) == pytest.approx(p.eval(pt) * q.eval(pt),
                                                 rel=1e-12)


def test_registry_discipline():
    p = MultiPoly.var("q", QX)
    other = MultiPoly.var("z", Z)
    with pytest.raises(VariableMismatchError):
        _ = p + other
    with pytest.raises(TypeError):
        _ = p + MultiPoly.var("q", QX, exact=True)
    widened = other.embed(("z", "w"))
    assert widened.vars == ("z", "w")
    assert widened.eval({"z": 2.0, "w": 9.0}) == pytest.approx(2.0)
    with pytest.raises(VariableMismatchError):
        other.embed(("w",))
    with pytest.raises(VariableMismatchError):
        p.coefficient((1,))
    with pytest.raises(VariableMismatchError,
                       match=r"'zz' not in registry \('q', 'x'\)"):
        quad_exponent({("zz", "q"): 1.0}, QX)


def test_subs_matches_pointwise_oracle():
    rng = np.random.default_rng(11)
    p = MultiPoly(QX, {(2, 1): 1.5, (0, 3): -2j, (1, 0): 0.25})
    mapping = {
        "q": MultiPoly.linear({"z": 2.0}, Z) + 1.0,
        "x": MultiPoly.linear({"z": -1j}, Z),
    }
    # constant parts are fine for plain polynomial substitution
    q_of_z = mapping["q"]
    x_of_z = mapping["x"]
    sub = p.subs(mapping)
    for _ in range(10):
        zv = complex(*rng.normal(size=2))
        want = p.eval({"q": q_of_z.eval({"z": zv}), "x": x_of_z.eval({"z": zv})})
        assert sub.eval({"z": zv}) == pytest.approx(want, rel=1e-12)
    with pytest.raises(VariableMismatchError):
        p.subs({"q": q_of_z})


def test_float_pruning_threshold():
    kept = MultiPoly(QX, {(1, 0): 1e-200})
    dropped = MultiPoly(QX, {(1, 0): 1e-320})
    assert kept.terms
    assert not dropped.terms


def test_keys_that_collapse_are_summed_and_pruned():
    # range(1, 2) and (1,) are distinct dict keys with the same exponent
    one = Exact.rational(1)
    assert MultiPoly(Z, {(1,): one, range(1, 2): one}, True).terms == {
        (1,): one * 2}
    assert MultiPoly(Z, {(1,): one, range(1, 2): -one}, True).terms == {}
    assert DiffOp(Z, {(1, 0): 1.0, range(1, -1, -1): -1.0}).terms == {}


# ---------------------------------------------------------------------------
# results of operations: a coefficient is dropped exactly when it vanishes
# ---------------------------------------------------------------------------

def test_float_products_that_underflow_are_pruned():
    tiny = MultiPoly(QX, {(1, 0): 1e-160, (0, 1): 1.0})
    # (1e-160 q + x)^2: the q^2 coefficient 1e-320 is below PRUNE_EPS
    assert (tiny * tiny).terms == {(1, 1): 2e-160, (0, 2): 1.0}
    assert (tiny * 1e-200).terms == {(0, 1): 1e-200 + 0j}
    op = DiffOp(QX, {(1, 0, 0, 0): 1e-160, (0, 0, 0, 1): 1.0})
    assert (op * op).terms == {(1, 0, 0, 1): 2e-160, (0, 0, 0, 2): 1.0}
    assert (op * 1e-200).terms == {(0, 0, 0, 1): 1e-200 + 0j}


def test_nan_coefficients_are_kept():
    p = MultiPoly(QX, {(1, 0): math.nan, (0, 1): 1.0})
    q = MultiPoly.var("q", QX)
    for result, key in ((p * q, (2, 0)), (p * 0.0, (1, 0)), (p + p, (1, 0)),
                        (-p, (1, 0)), (p.diff("q"), (0, 0))):
        assert math.isnan(abs(result.terms[key]))
    op = DiffOp.from_poly(p)
    assert math.isnan(abs((op * DiffOp.derivative("x", QX)).terms[1, 0, 0, 1]))


@pytest.mark.parametrize("exact", [False, True])
def test_sums_that_cancel_drop_their_key(exact):
    q, x = (MultiPoly.var(v, QX, exact) for v in QX)
    p = q * 3 + x
    assert (p + (-p)).terms == {}
    assert ((p - q * 3) - x).terms == {}
    # (q + x)(q - x) = q^2 - x^2: the q*x products cancel
    assert set(((q + x) * (q - x)).terms) == {(2, 0), (0, 2)}
    # (x + dx)(x - dx) = x^2 + 1 - dx^2: the x*dx terms cancel
    cx, dx = DiffOp.coordinate("x", QX, exact), DiffOp.derivative("x", QX, exact)
    assert set(((cx + dx) * (cx - dx)).terms) == {
        (0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2)}


def test_exact_times_zero_is_the_empty_map():
    p = MultiPoly.linear({"q": 2, "x": Fraction(1, 3)}, QX, True)
    assert (p * 0).terms == {}
    assert (p * Exact.rational(0)).terms == {}
    assert (DiffOp.from_poly(p) * 0).terms == {}


@pytest.mark.parametrize("exact", [False, True])
def test_public_constructors_check_the_key_width(exact):
    one = Field(exact).num(1)
    with pytest.raises(VariableMismatchError):
        MultiPoly(QX, {(1,): one}, exact)
    with pytest.raises(VariableMismatchError):
        MultiPoly(QX, {(0, 0): one, (1, 0, 0): one}, exact)
    with pytest.raises(VariableMismatchError):
        DiffOp(QX, {(1, 0): one}, exact)


# ---------------------------------------------------------------------------
# exponent kernels and operator action
# ---------------------------------------------------------------------------

def test_gaussian_derivative():
    # d/dx exp(-x^2/2) = -x exp(-x^2/2)
    xx = ("x",)
    gauss = ExpPolyFn(MultiPoly.const(1, xx),
                      quad_exponent({("x", "x"): -0.5}, xx))
    out = DiffOp.derivative("x", xx).apply(gauss)
    assert out.exponent == gauss.exponent
    assert out.poly == -MultiPoly.var("x", xx)


def test_apply_single_derivative_example():
    # (-i x d/dq) q = -i x with trivial exponent
    op = DiffOp.coordinate("x", QX) * DiffOp.derivative("q", QX) * (-1j)
    out = op.apply(ExpPolyFn(MultiPoly.var("q", QX)))
    assert out.poly == MultiPoly.var("x", QX) * (-1j)


def test_hermite_ode():
    # (-1/2 d^2 + z d) H_n = n H_n
    z = zvar()
    op = DiffOp.derivative("z", Z, order=2) * (-0.5) \
        + DiffOp.coordinate("z", Z) * DiffOp.derivative("z", Z)
    for n in (1, 4, 7):
        hn = hermite(n, z)
        assert (op.apply(hn) - hn * n).max_norm() < 1e-12


def test_canonical_pair_identity():
    # [v, p_v] applied to any function equals i * function
    rng = np.random.default_rng(5)
    op = DiffOp.coordinate("q", QX).commutator(DiffOp.momentum("q", QX))
    for _ in range(5):
        poly = MultiPoly(QX, {(int(rng.integers(0, 3)), int(rng.integers(0, 3))):
                              complex(*rng.normal(size=2)) for _ in range(3)})
        fn = ExpPolyFn(poly, quad_exponent(
            {("q", "q"): -0.5, ("q", "x"): 0.25j}, QX))
        out = op.apply(fn)
        assert (out.poly - poly * 1j).max_norm() < 1e-14


def test_mixed_partials_commute():
    assert DiffOp.derivative("x", QX).commutator(
        DiffOp.derivative("q", QX)).is_zero()


def test_commutator_antisymmetric_and_bilinear():
    rng = np.random.default_rng(19)
    for _ in range(8):
        a = _random_diffop(rng, QX)
        b = _random_diffop(rng, QX)
        c = _random_diffop(rng, QX)
        anti = a.commutator(b) + b.commutator(a)
        assert anti.max_norm() <= 1e-12
        s = complex(*rng.normal(size=2))
        lin = (a * s + b).commutator(c) \
            - (a.commutator(c) * s + b.commutator(c))
        assert lin.max_norm() <= 1e-10


def _random_diffop(rng, vars, max_order=3):
    terms = {}
    for _ in range(rng.integers(1, 4)):
        mult = tuple(int(rng.integers(0, 3)) for _ in vars)
        deriv = tuple(int(rng.integers(0, max_order + 1)) for _ in vars)
        terms[mult + deriv] = complex(*rng.normal(size=2))
    return DiffOp(vars, terms)


def test_composition_factors_through_application():
    rng = np.random.default_rng(17)
    exponent = quad_exponent({("q", "q"): -1.0, ("q", "x"): -0.5j,
                              ("x", "x"): 0.25}, QX)
    for _ in range(10):
        a = _random_diffop(rng, QX)
        b = _random_diffop(rng, QX)
        poly = MultiPoly(QX, {(int(rng.integers(0, 7)), int(rng.integers(0, 7))):
                              complex(*rng.normal(size=2)) for _ in range(4)})
        fn = ExpPolyFn(poly, exponent)
        via_compose = (a * b).apply(fn)
        via_chain = a.apply(b.apply(fn))
        assert via_compose.exponent == fn.exponent
        scale = max(1.0, via_chain.poly.max_norm())
        assert (via_compose.poly - via_chain.poly).max_norm() <= 1e-12 * scale


def test_composition_factors_exact_mode():
    a = DiffOp.coordinate("q", QX, exact=True) \
        * DiffOp.derivative("q", QX, exact=True, order=2)
    b = DiffOp.coordinate("q", QX, exact=True) ** 2 \
        * DiffOp.derivative("x", QX, exact=True)
    poly = MultiPoly(QX, {(3, 2): Exact.rational(Fraction(1, 3)),
                          (1, 1): Exact.imag_unit()}, exact=True)
    fn = ExpPolyFn(poly)
    assert (a * b).apply(fn).poly == a.apply(b.apply(fn)).poly


def test_operator_embedding_and_mismatch():
    op = DiffOp.derivative("q", ("q",))
    fn = ExpPolyFn(MultiPoly.var("q", QX) * MultiPoly.var("x", QX))
    out = op.apply(fn)
    assert out.poly == MultiPoly.var("x", QX)
    bad = DiffOp.derivative("w", ("w",))
    with pytest.raises(VariableMismatchError):
        bad.apply(fn)
    with pytest.raises(ValueError, match="order must be >= 0"):
        DiffOp.derivative("q", QX, order=-1)
    with pytest.raises(VariableMismatchError):
        DiffOp.derivative("zz", QX, order=0)


def test_diffop_keys_are_flat_mult_then_deriv():
    # QX has two variables, so a key holds 2 + 2 exponents
    with pytest.raises(VariableMismatchError):
        DiffOp(QX, {(1, 0, 0): 1.0})
    op = DiffOp(QX, {(1, 0, 0, 2): 1.0})
    assert op == DiffOp.coordinate("q", QX) * DiffOp.derivative("x", QX, order=2)
    assert op.embed(("x", "w", "q")).terms == {(0, 0, 1, 2, 0, 0): 1.0}


def test_class_closure_preserves_exponent():
    rng = np.random.default_rng(23)
    exponent = quad_exponent({("q", "x"): -2j}, QX)
    fn = ExpPolyFn(MultiPoly.var("q", QX) ** 2, exponent)
    for _ in range(10):
        out = _random_diffop(rng, QX).apply(fn)
        assert out.exponent == exponent


# ---------------------------------------------------------------------------
# terminating exponential series
# ---------------------------------------------------------------------------

def test_exp_diff_examples():
    z = zvar()
    op = DiffOp.derivative("z", Z, order=2)
    out = exp_diff_apply(op, -0.25, z * z)
    assert (out - (z * z - 0.5)).max_norm() < 1e-15
    assert exp_diff_apply(op, -0.25, MultiPoly.const(1, Z)) \
        == MultiPoly.const(1, Z)
    out5 = exp_diff_apply(op, -0.25, z ** 5)
    assert (out5 - hermite(5, z) * 2.0 ** -5).max_norm() < 1e-14


def test_exp_diff_exact_hermite_up_to_20():
    z = zvar(exact=True)
    op = DiffOp.derivative("z", Z, exact=True, order=2)
    for n in range(21):
        lhs = exp_diff_apply(op, Fraction(-1, 4), z ** n)
        assert lhs == hermite(n, z) * Fraction(1, 2 ** n)


def test_exp_diff_rejects_multiplication_terms():
    op = DiffOp.coordinate("z", Z) * DiffOp.derivative("z", Z)
    with pytest.raises(ValueError):
        exp_diff_apply(op, 1.0, zvar())
    with pytest.raises(ValueError):
        exp_diff_apply(DiffOp.identity(Z), 1.0, zvar())


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_coeff_max_norm():
    assert MultiPoly.zero(Z).max_norm() == 0.0
    p = zvar() * 3 + MultiPoly.const(-4j, Z)
    assert p.max_norm() == pytest.approx(4.0)
    assert ExpPolyFn(p).poly.max_norm() == pytest.approx(4.0)
    assert DiffOp.from_poly(p).max_norm() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# arithmetic modes
# ---------------------------------------------------------------------------

def test_field_float_mode_matches_literals():
    f = Field(False)
    assert (f.param, f.i) == (float, 1j)
    assert [f.frac(1, 2), f.frac(1, 4), f.frac(1, 8), f.frac(1, 3)] \
        == [0.5, 0.25, 0.125, 1.0 / 3.0]
    assert f.num(Fraction(1, 4)) == 0.25 + 0j
    assert f.sqrt(2) == complex(2 ** 0.5)


def test_field_exact_mode():
    f = Field(True)
    assert f.param is Fraction
    assert f.frac(1, 3) == Fraction(1, 3)
    assert f.i * f.i == Exact.coerce(-1)
    assert f.sqrt(Fraction(8)) * f.sqrt(Fraction(2)) == f.num(4)


def test_field_frequencies():
    f = Field(True)
    assert f.frequencies("op", ("omega",), omega1=None, omega=2) \
        == [None, Fraction(2)]
    with pytest.raises(ValueError, match="op needs omega1 and omega2"):
        f.frequencies("op", ("omega1", "omega2"), omega1=None, omega2=None)
    with pytest.raises(ValueError, match="frequencies must be positive"):
        f.frequencies("op", ("omega",), omega=0)


# ---------------------------------------------------------------------------
# reprs (term order, factor spelling and signed zeros are part of the output)
# ---------------------------------------------------------------------------

def test_reprs_are_stable():
    assert repr(hermite(4, MultiPoly.linear({"q": 2.0, "x": 0.5j}, QX))) == (
        "MultiPoly((256+0j)*q^4 + 256j*q^3*x + (-96+0j)*q^2*x^2 + -16j*q*x^3"
        " + (1+0j)*x^4 + (-192-0j)*q^2 + -96j*q*x + (12+0j)*x^2 + (12+0j))")
    assert repr(hermite(5, MultiPoly.linear({"q": 1, "x": 3}, QX, True))) == (
        "MultiPoly(Exact(32)*q^5 + Exact(480)*q^4*x + Exact(2880)*q^3*x^2"
        " + Exact(8640)*q^2*x^3 + Exact(12960)*q*x^4 + Exact(7776)*x^5"
        " + Exact(-160)*q^3 + Exact(-1440)*q^2*x + Exact(-4320)*q*x^2"
        " + Exact(-4320)*x^3 + Exact(120)*q + Exact(360)*x)")
    assert repr(build_operator("H_pu", omega1=3, omega2=1)) == (
        "DiffOp((5+0j)*x^2 + (-4.5-0j)*q^2 + -1j*x*dq + (-0.5-0j)*dx^2)")
    assert repr(build_operator("L_charge", omega=2, exact=True)) == (
        "DiffOp(Exact(3/2)*x^2 + Exact(-6)*q^2 + Exact((0+-1/4j))*x*dq"
        " + Exact((0+1j))*q*dx + Exact(-1/8)*dx^2 + Exact(1/32)*dq^2)")
    assert repr(MultiPoly.zero(QX)) == "MultiPoly(0)"
    assert repr(DiffOp.zero(QX, True)) == "DiffOp(0)"


# ---------------------------------------------------------------------------
# the sum kernel against the compositions it replaces
# ---------------------------------------------------------------------------

def _ref_zero(c) -> bool:
    return c.is_zero if isinstance(c, Exact) else abs(c) < 1e-300


def _ref_pruned(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if not _ref_zero(c)}


def _ref_plus(a: dict, b: dict) -> dict:
    """a + b: b's terms into a copy of a, zero sums deleted at the end."""
    out, summed = dict(a), []
    for key, c in b.items():
        if key in out:
            out[key] = out[key] + c
            summed.append(key)
        else:
            out[key] = c
    for key in summed:
        if key in out and _ref_zero(out[key]):
            del out[key]
    return out


def _ref_scaled(terms: dict, c, exact: bool) -> dict:
    """p * c for a coefficient c of the mode."""
    if exact:
        return {} if c.is_zero else {k: v * c for k, v in terms.items()}
    return _ref_pruned({k: v * c for k, v in terms.items()})


def _ref_neg(terms: dict) -> dict:
    return {k: -c for k, c in terms.items()}


def _ref_shifted(terms: dict, shift: tuple, exact: bool) -> dict:
    """p * MultiPoly({shift: 1}), the product loop with a one-term right side."""
    one = Exact.rational(1) if exact else complex(1)
    out = {}
    for m1, c1 in terms.items():
        mono = tuple(a + b for a, b in zip(m1, shift))
        c = c1 * one
        out[mono] = out[mono] + c if mono in out else c
    return _ref_pruned(out)


def _ref_combination(parts, vars, exact: bool) -> dict:
    total = {}
    for p, c in parts:
        total = _ref_plus(total, _ref_scaled(p.terms, Field(exact).num(c)
                                             if not isinstance(c, Exact)
                                             else c, exact))
    return total


def _ref_apply(op: DiffOp, f: ExpPolyFn) -> dict:
    """The term sum of DiffOp.apply as ``result + (g * v^mult) * c``, each
    derivative step as ``g.diff(v) + g * dQ/dv``."""
    vars, exact = f.poly.vars, f.poly.exact
    n = len(vars)
    grads = ({v: f.exponent.diff(v) for v in vars} if f.exponent.terms
             else {})
    result = {}
    for key, c in op.terms.items():
        g = f.poly
        for name, order in zip(vars, key[n:]):
            for _ in range(order):
                g = (MultiPoly(vars, _ref_plus(g.diff(name).terms,
                                               (g * grads[name]).terms), exact)
                     if grads else g.diff(name))
        terms = g.terms
        if any(key[:n]):
            terms = _ref_shifted(terms, key[:n], exact)
        result = _ref_plus(result, _ref_scaled(terms, c, exact))
    return result


def _bits(terms: dict) -> list:
    """Keys in order with their coefficients' bits: the signs of zeros and of
    NaNs count; an Exact by its canonical repr."""
    return [(k, struct.pack("<dd", c.real, c.imag) if isinstance(c, complex)
             else repr(c)) for k, c in terms.items()]


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-160, -1e-160, 1e-310, 1e300,
            math.inf, -math.inf, math.nan)
_parts = st.sampled_from(_SPECIAL) | st.floats(-4, 4, width=16)
float_coeffs = st.builds(complex, _parts, _parts)
exact_coeffs = st.builds(
    lambda a, b, r, s: Exact.rational(a, b) + Exact.rational(r) * Exact.sqrt(s),
    small_fractions, small_fractions, st.integers(-1, 1),
    st.sampled_from((2, 3)))


@st.composite
def term_maps(draw, exact: bool, width: int = 2, size: int = 5):
    """Term dicts over few keys, so that sums meet and cancel often."""
    coeffs = exact_coeffs if exact else float_coeffs
    keys = st.tuples(*[st.integers(0, 2)] * width)
    return draw(st.dictionaries(keys, coeffs, max_size=size))


def _poly(terms, exact, vars=QX):
    return MultiPoly(vars, terms, exact)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_combination_and_difference_match_the_running_total(data, exact):
    coeffs = exact_coeffs if exact else float_coeffs
    parts = [(_poly(data.draw(term_maps(exact)), exact), data.draw(coeffs))
             for _ in range(data.draw(st.integers(0, 4)))]
    got = MultiPoly.combination(QX, parts, exact)
    assert _bits(got.terms) == _bits(_ref_combination(parts, QX, exact))
    a, b = (_poly(data.draw(term_maps(exact)), exact) for _ in range(2))
    assert _bits((a - b).terms) == _bits(_ref_plus(a.terms, _ref_neg(b.terms)))
    assert _bits((-b).terms) == _bits(_ref_neg(b.terms))
    c = data.draw(coeffs)
    assert _bits((a * c).terms) == _bits(_ref_scaled(a.terms, c, exact))
    ops = [DiffOp(QX, data.draw(term_maps(exact, width=4)), exact)
           for _ in range(2)]
    assert _bits((ops[0] - ops[1]).terms) == _bits(
        _ref_plus(ops[0].terms, _ref_neg(ops[1].terms)))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_apply_matches_the_product_composition(data, exact):
    coeffs = exact_coeffs if exact else float_coeffs
    op = DiffOp(QX, data.draw(term_maps(exact, width=4, size=4)), exact)
    poly = _poly(data.draw(term_maps(exact)), exact)
    exponent = {}
    if data.draw(st.booleans()):
        exponent = {mono: data.draw(coeffs) for mono in ((2, 0), (1, 1), (0, 2))
                    if data.draw(st.booleans())}
    f = ExpPolyFn(poly, MultiPoly(QX, exponent, exact))
    assert _bits(op.apply(f).poly.terms) == _bits(_ref_apply(op, f))


@pytest.mark.parametrize("exact", [False, True])
def test_hermite_table_matches_the_recurrence_composition(exact):
    f = Field(exact)
    arg = MultiPoly.linear({"q": f.num(3) * f.i, "x": f.sqrt(2)}, QX, exact)
    table = hermite_table(12, arg)
    ref = [MultiPoly.const(1, QX, exact).terms,
           _ref_scaled(arg.terms, f.num(2), exact)]
    for n in range(1, 12):
        prod = (arg * _poly(ref[n], exact)).terms
        ref.append(_ref_plus(_ref_scaled(prod, f.num(2), exact),
                             _ref_neg(_ref_scaled(ref[n - 1], f.num(2 * n),
                                                  exact))))
    assert [_bits(p.terms) for p in table] == [_bits(t) for t in ref]


@pytest.mark.parametrize("exact", [False, True])
def test_a_cancelled_key_comes_back_at_the_end(exact):
    one = Field(exact).num(1)
    a = _poly({(1, 0): one, (0, 1): one}, exact)
    back = _poly({(1, 0): one * 3, (2, 0): one}, exact)
    parts = [(a, 1), (_poly({(1, 0): one}, exact), -1), (back, 1)]
    got = MultiPoly.combination(QX, parts, exact)
    assert list(got.terms) == [(0, 1), (1, 0), (2, 0)]
    assert _bits(got.terms) == _bits(_ref_combination(parts, QX, exact))


def test_float_underflow_nan_and_signed_zeros_in_the_kernel():
    tiny = _poly({(1, 0): 1e-160, (0, 1): complex(-0.0, 1.0),
                  (1, 1): complex(math.inf, 1.0), (0, 0): math.nan}, False)
    for scale in (1e-160, -1e-200, complex(0.0, -1.0), 1.0):
        got = MultiPoly.combination(QX, [(tiny, scale), (tiny, -scale)], False)
        ref = _ref_combination([(tiny, scale), (tiny, -scale)], QX, False)
        assert _bits(got.terms) == _bits(ref)
    assert (1, 0) not in (tiny * 1e-160).terms          # 1e-320 underflows
    # x * d/dq shifts by x: the unit product turns (inf + 1j) into (inf + nanj)
    op = DiffOp(QX, {(0, 1, 1, 0): -1.0})
    got = op.apply(tiny)
    assert _bits(got.terms) == _bits(_ref_apply(op, ExpPolyFn(tiny)))
    assert math.isnan(got.terms[(0, 2)].imag)


def test_one_ghost_apply_multiplies_only_for_the_gradients(monkeypatch):
    # each derivative step of a chain multiplies by dQ/dv once; the
    # multiplication exponents and the coefficient of an operator term are
    # summed in by the kernel, with no product of their own
    member = eigen_suite("ghost", SpectrumParams(3.0, 1.0), 3)[-1].wavefunction
    h = build_operator("H_pu", omega1=3.0, omega2=1.0)
    steps = sum(sum(key[2:]) for key in h.terms)
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(isinstance(other, MultiPoly))
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    got = h.apply(member)
    assert calls == [True] * steps
    monkeypatch.undo()
    assert _bits(got.poly.terms) == _bits(_ref_apply(h, member))
