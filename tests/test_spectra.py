import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from puosc.exact import Exact
from puosc.polyalg import (DiffOp, Field, MultiPoly, hermite, hermite_table,
                           quad_exponent)
from puosc.spectra import (QX, XY, EqualFrequencyError, SpectrumParams,
                           build_operator, commutator_check,
                           continuum_eigenfunction, degenerate_level,
                           density_scan, descendant, descendant_deviations,
                           descendant_time_residual, eigen_suite, energy,
                           equal_frequency_deviations, exp_hermite_identity,
                           free_descendant, free_descendant_time_residual,
                           gram_minimum_singular_values, hermite_sum_identity,
                           jordan_deviations, jordan_norm_sq)


def member(kind, n, m, params, exact=False):
    """Member (n, m) of a family: the last result of its suite."""
    return eigen_suite(kind, params, n, m, exact=exact)[-1]


# ---------------------------------------------------------------------------
# spectrum formulas and density
# ---------------------------------------------------------------------------

def test_params_delta():
    assert SpectrumParams(3.0, 1.0).delta == pytest.approx(2.0)
    assert SpectrumParams(Fraction(19, 10), Fraction(7, 10)).delta \
        == Fraction(6, 5)


def test_energy_formulas():
    p31 = SpectrumParams(3.0, 1.0)
    assert energy("ghost", 0, 0, p31) == pytest.approx(1.0)
    assert energy("positive", 0, 0, p31) == pytest.approx(2.0)
    assert energy("degenerate", 1, 2, SpectrumParams(1.0, 1.0)) \
        == pytest.approx(-1.0)
    with pytest.raises(EqualFrequencyError):
        energy("degenerate", 1, 2, p31)
    with pytest.raises(ValueError):
        energy("ghost", -1, 0, p31)
    with pytest.raises(ValueError):
        SpectrumParams(1.0, 2.0)


def test_density_commensurate_hit():
    res = density_scan(2.0, 1.0, 0.5, 5)
    assert res.min_gap == pytest.approx(0.0)
    assert (res.n, res.m) == (0, 0)


def test_density_sqrt2_enumeration():
    # frozen values from exhaustive enumeration of the level formula
    r3 = density_scan(math.sqrt(2), 1.0, 0.0, 3)
    assert r3.min_gap == pytest.approx(2.5 * math.sqrt(2) - 3.5, abs=1e-12)
    assert (r3.n, r3.m) == (2, 3)
    r100 = density_scan(math.sqrt(2), 1.0, 0.0, 100)
    assert r100.min_gap == pytest.approx(14.5 * math.sqrt(2) - 20.5, abs=1e-12)
    assert (r100.n, r100.m) == (14, 20)
    # monotone non-increasing in the cutoff
    r20 = density_scan(math.sqrt(2), 1.0, 0.0, 20)
    assert r100.min_gap <= r20.min_gap <= r3.min_gap
    assert r20.min_gap < r3.min_gap


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_h_pu_unit_frequency_form():
    # -i x d/dq - 1/2 d^2/dx^2 + x^2 - q^2/2
    h = build_operator("H_pu", omega1=1, omega2=1, exact=True)
    i = Exact.imag_unit()
    want = DiffOp.coordinate("x", QX, True) \
        * DiffOp.derivative("q", QX, True) * (-i) \
        - DiffOp.derivative("x", QX, True, order=2) * Fraction(1, 2) \
        + DiffOp.coordinate("x", QX, True) ** 2 \
        - DiffOp.coordinate("q", QX, True) ** 2 * Fraction(1, 2)
    assert h == want


def test_interacting_reduces_to_phase_stripped():
    a = build_operator("H_interacting", omega=1.3)
    b = build_operator("H_tilde", omega=1.3)
    assert (a - b).is_zero()
    c = build_operator("H_interacting", omega=1.0, alpha=0.5)
    assert not (c - b).is_zero()


def test_o_zw_no_cross_term_for_single_family():
    # d/dw kills H_n(z)H_0(w)
    o = build_operator("O_zw", omega1=2.0, omega2=1.0)
    zw = ("z", "w")
    z = MultiPoly.var("z", zw)
    hn = hermite(3, z)
    out = o.apply(hn)
    want = hn * (3 * 2.0 + (2.0 + 1.0) / 2)
    assert (out - want).max_norm() < 1e-12


def test_unknown_operator():
    with pytest.raises(ValueError):
        build_operator("H_unknown")


def test_commutator_conserved_charge():
    assert commutator_check(1, exact=True) == 0.0
    assert commutator_check(2, exact=True) == 0.0
    assert commutator_check(1.7) < 1e-12


def test_commutator_regression_guard():
    # dropping the 3 w x^2/4 term must break the commutation
    om = 1.0
    h = build_operator("H_pu", omega1=om, omega2=om)
    px = DiffOp.momentum("x", QX)
    pq = DiffOp.momentum("q", QX)
    x_op = DiffOp.coordinate("x", QX)
    q_op = DiffOp.coordinate("q", QX)
    broken = x_op * pq * (0.5 / om) - q_op * px * (om / 2) \
        + (px * px - pq * pq * om ** -2) * (0.25 / om) \
        - (q_op * q_op) * (3 * om ** 3 / 4)
    assert h.commutator(broken).max_norm() > 0.1


# ---------------------------------------------------------------------------
# ghost family
# ---------------------------------------------------------------------------

def test_ghost_ground_state_structure():
    # exp(-3iqx - (x^2 + 3q^2)) at (3, 1), energy 1, residual 0
    r = member("ghost", 0, 0, SpectrumParams(3.0, 1.0))
    assert r.energy == pytest.approx(1.0)
    assert r.residual <= 1e-14
    fn = r.wavefunction
    assert fn.poly == MultiPoly.const(1, QX)
    want = quad_exponent(
        {("q", "x"): -3j, ("x", "x"): -1.0, ("q", "q"): -3.0}, QX)
    assert fn.exponent == want


@pytest.mark.parametrize("pair", [(3.0, 1.0), (1.9, 0.7)])
def test_ghost_suite_small(pair):
    params = SpectrumParams(*pair)
    results = eigen_suite("ghost", params, 4)
    assert max(r.residual for r in results) <= 1e-9


@pytest.mark.parametrize("kind", ["ghost", "positive"])
def test_family_members_share_their_hermite_products(kind, monkeypatch):
    from puosc.spectra import _Family
    top = 5
    family = _Family(kind, SpectrumParams(3, 1), top, exact=False)
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        if isinstance(other, MultiPoly):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    for n in range(top + 1):
        for m in range(top + 1):
            family.poly(n, m)
    # member (n, m) sums F_{|n-m|+k} S_k over k <= min(n, m), tables swapped
    # when n < m
    pairs = {(n < m, abs(n - m) + k, k) for n in range(top + 1)
             for m in range(top + 1) for k in range(min(n, m) + 1)}
    assert len(products) == len(pairs)


def test_eigen_suite_rejects_bad_requests():
    params = SpectrumParams(3.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        eigen_suite("ghost", params, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        eigen_suite("positive", params, 2, -1)
    with pytest.raises(ValueError, match="unknown eigenfunction kind"):
        eigen_suite("degenerate", params, 1)


def test_ghost_requires_unequal_frequencies():
    with pytest.raises(EqualFrequencyError):
        eigen_suite("ghost", SpectrumParams(1.0, 1.0), 0)
    with pytest.raises(EqualFrequencyError):
        eigen_suite("positive", SpectrumParams(1.0, 1.0), 0)


# ---------------------------------------------------------------------------
# positive realization
# ---------------------------------------------------------------------------

def test_positive_single_family_is_hermite():
    params = SpectrumParams(2.0, 1.0)
    r = member("positive", 2, 0, params)
    phi = r.wavefunction.poly
    z = MultiPoly.linear({"x": math.sqrt(2.0), "y": math.sqrt(2.0)}, XY)
    assert (phi - hermite(2, z)).max_norm() < 1e-12
    assert r.energy == pytest.approx(5.5)
    assert r.residual <= 1e-13


def test_positive_1_1_coefficient():
    # phi_11 = 1 + mu H_1(z) H_1(w), mu = -(w1+w2)/(4 sqrt(w1 w2))
    om1, om2 = Fraction(2), Fraction(1)
    phi = member("positive", 1, 1, SpectrumParams(om1, om2),
                 exact=True).wavefunction.poly
    f = Field(True)
    num, sqrt_ = f.num, f.sqrt
    z = MultiPoly.linear({"x": sqrt_(om1), "y": sqrt_(om1) * num(om2)},
                         XY, True)
    w = MultiPoly.linear({"x": sqrt_(om2), "y": sqrt_(om2) * num(om1)},
                         XY, True)
    mu = -(num(om1 + om2) * sqrt_(Fraction(1) / (om1 * om2))
           * num(Fraction(1, 4)))
    want = MultiPoly.const(1, XY, True) + hermite(1, z) * hermite(1, w) * mu
    assert phi == want


def test_positive_mirror_branch():
    params = SpectrumParams(2.0, 1.0)
    r = member("positive", 1, 3, params)
    assert r.energy == pytest.approx(1.5 * 2 + 3.5 * 1)
    assert r.residual <= 1e-13


def test_exact_and_float_modes_agree_numerically():
    # the radical-sum coefficients embed into the float computation
    params_f = SpectrumParams(2.5, 1.5)
    params_e = SpectrumParams(Fraction(5, 2), Fraction(3, 2))
    for n, m in ((3, 2), (1, 4)):
        pf = member("positive", n, m, params_f).wavefunction.poly
        pe = member("positive", n, m, params_e,
                    exact=True).wavefunction.poly.to_float()
        assert (pf - pe).max_norm() <= 1e-12 * max(1.0, pf.max_norm())


def test_positive_suite_float_and_exact():
    params = SpectrumParams(2.0, 1.0)
    results = eigen_suite("positive", params, 6)
    assert max(r.residual for r in results) <= 1e-12
    exact_params = SpectrumParams(Fraction(2), Fraction(1))
    results = eigen_suite("positive", exact_params, 3, exact=True)
    assert max(r.residual for r in results) == 0.0


# ---------------------------------------------------------------------------
# equal-frequency structures
# ---------------------------------------------------------------------------

def test_degenerate_levels():
    r0 = degenerate_level(0, 1.0)
    assert r0.energy == 0.0 and r0.residual == 0.0
    assert r0.wavefunction.poly == MultiPoly.const(1, QX)
    assert r0.wavefunction.exponent == quad_exponent(
        {("q", "x"): -1j}, QX)

    r1 = degenerate_level(1, 1.0)
    arg = MultiPoly.linear({"q": 1j, "x": 1.0}, QX)   # i(q - ix)
    assert (r1.wavefunction.poly - hermite(1, arg)).max_norm() < 1e-15
    assert r1.energy == pytest.approx(1.0)

    rm = degenerate_level(-1, 1.0)
    assert rm.energy == pytest.approx(-1.0)
    assert rm.residual <= 1e-12

    fam = [degenerate_level(n, 2.0) for n in range(-5, 6)]
    assert max(r.residual for r in fam) <= 1e-12


def test_equal_frequency_xy_eigenvalues():
    f = Field(True)
    num, sqrt_ = f.num, f.sqrt
    om = Fraction(1)
    o = build_operator("O_xy", omega1=om, omega2=om, exact=True)
    z = MultiPoly.linear({"x": sqrt_(om), "y": sqrt_(om) * num(om)}, XY, True)
    for n in range(13):
        hn = hermite(n, z)
        assert (o.apply(hn) - hn * (om * (n + 1))).max_norm() == 0.0
    # the library check, in both forms: exact zeros in rational mode, also
    # at 13/10, where float mode leaves round-off
    for om in (Fraction(1), Fraction(13, 10)):
        assert equal_frequency_deviations(om, 12, exact=True) == (0.0, 0.0)
    assert equal_frequency_deviations(1.0, 12) == (0.0, 0.0)
    with pytest.raises(ValueError, match="frequencies must be positive"):
        equal_frequency_deviations(-1, 2, exact=True)


def test_z_form_scales_as_two_n_plus_one():
    # the single-variable operator form has eigenvalue w(2N+1), not w(N+1)
    om = Fraction(1)
    o = build_operator("O_eq", omega=om, exact=True)
    z = MultiPoly.var("z", ("z",), exact=True)
    for n in range(6):
        hn = hermite(n, z)
        assert (o.apply(hn) - hn * (om * (2 * n + 1))).max_norm() == 0.0
        if n:
            assert (o.apply(hn) - hn * (om * (n + 1))).max_norm() != 0.0


# ---------------------------------------------------------------------------
# descendants
# ---------------------------------------------------------------------------

def test_descendant_polynomials_match_printed_forms():
    om = 1.0
    d0 = descendant(0, om)
    assert d0.poly == MultiPoly.const(1, ("q", "x", "t"))
    d1 = descendant(1, om)
    vars = d1.poly.vars
    q = MultiPoly.var("q", vars)
    x = MultiPoly.var("x", vars)
    t = MultiPoly.var("t", vars)
    assert d1.poly == t - (x * x + q * q) * 1j
    with pytest.raises(ValueError):
        descendant(3, om)


@pytest.mark.parametrize("omega", [1.0, 0.5, 2.0])
def test_descendant_time_residuals(omega):
    for order in (0, 1, 2):
        fn = descendant(order, omega)
        assert descendant_time_residual(fn, omega) <= 1e-12
    oscillator, free = descendant_deviations(omega)
    assert oscillator <= 1e-12 and free <= 1e-12
    assert descendant_deviations(Fraction(omega), exact=True) == (0.0, 0.0)


def test_free_descendants():
    f2 = free_descendant(2)
    vars = f2.poly.vars
    x = MultiPoly.var("x", vars)
    t = MultiPoly.var("t", vars)
    assert f2.poly == t - x * x * 1j
    for order in range(5):
        assert free_descendant_time_residual(free_descendant(order)) <= 1e-12
    with pytest.raises(ValueError):
        free_descendant(5)


# ---------------------------------------------------------------------------
# continuum truncations
# ---------------------------------------------------------------------------

def test_continuum_reduces_at_small_k():
    r = continuum_eigenfunction(0, 1e-9, 1.0, 6)
    poly = r.wavefunction.poly
    const = poly.coefficient((0, 0))
    rest = poly - MultiPoly.const(const, QX)
    assert abs(const) == pytest.approx(1.0)
    assert rest.max_norm() < 1e-17
    assert r.energy == pytest.approx(0.0, abs=1e-12)


def test_continuum_residual_decreases_with_truncation():
    res = {m: continuum_eigenfunction(0, 1.0, 1.0, m).residual
           for m in (5, 10, 20)}
    assert res[10] < res[5]
    assert res[20] < res[10]
    assert res[20] <= 1e-6 * res[5]


def test_continuum_leading_term_l1():
    r = continuum_eigenfunction(1, 1.0, 1.0, 12)
    assert r.energy == pytest.approx(1.25)
    assert r.residual < 1e-10
    # at k -> 0 only the m = 0 term H_1(z)/4 survives
    small = continuum_eigenfunction(1, 1e-9, 1.0, 12)
    z = MultiPoly.linear({"x": 1.0, "q": 1j}, QX)
    assert (small.wavefunction.poly - hermite(1, z) * 0.25).max_norm() < 1e-15
    rneg = continuum_eigenfunction(-1, 1.0, 1.0, 12)
    assert rneg.energy == pytest.approx(-0.75)
    assert rneg.residual < 1e-10
    with pytest.raises(ValueError):
        continuum_eigenfunction(0, 1.0, 1.0, 0)


@pytest.mark.parametrize("build", [
    lambda: density_scan(-1.0, 1.0, 0.0, 5),
    lambda: density_scan(1.0, 0.0, 0.0, 5),
    lambda: descendant(1, -1.0),
    lambda: descendant(2, 0.0),
    lambda: descendant(0, Fraction(-1), exact=True),
    lambda: continuum_eigenfunction(0, 1.0, -1.0, 5),
    lambda: continuum_eigenfunction(0, 1.0, 0.0, 5),
], ids=["density-omega1", "density-omega2", "descendant-negative",
        "descendant-zero", "descendant-rational", "continuum-negative",
        "continuum-zero"])
def test_non_positive_frequencies_are_rejected(build):
    with pytest.raises(ValueError, match="^frequencies must be positive$"):
        build()


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_hermite_sum_identity_small_cases():
    assert hermite_sum_identity(0, 0)
    assert hermite_sum_identity(1, 1)     # H_2 = H_1^2 - 2
    assert hermite_sum_identity(3, 2)
    for n in range(5):
        for m in range(5):
            assert hermite_sum_identity(n, m)


def test_exp_hermite_identity_range():
    assert all(exp_hermite_identity(n) for n in range(12))


# ---------------------------------------------------------------------------
# coalescence and Jordan demo
# ---------------------------------------------------------------------------

def test_gram_level_zero_is_trivial():
    assert gram_minimum_singular_values(0, [0.5, 0.1]) == [1.0, 1.0]


def test_gram_builds_hermite_tables_once_per_delta(monkeypatch):
    from puosc import spectra
    calls = []

    def counted(k, arg):
        calls.append(k)
        return hermite_table(k, arg)

    monkeypatch.setattr(spectra, "hermite_table", counted)
    gram_minimum_singular_values(3, [0.5, 0.1])
    assert calls == [3, 3, 3, 3]     # H_0..H_3 at both arguments, per delta


def test_gram_strictly_decreasing():
    vals = gram_minimum_singular_values(1, [0.5, 0.1, 0.02])
    assert vals[0] > vals[1] > vals[2] > 0
    vals2 = gram_minimum_singular_values(2, [0.1, 0.001])
    assert vals2[1] < vals2[0]


def test_jordan_norms():
    assert jordan_norm_sq(0, 1, 2.0) == pytest.approx(5.0)
    assert jordan_norm_sq(3 + 1j, 0, 7.0) == pytest.approx(10.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        t = float(rng.uniform(0, 10))
        closed = abs(a - 1j * b * t) ** 2 + abs(b) ** 2
        assert abs(jordan_norm_sq(a, b, t) - closed) <= 1e-14 * max(1, closed)
        assert jordan_norm_sq(a, b, t, "degenerate") \
            == pytest.approx(abs(b) ** 2)
    with pytest.raises(ValueError):
        jordan_norm_sq(0, 1, 1.0, "indefinite")
    euclidean, degenerate = jordan_deviations(0.7 - 0.2j, 1.1 + 0.4j, 4.2)
    assert euclidean <= 1e-14 and degenerate <= 1e-14
    for a, b, t in ((1e308, 1e308, 2.0), (0, 1e150, 1e200)):
        with pytest.raises(OverflowError):
            jordan_deviations(a, b, t)


def test_jordan_solution_satisfies_schroedinger():
    # i d/dt psi = H psi for H = [[1, 1], [0, 1]], checked by differencing
    a, b = 0.7 - 0.2j, 1.1 + 0.4j
    h = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)

    def psi(t):
        ph = cmath.exp(-1j * t)
        return np.array([(a - 1j * b * t) * ph, b * ph])

    eps = 1e-6
    for t in (0.0, 0.9, 4.2):
        dpsi = (psi(t + eps) - psi(t - eps)) / (2 * eps)
        assert np.allclose(1j * dpsi, h @ psi(t), atol=1e-8)
