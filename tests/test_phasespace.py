import random
from fractions import Fraction

import numpy as np
import pytest

from puosc.exact import Exact
from puosc.dynamics import CLASSICAL_SYSTEMS
from puosc.phasespace import (DIAG_VARS, HAMILTONIAN_NAMES, PU_PAIRS, PU_VARS,
                              SYSTEMS, TRANSPORTS, CanonicalMap, PhasePoly,
                              SingularMapError, build_hamiltonian, build_map,
                              map_deviations, poisson_bracket,
                              transform_equals, transform_interaction,
                              verify_symplectic)
from puosc.polyalg import MultiPoly, VariableMismatchError


def pvar(name, exact=False):
    return PhasePoly(MultiPoly.var(name, PU_VARS, exact), PU_PAIRS)


def pconst(value, exact=False):
    return PhasePoly(MultiPoly.const(value, PU_VARS, exact), PU_PAIRS)


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------

def test_elementary_brackets():
    q, pq, x, px = pvar("q"), pvar("p_q"), pvar("x"), pvar("p_x")
    assert poisson_bracket(q, pq).poly == MultiPoly.const(1, PU_VARS)
    assert poisson_bracket(x * x, px).poly == (MultiPoly.var("x", PU_VARS) * 2)
    assert poisson_bracket(q, x).poly.is_zero()


def test_bracket_pairing_mismatch():
    q = pvar("q")
    other = PhasePoly(MultiPoly.var("q", PU_VARS),
                      (("q", "p_x"), ("x", "p_q")))
    with pytest.raises(VariableMismatchError):
        poisson_bracket(q, other)


def _random_phase_poly(rng, degree=3):
    terms = {}
    for _ in range(4):
        mono = tuple(int(rng.integers(0, degree)) for _ in PU_VARS)
        terms[mono] = Exact.rational(Fraction(int(rng.integers(-6, 7)),
                                              int(rng.integers(1, 5))))
    return PhasePoly(MultiPoly(PU_VARS, terms, exact=True), PU_PAIRS)


def test_bracket_axioms_on_random_cubics():
    rng = np.random.default_rng(29)
    zero = MultiPoly.zero(PU_VARS, exact=True)
    for _ in range(8):
        f, g, h = (_random_phase_poly(rng) for _ in range(3))
        assert (poisson_bracket(f, g).poly + poisson_bracket(g, f).poly) == zero
        leibniz = poisson_bracket(f, g * h).poly \
            - (poisson_bracket(f, g) * h).poly \
            - (g * poisson_bracket(f, h)).poly
        assert leibniz == zero
        jacobi = poisson_bracket(f, poisson_bracket(g, h)).poly \
            + poisson_bracket(g, poisson_bracket(h, f)).poly \
            + poisson_bracket(h, poisson_bracket(f, g)).poly
        assert jacobi == zero


# ---------------------------------------------------------------------------
# canonical maps
# ---------------------------------------------------------------------------

def test_rotation_map_coefficients_at_unit_frequency():
    m = build_map("rotation", 1.0)
    x_img = m.substitutions["x"]
    assert x_img.coefficient((0, 1, 0, 0)) == pytest.approx(1.0)   # x
    assert x_img.coefficient((0, 0, 0, 1)) == pytest.approx(0.25)  # p_q/4
    q_img = m.substitutions["q"]
    assert q_img.coefficient((1, 0, 0, 0)) == pytest.approx(1.0)
    assert q_img.coefficient((0, 0, 1, 0)) == pytest.approx(0.25)  # p_x/4


def test_equal_frequency_maps_are_singular():
    with pytest.raises(SingularMapError):
        build_map("diag", 1.0, 1.0)
    with pytest.raises(SingularMapError):
        build_map("complexified", Fraction(2), Fraction(2), exact=True)
    with pytest.raises(ValueError):
        build_map("diag", 1.0, 2.0)
    with pytest.raises(ValueError):
        build_map("nope", 2.0, 1.0)


def test_complexified_coefficient_value():
    # X1 coefficient on x is om1^2/(om1 sqrt(om1^2-om2^2)) = 2/sqrt(3)
    m = build_map("complexified", 2.0, 1.0)
    c = m.substitutions["X1"].coefficient((1, 0, 0, 0))
    assert c == pytest.approx(2.0 / np.sqrt(3.0))


def test_identity_map_symplectic():
    subs = {v: MultiPoly.var(v, PU_VARS) for v in PU_VARS}
    m = CanonicalMap("identity", subs, PU_PAIRS, PU_PAIRS)
    assert verify_symplectic(m).max_deviation == 0.0


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.7])
def test_rotation_symplectic_any_frequency(omega):
    assert verify_symplectic(build_map("rotation", omega)).max_deviation \
        < 1e-15


def test_all_maps_symplectic_exactly():
    for name in ("diag", "diag_inverse", "complexified"):
        m = build_map(name, Fraction(3), Fraction(1), exact=True)
        rep = verify_symplectic(m)
        assert rep.exact_zero, (name, rep.brackets)
    m = build_map("rotation", Fraction(5, 2), exact=True)
    assert verify_symplectic(m).exact_zero


def test_inverse_pair_printed_blocks():
    # the two printed directions undo each other
    om1, om2 = Fraction(3), Fraction(1)
    fwd = build_map("diag", om1, om2, exact=True)
    inv = build_map("diag_inverse", om1, om2, exact=True)
    for name, img in fwd.substitutions.items():
        roundtrip = img.subs(inv.substitutions)
        assert roundtrip == MultiPoly.var(name, PU_VARS, exact=True)
    # and the derived inverse reproduces the printed block
    derived = fwd.inverted()
    for name, img in inv.substitutions.items():
        assert derived.substitutions[name] == img


def test_diag_inverse_bracket_example():
    # {X1 expr, P1 expr} = 1 at (2, 1)
    m = build_map("diag_inverse", Fraction(2), Fraction(1), exact=True)
    x1 = PhasePoly(m.substitutions["X1"], PU_PAIRS)
    p1 = PhasePoly(m.substitutions["P1"], PU_PAIRS)
    assert poisson_bracket(x1, p1).poly \
        == MultiPoly.const(1, PU_VARS, exact=True)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_pu_hamiltonian_unit_frequencies():
    h = build_hamiltonian("pu", omega1=1, omega2=1, exact=True)
    q, x, px, pq = (MultiPoly.var(v, PU_VARS, exact=True) for v in PU_VARS)
    want = pq * x + px * px * Fraction(1, 2) + x * x - q * q * Fraction(1, 2)
    assert h.poly == want


def test_hprime_coefficients():
    h = build_hamiltonian("hprime", omega=2, exact=True)
    q, x, px, pq = (MultiPoly.var(v, PU_VARS, exact=True) for v in PU_VARS)
    want = (px * px + pq * pq) * Fraction(1, 4) + (x * pq - q * px) * 2
    assert h.poly == want


def test_robert_reduces_at_zero_coupling():
    h = build_hamiltonian("robert", omega=1, lam=0, exact=True)
    vars = h.poly.vars
    x, p, d, pp = (MultiPoly.var(v, vars, exact=True) for v in vars)
    assert h.poly == p * pp + d * x


def test_v1_requires_positive_coupling():
    with pytest.raises(ValueError):
        build_hamiltonian("diag_ghost_plus_V1", omega1=2, omega2=1, lam=0)
    h = build_hamiltonian("diag_ghost_plus_V2", omega1=2, omega2=1, lam=-1.0)
    assert h.poly.degree() == 4


def test_unknown_hamiltonian():
    with pytest.raises(ValueError):
        build_hamiltonian("pw", omega1=2, omega2=1)


def test_registry_lists_every_hamiltonian_once():
    assert HAMILTONIAN_NAMES == tuple(SYSTEMS)
    assert CLASSICAL_SYSTEMS == ("pu", "pu_quartic", "diag_ghost_plus_V1",
                                 "diag_ghost_plus_V2", "robert",
                                 "robert_gamma")
    given = {"omega1": Fraction(2), "omega2": Fraction(1),
             "omega": Fraction(3, 2), "lam": Fraction(1, 2)}
    for name, system in SYSTEMS.items():
        h = build_hamiltonian(name, exact=True, **{
            p: given.get(p, Fraction(1, 3)) for p in system.params})
        assert h.poly.vars == system.vars
        assert h.pairs == system.pairs


@pytest.mark.parametrize("name, kwargs, message", [
    ("pu", {"omega1": 2}, "'pu' needs omega2"),
    ("htild", {}, "'htild' needs omega"),
    ("rot", {}, "'rot' needs omega1 and omega2"),
    ("robert", {"omega": -1}, "frequencies must be positive"),
    ("diag_positive", {"omega1": 2, "omega2": 0},
     "frequencies must be positive"),
])
def test_hamiltonian_parameters_checked_against_registry(name, kwargs,
                                                         message):
    with pytest.raises(ValueError, match=message):
        build_hamiltonian(name, **kwargs)


# ---------------------------------------------------------------------------
# transported Hamiltonians
# ---------------------------------------------------------------------------

def test_rotation_transport_hand_expansion():
    # 1/2 p_x^2 + (x + p_q/4) p_q - (q + p_x/4) p_x at omega = 1
    htild = build_hamiltonian("htild", omega=1, exact=True)
    hprime = build_hamiltonian("hprime", omega=1, exact=True)
    m = build_map("rotation", Fraction(1), exact=True)
    assert transform_equals(htild, m, hprime) == 0.0


@pytest.mark.parametrize("om1,om2", [(Fraction(3), Fraction(1)),
                                     (Fraction(19, 10), Fraction(7, 10))])
def test_transport_triples_exact(om1, om2):
    pu = build_hamiltonian("pu", omega1=om1, omega2=om2, exact=True)
    ghost = build_hamiltonian("pu_diag_ghost", omega1=om1, omega2=om2,
                              exact=True)
    assert transform_equals(pu, build_map("diag", om1, om2, exact=True),
                            ghost) == 0.0
    dpos = build_hamiltonian("diag_positive", omega1=om1, omega2=om2,
                             exact=True)
    rot = build_hamiltonian("rot", omega1=om1, omega2=om2, exact=True)
    assert transform_equals(dpos, build_map("complexified", om1, om2,
                                            exact=True), rot) == 0.0
    # the library check: every map canonical, every transport exact
    keys = {"symplectic", *TRANSPORTS}
    assert map_deviations([(om1, om2)], exact=True) == dict.fromkeys(keys,
                                                                     0.0)
    floats = map_deviations([(float(om1), float(om2))])
    assert set(floats) == keys and max(floats.values()) <= 1e-12


def test_transport_triples_random_rational_pairs():
    rng = random.Random(99)
    pairs = []
    while len(pairs) < 5:
        om1 = Fraction(rng.randint(2, 30), rng.randint(1, 6))
        om2 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        if om1 > om2 > 0:
            pairs.append((om1, om2))
    for om1, om2 in pairs:
        pu = build_hamiltonian("pu", omega1=om1, omega2=om2, exact=True)
        ghost = build_hamiltonian("pu_diag_ghost", omega1=om1, omega2=om2,
                                  exact=True)
        assert transform_equals(
            pu, build_map("diag", om1, om2, exact=True), ghost) == 0.0


def test_fourth_order_equation_from_brackets():
    om1, om2 = Fraction(3), Fraction(1)
    h = build_hamiltonian("pu", omega1=om1, omega2=om2, exact=True)
    q = PhasePoly(MultiPoly.var("q", PU_VARS, exact=True), PU_PAIRS)
    dots = [q]
    for _ in range(4):
        dots.append(poisson_bracket(dots[-1], h))
    residual = dots[4].poly + dots[2].poly * (om1 ** 2 + om2 ** 2) \
        + dots[0].poly * (om1 ** 2 * om2 ** 2)
    assert residual.is_zero()


# ---------------------------------------------------------------------------
# complex interaction transport
# ---------------------------------------------------------------------------

def test_transform_interaction_structure():
    m = build_map("complexified", 2.0, 1.0)
    rep = transform_interaction(1.0, m)
    # imaginary part carries exactly the two stated monomials, ratio -om1^2
    assert rep.extra_imag_monomials == ()
    assert rep.p1x2cubed != 0 and rep.p1cubedx2 != 0
    assert rep.ratio == pytest.approx(-4.0)
    # real part even under (X2, P1) -> (-X2, -P1)
    flips = {"X1": MultiPoly.var("X1", DIAG_VARS),
             "P1": -MultiPoly.var("P1", DIAG_VARS),
             "X2": -MultiPoly.var("X2", DIAG_VARS),
             "P2": MultiPoly.var("P2", DIAG_VARS)}
    assert (rep.real_part.subs(flips) - rep.real_part).max_norm() < 1e-12


def test_transform_interaction_exact_and_zero():
    m = build_map("complexified", Fraction(2), Fraction(1), exact=True)
    rep0 = transform_interaction(0, m)
    assert rep0.delta_h.poly.is_zero()
    rep = transform_interaction(Fraction(1), m)
    assert complex(rep.ratio) == pytest.approx(-4.0)
    with pytest.raises(ValueError):
        transform_interaction(1.0, build_map("diag", 2.0, 1.0))


def test_interaction_matches_direct_y_substitution():
    # oracle: numerically invert the map matrix and expand lam*y^4
    m = build_map("complexified", 2.0, 1.0)
    mat = np.array([[complex(c) for c in row] for row in m.matrix()])
    minv = np.linalg.inv(mat)
    # row of y in new := old basis: new_vars order (x, y, p_x, p_y)
    y_row = minv[1]
    rep = transform_interaction(1.0, m)
    rng = np.random.default_rng(7)
    for _ in range(5):
        vals = rng.normal(size=4) + 1j * rng.normal(size=4)
        y_val = y_row @ vals
        point = dict(zip(DIAG_VARS, vals))
        assert rep.delta_h.poly.eval(point) == pytest.approx(y_val ** 4,
                                                             rel=1e-10)
