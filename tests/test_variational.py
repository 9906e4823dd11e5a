import numpy as np
import pytest

from puosc.variational import (AnsatzParams, _fd_gradient, check_draws,
                               energy_closed_form, energy_quadrature, gradient,
                               unbounded_search)


def test_params_validation():
    with pytest.raises(ValueError):
        AnsatzParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AnsatzParams(1.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        AnsatzParams(1.0, 0.0, 1.0, omega=0.0)


def test_closed_form_reference_points():
    assert energy_closed_form(AnsatzParams(1, 0, 1)) == pytest.approx(0.25)
    # the wide-A limit drops every A term: E -> C/4 - B/(2C) + 3 gamma/(4C^2)
    p = AnsatzParams(1e12, 3.0, 2.0, gamma=0.8)
    want = 2.0 / 4 - 3.0 / 4 + 3 * 0.8 / 16
    assert energy_closed_form(p) == pytest.approx(want, abs=1e-9)


def test_quadrature_matches_closed_form_scenarios():
    p = AnsatzParams(2.0, 1.0, 3.0, alpha=0.1, beta=0.2, gamma=0.3, omega=1.0)
    assert energy_quadrature(p) == pytest.approx(energy_closed_form(p),
                                                 rel=1e-12)
    # decoupled sectors at B = 0, beta = 0 add up
    full = energy_quadrature(AnsatzParams(1.5, 0.0, 0.7, alpha=0.4, gamma=0.9))
    qpart = energy_quadrature(AnsatzParams(1.5, 0.0, 0.7, alpha=0.4))
    xpart = energy_quadrature(AnsatzParams(1.5, 0.0, 0.7, gamma=0.9))
    base = energy_quadrature(AnsatzParams(1.5, 0.0, 0.7))
    assert full == pytest.approx(qpart + xpart - base, rel=1e-12)
    with pytest.raises(ValueError):
        energy_quadrature(p, level=3)


def test_quadrature_level_stability():
    p = AnsatzParams(0.8, -1.2, 2.4, alpha=0.5, beta=0.7, gamma=0.2)
    assert energy_quadrature(p, level=8) \
        == pytest.approx(energy_quadrature(p, level=40), rel=1e-12)


def test_seeded_random_agreement():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a, c = rng.uniform(0.3, 4.0, 2)
        b = rng.uniform(-2.0, 2.0)
        al, be, ga = rng.uniform(0.0, 1.0, 3)
        om = rng.uniform(0.5, 2.0)
        p = AnsatzParams(a, b, c, alpha=al, beta=be, gamma=ga, omega=om)
        e1, e2 = energy_closed_form(p), energy_quadrature(p)
        assert abs(e1 - e2) <= 1e-6 * max(1.0, abs(e1))
    for couplings in ((0.0, 0.0, 0.0), (0.5, 0.7, 0.2)):
        worst_e, worst_g = check_draws(*couplings, 1.3, 10, 42)
        assert worst_e <= 1e-6 and worst_g <= 1e-6


def test_gradient_reference_values():
    # stationary in B at B = A/C - omega^2
    p = AnsatzParams(2.0, 1.0, 1.0, omega=1.0)
    assert gradient(p)[1] == pytest.approx(0.0, abs=1e-15)
    assert gradient(AnsatzParams(1, 0, 1))[2] == pytest.approx(0.25)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(10):
        a, c = rng.uniform(0.5, 3.0, 2)
        b = rng.uniform(-1.5, 1.5)
        al, be, ga = rng.uniform(0.0, 1.0, 3)
        p = AnsatzParams(a, b, c, alpha=al, beta=be, gamma=ga, omega=1.3)
        grad = gradient(p)
        fds = _fd_gradient(p, h)
        for idx, name in enumerate(("A", "B", "C")):
            base = dict(A=a, B=b, C=c, alpha=al, beta=be, gamma=ga, omega=1.3)
            up, dn = dict(base), dict(base)
            up[name] += h
            dn[name] -= h
            fd = (energy_closed_form(AnsatzParams(**up))
                  - energy_closed_form(AnsatzParams(**dn))) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(grad[idx]))
            assert fds[idx] == fd


def test_certificate_short_threshold():
    cert = unbounded_search(0, 0, 0, 1.0, -1.0)
    assert cert.terminal_energy <= -1.0
    assert cert.monotone()
    assert len(cert.path) == len(cert.energies)


@pytest.mark.parametrize("couplings,threshold", [
    ((0.0, 0.0, 0.0), -1e6),
    ((1.0, 1.0, 1.0), -1e3),
    ((0.0, 0.0, 0.0), -1e9),
])
def test_certificates_reach_threshold(couplings, threshold):
    al, be, ga = couplings
    cert = unbounded_search(al, be, ga, 1.0, threshold)
    assert cert.terminal_energy <= threshold
    assert cert.monotone()


def test_certificate_deterministic_and_serializable():
    a = unbounded_search(0.3, 0.2, 0.1, 1.0, -1e4)
    b = unbounded_search(0.3, 0.2, 0.1, 1.0, -1e4)
    assert a.path == b.path
    assert a.energies == b.energies
    d = a.to_dict()
    assert set(d) == {"path", "energies", "terminal_energy"}
    assert d["energies"][-1] == a.terminal_energy


def test_threshold_must_be_negative():
    with pytest.raises(ValueError):
        unbounded_search(0, 0, 0, 1.0, 0.5)
