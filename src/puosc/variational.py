"""Variational energy of the quartic interacting oscillator.

The three-parameter Gaussian ansatz exp(-A q^2/2 - i B x q - C x^2/2) has
a closed-form energy expectation; an independent Gauss-Hermite quadrature
oracle recomputes it from the operator action, and a two-ramp descent
produces certificates that the energy has no lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .polyalg import ExpPolyFn, MultiPoly, quad_exponent
from .spectra import QX, build_operator


@dataclass(frozen=True)
class AnsatzParams:
    """Gaussian ansatz widths/phase plus couplings and frequency."""

    A: float
    B: float
    C: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if not (self.A > 0 and self.C > 0):
            raise ValueError("A and C must be positive for a normalizable ansatz")
        if not self.omega > 0:
            raise ValueError("omega must be positive")


def energy_closed_form(p: AnsatzParams) -> float:
    """E(A,B,C) = C/4 + B^2/(4A) + B w^2/(2A) - B/(2C)
    + 3 alpha/(4A^2) + 3 gamma/(4C^2) + beta/(4AC)."""
    a, b, c = p.A, p.B, p.C
    return (c / 4 + b * b / (4 * a) + b * p.omega ** 2 / (2 * a) - b / (2 * c)
            + 3 * p.alpha / (4 * a * a) + 3 * p.gamma / (4 * c * c)
            + p.beta / (4 * a * c))


def energy_quadrature(p: AnsatzParams, level: int = 24) -> float:
    """<phi|H|phi> / <phi|phi> by Gauss-Hermite quadrature.

    The operator is applied to the ansatz symbolically, which folds the
    i*B cross phase into a polynomial prefactor; the remaining weight
    exp(-A q^2 - C x^2) is handled by a tensor Gauss-Hermite rule that is
    exact for the resulting polynomial degree once ``level`` exceeds half
    the degree.
    """
    # imported on first use: the closed form and the search need no numpy
    import numpy as np

    if level < 5:
        raise ValueError("quadrature level must be at least 5")
    exponent = quad_exponent({
        ("q", "q"): -0.5 * p.A,
        ("q", "x"): -1j * p.B,
        ("x", "x"): -0.5 * p.C,
    }, QX)
    phi = ExpPolyFn(MultiPoly.const(1.0, QX), exponent)
    h = build_operator("H_interacting", omega=p.omega,
                       alpha=p.alpha, beta=p.beta, gamma=p.gamma)
    acted = h.apply(phi).poly          # H phi = acted * exp(Q)

    # conj(phi) * H phi = acted * exp(-A q^2 - C x^2): the phases cancel
    nodes, weights = np.polynomial.hermite.hermgauss(level)
    qs = nodes / math.sqrt(p.A)
    xs = nodes / math.sqrt(p.C)
    total = 0j
    for mono, c in acted.terms.items():
        eq, ex = mono
        mq = float(np.sum(weights * qs ** eq)) if eq else float(np.sum(weights))
        mx = float(np.sum(weights * xs ** ex)) if ex else float(np.sum(weights))
        total += complex(c) * mq * mx
    norm = float(np.sum(weights)) ** 2
    value = total / norm
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise ArithmeticError(f"expectation came out complex: {value}")
    return value.real


def gradient(p: AnsatzParams) -> tuple[float, float, float]:
    """Analytic (dE/dA, dE/dB, dE/dC) of the closed form."""
    a, b, c = p.A, p.B, p.C
    da = (-b * b / (4 * a * a) - b * p.omega ** 2 / (2 * a * a)
          - 3 * p.alpha / (2 * a ** 3) - p.beta / (4 * a * a * c))
    db = b / (2 * a) + p.omega ** 2 / (2 * a) - 1 / (2 * c)
    dc = (0.25 + b / (2 * c * c) - 3 * p.gamma / (2 * c ** 3)
          - p.beta / (4 * a * c * c))
    return (da, db, dc)


def _fd_gradient(p: AnsatzParams, h: float = 1e-5) -> list:
    """Central differences of the closed form in A, B and C."""
    def e(name, dx):
        return energy_closed_form(replace(p, **{name: getattr(p, name) + dx}))

    return [(e(name, h) - e(name, -h)) / (2 * h) for name in ("A", "B", "C")]


def check_draws(alpha: float, beta: float, gamma: float, omega: float,
                sets: int, seed: int) -> tuple[float, float]:
    """Worst relative deviations over ``sets`` seeded draws of (A, B, C):
    of the closed form from the quadrature, and of the analytic gradient
    from central differences."""
    # imported on first use: the closed form and the search need no numpy
    import numpy as np

    rng = np.random.default_rng(seed)
    worst_e = worst_g = 0.0
    for _ in range(sets):
        a, c = rng.uniform(0.3, 4.0, 2)
        b = rng.uniform(-2.0, 2.0)
        p = AnsatzParams(a, b, c, alpha, beta, gamma, omega)
        e1, e2 = energy_closed_form(p), energy_quadrature(p)
        worst_e = max(worst_e, abs(e1 - e2) / max(1.0, abs(e1)))
        for gi, fi in zip(gradient(p), _fd_gradient(p)):
            worst_g = max(worst_g, abs(gi - fi) / max(1.0, abs(gi)))
    return worst_e, worst_g


@dataclass
class UnboundednessCertificate:
    """A strictly descending parameter path crossing the requested floor."""

    path: list
    energies: list
    terminal_energy: float

    def monotone(self) -> bool:
        return all(b < a for a, b in zip(self.energies, self.energies[1:]))

    def to_dict(self) -> dict:
        return {
            "path": [{"A": a, "B": b, "C": c} for a, b, c in self.path],
            "energies": list(self.energies),
            "terminal_energy": self.terminal_energy,
        }


def unbounded_search(alpha: float, beta: float, gamma: float, omega: float,
                     threshold: float,
                     max_steps: int = 2000) -> UnboundednessCertificate:
    """Drive the variational energy below a negative threshold.

    Follows the two-stage ramp (widen A, then raise the cross phase B at
    fixed C) with step rejection: a tenfold B step is taken whenever it
    lowers the energy, otherwise A is widened tenfold first.  Energies are
    strictly decreasing by construction.
    """
    if not threshold < 0:
        raise ValueError("threshold must be negative")
    a, b, c = 1.0, 1.0, 1.0

    def e(aa, bb, cc):
        return energy_closed_form(AnsatzParams(aa, bb, cc, alpha=alpha,
                                               beta=beta, gamma=gamma,
                                               omega=omega))

    cur = e(a, b, c)
    path = [(a, b, c)]
    energies = [cur]
    for _ in range(max_steps):
        if cur <= threshold:
            break
        cand = e(a, 10 * b, c)
        if cand < cur:
            b *= 10
            cur = cand
        else:
            cand = e(10 * a, b, c)
            if not cand < cur:
                raise ArithmeticError(
                    "descent stalled; both ramps failed to lower the energy")
            a *= 10
            cur = cand
        path.append((a, b, c))
        energies.append(cur)
    if cur > threshold:
        raise ArithmeticError(f"failed to reach {threshold} in {max_steps} steps")
    return UnboundednessCertificate(path=path, energies=energies,
                                    terminal_energy=cur)
