"""puosc: machine verification of the Pais-Uhlenbeck oscillator's spectra,
canonical structure, and classical dynamics."""

__version__ = "0.1.0"

from .exact import Exact
from .polyalg import (DiffOp, ExpPolyFn, Field, MultiPoly,
                      VariableMismatchError, exp_diff_apply, hermite,
                      quad_exponent)
from .phasespace import (SYSTEMS, CanonicalMap, PhasePoly, SingularMapError,
                         build_hamiltonian, build_map, poisson_bracket,
                         transform_equals, transform_interaction,
                         verify_symplectic)
from .spectra import (EigenResult, EqualFrequencyError, SpectrumParams,
                      build_operator, commutator_check, continuum_eigenfunction,
                      degenerate_level, density_scan, descendant, eigen_suite,
                      energy, exp_hermite_identity, free_descendant,
                      gram_minimum_singular_values, hermite_sum_identity,
                      jordan_norm_sq)

# dynamics (and numpy, which it imports) and variational load on first use
# of one of their names, so that importing the package stays cheap
_LAZY = {name: module for module, names in (
    ("dynamics", ("CollapseVerdict", "SystemSpec", "Trajectory",
                  "detect_collapse", "envelope_growth", "estimate_escape_time",
                  "fourth_order_residual", "hamilton_rhs", "integrate",
                  "make_system", "stability_scan", "write_trajectory_csv")),
    ("variational", ("AnsatzParams", "UnboundednessCertificate",
                     "energy_closed_form", "energy_quadrature", "gradient",
                     "unbounded_search")),
) for name in (module, *names)}


def __getattr__(name):
    """Import the submodule that holds ``name`` on first use (PEP 562)."""
    import importlib

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Exact", "Field", "MultiPoly", "quad_exponent", "ExpPolyFn", "DiffOp",
    "VariableMismatchError", "hermite", "exp_diff_apply",
    "SYSTEMS", "PhasePoly", "CanonicalMap", "SingularMapError", "poisson_bracket",
    "build_map", "build_hamiltonian", "transform_equals",
    "transform_interaction", "verify_symplectic",
    "SpectrumParams", "EigenResult", "EqualFrequencyError", "energy",
    "build_operator", "eigen_suite", "degenerate_level",
    "descendant", "free_descendant", "continuum_eigenfunction",
    "commutator_check", "hermite_sum_identity", "exp_hermite_identity",
    "gram_minimum_singular_values", "density_scan", "jordan_norm_sq",
    "SystemSpec", "Trajectory", "CollapseVerdict", "make_system",
    "hamilton_rhs", "integrate", "detect_collapse", "estimate_escape_time",
    "fourth_order_residual", "stability_scan", "envelope_growth",
    "write_trajectory_csv",
    "AnsatzParams", "UnboundednessCertificate", "energy_closed_form",
    "energy_quadrature", "gradient", "unbounded_search",
]
