"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions and operators of each
``puosc`` module with wrappers that open a span per call.  A span is a row
of four columns (name, parent, start, end) held in ``array`` buffers, so a
million spans take about 22 MB.  Counts that a span cannot show (terms in a
product, integrator steps, RHS evaluations) are added up by the same
wrappers as the call returns.

Only the process that calls ``install`` ever sees the wrappers; there is no
way back, so a benchmark run times its untraced jobs first.
"""

from __future__ import annotations

import collections
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("exact", "polyalg", "phasespace", "spectra", "dynamics",
          "variational", "cli", "job")


class Tracer:
    def __init__(self):
        self.names = []                  # span name table; index = name id
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []                 # open span indices
        self.counts = collections.Counter()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name`` ("layer.function").

        ``after(result)`` adds the call's work counts once it returns.
        """
        nid = self._name_id(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced entry point of the imported ``puosc`` package."""
        from puosc import (cli, dynamics, exact, phasespace, polyalg, spectra,
                           variational)
        counts = self.counts
        modules = [m for n, m in sys.modules.items()
                   if n == "puosc" or n.startswith("puosc.")]

        def function(layer, module, fname, after=None, impl=None):
            orig = getattr(module, fname)
            wrapped = self.wrap(f"{layer}.{fname}", impl or orig, after)
            for m in modules:           # names imported with "from x import f"
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

        def method(layer, cls, mname, after=None):
            raw = cls.__dict__[mname]
            is_cm = isinstance(raw, classmethod)
            wrapped = self.wrap(f"{layer}.{cls.__name__}.{mname}",
                                raw.__func__ if is_cm else raw, after)
            setattr(cls, mname, classmethod(wrapped) if is_cm else wrapped)

        for mname in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                      "__pow__", "inverse", "coerce", "__eq__"):
            method("exact", exact.Exact, mname)

        def product_terms(result):
            if isinstance(result, polyalg.MultiPoly):
                counts["polyalg.terms_out"] += len(result.terms)

        for mname in ("__mul__", "__rmul__"):
            method("polyalg", polyalg.MultiPoly, mname, product_terms)
        for mname in ("__add__", "__radd__"):
            method("polyalg", polyalg.MultiPoly, mname)
        for mname in ("__mul__", "__rmul__", "apply", "commutator"):
            method("polyalg", polyalg.DiffOp, mname)
        function("polyalg", polyalg, "hermite")
        function("polyalg", polyalg, "exp_diff_apply")

        for fname in ("poisson_bracket", "build_map", "build_hamiltonian",
                      "verify_symplectic", "transform_equals",
                      "transform_interaction"):
            function("phasespace", phasespace, fname)

        def eigenfunctions(result):
            counts["spectra.eigenfunctions"] += (
                len(result) if isinstance(result, list) else 1)

        made_by = {"eigen_suite", "eigenfunction", "degenerate_level",
                   "continuum_eigenfunction"}
        for fname, fn in inspect.getmembers(spectra, inspect.isfunction):
            if fn.__module__ == spectra.__name__ and not fname.startswith("_"):
                function("spectra", spectra, fname,
                         eigenfunctions if fname in made_by else None)

        def integration(result):
            traj, verdict = result
            counts["dynamics.steps"] += traj.stats.steps
            counts["dynamics.rejected"] += traj.stats.rejected
            counts["dynamics.collapsed"] += verdict.collapsed

        def rhs_function(spec):
            f = orig_rhs_function(spec)

            def counted(*state):
                counts["dynamics.rhs_evals"] += 1
                return f(*state)
            return counted

        orig_rhs_function = dynamics.SystemSpec.rhs_function
        dynamics.SystemSpec.rhs_function = self.wrap(
            "dynamics.SystemSpec.rhs_function", rhs_function)

        orig_csv_lines = dynamics.trajectory_csv_lines

        def csv_lines(traj):
            # a generator does its work when iterated: produce the rows
            # inside the span
            return iter(list(orig_csv_lines(traj)))

        function("dynamics", dynamics, "integrate", integration)
        function("dynamics", dynamics, "trajectory_csv_lines", impl=csv_lines)
        for fname in ("make_system", "stability_scan", "envelope_growth",
                      "hamilton_rhs", "detect_collapse",
                      "estimate_escape_time", "fourth_order_residual",
                      "write_trajectory_csv"):
            function("dynamics", dynamics, fname)

        for fname in ("energy_closed_form", "energy_quadrature", "gradient",
                      "unbounded_search"):
            function("variational", variational, fname)

        function("cli", cli, "main")

    # -- results -------------------------------------------------------------

    def columns(self):
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path: str):
        name, parent, start, end = self.columns()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)

    def metrics(self) -> dict:
        """Per-layer metrics, derived from the spans and the counts."""
        name, parent, start, end = self.columns()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        layer_of_name = np.array([LAYERS.index(n.split(".")[0])
                                  for n in self.names], dtype=np.int64)
        layer = layer_of_name[name]
        self_s = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        spans = np.bincount(layer, minlength=len(LAYERS))
        per_name = np.bincount(name, minlength=len(self.names))
        job_wall = float(dur[layer == LAYERS.index("job")].sum())

        def calls(*names):
            return int(sum(per_name[self._name_ids[n]] for n in names))

        def of(n):
            return name == self._name_ids[n]

        c = self.counts
        out = {}
        for i, lname in enumerate(LAYERS[:-1]):
            out[f"{lname}.self_s"] = float(self_s[i])
            out[f"{lname}.share"] = float(self_s[i]) / job_wall
        out["exact.calls"] = int(spans[LAYERS.index("exact")])
        out["exact.mul_calls"] = calls("exact.Exact.__mul__",
                                       "exact.Exact.__rmul__")
        out["exact.inverse_calls"] = calls("exact.Exact.inverse")
        out["polyalg.poly_mul_calls"] = calls("polyalg.MultiPoly.__mul__",
                                              "polyalg.MultiPoly.__rmul__")
        out["polyalg.terms_out"] = c["polyalg.terms_out"]
        out["polyalg.diffop_apply_calls"] = calls("polyalg.DiffOp.apply")
        out["polyalg.diffop_mul_calls"] = calls("polyalg.DiffOp.__mul__",
                                                "polyalg.DiffOp.__rmul__")
        out["polyalg.hermite_calls"] = calls("polyalg.hermite")
        out["phasespace.bracket_calls"] = calls("phasespace.poisson_bracket")
        out["spectra.eigenfunctions"] = c["spectra.eigenfunctions"]

        integrations = calls("dynamics.integrate")
        steps, rejected = c["dynamics.steps"], c["dynamics.rejected"]
        attempts = steps + rejected
        integrate_self = float(self_time[of("dynamics.integrate")].sum())
        out["dynamics.integrations"] = integrations
        out["dynamics.steps"] = steps
        out["dynamics.rejected"] = rejected
        out["dynamics.accept_ratio"] = steps / attempts if attempts else 0.0
        out["dynamics.rhs_evals"] = c["dynamics.rhs_evals"]
        out["dynamics.us_per_step"] = (1e6 * integrate_self / attempts
                                       if attempts else 0.0)
        out["dynamics.collapsed_frac"] = (
            c["dynamics.collapsed"] / integrations if integrations else 0.0)
        out["dynamics.make_system_s"] = float(
            dur[of("dynamics.make_system")].sum())
        out["variational.calls"] = int(spans[LAYERS.index("variational")])
        return out
