"""The benchmark's layer tracer wraps puosc functions and operators by name.

``perfbench/layers.py`` looks each name up when it installs; a renamed or
deleted name there breaks ``perfbench/run.py --trace 1``.  This test installs
the tracer in a fresh interpreter and runs commands whose checks live in
``spectra``, ``phasespace``, ``variational`` and ``dynamics``: each report,
and the trajectory CSV of ``classical run``, must come out the same with
and without the wrappers, and the library functions the checks call must
show up as spans.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"

SCRIPT = """
import contextlib, io, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import layers
from puosc import cli

CSV = {csv!r}
COMMANDS = (["verify", "commutator", "--omegas", "1"], ["verify", "positive"],
            ["verify", "maps"], ["jordan", "demo"],
            ["variational", "check", "--sets", "2"],
            ["classical", "scan", "--system", "pu_quartic", "--omega1", "1",
             "--omega2", "1", "--alpha", "0.5", "--extent", "2", "--cells",
             "3", "--t-probe", "5"],
            ["classical", "run", "--system", "pu", "--omega1", "2",
             "--omega2", "1", "--ic", "1,0,0,0", "--t-end", "5", "--csv",
             CSV])

def stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    if "--csv" not in argv:
        return out.getvalue(), None
    with open(CSV, "rb") as fh:
        return out.getvalue(), fh.read()

untraced = [stdout(argv) for argv in COMMANDS]
tracer = layers.Tracer()
tracer.install()
assert [stdout(argv) for argv in COMMANDS] == untraced
# install names every wrapper; a span of that name shows it was called
spans = [tracer.names[i] for i in tracer.name]
for name in ("polyalg.DiffOp.commutator", "polyalg.DiffOp.apply",
             "phasespace.transform_equals", "variational.energy_closed_form",
             "dynamics.integrate", "dynamics.make_system"):
    assert name in spans, name
# the first step size takes two evaluations, and the steps take none
# through rhs_function: 9 scan cells and one run
integrations = spans.count("dynamics.integrate")
assert integrations == 10, integrations
assert tracer.counts["dynamics.rhs_evals"] == 2 * integrations, tracer.counts
"""


@pytest.mark.skipif(not LAYERS.exists(), reason="perfbench/ not present")
def test_tracer_installs_and_traces(tmp_path):
    code = SCRIPT.format(src=str(ROOT / "src"),
                         perfbench=str(LAYERS.parent),
                         csv=str(tmp_path / "trajectory.csv"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
