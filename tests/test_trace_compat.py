"""The benchmark's layer tracer wraps puosc functions and operators by name.

``perfbench/layers.py`` looks each name up when it installs; a renamed or
deleted name there breaks ``perfbench/run.py --trace 1``.  This test installs
the tracer in a fresh interpreter and runs commands whose checks live in
``spectra``, ``phasespace`` and ``variational``: each report must come out
the same with and without the wrappers, and the library functions the
checks call must show up as spans.
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

COMMANDS = (["verify", "commutator", "--omegas", "1"], ["verify", "positive"],
            ["verify", "maps"], ["jordan", "demo"],
            ["variational", "check", "--sets", "2"])

def stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()

untraced = [stdout(argv) for argv in COMMANDS]
tracer = layers.Tracer()
tracer.install()
assert [stdout(argv) for argv in COMMANDS] == untraced
# install names every wrapper; a span of that name shows it was called
spans = {{tracer.names[i] for i in tracer.name}}
for name in ("polyalg.DiffOp.commutator", "phasespace.transform_equals",
             "variational.energy_closed_form"):
    assert name in spans, name
"""


@pytest.mark.skipif(not LAYERS.exists(), reason="perfbench/ not present")
def test_tracer_installs_and_traces():
    code = SCRIPT.format(src=str(ROOT / "src"),
                         perfbench=str(LAYERS.parent))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
