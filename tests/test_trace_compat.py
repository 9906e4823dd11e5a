"""The benchmark's layer tracer wraps puosc functions and operators by name.

``perfbench/layers.py`` looks each name up when it installs; a renamed or
deleted name there breaks ``perfbench/run.py --trace 1``.  This test installs
the tracer in a fresh interpreter and runs one traced command.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import layers
from puosc import cli
tracer = layers.Tracer()
tracer.install()
assert cli.main(["verify", "commutator", "--omegas", "1"]) == 0
assert "polyalg.DiffOp.commutator" in tracer.names
"""


@pytest.mark.skipif(not LAYERS.exists(), reason="perfbench/ not present")
def test_tracer_installs_and_traces():
    code = SCRIPT.format(src=str(ROOT / "src"),
                         perfbench=str(LAYERS.parent))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
