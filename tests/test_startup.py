"""A command's process imports only what the command uses.

numpy, ``puosc.dynamics`` and ``puosc.variational`` load on first use, so a
verify, continuum or spectrum command starts without them.  Each case runs
in a fresh interpreter and prints, last on stderr, which of them it
imported.  (``-X importtime`` would not do: it leaves out modules imported
through ``importlib``, as the package's lazy names are.)
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("numpy", "puosc.dynamics", "puosc.variational")

# ``python -m puosc ARGS``, in-process, so that sys.modules can be read
RUN_MODULE = """
import runpy, sys
sys.argv = ["puosc", *{args!r}]
try:
    runpy.run_module("puosc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""
REPORT = "\nprint([m for m in {lazy!r} if m in sys.modules], file=sys.stderr)"


def run_python(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code", [
    "import sys, puosc.cli",
    RUN_MODULE.format(args=("verify", "eigen", "--nmax", "1")),
    RUN_MODULE.format(args=("--help",)),
], ids=["import", "verify-eigen", "help"])
def test_command_leaves_lazy_modules_unimported(code):
    proc = run_python("-c", code + REPORT.format(lazy=LAZY))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"


LAZY_NAMES = """
import sys
import puosc
names = set(puosc.__all__)
assert names <= set(dir(puosc)), names - set(dir(puosc))
assert not set({lazy!r}) & set(sys.modules)
for name in puosc.__all__:
    getattr(puosc, name)
from puosc import integrate, unbounded_search
from puosc import dynamics, variational
assert integrate is dynamics.integrate is puosc.integrate
assert unbounded_search is variational.unbounded_search
assert not hasattr(puosc, "no_such_name")
"""


def test_every_public_name_resolves():
    proc = run_python("-c", LAZY_NAMES.format(lazy=LAZY))
    assert proc.returncode == 0, proc.stderr
