"""Pin the command-line surface: help, usage and argparse error text.

Each case runs ``puosc.cli.main`` in-process with an 80-column terminal and
compares the exit code and the stdout/stderr bytes with
``tests/cli_surface/<name>.txt``.  The cases are the ``--help`` of the top
level, of each group and of each subcommand, plus the usage errors that
argparse reports itself: an unknown group or subcommand, an unknown flag, a
malformed number and missing required options.

After a deliberate change of the CLI surface, rewrite the expected text with

    PUOSC_GOLDEN_UPDATE=1 python -m pytest tests/test_cli_surface.py

and review the diff of ``tests/cli_surface/``.
"""

import os
from pathlib import Path

import pytest

from puosc.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_surface"
UPDATE = os.environ.get("PUOSC_GOLDEN_UPDATE") == "1"

SUBCOMMANDS = {
    "verify": ("eigen", "positive", "identities", "commutator", "maps",
               "descendants"),
    "continuum": ("residual",),
    "spectrum": ("density",),
    "jordan": ("demo",),
    "gram": ("limit",),
    "classical": ("run", "scan", "envelope"),
    "variational": ("check", "descend"),
}

CASES = [
    (),
    ("--help",),
    *((group, "--help") for group in SUBCOMMANDS),
    *((group, what, "--help")
      for group, whats in SUBCOMMANDS.items() for what in whats),
    ("verify", "nonsense"),
    ("totally-unknown",),
    ("verify", "eigen", "--bogus"),
    ("verify", "eigen", "--nmax", "x"),
    ("classical", "run", "--system", "pu"),
]


def name(argv) -> str:
    return "-".join(tok.lstrip("-") for tok in argv) or "no-arguments"


def render(argv, code, out, err) -> str:
    return (f"$ {' '.join(('puosc', *argv))}\n[exit {code}]\n"
            f"--- stdout\n{out}--- stderr\n{err}")


@pytest.mark.parametrize("argv", CASES, ids=name)
def test_cli_surface_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    captured = capsys.readouterr()
    text = render(argv, code, captured.out, captured.err)
    path = EXPECTED / f"{name(argv)}.txt"
    if UPDATE:
        EXPECTED.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    assert text == path.read_text(encoding="utf-8")


def test_subcommand_list_is_complete():
    assert sum(map(len, SUBCOMMANDS.values())) == 15
    assert {p.stem for p in EXPECTED.glob("*.txt")} == set(map(name, CASES))
