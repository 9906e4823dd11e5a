"""Golden-report gate: each README command reproduces its committed report.

The commands are the ``puosc ...`` lines of the command block in README.md,
so the README and the goldens cannot drift apart, plus the other arithmetic
mode of every subcommand that has both (``OTHER_MODE``).  Each command runs
in-process through ``puosc.cli.main`` in a fresh temporary directory.  The
test compares the report bytes, the exit code and the sha256 of every
``--csv``/``--cert`` artifact with ``tests/golden/``.

``EXTRA`` adds commands that no README line covers, under their own golden
names: a ``pu_quartic`` run that collapses, which pins the amplitude trigger,
the escape-time fit and the CSV of a run cut short.

Each case runs a second time with all its options moved into a JSON file
passed as ``--config``, and must give the same bytes.

After a deliberate change of report bytes, rewrite the goldens with

    PUOSC_GOLDEN_UPDATE=1 python -m pytest tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import hashlib
import json
import os
import shlex
from pathlib import Path

import pytest

from puosc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = GOLDEN / "index.json"
UPDATE = os.environ.get("PUOSC_GOLDEN_UPDATE") == "1"
ARTIFACT_FLAGS = ("--csv", "--cert")

OTHER_MODE = [
    "puosc verify eigen --omega1 3 --omega2 1 --nmax 8 --mode rational",
    "puosc verify positive --mode float --omega1 2 --omega2 1 --nmax 10",
    "puosc verify commutator --omegas 1,2 --mode float",
    "puosc verify maps --pairs 3:1,2:1 --mode float",
    "puosc verify descendants --omega 1 --mode rational",
]

EXTRA = {
    "classical-run-collapse":
        "puosc classical run --system pu_quartic --omega1 1 --omega2 1 "
        "--alpha 0.5 --ic 2,0,0,0 --t-end 60 --csv traj.csv",
}


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("puosc ")]


COMMANDS = readme_commands() + OTHER_MODE


def slug(line: str) -> str:
    """Golden file stem: the subcommand, plus the mode when one is given."""
    argv = shlex.split(line)[1:]
    name = "-".join(argv[:2])
    if "--mode" in argv:
        name += "-" + argv[argv.index("--mode") + 1]
    return name


CASES = [(slug(c), c) for c in COMMANDS] + list(EXTRA.items())


def test_commands_have_distinct_goldens():
    assert len({name for name, _ in CASES}) == len(CASES)
    if not UPDATE:
        index = json.loads(INDEX.read_text(encoding="utf-8"))
        assert sorted(index) == sorted(name for name, _ in CASES)


def run_case(line, argv, tmp_path, monkeypatch, capsys):
    """Run ``argv`` in ``tmp_path``; return the index entry of ``line``, whose
    artifacts are those its flags name, and the report bytes."""
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    report = capsys.readouterr().out.encode("utf-8")
    flags = shlex.split(line)[1:]
    artifacts = {
        flags[i + 1]: hashlib.sha256((tmp_path / flags[i + 1]).read_bytes())
        .hexdigest()
        for i, flag in enumerate(flags) if flag in ARTIFACT_FLAGS}
    return {"argv": line, "exit": code, "artifacts": artifacts}, report


def as_config(argv: list[str]) -> tuple[list[str], dict]:
    """The two subcommand tokens of ``argv``, and every option of it as a
    config entry whose value is the flag's text."""
    entries = {}
    tokens = iter(argv[2:])
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        entries[flag[2:]] = value if eq else next(tokens)
    return argv[:2], entries


@pytest.mark.parametrize("name, line", CASES, ids=[n for n, _ in CASES])
def test_report_matches_golden(name, line, tmp_path, monkeypatch, capsys):
    entry, report = run_case(line, shlex.split(line)[1:], tmp_path,
                             monkeypatch, capsys)
    if UPDATE:
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{name}.json").write_bytes(report)
        index = (json.loads(INDEX.read_text(encoding="utf-8"))
                 if INDEX.exists() else {})
        index[name] = entry
        INDEX.write_text(json.dumps(index, sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
        return
    index = json.loads(INDEX.read_text(encoding="utf-8"))
    assert entry == index[name]
    assert report == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, line", CASES, ids=[n for n, _ in CASES])
def test_report_from_config_matches_golden(name, line, tmp_path, monkeypatch,
                                           capsys):
    """Every option moved into a ``--config`` file, required ones included,
    gives the same report, exit code and artifacts as the flags."""
    command, entries = as_config(shlex.split(line)[1:])
    (tmp_path / "options.json").write_text(json.dumps(entries),
                                           encoding="utf-8")
    entry, report = run_case(line, ["--config", "options.json", *command],
                             tmp_path, monkeypatch, capsys)
    index = json.loads(INDEX.read_text(encoding="utf-8"))
    assert entry == index[name]
    assert report == (GOLDEN / f"{name}.json").read_bytes()
