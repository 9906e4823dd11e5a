import argparse
import json
import os
import re
import shlex

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from puosc.cli import COMMANDS, main
from test_golden import readme_commands

REPORT_KEYS = {"version", "subcommand", "inputs", "checks", "pass"}
CHECK_KEYS = {"name", "anchor", "value", "tolerance", "pass"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


# one fast invocation per subcommand, exercising the full contract
FAST_COMMANDS = [
    ("verify", "eigen", "--nmax", "2"),
    ("verify", "eigen", "--nmax", "1", "--mode", "rational", "--tol", "0"),
    ("verify", "positive", "--nmax", "2", "--eq-nmax", "3"),
    ("verify", "positive", "--nmax", "3", "--eq-nmax", "3", "--mode",
     "rational", "--tol", "0"),
    ("verify", "identities", "--nmax", "6", "--expmax", "8"),
    ("verify", "commutator"),
    ("verify", "maps", "--pairs", "3:1", "--random-pairs", "2"),
    ("verify", "descendants"),
    ("continuum", "residual", "--orders", "5,12"),
    ("spectrum", "density", "--nmax", "30"),
    ("jordan", "demo"),
    ("gram", "limit", "--deltas", "0.5,0.1"),
    ("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
     "--ic", "1,0,-4,0", "--t-end", "10"),
    ("classical", "run", "--system", "diag_ghost_plus_V1", "--omega1", "1.2",
     "--omega2", "1", "--lam", "0.1", "--ic", "0.1,0,0.1,0", "--t-end", "20"),
    ("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
     "--omega2", "1", "--alpha", "0.5", "--extent", "1.5", "--cells", "3",
     "--t-probe", "25"),
    ("classical", "envelope", "--system", "robert", "--omega", "1", "--lam",
     "1", "--ic", "1,0,0.3,0", "--t-end", "260"),
    ("variational", "check", "--sets", "3"),
    ("variational", "descend", "--threshold", "-100"),
]


@pytest.mark.parametrize("argv", FAST_COMMANDS,
                         ids=[" ".join(c[:2]) for c in FAST_COMMANDS])
def test_subcommand_end_to_end(capsys, argv):
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["pass"] is True
    assert report["subcommand"] == " ".join(argv[:2])
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == CHECK_KEYS
        assert isinstance(check["anchor"], str) and check["anchor"]


def test_exit_code_on_check_failure(capsys):
    code, report = run_cli(capsys, "spectrum", "density", "--nmax", "30",
                           "--expect", "0.9")
    assert code == 1
    assert report["pass"] is False


def test_envelope_of_collapsing_system_fails(capsys):
    code, report = run_cli(capsys, "classical", "envelope", "--system",
                           "pu_quartic", "--omega1", "1", "--omega2", "1",
                           "--alpha", "0.5", "--ic", "2,0,0,0",
                           "--t-end", "200", "--window", "10")
    assert code == 1
    assert report["checks"][0]["value"] == "collapsed"


def test_scan_grid_artifact(tmp_path, capsys):
    grid_path = tmp_path / "scan.json"
    code, report = run_cli(capsys, "classical", "scan", "--system",
                           "pu_quartic", "--omega1", "1", "--omega2", "1",
                           "--alpha", "0.5", "--extent", "1.5", "--cells",
                           "3", "--t-probe", "25", "--out-grid",
                           str(grid_path))
    assert code == 0
    payload = json.loads(grid_path.read_text())
    assert set(payload) == {"q_values", "x_values", "bounded", "island"}
    assert len(payload["bounded"]) == 3


def test_scan_grid_keys_follow_the_state_layout(tmp_path, capsys):
    # the robert state is (x, p, D, P): the grid spans x and p
    grid_path = tmp_path / "scan.json"
    code, _ = run_cli(capsys, "classical", "scan", "--system", "robert",
                      "--omega", "1", "--extent", "0.5", "--cells", "2",
                      "--t-probe", "2", "--out-grid", str(grid_path))
    assert code == 0
    payload = json.loads(grid_path.read_text())
    assert set(payload) == {"x_values", "p_values", "bounded", "island"}


def test_missing_system_parameters_name_the_flags(capsys):
    assert main(["classical", "run", "--system", "robert", "--ic", "1,0,0,0",
                 "--t-end", "1"]) == 2
    assert capsys.readouterr().err == "error: robert needs --omega\n"


def test_exit_code_on_usage_errors(capsys):
    # argparse errors are returned as 2, not raised as SystemExit
    assert main(["verify", "nonsense"]) == 2
    assert main(["totally-unknown"]) == 2
    # semantic parameter error: missing frequencies
    code = main(["classical", "run", "--system", "pu", "--ic", "1,0,0,0",
                 "--t-end", "5"])
    assert code == 2



def test_usage_error_returns_2_without_raising(capsys):
    assert main(["verify", "nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


JORDAN_OVERFLOW = ("--a, --b and --t overflow a float: "
                   "|a - i*b*t|^2 + |b|^2 is out of range")


@pytest.mark.parametrize("argv, message", [
    (("verify", "eigen", "--nmax", "-1"), "--nmax must be >= 0, got -1"),
    (("verify", "positive", "--nmax", "1", "--eq-nmax", "-2"),
     "--eq-nmax must be >= 0, got -2"),
    (("verify", "identities", "--nmax", "-3"), "--nmax must be >= 0, got -3"),
    (("verify", "identities", "--expmax", "-1"),
     "--expmax must be >= 0, got -1"),
    (("verify", "positive", "--omega-eq", "0"),
     "--omega-eq must be > 0, got 0"),
    (("verify", "commutator", "--omegas", "0"), "--omegas must be > 0, got 0"),
    (("verify", "commutator", "--omegas", "1,-1/2"),
     "--omegas must be > 0, got -1/2"),
    (("verify", "descendants", "--omega", "0"), "--omega must be > 0, got 0"),
    (("continuum", "residual", "--omega", "-1"),
     "--omega must be > 0, got -1.0"),
    (("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--cells", "0"), "--cells must be >= 1, got 0"),
    (("classical", "envelope", "--system", "robert", "--omega", "1",
      "--ic", "1,0,0.3,0", "--window", "0"), "--window must be > 0, got 0.0"),
    (("variational", "check", "--sets", "0"), "--sets must be >= 1, got 0"),
    (("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--extent", "0"), "--extent must be > 0, got 0.0"),
    (("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--extent", "-3"), "--extent must be > 0, got -3.0"),
    (("continuum", "residual", "--orders", "10"),
     "--orders needs at least two distinct orders, got 10"),
    (("continuum", "residual", "--orders", "10,10"),
     "--orders needs at least two distinct orders, got 10,10"),
    (("spectrum", "density", "--omega1", "-1", "--omega2", "1", "--nmax", "5"),
     "--omega1 must be > 0, got -1.0"),
    (("spectrum", "density", "--omega1", "0", "--omega2", "0", "--nmax", "5"),
     "--omega1 must be > 0, got 0.0"),
    (("gram", "limit", "--base-omega", "-1"),
     "--base-omega must be > 0, got -1.0"),
    (("continuum", "residual", "--k", "nan"), "--k must be finite, got nan"),
    (("variational", "check", "--alpha", "nan"),
     "--alpha must be finite, got nan"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,0,0,0", "--t-end", "inf"), "--t-end must be finite, got inf"),
    (("spectrum", "density", "--target", "nan"),
     "--target must be finite, got nan"),
    (("classical", "run", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--alpha", "nan", "--ic", "1,0,0,0", "--t-end", "5"),
     "--alpha must be finite, got nan"),
    (("verify", "commutator", "--mode", "float", "--omegas", "1,inf"),
     "--omegas must be finite, got inf"),
    (("verify", "eigen", "--tol", "-1"), "--tol must be >= 0, got -1.0"),
    (("verify", "maps", "--tol", "-1"), "--tol must be >= 0, got -1.0"),
    (("continuum", "residual", "--ratio-tol", "-1"),
     "--ratio-tol must be >= 0, got -1.0"),
    (("spectrum", "density", "--expect", "0.1", "--expect-tol", "-1"),
     "--expect-tol must be >= 0, got -1.0"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,0,0,0", "--t-end", "5", "--tol-energy", "-1"),
     "--tol-energy must be >= 0, got -1.0"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,0,0,0", "--t-end", "0"), "--t-end must be > 0, got 0.0"),
    (("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--t-probe", "0"), "--t-probe must be > 0, got 0.0"),
    (("verify", "eigen", "--omega1", "abc"),
     "--omega1 must be a real number, got 'abc'"),
    (("verify", "commutator", "--omegas", "1,inf"),
     "--omegas must be a rational number, got 'inf'"),
    (("verify", "commutator", "--omegas", "1/0"),
     "--omegas must be a rational number, got '1/0'"),
    (("verify", "maps", "--pairs", "3"),
     "--pairs must be omega1:omega2 pairs, got '3'"),
    (("verify", "maps", "--pairs", "3:x"),
     "--pairs must be a rational number, got 'x'"),
    (("verify", "maps", "--mode", "float", "--pairs", "inf:1"),
     "--pairs must be finite, got inf:1"),
    (("verify", "maps", "--pairs", "3:1,0:1"),
     "--pairs must be > 0, got 0:1"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,2,x,0", "--t-end", "5"), "--ic must be a real number, got 'x'"),
    (("continuum", "residual", "--orders", "5,x"),
     "--orders must be an integer, got 'x'"),
    (("gram", "limit", "--deltas", "0.5,x"),
     "--deltas must be a real number, got 'x'"),
    (("gram", "limit", "--deltas", ","),
     "--deltas must be a real number, got ''"),
    (("jordan", "demo", "--a", "x"), "--a must be a complex number, got 'x'"),
    (("jordan", "demo", "--a", "1e308", "--b", "1e308"), JORDAN_OVERFLOW),
    (("jordan", "demo", "--b", "1e150", "--t", "1e200"), JORDAN_OVERFLOW),
    (("verify", "eigen", "--mode", "rational", "--omega1", "1e400"),
     "--omega1 must be finite, got 1e400"),
    (("verify", "maps", "--pairs", "1e400:1"),
     "--pairs must be finite, got 1e400:1"),
    (("verify", "maps", "--pairs", "3:1", "--random-pairs", "-1"),
     "--random-pairs must be >= 0, got -1"),
    (("gram", "limit", "--level", "-1"), "--level must be >= 0, got -1"),
    (("variational", "check", "--seed", "-1"), "--seed must be >= 0, got -1"),
    # one value per frequency flag, every list entry parsed, ranges tested
    # on the value as a float
    (("verify", "eigen", "--omega1", "3,4"),
     "--omega1 must be a real number, got '3,4'"),
    (("verify", "descendants", "--mode", "rational", "--omega", "1,2"),
     "--omega must be a rational number, got '1,2'"),
    (("verify", "eigen", "--mode", "rational", "--omega1", "3", "--omega2",
      "1e-400", "--nmax", "1"), "--omega2 must be > 0, got 1e-400"),
    (("verify", "maps", "--pairs", "1e-400:1"),
     "--pairs must be > 0, got 1e-400:1"),
    (("gram", "limit", "--deltas", "inf"), "--deltas must be finite, got inf"),
    (("gram", "limit", "--deltas", "0"), "--deltas must be > 0, got 0"),
    (("continuum", "residual", "--orders", "0,2"),
     "--orders must be >= 1, got 0"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,0,0,0", "--t-end", "5", "--rtol=-1"),
     "--rtol must be in (0, 1), got -1.0"),
    (("classical", "scan", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--atol", "1"), "--atol must be in (0, 1), got 1.0"),
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,,0,0,0", "--t-end", "5"), "--ic must be a real number, got ''"),
    (("gram", "limit", "--deltas", "0.5,,0.1"),
     "--deltas must be a real number, got ''"),
    (("verify", "maps", "--pairs", "3:1,,2:1"),
     "--pairs must be omega1:omega2 pairs, got ''"),
    (("verify", "maps", "--pairs", "1:3"),
     "--pairs must be omega1 > omega2, got 1:3"),
    (("verify", "maps", "--mode", "float", "--pairs", "1:3"),
     "--pairs must be omega1 > omega2, got 1:3"),
    (("verify", "maps", "--pairs", "3:1,2:2"),
     "--pairs must be omega1 > omega2, got 2:2"),
    (("verify", "maps", "--mode", "float", "--pairs", "2:2"),
     "--pairs must be omega1 > omega2, got 2:2"),
    # constraints across flags, checked after every flag's own range
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "1,0,0", "--t-end", "5"),
     "--ic must have 4 components for --system pu, got 3"),
    (("classical", "envelope", "--system", "pu", "--omega1", "2", "--omega2",
      "1", "--ic", "1,0,0,0", "--t-end", "5"),
     "--t-end must be >= 10 * --window, got 5.0 and 25.0"),
    (("verify", "eigen", "--omega1", "1", "--omega2", "1"),
     "--omega1 must be > --omega2, got 1.0 and 1.0"),
    (("verify", "eigen", "--omega1", "1", "--omega2", "3"),
     "--omega1 must be > --omega2, got 1.0 and 3.0"),
    (("verify", "positive", "--mode", "rational", "--omega1", "1",
      "--omega2", "1"), "--omega1 must be > --omega2, got 1 and 1"),
    (("verify", "positive", "--mode", "rational", "--omega1", "1",
      "--omega2", "3"), "--omega1 must be > --omega2, got 1 and 3"),
    (("verify", "eigen", "--omega1", "1", "--omega2", "3", "--nmax", "-1"),
     "--nmax must be >= 0, got -1"),
    (("verify", "maps", "--random-pairs", "2", "--mode", "float"),
     "--random-pairs needs --mode rational, got --mode float: the pairs are "
     "drawn as rationals"),
    (("variational", "descend", "--threshold", "1"),
     "--threshold must be < 0, got 1.0"),
    (("variational", "descend", "--threshold", "0"),
     "--threshold must be < 0, got 0.0"),
    (("classical", "run", "--system", "diag_ghost_plus_V1", "--omega1", "2",
      "--omega2", "1", "--ic", "1,0,0,0", "--t-end", "1"),
     "--lam must be > 0 for --system diag_ghost_plus_V1, got 0.0"),
    (("variational", "descend", "--alpha=-1"),
     "--alpha, --beta, --gamma, --omega and --threshold admit no "
     "certificate: descent stalled; both ramps failed to lower the energy"),
])
def test_invalid_inputs_name_the_flag(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ranges_belong_to_their_subcommand(capsys):
    # --seed >= 0 is declared for variational check, not for verify maps
    code, report = run_cli(capsys, "verify", "maps", "--pairs", "3:1",
                           "--random-pairs", "1", "--seed", "-5")
    assert code == 0
    assert report["inputs"]["seed"] == -5


@pytest.mark.parametrize("mode, default", [("rational", 0.0),
                                           ("float", 1e-12)])
def test_maps_tolerance_defaults_per_mode_and_honours_zero(capsys, mode,
                                                           default):
    argv = ["verify", "maps", "--pairs", "3:1", "--mode", mode]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["inputs"]["tol"] == default
    # float arithmetic leaves round-off that an explicit 0 must not forgive
    code, report = run_cli(capsys, *argv, "--tol", "0")
    assert report["inputs"]["tol"] == 0.0
    assert {c["tolerance"] for c in report["checks"]} == {0.0}
    assert code == (0 if mode == "rational" else 1)


INITIAL_STEP = ("no initial step size: the vector field at the initial "
                "state, scaled by atol + rtol*|y0|, has RMS norm inf; the "
                "initial state is too large or atol too small")


@pytest.mark.parametrize("argv, message", [
    (("classical", "run", "--system", "pu", "--omega1", "2", "--omega2", "1",
      "--ic", "nan,0,0,0", "--t-end", "5"), "--ic must be finite, got nan"),
    (("classical", "run", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--alpha", "0.5", "--ic", "1e120,0,0,0",
      "--t-end", "5"), INITIAL_STEP),
    (("classical", "run", "--system", "pu_quartic", "--omega1", "1",
      "--omega2", "1", "--alpha", "0.5", "--ic", "2,0,0,0", "--t-end", "60",
      "--rtol", "1e-3", "--atol", "1e-300"), INITIAL_STEP),
])
def test_unusable_initial_conditions_name_the_cause(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"

def test_exit_code_on_io_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
    code = main(["verify", "commutator", "--out", str(missing_dir)])
    assert code == 3
    code = main(["classical", "run", "--system", "pu", "--omega1", "2",
                 "--omega2", "1", "--ic", "1,0,0,0", "--t-end", "1",
                 "--csv", str(missing_dir)])
    assert code == 3


def test_report_artifact_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(capsys, "verify", "commutator", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".puosc-")]
    assert leftovers == []


def test_reports_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "verify", "maps", "--pairs", "3:1", "--random-pairs", "3",
            "--out", str(a))
    run_cli(capsys, "verify", "maps", "--pairs", "3:1", "--random-pairs", "3",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_artifact(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    code, _ = run_cli(capsys, "classical", "run", "--system", "pu",
                      "--omega1", "2", "--omega2", "1", "--ic", "1,0,-4,0",
                      "--t-end", "5", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,v1,v2,v3,v4,H"
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 4, "expmax": 6}))
    code, report = run_cli(capsys, "--config", str(cfg), "verify",
                           "identities")
    assert code == 0
    assert report["inputs"]["nmax"] == 4
    code, report = run_cli(capsys, "--config", str(cfg), "verify",
                           "identities", "--nmax", "2")
    assert report["inputs"]["nmax"] == 2
    code = main(["--config", str(tmp_path / "absent.json"), "verify",
                 "identities"])
    assert code == 3


def write_config(tmp_path, entries) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_config_equals_spelling_is_read(tmp_path, capsys):
    path = write_config(tmp_path, {"nmax": 4, "expmax": 6})
    code, report = run_cli(capsys, f"--config={path}", "verify", "identities")
    assert code == 0
    assert (report["inputs"]["nmax"], report["inputs"]["expmax"]) == (4, 6)


CLASSICAL_RUN = {"system": "pu", "omega1": 2, "omega2": 1, "ic": "1,0,-4,0"}
CLASSICAL_FLAGS = ("--system", "pu", "--omega1", "2", "--omega2", "1",
                   "--ic", "1,0,-4,0", "--t-end", "5")


@pytest.mark.parametrize("entries, argv, flags", [
    ({"tol": 1}, ("verify", "eigen", "--nmax", "1"), ("--tol", "1")),
    ({"t": -1e-07}, ("jordan", "demo"), ("--t=-1e-07",)),
    ({**CLASSICAL_RUN, "t_end": 5}, ("classical", "run"), CLASSICAL_FLAGS),
    ({**CLASSICAL_RUN, "t-end": "5"}, ("classical", "run"), CLASSICAL_FLAGS),
], ids=["number-converted", "negative-number", "required-t_end",
        "required-t-end"])
def test_config_entries_read_as_flags(tmp_path, capsys, entries, argv, flags):
    path = write_config(tmp_path, entries)
    code = main(["--config", path, *argv])
    from_config = capsys.readouterr()
    assert code == main([*argv, *flags])
    assert code == 0
    assert from_config == capsys.readouterr()


@pytest.mark.parametrize("entries, argv, message", [
    ({"mode": "bogus", "nmax": 1}, ("verify", "eigen"),
     "argument --mode: invalid choice: 'bogus'"),
    ({"nmax": 4.5}, ("verify", "identities"),
     "argument --nmax: invalid int value: '4.5'"),
    ({"nope": 1}, ("verify", "identities"), "unrecognized arguments: --nope=1"),
    ({**CLASSICAL_RUN, "t_end": 1, "csv": None}, ("classical", "run"),
     "error: bad config: csv: expected a JSON string or number, got null"),
    ({"nmax": True}, ("verify", "identities"),
     "error: bad config: nmax: expected a JSON string or number, got true"),
    ({"omegas": [1, 2]}, ("verify", "commutator"),
     "error: bad config: omegas: expected a JSON string or number, "
     "got [1, 2]"),
    ([4], ("verify", "identities"),
     "error: bad config: expected a JSON object of options"),
    ({"a=b": "1"}, ("jordan", "demo"),
     "error: bad config: 'a=b' is not an option name"),
], ids=["choice", "int", "unknown-key", "null", "bool", "list", "not-object",
        "not-a-name"])
def test_bad_config_entries_exit_2(tmp_path, capsys, entries, argv, message):
    assert main(["--config", write_config(tmp_path, entries), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_config_path_and_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nmax: 4")
    assert main(["--config", str(bad), "verify", "identities"]) == 2
    assert main(["verify", "identities", "--config"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad config: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)",
        "error: bad config: --config needs a path"]


def parses(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def words_not_parsed_by(convert):
    printable_ascii = st.characters(min_codepoint=32, max_codepoint=126)
    return st.text(alphabet=printable_ascii, max_size=8).filter(
        lambda text: not parses(convert, text))


NON_SCALARS = st.one_of(
    st.booleans(), st.none(),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=1))
NON_INTEGRAL = st.floats(allow_nan=False).filter(
    lambda v: not v.is_integer())

# (subcommand, flag, wrong values) over two fast subcommands, covering each
# kind of flag they have: int, float, choice, complex text and a path
WRONG_ENTRIES = st.one_of(
    st.tuples(st.just(("verify", "identities")),
              st.sampled_from(("nmax", "expmax")),
              st.one_of(NON_SCALARS, NON_INTEGRAL, words_not_parsed_by(int))),
    st.tuples(st.just(("verify", "identities")), st.just("mode"),
              st.one_of(NON_SCALARS, st.integers(),
                        st.text(max_size=8).filter(lambda v: v != "rational"))),
    st.tuples(st.just(("jordan", "demo")), st.sampled_from(("t", "tol")),
              st.one_of(NON_SCALARS, words_not_parsed_by(float))),
    st.tuples(st.just(("jordan", "demo")), st.sampled_from(("a", "b")),
              st.one_of(NON_SCALARS, words_not_parsed_by(complex))),
    st.tuples(st.sampled_from((("verify", "identities"), ("jordan", "demo"))),
              st.just("out"), NON_SCALARS),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(WRONG_ENTRIES)
def test_wrong_typed_config_values_are_usage_errors(tmp_path, capsys, case):
    argv, key, value = case
    assert main(["--config", write_config(tmp_path, {key: value}), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def readme_values() -> dict:
    """{(group, what): {dest: value}} of the README's command lines."""
    values = {}
    for line in readme_commands():
        group, what, *tokens = shlex.split(line.replace("=", " "))[1:]
        values[group, what] = {flag[2:].replace("-", "_"): value
                               for flag, value in zip(tokens[::2],
                                                      tokens[1::2])}
    return values


README = readme_values()
# values that keep a run short, given in place of the README's own
SMALL = {"nmax": "3", "eq_nmax": "3", "expmax": "6", "orders": "2,5",
         "random_pairs": "2", "t_end": "30", "window": "3", "t_probe": "5",
         "cells": "2", "sets": "2"}
# 0 and -1 lie below every declared bound and 1e400 beyond a frequency's
# float range; the rest are words, complex and non-finite numbers
EDGES = ("0", "-1", "1e400", "1j", "bogus", "nan", "inf", "-inf")
ARTIFACTS = ("csv", "cert", "out_grid")   # paths the run would write to


def good_values(key, flag) -> list:
    """Strategies for a flag's README value (small for a size, else its
    default) and for its choices."""
    readme = SMALL.get(flag.dest, README[key].get(flag.dest, flag.default))
    good = [st.just(str(readme))] if readme is not None else []
    if flag.choices:
        good.append(st.sampled_from(flag.choices))
    return good


@st.composite
def contract_argv(draw):
    """A subcommand of the table with each size, required and README flag
    given and each other flag given or left out; in half the examples no
    value is an edge value."""
    key, (_, flags) = draw(st.sampled_from(list(COMMANDS.items())))
    faulty = draw(st.booleans())
    argv = list(key)
    for flag in flags:
        values = good_values(key, flag)
        if faulty:
            values.append(st.sampled_from(EDGES))
        if flag.dest in ARTIFACTS or not values:
            continue
        if (flag.required or flag.dest in SMALL or flag.dest in README[key]
                or draw(st.booleans())):
            argv.append(f"{flag.name}={draw(st.one_of(values))}")
    return argv


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def names_a_flag(argv, err) -> bool:
    """``err`` names a flag of the subcommand of ``argv`` (whole, so --omega
    does not match --omega1), or holds argparse's usage text."""
    _, flags = COMMANDS[tuple(argv[:2])]
    return "usage: puosc" in err or any(
        re.search(re.escape(f.name) + r"(?![\w-])", err) for f in flags)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(contract_argv())
def test_cli_exit_code_contract(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err
    if code in (0, 1):
        report = json.loads(captured.out, parse_constant=reject_constant)
        assert (code == 1) == any(not c["pass"] for c in report["checks"])
    else:
        assert captured.out == ""
    if code == 2:   # a library message that reaches the user names no flag
        assert names_a_flag(argv, captured.err), captured.err


def test_main_builds_only_the_chosen_subcommand(capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def record(parser, *names, **kwargs):
        added.append(names[-1])
        return add_argument(parser, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
    assert main(["verify", "eigen", "--nmax", "1"]) == 0
    # -h of puosc, puosc verify and puosc verify eigen, then their flags
    assert added == ["--help", "--config", "--help", "--help", "--out",
                     "--omega1", "--omega2", "--nmax", "--mode", "--tol"]


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_equal_frequency_limit_from_n_0(capsys, mode):
    code, report = run_cli(capsys, "verify", "positive", "--nmax", "1",
                           "--eq-nmax", "0", "--mode", mode)
    assert code == 0
    z_form = [c for c in report["checks"] if "z-form" in c["name"]]
    assert [c["value"] for c in z_form] == [0.0]


def test_informational_z_form_entry(capsys):
    code, report = run_cli(capsys, "verify", "positive", "--nmax", "1",
                           "--eq-nmax", "2")
    names = [c["name"] for c in report["checks"]]
    assert any("informational" in n and "z-form" in n for n in names)
