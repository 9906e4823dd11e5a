"""The benchmark's first round of every workload gives the pinned reports.

``perfbench/run.py --seconds 0`` runs one round of a workload's seeded plan,
checks each job's verdict and exit code, and prints the SHA-256 of that
round's report bytes.  This test runs it for each workload at seed 1 and
compares the digest with the one pinned below, so a change that moves a
single report byte of a benchmark job fails here, not only in the benchmark.

After a deliberate report change, rerun

    python3 perfbench/run.py --workload W --seed 1 --seconds 0

for each workload W, check the new reports, and paste the printed
``# reports_sha256_round_1`` into ``DIGESTS``; the goldens of
``tests/test_golden.py`` are updated alongside.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

DIGESTS = {
    "rational_verify":
        "8559d9c2310a301a6fb98b63a9d1a32b5e98e8dd1fa74c115c03dab427e147cb",
    "float_verify":
        "0041080db7d7aa1926bbf4a236a23864e33d5074144d8344f85f1e87b8892f34",
    "classical_orbits":
        "8ac92dc60563a7aa128d78befff1c6d4795e6b6e5d742156b16c6981d09bd699",
    "classical_scan":
        "f5b717b291c23762187ef160a388d1a78b9b90e89b8345cd898bfe700ba2ee5e",
}


@pytest.mark.skipif(not RUN.exists(), reason="perfbench/ not present")
@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_first_round_reports_are_pinned(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    digest = next(line.split(": ", 1)[1] for line in lines
                  if line.startswith("# reports_sha256_round_1: "))
    assert digest == DIGESTS[workload]
