"""The interleaved A/B tool on an A/A run: both sides are this tree."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_a_against_itself_runs_and_reports():
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "ab.py"), str(REPO), str(REPO),
                           "--workload", "stability", "--passes", "2", "--seed", "3"],
                          capture_output=True, text=True, timeout=300, check=True)
    line = proc.stdout.strip()
    match = re.fullmatch(r"stability, 2 passes, seed 3: median pass A ([\d.]+) ms, "
                         r"B ([\d.]+) ms, ratio B/A ([\d.]+), B faster in ([012])/2", line)
    assert match, line
    assert float(match[1]) > 0 and float(match[2]) > 0 and float(match[3]) > 0
