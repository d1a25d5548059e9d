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
    side = r"([\d.]+) ms \(quartiles ([\d.]+)-([\d.]+)\)"
    match = re.fullmatch(rf"stability, 2 passes, seed 3: median pass A {side}, B {side}, "
                         r"ratio B/A ([\d.]+), B faster in ([012])/2", line)
    assert match, line
    for median, q1, q3 in (match.group(1, 2, 3), match.group(4, 5, 6)):
        assert 0 < float(q1) <= float(median) <= float(q3)
    assert float(match[7]) > 0
