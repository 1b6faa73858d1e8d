"""tools/scaling_rows.py runs each named row in a subprocess and prints its
wall time, peak RSS and answer size on one line, and rejects an unknown
row name."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "scaling_rows.py"


def test_a_row_prints_time_peak_and_size():
    out = subprocess.run(
        [sys.executable, str(TOOL), "bit_disjoint_factor sparse64x3"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[:2] == ["bit_disjoint_factor", "sparse64x3"]
    assert out[3] == "s" and out[5] == "MB" and out[6:] == ["0", "pairs"]
    assert float(out[2]) >= 0 and float(out[4]) > 0


def test_an_unknown_row_is_rejected():
    run = subprocess.run([sys.executable, str(TOOL), "decompose chain99"],
                         capture_output=True, text=True)
    assert run.returncode != 0 and "unknown row" in run.stderr
