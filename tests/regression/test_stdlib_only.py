"""Regression: ``import repro`` plus a default ``optimize`` and ``analyze``
run on a bare interpreter (``python -S`` skips site-packages), so the
package pulls no third-party module into every CLI call's import time."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import repro
from repro.paper import programs

report = repro.optimize(programs.FIG1B_PARALLEL)
assert report.degradation is None and report.result.stats.converged
result = repro.analyze(repro.parse_program(programs.FIG3_SYNC))
assert result.system == "synch" and result.stats.converged
print("ok")
"""


def test_optimize_and_analyze_without_site_packages():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
