"""The benchmark's tracer self-test, run as the benchmark runs it.

The tracer wraps rayclass functions by name, calls suites with their keyword
bounds and swaps verify's thread pool, so a rename there fails this test.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_tracer_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=json.dumps({"kind": "selftest"}),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])["selftest"]
    assert len(checks) == 4
    assert all(c["ok"] for c in checks), checks
