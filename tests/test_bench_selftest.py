"""The benchmark's calls into rayclass, checked as the benchmark makes them.

The tracer wraps rayclass functions by name, calls suites with their keyword
bounds and swaps verify's thread pool, so a rename there fails the self-test.
The sweep suites and cached functions that `bench/run.py` and `bench/worker.py`
name are read from those files and checked in-process, without a benchmark run.
"""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

from rayclass import classfield, splitting, verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKER = BENCH / "worker.py"


def _module_constants(path, *names):
    """The literal values assigned to `names` at the top level of the module at `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }


def test_every_sweep_suite_takes_the_arguments_the_benchmark_passes():
    found = _module_constants(BENCH / "run.py", "SWEEPS", "SEEDED")
    suites = {suite for names in found["SWEEPS"].values() for suite in names}
    assert found["SEEDED"] <= suites
    for suite in sorted(suites):
        kwargs = {"threads": 2, "seed": 1} if suite in found["SEEDED"] else {"threads": 2}
        inspect.signature(getattr(verify, suite)).bind(**kwargs)  # TypeError if one is refused


def test_every_cache_the_worker_reads_has_cache_info():
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    read = {
        (arg.value.id, arg.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_cache_ratio"
        for arg in node.args
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
    }
    assert read == {("splitting", "_transfer_setup"), ("classfield", "_split_primes")}
    modules = {"splitting": splitting, "classfield": classfield}
    for module, name in sorted(read):
        assert callable(getattr(getattr(modules[module], name), "cache_info", None)), (module, name)


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
