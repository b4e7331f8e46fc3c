"""One repetition of a workload, in a fresh interpreter started by run.py.

Reads a job (JSON) on stdin after rayclass is imported, runs its calls, and
prints one JSON result line.  The job kinds are `setup` (import only),
`sweep` (verify suite functions with keyword arguments), `queries`
(`rayclass.cli.main(argv)` in-process, stdout and stderr captured) and
`selftest` (the tracer's self-test).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rayclass.cli  # noqa: E402  (imports every rayclass module)

READY = time.monotonic()


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _suite_record(result) -> dict:
    """One suite as `rayclass verify --json` serialises it."""
    return json.loads(json.dumps({
        "name": result.name, "checks": result.checks, "failures": result.failures,
        "params": result.params,
    }))


def _run_sweep(calls, outputs, latencies):
    from rayclass import verify

    for call in calls:
        fn = getattr(verify, call["suite"])
        t0 = time.perf_counter()
        result = fn(**call["kwargs"])
        latencies.append(time.perf_counter() - t0)
        outputs.append(_suite_record(result))


def _run_queries(calls, outputs, latencies):
    from rayclass import cli

    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome to report
            rc, error = None, type(exc).__name__
        latencies.append(time.perf_counter() - t0)
        outputs.append({"rc": rc, "stdout": out.getvalue(), "error": error})


def _cache_ratio(fn) -> float:
    info = fn.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def main() -> int:
    job = json.loads(sys.stdin.read())
    result: dict = {"ready": READY, "rayclass": rayclass.cli.__file__}
    kind = job["kind"]
    if kind == "setup":
        print(json.dumps(result))
        return 0
    if kind == "selftest":
        import selftest

        result["selftest"] = selftest.run()
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    run = _run_sweep if kind == "sweep" else _run_queries
    outputs: list = []
    latencies: list = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if tracer is None:
        run(job["calls"], outputs, latencies)
    else:
        tracer.span(tracing.ROOT, run, job["calls"], outputs, latencies)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0

    from rayclass import classfield, splitting

    result.update(
        outputs=outputs,
        latencies=latencies,
        wall=wall,
        cpu=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        hit_ratios={
            "splitting.transfer_setup.hit_ratio": _cache_ratio(splitting._transfer_setup),
            "classfield.split_primes.hit_ratio": _cache_ratio(classfield._split_primes),
        },
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.span_count
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report the traceback to run.py, which fails the run
        traceback.print_exc()
        sys.exit(1)
