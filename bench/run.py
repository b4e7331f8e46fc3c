"""rayclass benchmark: one workload at one seed, checked, with its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory holding `src/rayclass` and this
`bench/`).  Each repetition runs in a fresh interpreter (`worker.py`), and
repetitions start while the run's measured time plus one more repetition fits
in --seconds, so a workload whose repetition is longer runs exactly once.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions, runs the tracer's self-test, and prints the per-layer
metrics and the tracing overhead.  Every output is checked: suite records
against reference.json, CLI answers against oracles.py.  The last stdout line
is the result JSON; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import queries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PER_RUN_LIMIT_S = 170  # a run that cannot finish by then fails instead of overrunning
SETUP_PROBES = 20
# On a shared 2-vCPU VM the speed drifted by up to +-25% over minutes, in every
# workload alike (see README, "Steadiness and bounds").
COMPARE = ("timings follow the host's speed, which drifts over minutes; compare medians only "
           "between runs interleaved on both commits")

# Suite functions per sweep workload, at their defaults (the acceptance bounds).
# Only gauss_lemma_suite takes the run's seed: it moves the random half-systems
# but not the amount of work.  transfer_props_suite stays at its acceptance
# seed, because its seed draws the random part of the group corpus and with it
# the cost (seed 12 takes about 20% longer than seed 14 on the same machine).
SWEEPS = {
    "reciprocity": [
        "qr_splitting_suite", "qr_transfer_suite", "euler_formulation_suite", "takagi_suite",
        "indices_suite", "conductor_suite",
    ],
    "symbol-routes": ["gauss_lemma_suite"],
    "transfer-corpus": ["transfer_props_suite"],
}
SEEDED = {"gauss_lemma_suite"}
WORKLOADS = [*SWEEPS, "point-queries"]


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(job: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, parsed result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a repetition did not finish within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    expected_src = os.path.join(ROOT, "src", "rayclass")
    if not os.path.realpath(result["rayclass"]).startswith(os.path.realpath(expected_src)):
        raise BenchError(f"imported rayclass from {result['rayclass']}, not {expected_src}")
    return spawned, result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it, else the max."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# -- workloads --------------------------------------------------------------


def sweep_job(workload: str, seed: int, threads: int) -> dict:
    calls = []
    for suite in SWEEPS[workload]:
        kwargs = {"threads": threads}
        if suite in SEEDED:
            kwargs["seed"] = seed
        calls.append({"suite": suite, "kwargs": kwargs})
    return {"kind": "sweep", "calls": calls}


def check_sweep(workload: str, outputs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted checks, failed, reasons) against the reference suite records."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload]
    attempted = sum(o["checks"] for o in outputs)
    failed = sum(len(o["failures"]) for o in outputs)
    reasons = [f"{o['name']}: {f}" for o in outputs for f in o["failures"]]
    if outputs != reference:
        failed += 1
        reasons.append(f"suite records differ from reference: {outputs}")
    return attempted, failed, reasons


class QueryBlocks:
    """Blocks of point queries, generated on demand and kept for checking."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.blocks: list[list[dict]] = []

    def job(self, again: bool) -> dict:
        """The next block, or the last one again (a traced repetition of the same inputs)."""
        if not again:
            self.blocks.append(queries.block(self.seed, len(self.blocks)))
        return {"kind": "queries", "calls": [q["argv"] for q in self.blocks[-1]]}

    def by_kind(self, latencies: list[float]) -> dict[str, float]:
        """Milliseconds spent on each query kind in the last block."""
        out: dict[str, float] = {}
        for q, latency in zip(self.blocks[-1], latencies, strict=True):
            out[q["kind"]] = out.get(q["kind"], 0.0) + latency * 1000
        return out

    def check(self, outputs: list[dict]) -> tuple[int, int, int, list[str]]:
        """(attempted, failed, known-defect failures, reasons) for the last block."""
        failed = known = 0
        reasons = []
        for q, outcome in zip(self.blocks[-1], outputs, strict=True):
            why = queries.check(q, outcome)
            if why is None:
                continue
            if queries.known_defect(q, outcome):
                known += 1
            else:
                failed += 1
            reasons.append(f"{q['kind']} {' '.join(q['argv'])}: {why}")
        return len(outputs), failed, known, reasons


# -- the run ----------------------------------------------------------------


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.threads = nproc()
        self.start = time.monotonic()
        self.deadline = self.start + PER_RUN_LIMIT_S
        self.queries = QueryBlocks(args.seed) if args.workload == "point-queries" else None
        self.setup: list[float] = []
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = self.failed = self.known = 0
        self.reasons: list[str] = []
        self.selftest: list[dict] = []

    def rep(self, trace: bool) -> None:
        """One repetition in a fresh worker, checked and kept."""
        if self.queries is not None:
            job = self.queries.job(again=trace)
        else:
            job = sweep_job(self.args.workload, self.args.seed, self.threads)
        job["trace"] = trace
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["spans_path"] = os.path.join(
                OUT, f"spans-{self.args.workload}-{self.args.seed}-{len(self.traced)}.tsv.gz")
        spawned, result = spawn(job, self.deadline)
        self.setup.append(result["ready"] - spawned)
        if self.queries is None:
            attempted, failed, reasons = check_sweep(self.args.workload, result["outputs"])
        else:
            attempted, failed, known, reasons = self.queries.check(result["outputs"])
            self.known += known
            result["kind_ms"] = self.queries.by_kind(result["latencies"])
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons
        result.pop("outputs")
        (self.traced if trace else self.reps).append(result)

    def measure(self) -> None:
        """Repetitions (or untraced/traced pairs) while one more still fits in --seconds."""
        trace = bool(self.args.trace)
        if trace:
            _, result = spawn({"kind": "selftest"}, self.deadline)
            self.selftest = result["selftest"]
        else:
            self.probe_setup(SETUP_PROBES // 2)
        begin = time.monotonic()
        lengths = []
        while True:
            t0 = time.monotonic()
            self.rep(False)
            if trace:
                self.rep(True)
            lengths.append(time.monotonic() - t0)
            if time.monotonic() - begin + statistics.median(lengths) > self.args.seconds:
                break
        if not trace:
            self.probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    def probe_setup(self, n: int) -> None:
        """Import-only spawns; half run before the repetitions and half after, so that
        setup_s samples the machine at both ends of the run."""
        for _ in range(n):
            spawned, result = spawn({"kind": "setup"}, self.deadline)
            self.setup.append(result["ready"] - spawned)

    @staticmethod
    def _summary(reps: list[dict]) -> dict[str, float]:
        """End-to-end values: per repetition, then the median over repetitions."""
        median = statistics.median
        tails = [tail(r["latencies"]) for r in reps]
        return {
            "verdict_s": median([r["wall"] for r in reps]),
            "cpu_s": median([r["cpu"] for r in reps]),
            "query_p50_ms": median([median(r["latencies"]) * 1000 for r in reps]),
            "query_tail_ms": median([value * 1000 for value, _ in tails]),
            "queries_per_s": median([len(r["latencies"]) / r["wall"] for r in reps]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
            "tail_percentile": tails[0][1],
            "queries_per_rep": len(reps[0]["latencies"]),
        }

    def _layers(self, plain: dict[str, float]) -> dict[str, float]:
        """Per-layer values: medians over the traced repetitions, and the tracing overhead."""
        traced = self._summary(self.traced)
        layers: dict[str, float] = {}
        for key in ("layers", "hit_ratios"):
            for name in self.traced[0][key]:
                layers[name] = statistics.median(r[key][name] for r in self.traced)
        layers["trace.spans"] = statistics.median(r["spans"] for r in self.traced)
        layers["trace.verdict_s_ratio"] = traced["verdict_s"] / plain["verdict_s"]
        layers["trace.queries_per_s_ratio"] = traced["queries_per_s"] / plain["queries_per_s"]
        return layers

    def metrics(self) -> dict[str, dict]:
        """Every metric BENCHMARK.json lists for this mode, by name, with its unit."""
        plain = self._summary(self.reps)
        if self.args.trace:
            values, listed = self._layers(plain), "per_layer"
        else:
            values, listed = dict(plain, setup_s=statistics.median(self.setup)), "end_to_end"
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)[listed]}
        missing = set(units) - set(values)
        if missing:
            raise BenchError(f"metrics not produced: {sorted(missing)}")
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def record(self, load_start) -> dict:
        plain = self._summary(self.reps)
        record = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "threads": self.threads,
            "nproc": nproc(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()),
            "runs": len(self.reps),
            "traced_runs": len(self.traced),
            "run_walls_s": [r["wall"] for r in self.reps],
            "traced_walls_s": [r["wall"] for r in self.traced],
            "setup_samples": len(self.setup),
            "query_tail_percentile": plain["tail_percentile"],
            "queries_per_run": plain["queries_per_rep"],
            "kind_ms": {k: statistics.median(r["kind_ms"][k] for r in self.reps)
                        for k in sorted(self.reps[0].get("kind_ms", {}))},
            "fail_ratio": (self.failed + self.known) / self.attempted,
            "failed": self.failed,
            "known_defect_failed": self.known,
            "failure_reasons": self.reasons[:20],
            "selftest": self.selftest,
            "elapsed_s": time.monotonic() - self.start,
            "compare": COMPARE,
        }
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rayclass", "__init__.py")):
        print(f"error: no rayclass sources under {ROOT}/src", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    run = Run(args)
    try:
        run.measure()
        metrics = run.metrics()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = run.record(load_start)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    selftest_ok = all(c["ok"] for c in run.selftest)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0 and selftest_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
