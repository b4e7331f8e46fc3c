"""Self-test of the span tracer, run in its own interpreter by traced runs.

Checks that bindings imported across modules are traced (a `groups.transfer`
span hangs under `splitting.transfer_sign`), that self times add up (the
per-module self times plus the root's own time equal the root span's
duration), that work done on verify's thread pool hangs under the suite
that submitted it, and that the self times the tracer keeps while running
match those recomputed afterwards from the spans it writes out.
"""

import contextlib
import gzip
import io
from collections import defaultdict

from tracer import TRACED, Tracer, layer_metrics

TOLERANCE_S = 1e-6


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def run() -> list[dict]:
    tracer = Tracer()
    tracer.install()
    from rayclass import cli, splitting, verify

    def job():
        splitting.qr_via_transfer(7, 11)
        verify.qr_transfer_suite(max_p=13, max_q=60, spl_bound=200, threads=1)
        verify.gauss_lemma_suite(max_prime=23, n_systems=2, threads=1)
        cli.main(["splitting", "--field", "subfield", "13", "12", "--prime", "3"])

    with contextlib.redirect_stdout(io.StringIO()):
        tracer.span("selftest.root", job)
    spans = list(tracer.spans())
    by_id = {s[0]: s for s in spans}
    nested = [s for s in spans if s[1] == "groups.transfer"
              and by_id.get(s[4], (None, None))[1] == "splitting.transfer_sign"]
    checks = [_check("transfer-under-transfer-sign", nested,
                     f"{len(nested)} groups.transfer spans under splitting.transfer_sign")]

    root = next(s for s in spans if s[1] == "selftest.root")
    metrics = layer_metrics(tracer)
    modules = sum(metrics[f"{m}.self_s"] for m in TRACED)
    own = tracer.totals()["selftest.root"][1]
    duration = root[3] - root[2]
    gap = abs(modules + own - duration)
    checks.append(_check("self-times-sum-to-root", gap <= TOLERANCE_S + 1e-9 * len(spans),
                         f"modules {modules:.6f} s + root {own:.6f} s vs root span {duration:.6f} s"))

    tracer.span("selftest.pool", verify.indices_suite, max_m=12, prime_bound=40, threads=2)
    spans = list(tracer.spans())
    by_id = {s[0]: s for s in spans}
    suite = next(s for s in spans if s[1] == "verify.indices_suite")
    pooled = [s for s in spans if s[1] == "splitting.splitting_cyclotomic"]
    threads = {s[5] for s in pooled}
    under = all(s[4] == suite[0] for s in pooled)
    checks.append(_check("pool-work-under-suite", pooled and under and suite[5] not in threads,
                         f"{len(pooled)} spans on {len(threads)} pool threads, all under the suite: {under}"))

    buf = io.BytesIO()
    tracer.write(buf)
    buf.seek(0)
    recomputed = _self_times(gzip.open(buf, "rt"))
    kept = {name: self_s for name, (calls, self_s, _) in tracer.totals().items() if calls}
    worst = max(abs(kept[name] - recomputed.get(name, 0.0)) for name in kept)
    checks.append(_check("self-times-match-written-spans",
                         set(kept) == set(recomputed) and worst <= TOLERANCE_S,
                         f"{len(kept)} names, largest difference {worst:.2e} s"))
    return checks


def _self_times(lines) -> dict[str, float]:
    """Self time per name from written spans: duration minus the union of its children."""
    next(lines)
    spans = [line.rstrip("\n").split("\t") for line in lines]
    children = defaultdict(list)
    for _, _, t0, t1, parent, _ in spans:
        children[parent].append((float(t0), float(t1)))
    out: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, _, _ in spans:
        covered, lo, hi = 0.0, None, None
        for c0, c1 in sorted(children[sid]):
            if hi is None or c0 > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        covered += 0.0 if hi is None else hi - lo
        out[name] += float(t1) - float(t0) - covered
    return out
