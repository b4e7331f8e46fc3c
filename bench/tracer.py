"""Span tracer that wraps rayclass's public functions from outside the package.

`Tracer.install()` replaces every binding of each traced function in every
loaded `rayclass.*` namespace (module globals, and dicts held in module
globals such as `verify.SUITES`), because `splitting`, `classfield` and `cli`
import names from `groups` and `symbols` directly.  Nothing under `src/` is
edited.  `FiniteGroup.op` and `FiniteGroup.inv` are deliberately left alone:
they run hundreds of millions of times per sweep, so wrapping them would mostly
time the tracer.  The cached properties `inverses` and `is_abelian` are
wrapped, so that their one-off O(n^2) cost is charged to them rather than to
whichever caller touches them first.

Each wrapped call records one span: function, start, end, parent span and
thread.  Spans stay in per-thread arrays until the run ends.  The parent of a
span is the innermost open span of its context; `verify`'s thread pool is
replaced by one that runs each task in a copy of the submitter's context, so
work done on pool threads hangs under the suite that submitted it.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import heapq
import importlib
import itertools
import sys
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

TRACED = {
    "arith": ["is_prime", "factorize", "euler_phi", "mult_order", "primes_up_to"],
    "symbols": [
        "gauss_lemma", "legendre_euler", "legendre_brute", "kronecker", "jacobi",
        "random_half_system",
    ],
    "groups": [
        "group_from_unit_residues", "cyclic_group", "direct_product", "subgroup_generated",
        "derived_subgroup", "coset_decomposition", "decomposition_from_reps", "transfer",
        "transfer_homomorphism", "kernel_of", "Subgroup.validate", "FiniteGroup.inverses",
        "FiniteGroup.is_abelian",
    ],
    "classfield": [
        "ray_class_group", "squares_group", "ideal_class", "takagi_group_quadratic",
        "takagi_witness", "artin_class_constancy_check", "conductor_quadratic",
    ],
    "splitting": [
        "splits_completely_in_class_field", "qr_via_transfer", "transfer_sign", "spl_set",
        "transfer_kernel_classfield", "gauss_lemma_is_transfer", "splitting_cyclotomic",
        "splitting_in_subfield",
    ],
    "verify": [
        "qr_splitting_suite", "qr_transfer_suite", "gauss_lemma_suite", "transfer_props_suite",
        "euler_formulation_suite", "takagi_suite", "indices_suite", "conductor_suite",
    ],
    "cli": ["main"],
}
ROOT = "bench.rep"


class _Buffer:
    """Spans finished on one thread, plus that thread's per-function totals."""

    def __init__(self, size: int) -> None:
        self.tid = threading.get_ident()
        self.sid = array("q")
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.calls = array("q", bytes(8 * size))
        self.self_s = array("d", bytes(8 * size))
        self.total_s = array("d", bytes(8 * size))
        self.table_cells = 0


class _Open:
    """What an open span has learnt about its children so far.

    Children on the span's own thread run one after another, so their
    durations add up.  Children on other threads (pool tasks) may overlap each
    other, so their intervals are kept, one sorted run per thread, and merged
    when the span closes.
    """

    __slots__ = ("tid", "same", "others")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.same = 0.0
        self.others: dict[int, tuple[array, array]] = {}


def _union(runs) -> float:
    """Length of the union of several sorted runs of disjoint intervals."""
    total, lo, hi = 0.0, None, None
    for c0, c1 in heapq.merge(*(zip(starts, ends) for starts, ends in runs)):
        if hi is None or c0 > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = c0, c1
        elif c1 > hi:
            hi = c1
    return total if hi is None else total + hi - lo


class Tracer:
    MAX_FUNCTIONS = 256

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)
        self._open: dict[int, _Open] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(self.MAX_FUNCTIONS)
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        fid = len(self.names)
        if fid >= self.MAX_FUNCTIONS:
            raise RuntimeError("too many traced functions")
        self.names.append(name)
        current, ids, buffer, open_spans = self._current, self._ids, self._buffer, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = next(ids)
            parent = current.get()
            me = open_spans[sid] = _Open(buf.tid)
            token = current.set(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                current.reset(token)
                del open_spans[sid]
                covered = me.same
                if me.others:
                    covered += _union(me.others.values())
                up = open_spans.get(parent)
                if up is not None:
                    if up.tid == buf.tid:
                        up.same += t1 - t0
                    else:
                        run = up.others.get(buf.tid)
                        if run is None:
                            run = up.others.setdefault(buf.tid, (array("d"), array("d")))
                        run[0].append(t0)
                        run[1].append(t1)
                buf.calls[fid] += 1
                buf.self_s[fid] += (t1 - t0) - covered
                buf.total_s[fid] += t1 - t0
                buf.sid.append(sid)
                buf.fid.append(fid)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) under a span of its own (the benchmark's root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every TRACED function and patch all of its bindings under rayclass.*."""
        replaced: dict[int, object] = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"rayclass.{module}")
            for name in names:
                full = f"{module}.{name}"
                if "." not in name:
                    fn = getattr(mod, name)
                    replaced[id(fn)] = self.wrap(full, fn)
                    continue
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                member = cls.__dict__[attr]
                if isinstance(member, functools.cached_property):
                    prop = functools.cached_property(self.wrap(full, member.func))
                    prop.__set_name__(cls, attr)
                    setattr(cls, attr, prop)
                else:
                    setattr(cls, attr, self.wrap(full, member))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rayclass" and not mod_name.startswith("rayclass."):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, key, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]
        self._count_tables()
        self._pool_in_context()

    def _count_tables(self) -> None:
        """Add order^2 to the running cell count whenever a table group is built."""
        from rayclass.groups import FiniteGroup

        init, buffer = FiniteGroup.__init__, self._buffer

        @functools.wraps(init)
        def counted(group, *args, **kwargs):
            init(group, *args, **kwargs)
            buffer().table_cells += len(group.table) ** 2

        FiniteGroup.__init__ = counted

    def _pool_in_context(self) -> None:
        import rayclass.verify

        class ContextPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        rayclass.verify.ThreadPoolExecutor = ContextPool

    # -- analysis ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, total seconds) per traced name, over all threads."""
        out = {}
        for fid, name in enumerate(self.names):
            calls = sum(buf.calls[fid] for buf in self._buffers)
            self_s = sum(buf.self_s[fid] for buf in self._buffers)
            total_s = sum(buf.total_s[fid] for buf in self._buffers)
            prev = out.get(name, (0, 0.0, 0.0))
            out[name] = (prev[0] + calls, prev[1] + self_s, prev[2] + total_s)
        return out

    @property
    def span_count(self) -> int:
        return sum(len(buf.sid) for buf in self._buffers)

    @property
    def table_cells(self) -> int:
        return sum(buf.table_cells for buf in self._buffers)

    def spans(self):
        """Every finished span as (id, name, start, end, parent id, thread id)."""
        for buf in self._buffers:
            for sid, fid, t0, t1, parent in zip(buf.sid, buf.fid, buf.start, buf.end, buf.parent):
                yield sid, self.names[fid], t0, t1, parent, buf.tid

    def write(self, path) -> None:
        """Write every span, one line each, as gzipped TSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for sid, name, t0, t1, parent, tid in self.spans():
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{tid}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self time, verify totals, and per-module roll-ups."""
    totals = tracer.totals()
    out: dict[str, float] = {}
    for module, names in TRACED.items():
        rollup = 0.0
        for name in names:
            full = f"{module}.{name}"
            calls, self_s, total_s = totals.get(full, (0, 0.0, 0.0))
            out[f"{full}.calls"] = calls
            out[f"{full}.self_s"] = self_s
            if module == "verify":
                out[f"{full}.total_s"] = total_s
            rollup += self_s
        out[f"{module}.self_s"] = rollup
    out["groups.table_cells"] = tracer.table_cells
    return out
