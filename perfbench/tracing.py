"""Spans around calls into the library's layers, recorded from outside.

A ``Tracer`` wraps public functions and methods. Each call becomes a span
with a name, start, end and parent; spans stay in memory and are written out
when the run ends. A span's self time is its duration minus the time its
child spans on the same thread cover. Spans on a pipeline worker thread have
no caller on that thread; their parent is the open root span (the
benchmark's ``execute`` call), and they do not reduce its self time because
they ran concurrently with it.

``insert_key`` runs once per inserted component (10^5 to 10^6 times a pass),
so its calls are counted and timed but not kept as individual spans; spans
it encloses name its nearest kept ancestor as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import spworks as sw
import spworks.lowering as lowering


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread: list[tuple[threading.Thread, defaultdict, defaultdict]] = []
        self.root = 0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], defaultdict(int), defaultdict(int))
            self._local.state = state
            self._per_thread.append((threading.current_thread(), *state[1:]))
        return state

    def wrap(self, name: str, fn, keep: bool = True, root: bool = False):
        """``fn`` with every call recorded as a span called ``name``. While a
        ``root`` span is open it is the parent of spans on other threads."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, self_ns, calls = tracer._state()
            saved_root = tracer.root
            parent = stack[-1][1] if stack else saved_root
            span_id = next(tracer._ids) if keep else parent
            if root:
                tracer.root = span_id
            frame = [0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if root:
                    tracer.root = saved_root
                duration = end - start
                self_ns[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    tracer.spans.append((span_id, parent, name,
                                         threading.get_ident(), start, end))

        return traced

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self nanoseconds and call counts per span name, over all threads,
        since the last ``reset``."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for _, ns, n in list(self._per_thread):
            for k, v in list(ns.items()):
                self_ns[k] += v
            for k, v in list(n.items()):
                calls[k] += v
        return self_ns, calls

    def calls_here(self, name: str) -> int:
        """Calls of ``name`` on the calling thread since the last ``reset``."""
        return self._state()[2][name]

    def reset(self) -> None:
        """Zero the totals and forget threads that have ended."""
        for _, ns, n in self._per_thread:
            ns.clear()
            n.clear()
        self._per_thread = [s for s in self._per_thread if s[0].is_alive()]

    def write(self, path: Path) -> None:
        """Write every kept span as CSV: id, parent, name, thread, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id,parent,name,thread,start_ns,end_ns\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")


# Methods and module functions the library calls internally, wrapped in place
# for the traced run: (owner, attribute, span name, keep each span).
INTERNAL = (
    (sw.IsmEngine, "__init__", "ism.engine_init", True),
    (sw.IsmEngine, "insert_key", "ism.insert", False),
    (sw.IsmEngine, "finalize", "ism.finalize", True),
    (sw.IsmEngine, "result", "ism.result", True),
    (sw.AccArray, "drain", "ism.drain", True),
    (sw.AllArray, "merge", "ism.merge", True),
    (lowering, "compress_arrays", "tensor.compress", True),
    (lowering, "from_dense", "tensor.compress", True),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the library internals in INTERNAL for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in INTERNAL]
    try:
        for owner, attr, name, keep in INTERNAL:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], keep))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
