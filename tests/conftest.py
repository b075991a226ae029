"""Shared kernel corpus for lowering, acceptance, and CLI tests.

Each kernel bundles an expression, an optional schedule, per-tensor storage
formats, the workspace action its insertion plan must choose, and a seeded
instance generator. Instance dims shrink as density grows so every execution
stays in the low milliseconds.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
import tracemalloc
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import spworks as sw
from spworks import ism

DENSITIES = (0.01, 0.1, 0.5)

# (lo, hi) inclusive dim ranges per density, matrices and order-3 tensors
_DIMS2 = {0.01: (32, 64), 0.1: (16, 48), 0.5: (8, 24)}
_DIMS3 = {0.01: (8, 16), 0.1: (6, 12), 0.5: (4, 8)}


def sparse_array(rng: np.random.Generator, shape: tuple[int, ...], density: float) -> np.ndarray:
    mask = rng.random(shape) < density
    return (mask * rng.integers(1, 10, shape)).astype(np.float64)


def dense_array(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Dense operands carry no zeros so products of stored values never vanish."""
    return rng.integers(1, 10, shape).astype(np.float64)


def _dim(rng: np.random.Generator, density: float, *, order3: bool = False) -> int:
    lo, hi = (_DIMS3 if order3 else _DIMS2)[density]
    return int(rng.integers(lo, hi + 1))


@dataclass(frozen=True)
class Kernel:
    """One benchmark kernel: statement, formats, expected insertion action."""

    name: str
    expr: str
    schedule: str | None
    formats: dict[str, sw.Format]
    action: sw.InsertionAction
    make_arrays: Callable[[np.random.Generator, float], dict[str, np.ndarray]]
    insert_kw: dict = field(default_factory=dict)

    def statement(self) -> sw.Statement:
        stmt = sw.statement_from_text(self.expr)
        if self.schedule:
            stmt = sw.apply_schedule(stmt, self.schedule)
        return stmt

    def operand_formats(self) -> dict[str, sw.Format]:
        result = sw.nest_assign(self.statement()).lhs.tensor
        return {n: f for n, f in self.formats.items() if n != result}

    def instance(self, index: int) -> "Instance":
        rng = np.random.default_rng([zlib.crc32(self.name.encode()), index])
        density = DENSITIES[index % len(DENSITIES)]
        arrays = self.make_arrays(rng, density)
        tensors = {n: sw.from_dense(a, self.formats[n]) for n, a in arrays.items()}
        return Instance(self, index, density, arrays, tensors)


@dataclass
class Instance:
    kernel: Kernel
    index: int
    density: float
    arrays: dict[str, np.ndarray]
    tensors: dict[str, sw.Tensor]


def _spgemm_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, k, j = (_dim(rng, density) for _ in range(3))
    return {"B": sparse_array(rng, (i, k), density),
            "C": sparse_array(rng, (k, j), density)}


def _spmv_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, k = _dim(rng, density), _dim(rng, density)
    return {"B": sparse_array(rng, (i, k), density),
            "c": dense_array(rng, (k,))}


def _elementwise_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, j = _dim(rng, density), _dim(rng, density)
    return {"B": sparse_array(rng, (i, j), density),
            "C": dense_array(rng, (i, j))}


def _mttkrp_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, k, l = (_dim(rng, density, order3=True) for _ in range(3))
    j = int(rng.integers(4, 13))
    return {"X": sparse_array(rng, (i, k, l), density),
            "B": dense_array(rng, (k, j)),
            "C": dense_array(rng, (l, j))}


def _ttm_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, j, k = (_dim(rng, density, order3=True) for _ in range(3))
    m = int(rng.integers(4, 13))
    return {"X": sparse_array(rng, (i, j, k), density),
            "U": dense_array(rng, (k, m))}


KERNELS: tuple[Kernel, ...] = (
    Kernel(
        name="spgemm-inner",
        expr="A(i,j) = B(i,k) * C(k,j)",
        schedule=None,
        formats={"A": sw.dense(2), "B": sw.csr(), "C": sw.csc()},
        action=sw.InsertionAction.NONE,
        make_arrays=_spgemm_arrays,
    ),
    Kernel(
        name="spgemm-rowwise",
        expr="forall i, k, j: A(i,j) += B(i,k) * C(k,j)",
        schedule=None,
        formats={"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
        action=sw.InsertionAction.DENSE,
        make_arrays=_spgemm_arrays,
    ),
    Kernel(
        name="spgemm-rowwise-hoist",
        expr="forall i, k, j: A(i,j) += B(i,k) * C(k,j)",
        schedule=None,
        formats={"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
        action=sw.InsertionAction.HOIST,
        make_arrays=_spgemm_arrays,
        insert_kw={"enable_dense": False},
    ),
    Kernel(
        name="spgemm-outer",
        expr="A(i,j) = B(i,k) * C(k,j)",
        schedule="reorder(k,i,j)",
        formats={"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
        action=sw.InsertionAction.FULL,
        make_arrays=_spgemm_arrays,
    ),
    Kernel(
        name="spgemm-transposed",
        expr="forall i, k, j: A(j,i) += B(i,k) * C(k,j)",
        schedule="fuse(i,k,f) | pos(f,fpos,B(i,k)) | split(fpos,f0,f1,4)",
        formats={"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
        action=sw.InsertionAction.FULL,
        make_arrays=_spgemm_arrays,
    ),
    Kernel(
        name="spmv",
        expr="a(i) = B(i,k) * c(k)",
        schedule=None,
        formats={"a": sw.sparse_vector(), "B": sw.csr(), "c": sw.dense_vector()},
        action=sw.InsertionAction.CONVERSION,
        make_arrays=_spmv_arrays,
    ),
    Kernel(
        name="elementwise",
        expr="A(i,j) = B(i,j) * C(i,j)",
        schedule=None,
        formats={"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)},
        action=sw.InsertionAction.NONE,
        make_arrays=_elementwise_arrays,
    ),
    Kernel(
        name="mttkrp",
        expr="forall i, k, l, j: A(i,j) += X(i,k,l) * B(k,j) * C(l,j)",
        schedule=None,
        formats={"A": sw.csr(), "X": sw.csf(3), "B": sw.dense(2), "C": sw.dense(2)},
        action=sw.InsertionAction.HOIST,
        make_arrays=_mttkrp_arrays,
    ),
    Kernel(
        name="ttm",
        expr="forall i, j, k, m: Y(i,j,m) += X(i,j,k) * U(k,m)",
        schedule=None,
        formats={"Y": sw.csf(3), "X": sw.csf(3), "U": sw.dense(2)},
        action=sw.InsertionAction.DENSE,
        make_arrays=_ttm_arrays,
    ),
)

KERNELS_BY_NAME = {k.name: k for k in KERNELS}


def in_order(values: list) -> float:
    """The sum every accumulator gives: the first value, then each later one
    added in turn."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def prepare(kernel: Kernel, policy: sw.Policy = sw.Policy.BUCKET,
            capacity: int = 4096) -> tuple[sw.Statement, sw.Plan, "sw.InsertionDecision"]:
    """Parse, schedule, insert, and lower one kernel configuration."""
    stmt = kernel.statement()
    rewritten, decision = sw.insert_sparse_workspace(
        stmt, kernel.formats, policy, capacity, **kernel.insert_kw)
    plan = sw.lower(rewritten, kernel.formats)
    return stmt, plan, decision


@contextlib.contextmanager
def peak_above():
    """Trace the allocations of the block, after a full collection. Once the
    block ends, the yielded record holds, in bytes above the traced memory
    at its start, its peak (``peak``) and what it left allocated
    (``left``)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    span = SimpleNamespace(peak=0, left=0)
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield span
        left, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    span.peak, span.left = peak - base, left - base


@contextlib.contextmanager
def peak_spans(targets):
    """Trace the allocations of the block, after a full collection, with
    each of ``targets``, ``(owner, name)`` pairs naming a function of a
    module or class, wrapped. Once the block ends, the yielded record holds
    its peak (``peak``) and, in ``spans`` under each function's qualified
    name, a record of its ``calls`` and of the call that peaked highest:
    the traced bytes live at its entry (``entry``) and its peak (``peak``).
    All are bytes above the traced memory at the block's start. A call
    nested in another counts towards the peaks of both; the calls are
    taken to come from one thread."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    probe = SimpleNamespace(peak=0, spans={})
    active: list[SimpleNamespace] = []  # the calls in progress, outermost first

    def fold() -> int:
        """The peak since the last fold, charged to every call in progress."""
        now, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for call in active:
            call.peak = max(call.peak, peak - base)
        probe.peak = max(probe.peak, peak - base)
        return now - base

    def wrap(fn, span):
        def traced(*args, **kwargs):
            entry = fold()
            call = SimpleNamespace(entry=entry, peak=entry)
            active.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                fold()
                active.pop()
                span.calls += 1
                if span.calls == 1 or call.peak > span.peak:
                    span.entry, span.peak = call.entry, call.peak
        return traced

    originals = [(owner, name, vars(owner)[name]) for owner, name in targets]
    try:
        for owner, name, fn in originals:
            span = probe.spans[fn.__qualname__] = SimpleNamespace(calls=0, entry=0, peak=0)
            setattr(owner, name, wrap(fn, span))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield probe
        fold()
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
        if not tracing:
            tracemalloc.stop()


class TwoWayMerge:
    """The all array as a two-way merge per drain, which rebuilds the array
    each time: the reference the log reproduces."""

    def __init__(self, counters: sw.Counters) -> None:
        self.counters = counters
        self.keys = np.empty(0, np.uint64)
        self.vals = np.empty(0, np.float64)

    @property
    def size(self) -> int:
        return len(self.keys)

    def merge(self, new_keys: np.ndarray, new_vals: np.ndarray) -> None:
        # equal keys add their values, the existing value first
        c = self.counters
        old_keys, old_vals = self.keys, self.vals
        c.merges += 1
        c.merge_comparisons += len(new_keys) + len(old_keys)
        if not old_keys.size:
            self.keys, self.vals = new_keys.copy(), new_vals.copy()
            return
        pos = np.searchsorted(old_keys, new_keys)
        match = np.zeros(len(new_keys), dtype=bool)
        in_range = pos < old_keys.size
        match[in_range] = old_keys[pos[in_range]] == new_keys[in_range]
        c.merge_dedups += int(match.sum())
        old_vals[pos[match]] += new_vals[match]
        fresh = ~match
        self.keys = np.insert(old_keys, pos[fresh], new_keys[fresh])
        self.vals = np.insert(old_vals, pos[fresh], new_vals[fresh])


class ReferenceEngine(sw.IsmEngine):
    """The engine's model: insert_key inserts one pair by the chain scan,
    the all array merges at every drain and the peak is noted after every
    drain. insert_batch is the engine's own plan."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.all = TwoWayMerge(self.counters)  # type: ignore[assignment]

    def insert_key(self, key: int, val: float) -> None:
        """Under BUCKET and HASH the key scans its chain, the keys of its
        bucket in arrival order: up to itself, and adds into its slot, or
        all of it, and is new. A new key that finds the array full drains
        it and goes into the empty array, where its chain is empty."""
        acc, c = self.acc, self.counters
        key = int(key)
        c.inserts += 1
        if acc.policy is not sw.Policy.COORD:
            chain = np.flatnonzero(acc._bucket(acc.keys) == acc._bucket(key))
            hit = np.flatnonzero(acc.keys[chain] == key)
            if hit.size:
                c.insert_comparisons += int(hit[0]) + 1
                c.insert_dedups += 1
                acc.vals[chain[hit[0]]] += val
                return
            c.insert_comparisons += len(chain)
        if acc.size == acc.capacity:
            self._flush()
        acc.load(np.append(acc.keys, np.array([key], acc.key_dtype)),
                 np.append(acc.vals, val))

    def _flush(self) -> None:
        """Drain the accumulate array into the all array, as finalize()
        does, and note the peak."""
        self._settle(self.acc.drain(), None)
        live = (self.all.size + self.capacity) * ism._ELEMENT_BYTES
        self.counters.peak_bytes = max(self.counters.peak_bytes, live)

    def result(self) -> tuple[list[np.ndarray], np.ndarray]:
        out = super().result()
        self.all = TwoWayMerge(self.counters)  # type: ignore[assignment]
        return out


@pytest.fixture(scope="session")
def small_corpus() -> list[Instance]:
    """A handful of instances per kernel for unit-level execution tests."""
    return [k.instance(i) for k in KERNELS for i in range(6)]


def pytest_collection_modifyitems(config, items):
    """Raise numpy's runtime warnings (overflow, invalid values) as errors
    in the tests of this directory, as CI's ``-W error::RuntimeWarning``
    does."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves threads running, after giving them a few
    seconds to finish."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    extra = [t for t in threading.enumerate() if t not in before]
    for t in extra:
        t.join(max(0.0, deadline - time.monotonic()))
    leaked = [t.name for t in extra if t.is_alive()]
    if leaked:
        pytest.fail(f"test left {len(leaked)} live thread(s): {', '.join(leaked)}")


# One line per end-to-end criterion, echoed after the run so the verdicts
# survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
