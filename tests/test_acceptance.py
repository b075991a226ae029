"""End-to-end contracts over the full kernel corpus.

Each test checks one numbered criterion and records a single pass/fail
line; the lines are echoed in a terminal summary section after the run.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

import conftest
import spworks as sw
from spworks.ir import expr_accesses
from conftest import KERNELS, KERNELS_BY_NAME, Instance, prepare

INSTANCES_PER_KERNEL = 200


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        line = f"criterion {num}: FAIL - {summary}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {num}: pass - {summary}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@dataclass
class Entry:
    instance: Instance
    result: sw.ExecutionResult
    oracle: np.ndarray


@dataclass
class Baseline:
    plans: dict[str, sw.Plan]
    decisions: dict[str, sw.InsertionDecision]
    entries: dict[str, list[Entry]]
    elapsed: float


@pytest.fixture(scope="module")
def baseline() -> Baseline:
    """Execute every kernel on its full instance set once, with oracles."""
    plans: dict[str, sw.Plan] = {}
    decisions: dict[str, sw.InsertionDecision] = {}
    entries: dict[str, list[Entry]] = {}
    start = time.perf_counter()
    for kernel in KERNELS:
        _, plan, decision = prepare(kernel)
        oracle_stmt = sw.statement_from_text(kernel.expr)
        plans[kernel.name] = plan
        decisions[kernel.name] = decision
        bucket = []
        for index in range(INSTANCES_PER_KERNEL):
            inst = kernel.instance(index)
            result = sw.execute(plan, inst.tensors)
            reference = sw.dense_oracle(oracle_stmt, inst.arrays)
            bucket.append(Entry(inst, result, reference))
        entries[kernel.name] = bucket
    elapsed = time.perf_counter() - start
    return Baseline(plans, decisions, entries, elapsed)


def test_criterion_1_oracle_equivalence(baseline):
    total = len(KERNELS) * INSTANCES_PER_KERNEL
    with criterion(1, f"{total} randomized executions across {len(KERNELS)} "
                      f"kernels equal the dense oracle "
                      f"({baseline.elapsed:.1f}s)"):
        for kernel in KERNELS:
            assert baseline.decisions[kernel.name].action is kernel.action
            for entry in baseline.entries[kernel.name]:
                assert np.array_equal(
                    entry.result.tensor.to_dense(), entry.oracle)
        assert baseline.elapsed < 60.0


@lru_cache(maxsize=None)
def _plan(kernel_name: str, policy: sw.Policy, capacity: int) -> sw.Plan:
    return prepare(KERNELS_BY_NAME[kernel_name], policy, capacity)[1]


def test_criterion_2_policy_and_capacity_independence(baseline):
    with criterion(2, "Bucket, Hash, and Coord at capacities "
                      "{1, 2, 7, 64, N, N+1} give identical tensors on "
                      "every instance"):
        for kernel in KERNELS:
            for entry in baseline.entries[kernel.name]:
                n = entry.result.counters.inserts
                want = entry.result.tensor
                for policy in sw.Policy:
                    for cap in sorted({1, 2, 7, 64, max(n, 1), n + 1}):
                        out = sw.execute(_plan(kernel.name, policy, cap),
                                         entry.instance.tensors)
                        assert sw.tensors_equal(out.tensor, want)


def test_criterion_3_taxonomy_goldens():
    with criterion(3, "scattering taxonomy labels match on all five golden "
                      "kernels"):
        cells = [
            ("A(i,j) = B(i,j) * C(i,j)",
             {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)},
             "appending", None),
            ("A(j,i) = B(i,j)",
             {"A": sw.csr(), "B": sw.csc()},
             "appending", None),
            ("A(i,j) = B(i,k) * C(k,j)",
             {"A": sw.csr(), "B": sw.csr(), "C": sw.csc()},
             "scalar accumulation", 0),
            ("forall i, k, j: A(i,j) += B(i,k) * C(k,j)",
             {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
             "first-order dense scattering", 1),
            ("forall k, i, j: A(i,j) += B(i,k) * C(k,j)",
             {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
             "second-order sparse scattering", 2),
        ]
        for expr, formats, label, ordering in cells:
            cls = sw.classify(sw.statement_from_text(expr), formats)
            assert cls.label == label
            if ordering is None:
                assert cls.appending
            else:
                assert cls.ordering == ordering


def test_criterion_4_schedule_reconstruction():
    with criterion(4, "scheduled loop orders reconstruct exactly (golden "
                      "plus 1000 randomized schedules)"):
        transposed = KERNELS_BY_NAME["spgemm-transposed"]
        stmt = transposed.statement()
        recovered = sw.reconstruct_input_order(stmt)
        assert [v.name for v in recovered] == ["i", "k", "j"]

        out_vars = sw.nest_assign(stmt).lhs.vars
        storage = list(sw.access_map(out_vars, transposed.formats["A"]))
        pruned = [v for v in recovered if v in out_vars]
        assert sw.compare_orders(pruned, storage) == [1, 0]

        rewritten, decision = sw.insert_sparse_workspace(
            stmt, transposed.formats, sw.Policy.COORD, 1024)
        assert decision.ow_order == (1, 0)
        text = str(rewritten.descriptor)
        assert "SpFormat(order=2, policy=Coord)" in text
        assert "dims={I,J}" in text
        assert "ow_order=[1,0]" in text

        base = sw.statement_from_text(
            "forall i, k, l, j: A(i,j) += X(i,k,l) * B(k,j) * C(l,j)")
        original = sw.nest_vars(base)
        accesses = list(expr_accesses(sw.nest_assign(base).rhs))
        rng = np.random.default_rng(20260814)
        for _ in range(1000):
            scheduled = base
            for n in range(int(rng.integers(1, 5))):
                nest = sw.nest_vars(scheduled)
                kinds = ["split", "pos"] + (["fuse"] if len(nest) > 1 else [])
                kind = kinds[int(rng.integers(len(kinds)))]
                if kind == "split":
                    v = nest[int(rng.integers(len(nest)))]
                    scheduled = sw.split(scheduled, v, f"s{n}o", f"s{n}i",
                                         int(rng.integers(2, 9)))
                elif kind == "fuse":
                    at = int(rng.integers(len(nest) - 1))
                    scheduled = sw.fuse(scheduled, nest[at], nest[at + 1],
                                        f"f{n}")
                else:
                    v = nest[int(rng.integers(len(nest)))]
                    acc = accesses[int(rng.integers(len(accesses)))]
                    scheduled = sw.pos(scheduled, v, f"p{n}", acc)
            assert sw.reconstruct_input_order(scheduled) == original


def test_criterion_5_plan_shape_golden():
    with criterion(5, "outer-product plan shows insert / full-check / sort / "
                      "merge in order and prints byte-identically"):
        _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-outer"])
        text = sw.print_plan(plan)
        tokens = [
            "insert (i, j) -> Acc",
            "if Acc.full:",
            "sort Acc",
            "merge Acc -> All",
            "insert (i, j) -> Acc",
            "sort Acc",
            "merge Acc -> All",
            "compress All -> A",
        ]
        at = 0
        for token in tokens:
            found = text.find(token, at)
            assert found >= 0, f"missing token {token!r} after offset {at}"
            at = found + len(token)

        assert sw.print_plan(plan) == text
        _, again, _ = prepare(KERNELS_BY_NAME["spgemm-outer"])
        assert sw.print_plan(again) == text


def test_criterion_6_memory_formulas():
    with criterion(6, "memory estimates follow the 13-byte dense cell and "
                      "12-byte sparse entry formulas (ratio >= 100x)"):
        dense_cells = 10**4 * 10**4
        nnz_out = 10**5
        dense_bytes = sw.estimate_memory("dense", dense_cells)
        sparse_bytes = sw.estimate_memory("sparse", nnz_out)
        assert dense_bytes == 13 * 10**8
        assert sparse_bytes == 12 * 10**5
        assert dense_bytes >= 100 * sparse_bytes


def test_criterion_7_operation_count_trend():
    with criterion(7, "comparison counts fall from capacity 1 to sqrt(N) and "
                      "stay within 2x of capacity N"):
        n = 10**5
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 64 * 64, n)
        vals = rng.random(n)

        def comparisons(capacity: int) -> int:
            engine = sw.IsmEngine((64, 64), sw.Policy.COORD, capacity)
            engine.insert_batch(keys, vals)
            engine.finalize()
            return engine.counters.comparisons

        every_insert = comparisons(1)
        batched = comparisons(math.isqrt(n))
        once = comparisons(n)
        assert every_insert > batched
        assert batched <= 2 * once


# criterion 8 checked the retired pipelined mode; the numbers that follow
# it are kept, so that references to them stay valid
def test_criterion_9_dense_workspace_path(baseline):
    with criterion(9, "row-wise product picks the dense workspace and agrees "
                      "with the sparse workspace and the oracle"):
        rowwise = KERNELS_BY_NAME["spgemm-rowwise"]
        assert baseline.decisions[rowwise.name].action \
            is sw.InsertionAction.DENSE

        hoist = KERNELS_BY_NAME["spgemm-rowwise-hoist"]
        _, hoist_plan, hoist_decision = prepare(hoist)
        assert hoist_decision.action is sw.InsertionAction.HOIST

        for entry in baseline.entries[rowwise.name]:
            dense_out = entry.result.tensor
            sparse_out = sw.execute(hoist_plan, entry.instance.tensors).tensor
            assert sw.tensors_equal(sparse_out, dense_out)
            assert np.array_equal(dense_out.to_dense(), entry.oracle)
