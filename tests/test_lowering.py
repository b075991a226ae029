"""Lowering to loop plans, plan printing, and plan execution."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spworks as sw
import spworks.ism as ism
import spworks.lowering as lowering
from spworks.analysis import sparse_union_operand
from spworks.ir import (build_nest, default_loop_order, expr_accesses, format_expr,
                        nest_assign, var)
from spworks.lowering import (
    AccumReg,
    AllocWs,
    Append,
    DenseRange,
    DrainWs,
    InsertWs,
    LevelIter,
    Locate,
    LoopNode,
    LoweringError,
    MaterializeWs,
    ScatterDense,
    SetReg,
)
from spworks.tensor import CRD_DTYPE, DENSE, CompressedLevel, DenseLevel, from_arrays

from conftest import (
    KERNELS,
    KERNELS_BY_NAME,
    Kernel,
    ReferenceEngine,
    _dim,
    dense_array,
    in_order,
    peak_above,
    peak_spans,
    prepare,
    sparse_array,
)

MATMUL = "A(i, j) += B(i, k) * C(k, j)"


def _register_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, k = _dim(rng, density), _dim(rng, density)
    return {"B": sparse_array(rng, (i, k), density), "c": dense_array(rng, (k,))}


def _locate_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, j = _dim(rng, density), _dim(rng, density)
    return {"B": sparse_array(rng, (i, j), density),
            "C": sparse_array(rng, (i, j), density)}


def _three_term_arrays(rng: np.random.Generator, density: float) -> dict[str, np.ndarray]:
    i, j = _dim(rng, density), _dim(rng, density)
    return {"B": sparse_array(rng, (i, j), density), "C": dense_array(rng, (i, j)),
            "D": sparse_array(rng, (i, j), density)}


# plain plans the corpus never builds: a value register (SetReg, AccumReg,
# an Append without an expression), a binary-search probe (Locate), and one
# dense pass per term
REGISTER = Kernel("register", "a(i) = B(i, k) * c(k)", None,
                  {"a": sw.sparse_vector(), "B": sw.dcsr(), "c": sw.dense_vector()},
                  sw.InsertionAction.NONE, _register_arrays)
LOCATE = Kernel("locate", "A(i, j) = B(i, j) * C(i, j)", None,
                {"A": sw.dense(2), "B": sw.dcsr(), "C": sw.csc()},
                sw.InsertionAction.NONE, _locate_arrays)
THREE_TERMS = Kernel("three-terms", "A(i, j) = B(i, j) + C(i, j) + D(i, j)", None,
                     {"A": sw.dense(2), "B": sw.csr(), "C": sw.dense(2), "D": sw.csr()},
                     sw.InsertionAction.NONE, _three_term_arrays)
# a constant on the left of a product, and a product on the right of one
PRODUCTS = Kernel("products", "A(i, j) = 2 * B(i, j) * (C(i, j) * D(i, j))", None,
                  {"A": sw.dense(2), "B": sw.csr(), "C": sw.dense(2), "D": sw.csr()},
                  sw.InsertionAction.NONE, _three_term_arrays)


def _lower(expr: str, formats: dict[str, sw.Format], schedule: str | None = None,
           **insert_kw) -> sw.Plan:
    stmt = sw.statement_from_text(expr)
    if schedule:
        stmt = sw.apply_schedule(stmt, schedule)
    rewritten, _ = sw.insert_sparse_workspace(stmt, formats, **insert_kw)
    return sw.lower(rewritten, formats)


def _plan_lines(plan: sw.Plan) -> list[str]:
    return [line.strip() for line in sw.print_plan(plan).splitlines()]


def _loops(plan: sw.Plan) -> list[LoopNode]:
    chain = []
    frontier = list(plan.body)
    while frontier:
        node = frontier.pop(0)
        if isinstance(node, LoopNode):
            chain.append(node)
            frontier = list(node.body) + frontier
    return chain


# -- driver selection -------------------------------------------------------------------


def test_compressed_levels_drive_their_loops():
    plan = _lower("A(i, j) = B(i, j)", {"A": sw.dense(2), "B": sw.dcsr()})
    loops = _loops(plan)
    assert [l.var.name for l in loops] == ["i", "j"]
    assert isinstance(loops[0].driver, LevelIter) and loops[0].driver.level == 0
    assert isinstance(loops[1].driver, LevelIter) and loops[1].driver.level == 1


def test_dense_dimensions_use_range_loops():
    plan = _lower("A(i, j) = B(i, j)", {"A": sw.dense(2), "B": sw.dense(2)})
    loops = _loops(plan)
    assert all(isinstance(l.driver, DenseRange) for l in loops)
    assert isinstance(loops[1].body[0], ScatterDense)


def _walks_and_locates(loop: LoopNode, walked: str, located: list[str]) -> None:
    """The loop walks one level and locates the others that drive it, ahead
    of its other probes."""
    assert isinstance(loop.driver, LevelIter) and loop.driver.tensor == walked
    co = loop.probes[:len(located)]
    assert all(isinstance(p, Locate) and p.drives and p.var == loop.var for p in co)
    assert [p.tensor for p in co] == located
    assert not any(getattr(p, "drives", False) for p in loop.probes[len(located):])


def test_two_compressed_operands_intersect():
    plan = _lower("A(i, j) = B(i, j) * C(i, j)",
                  {"A": sw.dense(2), "B": sw.dcsr(), "C": sw.dcsr()})
    for level, loop in enumerate(_loops(plan)):
        _walks_and_locates(loop, "B", ["C"])
        assert loop.driver.level == loop.probes[0].level == level
    # a co-driving locate prints in the loop header, not on a line of its own
    assert "forall j in B.level(1) & C.level(1):" in _plan_lines(plan)
    assert not any(line.startswith("locate") for line in _plan_lines(plan))


@pytest.mark.parametrize("names", ["BCD", "BCDE"])
def test_any_number_of_compressed_operands_intersect(names):
    text = "A(i, j) = " + " * ".join(f"{n}(i, j)" for n in names)
    formats = {"A": sw.dense(2), **{n: sw.dcsr() for n in names}}
    plan = _lower(text, formats)
    for loop in _loops(plan):
        _walks_and_locates(loop, names[0], list(names[1:]))
    lines = _plan_lines(plan)
    assert f"forall i in {' & '.join(f'{n}.level(0)' for n in names)}:" in lines
    assert f"forall j in {' & '.join(f'{n}.level(1)' for n in names)}:" in lines
    rng = np.random.default_rng(11)
    stmt = sw.statement_from_text(text)
    for _ in range(5):
        # dense enough that some coordinates are common to every operand
        arrays = {n: sparse_array(rng, (6, 7), 0.8) for n in names}
        out = sw.execute(plan, {n: sw.from_dense(a, sw.dcsr()) for n, a in arrays.items()})
        assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, arrays))


def test_secondary_compressed_access_probes_by_search():
    # B drives both loops; C is entered at its column level by binary search
    _, plan, _ = prepare(LOCATE)
    text = sw.print_plan(plan)
    assert "locate i in C.level(1)" in text


def test_sparse_append_plan_keeps_a_value_register():
    _, plan, _ = prepare(REGISTER)
    outer, inner = _loops(plan)
    assert isinstance(outer.body[0], SetReg)
    assert isinstance(inner.body[0], AccumReg)
    assert isinstance(outer.body[-1], Append) and outer.body[-1].expr is None


def test_fully_concordant_sparse_result_appends_computed_values():
    plan = _lower("A(i, j) = B(i, j) * C(i, j)",
                  {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)})
    loops = _loops(plan)
    assert isinstance(loops[-1].body[-1], Append) and loops[-1].body[-1].expr is not None


def test_add_lowers_to_one_pass_per_term():
    _, plan, _ = prepare(THREE_TERMS)
    assert len(plan.body) == 3
    assert all(isinstance(node, LoopNode) for node in plan.body)


# -- workspace plan shapes -----------------------------------------------------------------


def test_dense_workspace_plan_shape():
    plan = _lower("forall i, k, j: " + MATMUL,
                  {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    (meta,) = plan.workspaces
    assert meta.descriptor.kind == "dense" and meta.name == "W"
    assert meta.impl is lowering.DenseWorkspace
    host = _loops(plan)[0]
    assert host.var == var("i")
    kinds = [type(n) for n in host.body]
    assert kinds == [AllocWs, LoopNode, DrainWs]  # the gather also clears W
    assert host.body[-1].prefix_vars == (var("i"),)
    scatter = [n for n in _loops(plan)[-1].body if isinstance(n, InsertWs)]
    assert scatter and scatter[0].meta is meta


def test_hoisted_sparse_workspace_plan_shape():
    plan = _lower("forall i, k, j: " + MATMUL,
                  {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
                  enable_dense=False)
    (meta,) = plan.workspaces
    assert meta.descriptor.kind == "sparse"
    assert meta.impl is lowering.IsmWorkspace
    host = _loops(plan)[0]
    kinds = [type(n) for n in host.body]
    assert kinds == [AllocWs, LoopNode, DrainWs]  # DrainWs drains first
    compress = host.body[-1]
    assert compress.prefix_vars == (var("i"),)


def test_full_workspace_plan_shape():
    plan = _lower(MATMUL, {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
                  schedule="reorder(k, i, j)")
    kinds = [type(n) for n in plan.body]
    assert kinds == [AllocWs, LoopNode, DrainWs]
    inserts = [n for n in _loops(plan)[-1].body if isinstance(n, InsertWs)]
    assert inserts and inserts[0].meta.slot_vars == (var("i"), var("j"))


def test_transposed_workspace_slots_follow_consumption_order():
    kernel = KERNELS_BY_NAME["spgemm-transposed"]
    _, plan, decision = prepare(kernel)
    assert decision.ow_order == (1, 0)
    (meta,) = plan.workspaces
    # inserts happen as (j, i) so that key order matches the CSR result on A(j,i)
    assert meta.i_vars == (var("i"), var("j"))
    assert meta.slot_vars == (var("j"), var("i"))


def test_conversion_consumer_is_a_straight_copy():
    plan = _lower("a(i) = B(i, k) * c(k)",
                  {"a": sw.sparse_vector(), "B": sw.csr(), "c": sw.dense_vector()})
    (meta,) = plan.workspaces
    assert meta.subplan is None
    assert any(isinstance(n, DrainWs) for n in plan.body)


def _materializing_plan(result: sw.Format | None = None) -> sw.Plan:
    """B(i,k) precomputed into a workspace that a row-wise product consumes,
    into A in ``result`` (CSR by default)."""
    stmt = sw.statement_from_text("forall i, k, j: " + MATMUL)
    rhs_b = sw.Access("B", (var("i"), var("k")))
    desc = sw.WorkspaceDescriptor(order=2, dims=("I", "K"), policy=sw.Policy.COORD,
                                  capacity=64, ow_order=(0, 1))
    rewritten = sw.precompute(stmt, rhs_b, ("i", "k"), None, desc,
                              consumer_order=("i", "k", "j"))
    return sw.lower(rewritten, {"A": result or sw.csr(), "B": sw.csr(), "C": sw.csr()})


def _matmul_operands(seed: int) -> tuple[np.ndarray, np.ndarray, dict[str, sw.Tensor]]:
    rng = np.random.default_rng(seed)
    b = (rng.random((6, 5)) < 0.5) * rng.integers(1, 10, (6, 5))
    c = (rng.random((5, 7)) < 0.5) * rng.integers(1, 10, (5, 7))
    return b, c, {"B": sw.from_dense(b.astype(float), sw.csr()),
                  "C": sw.from_dense(c.astype(float), sw.csr())}


def test_arithmetic_consumer_materializes_and_replans():
    plan = _materializing_plan()
    (meta,) = plan.workspaces
    materialize = [n for n in plan.body if isinstance(n, MaterializeWs)]
    assert materialize
    assert materialize[0].meta is meta
    # the consumer scatters row-wise, so the replanned side owns a fresh workspace
    assert [m.name for m in meta.subplan.workspaces] == ["W'"]
    text = sw.print_plan(plan)
    assert "materialize All -> W" in text
    assert "consume:" in text
    b, c, tensors = _matmul_operands(3)
    out = sw.execute(plan, tensors)
    assert np.array_equal(out.tensor.to_dense(), b @ c)


def test_a_materializing_execution_allocates_only_the_consumers_result():
    # the producer's plan ends at the workspace's tensor and the consumer's
    # plan runs after it, so only the consumer allocates the dense result:
    # the execution peaks at 1.22 times its values (2.23 while the
    # producer's execution also bound the consumer's operands and allocated
    # a result it never filled)
    rng = np.random.default_rng(34)
    b, c = sparse_array(rng, (600, 40), 0.05), sparse_array(rng, (40, 600), 0.05)
    tensors = {"B": sw.from_dense(b, sw.csr()), "C": sw.from_dense(c, sw.csr())}
    plan = _materializing_plan(sw.dense(2))
    with peak_above() as span:
        out = sw.execute(plan, tensors).tensor
    assert span.peak <= 1.5 * out.vals.nbytes
    assert np.array_equal(out.to_dense(), b @ c)


def test_renamed_consumer_still_executes():
    stmt = sw.statement_from_text("a(i) = B(i, k) * c(k)")
    rhs = sw.nest_assign(stmt).rhs
    desc = sw.WorkspaceDescriptor(order=1, dims=("I",), policy=sw.Policy.BUCKET,
                                  capacity=32, ow_order=(0,))
    rewritten = sw.precompute(stmt, rhs, ("i",), ("ip",), desc)
    formats = {"a": sw.sparse_vector(), "B": sw.csr(), "c": sw.dense_vector()}
    plan = sw.lower(rewritten, formats)
    b = np.array([[2.0, 0.0], [0.0, 3.0]])
    c = np.array([5.0, 7.0])
    tensors = {"B": sw.from_dense(b, sw.csr()), "c": sw.from_dense(c, sw.dense_vector())}
    out = sw.execute(plan, tensors)
    assert np.array_equal(out.tensor.to_dense(), b @ c)


# -- plan printing -----------------------------------------------------------------------


def test_print_plan_ism_token_sequence():
    _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-outer"])
    text = sw.print_plan(plan)
    tokens = [
        "val = B(i,k) * C(k,j)",
        "insert (i, j) -> Acc",
        "if Acc.full:",
        "  sort Acc",
        "  merge Acc -> All",
        "  insert (i, j) -> Acc",
        "sort Acc",
        "merge Acc -> All",
        "compress All -> A",
    ]
    at = -1
    for token in tokens:
        found = text.find(token, at + 1)
        assert found > at, f"token {token!r} missing or out of order"
        at = found


def test_print_plan_dense_workspace_tokens():
    _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-rowwise"])
    text = sw.print_plan(plan)
    assert "workspace W: DenseWs(order=1), dims={J}" in text
    assert "W[j] += B(i,k) * C(k,j)" in text
    assert "gather nonzeros W -> A(i, :)" in text
    assert "clear W" in text


def test_print_plan_hoisted_segment_append():
    _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-rowwise-hoist"])
    text = sw.print_plan(plan)
    assert "append segment (i, :) <- All -> A" in text


def test_print_plan_descriptor_line():
    _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-transposed"],
                         policy=sw.Policy.COORD, capacity=1024)
    text = sw.print_plan(plan)
    assert ("workspace W: SpFormat(order=2, policy=Coord), dims={I,J}, "
            "ow_order=[1,0], capacity=1024") in text


def test_print_plan_is_deterministic():
    for name in ("spgemm-outer", "spgemm-rowwise", "mttkrp"):
        _, plan, _ = prepare(KERNELS_BY_NAME[name])
        assert sw.print_plan(plan) == sw.print_plan(plan)


# first 16 hex digits of the sha256 of print_plan: each corpus kernel's plans
# under BUCKET, HASH and COORD joined by blank lines, then the extra plans
PLAN_DIGESTS = {
    "spgemm-inner": "0ed472c9e320f516",
    "spgemm-rowwise": "927ae34d89aba6d9",
    "spgemm-rowwise-hoist": "0d9dc0872f936a7d",
    "spgemm-outer": "008871c398dd339e",
    "spgemm-transposed": "3f2ffd2f5cbf8a6f",
    "spmv": "632245145087e8a9",
    "elementwise": "edbf01b3ec249dc7",
    "mttkrp": "400922780720a379",
    "ttm": "55731121673416a1",
    "register": "660fc303712fd001",
    "locate": "8cd4182ef53f9daa",
    "three-terms": "b9dcd78014d9698b",
    "materialize": "072865ab2d3f280b",
}


def test_print_plan_golden():
    texts = {}
    for kernel in KERNELS:
        texts[kernel.name] = "\n\n".join(
            sw.print_plan(prepare(kernel, policy)[1])
            for policy in (sw.Policy.BUCKET, sw.Policy.HASH, sw.Policy.COORD))
    for kernel in (REGISTER, LOCATE, THREE_TERMS):
        texts[kernel.name] = sw.print_plan(prepare(kernel)[1])
    texts["materialize"] = sw.print_plan(_materializing_plan())
    digests = {name: hashlib.sha256(text.encode()).hexdigest()[:16]
               for name, text in texts.items()}
    assert digests == PLAN_DIGESTS


# -- execution ---------------------------------------------------------------------------


def test_every_kernel_matches_the_dense_oracle(small_corpus):
    for inst in small_corpus:
        stmt, plan, decision = prepare(inst.kernel)
        assert decision.action is inst.kernel.action, inst.kernel.name
        out = sw.execute(plan, inst.tensors)
        expected = sw.dense_oracle(stmt, inst.arrays)
        got = out.tensor.to_dense()
        assert np.array_equal(got, expected), (inst.kernel.name, inst.index)
        result_name = sw.nest_assign(stmt).lhs.tensor
        assert out.tensor.format == inst.kernel.formats[result_name]


def test_execution_modes_agree(small_corpus, monkeypatch):
    # each host batch's entry counts, one per host row, as finish() ends it
    counts: list[np.ndarray] = []
    finish = lowering.IsmWorkspace.finish

    def counting_finish(ws):
        out = finish(ws)
        counts.append(out[0].copy())
        return out

    monkeypatch.setattr(lowering.IsmWorkspace, "finish", counting_finish)
    chosen = [inst for inst in small_corpus
              if inst.kernel.name in ("spgemm-outer", "mttkrp") and inst.index < 2]
    assert chosen
    for inst in chosen:
        _, plan, _ = prepare(inst.kernel, capacity=64)
        base = sw.execute(plan, inst.tensors)
        # capacity N, the sort-once extreme: every engine run that inserts
        # anything, a host row's, drains once, at its end
        _, sort_once, _ = prepare(inst.kernel, capacity=base.counters.inserts)
        counts.clear()
        once = sw.execute(sort_once, inst.tensors)
        assert sw.tensors_equal(base.tensor, once.tensor)
        assert once.counters.inserts == base.counters.inserts
        assert once.counters.drains == sum(np.count_nonzero(c) for c in counts) > 0


@pytest.mark.parametrize("kernel", [REGISTER, LOCATE, THREE_TERMS, PRODUCTS],
                         ids=lambda k: k.name)
def test_extra_plans_match_the_dense_oracle(kernel):
    stmt, plan, decision = prepare(kernel)
    assert decision.action is sw.InsertionAction.NONE
    for index in range(6):
        inst = kernel.instance(index)
        out = sw.execute(plan, inst.tensors)
        expected = sw.dense_oracle(stmt, inst.arrays)
        assert np.array_equal(out.tensor.to_dense(), expected), index


@pytest.mark.parametrize("kernel", [*KERNELS, REGISTER, LOCATE, THREE_TERMS, PRODUCTS],
                         ids=lambda k: k.name)
def test_execution_leaves_the_operand_values_unchanged(kernel):
    # sums and products go into arrays the expression allocated, never into
    # an operand's own values
    _, plan, _ = prepare(kernel)
    for index in range(3):
        tensors = kernel.instance(index).tensors
        before = {name: t.vals.copy() for name, t in tensors.items()}
        sw.execute(plan, tensors)
        assert all(np.array_equal(tensors[name].vals, v) for name, v in before.items())


def test_dense_and_sparse_workspaces_store_the_same_entries():
    # a sum that cancels to 0.0 stays an explicit entry in every workspace
    pairs = [(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]))]
    rng = np.random.default_rng(3)
    pairs += [(rng.integers(-3, 4, (6, 5)).astype(np.float64),
               rng.integers(-3, 4, (5, 7)).astype(np.float64)) for _ in range(20)]
    kernels = [KERNELS_BY_NAME[name] for name in
               ("spgemm-rowwise", "spgemm-rowwise-hoist", "spgemm-outer")]
    assert [k.action for k in kernels] == [sw.InsertionAction.DENSE,
                                           sw.InsertionAction.HOIST,
                                           sw.InsertionAction.FULL]
    plans = [prepare(k)[1] for k in kernels]
    for index, (b, c) in enumerate(pairs):
        dense, *sparse = [
            sw.execute(plan, {"B": sw.from_dense(b, k.formats["B"]),
                              "C": sw.from_dense(c, k.formats["C"])}).tensor
            for k, plan in zip(kernels, plans)]
        assert np.array_equal(dense.to_dense(), b @ c), index
        assert all(sw.tensors_equal(dense, t) for t in sparse), index
        if index == 0:
            assert dense.nnz == 1 and dense.vals.tolist() == [0.0]


def _dense_workspace(extent: int, rows: int, batches: list) -> tuple:
    """The block a dense workspace over ``extent`` cells hands over for a
    host batch of ``rows`` rows, given its leaf batches of (row, key,
    value) columns."""
    j = var("j")
    ws = lowering.DenseWorkspace(SimpleNamespace(extents={j: extent}),
                                 SimpleNamespace(slot_vars=(j,)))
    ws.start(rows)
    for owner, keys, vals in batches:
        ws.insert(owner.astype(np.uint32), keys.astype(CRD_DTYPE), vals)
    return ws.finish()


def _add_at_model(rows: int, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> tuple:
    """``W[row, key] += value`` in arrival order, each cell from 0.0 as
    np.add.at adds: the cells per row, then the cells' keys and sums in
    (row, key) order."""
    cells, at = np.unique(owner.astype(np.int64) << 32 | keys, return_inverse=True)
    sums = np.zeros(len(cells))
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(sums, at, vals)
    return np.bincount(cells >> 32, minlength=rows), (cells & 0xFFFFFFFF).astype(CRD_DTYPE), sums


def _check_dense_workspace(extent: int, rows: int, owner, keys, vals, cuts) -> None:
    """The workspace, fed the pairs as leaf batches cut at ``cuts``, against
    the model, bit for bit."""
    owner, keys, vals = np.asarray(owner), np.asarray(keys), np.asarray(vals, np.float64)
    bounds = [0, *cuts, len(vals)]
    batches = [(owner[lo:hi], keys[lo:hi], vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    counts, (crd,), sums = _dense_workspace(extent, rows, batches)
    want_counts, want_crd, want_sums = _add_at_model(rows, owner, keys, vals)
    assert counts.dtype == np.int64 and np.array_equal(counts, want_counts)
    assert crd.dtype == CRD_DTYPE and np.array_equal(crd, want_crd)
    assert sums.dtype == np.float64 and sums.tobytes() == want_sums.tobytes()


def _real_values(rng: np.random.Generator, n: int) -> np.ndarray:
    # magnitudes far apart, so a sum in another order rounds differently
    return rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)


def test_a_dense_workspace_sums_a_row_wider_than_a_slice_in_arrival_order():
    # one host row whose distinct cells outnumber a slice's pairs, so every
    # later slice grows to carry them, in one leaf batch and in uneven ones
    rng = np.random.default_rng(11)
    n, extent = 5 * lowering._SLICE, 4 * lowering._SLICE
    keys = rng.integers(0, extent, n)
    assert len(np.unique(keys)) > 2 * lowering._SLICE
    for cuts in ([], [1, 3000, 3001, 9000]):
        _check_dense_workspace(extent, 1, np.zeros(n, np.int64), keys, _real_values(rng, n), cuts)


def test_a_dense_workspace_carries_an_open_row_across_leaf_batches():
    # rows of 1 to 3 000 pairs; leaf batches end inside rows, at row ends
    # and one pair apart, and row 40 spans three batches
    rng = np.random.default_rng(12)
    sizes = rng.integers(1, 3000, 40)
    sizes[20] = 2900
    owner = np.repeat(np.arange(0, 80, 2), sizes)  # every other row empty
    n, extent = len(owner), 700
    keys = rng.integers(0, extent, n)
    ends = np.cumsum(sizes)
    cuts = sorted({int(ends[3]), int(ends[3]) + 1, int(ends[10]) - 1, int(ends[20]) - 2500,
                   int(ends[20]) - 1200, *rng.integers(1, n, 6).tolist()})
    _check_dense_workspace(extent, 80, owner, keys, _real_values(rng, n), cuts)


def test_a_dense_workspace_keeps_sums_that_cancel_to_zero():
    # x - x and -0.0 alone sum to 0.0 from 0.0 and stay entries; infinities
    # of both signs meet in NaN, and NaN stays NaN
    rng = np.random.default_rng(13)
    rows, cells = 6, 600
    # each cell of a row takes x and -x, in either order, among the others
    keys = np.repeat(np.arange(cells), 2)
    vals = np.repeat(_real_values(rng, cells), 2) * np.tile([1.0, -1.0], cells)
    shuffles = [rng.permutation(2 * cells) for _ in range(rows)]
    keys = np.concatenate([keys[p] for p in shuffles])
    vals = np.concatenate([vals[p] for p in shuffles])
    owner = np.repeat(np.arange(rows), 2 * cells)
    _check_dense_workspace(cells, rows, owner, keys, vals, [len(vals) // 3])
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 1.0, np.inf, 2.5, -2.5])
    with pytest.warns(RuntimeWarning, match="invalid value encountered in add"):
        _check_dense_workspace(8, 2, [0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 3, 4, 4],
                               special, [5])


@pytest.mark.parametrize("extent", [1, 2**16, 2**32 - 1])
def test_a_dense_workspace_sums_in_arrival_order_at_any_extent(extent, monkeypatch):
    # rows 0 and 2^21 in one slice: at the widest extent their cells take
    # more than 64 bits beside an arrival, and the packing ranks them
    packed = []

    def sort_arrivals(keys, width):
        packed.append(ism._bits(len(keys)) + width)
        return ism._sort_arrivals(keys, width)

    monkeypatch.setattr(lowering, "_sort_arrivals", sort_arrivals)
    rng = np.random.default_rng(14)
    n, far = lowering._SLICE + 500, 2**21
    owner = np.repeat([0, 5, far], [700, 900, n - 1600])
    keys = rng.integers(0, extent, n, dtype=np.int64)
    keys[[0, 800, -1]] = extent - 1
    _check_dense_workspace(extent, far + 1, owner, keys, _real_values(rng, n), [n - 100])
    assert (max(packed) > 64) == (extent == 2**32 - 1)


def _engine_model(policy: sw.Policy, capacity: int, keys: list, vals: list) -> list:
    """An engine's sums in key order: a key's values in each run added in
    arrival order, then the runs' sums in run order. A run ends at the pair
    past the capacity under COORD, and at a new key that finds the capacity
    of keys under BUCKET and HASH."""
    runs, run, held = [], {}, 0
    for k, v in zip(keys, vals):
        if (held == capacity if policy is sw.Policy.COORD
                else k not in run and len(run) == capacity):
            runs.append(run)
            run, held = {}, 0
        run.setdefault(k, []).append(v)
        held += 1
    sums: dict = {}
    for run in [*runs, run]:
        for k, vs in run.items():
            sums.setdefault(k, []).append(in_order(vs))
    return [in_order(sums[k]) for k in sorted(sums)]


def _warns_of_overflow_and_invalid(record) -> bool:
    return {"overflow encountered in add", "invalid value encountered in add"} <= {
        str(w.message) for w in record}


def test_every_accumulator_sums_in_arrival_order():
    # each key takes three to six values: -0.0 and 0.0 in mixes, infinities
    # that meet in NaN, NaN, values that overflow in any grouping, and reals
    # of far apart magnitudes, so that any other order of addition shows
    rng = np.random.default_rng(31)
    lists = [[-0.0, -0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, -0.0],
             [np.inf, -np.inf, 1.0], [np.nan, 2.0, -np.inf, 3.0], [1e308, 1e308, 1e308],
             [-1e308, -1.5e308, 3.0, -1.0]]
    lists += [_real_values(rng, int(n)).tolist() for n in rng.integers(3, 7, 25)]
    cells = rng.choice(32, len(lists), replace=False)
    pairs = [(int(cells[j]), v) for j, vs in enumerate(lists) for v in vs]
    keys, vals = map(list, zip(*(pairs[i] for i in rng.permutation(len(pairs)))))
    for policy in sw.Policy:
        for capacity in (1, 2, 7, 4096):
            engine = sw.IsmEngine((4, 8), policy, capacity, hash_l=3)
            with pytest.warns(RuntimeWarning) as record:
                engine.insert_batch(np.array(keys), np.array(vals))
                _, got = engine.result()
            want = np.array(_engine_model(policy, capacity, keys, vals))
            assert got.tobytes() == want.tobytes(), (policy, capacity)
            assert _warns_of_overflow_and_invalid(record), (policy, capacity)
    # duplicates summed in input order, after a stable sort
    with pytest.warns(RuntimeWarning) as record:
        t = from_arrays([keys], vals, sw.sparse_vector(), (32,), sum_duplicates=True)
    want = [in_order([v for k, v in zip(keys, vals) if k == c]) for c in sorted(cells)]
    assert t.vals.tobytes() == np.array(want).tobytes()
    assert _warns_of_overflow_and_invalid(record)
    # a dense workspace: A(i, j) += B(i, k) * C(k, j) with B's values 1.0,
    # so that cell j of row i takes C's values down column j in k order,
    # each added from 0.0 as W[j] += v adds; row 1 takes every other k
    kernel = KERNELS_BY_NAME["spgemm-rowwise"]
    assert kernel.action is sw.InsertionAction.DENSE
    ks = [k for vs in lists for k in range(len(vs))]
    js = [j for j, vs in enumerate(lists) for _ in vs]
    c = from_arrays([ks, js], [v for vs in lists for v in vs], sw.csr(), (6, len(lists)))
    b = sw.from_dense(np.array([[1.0] * 6, [1.0, 0.0] * 3]), sw.csr())
    with pytest.warns(RuntimeWarning) as record:
        a = sw.execute(prepare(kernel)[1], {"B": b, "C": c}).tensor
    want = [in_order([0.0, *vs[::step]]) for step in (1, 2) for vs in lists]
    assert a.vals.tobytes() == np.array(want).tobytes()
    assert _warns_of_overflow_and_invalid(record)


@pytest.mark.parametrize("enable_dense", [False, True])
def test_host_batches_the_intersection_empties_store_nothing(enable_dense, monkeypatch):
    # the host loop intersects d and B, so a chunk of B's rows that d misses
    # leaves no host row, and the workspace starts no batch for it
    stmt = sw.statement_from_text("forall i, k, j: A(i, j) = d(i) * B(i, k) * C(k, j)")
    formats = {"A": sw.csr(), "d": sw.sparse_vector(), "B": sw.dcsr(), "C": sw.csr()}
    rewritten, decision = sw.insert_sparse_workspace(stmt, formats, enable_dense=enable_dense)
    assert decision.action is (sw.InsertionAction.DENSE if enable_dense
                               else sw.InsertionAction.HOIST)
    plan = sw.lower(rewritten, formats)
    _walks_and_locates(_loops(plan)[0], "d", ["B"])
    batches: list[int] = []
    alloc = AllocWs.run

    def recording_alloc(self, ex, rows):
        batches.append(rows.n)
        alloc(self, ex, rows)

    monkeypatch.setattr(AllocWs, "run", recording_alloc)
    rng = np.random.default_rng(5)
    b = np.zeros((6, 4))
    b[[1, 3, 4]] = rng.integers(1, 4, (3, 4))
    c = rng.integers(-3, 4, (4, 5)).astype(np.float64)
    for rows in ([0, 2, 5], [], [0, 3], [1, 3, 4]):
        d = np.zeros(6)
        d[rows] = 2.0
        arrays = {"d": d, "B": b, "C": c}
        out = sw.execute(plan, {n: sw.from_dense(a, formats[n]) for n, a in arrays.items()})
        assert out.tensor.format == formats["A"]
        assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, arrays)), rows
    assert batches == [1, 3]


# first 16 hex digits of the sha256 of the counters (Counters.as_dict(),
# peak_bytes included) of sequential executions, one JSON object a line: each
# corpus kernel under BUCKET, HASH and COORD at capacities 1, 7 and 64 on
# instances 0-2, the extra plans on instances 0-2, and the materializing plan
# on operand seeds 0-2
COUNTER_DIGESTS = {
    "spgemm-inner": "898d6b30fa1b5611",
    "spgemm-rowwise": "d9fdac65f4774616",
    "spgemm-rowwise-hoist": "4084f8191f24af74",
    "spgemm-outer": "660663533951cddf",
    "spgemm-transposed": "537eb0742fb693c6",
    "spmv": "8766d63ebd1d47b5",
    "elementwise": "898d6b30fa1b5611",
    "mttkrp": "428f8f043fac8091",
    "ttm": "c1b9d6efed2949cb",
    "register": "34d3231ba083d9d6",
    "locate": "34d3231ba083d9d6",
    "three-terms": "34d3231ba083d9d6",
    "materialize": "28806f7d5054108c",
}


def test_counters_golden():
    runs: dict[str, list[dict[str, int]]] = {}
    for kernel in KERNELS:
        instances = [kernel.instance(index) for index in range(3)]
        runs[kernel.name] = [
            sw.execute(prepare(kernel, policy, capacity)[1], inst.tensors).counters.as_dict()
            for policy in (sw.Policy.BUCKET, sw.Policy.HASH, sw.Policy.COORD)
            for capacity in (1, 7, 64)
            for inst in instances]
    for kernel in (REGISTER, LOCATE, THREE_TERMS):
        plan = prepare(kernel)[1]
        runs[kernel.name] = [sw.execute(plan, kernel.instance(index).tensors)
                             .counters.as_dict() for index in range(3)]
    plan = _materializing_plan()
    runs["materialize"] = [sw.execute(plan, _matmul_operands(seed)[2]).counters.as_dict()
                           for seed in range(3)]
    digests = {
        name: hashlib.sha256("\n".join(json.dumps(c, sort_keys=True)
                                       for c in counters).encode()).hexdigest()[:16]
        for name, counters in runs.items()}
    assert digests == COUNTER_DIGESTS


def test_counters_surface_in_execution_results():
    _, plan, _ = prepare(KERNELS_BY_NAME["spgemm-outer"], capacity=8)
    inst = KERNELS_BY_NAME["spgemm-outer"].instance(4)
    out = sw.execute(plan, inst.tensors)
    c = out.counters
    assert c.inserts > 0
    assert c.drains >= 1
    assert c.merges == c.drains
    assert c.peak_bytes > 0
    assert c.as_dict()["comparisons"] == c.comparisons


# -- engine lifetime ---------------------------------------------------------------------


def test_hoisted_execution_builds_one_engine_and_at_most_one_worker(monkeypatch):
    kernel = KERNELS_BY_NAME["spgemm-rowwise-hoist"]
    _, plan, _ = prepare(kernel)
    inst = kernel.instance(1)
    engines: list[sw.IsmEngine] = []
    threads: list[threading.Thread] = []
    init, start = sw.IsmEngine.__init__, threading.Thread.start

    def counting_init(self, *args, **kwargs):
        engines.append(self)
        init(self, *args, **kwargs)

    def counting_start(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(sw.IsmEngine, "__init__", counting_init)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    # the retired mode's option is accepted and changes nothing
    outs = []
    for options in (None, sw.ExecutionOptions(pipeline=True)):
        engines.clear()
        out = sw.execute(plan, inst.tensors, options)
        assert out.counters.drains > 1  # one drain per nonempty row
        assert len(engines) == 1
        outs.append(out)
    assert not threads
    default, piped = outs
    assert sw.tensors_equal(default.tensor, piped.tensor)
    assert default.counters == piped.counters


@pytest.mark.parametrize("name", ["spgemm-outer", "spgemm-rowwise-hoist", "spgemm-rowwise"])
def test_engines_are_released_before_the_result_is_compressed(name, monkeypatch):
    # their all arrays' keys, or a dense workspace's sums, would stay live
    # through compression
    kernel = KERNELS_BY_NAME[name]
    _, plan, _ = prepare(kernel)
    (meta,) = plan.workspaces
    built: list[tuple[type, weakref.ref]] = []
    live_at_compression: list[int] = []
    compress = lowering.compress_segments

    def track(cls: type) -> None:
        init = cls.__init__

        def tracked_init(self, *args, **kwargs):
            built.append((cls, weakref.ref(self)))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", tracked_init)

    def checked_compress(*args, **kwargs):
        live_at_compression.append(sum(ref() is not None for _, ref in built))
        return compress(*args, **kwargs)

    for cls in (sw.IsmEngine, *lowering.WORKSPACE_KINDS.values()):
        track(cls)
    monkeypatch.setattr(lowering, "compress_segments", checked_compress)
    out = sw.execute(plan, kernel.instance(1).tensors)
    assert meta.impl in {cls for cls, _ in built}
    assert live_at_compression == [0]
    assert out.counters.inserts > 0
    assert (out.counters.merges > 0) == (meta.impl is lowering.IsmWorkspace)


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "mttkrp", "spgemm-rowwise", "ttm"])
def test_a_hoisted_workspace_hands_over_one_block_per_host_batch(name, monkeypatch):
    # host batches of two rows: each batch's drain extends the execution's
    # collector block once, with a prefix coordinate and an entry count per
    # host row and only the workspace's own coordinates and the values per
    # entry, and compression gets the prefix levels once per host row
    monkeypatch.setattr(lowering, "_OUTER_CHUNK", 2)
    kernel = KERNELS_BY_NAME[name]
    stmt, plan, _ = prepare(kernel)
    (meta,) = plan.workspaces
    batches: list[int] = []
    blocks: list[tuple] = []
    compressed: list[tuple] = []
    collectors: set[int] = set()
    start, extend, drain = meta.impl.start, lowering._Block.extend, lowering.DrainWs.run
    compress = lowering.compress_segments

    def tracked_start(self, n):
        batches.append(n)
        start(self, n)

    def tracked_drain(self, ex, rows):
        collectors.add(id(ex.collector))
        drain(self, ex, rows)

    def tracked_extend(self, prefix, counts, tail, vals):
        # a workspace's own block is extended too, as each row ends
        if id(self) in collectors:
            blocks.append(([len(p) for p in prefix], len(counts), [len(c) for c in tail],
                           len(vals), int(counts.sum())))
        extend(self, prefix, counts, tail, vals)

    def tracked_compress(prefix, counts, tail, vals, *args):
        compressed.append(([len(p) for p in prefix], len(counts), len(vals)))
        return compress(prefix, counts, tail, vals, *args)

    monkeypatch.setattr(meta.impl, "start", tracked_start)
    monkeypatch.setattr(lowering.DrainWs, "run", tracked_drain)
    monkeypatch.setattr(lowering._Block, "extend", tracked_extend)
    monkeypatch.setattr(lowering, "compress_segments", tracked_compress)
    inst = kernel.instance(1)
    out = sw.execute(plan, inst.tensors)
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, inst.arrays))
    levels, slots = out.tensor.order, len(meta.slot_vars)
    assert len(collectors) == 1
    assert len(batches) >= 3 and len(blocks) == len(batches)
    for n, (prefix, segments, tail, entries, counted) in zip(batches, blocks):
        assert prefix == [n] * (levels - slots) and segments == n
        assert tail == [entries] * slots and counted == entries
    # a batch without entries leaves nothing to collect
    rows = sum(n for n, block in zip(batches, blocks) if block[3])
    assert compressed == [([rows] * (levels - slots), rows, out.tensor.nnz)]
    assert rows < out.tensor.nnz


def _real_valued(kernel: Kernel, seed: int) -> dict[str, np.ndarray]:
    """The kernel's operands on real values: a sparse operand keeps its
    pattern, with its first row (and its fourth, if any) emptied."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, a in kernel.make_arrays(rng, 0.1).items():
        values = rng.random(a.shape)
        if not kernel.formats[name].all_dense():
            values[a == 0] = 0.0
            values[[0, 3] if len(a) > 3 else [0]] = 0.0
        out[name] = values
    return out


def _per_row_runs(kernel: Kernel, arrays: dict[str, np.ndarray], engine: ReferenceEngine,
                  rows: int) -> tuple[list[int], list[np.ndarray], list[np.ndarray]]:
    """The hoisted workspace's model: one reference engine run per prefix
    row i, ended by result(), inserting one pair at a time by the chain scan
    in loop order, with the product formed left to right; returns each
    row's entry count, and its coordinates and values."""
    counts, crds, vals = [], [], []
    for i in range(rows):
        if kernel.name == "mttkrp":
            x, b, c = arrays["X"], arrays["B"], arrays["C"]
            for k, l in zip(*np.nonzero(x[i])):
                for j in range(b.shape[1]):
                    engine.insert_key(j, float(x[i, k, l]) * float(b[k, j]) * float(c[l, j]))
        else:
            b, c = arrays["B"], arrays["C"]
            for k in np.flatnonzero(b[i]):
                for j in np.flatnonzero(c[k]):
                    engine.insert_key(int(j), float(b[i, k]) * float(c[k, j]))
        (crd,), val = engine.result()
        counts.append(len(val))
        crds.append(crd.copy())
        vals.append(val.copy())
    return counts, crds, vals


@pytest.mark.parametrize("capacity", [1, 2, 7, 4096])
@pytest.mark.parametrize("policy", list(sw.Policy), ids=lambda p: p.label)
@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "mttkrp"])
def test_a_hoisted_sparse_workspace_runs_the_engine_once_per_prefix_row(name, policy,
                                                                         capacity,
                                                                         monkeypatch):
    # rows span leaf chunks and host batches; values are real, so any change
    # to the order in which a row's pairs are summed shows in the bytes
    monkeypatch.setattr(lowering, "_CHUNK", 5)
    monkeypatch.setattr(lowering, "_OUTER_CHUNK", 3)
    kernel = KERNELS_BY_NAME[name]
    _, plan, decision = prepare(kernel, policy, capacity)
    assert decision.action is sw.InsertionAction.HOIST
    arrays = _real_valued(kernel, seed=capacity)
    tensors = {n: sw.from_dense(a, kernel.formats[n]) for n, a in arrays.items()}
    out = sw.execute(plan, tensors)
    sparse_nnz = sum(t.nnz for t in tensors.values() if not t.format.all_dense())
    hash_l = sw.hash_default_l(sparse_nnz) if policy is sw.Policy.HASH else None
    engine = ReferenceEngine([out.tensor.dims[1]], policy, capacity, hash_l=hash_l)
    rows = out.tensor.dims[0]
    counts, crds, vals = _per_row_runs(kernel, arrays, engine, rows)
    assert 0 in counts
    assert isinstance(out.tensor.levels[0], DenseLevel)
    pos, crd = out.tensor.levels[1].pos, out.tensor.levels[1].crd
    assert np.array_equal(pos, np.concatenate(([0], np.cumsum(counts))))
    assert np.array_equal(crd, np.concatenate(crds))
    assert out.tensor.vals.tobytes() == np.concatenate(vals).tobytes()
    assert out.counters == engine.counters


@pytest.mark.parametrize("policy", list(sw.Policy), ids=lambda p: p.label)
@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "mttkrp"])
def test_a_hoisted_workspace_runs_the_engine_only_for_rows_that_insert(name, policy,
                                                                        monkeypatch):
    # host batches of three rows and leaf batches of five iterations, each
    # one engine call with its pairs' host rows: a row that some call names
    # gets its entry count, and every other row of the batch a count of 0.
    # The counters equal one reference run per row's, a row without pairs
    # noting the capacity floor of peak_bytes as an empty run; under
    # spgemm-rowwise-hoist the first host batch has no pairs at all
    monkeypatch.setattr(lowering, "_CHUNK", 5)
    monkeypatch.setattr(lowering, "_OUTER_CHUNK", 3)
    batches: list[list] = []  # [rows the calls named, counts] per host batch
    start, insert = lowering.IsmWorkspace.start, sw.IsmEngine.insert_batch
    finish = lowering.IsmWorkspace.finish

    def tracked_start(ws, n):
        batches.append([set(), None])
        start(ws, n)

    def tracked_insert(engine, keys, vals, rows=None):
        assert len(rows) <= 5 and np.all(np.diff(rows.astype(np.int64)) >= 0)
        batches[-1][0].update(rows.tolist())
        return insert(engine, keys, vals, rows)

    def tracked_finish(ws):
        out = finish(ws)
        batches[-1][1] = out[0].copy()
        return out

    monkeypatch.setattr(lowering.IsmWorkspace, "start", tracked_start)
    monkeypatch.setattr(sw.IsmEngine, "insert_batch", tracked_insert)
    monkeypatch.setattr(lowering.IsmWorkspace, "finish", tracked_finish)
    kernel = KERNELS_BY_NAME[name]
    _, plan, _ = prepare(kernel, policy, 2)
    # mttkrp's X stores no empty row, so only B's rows make batches of none
    for case in ("first-batch-empty", "all-empty") if name != "mttkrp" else ("some-empty",):
        arrays = _real_valued(kernel, seed=5)
        if case != "some-empty":
            arrays["B"][:3 if case == "first-batch-empty" else None] = 0.0
        tensors = {n: sw.from_dense(a, kernel.formats[n]) for n, a in arrays.items()}
        batches.clear()
        out = sw.execute(plan, tensors)
        sparse_nnz = sum(t.nnz for t in tensors.values() if not t.format.all_dense())
        hash_l = sw.hash_default_l(sparse_nnz) if policy is sw.Policy.HASH else None
        engine = ReferenceEngine([out.tensor.dims[1]], policy, 2, hash_l=hash_l)
        _per_row_runs(kernel, arrays, engine, out.tensor.dims[0])
        assert out.counters == engine.counters
        assert len(batches) > 1
        for named, counts in batches:
            assert set(np.flatnonzero(counts).tolist()) == named
        if case == "all-empty":
            # each host batch ends an empty run, which notes the floor
            assert not any(named for named, _ in batches)
            assert out.counters.peak_bytes == 2 * ism._ELEMENT_BYTES
        else:
            inserting = int(np.count_nonzero(np.diff(out.tensor.levels[1].pos)))
            assert 0 < inserting < out.tensor.dims[0]
            if case == "first-batch-empty":
                assert not batches[0][0] and 0 in batches[1][1]


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "mttkrp"])
def test_a_hoisted_row_of_one_run_goes_back_without_the_all_array(name, monkeypatch):
    # on operands shaped like the benchmark's hoisted-rows traffic, every row
    # holds fewer keys than a capacity of 4096, so each row that ends inside
    # an engine call goes back from that call's plan as it is, and the all
    # array only logs the row a call leaves open, drained by finalize(). At
    # capacity 2 the calls' own plans log runs, and the tensor is the same
    callers: list[tuple[str, ...]] = []  # the engine calls under each merge
    inside: list[str] = []

    def spy(attr):
        fn = getattr(sw.IsmEngine, attr)

        def wrapped(*args, **kwargs):
            inside.append(attr)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(sw.IsmEngine, attr, wrapped)

    spy("insert_batch")
    spy("finalize")
    merge = ism.AllArray.merge

    def logged(all_array, keys, vals):
        callers.append(tuple(inside))
        return merge(all_array, keys, vals)

    monkeypatch.setattr(ism.AllArray, "merge", logged)
    kernel = KERNELS_BY_NAME[name]
    rng = np.random.default_rng([1, 1])
    if name == "mttkrp":
        arrays = {"X": sparse_array(rng, (100, 100, 100), 0.005),
                  "B": dense_array(rng, (100, 16)), "C": dense_array(rng, (100, 16))}
    else:
        arrays = {t: sparse_array(rng, (1500, 1500), 0.005) for t in ("B", "C")}
    tensors = {t: sw.from_dense(a, kernel.formats[t]) for t, a in arrays.items()}
    out = {}
    for capacity in (4096, 2):
        callers.clear()
        out[capacity] = sw.execute(prepare(kernel, sw.Policy.BUCKET, capacity)[1], tensors)
        assert callers and inside == []
        if capacity == 4096:
            assert all(c[-1] == "finalize" for c in callers)
        else:
            assert sum(c == ("insert_batch",) for c in callers) > len(callers) // 2
    want, got = (out[c].tensor for c in (4096, 2))
    assert all(np.array_equal(w, g) for w, g in zip(want.mode_coordinates(),
                                                   got.mode_coordinates()))
    assert want.vals.tobytes() == got.vals.tobytes()
    assert out[4096].counters.merges < out[2].counters.merges


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-rowwise", "mttkrp"])
def test_a_hosted_workspace_takes_at_most_an_engine_block_per_call(name, monkeypatch):
    # a leaf loop that inserts into a hosted workspace expands at most an
    # engine block of iterations, so every engine call and every dense
    # workspace insert takes at most ism._BLOCK pairs, one leaf batch. On
    # the benchmark's hoisted-rows operands (1 500 rows, 83 479 pairs) the
    # hoisted product makes 22 engine calls, not one per row; mttkrp's
    # scaled operands expand a full leaf chunk under every l batch
    sizes: list[int] = []
    insert, dense = sw.IsmEngine.insert_batch, lowering.DenseWorkspace.insert

    def sized_insert(engine, keys, vals, *rows):
        sizes.append(len(keys))
        return insert(engine, keys, vals, *rows)

    def sized_dense(ws, owner, keys, vals):
        sizes.append(len(keys))
        return dense(ws, owner, keys, vals)

    monkeypatch.setattr(sw.IsmEngine, "insert_batch", sized_insert)
    monkeypatch.setattr(lowering.DenseWorkspace, "insert", sized_dense)
    kernel = KERNELS_BY_NAME[name]
    if name == "mttkrp":
        tensors = _scaled_operands(name, 1)
    else:
        rng = np.random.default_rng([1, 1])
        arrays = {t: sparse_array(rng, (1500, 1500), 0.005) for t in ("B", "C")}
        tensors = {t: sw.from_dense(a, kernel.formats[t]) for t, a in arrays.items()}
    _, plan, _ = prepare(kernel)
    out = sw.execute(plan, tensors)
    assert sum(sizes) == out.counters.inserts > 2 * ism._BLOCK
    assert max(sizes) == ism._BLOCK
    if name == "spgemm-rowwise-hoist":
        assert -(-out.counters.inserts // ism._BLOCK) <= len(sizes) <= 25


def test_a_block_takes_over_its_first_arrays_and_copies_the_rest():
    # an empty block takes over the arrays of its first extend and hands
    # them back as they are; more entries are copied into buffers of its
    # own, so the caller's arrays are never written into or resized
    rng = np.random.default_rng(3)
    parts = []
    for _ in range(6):
        counts = rng.integers(0, 4, 5)
        counts[0] += 1  # an extend without entries leaves nothing
        n = int(counts.sum())
        parts.append(([rng.integers(0, 9, 5).astype(CRD_DTYPE)], counts,
                      [rng.integers(0, 9, n).astype(CRD_DTYPE)], rng.random(n)))
    saved = [[c.copy() for c in (*prefix, counts, *tail, vals)]
             for prefix, counts, tail, vals in parts]
    ((p,), c, (t,), v) = parts[0]
    block = lowering._Block(2)
    block.extend([p], c, [t], v)
    (prefix,), counts, (tail,), vals = block.take()
    assert prefix is p and counts is c and tail is t and vals is v
    block = lowering._Block(2)
    for part in parts:
        block.extend(*part)
    (prefix,), counts, (tail,), vals = block.take()
    for part, kept in zip(parts, saved):
        (p,), c, (t,), v = part
        assert all(np.array_equal(a, b) for a, b in zip((p, c, t, v), kept))
    for got, column in zip((prefix, counts, tail, vals), zip(*saved)):
        assert got.dtype == column[0].dtype
        assert np.array_equal(got, np.concatenate(column))


@pytest.mark.parametrize("policy", list(sw.Policy))
def test_a_top_level_workspace_result_is_not_copied(policy, monkeypatch):
    # a FULL workspace's one block passes through the collector and into
    # the tensor as the engine's own values
    kernel = KERNELS_BY_NAME["spgemm-outer"]
    _, plan, _ = prepare(kernel, policy)
    results = []
    result = ism.IsmEngine.result

    def tracked_result(self):
        results.append(result(self))
        return results[-1]

    monkeypatch.setattr(ism.IsmEngine, "result", tracked_result)
    out = sw.execute(plan, kernel.instance(1).tensors)
    ((_, vals),) = results
    assert len(vals) == out.tensor.nnz > 0 and np.shares_memory(out.tensor.vals, vals)


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-rowwise"])
def test_segment_compression_expands_no_prefix_column(name):
    # a prefix coordinate expanded to one per entry would take 4 B more per
    # entry; compression's scratch is a few arrays per host row and the
    # order check's blocks (1.5 B per entry measured)
    kernel = KERNELS_BY_NAME[name]
    b, c = sw.synthetic_pair(1500, 1500, 0.5, 8, seed=1)
    tensors = {"B": sw.reformat(b, kernel.formats["B"]),
               "C": sw.reformat(c, kernel.formats["C"])}
    _, plan, _ = prepare(kernel)
    with peak_spans([(lowering, "compress_segments")]) as probe:
        nnz = sw.execute(plan, tensors).tensor.nnz
    (compress,) = probe.spans.values()
    assert compress.calls == 1 and compress.peak - compress.entry <= 5 * nnz


class DictWorkspace(lowering.Workspace):
    """A third implementation: a dict from (host row, key) to a running sum
    that starts at 0.0, sorted when the batch finishes."""

    def __init__(self, ex, meta) -> None:
        self.extents = [ex.extents[v] for v in meta.slot_vars]
        self.counters = sw.Counters()

    @classmethod
    def insert_lines(cls, meta, expr):
        return [f"{meta.name}[key] += {format_expr(expr)}"]

    @classmethod
    def drain_lines(cls, meta, prefix_vars, into):
        return [f"sorted items {meta.name} -> {into}"]

    def start(self, n):
        self.n = n
        self.sums: dict[tuple[int, int], float] = {}

    def insert(self, owner, keys, vals):
        self.counters.inserts += len(keys)
        for cell, val in zip(zip(owner.tolist(), keys.tolist()), vals.tolist()):
            self.sums[cell] = self.sums.get(cell, 0.0) + val

    def finish(self):
        cells = sorted(self.sums)
        rows = np.array([row for row, _ in cells], dtype=np.int64)
        keys = np.array([key for _, key in cells], dtype=np.int64)
        vals = np.array([self.sums[cell] for cell in cells], dtype=np.float64)
        self.sums = {}
        coords = np.unravel_index(keys, self.extents)
        counts = np.bincount(rows, minlength=self.n)
        return counts, [c.astype(CRD_DTYPE) for c in coords], vals


def _with_descriptor(stmt: sw.Statement, **changes) -> sw.Statement:
    """The statement with its workspace descriptor's fields changed."""
    if isinstance(stmt, sw.Where):
        return replace(stmt, descriptor=replace(stmt.descriptor, **changes))
    return replace(stmt, body=_with_descriptor(stmt.body, **changes))


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-outer"])
def test_a_registered_workspace_kind_runs_without_lowering_edits(name, small_corpus,
                                                                 monkeypatch):
    monkeypatch.setitem(lowering.WORKSPACE_KINDS, "dict", DictWorkspace)
    kernel = KERNELS_BY_NAME[name]
    stmt = kernel.statement()
    rewritten, _ = sw.insert_sparse_workspace(stmt, kernel.formats, **kernel.insert_kw)
    plan = sw.lower(_with_descriptor(rewritten, kind="dict"), kernel.formats)
    assert [meta.impl for meta in plan.workspaces] == [DictWorkspace]
    text = sw.print_plan(plan)
    assert "workspace W: " in text and "sorted items W -> A" in text
    assert "Acc" not in text
    chosen = [inst for inst in small_corpus if inst.kernel is kernel]
    assert chosen
    for inst in chosen:
        out = sw.execute(plan, inst.tensors)
        assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, inst.arrays))
        assert out.tensor.format == kernel.formats["A"]
        assert out.counters.inserts == sw.execute(prepare(kernel)[1],
                                                  inst.tensors).counters.inserts


def _carries_host_rows(kernel) -> bool:
    """Whether any batch of the kernel's plan carries host rows: the root
    batch, or one that a driver or a locate builds."""
    _, plan, _ = prepare(kernel)
    ex = lowering._Execution(plan, kernel.instance(0).tensors)
    return lowering._OWNER in ex._root or any(k.owner for k in ex.keep.values())


@pytest.mark.parametrize("name", ["spgemm-outer", "spmv"])
def test_a_workspace_no_loop_hosts_carries_no_host_rows(name):
    # a FULL workspace and a conversion workspace have the one host row
    kernel = KERNELS_BY_NAME[name]
    _, plan, _ = prepare(kernel)
    assert [meta.hosted for meta in plan.workspaces] == [False]
    assert not _carries_host_rows(kernel)


@pytest.mark.parametrize("kernel", [KERNELS_BY_NAME["spgemm-rowwise-hoist"],
                                    KERNELS_BY_NAME["spgemm-rowwise"], REGISTER],
                         ids=lambda k: k.name)
def test_hosted_statements_carry_host_rows(kernel):
    # a hoisted sparse workspace, a dense one and the value register are
    # addressed by host row
    assert _carries_host_rows(kernel)


class _OwnerLog(DictWorkspace):
    """DictWorkspace noting the dtype and the length of each host-row array."""

    seen: list = []

    def insert(self, owner, keys, vals):
        self.seen.append((owner.dtype, len(owner) == len(keys), owner.tolist()))
        super().insert(owner, keys, vals)


@pytest.mark.parametrize("name, hosted", [("spgemm-outer", False),
                                          ("spgemm-rowwise-hoist", True)])
def test_a_registered_kind_gets_a_host_row_per_pair(name, hosted, monkeypatch):
    monkeypatch.setitem(lowering.WORKSPACE_KINDS, "dict", _OwnerLog)
    monkeypatch.setattr(_OwnerLog, "seen", [])
    kernel = KERNELS_BY_NAME[name]
    stmt = kernel.statement()
    rewritten, _ = sw.insert_sparse_workspace(stmt, kernel.formats, **kernel.insert_kw)
    plan = sw.lower(_with_descriptor(rewritten, kind="dict"), kernel.formats)
    inst = kernel.instance(1)
    out = sw.execute(plan, inst.tensors)
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, inst.arrays))
    assert _OwnerLog.seen
    assert all(dtype == np.uint32 and full for dtype, full, _ in _OwnerLog.seen)
    rows = {r for _, _, owner in _OwnerLog.seen for r in owner}
    assert (rows == {0}) is not hosted


def test_execute_leaves_no_cyclic_garbage():
    runs = []
    for name in ("spgemm-inner",          # plain, dense result
                 "elementwise",           # plain, sparse append
                 "spgemm-outer",          # FULL workspace
                 "spgemm-rowwise-hoist",  # hoisted workspace
                 "spmv",                  # conversion workspace
                 "spgemm-rowwise"):       # dense workspace
        kernel = KERNELS_BY_NAME[name]
        _, plan, _ = prepare(kernel)
        runs.append((name, plan, kernel.instance(1).tensors))
    runs.append(("materialize", _materializing_plan(), _matmul_operands(3)[2]))
    # lowering and printing each corpus kernel must leave none either
    rewritten = [(kernel, sw.insert_sparse_workspace(kernel.statement(), kernel.formats,
                                                     **kernel.insert_kw)[0])
                 for kernel in KERNELS]
    gc.collect()
    gc.disable()
    try:
        for kernel, stmt in rewritten:
            sw.print_plan(sw.lower(stmt, kernel.formats))
            assert gc.collect() == 0, kernel.name
        for name, plan, tensors in runs:
            sw.execute(plan, tensors)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


# -- batch columns and scratch -------------------------------------------------------------


class _ReadLog(dict):
    """The columns of one kind in a batch, noting each one read."""

    def __init__(self, columns: dict) -> None:
        super().__init__(columns)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class _TrackedRows(lowering._Rows):
    """A batch that notes which of its columns are read."""

    __slots__ = ("_owner", "owner_read")

    def __init__(self, rows: lowering._Rows) -> None:
        self.owner_read = False
        super().__init__(rows.n, _ReadLog(rows.crd), _ReadLog(rows.pos), rows.owner)

    @property
    def owner(self):
        self.owner_read = True
        return self._owner

    @owner.setter
    def owner(self, value) -> None:
        self._owner = value

    def unread(self) -> list[str]:
        names = [v.name for v in self.crd if v not in self.crd.read]
        names += [f"pos {aid}" for aid in self.pos if aid not in self.pos.read]
        if self._owner is not None and not self.owner_read:
            names.append("owner")
        return names


@pytest.mark.parametrize("kernel", [*KERNELS, REGISTER, LOCATE, THREE_TERMS],
                         ids=lambda k: k.name)
def test_batches_carry_only_columns_read_below_them(kernel, monkeypatch):
    # every batch a driver or a locate builds: each coordinate, position and
    # host-row column it carries, gathered or set, is read by a node below
    batches: list[_TrackedRows] = []
    take = lowering._Rows.take

    def tracked_take(self, rows, keep):
        batch = _TrackedRows(take(self, rows, keep))
        batches.append(batch)
        return batch

    monkeypatch.setattr(lowering._Rows, "take", tracked_take)
    stmt, plan, _ = prepare(kernel)
    for index in range(3):
        inst = kernel.instance(index)
        out = sw.execute(plan, inst.tensors)
        assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, inst.arrays))
    checked = [b for b in batches if b.n]
    assert checked
    assert [b.unread() for b in checked if b.unread()] == []


@pytest.mark.parametrize("entries, dtype", [(2**32 - 1, np.uint32), (2**32, np.int64)])
def test_positions_are_64_bit_where_an_operand_holds_2_to_the_32_entries(entries, dtype):
    # the rule reads lengths only: a broadcast array of 2^32 entries holds one
    many = np.broadcast_to(np.zeros(1), (entries,))
    operands = {
        sw.dense_vector(): sw.Tensor((entries,), sw.dense_vector(), (DenseLevel(entries),),
                                     None, many),
        sw.sparse_vector(): sw.Tensor((4,), sw.sparse_vector(), (CompressedLevel(
            many.view(np.int64), np.empty(0, CRD_DTYPE)),), None, np.empty(0)),
    }
    for fmt, b in operands.items():
        plan = _lower("a(i) = b(i)", {"a": sw.sparse_vector(), "b": fmt})
        assert lowering._Execution(plan, {"b": b}).pos_dtype == dtype


def test_keys_past_2_to_the_32_from_32_bit_columns():
    # a host row or a position times an extent passes 2^32 here, while
    # every column is 32-bit: the keys are widened before they scale
    big = 2**22
    rows = np.array([1, 1500, 2047, 3000])
    ones = np.ones(len(rows))
    # the dense workspace's (host row, column) keys: a host batch's rows
    # reach 2047, times an extent of 2^22
    b = from_arrays([rows, 0 * rows], ones, sw.csr(), (4096, 1))
    c = from_arrays([[0], [big - 1]], [2.0], sw.csr(), (1, big))
    plan = prepare(KERNELS_BY_NAME["spgemm-rowwise"])[1]
    out = sw.execute(plan, {"B": b, "C": c}).tensor
    assert [comp.crds for comp in out.components()] == [(r, big - 1) for r in rows]
    # a search of C's rows in a column: the column's position times 2^22
    formats = {"A": sw.dcsr(), "B": sw.dcsr(), "C": sw.csc()}
    entries = [big - 1 - rows, rows]
    operands = {"B": from_arrays(entries, ones, sw.dcsr(), (big, 4096)),
                "C": from_arrays(entries, 2 * ones, sw.csc(), (big, 4096))}
    out = sw.execute(_lower("A(i, j) = B(i, j) * C(i, j)", formats), operands).tensor
    assert sorted(comp.crds for comp in out.components()) == sorted(zip(*entries))


def _corpus_digest() -> str:
    """sha256 of every result tensor's storage and of the counters: each
    corpus kernel and extra plan on instances 0-2, under each policy at
    capacity 7, with host batches of the normal size and of two rows."""
    h = hashlib.sha256()
    for outer in (lowering._OUTER_CHUNK, 2):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lowering, "_OUTER_CHUNK", outer)
            for kernel in [*KERNELS, REGISTER, LOCATE, THREE_TERMS, PRODUCTS]:
                for policy in sw.Policy:
                    plan = prepare(kernel, policy, 7)[1]
                    for index in range(3):
                        out = sw.execute(plan, kernel.instance(index).tensors)
                        t = out.tensor
                        h.update(repr((t.dims, t.format)).encode())
                        for lvl in t.levels:
                            h.update(lvl.pos.tobytes() + lvl.crd.tobytes()
                                     if isinstance(lvl, CompressedLevel) else b"dense")
                        h.update(t.vals.tobytes())
                        h.update(json.dumps(out.counters.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_64_bit_positions_give_the_same_tensors_and_counters(monkeypatch):
    narrow = _corpus_digest()
    with monkeypatch.context() as m:
        # every loop indexes its iterations as if it passed 2^32 of them
        m.setattr(lowering._Execution, "index_dtype", lambda ex, total: np.dtype(np.int64))
        assert _corpus_digest() == narrow
    # no operand array holds fewer than 0 entries: every position is int64
    monkeypatch.setattr(lowering, "MAX_EXTENT", 0)
    kernel = KERNELS_BY_NAME["mttkrp"]
    assert lowering._Execution(prepare(kernel)[1], kernel.instance(0).tensors).pos_dtype \
        == np.int64
    assert _corpus_digest() == narrow


def _scaled_operands(name: str, scale: int) -> dict[str, sw.Tensor]:
    """Operands under which every loop but a two-row outer one expands to
    2 * _CHUNK * scale iterations or more, while the result stays 2 x 2 (2
    for the register plan and spmv, 2 x 8 for mttkrp); every value is 1."""
    kernel = REGISTER if name == "register" else KERNELS_BY_NAME[name]
    n = (2 if name == "spgemm-outer" else 1) * lowering._CHUNK * scale
    if name == "mttkrp":
        # eight j per (i, k, l): a batch of the l loop, _OUTER_CHUNK
        # iterations, expands to a full leaf chunk
        arrays = {"X": np.ones((2, n, 1)), "B": np.ones((n, 8)), "C": np.ones((1, 8))}
    elif name in ("register", "spmv"):
        arrays = {"B": np.ones((2, n)), "c": np.ones(n)}
    else:
        arrays = {"B": np.ones((2, n)), "C": np.ones((n, 2))}
    return {t: sw.from_dense(a, kernel.formats[t]) for t, a in arrays.items()}


def _execute_scratch(plan: sw.Plan, tensors: dict[str, sw.Tensor]) -> tuple[int, sw.Tensor]:
    """Bytes an execution held at its peak beyond what it left behind (its
    result), and the result."""
    with peak_above() as span:
        out = sw.execute(plan, tensors)
    return span.peak - span.left, out.tensor


@pytest.mark.parametrize("name", ["register", "spgemm-rowwise", "spgemm-rowwise-hoist",
                                  "spgemm-outer"])
def test_producer_scratch_is_bounded_by_the_chunk(name):
    # drivers expand _CHUNK iterations at a time and every batch they build
    # is a chunk or part of one, so from two chunks on, four times the
    # iterations hold about the same scratch
    kernel = REGISTER if name == "register" else KERNELS_BY_NAME[name]
    _, plan, _ = prepare(kernel)
    (short, small), (long, large) = (_execute_scratch(plan, _scaled_operands(name, scale))
                                     for scale in (1, 4))
    assert long <= 1.15 * short
    assert np.array_equal(large.to_dense(), 4 * small.to_dense())


@pytest.mark.parametrize("name", ["register", "spgemm-rowwise", "spgemm-rowwise-hoist",
                                  "spgemm-outer"])
def test_producer_scratch_is_within_64_bytes_per_chunk_iteration(name):
    # only a leaf loop expands _CHUNK iterations at a time; a loop that nests
    # others expands an eighth of that, and no loop keeps a batch or its
    # index arrays while the next one is built, so a whole loop nest holds
    # about one leaf chunk
    kernel = REGISTER if name == "register" else KERNELS_BY_NAME[name]
    _, plan, _ = prepare(kernel)
    scratch, _ = _execute_scratch(plan, _scaled_operands(name, 4))
    assert scratch <= 64 * lowering._CHUNK


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-outer"])
def test_sparse_workspace_inserts_are_within_40_bytes_per_chunk_iteration(name):
    # an insert releases the columns of its batch that no later node reads
    # before the workspace takes the pairs, and its keys are 32-bit where
    # the key space fits
    _, plan, _ = prepare(KERNELS_BY_NAME[name])
    scratch, _ = _execute_scratch(plan, _scaled_operands(name, 4))
    assert scratch <= 40 * lowering._CHUNK


@pytest.mark.parametrize("name, bound", [("spgemm-rowwise-hoist", 16.5), ("spgemm-rowwise", 14),
                                         ("mttkrp", 20), ("spmv", 34)])
def test_scratch_beyond_the_result_on_scaled_operands(name, bound):
    # bounds in bytes per leaf chunk iteration, from measurement (15.6 for
    # the sparse workspace, 13.3 for the dense one, 18.9 for mttkrp's three
    # gathered operands, 26.0 for spmv's top-level workspace; 17.6, 15.3,
    # 23.0 and 36.5 with 64-bit positions): a leaf chunk's columns, each
    # released at its last read, and the workspace's pairs; an operand is
    # gathered and joins a product a slice at a time; the dense workspace
    # sums a slice of pairs at a time and keeps the open row's cells in
    # arrays of their own. A hosted workspace's leaf batch is at most an
    # engine block of iterations (the row-wise products' is that already
    # here: each batch of k gives two iterations of j)
    _, plan, _ = prepare(KERNELS_BY_NAME[name])
    scratch, _ = _execute_scratch(plan, _scaled_operands(name, 4))
    assert scratch <= bound * lowering._CHUNK


@pytest.mark.parametrize("name, bound", [("spgemm-rowwise-hoist", 5.0), ("spgemm-rowwise", 5.8)])
def test_scratch_beyond_a_large_result_per_entry(name, bound):
    # bounds in bytes per result entry, from measurement (4.76 sparse, 5.50
    # dense; 6.02 and 6.76 with 64-bit positions): the growing block, with
    # at most a sixteenth of headroom, and a leaf batch of at most an
    # engine block of iterations; no entry carries its host row's
    # coordinates
    kernel = KERNELS_BY_NAME[name]
    b, c = sw.synthetic_pair(1500, 1500, 0.5, 8, seed=1)
    tensors = {"B": sw.reformat(b, kernel.formats["B"]),
               "C": sw.reformat(c, kernel.formats["C"])}
    _, plan, _ = prepare(kernel)
    scratch, out = _execute_scratch(plan, tensors)
    assert scratch <= bound * out.nnz


def test_ttm_scratch_beyond_the_result_per_entry():
    # the benchmark's append-dense operands for ttm at seed 1 (the arrays
    # drawn before them are drawn and dropped): five host batches of a dense
    # workspace whose blocks the collector appends into one buffer, with no
    # join at the end (2.91 B per entry measured, 4.20 with 64-bit positions)
    rng = np.random.default_rng([1, 2])
    for shape, density in [((600, 600), 0.01)] * 2 + [((1500, 1500), 0.005)] * 2:
        sparse_array(rng, shape, density)
    sparse_array(rng, (1000, 1000), 0.05)
    dense_array(rng, (1000, 1000))
    kernel = KERNELS_BY_NAME["ttm"]
    arrays = {"X": sparse_array(rng, (100, 100, 100), 0.02), "U": dense_array(rng, (100, 16))}
    tensors = {t: sw.from_dense(a, kernel.formats[t]) for t, a in arrays.items()}
    _, plan, _ = prepare(kernel)
    scratch, out = _execute_scratch(plan, tensors)
    assert out.nnz == 139_520 and scratch <= 3.5 * out.nnz


class _Nest:
    def outer(self) -> float:
        held = np.ones(100_000)  # 0.8 MB, live while inner() runs
        return self.inner() + held.sum()

    def inner(self) -> float:
        return np.ones(200_000).sum()


def test_peak_spans_charge_a_nested_peak_to_both_spans():
    methods = dict(vars(_Nest))
    with peak_spans([(_Nest, "outer"), (_Nest, "inner")]) as probe:
        _Nest().outer()
        _Nest().inner()
    outer, inner = probe.spans["_Nest.outer"], probe.spans["_Nest.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    mb = 1 << 20
    assert abs(outer.entry) < mb // 8 and abs(inner.entry - 800_000) < mb // 8
    assert abs(inner.peak - 2_400_000) < mb // 8
    assert outer.peak == inner.peak == probe.peak
    assert dict(vars(_Nest)) == methods


# a mid-size outer product: 64 000 inserts into 57 580 entries
_SPANS = [(ism.AccArray, "fill"), (ism.AllArray, "_compact"), (lowering, "compress_segments")]


@pytest.mark.parametrize("policy", list(sw.Policy))
def test_the_peak_of_a_mid_size_outer_product(policy):
    # bounds in bytes, from measurement. Under bucket and hash, planning a
    # block of inserts after the contents (two blocks at most) sets the
    # peak, at 15.3 B per planned pair with one packed sort array at a
    # time; coord's plan is little more than the two blocks, and its peak
    # is set outside the three spans, while the plan's complete runs drain
    # in one sort. The compaction frees the log as it merges it, so it
    # adds to it only one key range's scratch; compression takes the
    # compacted sums over and holds only its order check's blocks
    kernel = KERNELS_BY_NAME["spgemm-outer"]
    b, c = sw.synthetic_pair(2000, 2000, 0.5, 8, seed=1)
    tensors = {"B": sw.reformat(b, kernel.formats["B"]),
               "C": sw.reformat(c, kernel.formats["C"])}
    _, plan, _ = prepare(kernel, policy, 4096)
    with peak_spans(_SPANS) as probe:
        nnz = sw.execute(plan, tensors).tensor.nnz
    fill, compact, compress = probe.spans.values()
    planned = 2 * ism._BLOCK
    if policy is sw.Policy.COORD:
        assert fill.peak - fill.entry <= 10 * planned
        assert probe.peak > max(fill.peak, compact.peak, compress.peak)
    else:
        assert fill.peak - fill.entry <= 17.5 * planned
        assert probe.peak == fill.peak
    assert probe.peak <= 20.5 * nnz
    assert compact.calls == 1 and compact.peak - compact.entry <= 5 * nnz
    assert compress.calls == 1 and compress.peak - compress.entry <= 0.8 * nnz


def test_a_sparse_workspace_peaks_near_its_result():
    # the outer product of scatter-full's operands: 128 000 inserts into
    # 115 499 entries, whose CSR result takes 1.42 MB; the execution peaks
    # at 1.38 times that, compressing the result (1.48 while a block of
    # inserts was planned with intp sort orders, 2.0 while the compaction
    # held a copy of the log)
    kernel = KERNELS_BY_NAME["spgemm-outer"]
    b, c = sw.synthetic_pair(4000, 4000, 0.5, 8, seed=1)
    tensors = {"B": sw.reformat(b, kernel.formats["B"]),
               "C": sw.reformat(c, kernel.formats["C"])}
    _, plan, _ = prepare(kernel, sw.Policy.HASH, 4096)
    with peak_above() as span:
        out = sw.execute(plan, tensors).tensor
    stored = out.vals.nbytes + sum(lv.pos.nbytes + lv.crd.nbytes for lv in out.levels[1:])
    assert span.peak <= 1.40 * stored


def test_a_hoisted_row_wise_execution_peaks_near_its_result():
    # the benchmark's hoisted-rows operands: 1 500 engine runs into 81 864
    # entries, whose CSR result takes 0.99 MB; the execution peaks at 1.24
    # times that: the workspace's block, with at most a sixteenth of
    # headroom, one leaf batch of at most an engine block of iterations and
    # its plan (1.34 with leaf batches of a whole chunk and an engine call
    # per row, 1.53 with every column and whole gathered operands kept to
    # the insert's end and a quarter of headroom)
    kernel = KERNELS_BY_NAME["spgemm-rowwise-hoist"]
    rng = np.random.default_rng([1, 1])
    arrays = {t: sparse_array(rng, (1500, 1500), 0.005) for t in ("B", "C")}
    tensors = {t: sw.from_dense(a, kernel.formats[t]) for t, a in arrays.items()}
    _, plan, _ = prepare(kernel)
    with peak_above() as span:
        out = sw.execute(plan, tensors).tensor
    stored = out.vals.nbytes + sum(lv.pos.nbytes + lv.crd.nbytes for lv in out.levels[1:])
    assert out.nnz == 81_864 and span.peak <= 1.27 * stored


def test_a_block_grows_with_at_most_a_sixteenth_of_headroom():
    # many small appends: a buffer of the block's own grows by at least a
    # sixteenth, so appends stay amortised O(1), and never holds more than
    # a sixteenth of its entries beyond them
    rng = np.random.default_rng(5)
    block = lowering._Block(2)
    resizes = [0] * 4
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        before = [len(c) for c in block.columns] or [0] * 4
        block.extend([np.zeros(1, CRD_DTYPE)], np.array([n]), [np.zeros(n, CRD_DTYPE)],
                     np.ones(n))
        for i, (col, size) in enumerate(zip(block.columns, block.sizes)):
            assert len(col) <= size + size // 16
            resizes[i] += len(col) != before[i]
    assert block.sizes[:2] == [2000, 2000] and block.sizes[2] == block.sizes[3] > 50_000
    # a buffer grows to at least len + len // 16, so it resizes no more
    # often than that sequence from one entry steps: 105 times to 2 000
    # entries, 161 to 60 000
    assert resizes[0] == resizes[1] <= 105 and resizes[2] == resizes[3] <= 161


# -- releasing a batch's columns ---------------------------------------------------------

# statements that read an operand twice, sum products or take a constant,
# with the formats they run under; "later-statement" runs both of its terms
# in one loop body, so the first statement's positions are read again
RELEASE_CASES = {
    "read-twice": ("A(i,j) = B(i,j) * B(i,j)", {"A": sw.csr(), "B": sw.csr()}),
    "read-around": ("A(i,j) = B(i,j) * C(i,j) * B(i,j)",
                    {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)}),
    "sum-of-products": ("A(i,j) = B(i,k) * C(k,j) + D(i,k) * E(k,j)",
                        {"A": sw.csr(), "B": sw.csr(), "C": sw.csr(), "D": sw.csr(),
                         "E": sw.csr()}),
    "dense-sum-of-products": ("A(i,j) = B(i,k) * C(k,j) + D(i,k) * E(k,j)",
                              {"A": sw.dense(2), "B": sw.csr(), "C": sw.csr(),
                               "D": sw.csr(), "E": sw.csr()}),
    "constant-factor": ("A(i,j) = 2 * B(i,j) * C(i,j)",
                        {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)}),
    "constant-term": ("A(i,j) = B(i,j) + 2", {"A": sw.csr(), "B": sw.csr()}),
    "later-statement": ("A(i,j) = B(i,j) * C(i,j) + C(i,j) * B(i,j)",
                        {"A": sw.dense(2), "B": sw.csr(), "C": sw.dense(2)}),
}

# first 16 hex digits of the sha256 of each result's storage on real values,
# by case and extent, as first computed with whole gathered columns
RELEASE_DIGESTS = {
    ("read-twice", 120): "0ab29b5baf1cfd1b",
    ("read-around", 120): "e4176bbcd9ce99db",
    ("sum-of-products", 120): "a62f443c49bcec53",
    ("dense-sum-of-products", 120): "fe65caff7f374b6e",
    ("constant-factor", 120): "22b1a7ae27bf6fcc",
    ("constant-term", 120): "760105b7cbbd195a",
    ("later-statement", 120): "e69de43ce4481d03",
    ("read-twice", 12): "cdbb4f84f323ad8d",
    ("read-around", 12): "23248b10d20beabc",
    ("sum-of-products", 12): "61ab5d5b0bb8c3e0",
    ("dense-sum-of-products", 12): "31f6598cdb2c4072",
    ("constant-factor", 12): "af8ca958dc791797",
    ("constant-term", 12): "c6ad3fcbfcf391e5",
    ("later-statement", 12): "944494639fa44f75",
}


def _release_plan(name: str) -> sw.Plan:
    text, formats = RELEASE_CASES[name]
    plan = _lower(text, formats)
    if name == "later-statement":
        # every pass's statement joins the first pass's innermost loop body
        # and reads its accesses through that pass's positions
        first, *rest = plan.body
        inner = _loops(replace(plan, body=[first]))[-1]
        for chain in rest:
            (stmt,) = _loops(replace(plan, body=[chain]))[-1].body
            inner.body.append(replace(stmt, amap=inner.body[0].amap))
        plan.body = [first]
    return plan


def _release_operands(name: str, n: int, real: bool) -> dict[str, np.ndarray]:
    """Operands of extent ``n`` in every mode: small integers, or real
    values on the same kind of pattern."""
    text, formats = RELEASE_CASES[name]
    rng = np.random.default_rng([n, real])
    arrays: dict[str, np.ndarray] = {}
    for acc in expr_accesses(nest_assign(sw.statement_from_text(text)).rhs):
        shape = (n,) * len(acc.vars)
        if acc.tensor not in arrays:
            a = (dense_array(rng, shape) if formats[acc.tensor].all_dense()
                 else sparse_array(rng, shape, 0.3))
            arrays[acc.tensor] = np.where(a != 0, rng.random(shape), 0.0) if real else a
    return arrays


def _storage_digest(t: sw.Tensor) -> str:
    h = hashlib.sha256()
    for lvl in t.levels:
        h.update(lvl.pos.tobytes() + lvl.crd.tobytes()
                 if isinstance(lvl, CompressedLevel) else b"dense")
    h.update(t.vals.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("small", [False, True], ids=["chunks", "small-chunks"])
@pytest.mark.parametrize("name", list(RELEASE_CASES))
def test_released_columns_leave_every_value_as_it_was(name, small, monkeypatch):
    # a statement releases each position column at its last read, unless a
    # later read or a later node needs it, and a product gathers its right
    # operand a slice at a time: on small integers the result equals the
    # oracle, and on real values its bytes are those of whole-column
    # evaluation; small chunks and slices put their edges everywhere
    n = 12 if small else 120
    if small:
        monkeypatch.setattr(lowering, "_CHUNK", 5)
        monkeypatch.setattr(lowering, "_OUTER_CHUNK", 3)
        monkeypatch.setattr(lowering, "_SLICE", 3)
    text, formats = RELEASE_CASES[name]
    plan = _release_plan(name)
    for real in (False, True):
        arrays = _release_operands(name, n, real)
        tensors = {t: sw.from_dense(a, formats[t]) for t, a in arrays.items()}
        out = sw.execute(plan, tensors).tensor
        if real:
            assert _storage_digest(out) == RELEASE_DIGESTS[name, n]
        else:
            want = sw.dense_oracle(sw.statement_from_text(text), arrays)
            assert np.array_equal(out.to_dense(), want)


@pytest.mark.parametrize("result", [sw.csr(), sw.dense(2)], ids=str)
def test_a_constant_valued_plan_returns_a_writable_result(result):
    # the constant's values enter as a read-only broadcast column; the
    # result owns writable storage all the same
    formats = {"A": result, "B": sw.csr()}
    stmt = sw.statement_from_text("A(i,j) = B(i,j) + 2")
    plan = sw.lower(sw.insert_sparse_workspace(stmt, formats)[0], formats)
    b = np.arange(12.0).reshape(3, 4)
    out = sw.execute(plan, {"B": sw.from_dense(b, sw.csr())}).tensor
    assert out.vals.flags.writeable
    assert np.array_equal(out.to_dense(), b + 2)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["row-major", "column-major"])
def test_dense_results_are_stored_in_level_order(order):
    # a row-major result array becomes the tensor's values; one stored
    # column-major is copied once into level order
    fmt = sw.Format((DENSE, DENSE), order)
    kernel = replace(KERNELS_BY_NAME["spgemm-inner"],
                     formats={**KERNELS_BY_NAME["spgemm-inner"].formats, "A": fmt})
    stmt, plan, _ = prepare(kernel)
    inst = kernel.instance(1)
    out = sw.execute(plan, inst.tensors).tensor
    want = sw.dense_oracle(stmt, inst.arrays)
    assert sw.tensors_equal(out, sw.from_dense(want, fmt))
    assert out.vals.flags.writeable and out.vals.flags.c_contiguous


# -- error paths -------------------------------------------------------------------------


def test_lowering_refuses_statements_that_need_a_workspace():
    stmt = sw.statement_from_text("forall i, k, j: " + MATMUL)
    with pytest.raises(LoweringError, match="needs a workspace before lowering"):
        sw.lower(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_coo_operands_cannot_be_iterated():
    with pytest.raises(LoweringError, match="coordinate form"):
        _lower("A(i, j) = B(i, j)", {"A": sw.dense(2), "B": sw.coo(2)})


def test_repeated_access_variables_are_rejected():
    with pytest.raises(LoweringError, match="repeats an index variable"):
        _lower("a(i) = B(i, i)", {"a": sw.dense_vector(), "B": sw.csr()})


def _producer_terms(plan: sw.Plan) -> list[str]:
    """The expression of each producer pass, in plan order."""
    return [format_expr(n.expr) for loop in _loops(plan) for n in loop.body
            if isinstance(n, (InsertWs, ScatterDense))]


def test_a_product_distributes_over_a_sum_that_holds_a_sparse_operand():
    # each term of the distributed product runs as a pass of its own
    stmt = sw.statement_from_text("A(i, j) = B(i, j) * (C(i, j) + D(i, j))")
    formats = {"A": sw.dense(2), "B": sw.dense(2), "C": sw.csr(), "D": sw.dense(2)}
    plan = sw.lower(stmt, formats)
    assert _producer_terms(plan) == ["B(i,j) * C(i,j)", "B(i,j) * D(i,j)"]
    assert len(plan.body) == 2
    rng = np.random.default_rng(8)
    arrays = {"B": dense_array(rng, (5, 6)), "C": sparse_array(rng, (5, 6), 0.4),
              "D": dense_array(rng, (5, 6))}
    out = sw.execute(plan, {n: sw.from_dense(a, formats[n]) for n, a in arrays.items()})
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, arrays))


def test_a_conversion_workspace_takes_one_pass_per_distributed_term():
    # a sparse result sends the statement through a conversion workspace;
    # its producer distributes the product and inserts each term in turn
    stmt = sw.statement_from_text("A(i, j) = B(i, j) * (D(i, j) + C(i, j))")
    formats = {"A": sw.csr(), "B": sw.dense(2), "C": sw.csr(), "D": sw.dense(2)}
    rewritten, decision = sw.insert_sparse_workspace(stmt, formats)
    assert decision.action is sw.InsertionAction.CONVERSION
    plan = sw.lower(rewritten, formats)
    assert _producer_terms(plan) == ["B(i,j) * D(i,j)", "B(i,j) * C(i,j)"]
    assert [type(n) for n in plan.body] == [AllocWs, LoopNode, LoopNode, DrainWs]
    rng = np.random.default_rng(9)
    arrays = {"B": dense_array(rng, (5, 6)), "C": sparse_array(rng, (5, 6), 0.4),
              "D": sparse_array(rng, (5, 6), 0.4)}
    out = sw.execute(plan, {n: sw.from_dense(a, formats[n]) for n, a in arrays.items()})
    assert out.tensor.format == sw.csr()
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, arrays))


def test_distributed_terms_loop_over_the_variables_of_their_product():
    # D(i,j) * C(i,j) lacks k, and the product adds it once per value of k
    stmt = sw.statement_from_text("A(i, j) = D(i, j) * (B(i, k) + C(i, j))")
    formats = {"A": sw.dense(2), "B": sw.csr(), "C": sw.csr(), "D": sw.dense(2)}
    plan = sw.lower(stmt, formats)
    assert _producer_terms(plan) == ["D(i,j) * B(i,k)", "D(i,j) * C(i,j)"]
    assert [[l.var.name for l in _loops(replace(plan, body=[root]))]
            for root in plan.body] == [["i", "j", "k"]] * 2
    rng = np.random.default_rng(10)
    arrays = {"B": sparse_array(rng, (5, 4), 0.5), "C": sparse_array(rng, (5, 6), 0.5),
              "D": dense_array(rng, (5, 6))}
    out = sw.execute(plan, {n: sw.from_dense(a, formats[n]) for n, a in arrays.items()})
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, arrays))


def test_a_product_over_a_sum_of_dense_operands_stays_one_pass():
    plan = _lower("a(i) = B(i, j) * (c(j) + d(j))",
                  {"a": sw.dense_vector(), "B": sw.csr(), "c": sw.dense_vector(),
                   "d": sw.dense_vector()})
    assert _producer_terms(plan) == ["B(i,j) * (c(j) + d(j))"]


def test_a_fixed_workspace_extent_must_equal_the_bound_one():
    kernel = KERNELS_BY_NAME["spgemm-rowwise-hoist"]
    inst = kernel.instance(1)
    rewritten, _ = sw.insert_sparse_workspace(kernel.statement(), kernel.formats,
                                              **kernel.insert_kw)
    n = inst.tensors["C"].dims[1]
    fixed = sw.lower(_with_descriptor(rewritten, dims=(n,)), kernel.formats)
    assert f"dims={{{n}}}" in sw.print_plan(fixed)
    got, want = sw.execute(fixed, inst.tensors), sw.execute(prepare(kernel)[1], inst.tensors)
    assert sw.tensors_equal(got.tensor, want.tensor) and got.counters == want.counters
    wrong = sw.lower(_with_descriptor(rewritten, dims=(5,)), kernel.formats)
    assert "dims={5}" in sw.print_plan(wrong)
    with pytest.raises(LoweringError, match=f"workspace W fixes the extent of j at 5, "
                                            f"but the tensors bind it to {n}"):
        sw.execute(wrong, inst.tensors)


def test_a_nested_workspace_extent_must_equal_the_bound_one():
    plan = _materializing_plan()
    (inner,) = plan.workspaces[0].subplan.workspaces
    inner.descriptor = replace(inner.descriptor, dims=(3,))
    _, _, tensors = _matmul_operands(3)
    with pytest.raises(LoweringError, match="workspace W' fixes the extent of j at 3, "
                                            "but the tensors bind it to 7"):
        sw.execute(plan, tensors)


def test_execute_validates_bindings():
    kernel = KERNELS_BY_NAME["elementwise"]
    _, plan, _ = prepare(kernel)
    inst = kernel.instance(0)
    missing = dict(inst.tensors)
    del missing["C"]
    with pytest.raises(LoweringError, match="no tensor bound for operand C"):
        sw.execute(plan, missing)

    wrong = dict(inst.tensors)
    wrong["B"] = sw.reformat(wrong["B"], sw.csc())
    with pytest.raises(LoweringError, match="stored as"):
        sw.execute(plan, wrong)

    mismatched = dict(inst.tensors)
    shape = inst.arrays["C"].shape
    mismatched["C"] = sw.from_dense(np.ones((shape[0] + 1, shape[1])), sw.dense(2))
    with pytest.raises(LoweringError, match="dimension mismatch"):
        sw.execute(plan, mismatched)


def test_top_level_dense_workspace_is_rejected():
    stmt = sw.statement_from_text(MATMUL)
    rhs = sw.nest_assign(stmt).rhs
    desc = sw.WorkspaceDescriptor(order=2, dims=("I", "J"), policy=sw.Policy.COORD,
                                  capacity=16, ow_order=(0, 1), kind="dense")
    rewritten = sw.precompute(stmt, rhs, ("i", "j"), None, desc)
    with pytest.raises(LoweringError, match="only applies under a loop prefix"):
        sw.lower(rewritten, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def _hoisted_where(consumer_rhs: sw.Expr, producer_rhs: sw.Expr,
                   kind: str = "sparse") -> sw.Statement:
    desc = sw.WorkspaceDescriptor(order=1, dims=("J",), policy=sw.Policy.COORD,
                                  capacity=16, ow_order=(0,), kind=kind)
    producer = build_nest([var("k"), var("j")],
                          sw.Assign(sw.Access("W", (var("j"),)), producer_rhs, True))
    consumer = build_nest([var("j")],
                          sw.Assign(sw.Access("A", (var("i"), var("j"))),
                                    consumer_rhs, False))
    return sw.Forall(var("i"), sw.Where(consumer, producer, "W", desc))


def test_unknown_workspace_kind_is_rejected():
    product = sw.Mul(sw.Access("B", (var("i"), var("k"))),
                     sw.Access("C", (var("k"), var("j"))))
    stmt = _hoisted_where(sw.Access("W", (var("j"),)), product, kind="bitmap")
    with pytest.raises(LoweringError, match="unknown workspace kind 'bitmap'"):
        sw.lower(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_dense_workspace_covers_one_dimension():
    product = sw.Mul(sw.Access("B", (var("i"), var("k"))),
                     sw.Access("C", (var("k"), var("j"))))
    stmt = _hoisted_where(sw.Access("W", (var("j"),)), product, kind="dense")
    wide = replace(stmt.body.descriptor, order=2, dims=("J", "K"), ow_order=(0, 1))
    stmt = replace(stmt, body=replace(stmt.body, descriptor=wide))
    with pytest.raises(LoweringError, match="covers exactly one dimension"):
        sw.lower(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_hoisted_workspace_must_copy_straight_into_the_result():
    product = sw.Mul(sw.Access("B", (var("i"), var("k"))),
                     sw.Access("C", (var("k"), var("j"))))
    stmt = _hoisted_where(sw.Mul(sw.Access("W", (var("j"),)), sw.Const(2.0)), product)
    with pytest.raises(LoweringError, match="direct copy"):
        sw.lower(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_hoisted_workspace_covers_a_single_term():
    # the prefix variable i is bound outside the producer, so its terms
    # range over the same reduction variable, k, whether they read i or not
    term = sw.Mul(sw.Access("B", (var("i"), var("k"))),
                  sw.Access("C", (var("k"), var("j"))))
    for other in (term, sw.Access("C", (var("k"), var("j")))):
        stmt = _hoisted_where(sw.Access("W", (var("j"),)), sw.Add(term, other))
        with pytest.raises(LoweringError, match="single product term"):
            sw.lower(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_hoisted_workspace_rejects_schedules():
    rewritten, _ = sw.insert_sparse_workspace(
        sw.statement_from_text("forall i, k, j: " + MATMUL),
        {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
    )
    scheduled = replace(rewritten.body, relations=(sw.Reorder((var("k"),)),))
    with pytest.raises(LoweringError, match="cannot be scheduled"):
        sw.lower(sw.Forall(var("i"), scheduled),
                 {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def test_reduction_outermost_takes_a_full_workspace():
    # with k outermost no loop prefix can host a dense workspace over j
    stmt = sw.statement_from_text("forall k, j: a(j) += B(k,j)")
    formats = {"a": sw.sparse_vector(), "B": sw.csr()}
    rewritten, decision = sw.insert_sparse_workspace(stmt, formats)
    assert decision.action is sw.InsertionAction.FULL
    plan = sw.lower(rewritten, formats)
    rng = np.random.default_rng(4)
    for _ in range(5):
        b = ((rng.random((6, 9)) < 0.4) * rng.integers(-3, 4, (6, 9))).astype(np.float64)
        out = sw.execute(plan, {"B": sw.from_dense(b, sw.csr())})
        assert out.tensor.format == sw.sparse_vector()
        assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, {"B": b}))


# -- what a sparse result without a workspace can be ------------------------------------

# two- and three-operand statements; a lower-case operand is a vector
_DRAWN = [
    "A(i,j) = B(i,j) * C(i,j)",
    "A(i,j) = B(i,k) * C(k,j)",
    "A(i,j) = B(i,j) + C(i,j)",
    "a(i) = B(i,k) * c(k)",
    "A(i,j) = B(i,k) * C(k,j) * D(i,j)",
    "A(i,j) = B(i,j) * (C(i,j) + D(i,j))",
    "A(i,j) = B(i,j) * C(i,j) + D(i,j)",
    "A(i,j) = B(i,k) * C(i,k) * D(k,j)",
    "A(i,j) = B(i,j) * C(i,j) * D(i,j)",
    "A(i,j) = B(i,k) * (C(k,j) + D(k,j))",
    "a(i) = B(i,j) * (c(j) + d(j))",
]


def _draw_statement(data, results: tuple[list, list], operands: tuple[list, list]):
    """A drawn statement of _DRAWN under a drawn loop order, with a drawn
    format for the result and for each operand: a matrix's from the first
    list of the pair, a vector's from the second."""
    text = data.draw(st.sampled_from(_DRAWN))
    lhs, rhs = sw.parse_einsum(text)
    order = data.draw(st.permutations(default_loop_order(lhs, rhs)))
    formats = {}
    for acc, choices in [(lhs, results), *((a, operands) for a in expr_accesses(rhs))]:
        formats[acc.tensor] = data.draw(st.sampled_from(choices[len(acc.vars) == 1]))
    return sw.statement_from_text(text, order), formats


def _run_drawn(stmt: sw.Statement, formats: dict[str, sw.Format], plan: sw.Plan,
               seed: int) -> None:
    """Execute the plan on small-integer operands of drawn extents and
    require the dense oracle's result."""
    assign = nest_assign(stmt)
    rng = np.random.default_rng(seed)
    extents = {v: int(rng.integers(1, 6)) for v in default_loop_order(assign.lhs, assign.rhs)}
    arrays = {a.tensor: sparse_array(rng, tuple(extents[v] for v in a.vars), 0.5)
              for a in expr_accesses(assign.rhs)}
    tensors = {n: sw.from_dense(a, formats[n]) for n, a in arrays.items()}
    out = sw.execute(plan, tensors).tensor
    assert out.format == formats[assign.lhs.tensor]
    assert np.array_equal(out.to_dense(), sw.dense_oracle(stmt, arrays))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_sparse_result_needs_no_workspace_only_where_lowering_can_append(data):
    # plan_insertion's NONE verdict for a sparse result implies what lowering
    # relies on without checking: one term, no sparse operand under an
    # addition, and every reduction loop inside the result loops
    stmt, formats = _draw_statement(
        data, ([sw.csr(), sw.dcsr()], [sw.sparse_vector()]),
        ([sw.dense(2), sw.csr(), sw.dcsr()], [sw.dense_vector(), sw.sparse_vector()]))
    assign = nest_assign(stmt)
    decision = sw.plan_insertion(stmt, formats)
    if decision.action is not sw.InsertionAction.NONE:
        return
    cls = decision.classification
    assert not isinstance(assign.rhs, sw.Add)
    assert sparse_union_operand(assign.rhs, formats) is None
    at = {v: n for n, v in enumerate(cls.loop_order)}
    assert all(at[r] > at[v] for r in cls.reduction_vars for v in assign.lhs.vars)
    plan = sw.lower(stmt, formats)
    appends = [n for loop in _loops(plan) for n in loop.body if isinstance(n, Append)]
    assert len(appends) == 1
    assert appends[0].expr == (None if cls.reduction_vars else assign.rhs)
    _run_drawn(stmt, formats, plan, data.draw(st.integers(0, 2**32 - 1)))


_ANY_FORMAT = ([sw.dense(2), sw.csr(), sw.dcsr(), sw.csc()],
               [sw.dense_vector(), sw.sparse_vector()])


@pytest.mark.parametrize("enable_dense", [True, False])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_planned_statement_lowers_and_equals_the_oracle(enable_dense, data):
    # whatever plan_insertion decides, lowering builds the plan and the plan
    # computes the statement: CSC operands and results included
    stmt, formats = _draw_statement(data, _ANY_FORMAT, _ANY_FORMAT)
    rewritten, _ = sw.insert_sparse_workspace(stmt, formats, enable_dense=enable_dense)
    plan = sw.lower(rewritten, formats)
    _run_drawn(stmt, formats, plan, data.draw(st.integers(0, 2**32 - 1)))


# a drawn statement for every verdict, each an intersection of three levels or
# a product over a sparse sum: (verdict, enable_dense, text, result, operands)
_VERDICTS = [
    ("NONE", True, "forall i, j: A(i,j) = B(i,j) * C(i,j) * D(i,j)",
     sw.dense(2), [sw.dcsr()] * 3),
    ("CONVERSION", True, "forall i, j: A(i,j) = B(i,j) * (C(i,j) + D(i,j))",
     sw.csr(), [sw.csr()] * 3),
    ("FULL", False, "forall i, j: A(i,j) = B(i,j) * C(i,j) * D(i,j)",
     sw.csc(), [sw.dcsr()] * 3),
    ("FULL", True, "forall i, k, j: A(i,j) = B(i,k) * (C(k,j) + D(k,j))",
     sw.csr(), [sw.csr()] * 3),
    ("DENSE", True, "forall i, k, j: A(i,j) = B(i,k) * C(i,k) * D(k,j)",
     sw.csr(), [sw.csr(), sw.csr(), sw.dcsr()]),
    ("HOIST", False, "forall i, k, j: A(i,j) = B(i,k) * C(i,k) * D(k,j)",
     sw.csr(), [sw.csr(), sw.csr(), sw.dcsr()]),
]


@pytest.mark.parametrize("verdict, enable_dense, text, result, operands", _VERDICTS,
                         ids=[f"{v}-{e}" for v, e, *_ in _VERDICTS])
def test_each_verdict_lowers_what_it_plans(verdict, enable_dense, text, result, operands):
    stmt = sw.statement_from_text(text)
    formats = {"A": result, **dict(zip("BCD", operands))}
    rewritten, decision = sw.insert_sparse_workspace(stmt, formats, enable_dense=enable_dense)
    assert decision.action.name == verdict
    plan = sw.lower(rewritten, formats)
    for seed in range(5):
        _run_drawn(stmt, formats, plan, seed)


# -- sums over reduction variables -------------------------------------------------------

_SUM_EXTENTS = {"i": 7, "j": 6, "k": 5}


def _sum_configs(texts, kinds):
    """Each statement with a dense result, which needs no workspace, and with
    row- and column-major compressed ones on each of the given workspace
    kinds."""
    out = []
    for text in texts:
        vector = text.startswith("a(")
        for fmt in ([sw.dense_vector(), sw.sparse_vector()] if vector
                    else [sw.dense(2), sw.csr(), sw.csc()]):
            out += [(text, fmt, kind) for kind in ([None] if fmt.all_dense() else kinds)]
    return out


def _run_sum(text: str, result_fmt: sw.Format, kind: str | None, seed: int,
             direct: bool = False):
    """Execute a statement on small-integer operands (CSR matrices, dense
    and sparse vectors) on the workspace kind given; returns the result as
    a dense array and the oracle's. A ``direct`` statement is a forall nest
    built around an accumulating ``Assign``, without ``from_einsum``."""
    if direct:
        lhs, rhs = sw.parse_einsum(text)
        order = dict.fromkeys([*lhs.vars, *(v for a in expr_accesses(rhs) for v in a.vars)])
        stmt = build_nest(list(order), sw.Assign(lhs, rhs, True))
    else:
        stmt = sw.statement_from_text(text)
    assign = nest_assign(stmt)
    rng = np.random.default_rng(seed)
    vector = iter([sw.dense_vector(), sw.sparse_vector()] * 2)
    formats, arrays = {assign.lhs.tensor: result_fmt}, {}
    for acc in expr_accesses(assign.rhs):
        shape = tuple(_SUM_EXTENTS[v.name] for v in acc.vars)
        arrays[acc.tensor] = sparse_array(rng, shape, 0.4)
        formats[acc.tensor] = sw.csr() if len(shape) == 2 else next(vector)
    rewritten, decision = sw.insert_sparse_workspace(stmt, formats)
    assert (decision.action is sw.InsertionAction.NONE) == (kind is None)
    if kind is not None:
        rewritten = _with_descriptor(rewritten, kind=kind)
    plan = sw.lower(rewritten, formats)
    tensors = {name: sw.from_dense(a, formats[name]) for name, a in arrays.items()}
    out = sw.execute(plan, tensors).tensor
    assert out.format == result_fmt
    return out.to_dense(), sw.dense_oracle(stmt, arrays)


@pytest.mark.parametrize("text, result_fmt, kind", _sum_configs([
    "A(i,j) = B(i,k) * C(k,j) + D(i,j)",
    "a(i) = B(i,k) * c(k) + d(i)",
    "A(i,j) = B(i,j) + C(i,k)",
    "A(i,j) = B(i,k) * C(k,j) + 2",
], ["sparse", "dense"]), ids=lambda p: str(p).replace(" ", ""))
def test_sums_over_different_reduction_variables_are_refused(text, result_fmt, kind):
    # the statement adds a term once per value of a reduction variable it
    # lacks, and lowering would add it once; from_einsum refuses the sum,
    # and lower refuses a statement built without it
    for direct in (False, True):
        with pytest.raises(sw.IrError, match="same reduction variables"):
            _run_sum(text, result_fmt, kind, seed=0, direct=direct)


@pytest.mark.parametrize("text, result_fmt, kind", _sum_configs([
    "A(i,j) = B(i,k) * C(k,j) + B(i,k) * D(k,j)",
    "A(i,j) = B(i,j) + C(i,j) + 2",
    "a(i) = B(i,k) * c(k) + B(i,k) * d(k)",
], ["sparse"]), ids=lambda p: str(p).replace(" ", ""))
def test_sums_over_the_same_reduction_variables_match_the_oracle(text, result_fmt, kind):
    # additions do not hoist, and a dense workspace needs a loop prefix
    for seed in range(3):
        got, want = _run_sum(text, result_fmt, kind, seed)
        assert np.array_equal(got, want), seed
