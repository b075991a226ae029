"""Lowering to loop plans, plan printing, and plan execution."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import spworks as sw
import spworks.ism as ism
import spworks.lowering as lowering
from spworks.ir import build_nest, expr_accesses, format_expr, nest_assign, var
from spworks.lowering import (
    AccumReg,
    AllocWs,
    AppendCompute,
    AppendRow,
    DenseRange,
    DrainWs,
    InsertWs,
    Intersect,
    LevelIter,
    LoopNode,
    LoweringError,
    MaterializeWs,
    ScatterDense,
    SetReg,
)
from spworks.tensor import CRD_DTYPE, DENSE

from conftest import (
    KERNELS,
    KERNELS_BY_NAME,
    Kernel,
    _dim,
    dense_array,
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
# AppendRow), a binary-search probe (Locate), and one dense pass per term
REGISTER = Kernel("register", "a(i) = B(i, k) * c(k)", None,
                  {"a": sw.sparse_vector(), "B": sw.dcsr(), "c": sw.dense_vector()},
                  sw.InsertionAction.NONE, _register_arrays)
LOCATE = Kernel("locate", "A(i, j) = B(i, j) * C(i, j)", None,
                {"A": sw.dense(2), "B": sw.dcsr(), "C": sw.csc()},
                sw.InsertionAction.NONE, _locate_arrays)
THREE_TERMS = Kernel("three-terms", "A(i, j) = B(i, j) + C(i, j) + D(i, j)", None,
                     {"A": sw.dense(2), "B": sw.csr(), "C": sw.dense(2), "D": sw.csr()},
                     sw.InsertionAction.NONE, _three_term_arrays)


def _lower(expr: str, formats: dict[str, sw.Format], schedule: str | None = None,
           **insert_kw) -> sw.Plan:
    stmt = sw.statement_from_text(expr)
    if schedule:
        stmt = sw.apply_schedule(stmt, schedule)
    rewritten, _ = sw.insert_sparse_workspace(stmt, formats, **insert_kw)
    return sw.lower(rewritten, formats)


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


def test_two_compressed_operands_intersect():
    plan = _lower("A(i, j) = B(i, j) * C(i, j)",
                  {"A": sw.dense(2), "B": sw.dcsr(), "C": sw.dcsr()})
    loops = _loops(plan)
    assert isinstance(loops[0].driver, Intersect)
    assert isinstance(loops[1].driver, Intersect)


def test_three_compressed_operands_are_rejected():
    with pytest.raises(LoweringError, match="more than two compressed operands"):
        _lower("A(i, j) = B(i, j) * C(i, j) * D(i, j)",
               {"A": sw.dense(2), "B": sw.dcsr(), "C": sw.dcsr(), "D": sw.dcsr()})


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
    assert isinstance(outer.body[-1], AppendRow)


def test_fully_concordant_sparse_result_appends_computed_values():
    plan = _lower("A(i, j) = B(i, j) * C(i, j)",
                  {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)})
    loops = _loops(plan)
    assert isinstance(loops[-1].body[-1], AppendCompute)


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


def _materializing_plan() -> sw.Plan:
    """B(i,k) precomputed into a workspace that a row-wise product consumes."""
    stmt = sw.statement_from_text("forall i, k, j: " + MATMUL)
    rhs_b = sw.Access("B", (var("i"), var("k")))
    desc = sw.WorkspaceDescriptor(order=2, dims=("I", "K"), policy=sw.Policy.COORD,
                                  capacity=64, ow_order=(0, 1))
    rewritten = sw.precompute(stmt, rhs_b, ("i", "k"), None, desc,
                              consumer_order=("i", "k", "j"))
    return sw.lower(rewritten, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


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
    # the size of every engine run's result, in run order
    runs: list[int] = []
    result = sw.IsmEngine.result

    def counting_result(engine):
        coords, vals = result(engine)
        runs.append(len(vals))
        return coords, vals

    monkeypatch.setattr(sw.IsmEngine, "result", counting_result)
    chosen = [inst for inst in small_corpus
              if inst.kernel.name in ("spgemm-outer", "mttkrp") and inst.index < 2]
    assert chosen
    for inst in chosen:
        _, plan, _ = prepare(inst.kernel, capacity=64)
        base = sw.execute(plan, inst.tensors)
        # capacity N, the sort-once extreme: every engine run that inserts
        # anything drains once, at its end
        _, sort_once, _ = prepare(inst.kernel, capacity=base.counters.inserts)
        runs.clear()
        once = sw.execute(sort_once, inst.tensors)
        assert sw.tensors_equal(base.tensor, once.tensor)
        assert once.counters.inserts == base.counters.inserts
        assert once.counters.drains == sum(1 for n in runs if n) > 0


@pytest.mark.parametrize("kernel", [REGISTER, LOCATE, THREE_TERMS], ids=lambda k: k.name)
def test_extra_plans_match_the_dense_oracle(kernel):
    stmt, plan, decision = prepare(kernel)
    assert decision.action is sw.InsertionAction.NONE
    for index in range(6):
        inst = kernel.instance(index)
        out = sw.execute(plan, inst.tensors)
        expected = sw.dense_oracle(stmt, inst.arrays)
        assert np.array_equal(out.tensor.to_dense(), expected), index


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
    assert isinstance(_loops(plan)[0].driver, Intersect)
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
    # host batches of two rows: each batch's drain appends one block to
    # the collector, a prefix coordinate and an entry count per host row and
    # only the workspace's own coordinates and the values per entry, and
    # compression gets the prefix levels once per host row
    monkeypatch.setattr(lowering, "_OUTER_CHUNK", 2)
    kernel = KERNELS_BY_NAME[name]
    stmt, plan, _ = prepare(kernel)
    (meta,) = plan.workspaces
    batches: list[int] = []
    blocks: list[tuple] = []
    compressed: list[tuple] = []
    start, extend = meta.impl.start, lowering._Collector.extend
    compress = lowering.compress_segments

    def tracked_start(self, n):
        batches.append(n)
        start(self, n)

    def tracked_extend(self, prefix, counts, tail, vals):
        blocks.append(([len(p) for p in prefix], len(counts), [len(c) for c in tail],
                       len(vals), int(counts.sum())))
        extend(self, prefix, counts, tail, vals)

    def tracked_compress(prefix, counts, tail, vals, *args):
        compressed.append(([len(p) for p in prefix], len(counts), len(vals)))
        return compress(prefix, counts, tail, vals, *args)

    monkeypatch.setattr(meta.impl, "start", tracked_start)
    monkeypatch.setattr(lowering._Collector, "extend", tracked_extend)
    monkeypatch.setattr(lowering, "compress_segments", tracked_compress)
    inst = kernel.instance(1)
    out = sw.execute(plan, inst.tensors)
    assert np.array_equal(out.tensor.to_dense(), sw.dense_oracle(stmt, inst.arrays))
    levels, slots = out.tensor.order, len(meta.slot_vars)
    assert len(batches) >= 3 and len(blocks) == len(batches)
    for n, (prefix, segments, tail, entries, counted) in zip(batches, blocks):
        assert prefix == [n] * (levels - slots) and segments == n
        assert tail == [entries] * slots and counted == entries
    # a batch without entries leaves nothing to collect
    rows = sum(n for n, block in zip(batches, blocks) if block[3])
    assert compressed == [([rows] * (levels - slots), rows, out.tensor.nnz)]
    assert rows < out.tensor.nnz


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-rowwise"])
def test_segment_compression_expands_no_prefix_column(name):
    # a prefix coordinate expanded to one per entry would take 4 B more per
    # entry; compression's scratch is the order check's three bools per
    # entry and a few arrays per host row (3.8 B per entry measured)
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


def _with_kind(stmt: sw.Statement, kind: str) -> sw.Statement:
    if isinstance(stmt, sw.Where):
        return replace(stmt, descriptor=replace(stmt.descriptor, kind=kind))
    return replace(stmt, body=_with_kind(stmt.body, kind))


@pytest.mark.parametrize("name", ["spgemm-rowwise-hoist", "spgemm-outer"])
def test_a_registered_workspace_kind_runs_without_lowering_edits(name, small_corpus,
                                                                 monkeypatch):
    monkeypatch.setitem(lowering.WORKSPACE_KINDS, "dict", DictWorkspace)
    kernel = KERNELS_BY_NAME[name]
    stmt = kernel.statement()
    rewritten, _ = sw.insert_sparse_workspace(stmt, kernel.formats, **kernel.insert_kw)
    plan = sw.lower(_with_kind(rewritten, "dict"), kernel.formats)
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


def _scaled_operands(name: str, scale: int) -> dict[str, sw.Tensor]:
    """Operands under which every loop but a two-row outer one expands to
    2 * _CHUNK * scale iterations or more, while the result stays 2 x 2 (2
    for the register plan); every value is 1."""
    kernel = REGISTER if name == "register" else KERNELS_BY_NAME[name]
    n = (2 if name == "spgemm-outer" else 1) * lowering._CHUNK * scale
    arrays = {"B": np.ones((2, n))}
    arrays.update({"c": np.ones(n)} if name == "register" else {"C": np.ones((n, 2))})
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


@pytest.mark.parametrize("name, bound", [("spgemm-rowwise-hoist", 31), ("spgemm-rowwise", 21)])
def test_scratch_beyond_the_result_on_scaled_operands(name, bound):
    # bounds in bytes per leaf chunk iteration, from measurement (30.3 for
    # the sparse workspace, 20.2 for the dense one): a leaf chunk's columns
    # and the workspace's pairs; the dense workspace keeps the open row's
    # cells in arrays of their own, not in views of its last merge
    _, plan, _ = prepare(KERNELS_BY_NAME[name])
    scratch, _ = _execute_scratch(plan, _scaled_operands(name, 4))
    assert scratch <= bound * lowering._CHUNK


@pytest.mark.parametrize("name, bound", [("spgemm-rowwise-hoist", 21), ("spgemm-rowwise", 20.5)])
def test_scratch_beyond_a_large_result_per_entry(name, bound):
    # bounds in bytes per result entry, from measurement (20.1 sparse, 19.7
    # dense): the growing block and a leaf chunk; no entry carries its host
    # row's coordinates
    kernel = KERNELS_BY_NAME[name]
    b, c = sw.synthetic_pair(1500, 1500, 0.5, 8, seed=1)
    tensors = {"B": sw.reformat(b, kernel.formats["B"]),
               "C": sw.reformat(c, kernel.formats["C"])}
    _, plan, _ = prepare(kernel)
    scratch, out = _execute_scratch(plan, tensors)
    assert scratch <= bound * out.nnz


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
    # peak; coord's plan is little more than the two blocks, and its peak is
    # set elsewhere. The compaction's scratch is the sort order and a mask
    # over the log; compression takes the compacted sums over and holds only
    # its order check's three bools per entry (3.0 B measured)
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
        assert fill.peak - fill.entry <= 10.5 * planned
        assert probe.peak > max(span.peak for span in probe.spans.values())
        assert probe.peak <= 29 * nnz
    else:
        assert fill.peak - fill.entry <= 104 * planned
        assert probe.peak == fill.peak <= 36 * nnz
    assert compact.calls == 1 and compact.peak - compact.entry <= 12.5 * nnz
    assert compress.calls == 1 and compress.peak - compress.entry <= 3.1 * nnz


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


def test_sparse_operand_under_an_addition_inside_a_product():
    with pytest.raises(LoweringError, match="distribute the product"):
        _lower("A(i, j) = B(i, j) * (C(i, j) + D(i, j))",
               {"A": sw.dense(2), "B": sw.dense(2), "C": sw.csr(), "D": sw.dense(2)})


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
    term = sw.Mul(sw.Access("B", (var("i"), var("k"))),
                  sw.Access("C", (var("k"), var("j"))))
    stmt = _hoisted_where(sw.Access("W", (var("j"),)), sw.Add(term, term))
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


def _run_sum(text: str, result_fmt: sw.Format, kind: str | None, seed: int):
    """Execute a statement on small-integer operands (CSR matrices, dense
    and sparse vectors) on the workspace kind given; returns the result as
    a dense array and the oracle's."""
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
        rewritten = _with_kind(rewritten, kind)
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
    # lacks, and lowering would add it once
    with pytest.raises(sw.IrError, match="same reduction variables"):
        _run_sum(text, result_fmt, kind, seed=0)


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
