"""Lowering to loop plans, plan printing, and plan execution."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
from dataclasses import replace

import numpy as np
import pytest

import spworks as sw
from spworks.ir import build_nest, var
from spworks.lowering import (
    AccumReg,
    AllocWs,
    AppendCompute,
    AppendRow,
    CompressWs,
    DenseRange,
    DenseWsGather,
    DenseWsScatter,
    Intersect,
    IsmInsert,
    LevelIter,
    LoopNode,
    LoweringError,
    MaterializeWs,
    ScatterDense,
    SetReg,
)

from conftest import (
    KERNELS,
    KERNELS_BY_NAME,
    Kernel,
    _dim,
    dense_array,
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
    assert meta.dense and meta.name == "W"
    host = _loops(plan)[0]
    assert host.var == var("i")
    kinds = [type(n) for n in host.body]
    assert kinds == [LoopNode, DenseWsGather]  # the gather also clears W
    assert host.body[-1].prefix_vars == (var("i"),)
    scatter = [n for n in _loops(plan)[-1].body if isinstance(n, DenseWsScatter)]
    assert scatter


def test_hoisted_sparse_workspace_plan_shape():
    plan = _lower("forall i, k, j: " + MATMUL,
                  {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
                  enable_dense=False)
    (meta,) = plan.workspaces
    assert not meta.dense
    host = _loops(plan)[0]
    kinds = [type(n) for n in host.body]
    assert kinds == [AllocWs, LoopNode, CompressWs]  # CompressWs drains first
    compress = host.body[-1]
    assert compress.prefix_vars == (var("i"),)


def test_full_workspace_plan_shape():
    plan = _lower(MATMUL, {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
                  schedule="reorder(k, i, j)")
    kinds = [type(n) for n in plan.body]
    assert kinds == [AllocWs, LoopNode, CompressWs]
    inserts = [n for n in _loops(plan)[-1].body if isinstance(n, IsmInsert)]
    assert inserts and inserts[0].slot_vars == (var("i"), var("j"))


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
    assert any(isinstance(n, CompressWs) for n in plan.body)


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
        piped = sw.execute(plan, inst.tensors, sw.ExecutionOptions(pipeline=True))
        assert sw.tensors_equal(base.tensor, piped.tensor)
        assert piped.counters.inserts == base.counters.inserts
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
    for pipeline in (False, True):
        engines.clear()
        threads.clear()
        out = sw.execute(plan, inst.tensors, sw.ExecutionOptions(pipeline=pipeline))
        assert out.counters.drains > 1  # one drain per nonempty row
        assert len(engines) == 1
        assert len(threads) <= int(pipeline)


def test_raising_pipelined_execution_joins_its_worker(monkeypatch):
    kernel = KERNELS_BY_NAME["spgemm-rowwise-hoist"]
    _, plan, _ = prepare(kernel, capacity=2)
    inst = kernel.instance(1)
    options = sw.ExecutionOptions(pipeline=True)
    total = sw.execute(plan, inst.tensors, options).counters.inserts
    count = threading.active_count()
    before = set(threading.enumerate())
    started: list[threading.Thread] = []
    insert_batch = sw.IsmEngine.insert_batch
    inserted = [0]

    def failing_insert_batch(self, keys, vals):
        inserted[0] += len(keys)
        if inserted[0] > total // 2:
            started.extend(t for t in threading.enumerate() if t not in before)
            raise RuntimeError("insert failed")
        insert_batch(self, keys, vals)

    monkeypatch.setattr(sw.IsmEngine, "insert_batch", failing_insert_batch)
    with pytest.raises(RuntimeError, match="insert failed"):
        sw.execute(plan, inst.tensors, options)
    assert started  # a worker was running when the loop body raised
    for t in started:
        t.join(timeout=5)
        assert not t.is_alive()
    assert threading.active_count() == count


def test_execute_leaves_no_cyclic_garbage():
    runs = []
    for name, pipeline in (("spgemm-inner", False),          # plain, dense result
                           ("elementwise", False),           # plain, sparse append
                           ("spgemm-outer", False),          # FULL workspace
                           ("spgemm-rowwise-hoist", False),  # hoisted workspace
                           ("spgemm-rowwise-hoist", True),
                           ("spmv", False),                  # conversion workspace
                           ("spgemm-rowwise", False)):       # dense workspace
        kernel = KERNELS_BY_NAME[name]
        _, plan, _ = prepare(kernel)
        runs.append((name, plan, kernel.instance(1).tensors, pipeline))
    runs.append(("materialize", _materializing_plan(), _matmul_operands(3)[2], False))
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
        for name, plan, tensors, pipeline in runs:
            sw.execute(plan, tensors, sw.ExecutionOptions(pipeline=pipeline))
            assert gc.collect() == 0, (name, pipeline)
    finally:
        gc.enable()


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
                                  capacity=16, ow_order=(0, 1), dense=True)
    rewritten = sw.precompute(stmt, rhs, ("i", "j"), None, desc)
    with pytest.raises(LoweringError, match="only applies under a loop prefix"):
        sw.lower(rewritten, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})


def _hoisted_where(consumer_rhs: sw.Expr, producer_rhs: sw.Expr,
                   dense: bool = False) -> sw.Statement:
    desc = sw.WorkspaceDescriptor(order=1, dims=("J",), policy=sw.Policy.COORD,
                                  capacity=16, ow_order=(0,), dense=dense)
    producer = build_nest([var("k"), var("j")],
                          sw.Assign(sw.Access("W", (var("j"),)), producer_rhs, True))
    consumer = build_nest([var("j")],
                          sw.Assign(sw.Access("A", (var("i"), var("j"))),
                                    consumer_rhs, False))
    return sw.Forall(var("i"), sw.Where(consumer, producer, "W", desc))


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
