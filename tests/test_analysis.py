"""Scattering classification, order reconstruction, insertion planning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spworks as sw
from spworks.analysis import AnalysisError
from spworks.ir import expr_accesses, nest_assign, nest_vars, var

MATMUL = "A(i, j) += B(i, k) * C(k, j)"


def _vars(*names: str) -> list[sw.IndexVar]:
    return [var(n) for n in names]


# -- ordering measures -----------------------------------------------------------------


@pytest.mark.parametrize(
    "loop, out, expected",
    [
        (["i", "j", "k"], ["i", "j"], (3, 0, 0)),   # inner product
        (["i", "k", "j"], ["i", "j"], (3, 1, 1)),   # row-wise product
        (["k", "i", "j"], ["i", "j"], (3, 2, 2)),   # outer product
        (["j", "i"], ["i", "j"], (1, 0, 2)),        # pure transposition
        (["i", "k", "l", "j"], ["i", "j"], (3, 1, 1)),
        (["i", "j"], ["i", "j"], (3, 0, 0)),
    ],
)
def test_ordering_measures_goldens(loop, out, expected):
    assert sw.ordering_measures(_vars(*loop), _vars(*out)) == expected


def test_ordering_measures_requires_all_output_vars():
    with pytest.raises(AnalysisError, match="does not bind every result variable"):
        sw.ordering_measures(_vars("i", "k"), _vars("i", "j"))


def test_compare_orders_golden_and_errors():
    assert sw.compare_orders(_vars("i", "j"), _vars("j", "i")) == [1, 0]
    assert sw.compare_orders(_vars("i", "j"), _vars("i", "j")) == [0, 1]
    assert sw.compare_orders(_vars("k", "i", "j"), _vars("i", "j", "k")) == [2, 0, 1]
    with pytest.raises(AnalysisError, match="do not cover the same variables"):
        sw.compare_orders(_vars("i"), _vars("j"))


# -- taxonomy labels ---------------------------------------------------------------------


def _classify(expr: str, formats: dict[str, sw.Format]) -> sw.Classification:
    return sw.classify(sw.statement_from_text(expr), formats)


def test_elementwise_intersection_is_appending():
    cls = _classify("A(i, j) = B(i, j) * C(i, j)",
                    {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)})
    assert cls.appending
    assert cls.label == "appending"
    assert cls.summary == "appending"


def test_union_of_two_compressed_drivers_is_not_appending():
    cls = _classify("A(i, j) = B(i, j) * C(i, j)",
                    {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert not cls.appending
    assert cls.label == "scalar accumulation"


def test_inner_product_is_scalar_accumulation():
    cls = _classify(MATMUL, {"A": sw.csr(), "B": sw.csr(), "C": sw.csc()})
    assert (cls.p1, cls.p2, cls.ordering) == (3, 0, 0)
    assert cls.label == "scalar accumulation"
    assert cls.summary == "scattering, order 0"
    assert cls.reduction_vars == (var("k"),)


def test_rowwise_product_is_first_order_dense_scattering():
    cls = _classify("forall i, k, j: " + MATMUL,
                    {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert cls.ordering == 1
    assert cls.label == "first-order dense scattering"
    assert cls.summary == "scattering, order 1"


def test_outer_product_is_second_order_sparse_scattering():
    cls = _classify("forall k, i, j: " + MATMUL,
                    {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()})
    assert cls.ordering == 2
    assert cls.concordant
    assert cls.label == "second-order sparse scattering"
    assert cls.summary == "scattering, order 2"


def test_classification_uses_result_storage_order():
    # identical statement, but a CSC result stores columns first
    csr_cls = _classify("A(i, j) = B(i, j)", {"A": sw.csr(), "B": sw.csr()})
    csc_cls = _classify("A(i, j) = B(i, j)", {"A": sw.csc(), "B": sw.csr()})
    assert csr_cls.concordant and csr_cls.ordering == 0
    assert not csc_cls.concordant and csc_cls.ordering == 2
    assert csc_cls.output_order == (var("j"), var("i"))


def test_scheduled_statement_classifies_on_reconstructed_order():
    stmt = sw.apply_schedule(
        sw.statement_from_text("forall i, k, j: A(j, i) += B(i, k) * C(k, j)"),
        "fuse(i, k, f) | pos(f, fpos, B(i,k)) | split(fpos, f0, f1, 4)",
    )
    cls = sw.classify(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert cls.loop_order == (var("i"), var("k"), var("j"))
    assert not cls.concordant
    assert cls.ordering == 2


# -- order reconstruction ------------------------------------------------------------------


def test_reconstruction_golden_fuse_pos_split():
    stmt = sw.statement_from_text("forall i, k, j: A(j, i) += B(i, k) * C(k, j)")
    stmt = sw.fuse(stmt, "i", "k", "f")
    stmt = sw.pos(stmt, "f", "fpos", "B(i, k)")
    stmt = sw.split(stmt, "fpos", "f0", "f1", 4)
    assert [v.name for v in nest_vars(stmt)] == ["f0", "f1", "j"]
    assert sw.reconstruct_input_order(stmt) == _vars("i", "k", "j")


def test_reconstruction_keeps_reorders():
    stmt = sw.statement_from_text(MATMUL).reorder("k", "i", "j")
    assert sw.reconstruct_input_order(stmt) == _vars("k", "i", "j")


def test_split_of_output_var_reconstructs_at_the_inner_loop():
    stmt = sw.statement_from_text(MATMUL).split("i", "i0", "i1", 4)
    moved = stmt.reorder("i1", "j", "k", "i0")
    assert sw.reconstruct_input_order(moved) == _vars("i", "j", "k")


def test_split_of_reduction_var_reconstructs_at_the_outer_loop():
    stmt = sw.statement_from_text(MATMUL).split("k", "k0", "k1", 8)
    moved = stmt.reorder("k0", "i", "j", "k1")
    assert sw.reconstruct_input_order(moved) == _vars("k", "i", "j")


def test_unscheduled_statement_reconstructs_to_its_own_nest():
    stmt = sw.statement_from_text("forall k, i, j: " + MATMUL)
    assert sw.reconstruct_input_order(stmt) == _vars("k", "i", "j")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_schedules_invert_exactly(data):
    stmt = sw.statement_from_text(
        "forall i, k, l, j: A(i,j) += X(i,k,l) * B(k,j) * C(l,j)"
    )
    original = nest_vars(stmt)
    accesses = list(expr_accesses(nest_assign(stmt).rhs))
    depth = data.draw(st.integers(0, 4))
    with_reorder = data.draw(st.booleans())
    for n in range(depth):
        nest = nest_vars(stmt)
        kinds = ["split", "pos"] + (["fuse"] if len(nest) > 1 else []) \
            + (["reorder"] if with_reorder else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "split":
            v = data.draw(st.sampled_from(nest))
            stmt = sw.split(stmt, v, f"s{n}o", f"s{n}i", data.draw(st.integers(2, 8)))
        elif kind == "fuse":
            at = data.draw(st.integers(0, len(nest) - 2))
            stmt = sw.fuse(stmt, nest[at], nest[at + 1], f"f{n}")
        elif kind == "pos":
            v = data.draw(st.sampled_from(nest))
            stmt = sw.pos(stmt, v, f"p{n}", data.draw(st.sampled_from(accesses)))
        else:
            stmt = sw.reorder(stmt, data.draw(st.permutations(nest)))
    recovered = sw.reconstruct_input_order(stmt)
    assert all(v.kind is sw.VarKind.ORIGINAL for v in recovered)
    if with_reorder:
        assert sorted(v.name for v in recovered) == sorted(v.name for v in original)
    else:
        assert recovered == original


# -- insertion planning ----------------------------------------------------------------------


def _plan(expr: str, formats: dict[str, sw.Format], schedule: str | None = None,
          **kw) -> sw.InsertionDecision:
    stmt = sw.statement_from_text(expr)
    if schedule:
        stmt = sw.apply_schedule(stmt, schedule)
    return sw.plan_insertion(stmt, formats, **kw)


def test_dense_result_never_needs_a_workspace():
    d = _plan("forall k, i, j: " + MATMUL,
              {"A": sw.dense(2), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.NONE
    assert not d.needs_workspace
    assert "dense result" in d.reason


def test_appending_kernel_needs_nothing():
    d = _plan("A(i, j) = B(i, j) * C(i, j)",
              {"A": sw.csr(), "B": sw.csr(), "C": sw.dense(2)})
    assert d.action is sw.InsertionAction.NONE
    assert "storage order" in d.reason


def test_rowwise_product_takes_a_dense_workspace():
    d = _plan("forall i, k, j: " + MATMUL,
              {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.DENSE
    assert d.i_vars == (var("j"),)
    assert d.hoist_depth == 1
    assert d.ow_order == (0,)


def test_rowwise_product_can_hoist_a_sparse_workspace_instead():
    d = _plan("forall i, k, j: " + MATMUL,
              {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()},
              enable_dense=False)
    assert d.action is sw.InsertionAction.HOIST
    assert d.i_vars == (var("j"),)
    assert d.hoist_depth == 1


def test_outer_product_takes_a_full_workspace():
    d = _plan(MATMUL, {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
              schedule="reorder(k, i, j)")
    assert d.action is sw.InsertionAction.FULL
    assert d.i_vars == (var("i"), var("j"))
    assert d.ow_order == (0, 1)
    assert d.consumer_order == (var("i"), var("j"))


def test_transposed_result_reorders_through_the_workspace():
    d = _plan("forall i, k, j: A(j, i) += B(i, k) * C(k, j)",
              {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.FULL
    assert d.i_vars == (var("i"), var("j"))
    assert d.ow_order == (1, 0)
    assert d.consumer_order == (var("j"), var("i"))


def test_csc_result_is_discordant_with_a_row_major_loop():
    d = _plan(MATMUL, {"A": sw.csc(), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.FULL
    assert d.ow_order == (1, 0)


def test_spmv_into_a_sparse_vector_converts():
    d = _plan("a(i) = B(i, k) * c(k)",
              {"a": sw.sparse_vector(), "B": sw.csr(), "c": sw.dense_vector()})
    assert d.action is sw.InsertionAction.CONVERSION
    assert "denser than the result" in d.reason


def test_sparse_additive_union_forces_a_workspace():
    d = _plan("A(i, j) = B(i, j) + C(i, j)",
              {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.CONVERSION
    assert "union" in d.reason


def test_additions_do_not_hoist():
    # two terms cannot share one scatter array; the planner goes to FULL
    d = _plan("forall i, k, j: A(i, j) += B(i, k) * C(k, j) + B(i, k) * D(k, j)",
              {"A": sw.csr(), "B": sw.csr(), "C": sw.csr(), "D": sw.csr()})
    assert d.action is sw.InsertionAction.FULL


@pytest.mark.parametrize("enable_dense", [True, False])
def test_a_product_over_a_sparse_sum_does_not_hoist(enable_dense):
    # lowering distributes the product into two terms, which cannot share
    # one scatter array either
    stmt = sw.statement_from_text("forall i, k, j: A(i, j) += B(i, k) * (C(k, j) + D(k, j))")
    formats = {"A": sw.csr(), "B": sw.csr(), "C": sw.csr(), "D": sw.csr()}
    d = sw.plan_insertion(stmt, formats, enable_dense=enable_dense)
    assert d.action is sw.InsertionAction.FULL
    assert d.reason == ("concordant but scattered across a reduction (order 1); "
                        "accumulate first, assemble once")
    assert d.i_vars == (var("i"), var("j"))
    report = sw.classification_report(stmt, formats, d)
    assert "insertion:    reordering-workspace" in report
    assert f"reason:       {d.reason}" in report


def test_derived_loop_vars_block_hoisting():
    stmt = sw.apply_schedule(
        sw.statement_from_text("forall i, k, j: " + MATMUL),
        "split(k, k0, k1, 4)",
    )
    d = sw.plan_insertion(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()})
    assert d.action is sw.InsertionAction.FULL


def test_mttkrp_hoists_below_the_row_loop():
    d = _plan("forall i, k, l, j: A(i,j) += X(i,k,l) * B(k,j) * C(l,j)",
              {"A": sw.csr(), "X": sw.csf(3), "B": sw.dense(2), "C": sw.dense(2)})
    assert d.action is sw.InsertionAction.HOIST
    assert d.i_vars == (var("j"),)
    assert d.hoist_depth == 1


def test_ttm_scatters_one_dense_dimension():
    d = _plan("forall i, j, k, m: Y(i,j,m) += X(i,j,k) * U(k,m)",
              {"Y": sw.csf(3), "X": sw.csf(3), "U": sw.dense(2)})
    assert d.action is sw.InsertionAction.DENSE
    assert d.i_vars == (var("m"),)
    assert d.hoist_depth == 2


def test_hoist_requires_result_at_least_as_random_access_as_iteration():
    # DCSR rows are compressed while B iterates them densely: no hoist
    d = _plan("forall i, k, j: " + MATMUL,
              {"A": sw.dcsr(), "B": sw.dense(2), "C": sw.dense(2)},
              enable_dense=False)
    assert d.action is sw.InsertionAction.FULL


# -- applying a decision -----------------------------------------------------------------------


def test_insert_none_returns_the_statement_unchanged():
    stmt = sw.statement_from_text(MATMUL)
    rewritten, decision = sw.insert_sparse_workspace(
        stmt, {"A": sw.dense(2), "B": sw.csr(), "C": sw.csc()}
    )
    assert rewritten is stmt
    assert decision.action is sw.InsertionAction.NONE


@pytest.mark.parametrize("policy", list(sw.Policy))
def test_insert_rejects_a_non_integer_capacity(policy):
    stmt = sw.apply_schedule(sw.statement_from_text(MATMUL), "reorder(k, i, j)")
    with pytest.raises(sw.IrError, match="capacity 2.5 is not an integer"):
        sw.insert_sparse_workspace(
            stmt, {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()}, policy, 2.5)


def test_insert_dense_workspace_shares_the_row_loop():
    stmt = sw.statement_from_text("forall i, k, j: " + MATMUL)
    rewritten, decision = sw.insert_sparse_workspace(
        stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()}, sw.Policy.COORD, 64
    )
    assert decision.action is sw.InsertionAction.DENSE
    assert isinstance(rewritten, sw.Forall) and rewritten.var == var("i")
    where = rewritten.body
    assert isinstance(where, sw.Where)
    assert where.descriptor.kind == "dense"
    assert where.descriptor.dims == ("J",)
    producer = nest_assign(where.producer)
    assert producer.lhs == sw.Access("W", (var("j"),))
    assert producer.accumulate
    consumer = nest_assign(where.consumer)
    assert consumer.rhs == sw.Access("W", (var("j"),))
    assert not consumer.accumulate


@pytest.mark.parametrize("enable_dense", [True, False])
def test_insert_rejects_a_result_variable_missing_from_the_expression(enable_dense):
    # j indexes only the result, so no workspace over it can be filled
    stmt = sw.statement_from_text("forall i, k, j: A(i,j) += B(i,k) * c(k)")
    formats = {"A": sw.csr(), "B": sw.csr(), "c": sw.dense_vector()}
    action = sw.plan_insertion(stmt, formats, enable_dense=enable_dense).action
    assert action is (sw.InsertionAction.DENSE if enable_dense else sw.InsertionAction.HOIST)
    with pytest.raises(sw.IrError, match=r"insertion variables \[j\] do not occur"):
        sw.insert_sparse_workspace(stmt, formats, enable_dense=enable_dense)


def test_insert_full_workspace_records_the_reordering():
    stmt = sw.apply_schedule(sw.statement_from_text(MATMUL), "reorder(k, i, j)")
    rewritten, decision = sw.insert_sparse_workspace(
        stmt, {"A": sw.csr(), "B": sw.dcsc(), "C": sw.csr()},
        sw.Policy.HASH, 128, ws_name="T", hash_l=32,
    )
    assert isinstance(rewritten, sw.Where)
    desc = rewritten.descriptor
    assert rewritten.ws == "T"
    assert desc.policy is sw.Policy.HASH
    assert desc.capacity == 128
    assert desc.hash_l == 32
    assert desc.dims == ("I", "J")
    assert desc.kind == "sparse"


def test_report_mentions_the_decision():
    stmt = sw.statement_from_text("forall i, k, j: " + MATMUL)
    formats = {"A": sw.csr(), "B": sw.csr(), "C": sw.csr()}
    decision = sw.plan_insertion(stmt, formats)
    report = sw.classification_report(stmt, formats, decision)
    assert "loop order:   i, k, j" in report
    assert "class:        first-order dense scattering (scattering, order 1)" in report
    assert "insertion:    dense-workspace" in report
    assert "workspace:    over j; ow_order=[0]" in report


def test_classify_requires_formats_for_all_tensors():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(AnalysisError, match="no format given"):
        sw.classify(stmt, {"A": sw.csr(), "B": sw.csr()})
    with pytest.raises(AnalysisError, match="order 3"):
        sw.classify(stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csf(3)})
