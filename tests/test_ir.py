"""Index notation IR: parsing, printing, scheduling transforms, workspaces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spworks as sw
from spworks.ir import (
    expr_vars,
    format_statement,
    nest_core,
    parse_access,
    parse_einsum,
    subst_stmt,
    var,
)

MATMUL = "A(i, j) += B(i, k) * C(k, j)"


# -- variables ------------------------------------------------------------------------


def test_index_var_identity_is_the_name():
    assert var("i") == sw.IndexVar("i", sw.VarKind.SPLIT)
    assert hash(var("i")) == hash(sw.IndexVar("i", sw.VarKind.FUSED))
    assert var("i") != var("j")
    assert repr(var("k")) == "k"


# -- parsing --------------------------------------------------------------------------


def test_default_loop_order_is_output_then_reductions():
    stmt = sw.statement_from_text(MATMUL)
    assert [v.name for v in sw.nest_vars(stmt)] == ["i", "j", "k"]
    assert sw.nest_assign(stmt).accumulate


def test_forall_prefix_sets_the_loop_order():
    stmt = sw.statement_from_text("forall k, i, j: " + MATMUL)
    assert [v.name for v in sw.nest_vars(stmt)] == ["k", "i", "j"]


def test_explicit_loop_order_argument():
    stmt = sw.statement_from_text(MATMUL, loop_order=["k", "i", "j"])
    assert [v.name for v in sw.nest_vars(stmt)] == ["k", "i", "j"]


def test_loop_order_cannot_be_given_twice():
    with pytest.raises(sw.ParseError, match="both inline and as an argument"):
        sw.statement_from_text("forall i, j: A(i, j) = B(i, j)", loop_order=["i", "j"])


def test_mul_binds_tighter_than_add():
    _, rhs = parse_einsum("a(i) = b(i) + c(i) * d(i)")
    assert isinstance(rhs, sw.Add)
    assert isinstance(rhs.rhs, sw.Mul)


def test_parentheses_group_addition():
    _, rhs = parse_einsum("a(i) = (b(i) + c(i)) * d(i)")
    assert isinstance(rhs, sw.Mul)
    assert isinstance(rhs.lhs, sw.Add)


def test_constants_parse_as_floats():
    _, rhs = parse_einsum("a(i) = b(i) * 2.5")
    assert rhs.rhs == sw.Const(2.5)


def test_elementwise_assignment_does_not_accumulate():
    stmt = sw.statement_from_text("A(i, j) = B(i, j) + C(i, j)")
    assert not sw.nest_assign(stmt).accumulate


@pytest.mark.parametrize(
    "text, message",
    [
        ("A(i,) = B(i)", "expected an index variable"),
        ("A(i) @ B(i)", "unexpected character at column 5"),
        ("A(i) = B(i) C(i)", "trailing input"),
        ("A(i) =", "unexpected end of input"),
        ("A(i) B(i)", "expected '=' or '\\+='"),
        ("= B(i)", "expected the result tensor name"),
    ],
)
def test_parse_errors_carry_context(text, message):
    with pytest.raises(sw.ParseError, match=message):
        parse_einsum(text)


def test_parse_access_rejects_trailing_tokens():
    assert parse_access("B(i, k)") == sw.Access("B", (var("i"), var("k")))
    with pytest.raises(sw.ParseError, match="trailing"):
        parse_access("B(i) extra")


# -- printing and round trips ----------------------------------------------------------


def test_statement_print_golden():
    stmt = sw.statement_from_text(MATMUL)
    assert str(stmt) == "forall i, j, k: A(i,j) += B(i,k) * C(k,j)"


def test_add_is_parenthesized_under_mul():
    stmt = sw.statement_from_text("a(i) = (b(i) + c(i)) * d(i)")
    assert str(stmt) == "forall i: a(i) = (b(i) + c(i)) * d(i)"


@pytest.mark.parametrize(
    "text",
    [
        "forall i, j, k: A(i,j) += B(i,k) * C(k,j)",
        "forall i, j: A(i,j) = B(i,j) + C(i,j) + 2",
        "forall i, k, l, j: A(i,j) += X(i,k,l) * B(k,j) * C(l,j)",
        "forall i: a(i) = (b(i) + 3) * c(i)",
    ],
)
def test_print_parse_round_trip(text):
    stmt = sw.statement_from_text(text)
    assert str(sw.statement_from_text(str(stmt))) == str(stmt) == text


def test_where_statement_prints_both_sides():
    stmt = sw.statement_from_text(MATMUL)
    rewritten, decision = sw.insert_sparse_workspace(
        stmt, {"A": sw.csr(), "B": sw.csr(), "C": sw.csc()}, sw.Policy.COORD, 16
    )
    text = str(rewritten)
    assert " where " in text
    assert "W(" in text


# -- from_einsum validation --------------------------------------------------------------


def test_from_einsum_rejects_repeated_loop_vars():
    with pytest.raises(sw.IrError, match="repeated"):
        sw.statement_from_text("A(i, j) = B(i, j)", loop_order=["i", "i"])


def test_from_einsum_rejects_unbound_expression_vars():
    with pytest.raises(sw.IrError, match="not bound by the loop order"):
        sw.statement_from_text(MATMUL, loop_order=["i", "j"])


def test_from_einsum_rejects_unused_loop_vars():
    with pytest.raises(sw.IrError, match="unused"):
        sw.statement_from_text(MATMUL, loop_order=["i", "j", "k", "m"])


def test_from_einsum_rejects_sums_over_different_reduction_variables():
    # an explicit loop order, a leading forall and a statement built from
    # accesses all reach the same check; the message names each term's
    # reduction variables
    lhs, rhs = parse_einsum("A(i,j) = B(i,k) * C(k,j) + D(i,j)")
    with pytest.raises(sw.IrError, match=r"B\(i,k\) \* C\(k,j\) over \{k\}; D\(i,j\) over \{\}"):
        sw.from_einsum(lhs, rhs, ["i", "k", "j"])
    with pytest.raises(sw.IrError, match="same reduction variables"):
        sw.statement_from_text("forall i, k, l, j: A(i,j) += B(i,k) * C(k,j) + B(i,l) * C(l,j)")
    # terms over the same reduction variables, in any order, are a sum
    stmt = sw.statement_from_text("A(i,j) = B(i,k) * C(k,j) + C(k,j) * B(i,k) * 2")
    assert nest_core(stmt).accumulate


# -- scheduling transforms ---------------------------------------------------------------


def test_reorder_permutes_the_nest_and_records_a_relation():
    stmt = sw.statement_from_text(MATMUL).reorder("k", "i", "j")
    assert [v.name for v in sw.nest_vars(stmt)] == ["k", "i", "j"]
    (rel,) = stmt.relations
    assert isinstance(rel, sw.Reorder)


def test_reorder_must_be_a_permutation():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(sw.IrError, match="not a permutation"):
        sw.reorder(stmt, ["i", "j", "j"])
    with pytest.raises(sw.IrError, match="not in the loop nest"):
        sw.reorder(stmt, ["i", "j", "z"])


def test_split_replaces_one_loop_with_two():
    stmt = sw.statement_from_text(MATMUL).split("k", "k0", "k1", 8)
    names = [v.name for v in sw.nest_vars(stmt)]
    assert names == ["i", "j", "k0", "k1"]
    kinds = {v.name: v.kind for v in sw.nest_vars(stmt)}
    assert kinds["k0"] is sw.VarKind.SPLIT and kinds["k1"] is sw.VarKind.SPLIT


def test_split_validates_step_and_names():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(sw.IrError, match="step must be positive"):
        sw.split(stmt, "k", "k0", "k1", 0)
    with pytest.raises(sw.IrError, match="already in use"):
        sw.split(stmt, "k", "i", "k1", 4)
    with pytest.raises(sw.IrError, match="not in the loop nest"):
        sw.split(stmt, "z", "z0", "z1", 4)


def test_split_step_must_be_an_integer():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(sw.IrError, match="split step 2.5 is not an integer"):
        sw.split(stmt, "k", "k0", "k1", 2.5)
    assert sw.nest_vars(sw.split(stmt, "k", "k0", "k1", np.int64(2)))[-1].name == "k1"


def test_fuse_requires_adjacent_loops():
    stmt = sw.statement_from_text(MATMUL)  # nest i, j, k
    fused = sw.fuse(stmt, "i", "j", "f")
    assert [v.name for v in sw.nest_vars(fused)] == ["f", "k"]
    with pytest.raises(sw.IrError, match="directly outside"):
        sw.fuse(stmt, "i", "k", "f")
    with pytest.raises(sw.IrError, match="directly outside"):
        sw.fuse(stmt, "j", "i", "f")


def test_pos_swaps_a_variable_for_a_position():
    stmt = sw.statement_from_text(MATMUL).pos("k", "kpos", "B(i, k)")
    names = [v.name for v in sw.nest_vars(stmt)]
    assert names == ["i", "j", "kpos"]
    assert sw.nest_vars(stmt)[2].kind is sw.VarKind.POSITION


def test_pos_requires_the_access_to_exist():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(sw.IrError, match="does not appear"):
        sw.pos(stmt, "k", "kpos", "D(i, k)")
    with pytest.raises(sw.IrError, match="does not appear"):
        sw.pos(stmt, "k", "kpos", "B(k, i)")


def test_transforms_do_not_touch_the_assignment():
    stmt = sw.statement_from_text(MATMUL)
    scheduled = sw.apply_schedule(stmt, "fuse(i, j, f); split(f, f0, f1, 4)")
    assert sw.nest_assign(scheduled) == sw.nest_assign(stmt)


# -- schedule scripts ---------------------------------------------------------------------


def test_apply_schedule_accepts_all_separators_and_comments():
    stmt = sw.statement_from_text(MATMUL)
    script = """
    reorder(i, k, j)   # row-wise product
    fuse(i, k, f) | split(f, f0, f1, 16); pos(f0, p, B(i, k))
    """
    out = sw.apply_schedule(stmt, script)
    assert [v.name for v in sw.nest_vars(out)] == ["p", "f1", "j"]
    assert len(out.relations) == 4


def test_apply_schedule_rejects_unknown_commands():
    stmt = sw.statement_from_text(MATMUL)
    with pytest.raises(sw.ParseError, match="unrecognized schedule command"):
        sw.apply_schedule(stmt, "tile(i, 4)")
    with pytest.raises(sw.ParseError, match="split takes"):
        sw.apply_schedule(stmt, "split(k, k0, 4)")
    with pytest.raises(sw.ParseError, match="step must be an integer"):
        sw.apply_schedule(stmt, "split(k, k0, k1, four)")
    with pytest.raises(sw.ParseError, match="fuse takes"):
        sw.apply_schedule(stmt, "fuse(i, j)")
    with pytest.raises(sw.ParseError, match="pos takes"):
        sw.apply_schedule(stmt, "pos(k, kpos)")


def test_empty_schedule_is_identity():
    stmt = sw.statement_from_text(MATMUL)
    assert sw.apply_schedule(stmt, "  \n # nothing \n ") is stmt


# -- substitution and helpers ----------------------------------------------------------------


def test_subst_renames_loops_and_accesses():
    stmt = sw.statement_from_text("A(i, j) = B(i, j)")
    renamed = subst_stmt(stmt, {var("j"): var("jp")})
    assert str(renamed) == "forall i, jp: A(i,jp) = B(i,jp)"


def test_nest_core_unwraps_every_forall():
    stmt = sw.statement_from_text(MATMUL)
    core = nest_core(stmt)
    assert isinstance(core, sw.Assign)
    assert expr_vars(core.rhs) == [var("i"), var("k"), var("j")]


# -- workspace descriptors and precompute -----------------------------------------------------


def test_descriptor_validation():
    mk = lambda **kw: sw.WorkspaceDescriptor(**{
        "order": 2, "dims": ("I", "J"), "policy": sw.Policy.BUCKET,
        "capacity": 64, "ow_order": (0, 1), **kw,
    })
    mk()  # the baseline is legal
    with pytest.raises(sw.IrError, match="must match the workspace order"):
        mk(dims=("I",))
    with pytest.raises(sw.IrError, match="must match the workspace order"):
        mk(ow_order=(0,))
    with pytest.raises(sw.IrError, match="not a permutation"):
        mk(ow_order=(1, 1))
    with pytest.raises(sw.IrError, match="capacity"):
        mk(capacity=0)


@pytest.mark.parametrize("capacity", [2.5, 64.0, "64", None])
def test_descriptor_rejects_a_non_integer_capacity(capacity):
    with pytest.raises(sw.IrError, match=f"capacity {capacity!r} is not an integer"):
        sw.WorkspaceDescriptor(order=1, dims=("I",), policy=sw.Policy.BUCKET,
                               capacity=capacity, ow_order=(0,))


@pytest.mark.parametrize("policy", list(sw.Policy))
@pytest.mark.parametrize("hash_l", [0, -2, 2.5])
def test_descriptor_rejects_a_bucket_count_below_one(policy, hash_l):
    with pytest.raises(sw.IrError, match=f"bucket count {hash_l!r} is not an integer"):
        sw.WorkspaceDescriptor(order=1, dims=("I",), policy=policy, capacity=4,
                               ow_order=(0,), hash_l=hash_l)


def test_descriptor_strings():
    sparse = sw.WorkspaceDescriptor(
        order=2, dims=("I", "J"), policy=sw.Policy.COORD, capacity=1024,
        ow_order=(1, 0),
    )
    assert str(sparse) == (
        "SpFormat(order=2, policy=Coord), dims={I,J}, ow_order=[1,0], capacity=1024"
    )
    dense_ws = sw.WorkspaceDescriptor(
        order=1, dims=("J",), policy=sw.Policy.BUCKET, capacity=1,
        ow_order=(0,), kind="dense",
    )
    assert str(dense_ws) == "DenseWs(order=1), dims={J}"


def _descriptor(order: int) -> sw.WorkspaceDescriptor:
    return sw.WorkspaceDescriptor(
        order=order, dims=tuple("IJKL"[:order]), policy=sw.Policy.COORD,
        capacity=32, ow_order=tuple(range(order)),
    )


def test_precompute_builds_producer_and_consumer():
    stmt = sw.statement_from_text(MATMUL)
    rhs = sw.nest_assign(stmt).rhs
    where = sw.precompute(stmt, rhs, ("j",), None, _descriptor(1), ws="T")
    assert isinstance(where, sw.Where)
    assert where.ws == "T"
    producer = sw.nest_assign(where.producer)
    assert producer.lhs == sw.Access("T", (var("j"),))
    assert producer.accumulate
    consumer = sw.nest_assign(where.consumer)
    assert consumer.rhs == sw.Access("T", (var("j"),))
    assert [v.name for v in sw.nest_vars(where.consumer)] == ["i", "j"]


def test_precompute_renames_consumer_variables():
    stmt = sw.statement_from_text(MATMUL)
    rhs = sw.nest_assign(stmt).rhs
    where = sw.precompute(stmt, rhs, ("j",), ("jp",), _descriptor(1))
    consumer = sw.nest_assign(where.consumer)
    assert consumer.rhs == sw.Access("W", (var("jp"),))
    # the producer still binds the original variable
    assert sw.nest_assign(where.producer).lhs == sw.Access("W", (var("j"),))


def test_precompute_validation():
    stmt = sw.statement_from_text(MATMUL)
    rhs = sw.nest_assign(stmt).rhs
    with pytest.raises(sw.IrError, match="not part of the right-hand side"):
        sw.precompute(stmt, parse_einsum("x(i) = D(i, j)")[1], ("j",), None, _descriptor(1))
    with pytest.raises(sw.IrError, match="do not occur in the expression"):
        sw.precompute(stmt, rhs, ("z",), None, _descriptor(1))
    with pytest.raises(sw.IrError, match="pair up"):
        sw.precompute(stmt, rhs, ("j",), ("a", "b"), _descriptor(1))
    with pytest.raises(sw.IrError, match="descriptor order"):
        sw.precompute(stmt, rhs, ("k", "j"), None, _descriptor(1))


# -- property: printing is stable under reparse -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_expressions_round_trip(data):
    names = ["B", "C", "D"]
    vars_ = ["i", "j", "k"]

    def gen_expr(depth: int) -> str:
        kind = data.draw(st.sampled_from(["acc", "add", "mul"] if depth else ["acc"]))
        if kind == "acc":
            t = data.draw(st.sampled_from(names))
            n = data.draw(st.integers(1, 3))
            picked = data.draw(st.permutations(vars_))[:n]
            return f"{t}({', '.join(picked)})"
        op = " + " if kind == "add" else " * "
        return "(" + gen_expr(depth - 1) + op + gen_expr(depth - 1) + ")"

    text = "A(i, j, k) = " + gen_expr(2)
    stmt = sw.statement_from_text(text)
    assert str(sw.statement_from_text(str(stmt))) == str(stmt)
