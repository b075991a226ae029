"""Scattering analysis and automatic workspace insertion.

Classification looks at a statement's loop order relative to its result
access order and answers two questions: does the computation visit result
coordinates in storage order (concordance), and how many result dimensions
are revisited across an outer reduction (the scattering order). The
insertion planner turns the answers into one of five actions:

* nothing (append or accumulate in place),
* a dense scatter array over the single innermost scattered dimension,
* a workspace hoisted under a shared loop prefix,
* a same-order sparse workspace (result order already right, but values
  arrive unordered, duplicated, or denser than the result format),
* a full reordering workspace whose insertion order differs from its
  consumption order.

Scheduled statements are classified on their reconstructed original loop
order; split, fuse, and position relations are undone in reverse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ir import (
    DENSE_WS,
    SPARSE_WS,
    Access,
    Add,
    Expr,
    Fuse,
    IndexVar,
    Mul,
    Pos,
    Reorder,
    Split,
    Statement,
    VarKind,
    WorkspaceDescriptor,
    build_nest,
    expr_accesses,
    expr_vars,
    nest_assign,
    nest_vars,
    precompute,
)
from .ism import Policy
from .tensor import Format, LevelKind, access_map


class AnalysisError(ValueError):
    pass


_ORDINALS = {1: "first", 2: "second", 3: "third", 4: "fourth", 5: "fifth",
             6: "sixth", 7: "seventh", 8: "eighth", 9: "ninth"}


def _ordinal(n: int) -> str:
    return _ORDINALS.get(n, f"{n}th")


# -- order reconstruction -----------------------------------------------------


def reconstruct_input_order(stmt: Statement) -> list[IndexVar]:
    """Undo the statement's scheduling relations, newest first, recovering
    the loop order over original index variables."""
    order = nest_vars(stmt)
    out_vars = nest_assign(stmt).lhs.vars

    def locate(v: IndexVar) -> int:
        try:
            return order.index(v)
        except ValueError:
            raise AnalysisError(
                f"cannot reconstruct: variable {v.name} vanished from the nest"
            ) from None

    for rel in reversed(stmt.relations):
        if isinstance(rel, Reorder):
            continue
        if isinstance(rel, Pos):
            order[locate(rel.position)] = rel.var
        elif isinstance(rel, Fuse):
            at = locate(rel.fused)
            order[at:at + 1] = [rel.outer, rel.inner]
        elif isinstance(rel, Split):
            if rel.var not in out_vars:
                order[locate(rel.outer)] = rel.var
                del order[locate(rel.inner)]
            else:
                order[locate(rel.inner)] = rel.var
                del order[locate(rel.outer)]
        else:
            raise AnalysisError(f"unknown relation {type(rel).__name__}")
    leftover = [v for v in order if v.kind is not VarKind.ORIGINAL]
    if leftover:
        raise AnalysisError(f"reconstruction left derived variables {leftover}")
    return order


def compare_orders(input_order: list[IndexVar], output_order: list[IndexVar]) -> list[int]:
    """Map each insertion variable to its position in the consumption order."""
    if set(input_order) != set(output_order) or len(input_order) != len(output_order):
        raise AnalysisError(
            f"orders {input_order} and {output_order} do not cover the same variables")
    return [output_order.index(v) for v in input_order]


# -- classification --------------------------------------------------------------


def ordering_measures(loop_order: list[IndexVar],
                      output_order: list[IndexVar]) -> tuple[int, int, int]:
    """Return (p1, p2, ordering).

    p1 is the first 1-based position where the loop order restricted to
    result variables disagrees with the result access order (N+1 when they
    agree throughout). p2 counts result variables nested inside the
    outermost reduction loop. The scattering order is max(N+1-p1, p2).
    """
    n = len(output_order)
    restricted = [v for v in loop_order if v in output_order]
    if len(restricted) != n:
        raise AnalysisError("loop order does not bind every result variable")
    p1 = n + 1
    for at, (a, b) in enumerate(zip(restricted, output_order)):
        if a != b:
            p1 = at + 1
            break
    reductions = [v for v in loop_order if v not in output_order]
    if reductions:
        first = loop_order.index(reductions[0])
        p2 = sum(1 for v in loop_order[first + 1:] if v in output_order)
    else:
        p2 = 0
    return p1, p2, max(n + 1 - p1, p2)


@dataclass(frozen=True)
class Classification:
    loop_order: tuple[IndexVar, ...]
    output_order: tuple[IndexVar, ...]
    reduction_vars: tuple[IndexVar, ...]
    p1: int
    p2: int
    ordering: int
    concordant: bool
    appending: bool

    @property
    def label(self) -> str:
        if self.appending:
            return "appending"
        if self.ordering == 0:
            return "scalar accumulation"
        if self.ordering == 1:
            return "first-order dense scattering"
        return f"{_ordinal(self.ordering)}-order sparse scattering"

    @property
    def summary(self) -> str:
        if self.appending:
            return "appending"
        return f"scattering, order {self.ordering}"


def _operand_level_kind(fmt: Format, mode: int) -> LevelKind:
    return fmt.levels[fmt.mode_ordering.index(mode)]


def _compressed_driver_count(v: IndexVar, accesses: list[Access],
                             formats: dict[str, Format]) -> int:
    count = 0
    for acc in accesses:
        if v in acc.vars:
            fmt = _format_of(acc, formats)
            if _operand_level_kind(fmt, acc.vars.index(v)) is LevelKind.COMPRESSED:
                count += 1
    return count


def _format_of(acc: Access, formats: dict[str, Format]) -> Format:
    try:
        fmt = formats[acc.tensor]
    except KeyError:
        raise AnalysisError(f"no format given for tensor {acc.tensor}") from None
    if fmt.order != len(acc.vars):
        raise AnalysisError(
            f"format for {acc.tensor} has order {fmt.order} "
            f"but the access {acc} has {len(acc.vars)} variables")
    return fmt


def classify(stmt: Statement, formats: dict[str, Format]) -> Classification:
    assign = nest_assign(stmt)
    loop_order = reconstruct_input_order(stmt) if stmt.relations else nest_vars(stmt)
    out_fmt = _format_of(assign.lhs, formats)
    # result coordinates must arrive in STORAGE order, which the mode
    # ordering may permute away from the access order (CSR vs CSC)
    output_order = list(access_map(assign.lhs.vars, out_fmt))
    accesses = list(expr_accesses(assign.rhs))
    for acc in accesses:
        _format_of(acc, formats)
    p1, p2, ordering = ordering_measures(loop_order, output_order)
    reductions = tuple(v for v in loop_order if v not in output_order)
    shared = [v for v in expr_vars(assign.rhs)
              if sum(v in acc.vars for acc in accesses) > 1]
    appending = (
        not reductions
        and p1 == len(output_order) + 1
        and all(_compressed_driver_count(v, accesses, formats) <= 1 for v in shared)
    )
    return Classification(
        loop_order=tuple(loop_order),
        output_order=tuple(output_order),
        reduction_vars=reductions,
        p1=p1,
        p2=p2,
        ordering=ordering,
        concordant=p1 == len(output_order) + 1,
        appending=appending,
    )


# -- insertion planning ------------------------------------------------------------


class InsertionAction(enum.Enum):
    NONE = "none"
    DENSE = "dense-workspace"
    HOIST = "hoisted-workspace"
    CONVERSION = "conversion-workspace"
    FULL = "reordering-workspace"


@dataclass(frozen=True)
class InsertionDecision:
    action: InsertionAction
    reason: str
    classification: Classification
    i_vars: tuple[IndexVar, ...] = ()
    ow_order: tuple[int, ...] = ()
    consumer_order: tuple[IndexVar, ...] = ()
    hoist_depth: int = 0

    @property
    def needs_workspace(self) -> bool:
        return self.action is not InsertionAction.NONE


def _undriven(v: IndexVar, out: Access, out_fmt: Format, accesses: list[Access],
              formats: dict[str, Format]) -> bool:
    """Whether the result stores v compressed while no compressed operand
    level drives v, so that the loop over v visits coordinates it does not store."""
    return (_operand_level_kind(out_fmt, out.vars.index(v)) is LevelKind.COMPRESSED
            and not _compressed_driver_count(v, accesses, formats))


def sparse_union_operand(expr: Expr, formats: dict[str, Format]) -> Access | None:
    """The first sparse operand, left to right, that an addition combines
    with other terms, or None. Such a union can be neither appended into a
    sparse result stream nor run as one loop pass."""
    pending = [(expr, False)]
    while pending:
        e, under_add = pending.pop()
        if isinstance(e, Access):
            if under_add and not _format_of(e, formats).all_dense():
                return e
        elif isinstance(e, (Add, Mul)):
            inner = under_add or isinstance(e, Add)
            pending += [(e.rhs, inner), (e.lhs, inner)]
    return None


def plan_insertion(
    stmt: Statement,
    formats: dict[str, Format],
    *,
    enable_dense: bool = True,
) -> InsertionDecision:
    """Decide whether the statement needs a workspace and which kind."""
    assign = nest_assign(stmt)
    cls = classify(stmt, formats)
    out_fmt = _format_of(assign.lhs, formats)
    derived = any(v.kind is not VarKind.ORIGINAL for v in nest_vars(stmt))
    loop_order = list(cls.loop_order)
    output_order = list(cls.output_order)
    accesses = list(expr_accesses(assign.rhs))

    if out_fmt.all_dense():
        return InsertionDecision(
            InsertionAction.NONE,
            "dense result levels accept scattered writes directly",
            cls,
        )

    if not cls.concordant:
        pruned = [v for v in loop_order if v in output_order]
        ow = compare_orders(pruned, output_order)
        return InsertionDecision(
            InsertionAction.FULL,
            f"loop order visits the result out of storage order (p1={cls.p1}); "
            "inserting in iteration order and consuming in result order",
            cls,
            i_vars=tuple(pruned),
            ow_order=tuple(ow),
            consumer_order=tuple(output_order),
        )

    forced = sparse_union_operand(assign.rhs, formats) is not None
    mismatch = any(_undriven(v, assign.lhs, out_fmt, accesses, formats)
                   for v in output_order)
    if cls.ordering == 0 and not forced and not mismatch:
        return InsertionDecision(
            InsertionAction.NONE,
            "result coordinates arrive in storage order and accumulate in place",
            cls,
        )

    # a hoisted or dense workspace takes one pass; a sum, or a product that
    # lowering distributes over a sparse operand's sum, takes several
    single_term = not isinstance(assign.rhs, Add) and not forced
    if cls.ordering >= 1 and not derived and single_term:
        reductions = list(cls.reduction_vars)
        first = loop_order.index(reductions[0])
        trailing = loop_order[first + 1:]
        # a dense workspace lives under its loop prefix; with the reduction
        # outermost there is none, and the statement takes FULL below
        if (enable_dense and first >= 1 and len(trailing) == 1
                and trailing[0] in output_order):
            return InsertionDecision(
                InsertionAction.DENSE,
                f"only {trailing[0].name} is scattered under the reduction; "
                "a dense array over one dimension absorbs the accumulation",
                cls,
                i_vars=(trailing[0],),
                ow_order=(0,),
                consumer_order=(trailing[0],),
                hoist_depth=first,
            )
        prefix = 0
        for lv, ov in zip(loop_order, output_order):
            if lv != ov:
                break
            prefix += 1
        if prefix >= 1:
            ok = not any(_undriven(v, assign.lhs, out_fmt, accesses, formats)
                         for v in loop_order[:prefix])
            suffix = output_order[prefix:]
            if ok and suffix:
                return InsertionDecision(
                    InsertionAction.HOIST,
                    f"the loop prefix {', '.join(v.name for v in loop_order[:prefix])} "
                    "matches the result order; scattering is confined below it",
                    cls,
                    i_vars=tuple(suffix),
                    ow_order=tuple(range(len(suffix))),
                    consumer_order=tuple(suffix),
                    hoist_depth=prefix,
                )

    if cls.ordering == 0:
        reason = ("additive union of sparse operands must be merged before assembly"
                  if forced else
                  "values arrive denser than the result format stores them")
        action = InsertionAction.CONVERSION
    else:
        reason = (f"concordant but scattered across a reduction "
                  f"(order {cls.ordering}); accumulate first, assemble once")
        action = InsertionAction.FULL
    return InsertionDecision(
        action,
        reason,
        cls,
        i_vars=tuple(output_order),
        ow_order=tuple(range(len(output_order))),
        consumer_order=tuple(output_order),
    )


# -- applying a decision -------------------------------------------------------------


def _dim_symbols(i_vars: tuple[IndexVar, ...]) -> tuple[str, ...]:
    return tuple(v.name.upper() for v in i_vars)


def insert_sparse_workspace(
    stmt: Statement,
    formats: dict[str, Format],
    policy: Policy = Policy.BUCKET,
    capacity: int = 4096,
    *,
    ws_name: str = "W",
    hash_l: int | None = None,
    enable_dense: bool = True,
) -> tuple[Statement, InsertionDecision]:
    """Plan and apply workspace insertion; returns the rewritten statement
    (unchanged for NONE) together with the decision."""
    decision = plan_insertion(stmt, formats, enable_dense=enable_dense)
    if decision.action is InsertionAction.NONE:
        return stmt, decision

    assign = nest_assign(stmt)
    descriptor = WorkspaceDescriptor(
        order=len(decision.i_vars),
        dims=_dim_symbols(decision.i_vars),
        policy=policy,
        capacity=capacity,
        ow_order=decision.ow_order,
        hash_l=hash_l,
        kind=DENSE_WS if decision.action is InsertionAction.DENSE else SPARSE_WS,
    )

    # a hoisted workspace (the dense array too) is the same precompute, made
    # on the loops below the shared prefix
    vars_ = nest_vars(stmt)
    depth = decision.hoist_depth
    inner = build_nest(vars_[depth:], assign) if depth else stmt
    rewritten = precompute(
        inner,
        assign.rhs,
        decision.i_vars,
        None,
        descriptor,
        ws_name,
        consumer_order=decision.consumer_order,
    )
    return build_nest(vars_[:depth], rewritten), decision


# -- reporting ----------------------------------------------------------------------


def classification_report(stmt: Statement, formats: dict[str, Format],
                          decision: InsertionDecision | None = None) -> str:
    cls = classify(stmt, formats)
    lines = [
        f"statement:    {stmt}",
        f"loop order:   {', '.join(v.name for v in cls.loop_order)}",
        f"result order: {', '.join(v.name for v in cls.output_order)}",
        f"reductions:   {', '.join(v.name for v in cls.reduction_vars) or '(none)'}",
        f"p1={cls.p1}  p2={cls.p2}  ordering={cls.ordering}  "
        f"concordant={'yes' if cls.concordant else 'no'}",
        f"class:        {cls.label} ({cls.summary})",
    ]
    if decision is not None:
        lines.append(f"insertion:    {decision.action.value}")
        lines.append(f"reason:       {decision.reason}")
        if decision.needs_workspace:
            lines.append(
                "workspace:    over "
                + ", ".join(v.name for v in decision.i_vars)
                + f"; ow_order={list(decision.ow_order)}"
            )
    return "\n".join(lines)
