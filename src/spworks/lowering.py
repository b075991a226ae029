"""Lowering scheduled statements to imperative loop plans, and executing them.

A plan is a tree of loop nodes. Each loop is driven either by a dense range,
by one compressed tensor level, or by the two-pointer intersection of two
compressed levels; further operands resolve inside the loop through probes
(positional arithmetic for dense levels, binary search for compressed ones).
Workspace statements add the insert-sort-merge skeleton: inserts at the
innermost loop, a conditional drain when the accumulate array fills, a final
drain after the loops, and a compression of the sorted result into the
output format.

Execution compiles the plan into nested Python closures over flat state
cells, binds tensor storage once, and streams values through either the
result collector (append paths), a dense scatter array, or an IsmEngine.
"""

from __future__ import annotations

import bisect
import contextlib
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    InsertionAction,
    insert_sparse_workspace,
    plan_insertion,
    reconstruct_input_order,
)
from .ir import (
    Access,
    Add,
    Const,
    Expr,
    Forall,
    IndexVar,
    Mul,
    Statement,
    Where,
    WorkspaceDescriptor,
    expr_accesses,
    format_expr,
    nest_assign,
    nest_vars,
)
from .ism import Counters, IsmEngine, Policy, hash_default_l, row_major_strides
from .tensor import (
    Format,
    LevelFormat,
    LevelKind,
    Tensor,
    compress_arrays,
    from_dense,
)


class LoweringError(ValueError):
    pass


# -- plan nodes -----------------------------------------------------------------


@dataclass
class DenseRange:
    var: IndexVar


@dataclass
class LevelIter:
    aid: int
    tensor: str
    level: int


@dataclass
class Intersect:
    first: LevelIter
    second: LevelIter


@dataclass
class DenseStep:
    aid: int
    tensor: str
    level: int
    var: IndexVar


@dataclass
class Locate:
    aid: int
    tensor: str
    level: int
    var: IndexVar


@dataclass
class LoopNode:
    var: IndexVar
    driver: object
    probes: list = field(default_factory=list)
    body: list = field(default_factory=list)


@dataclass
class SetReg:
    pass


@dataclass
class AccumReg:
    expr: Expr
    amap: dict


@dataclass
class AppendRow:
    """Append the register value at the tracked output coordinates."""

    level_vars: tuple[IndexVar, ...]


@dataclass
class AppendCompute:
    level_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict


@dataclass
class ScatterDense:
    mode_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict


@dataclass
class IsmInsert:
    ws: str
    slot_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict


@dataclass
class AllocWs:
    ws: str


@dataclass
class FinalDrain:
    ws: str


@dataclass
class CompressWs:
    """Feed the sorted-unique workspace contents into the result collector,
    prefixed by the coordinates of any enclosing loops."""

    ws: str
    prefix_vars: tuple[IndexVar, ...]


@dataclass
class MaterializeWs:
    ws: str
    subplan: "Plan"


@dataclass
class DenseWsScatter:
    ws: str
    var: IndexVar
    expr: Expr
    amap: dict


@dataclass
class DenseWsGather:
    ws: str
    prefix_vars: tuple[IndexVar, ...]
    var: IndexVar


@dataclass
class DenseWsClear:
    ws: str


@dataclass
class WsMeta:
    name: str
    descriptor: WorkspaceDescriptor
    i_vars: tuple[IndexVar, ...]
    slot_vars: tuple[IndexVar, ...]
    dense: bool
    ws_format: Format | None = None
    subplan: "Plan | None" = None
    consumer_vars: tuple[IndexVar, ...] = ()


@dataclass
class Plan:
    stmt: Statement
    result: Access
    result_format: Format
    body: list
    operands: dict[str, Format]
    sites: dict[int, tuple[str, Access]]
    workspaces: list[WsMeta]


# -- lowering -------------------------------------------------------------------


def _flatten_terms(expr: Expr) -> list[Expr]:
    if isinstance(expr, Add):
        return _flatten_terms(expr.lhs) + _flatten_terms(expr.rhs)
    return [expr]


def _format_of(acc: Access, formats: dict[str, Format]) -> Format:
    try:
        return formats[acc.tensor]
    except KeyError:
        raise LoweringError(f"no format known for tensor {acc.tensor}") from None


def _check_term(term: Expr, formats: dict[str, Format]) -> None:
    def walk(e: Expr, under_add: bool) -> None:
        if isinstance(e, Access):
            if under_add and not _format_of(e, formats).all_dense():
                raise LoweringError(
                    f"sparse operand {e} appears inside an addition under a "
                    "product; distribute the product or precompute the sum")
        elif isinstance(e, Add):
            walk(e.lhs, True)
            walk(e.rhs, True)
        elif isinstance(e, Mul):
            walk(e.lhs, under_add)
            walk(e.rhs, under_add)

    walk(term, False)


@dataclass
class _Site:
    aid: int
    access: Access
    fmt: Format
    level_vars: list[IndexVar]


class _Lowerer:
    def __init__(self, formats: dict[str, Format]) -> None:
        self.formats = formats
        self.sites: dict[int, tuple[str, Access]] = {}
        self._next_aid = 0

    def _site(self, acc: Access) -> _Site:
        fmt = _format_of(acc, self.formats)
        if fmt.coo:
            raise LoweringError(
                f"operand {acc.tensor} is in coordinate form; convert it to a "
                "level format before executing")
        if fmt.order != len(acc.vars):
            raise LoweringError(
                f"access {acc} has {len(acc.vars)} variables but the format "
                f"of {acc.tensor} has order {fmt.order}")
        if len(set(acc.vars)) != len(acc.vars):
            raise LoweringError(f"access {acc} repeats an index variable")
        aid = self._next_aid
        self._next_aid += 1
        self.sites[aid] = (acc.tensor, acc)
        level_vars = [acc.vars[m] for m in fmt.mode_ordering]
        return _Site(aid, acc, fmt, level_vars)

    def build_pass(self, order: list[IndexVar], term: Expr,
                   ) -> tuple[list[LoopNode], LoopNode, dict]:
        """Create the loop chain for one pass; returns (root chain, innermost
        loop, access map for value reads)."""
        if not order:
            raise LoweringError("a pass needs at least one loop")
        amap: dict[Access, int] = {}
        sites: list[_Site] = []
        for acc in expr_accesses(term):
            if acc in amap:
                continue
            site = self._site(acc)
            amap[acc] = site.aid
            sites.append(site)
        posmap = {v: i for i, v in enumerate(order)}
        drivers: dict[int, list[LevelIter]] = {i: [] for i in range(len(order))}
        probes: dict[int, list] = {i: [] for i in range(len(order))}
        for site in sites:
            resolved = -1
            for lvl, v in enumerate(site.level_vars):
                if v not in posmap:
                    raise LoweringError(
                        f"variable {v.name} of access {site.access} is not "
                        "bound by the loop nest")
                own = posmap[v]
                kind = site.fmt.levels[lvl].kind
                if kind is LevelKind.COMPRESSED and own > resolved:
                    drivers[own].append(LevelIter(site.aid, site.access.tensor, lvl))
                    resolved = own
                else:
                    at = max(own, resolved)
                    cls = Locate if kind is LevelKind.COMPRESSED else DenseStep
                    probes[at].append(cls(site.aid, site.access.tensor, lvl, v))
                    resolved = at
        loops: list[LoopNode] = []
        for i, v in enumerate(order):
            cands = drivers[i]
            if len(cands) > 2:
                names = ", ".join(c.tensor for c in cands)
                raise LoweringError(
                    f"more than two compressed operands ({names}) co-iterate "
                    f"variable {v.name}; at most two can be intersected")
            if not cands:
                driver: object = DenseRange(v)
            elif len(cands) == 1:
                driver = cands[0]
            else:
                driver = Intersect(cands[0], cands[1])
            ordered_probes = sorted(probes[i], key=lambda p: (p.aid, p.level))
            loops.append(LoopNode(v, driver, ordered_probes, []))
        for outer, inner in zip(loops, loops[1:]):
            outer.body.append(inner)
        return loops, loops[-1], amap


def _storage_vars(acc: Access, fmt: Format) -> list[IndexVar]:
    return [acc.vars[m] for m in fmt.mode_ordering]


def _inverse(perm: tuple[int, ...]) -> list[int]:
    inv = [0] * len(perm)
    for m, s in enumerate(perm):
        inv[s] = m
    return inv


def lower(stmt: Statement, formats: dict[str, Format]) -> Plan:
    """Lower a statement (plain, or rewritten with a workspace) to a plan."""
    prefix: list[IndexVar] = []
    cursor = stmt
    while isinstance(cursor, Forall):
        prefix.append(cursor.var)
        cursor = cursor.body
    if isinstance(cursor, Where):
        return _lower_where(stmt, prefix, cursor, formats)
    return _lower_plain(stmt, formats)


def _lower_plain(stmt: Statement, formats: dict[str, Format]) -> Plan:
    assign = nest_assign(stmt)
    decision = plan_insertion(stmt, formats)
    if decision.action is not InsertionAction.NONE:
        raise LoweringError(
            "statement needs a workspace before lowering "
            f"({decision.action.value}: {decision.reason}); "
            "apply insert_sparse_workspace first")
    result_fmt = _format_of(assign.lhs, formats)
    order = reconstruct_input_order(stmt)
    low = _Lowerer(formats)
    body: list = []

    if result_fmt.all_dense():
        for term in _flatten_terms(assign.rhs):
            _check_term(term, formats)
            term_vars = set(v for a in expr_accesses(term) for v in a.vars)
            pass_order = [v for v in order
                          if v in term_vars or v in assign.lhs.vars]
            chain, innermost, amap = low.build_pass(pass_order, term)
            innermost.body.append(ScatterDense(assign.lhs.vars, term, amap))
            body.append(chain[0])
        return Plan(stmt, assign.lhs, result_fmt, body, _operand_formats(low, formats),
                    low.sites, [])

    if isinstance(assign.rhs, Add):
        raise LoweringError(
            "additive union into a sparse result needs a workspace")
    _check_term(assign.rhs, formats)
    reductions = [v for v in order if v not in assign.lhs.vars]
    r = order.index(reductions[0]) if reductions else len(order)
    chain, innermost, amap = low.build_pass(order, assign.rhs)
    level_vars = tuple(_storage_vars(assign.lhs, result_fmt))
    if r == len(order):
        innermost.body.append(AppendCompute(level_vars, assign.rhs, amap))
    else:
        if r == 0:
            raise LoweringError("reduction loops enclose the result variables; "
                                "a workspace is required")
        innermost.body.append(AccumReg(assign.rhs, amap))
        host = chain[r - 1]
        host.body = [SetReg(), *host.body, AppendRow(level_vars)]
    body.append(chain[0])
    return Plan(stmt, assign.lhs, result_fmt, body, _operand_formats(low, formats),
                low.sites, [])


def _operand_formats(low: _Lowerer, formats: dict[str, Format]) -> dict[str, Format]:
    return {name: formats[name] for name, _ in low.sites.values()}


def _producer_passes(low: _Lowerer, producer: Statement, i_vars: tuple[IndexVar, ...],
                     payload_for: "callable", formats: dict[str, Format]) -> list:
    p_assign = nest_assign(producer)
    order = reconstruct_input_order(producer)
    nodes: list = []
    for term in _flatten_terms(p_assign.rhs):
        _check_term(term, formats)
        term_vars = set(v for a in expr_accesses(term) for v in a.vars)
        pass_order = [v for v in order if v in term_vars or v in i_vars]
        chain, innermost, amap = low.build_pass(pass_order, term)
        innermost.body.append(payload_for(term, amap))
        nodes.append(chain[0])
    return nodes


def _lower_where(root: Statement, prefix: list[IndexVar], where: Where,
                 formats: dict[str, Format]) -> Plan:
    descriptor = where.descriptor
    ws = where.ws
    producer = where.producer
    consumer = where.consumer
    p_assign = nest_assign(producer)
    c_assign = nest_assign(consumer)
    i_vars = p_assign.lhs.vars
    result_fmt = _format_of(c_assign.lhs, formats)
    low = _Lowerer(formats)

    if prefix:
        return _lower_hoisted(root, prefix, where, formats, low)

    if descriptor.dense:
        raise LoweringError("a dense workspace only applies under a loop prefix")

    inv = _inverse(descriptor.ow_order)
    slot_vars = tuple(i_vars[m] for m in inv)
    passes = _producer_passes(
        low, producer, i_vars,
        lambda term, amap: IsmInsert(ws, slot_vars, term, amap), formats)
    consumer_vars = nest_vars(consumer)
    o_vars = c_assign.rhs.vars if isinstance(c_assign.rhs, Access) else ()
    consumer_slots = tuple(o_vars[m] for m in inv) if o_vars else ()
    straight = (
        isinstance(c_assign.rhs, Access)
        and c_assign.rhs.tensor == ws
        and not c_assign.accumulate
        and tuple(consumer_vars) == consumer_slots
        and _storage_vars(c_assign.lhs, result_fmt) == list(consumer_slots)
    )
    ws_accesses = [a for a in expr_accesses(c_assign.rhs) if a.tensor == ws]
    renames = ws_accesses[0].vars if ws_accesses else ()
    if straight:
        body = [AllocWs(ws), *passes, FinalDrain(ws), CompressWs(ws, ())]
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars, dense=False,
                      consumer_vars=renames)
    else:
        ws_format = Format(
            tuple(LevelFormat(LevelKind.COMPRESSED) for _ in i_vars),
            tuple(inv),
            name=f"ws-{descriptor.policy.label.lower()}",
        )
        sub_formats = {**formats, ws: ws_format}
        inner_name = ws
        while inner_name in sub_formats:
            inner_name += "'"
        rewritten, _ = insert_sparse_workspace(
            consumer, sub_formats, descriptor.policy, descriptor.capacity,
            ws_name=inner_name, hash_l=descriptor.hash_l)
        subplan = lower(rewritten, sub_formats)
        body = [AllocWs(ws), *passes, FinalDrain(ws), MaterializeWs(ws, subplan)]
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars,
                      dense=False, ws_format=ws_format, subplan=subplan,
                      consumer_vars=renames)

    operands = _operand_formats(low, formats)
    if meta.subplan is not None:
        for name, fmt in meta.subplan.operands.items():
            if name != ws:
                operands.setdefault(name, fmt)
    return Plan(root, c_assign.lhs, result_fmt, body, operands, low.sites, [meta])


def _lower_hoisted(root: Statement, prefix: list[IndexVar], where: Where,
                   formats: dict[str, Format], low: _Lowerer) -> Plan:
    """Workspace under a loop prefix: one loop chain spans the prefix and the
    producer loops; the drain and gather run once per prefix iteration."""
    descriptor = where.descriptor
    ws = where.ws
    p_assign = nest_assign(where.producer)
    c_assign = nest_assign(where.consumer)
    i_vars = p_assign.lhs.vars
    result_fmt = _format_of(c_assign.lhs, formats)
    if where.relations or where.producer.relations:
        raise LoweringError("a workspace under a loop prefix cannot be scheduled")
    if not (isinstance(c_assign.rhs, Access) and c_assign.rhs.tensor == ws):
        raise LoweringError(
            "a workspace nested under loops must be consumed by a direct copy "
            "into the result")
    term = p_assign.rhs
    if isinstance(term, Add):
        raise LoweringError("a hoisted workspace covers a single product term")
    _check_term(term, formats)
    term_vars = set(v for a in expr_accesses(term) for v in a.vars)
    full_order = list(prefix) + nest_vars(where.producer)
    pass_order = [v for v in full_order
                  if v in prefix or v in term_vars or v in i_vars]
    chain, innermost, amap = low.build_pass(pass_order, term)
    depth = len(prefix)
    host = chain[depth - 1]
    inner_root = chain[depth]

    if descriptor.dense:
        if descriptor.order != 1:
            raise LoweringError("a dense workspace covers exactly one dimension")
        var = i_vars[0]
        innermost.body.append(DenseWsScatter(ws, var, term, amap))
        host.body = [inner_root,
                     DenseWsGather(ws, tuple(prefix), var),
                     DenseWsClear(ws)]
        meta = WsMeta(ws, descriptor, tuple(i_vars), tuple(i_vars), dense=True)
    else:
        inv = _inverse(descriptor.ow_order)
        slot_vars = tuple(i_vars[m] for m in inv)
        innermost.body.append(IsmInsert(ws, slot_vars, term, amap))
        host.body = [AllocWs(ws), inner_root, FinalDrain(ws),
                     CompressWs(ws, tuple(prefix))]
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars, dense=False)

    return Plan(root, c_assign.lhs, result_fmt, [chain[0]],
                _operand_formats(low, formats), low.sites, [meta])


# -- plan printing -----------------------------------------------------------------


def _driver_str(driver: object) -> str:
    if isinstance(driver, DenseRange):
        return f"range({driver.var.name.upper()})"
    if isinstance(driver, LevelIter):
        return f"{driver.tensor}.level({driver.level})"
    if isinstance(driver, Intersect):
        return f"{_driver_str(driver.first)} & {_driver_str(driver.second)}"
    raise LoweringError(f"unknown driver {driver!r}")


def _emit(node: object, out: list[str], depth: int, plan: Plan) -> None:
    pad = "  " * depth
    if isinstance(node, LoopNode):
        out.append(f"{pad}forall {node.var.name} in {_driver_str(node.driver)}:")
        for probe in node.probes:
            if isinstance(probe, Locate):
                out.append(f"{pad}  locate {probe.var.name} in "
                           f"{probe.tensor}.level({probe.level})")
        for child in node.body:
            _emit(child, out, depth + 1, plan)
    elif isinstance(node, SetReg):
        out.append(f"{pad}val = 0")
    elif isinstance(node, AccumReg):
        out.append(f"{pad}val += {format_expr(node.expr)}")
    elif isinstance(node, AppendRow):
        coords = ", ".join(v.name for v in node.level_vars)
        out.append(f"{pad}append ({coords}) -> {plan.result.tensor}")
    elif isinstance(node, AppendCompute):
        coords = ", ".join(v.name for v in node.level_vars)
        out.append(f"{pad}append ({coords}) = {format_expr(node.expr)} "
                   f"-> {plan.result.tensor}")
    elif isinstance(node, ScatterDense):
        coords = ", ".join(v.name for v in node.mode_vars)
        out.append(f"{pad}{plan.result.tensor}[{coords}] += {format_expr(node.expr)}")
    elif isinstance(node, IsmInsert):
        coords = ", ".join(v.name for v in node.slot_vars)
        out.append(f"{pad}val = {format_expr(node.expr)}")
        out.append(f"{pad}insert ({coords}) -> Acc")
        out.append(f"{pad}if Acc.full:")
        out.append(f"{pad}  sort Acc")
        out.append(f"{pad}  merge Acc -> All")
        out.append(f"{pad}  insert ({coords}) -> Acc")
    elif isinstance(node, AllocWs):
        meta = _meta_for(plan, node.ws)
        out.append(f"{pad}workspace {node.ws}: {meta.descriptor}")
    elif isinstance(node, FinalDrain):
        out.append(f"{pad}sort Acc")
        out.append(f"{pad}merge Acc -> All")
    elif isinstance(node, CompressWs):
        if node.prefix_vars:
            coords = ", ".join(v.name for v in node.prefix_vars)
            out.append(f"{pad}append segment ({coords}, :) <- All "
                       f"-> {plan.result.tensor}")
        else:
            out.append(f"{pad}compress All -> {plan.result.tensor}")
    elif isinstance(node, MaterializeWs):
        out.append(f"{pad}materialize All -> {node.ws}")
        out.append(f"{pad}consume:")
        for line in print_plan(node.subplan).splitlines():
            out.append(f"{pad}  {line}")
    elif isinstance(node, DenseWsScatter):
        out.append(f"{pad}{node.ws}[{node.var.name}] += {format_expr(node.expr)}")
    elif isinstance(node, DenseWsGather):
        if node.prefix_vars:
            coords = ", ".join(v.name for v in node.prefix_vars)
            out.append(f"{pad}gather nonzeros {node.ws} -> "
                       f"{plan.result.tensor}({coords}, :)")
        else:
            out.append(f"{pad}gather nonzeros {node.ws} -> {plan.result.tensor}")
    elif isinstance(node, DenseWsClear):
        out.append(f"{pad}clear {node.ws}")
    else:
        raise LoweringError(f"unknown plan node {node!r}")


def _meta_for(plan: Plan, ws: str) -> WsMeta:
    for meta in plan.workspaces:
        if meta.name == ws:
            return meta
    raise LoweringError(f"plan has no workspace named {ws}")


def print_plan(plan: Plan) -> str:
    out: list[str] = [f"plan: {plan.stmt}"]
    for meta in plan.workspaces:
        if not _contains_alloc(plan.body, meta.name):
            out.append(f"workspace {meta.name}: {meta.descriptor}")
    for node in plan.body:
        _emit(node, out, 0, plan)
    return "\n".join(out)


def _contains_alloc(nodes: list, ws: str) -> bool:
    for node in nodes:
        if isinstance(node, AllocWs) and node.ws == ws:
            return True
        if isinstance(node, LoopNode) and _contains_alloc(node.body, ws):
            return True
    return False


# -- execution ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionOptions:
    pipeline: bool = False
    double_buffer: bool = False
    allow_growth: bool = False


@dataclass
class ExecutionResult:
    tensor: Tensor
    counters: Counters


class _Collector:
    """Ordered sink for result rows in storage-level order."""

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self._buf: list[list[int]] = [[] for _ in range(levels)]
        self._buf_vals: list[float] = []
        self._chunks: list[tuple[list[np.ndarray], np.ndarray]] = []

    def append(self, coords: tuple[int, ...], val: float) -> None:
        for buf, c in zip(self._buf, coords):
            buf.append(c)
        self._buf_vals.append(val)

    def _flush(self) -> None:
        if self._buf_vals:
            self._chunks.append((
                [np.asarray(b, dtype=np.int64) for b in self._buf],
                np.asarray(self._buf_vals, dtype=np.float64),
            ))
            self._buf = [[] for _ in range(self.levels)]
            self._buf_vals = []

    def extend(self, coords: list[np.ndarray], vals: np.ndarray) -> None:
        self._flush()
        if len(vals):
            self._chunks.append(([np.asarray(c, dtype=np.int64) for c in coords],
                                 np.asarray(vals, dtype=np.float64)))

    def finalize(self) -> tuple[list[np.ndarray], np.ndarray]:
        self._flush()
        if not self._chunks:
            empty = [np.empty(0, dtype=np.int64) for _ in range(self.levels)]
            return empty, np.empty(0, dtype=np.float64)
        coords = [np.concatenate([chunk[0][l] for chunk in self._chunks])
                  for l in range(self.levels)]
        vals = np.concatenate([chunk[1] for chunk in self._chunks])
        return coords, vals


class _Execution:
    def __init__(self, plan: Plan, tensors: dict[str, Tensor],
                 options: ExecutionOptions) -> None:
        self.plan = plan
        self.tensors = tensors
        self.options = options
        self.counters = Counters()
        self._validate_and_bind()
        self.vals: list[int] = [0] * len(self.cells)
        self.cur: dict[int, list[int]] = {
            aid: [0] * (self.tensors[name].order + 1)
            for aid, (name, _) in plan.sites.items()
        }
        self.reg = [0.0]
        # one engine per sparse workspace, built at its first AllocWs and
        # closed by the stack when run() ends
        self.engines: dict[str, IsmEngine] = {}
        self.stack = contextlib.ExitStack()
        self.buffers = {meta.name: [0.0] * self.extents[meta.slot_vars[0]]
                        for meta in plan.workspaces if meta.dense}
        self.override: Tensor | None = None
        if not plan.result_format.all_dense():
            self.collector = _Collector(plan.result_format.order)
        else:
            shape = tuple(self.extents[v] for v in plan.result.vars)
            self.dense_out = np.zeros(shape, dtype=np.float64)

    def _hash_l(self, meta: WsMeta) -> int | None:
        """The hash table width: the descriptor's, else one sized from the
        operand nonzeros."""
        if meta.descriptor.policy is not Policy.HASH:
            return None
        if meta.descriptor.hash_l is not None:
            return meta.descriptor.hash_l
        est = sum(t.nnz for name, t in self.tensors.items()
                  if name in self.plan.operands and not t.format.all_dense())
        return hash_default_l(max(est, 1))

    def _validate_and_bind(self) -> None:
        plan = self.plan
        for name, fmt in plan.operands.items():
            if name not in self.tensors:
                raise LoweringError(f"no tensor bound for operand {name}")
            actual = self.tensors[name].format
            if actual != fmt:
                raise LoweringError(
                    f"tensor {name} is stored as {actual} but the plan was "
                    f"lowered for {fmt}")
        self._bind_extents()
        for v in plan.result.vars:
            if v not in self.extents:
                raise LoweringError(
                    f"cannot size result dimension {v.name}; no operand binds it")
        # one cell per loop variable, in preorder of the loop tree
        cells: dict[IndexVar, int] = {}
        pending = list(reversed(plan.body))
        while pending:
            node = pending.pop()
            if isinstance(node, LoopNode):
                cells.setdefault(node.var, len(cells))
                pending.extend(reversed(node.body))
        for v in plan.result.vars:
            cells.setdefault(v, len(cells))
        self.cells = cells
        self._levels: dict[str, list] = {}
        self._tvals: dict[str, list[float]] = {}
        for name in plan.operands:
            t = self.tensors[name]
            lv = []
            for l in range(t.order):
                level = t.levels[l]
                if t.format.levels[l].kind is LevelKind.DENSE:
                    lv.append(("d", level.extent))
                else:
                    lv.append(("c", level.pos.tolist(), level.crd.tolist()))
            self._levels[name] = lv
            self._tvals[name] = t.vals.tolist()

    def _bind_extents(self) -> None:
        """Size each index variable from the tensors at the plan's sites, then
        from those of the nested consumer plans, in preorder. A nested plan
        can be the only binding site for a result dimension; its workspace
        operand is not a tensor yet and binds nothing."""
        self.extents: dict[IndexVar, int] = {}
        pending = [self.plan]
        while pending:
            plan = pending.pop()
            for name, acc in plan.sites.values():
                t = self.tensors.get(name)
                if t is None:
                    continue
                for m, v in enumerate(acc.vars):
                    e = t.dims[m]
                    prev = self.extents.setdefault(v, e)
                    if prev != e:
                        raise LoweringError(
                            f"dimension mismatch for {v.name}: {prev} vs {e} "
                            f"(from {name})")
            if plan is self.plan:
                # consumer-side renamings range over the producer's dimensions
                for meta in plan.workspaces:
                    for m, v in enumerate(meta.consumer_vars):
                        if meta.i_vars[m] in self.extents:
                            self.extents.setdefault(v, self.extents[meta.i_vars[m]])
            pending.extend(meta.subplan for meta in reversed(plan.workspaces)
                           if meta.subplan is not None)

    # -- closure compilation -------------------------------------------------

    def _compile_expr(self, expr: Expr, amap: dict):
        if isinstance(expr, Const):
            c = expr.value
            return lambda: c
        if isinstance(expr, Access):
            aid = amap[expr]
            vals = self._tvals[expr.tensor]
            cur = self.cur[aid]
            last = len(expr.vars)
            return lambda: vals[cur[last]]
        if isinstance(expr, Add):
            f = self._compile_expr(expr.lhs, amap)
            g = self._compile_expr(expr.rhs, amap)
            return lambda: f() + g()
        if isinstance(expr, Mul):
            f = self._compile_expr(expr.lhs, amap)
            g = self._compile_expr(expr.rhs, amap)
            return lambda: f() * g()
        raise LoweringError(f"unknown expression node {expr!r}")

    def _compile_seq(self, nodes: list):
        fns = [self._compile_node(n) for n in nodes]
        if len(fns) == 1:
            return fns[0]

        def run() -> None:
            for f in fns:
                f()

        return run

    def _compile_probe_chain(self, probes: list, body):
        nxt = body
        for probe in reversed(probes):
            nxt = self._compile_probe(probe, nxt)
        return nxt

    def _compile_probe(self, probe, nxt):
        cur = self.cur[probe.aid]
        lvl = probe.level
        cell = self.cells[probe.var]
        vals = self.vals
        if isinstance(probe, DenseStep):
            ext = self._levels[probe.tensor][lvl][1]

            def dense_step() -> None:
                cur[lvl + 1] = cur[lvl] * ext + vals[cell]
                nxt()

            return dense_step
        _, pos, crd = self._levels[probe.tensor][lvl]
        bl = bisect.bisect_left

        def locate() -> None:
            p = cur[lvl]
            lo, hi = pos[p], pos[p + 1]
            t = vals[cell]
            at = bl(crd, t, lo, hi)
            if at < hi and crd[at] == t:
                cur[lvl + 1] = at
                nxt()

        return locate

    def _compile_loop(self, node: LoopNode):
        body = self._compile_probe_chain(node.probes, self._compile_seq(node.body))
        cell = self.cells[node.var]
        vals = self.vals
        driver = node.driver
        if isinstance(driver, DenseRange):
            ext = self.extents[driver.var]

            def run_range() -> None:
                for c in range(ext):
                    vals[cell] = c
                    body()

            return run_range
        if isinstance(driver, LevelIter):
            _, pos, crd = self._levels[driver.tensor][driver.level]
            cur = self.cur[driver.aid]
            lvl = driver.level

            def run_level() -> None:
                p = cur[lvl]
                for at in range(pos[p], pos[p + 1]):
                    vals[cell] = crd[at]
                    cur[lvl + 1] = at
                    body()

            return run_level
        a, b = driver.first, driver.second
        _, pos_a, crd_a = self._levels[a.tensor][a.level]
        _, pos_b, crd_b = self._levels[b.tensor][b.level]
        cur_a, cur_b = self.cur[a.aid], self.cur[b.aid]
        la, lb = a.level, b.level

        def run_intersect() -> None:
            pa = cur_a[la]
            pb = cur_b[lb]
            ia, ea = pos_a[pa], pos_a[pa + 1]
            ib, eb = pos_b[pb], pos_b[pb + 1]
            while ia < ea and ib < eb:
                ca = crd_a[ia]
                cb = crd_b[ib]
                if ca < cb:
                    ia += 1
                elif cb < ca:
                    ib += 1
                else:
                    vals[cell] = ca
                    cur_a[la + 1] = ia
                    cur_b[lb + 1] = ib
                    body()
                    ia += 1
                    ib += 1

        return run_intersect

    def _compile_node(self, node):
        vals = self.vals
        if isinstance(node, LoopNode):
            return self._compile_loop(node)
        if isinstance(node, SetReg):
            reg = self.reg

            def set_reg() -> None:
                reg[0] = 0.0

            return set_reg
        if isinstance(node, AccumReg):
            f = self._compile_expr(node.expr, node.amap)
            reg = self.reg

            def accum() -> None:
                reg[0] += f()

            return accum
        if isinstance(node, AppendRow):
            cs = [self.cells[v] for v in node.level_vars]
            reg = self.reg
            append = self.collector.append

            def emit_row() -> None:
                append(tuple(vals[c] for c in cs), reg[0])

            return emit_row
        if isinstance(node, AppendCompute):
            cs = [self.cells[v] for v in node.level_vars]
            f = self._compile_expr(node.expr, node.amap)
            append = self.collector.append

            def emit() -> None:
                append(tuple(vals[c] for c in cs), f())

            return emit
        if isinstance(node, ScatterDense):
            strides = row_major_strides(self.dense_out.shape)
            cs = list(zip((self.cells[v] for v in node.mode_vars), strides))
            out = self.dense_out.reshape(-1)
            f = self._compile_expr(node.expr, node.amap)

            def scatter() -> None:
                at = 0
                for c, s in cs:
                    at += vals[c] * s
                out[at] += f()

            return scatter
        if isinstance(node, IsmInsert):
            strides = row_major_strides([self.extents[v] for v in node.slot_vars])
            cs = list(zip((self.cells[v] for v in node.slot_vars), strides))
            f = self._compile_expr(node.expr, node.amap)
            engines = self.engines
            ws = node.ws

            def insert() -> None:
                at = 0
                for c, s in cs:
                    at += vals[c] * s
                engines[ws].insert_key(at, f())

            return insert
        if isinstance(node, AllocWs):
            meta = _meta_for(self.plan, node.ws)
            exts = [self.extents[v] for v in meta.slot_vars]
            hash_l = self._hash_l(meta)
            opts = self.options
            engines = self.engines
            enter = self.stack.enter_context

            def alloc() -> None:
                engine = engines.get(node.ws)
                if engine is not None:
                    engine.reset()
                    return
                engines[node.ws] = enter(IsmEngine(
                    exts,
                    meta.descriptor.policy,
                    meta.descriptor.capacity,
                    hash_l=hash_l,
                    double_buffer=opts.double_buffer,
                    pipeline=opts.pipeline,
                    allow_growth=opts.allow_growth,
                ))

            return alloc
        if isinstance(node, FinalDrain):
            engines = self.engines

            def drain() -> None:
                engines[node.ws].finalize()

            return drain
        if isinstance(node, CompressWs):
            engines = self.engines
            cs = [self.cells[v] for v in node.prefix_vars]
            collector = self.collector

            def gather() -> None:
                coords, wvals = engines[node.ws].result()
                n = len(wvals)
                prefix = [np.full(n, vals[c], dtype=np.int64) for c in cs]
                collector.extend(prefix + coords, wvals)

            return gather
        if isinstance(node, MaterializeWs):
            meta = _meta_for(self.plan, node.ws)
            return self._compile_materialize(node, meta)
        if isinstance(node, DenseWsScatter):
            buf = self.buffers[node.ws]
            cell = self.cells[node.var]
            f = self._compile_expr(node.expr, node.amap)
            counters = self.counters

            def ws_scatter() -> None:
                buf[vals[cell]] += f()
                counters.inserts += 1

            return ws_scatter
        if isinstance(node, DenseWsGather):
            buf = self.buffers[node.ws]
            cs = [self.cells[v] for v in node.prefix_vars]
            append = self.collector.append

            def ws_gather() -> None:
                head = tuple(vals[c] for c in cs)
                for c, v in enumerate(buf):
                    if v != 0.0:
                        append(head + (c,), v)

            return ws_gather
        if isinstance(node, DenseWsClear):
            buf = self.buffers[node.ws]
            zeros = [0.0] * len(buf)

            def clear() -> None:
                buf[:] = zeros

            return clear
        raise LoweringError(f"unknown plan node {node!r}")

    def _compile_materialize(self, node: MaterializeWs, meta: WsMeta):
        engines = self.engines
        i_vars = meta.i_vars
        inv = {s: m for m, s in enumerate(meta.descriptor.ow_order)}

        def materialize() -> None:
            slot_coords, wvals = engines[node.ws].result()
            order = len(i_vars)
            mode_coords: list[np.ndarray] = [None] * order  # type: ignore[list-item]
            for s in range(order):
                mode_coords[inv[s]] = slot_coords[s]
            dims = tuple(self.extents[v] for v in i_vars)
            ws_tensor = compress_arrays(mode_coords, wvals, meta.ws_format, dims)
            sub = execute(node.subplan, {**self.tensors, node.ws: ws_tensor},
                          self.options)
            self.counters.merge(sub.counters)
            self.override = sub.tensor

        return materialize

    def run(self) -> ExecutionResult:
        with self.stack:
            if self.plan.body:
                self._compile_seq(self.plan.body)()
        for engine in self.engines.values():
            self.counters.merge(engine.counters)
        if self.override is not None:
            return ExecutionResult(self.override, self.counters)
        fmt = self.plan.result_format
        dims = tuple(self.extents[v] for v in self.plan.result.vars)
        if fmt.all_dense():
            tensor = from_dense(self.dense_out, fmt)
        else:
            level_coords, out_vals = self.collector.finalize()
            mode_coords: list[np.ndarray] = [None] * fmt.order  # type: ignore[list-item]
            for l, m in enumerate(fmt.mode_ordering):
                mode_coords[m] = level_coords[l]
            tensor = compress_arrays(mode_coords, out_vals, fmt, dims)
        return ExecutionResult(tensor, self.counters)


def execute(plan: Plan, tensors: dict[str, Tensor],
            options: ExecutionOptions | None = None) -> ExecutionResult:
    """Bind tensors to a plan and run it, returning the result tensor and the
    aggregated runtime counters."""
    return _Execution(plan, tensors, options or ExecutionOptions()).run()
