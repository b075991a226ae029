"""Lowering scheduled statements to imperative loop plans, and executing them.

A plan is a tree of loop nodes. Each loop is driven either by a dense range,
by one compressed tensor level, or by the two-pointer intersection of two
compressed levels; further operands resolve inside the loop through probes
(positional arithmetic for dense levels, binary search for compressed ones).
Workspace statements add the insert-sort-merge skeleton: inserts at the
innermost loop, a conditional drain when the accumulate array fills, a final
drain after the loops, and a compression of the sorted result into the
output format.

Each node kind prints its own plan lines and compiles its own closure.
Execution binds tensor storage once, compiles the plan into nested Python
closures over flat state cells, and streams values through either the result
collector (append paths), a dense scatter array, or an IsmEngine.
"""

from __future__ import annotations

import bisect
import contextlib
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    InsertionAction,
    _format_of,
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
    access_map,
    compress_arrays,
    from_dense,
)


class LoweringError(ValueError):
    pass


# -- plan nodes -----------------------------------------------------------------
#
# Every node kind prints and compiles itself. A statement node's ``lines``
# returns its plan text, unindented, and its ``compile`` returns a closure
# over the execution's state cells. Drivers print through ``str`` and compile
# around their loop's body; probes compile around the rest of the chain.


@dataclass
class DenseRange:
    var: IndexVar

    def __str__(self) -> str:
        return f"range({self.var.name.upper()})"

    def compile(self, ex: _Execution, cell: int, body):
        ext = ex.extents[self.var]
        vals = ex.vals

        def run_range() -> None:
            for c in range(ext):
                vals[cell] = c
                body()

        return run_range


@dataclass
class LevelIter:
    aid: int
    tensor: str
    level: int

    def __str__(self) -> str:
        return f"{self.tensor}.level({self.level})"

    def compile(self, ex: _Execution, cell: int, body):
        _, pos, crd = ex._levels[self.tensor][self.level]
        cur = ex.cur[self.aid]
        lvl = self.level
        vals = ex.vals

        def run_level() -> None:
            p = cur[lvl]
            for at in range(pos[p], pos[p + 1]):
                vals[cell] = crd[at]
                cur[lvl + 1] = at
                body()

        return run_level


@dataclass
class Intersect:
    first: LevelIter
    second: LevelIter

    def __str__(self) -> str:
        return f"{self.first} & {self.second}"

    def compile(self, ex: _Execution, cell: int, body):
        a, b = self.first, self.second
        _, pos_a, crd_a = ex._levels[a.tensor][a.level]
        _, pos_b, crd_b = ex._levels[b.tensor][b.level]
        cur_a, cur_b = ex.cur[a.aid], ex.cur[b.aid]
        la, lb = a.level, b.level
        vals = ex.vals

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


@dataclass
class DenseStep:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return []

    def compile(self, ex: _Execution, nxt):
        cur = ex.cur[self.aid]
        lvl = self.level
        cell = ex.cells[self.var]
        vals = ex.vals
        ext = ex._levels[self.tensor][lvl][1]

        def dense_step() -> None:
            cur[lvl + 1] = cur[lvl] * ext + vals[cell]
            nxt()

        return dense_step


@dataclass
class Locate:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return [f"locate {self.var.name} in {self.tensor}.level({self.level})"]

    def compile(self, ex: _Execution, nxt):
        cur = ex.cur[self.aid]
        lvl = self.level
        cell = ex.cells[self.var]
        vals = ex.vals
        _, pos, crd = ex._levels[self.tensor][lvl]
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


@dataclass
class LoopNode:
    var: IndexVar
    driver: DenseRange | LevelIter | Intersect
    probes: list = field(default_factory=list)
    body: list = field(default_factory=list)

    def lines(self, plan: Plan) -> list[str]:
        out = [f"forall {self.var.name} in {self.driver}:"]
        for node in [*self.probes, *self.body]:
            out += ["  " + line for line in node.lines(plan)]
        return out

    def compile(self, ex: _Execution):
        body = ex._compile_seq(self.body)
        for probe in reversed(self.probes):
            body = probe.compile(ex, body)
        return self.driver.compile(ex, ex.cells[self.var], body)


@dataclass
class SetReg:
    def lines(self, plan: Plan) -> list[str]:
        return ["val = 0"]

    def compile(self, ex: _Execution):
        reg = ex.reg

        def set_reg() -> None:
            reg[0] = 0.0

        return set_reg


@dataclass
class AccumReg:
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return [f"val += {format_expr(self.expr)}"]

    def compile(self, ex: _Execution):
        f = ex._compile_expr(self.expr, self.amap)
        reg = ex.reg

        def accum() -> None:
            reg[0] += f()

        return accum


@dataclass
class AppendRow:
    """Append the register value at the tracked output coordinates."""

    level_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) -> {plan.result.tensor}"]

    def compile(self, ex: _Execution):
        cs = [ex.cells[v] for v in self.level_vars]
        vals = ex.vals
        reg = ex.reg
        append = ex.collector.append

        def emit_row() -> None:
            append(tuple(vals[c] for c in cs), reg[0])

        return emit_row


@dataclass
class AppendCompute:
    level_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) = {format_expr(self.expr)} "
                f"-> {plan.result.tensor}"]

    def compile(self, ex: _Execution):
        cs = [ex.cells[v] for v in self.level_vars]
        vals = ex.vals
        f = ex._compile_expr(self.expr, self.amap)
        append = ex.collector.append

        def emit() -> None:
            append(tuple(vals[c] for c in cs), f())

        return emit


@dataclass
class ScatterDense:
    mode_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.mode_vars)
        return [f"{plan.result.tensor}[{coords}] += {format_expr(self.expr)}"]

    def compile(self, ex: _Execution):
        strides = row_major_strides(ex.dense_out.shape)
        cs = list(zip((ex.cells[v] for v in self.mode_vars), strides))
        vals = ex.vals
        out = ex.dense_out.reshape(-1)
        f = ex._compile_expr(self.expr, self.amap)

        def scatter() -> None:
            at = 0
            for c, s in cs:
                at += vals[c] * s
            out[at] += f()

        return scatter


# a drain: IsmInsert runs one when Acc is full, and CompressWs and
# MaterializeWs run the final one through IsmEngine.result()
_DRAIN_LINES = ["sort Acc", "merge Acc -> All"]


@dataclass
class IsmInsert:
    ws: str
    slot_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.slot_vars)
        insert = f"insert ({coords}) -> Acc"
        return [f"val = {format_expr(self.expr)}", insert, "if Acc.full:",
                *("  " + line for line in [*_DRAIN_LINES, insert])]

    def compile(self, ex: _Execution):
        strides = row_major_strides([ex.extents[v] for v in self.slot_vars])
        cs = list(zip((ex.cells[v] for v in self.slot_vars), strides))
        vals = ex.vals
        f = ex._compile_expr(self.expr, self.amap)
        engines = ex.engines
        ws = self.ws

        def insert() -> None:
            at = 0
            for c, s in cs:
                at += vals[c] * s
            engines[ws].insert_key(at, f())

        return insert


@dataclass
class AllocWs:
    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        return [f"workspace {self.meta.name}: {self.meta.descriptor}"]

    def compile(self, ex: _Execution):
        meta = self.meta
        ws = meta.name
        exts = [ex.extents[v] for v in meta.slot_vars]
        hash_l = ex._hash_l(meta)
        opts = ex.options
        engines = ex.engines
        enter = ex.stack.enter_context

        def alloc() -> None:
            engine = engines.get(ws)
            if engine is not None:
                engine.reset()
                return
            engines[ws] = enter(IsmEngine(
                exts,
                meta.descriptor.policy,
                meta.descriptor.capacity,
                hash_l=hash_l,
                double_buffer=opts.double_buffer,
                pipeline=opts.pipeline,
                allow_growth=opts.allow_growth,
            ))

        return alloc


@dataclass
class CompressWs:
    """Drain the workspace and feed its sorted-unique contents into the result
    collector, prefixed by the coordinates of any enclosing loops."""

    ws: str
    prefix_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        if self.prefix_vars:
            coords = ", ".join(v.name for v in self.prefix_vars)
            return [*_DRAIN_LINES,
                    f"append segment ({coords}, :) <- All -> {plan.result.tensor}"]
        return [*_DRAIN_LINES, f"compress All -> {plan.result.tensor}"]

    def compile(self, ex: _Execution):
        engines = ex.engines
        cs = [ex.cells[v] for v in self.prefix_vars]
        vals = ex.vals
        collector = ex.collector
        ws = self.ws

        def gather() -> None:
            coords, wvals = engines[ws].result()
            n = len(wvals)
            prefix = [np.full(n, vals[c], dtype=np.int64) for c in cs]
            collector.extend(prefix + coords, wvals)

        return gather


@dataclass
class MaterializeWs:
    """Drain the workspace into a tensor in its workspace format and run the
    consumer's plan over it."""

    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        sub = print_plan(self.meta.subplan).splitlines()
        return [*_DRAIN_LINES, f"materialize All -> {self.meta.name}", "consume:",
                *("  " + line for line in sub)]

    def compile(self, ex: _Execution):
        meta = self.meta
        engines = ex.engines
        i_vars = meta.i_vars
        inv = {s: m for m, s in enumerate(meta.descriptor.ow_order)}

        def materialize() -> None:
            slot_coords, wvals = engines[meta.name].result()
            order = len(i_vars)
            mode_coords: list[np.ndarray] = [None] * order  # type: ignore[list-item]
            for s in range(order):
                mode_coords[inv[s]] = slot_coords[s]
            dims = tuple(ex.extents[v] for v in i_vars)
            ws_tensor = compress_arrays(mode_coords, wvals, meta.ws_format, dims)
            sub = execute(meta.subplan, {**ex.tensors, meta.name: ws_tensor},
                          ex.options)
            ex.counters.merge(sub.counters)
            ex.override = sub.tensor

        return materialize


@dataclass
class DenseWsScatter:
    ws: str
    var: IndexVar
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return [f"{self.ws}[{self.var.name}] += {format_expr(self.expr)}"]

    def compile(self, ex: _Execution):
        buf = ex.buffers[self.ws]
        cell = ex.cells[self.var]
        vals = ex.vals
        f = ex._compile_expr(self.expr, self.amap)
        counters = ex.counters

        def ws_scatter() -> None:
            buf[vals[cell]] += f()
            counters.inserts += 1

        return ws_scatter


@dataclass
class DenseWsGather:
    """Append the nonzeros of a dense workspace, then zero it."""

    ws: str
    prefix_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        target = plan.result.tensor
        if self.prefix_vars:
            coords = ", ".join(v.name for v in self.prefix_vars)
            target += f"({coords}, :)"
        return [f"gather nonzeros {self.ws} -> {target}", f"clear {self.ws}"]

    def compile(self, ex: _Execution):
        buf = ex.buffers[self.ws]
        zeros = [0.0] * len(buf)
        cs = [ex.cells[v] for v in self.prefix_vars]
        vals = ex.vals
        append = ex.collector.append

        def ws_gather() -> None:
            head = tuple(vals[c] for c in cs)
            for c, v in enumerate(buf):
                if v != 0.0:
                    append(head + (c,), v)
            buf[:] = zeros

        return ws_gather


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
    level_vars: tuple[IndexVar, ...]


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
        if len(set(acc.vars)) != len(acc.vars):
            raise LoweringError(f"access {acc} repeats an index variable")
        aid = self._next_aid
        self._next_aid += 1
        self.sites[aid] = (acc.tensor, acc)
        return _Site(aid, acc, fmt, access_map(acc.vars, fmt))

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

    def operands(self) -> dict[str, Format]:
        return {name: self.formats[name] for name, _ in self.sites.values()}


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
    if not isinstance(cursor, Where):
        return _lower_plain(stmt, formats)
    if prefix:
        return _lower_hoisted(stmt, prefix, cursor, formats)
    return _lower_where(stmt, cursor, formats)


def _lower_plain(stmt: Statement, formats: dict[str, Format]) -> Plan:
    assign = nest_assign(stmt)
    decision = plan_insertion(stmt, formats)
    if decision.action is not InsertionAction.NONE:
        raise LoweringError(
            "statement needs a workspace before lowering "
            f"({decision.action.value}: {decision.reason}); "
            "apply insert_sparse_workspace first")
    result_fmt = _format_of(assign.lhs, formats)
    low = _Lowerer(formats)

    if result_fmt.all_dense():
        body = _producer_passes(
            low, stmt, assign.lhs.vars,
            lambda term, amap: ScatterDense(assign.lhs.vars, term, amap))
        return Plan(stmt, assign.lhs, result_fmt, body, low.operands(), low.sites, [])

    if isinstance(assign.rhs, Add):
        raise LoweringError(
            "additive union into a sparse result needs a workspace")
    _check_term(assign.rhs, formats)
    order = reconstruct_input_order(stmt)
    reductions = [v for v in order if v not in assign.lhs.vars]
    r = order.index(reductions[0]) if reductions else len(order)
    chain, innermost, amap = low.build_pass(order, assign.rhs)
    level_vars = access_map(assign.lhs.vars, result_fmt)
    if r == len(order):
        innermost.body.append(AppendCompute(level_vars, assign.rhs, amap))
    else:
        if r == 0:
            raise LoweringError("reduction loops enclose the result variables; "
                                "a workspace is required")
        innermost.body.append(AccumReg(assign.rhs, amap))
        host = chain[r - 1]
        host.body = [SetReg(), *host.body, AppendRow(level_vars)]
    return Plan(stmt, assign.lhs, result_fmt, [chain[0]], low.operands(),
                low.sites, [])


def _producer_passes(low: _Lowerer, producer: Statement, i_vars: tuple[IndexVar, ...],
                     payload_for: "callable") -> list:
    """One loop chain per additive term, each ending in its payload node."""
    p_assign = nest_assign(producer)
    order = reconstruct_input_order(producer)
    nodes: list = []
    for term in _flatten_terms(p_assign.rhs):
        _check_term(term, low.formats)
        term_vars = set(v for a in expr_accesses(term) for v in a.vars)
        pass_order = [v for v in order if v in term_vars or v in i_vars]
        chain, innermost, amap = low.build_pass(pass_order, term)
        innermost.body.append(payload_for(term, amap))
        nodes.append(chain[0])
    return nodes


def _lower_where(root: Statement, where: Where, formats: dict[str, Format]) -> Plan:
    descriptor = where.descriptor
    ws = where.ws
    producer = where.producer
    consumer = where.consumer
    p_assign = nest_assign(producer)
    c_assign = nest_assign(consumer)
    i_vars = p_assign.lhs.vars
    result_fmt = _format_of(c_assign.lhs, formats)
    low = _Lowerer(formats)

    if descriptor.dense:
        raise LoweringError("a dense workspace only applies under a loop prefix")

    inv = _inverse(descriptor.ow_order)
    slot_vars = tuple(i_vars[m] for m in inv)
    passes = _producer_passes(
        low, producer, i_vars,
        lambda term, amap: IsmInsert(ws, slot_vars, term, amap))
    consumer_vars = nest_vars(consumer)
    o_vars = c_assign.rhs.vars if isinstance(c_assign.rhs, Access) else ()
    consumer_slots = tuple(o_vars[m] for m in inv) if o_vars else ()
    straight = (
        isinstance(c_assign.rhs, Access)
        and c_assign.rhs.tensor == ws
        and not c_assign.accumulate
        and tuple(consumer_vars) == consumer_slots
        and access_map(c_assign.lhs.vars, result_fmt) == consumer_slots
    )
    ws_accesses = [a for a in expr_accesses(c_assign.rhs) if a.tensor == ws]
    renames = ws_accesses[0].vars if ws_accesses else ()
    if straight:
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars, dense=False,
                      consumer_vars=renames)
        tail: CompressWs | MaterializeWs = CompressWs(ws, ())
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
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars,
                      dense=False, ws_format=ws_format, subplan=subplan,
                      consumer_vars=renames)
        tail = MaterializeWs(meta)

    operands = low.operands()
    if meta.subplan is not None:
        for name, fmt in meta.subplan.operands.items():
            if name != ws:
                operands.setdefault(name, fmt)
    return Plan(root, c_assign.lhs, result_fmt, [AllocWs(meta), *passes, tail],
                operands, low.sites, [meta])


def _lower_hoisted(root: Statement, prefix: list[IndexVar], where: Where,
                   formats: dict[str, Format]) -> Plan:
    """Workspace under a loop prefix: one loop chain spans the prefix and the
    producer loops; the drain and gather run once per prefix iteration."""
    descriptor = where.descriptor
    ws = where.ws
    p_assign = nest_assign(where.producer)
    c_assign = nest_assign(where.consumer)
    i_vars = p_assign.lhs.vars
    result_fmt = _format_of(c_assign.lhs, formats)
    low = _Lowerer(formats)
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
        host.body = [inner_root, DenseWsGather(ws, tuple(prefix))]
        meta = WsMeta(ws, descriptor, tuple(i_vars), tuple(i_vars), dense=True)
    else:
        inv = _inverse(descriptor.ow_order)
        slot_vars = tuple(i_vars[m] for m in inv)
        innermost.body.append(IsmInsert(ws, slot_vars, term, amap))
        meta = WsMeta(ws, descriptor, tuple(i_vars), slot_vars, dense=False)
        host.body = [AllocWs(meta), inner_root, CompressWs(ws, tuple(prefix))]

    return Plan(root, c_assign.lhs, result_fmt, [chain[0]], low.operands(),
                low.sites, [meta])


# -- plan printing -----------------------------------------------------------------


def print_plan(plan: Plan) -> str:
    out: list[str] = [f"plan: {plan.stmt}"]
    # a sparse workspace is announced by its AllocWs; a dense one has none
    out += [f"workspace {meta.name}: {meta.descriptor}"
            for meta in plan.workspaces if meta.dense]
    for node in plan.body:
        out += node.lines(plan)
    return "\n".join(out)


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
        fns = [n.compile(self) for n in nodes]
        if len(fns) == 1:
            return fns[0]

        def run() -> None:
            for f in fns:
                f()

        return run

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
