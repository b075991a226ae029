"""Lowering scheduled statements to imperative loop plans, and executing them.

A plan is a tree of loop nodes. Each loop is driven either by a dense range,
by one compressed tensor level, or by the two-pointer intersection of two
compressed levels; further operands resolve inside the loop through probes
(positional arithmetic for dense levels, binary search for compressed ones).
Workspace statements add the insert-sort-merge skeleton: inserts at the
innermost loop, a conditional drain when the accumulate array fills, a final
drain after the loops, and a compression of the sorted result into the
output format.

Each node kind prints its own plan lines and runs itself. Execution works
an array at a time and reads the operands' own storage arrays: a loop
expands a batch of iterations into the next batch (one coordinate array per
bound variable, one position array per access), chunk by chunk; probes
filter or extend it; statements evaluate their expression over the whole
batch and stream the values into the result collector (append paths), a
dense scatter array, a dense workspace, or an IsmEngine (insert_batch).
"""

from __future__ import annotations

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
# Every node kind prints and runs itself. A statement node's ``lines``
# returns its plan text, unindented, and its ``run`` executes it on a batch
# of loop iterations (``_Rows``). Drivers print through ``str`` and expand a
# batch into the iterations of their loop, chunk by chunk; probes resolve one
# more level of an access on a batch and return the rows that remain.


@dataclass
class DenseRange:
    var: IndexVar

    def __str__(self) -> str:
        return f"range({self.var.name.upper()})"

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar):
        ext = ex.extents[self.var]
        for row, off in _chunks(np.full(rows.n, ext, dtype=np.int64)):
            child = rows.take(row)
            child.crd[var] = off
            yield child


@dataclass
class LevelIter:
    aid: int
    tensor: str
    level: int

    def __str__(self) -> str:
        return f"{self.tensor}.level({self.level})"

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar):
        level = ex.tensors[self.tensor].levels[self.level]
        lo = level.pos[rows.pos[self.aid]]
        counts = level.pos[rows.pos[self.aid] + 1] - lo
        for row, off in _chunks(counts):
            child = rows.take(row)
            child.pos[self.aid] = at = lo[row] + off
            child.crd[var] = level.crd[at].astype(np.int64)
            yield child


@dataclass
class Intersect:
    first: LevelIter
    second: LevelIter

    def __str__(self) -> str:
        return f"{self.first} & {self.second}"

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar):
        # walking the first level and searching the second yields the common
        # coordinates in the order of a two-pointer merge
        b = self.second
        for child in self.first.expand(ex, rows, var):
            yield ex.locate(child, b.aid, b.tensor, b.level, child.crd[var])


@dataclass
class DenseStep:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return []

    def run(self, ex: _Execution, rows: _Rows) -> _Rows:
        ext = ex.tensors[self.tensor].levels[self.level].extent
        rows.pos[self.aid] = rows.pos[self.aid] * ext + rows.crd[self.var]
        return rows


@dataclass
class Locate:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return [f"locate {self.var.name} in {self.tensor}.level({self.level})"]

    def run(self, ex: _Execution, rows: _Rows) -> _Rows:
        return ex.locate(rows, self.aid, self.tensor, self.level, rows.crd[self.var])


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

    def run(self, ex: _Execution, rows: _Rows) -> None:
        # a loop that runs statements around a nested loop hosts its
        # iterations: the value register and the workspaces those statements
        # keep are addressed by host row
        hosts = len(self.body) > 1 and any(isinstance(n, LoopNode) for n in self.body)
        for child in self.driver.expand(ex, rows, self.var):
            for probe in self.probes:
                child = probe.run(ex, child)
            if hosts:
                child.owner = np.arange(child.n)
            for node in self.body:
                node.run(ex, child)


@dataclass
class SetReg:
    def lines(self, plan: Plan) -> list[str]:
        return ["val = 0"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.reg = np.zeros(rows.n, dtype=np.float64)


@dataclass
class AccumReg:
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return [f"val += {format_expr(self.expr)}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        np.add.at(ex.reg, rows.owner, _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class AppendRow:
    """Append the register value at the tracked output coordinates."""

    level_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) -> {plan.result.tensor}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.collector.extend([rows.crd[v] for v in self.level_vars], ex.reg)


@dataclass
class AppendCompute:
    level_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) = {format_expr(self.expr)} "
                f"-> {plan.result.tensor}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.collector.extend([rows.crd[v] for v in self.level_vars],
                            _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class ScatterDense:
    mode_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.mode_vars)
        return [f"{plan.result.tensor}[{coords}] += {format_expr(self.expr)}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        at = np.zeros(rows.n, dtype=np.int64)
        for v, stride in zip(self.mode_vars, row_major_strides(ex.dense_out.shape)):
            at += rows.crd[v] * stride
        np.add.at(ex.dense_out.reshape(-1), at, _evaluate(ex, rows, self.expr, self.amap))


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

    def run(self, ex: _Execution, rows: _Rows) -> None:
        keys = np.zeros(rows.n, dtype=np.uint64)
        strides = row_major_strides([ex.extents[v] for v in self.slot_vars])
        for v, stride in zip(self.slot_vars, strides):
            keys += rows.crd[v].astype(np.uint64) * np.uint64(stride)
        ex.ws_runs[self.ws].insert(ex, rows.owner, keys,
                                   _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class AllocWs:
    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        return [f"workspace {self.meta.name}: {self.meta.descriptor}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.ws_runs[self.meta.name] = _EngineRuns(self, ex, rows.n)

    def start(self, ex: _Execution) -> IsmEngine:
        """The engine for the next run: reset, or built at the first one."""
        meta = self.meta
        engine = ex.engines.get(meta.name)
        if engine is not None:
            engine.reset()
            return engine
        engine = ex.engines[meta.name] = ex.stack.enter_context(IsmEngine(
            [ex.extents[v] for v in meta.slot_vars],
            meta.descriptor.policy,
            meta.descriptor.capacity,
            hash_l=ex._hash_l(meta),
            pipeline=ex.options.pipeline,
        ))
        return engine


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

    def run(self, ex: _Execution, rows: _Rows) -> None:
        for row, coords, wvals in ex.ws_runs.pop(self.ws).finish(ex):
            prefix = [np.full(len(wvals), rows.crd[v][row], dtype=np.int64)
                      for v in self.prefix_vars]
            ex.collector.extend(prefix + coords, wvals)


@dataclass
class MaterializeWs:
    """Drain the workspace into a tensor in its workspace format and run the
    consumer's plan over it."""

    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        sub = print_plan(self.meta.subplan).splitlines()
        return [*_DRAIN_LINES, f"materialize All -> {self.meta.name}", "consume:",
                *("  " + line for line in sub)]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        meta = self.meta
        ((_, slot_coords, wvals),) = ex.ws_runs.pop(meta.name).finish(ex)
        mode_coords: list[np.ndarray] = [None] * len(meta.i_vars)  # type: ignore[list-item]
        for s, m in enumerate(_inverse(meta.descriptor.ow_order)):
            mode_coords[m] = slot_coords[s]
        dims = tuple(ex.extents[v] for v in meta.i_vars)
        ws_tensor = compress_arrays(mode_coords, wvals, meta.ws_format, dims)
        sub = execute(meta.subplan, {**ex.tensors, meta.name: ws_tensor}, ex.options)
        ex.counters.merge(sub.counters)
        ex.override = sub.tensor


@dataclass
class DenseWsScatter:
    ws: str
    var: IndexVar
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return [f"{self.ws}[{self.var.name}] += {format_expr(self.expr)}"]

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.dense_ws[self.ws].add(rows.owner, rows.crd[self.var],
                                 _evaluate(ex, rows, self.expr, self.amap))
        ex.counters.inserts += rows.n


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

    def run(self, ex: _Execution, rows: _Rows) -> None:
        row, crd, vals = ex.dense_ws[self.ws].take_nonzeros()
        ex.collector.extend([rows.crd[v][row] for v in self.prefix_vars] + [crd], vals)


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
    pending = [(term, False)]
    while pending:
        e, under_add = pending.pop()
        if isinstance(e, Access):
            if under_add and not _format_of(e, formats).all_dense():
                raise LoweringError(
                    f"sparse operand {e} appears inside an addition under a "
                    "product; distribute the product or precompute the sum")
        elif isinstance(e, (Add, Mul)):
            inner = under_add or isinstance(e, Add)
            pending += [(e.rhs, inner), (e.lhs, inner)]


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


@dataclass
class ExecutionResult:
    tensor: Tensor
    counters: Counters


# iterations a driver expands at a time: bounds the transient arrays
_CHUNK = 1 << 14


class _Rows:
    """A batch of loop iterations in execution order: the coordinate of every
    bound index variable, the position of every access at its deepest
    resolved level, and each iteration's row in the batch of its host loop."""

    __slots__ = ("n", "crd", "pos", "owner")

    def __init__(self, n: int, crd: dict, pos: dict, owner: np.ndarray) -> None:
        self.n = n
        self.crd = crd
        self.pos = pos
        self.owner = owner

    def take(self, rows: np.ndarray) -> _Rows:
        return _Rows(len(rows), {v: c[rows] for v, c in self.crd.items()},
                     {a: p[rows] for a, p in self.pos.items()}, self.owner[rows])


def _chunks(counts: np.ndarray):
    """Split the iterations of a batch, ``counts[r]`` of them for row r in
    row order, into chunks of at most _CHUNK; yield each chunk's rows and its
    iterations' offsets within their row."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _CHUNK):
        at = np.arange(lo, min(lo + _CHUNK, total))
        row = np.searchsorted(ends, at, side="right")
        yield row, at - (ends[row] - counts[row])


def _values(ex: _Execution, rows: _Rows, expr: Expr, amap: dict):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Access):
        return ex.tensors[expr.tensor].vals[rows.pos[amap[expr]]]
    if isinstance(expr, Add):
        return _values(ex, rows, expr.lhs, amap) + _values(ex, rows, expr.rhs, amap)
    if isinstance(expr, Mul):
        return _values(ex, rows, expr.lhs, amap) * _values(ex, rows, expr.rhs, amap)
    raise LoweringError(f"unknown expression node {expr!r}")


def _evaluate(ex: _Execution, rows: _Rows, expr: Expr, amap: dict) -> np.ndarray:
    """The expression's value at every row, operand by operand in the order
    the expression gives."""
    return np.broadcast_to(np.asarray(_values(ex, rows, expr, amap), dtype=np.float64),
                           (rows.n,))


class _EngineRuns:
    """One run of a sparse workspace's engine per row of its host batch, in
    row order: a run starts at the engine's construction or reset() and ends
    at result(), also for a row that inserts nothing."""

    def __init__(self, alloc: AllocWs, ex: _Execution, n: int) -> None:
        self.alloc = alloc
        self.n = n
        self.row = -1
        self.engine: IsmEngine | None = None
        self.results: list = []
        self._advance(ex, 0)

    def _advance(self, ex: _Execution, row: int) -> None:
        while self.row < min(row, self.n - 1):
            if self.row >= 0:
                self.results.append((self.row, *self.engine.result()))
            self.row += 1
            self.engine = self.alloc.start(ex)

    def insert(self, ex: _Execution, owner: np.ndarray, keys: np.ndarray,
               vals: np.ndarray) -> None:
        cuts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), len(owner)]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo:
                self._advance(ex, int(owner[lo]))
                self.engine.insert_batch(keys[lo:hi], vals[lo:hi])

    def finish(self, ex: _Execution) -> list:
        """(row, coordinates, values) of every row's run."""
        self._advance(ex, self.n - 1)
        if self.row >= 0:
            self.results.append((self.row, *self.engine.result()))
        return self.results


class _DenseWs:
    """A dense workspace for every row of a host batch. Each (row, coordinate)
    keeps a running sum that starts at 0.0 and adds values in arrival order,
    as ``W[c] += v`` would; once a later row arrives, a row's sums are final
    and leave the merge."""

    def __init__(self, extent: int) -> None:
        self.extent = extent
        self._clear()

    def _clear(self) -> None:
        self.done: list[tuple[np.ndarray, np.ndarray]] = []
        self.keys = np.empty(0, dtype=np.int64)
        self.sums = np.empty(0, dtype=np.float64)

    def add(self, row: np.ndarray, crd: np.ndarray, vals: np.ndarray) -> None:
        if not len(row):
            return
        keys = row * self.extent + crd
        union = np.sort(np.concatenate((self.keys, keys)))
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]
        sums = np.zeros(len(union), dtype=np.float64)
        sums[np.searchsorted(union, self.keys)] = self.sums
        np.add.at(sums, np.searchsorted(union, keys), vals)
        final = int(np.searchsorted(union, row[-1] * self.extent))
        self.done.append((union[:final], sums[:final]))
        self.keys, self.sums = union[final:], sums[final:]

    def take_nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, coordinate and value of every nonzero sum, in order; the
        workspace is left empty."""
        keys = np.concatenate([k for k, _ in self.done] + [self.keys])
        sums = np.concatenate([v for _, v in self.done] + [self.sums])
        self._clear()
        nz = np.flatnonzero(sums != 0.0)
        return keys[nz] // self.extent, keys[nz] % self.extent, sums[nz]


class _Collector:
    """Ordered sink for result rows in storage-level order."""

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self._chunks: list[tuple[list[np.ndarray], np.ndarray]] = []

    def extend(self, coords: list[np.ndarray], vals: np.ndarray) -> None:
        if len(vals):
            self._chunks.append(([np.asarray(c, dtype=np.int64) for c in coords],
                                 np.asarray(vals, dtype=np.float64)))

    def finalize(self) -> tuple[list[np.ndarray], np.ndarray]:
        if not self._chunks:
            empty = [np.empty(0, dtype=np.int64) for _ in range(self.levels)]
            return empty, np.empty(0, dtype=np.float64)
        if len(self._chunks) == 1:
            return self._chunks[0]
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
        self._validate()
        # one engine per sparse workspace, built at its first run and closed
        # by the stack when run() ends
        self.engines: dict[str, IsmEngine] = {}
        self.ws_runs: dict[str, _EngineRuns] = {}
        self.stack = contextlib.ExitStack()
        self.dense_ws = {meta.name: _DenseWs(self.extents[meta.slot_vars[0]])
                         for meta in plan.workspaces if meta.dense}
        self.reg: np.ndarray | None = None
        self.override: Tensor | None = None
        # (parent position, coordinate) keys of the levels that locate searches
        self._level_keys: dict[tuple[str, int], np.ndarray] = {}
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

    def _validate(self) -> None:
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

    def locate(self, rows: _Rows, aid: int, tensor: str, level: int,
               crd: np.ndarray) -> _Rows:
        """Find each row's coordinate among the children of its position at a
        compressed level; rows where it is absent drop out."""
        t = self.tensors[tensor]
        extent = t.level_extent(level)
        keys = self._level_keys.get((tensor, level))
        if keys is None:
            lvl = t.levels[level]
            parent = np.repeat(np.arange(len(lvl.pos) - 1), np.diff(lvl.pos))
            keys = self._level_keys[tensor, level] = parent * extent + lvl.crd
        want = rows.pos[aid] * extent + crd
        at = np.searchsorted(keys, want)
        found = at < len(keys)
        found[found] = keys[at[found]] == want[found]
        hit = np.flatnonzero(found)
        out = rows.take(hit)
        out.pos[aid] = at[hit]
        return out

    def run(self) -> ExecutionResult:
        root = _Rows(1, {}, {aid: np.zeros(1, dtype=np.int64) for aid in self.plan.sites},
                     np.zeros(1, dtype=np.int64))
        with self.stack:
            for node in self.plan.body:
                node.run(self, root)
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
