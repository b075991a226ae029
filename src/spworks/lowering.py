"""Lowering scheduled statements to imperative loop plans, and executing them.

A plan is a tree of loop nodes. Each loop is driven either by a dense range,
by one compressed tensor level, or by the two-pointer intersection of two
compressed levels; further operands resolve inside the loop through probes
(positional arithmetic for dense levels, binary search for compressed ones).
A workspace statement adds an allocation, an insert at the innermost loop
and a drain after the loops; their plan lines and their execution come from
the implementation its descriptor's kind names in WORKSPACE_KINDS, the
insert-sort-merge engine or the dense workspace.

Each node kind prints its own plan lines and runs itself. Execution works
an array at a time and reads the operands' own storage arrays: a loop
expands a batch of iterations into the next batch (one coordinate array per
bound variable, one position array per access), chunk by chunk; probes
filter or extend it; statements evaluate their expression over the whole
batch and stream the values into the result collector (append paths), a
dense result array, or a workspace.
"""

from __future__ import annotations

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
    DENSE_WS,
    SPARSE_WS,
    Access,
    Add,
    Const,
    Expr,
    IndexVar,
    Mul,
    Statement,
    Where,
    WorkspaceDescriptor,
    add_terms,
    expr_accesses,
    format_expr,
    nest_assign,
    nest_core,
    nest_vars,
)
from .ism import Counters, IsmEngine, Policy, hash_default_l
from .tensor import (
    CRD_DTYPE,
    DenseLevel,
    Format,
    LevelFormat,
    LevelKind,
    Tensor,
    VAL_DTYPE,
    access_map,
    compress_arrays,
    compress_segments,
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
# more level of an access on a batch and return the rows that remain. Each
# node's ``needs`` maps the columns a batch must carry after it to those it
# must carry before it; a driver or a locate also records, under its id in
# ``keep``, what the batches it builds carry.


@dataclass
class DenseRange:
    var: IndexVar

    def __str__(self) -> str:
        return f"range({self.var.name.upper()})"

    def needs(self, live: set, var: IndexVar, keep: dict) -> set:
        keep[id(self)] = _Keep.of(live, {_crd(var)})
        return live - {_crd(var)}

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar, chunk: int):
        keep = ex.keep[id(self)]
        ext = ex.extents[self.var]

        def batch(lo: int, hi: int) -> _Rows:
            at = np.arange(lo, hi)
            child = rows.take(at // ext, keep)
            if _crd(var) in keep.sets:
                child.crd[var] = np.remainder(at, ext, out=np.empty(len(at), CRD_DTYPE),
                                              casting="unsafe")
            return child

        return _batches(batch, rows.n * ext, chunk)


@dataclass
class LevelIter:
    aid: int
    tensor: str
    level: int

    def __str__(self) -> str:
        return f"{self.tensor}.level({self.level})"

    def needs(self, live: set, var: IndexVar, keep: dict) -> set:
        sets = {_pos(self.aid), _crd(var)}
        keep[id(self)] = _Keep.of(live, sets)
        return (live - sets) | {_pos(self.aid)}

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar, chunk: int):
        keep = ex.keep[id(self)]
        level = ex.tensors[self.tensor].levels[self.level]
        # where each row's iterations end in the expanded batch, and what
        # turns an iteration's index there into its position on the level
        shift = level.pos[rows.pos[self.aid] + 1]
        ends = shift - level.pos[rows.pos[self.aid]]
        np.cumsum(ends, out=ends)
        shift -= ends

        def batch(lo: int, hi: int) -> _Rows:
            at = np.arange(lo, hi)
            row = np.searchsorted(ends, at, side="right")
            child = rows.take(row, keep)
            at += shift[row]
            if _pos(self.aid) in keep.sets:
                child.pos[self.aid] = at
            if _crd(var) in keep.sets:
                child.crd[var] = level.crd[at]
            return child

        return _batches(batch, int(ends[-1]), chunk)


@dataclass
class Intersect:
    first: LevelIter
    second: LevelIter

    def __str__(self) -> str:
        return f"{self.first} & {self.second}"

    def needs(self, live: set, var: IndexVar, keep: dict) -> set:
        b = self.second.aid
        keep[id(self)] = _Keep.of(live, {_pos(b)})
        return self.first.needs(live | {_pos(b), _crd(var)}, var, keep)

    def expand(self, ex: _Execution, rows: _Rows, var: IndexVar, chunk: int):
        # walking the first level and searching the second yields the common
        # coordinates in the order of a two-pointer merge
        b = self.second
        keep = ex.keep[id(self)]

        def located(child: _Rows) -> _Rows:
            return ex.locate(child, b.aid, b.tensor, b.level, child.crd[var], keep)

        # map keeps no walked batch while the located one runs
        return map(located, self.first.expand(ex, rows, var, chunk))


@dataclass
class DenseStep:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return []

    def needs(self, live: set, keep: dict) -> set:
        return live | {_pos(self.aid), _crd(self.var)}

    def run(self, ex: _Execution, rows: _Rows) -> _Rows:
        # in place: every batch holds its own position arrays
        pos = rows.pos[self.aid]
        pos *= ex.tensors[self.tensor].levels[self.level].extent
        pos += rows.crd[self.var]
        return rows


@dataclass
class Locate:
    aid: int
    tensor: str
    level: int
    var: IndexVar

    def lines(self, plan: Plan) -> list[str]:
        return [f"locate {self.var.name} in {self.tensor}.level({self.level})"]

    def needs(self, live: set, keep: dict) -> set:
        keep[id(self)] = _Keep.of(live, {_pos(self.aid)})
        return live | {_pos(self.aid), _crd(self.var)}

    def run(self, ex: _Execution, rows: _Rows) -> _Rows:
        return ex.locate(rows, self.aid, self.tensor, self.level, rows.crd[self.var],
                         ex.keep[id(self)])


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

    @property
    def nests(self) -> bool:
        """Whether a loop nests in this one's body."""
        return any(isinstance(n, LoopNode) for n in self.body)

    @property
    def hosts(self) -> bool:
        """Whether the loop runs statements around a nested loop: then it
        hosts its iterations, and the value register and the workspaces
        those statements keep are addressed by host row."""
        return len(self.body) > 1 and self.nests

    def needs(self, live: set, keep: dict) -> set:
        inner = _needs(self.body, set(), keep)
        if self.hosts:
            inner.discard(_OWNER)
        inner = _needs(self.probes, inner, keep)
        return live | self.driver.needs(inner, self.var, keep)

    def run(self, ex: _Execution, rows: _Rows) -> None:
        hosts = self.hosts
        # a loop's batch stays live while the loops nested in it run
        chunk = _OUTER_CHUNK if self.nests else _CHUNK
        for child in self.driver.expand(ex, rows, self.var, chunk):
            for probe in self.probes:
                child = probe.run(ex, child)
            # a batch the probes filtered out: no statement, and no
            # workspace, sees it
            if child.n:
                if hosts:
                    child.owner = np.arange(child.n)
                for node in self.body:
                    node.run(ex, child)
            del child  # the next batch is built without this one


@dataclass
class SetReg:
    def lines(self, plan: Plan) -> list[str]:
        return ["val = 0"]

    def needs(self, live: set, keep: dict) -> set:
        return live

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.reg = np.zeros(rows.n, dtype=np.float64)


@dataclass
class AccumReg:
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return [f"val += {format_expr(self.expr)}"]

    def needs(self, live: set, keep: dict) -> set:
        return live | _operands(self.expr, self.amap) | {_OWNER}

    def run(self, ex: _Execution, rows: _Rows) -> None:
        np.add.at(ex.reg, rows.owner, _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class AppendRow:
    """Append the register value at the tracked output coordinates."""

    level_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) -> {plan.result.tensor}"]

    def needs(self, live: set, keep: dict) -> set:
        return live | {_crd(v) for v in self.level_vars}

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.collector.extend([rows.crd[v] for v in self.level_vars], None, [], ex.reg)


@dataclass
class AppendCompute:
    level_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        return [f"append ({coords}) = {format_expr(self.expr)} "
                f"-> {plan.result.tensor}"]

    def needs(self, live: set, keep: dict) -> set:
        return live | {_crd(v) for v in self.level_vars} | _operands(self.expr, self.amap)

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ex.collector.extend([rows.crd[v] for v in self.level_vars], None, [],
                            _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class ScatterDense:
    mode_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.mode_vars)
        return [f"{plan.result.tensor}[{coords}] += {format_expr(self.expr)}"]

    def needs(self, live: set, keep: dict) -> set:
        return live | {_crd(v) for v in self.mode_vars} | _operands(self.expr, self.amap)

    def run(self, ex: _Execution, rows: _Rows) -> None:
        # row-major positions in the result, in int64
        at = np.zeros(rows.n, dtype=np.int64)
        for v, e in zip(self.mode_vars, ex.dense_out.shape):
            at *= e
            at += rows.crd[v]
        np.add.at(ex.dense_out.reshape(-1), at, _evaluate(ex, rows, self.expr, self.amap))


@dataclass
class InsertWs:
    """Insert the expression's values into a workspace under row-major keys
    over its slot extents."""

    meta: WsMeta
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        return self.meta.impl.insert_lines(self.meta, self.expr)

    def needs(self, live: set, keep: dict) -> set:
        # what the nodes after this one read: the rest is dropped before
        # the workspace takes the pairs
        keep[id(self)] = _Keep.of(live, set())
        return (live | {_crd(v) for v in self.meta.slot_vars}
                | _operands(self.expr, self.amap) | {_OWNER})

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ws = ex.workspaces[self.meta.name]
        first, *rest = self.meta.slot_vars
        keys = rows.crd[first].astype(ws.key_dtype)
        for v in rest:
            keys *= ex.extents[v]
            keys += rows.crd[v]
        vals = _evaluate(ex, rows, self.expr, self.amap)
        owner = rows.owner
        rows.drop(ex.keep[id(self)])
        ws.insert(owner, keys, vals)


@dataclass
class AllocWs:
    """Build the workspace's implementation at its first allocation, and
    start a batch of the host loop's rows."""

    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        if self.meta.impl.announced_at_head:
            return []
        return [f"workspace {self.meta.name}: {self.meta.descriptor}"]

    def needs(self, live: set, keep: dict) -> set:
        return live

    def run(self, ex: _Execution, rows: _Rows) -> None:
        meta = self.meta
        if meta.name not in ex.workspaces:
            ex.workspaces[meta.name] = meta.impl(ex, meta)
        ex.workspaces[meta.name].start(rows.n)


@dataclass
class DrainWs:
    """Drain the workspace and append its contents to the result collector:
    one segment per host row, which the coordinates of any enclosing loops
    prefix, sorted within it."""

    meta: WsMeta
    prefix_vars: tuple[IndexVar, ...]

    def lines(self, plan: Plan) -> list[str]:
        return self.meta.impl.drain_lines(self.meta, self.prefix_vars, plan.result.tensor)

    def needs(self, live: set, keep: dict) -> set:
        return live | {_crd(v) for v in self.prefix_vars}

    def run(self, ex: _Execution, rows: _Rows) -> None:
        counts, coords, wvals = ex.workspaces[self.meta.name].finish()
        ex.collector.extend([rows.crd[v] for v in self.prefix_vars], counts, coords, wvals)


@dataclass
class MaterializeWs:
    """Drain the workspace into a tensor in its workspace format and run the
    consumer's plan over it."""

    meta: WsMeta

    def lines(self, plan: Plan) -> list[str]:
        sub = print_plan(self.meta.subplan).splitlines()
        return [*self.meta.impl.drain_lines(self.meta, (), None), "consume:",
                *("  " + line for line in sub)]

    def needs(self, live: set, keep: dict) -> set:
        return live

    def run(self, ex: _Execution, rows: _Rows) -> None:
        meta = self.meta
        _, slot_coords, wvals = ex.workspaces[meta.name].finish()
        mode_coords: list[np.ndarray] = [None] * len(meta.i_vars)  # type: ignore[list-item]
        for s, m in enumerate(_inverse(meta.descriptor.ow_order)):
            mode_coords[m] = slot_coords[s]
        dims = tuple(ex.extents[v] for v in meta.i_vars)
        ws_tensor = compress_arrays(mode_coords, wvals, meta.ws_format, dims)
        sub = execute(meta.subplan, {**ex.tensors, meta.name: ws_tensor})
        ex.counters.merge(sub.counters)
        ex.override = sub.tensor


@dataclass
class WsMeta:
    name: str
    descriptor: WorkspaceDescriptor
    impl: type[Workspace]
    i_vars: tuple[IndexVar, ...]
    slot_vars: tuple[IndexVar, ...]
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
    core = nest_core(stmt)
    if not isinstance(core, Where):
        return _lower_plain(stmt, formats)
    return _lower_workspace(stmt, tuple(nest_vars(stmt)), core, formats)


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
        chains = _producer_passes(
            low, stmt, assign.lhs.vars,
            lambda term, amap: ScatterDense(assign.lhs.vars, term, amap))
        return Plan(stmt, assign.lhs, result_fmt, [chain[0] for chain in chains],
                    low.operands(), low.sites, [])

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
                     payload_for: "callable", prefix: tuple[IndexVar, ...] = ()) -> list:
    """One loop chain per additive term, led by the prefix loops and ending
    in its payload node."""
    p_assign = nest_assign(producer)
    order = [*prefix, *reconstruct_input_order(producer)]
    chains: list = []
    for term in add_terms(p_assign.rhs):
        _check_term(term, low.formats)
        term_vars = set(v for a in expr_accesses(term) for v in a.vars)
        pass_order = [v for v in order if v in prefix or v in term_vars or v in i_vars]
        chain, innermost, amap = low.build_pass(pass_order, term)
        innermost.body.append(payload_for(term, amap))
        chains.append(chain)
    return chains


def _lower_workspace(root: Statement, prefix: tuple[IndexVar, ...], where: Where,
                     formats: dict[str, Format]) -> Plan:
    """Producer passes that fill the workspace, then its drain into the result.
    Under a loop prefix one loop chain spans the prefix and the producer
    loops, and the drain runs once per prefix iteration."""
    descriptor = where.descriptor
    ws = where.ws
    p_assign = nest_assign(where.producer)
    c_assign = nest_assign(where.consumer)
    i_vars = p_assign.lhs.vars
    result_fmt = _format_of(c_assign.lhs, formats)
    if descriptor.kind not in WORKSPACE_KINDS:
        raise LoweringError(f"unknown workspace kind {descriptor.kind!r}")
    impl = WORKSPACE_KINDS[descriptor.kind]
    impl.check(descriptor, prefix)
    if prefix:
        if where.relations or where.producer.relations:
            raise LoweringError("a workspace under a loop prefix cannot be scheduled")
        if not (isinstance(c_assign.rhs, Access) and c_assign.rhs.tensor == ws):
            raise LoweringError(
                "a workspace nested under loops must be consumed by a direct copy "
                "into the result")
        if isinstance(p_assign.rhs, Add):
            raise LoweringError("a hoisted workspace covers a single product term")

    inv = _inverse(descriptor.ow_order)
    slot_vars = tuple(i_vars[m] for m in inv)
    ws_accesses = [a for a in expr_accesses(c_assign.rhs) if a.tensor == ws]
    renames = ws_accesses[0].vars if ws_accesses else ()
    meta = WsMeta(ws, descriptor, impl, i_vars, slot_vars, consumer_vars=renames)
    low = _Lowerer(formats)
    chains = _producer_passes(low, where.producer, i_vars,
                              lambda term, amap: InsertWs(meta, term, amap), prefix)

    if prefix:
        # the last prefix loop hosts the workspace
        (chain,) = chains
        chain[len(prefix) - 1].body = [AllocWs(meta), chain[len(prefix)],
                                       DrainWs(meta, prefix)]
        return Plan(root, c_assign.lhs, result_fmt, [chain[0]], low.operands(),
                    low.sites, [meta])

    consumer_vars = nest_vars(where.consumer)
    o_vars = c_assign.rhs.vars if isinstance(c_assign.rhs, Access) else ()
    consumer_slots = tuple(o_vars[m] for m in inv) if o_vars else ()
    straight = (
        isinstance(c_assign.rhs, Access)
        and c_assign.rhs.tensor == ws
        and not c_assign.accumulate
        and tuple(consumer_vars) == consumer_slots
        and access_map(c_assign.lhs.vars, result_fmt) == consumer_slots
    )
    operands = low.operands()
    if straight:
        tail: DrainWs | MaterializeWs = DrainWs(meta, ())
    else:
        meta.ws_format = Format(
            tuple(LevelFormat(LevelKind.COMPRESSED) for _ in i_vars),
            tuple(inv),
            name=f"ws-{descriptor.policy.label.lower()}",
        )
        sub_formats = {**formats, ws: meta.ws_format}
        inner_name = ws
        while inner_name in sub_formats:
            inner_name += "'"
        rewritten, _ = insert_sparse_workspace(
            where.consumer, sub_formats, descriptor.policy, descriptor.capacity,
            ws_name=inner_name, hash_l=descriptor.hash_l)
        meta.subplan = lower(rewritten, sub_formats)
        for name, fmt in meta.subplan.operands.items():
            if name != ws:
                operands.setdefault(name, fmt)
        tail = MaterializeWs(meta)
    return Plan(root, c_assign.lhs, result_fmt,
                [AllocWs(meta), *(chain[0] for chain in chains), tail],
                operands, low.sites, [meta])


# -- plan printing -----------------------------------------------------------------


def print_plan(plan: Plan) -> str:
    out: list[str] = [f"plan: {plan.stmt}"]
    out += [f"workspace {meta.name}: {meta.descriptor}"
            for meta in plan.workspaces if meta.impl.announced_at_head]
    for node in plan.body:
        out += node.lines(plan)
    return "\n".join(out)


# -- execution ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionOptions:
    """Accepted by execute() and ignored: execution has one mode. ``pipeline``
    named the retired pipelined mode; it stays while the benchmark in
    perfbench/ still passes it."""

    pipeline: bool = False


@dataclass
class ExecutionResult:
    tensor: Tensor
    counters: Counters


# iterations a loop expands at a time: bounds the transient arrays. A
# loop that nests others expands fewer, since its batch stays live under
# theirs, so a loop nest holds about one chunk at any depth
_CHUNK = 1 << 14
_OUTER_CHUNK = _CHUNK >> 3


class _Rows:
    """A batch of loop iterations in execution order: the coordinate of
    bound index variables (CRD_DTYPE), the position of accesses at their
    deepest resolved level, and each iteration's row in the batch of its
    host loop (``owner``), each only where the nodes below still read it."""

    __slots__ = ("n", "crd", "pos", "owner")

    def __init__(self, n: int, crd: dict, pos: dict, owner: np.ndarray | None) -> None:
        self.n = n
        self.crd = crd
        self.pos = pos
        self.owner = owner

    def take(self, rows: np.ndarray, keep: _Keep) -> _Rows:
        """The given rows, as fresh arrays of the columns ``keep`` gathers."""
        return _Rows(len(rows), {v: self.crd[v][rows] for v in keep.crd},
                     {a: self.pos[a][rows] for a in keep.pos},
                     self.owner[rows] if keep.owner else None)

    def drop(self, keep: _Keep) -> None:
        """Release every column ``keep`` does not gather."""
        for columns, kept in ((self.crd, keep.crd), (self.pos, keep.pos)):
            for c in [c for c in columns if c not in kept]:
                del columns[c]
        if not keep.owner:
            self.owner = None


# the columns of a batch: a variable's coordinates, an access's positions,
# and the host rows
def _crd(v: IndexVar) -> tuple:
    return ("crd", v)


def _pos(aid: int) -> tuple:
    return ("pos", aid)


_OWNER = ("owner", None)


def _batches(batch, total: int, chunk: int):
    """``batch(lo, hi)`` over ``total`` iterations, ``chunk`` at a time,
    built one by one; the generator keeps none of them."""
    return (batch(lo, min(lo + chunk, total)) for lo in range(0, total, chunk))


def _operands(expr: Expr, amap: dict) -> set:
    return {_pos(amap[a]) for a in expr_accesses(expr)}


def _needs(nodes: list, live: set, keep: dict) -> set:
    """The columns a batch must carry for ``nodes`` to run on it in turn and
    leave ``live`` behind."""
    for node in reversed(nodes):
        live = node.needs(live, keep)
    return live


@dataclass(frozen=True)
class _Keep:
    """What a batch that a driver or a locate builds carries: the columns it
    gathers from its source batch, and ``sets``, those it computes itself."""

    crd: tuple
    pos: tuple
    owner: bool
    sets: frozenset

    @classmethod
    def of(cls, live: set, own: set) -> _Keep:
        """The batch carries ``live``; its builder can compute ``own``."""
        gather = live - own
        return cls(tuple(v for kind, v in gather if kind == "crd"),
                   tuple(a for kind, a in gather if kind == "pos"),
                   _OWNER in gather, frozenset(live & own))


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
    vals = np.asarray(_values(ex, rows, expr, amap), dtype=np.float64)
    # a constant's one value serves every row as a read-only view
    return vals if vals.shape == (rows.n,) else np.broadcast_to(vals, (rows.n,))


# -- workspace implementations -------------------------------------------------------


class Workspace:
    """The protocol of a workspace implementation; WORKSPACE_KINDS maps a
    descriptor's kind to one. An execution builds ``impl(ex, meta)`` at the
    workspace's first allocation. For each host batch it then calls
    ``start(n)`` with the batch's ``n >= 1`` host rows (one at top level),
    ``insert(owner, keys, vals)`` with row-major keys over the slot extents,
    in the workspace's ``key_dtype``, and each pair's host row, rows in
    order, and ``finish()``, which returns the batch as one block
    ``(counts, coordinates, values)``: each host row's entry count (int64),
    then every entry's slot coordinates (CRD_DTYPE) and value, row after
    row and sorted within a row. The caller owns all of these arrays.
    ``counters`` join the execution's when it ends. The plan announces the
    workspace at its head if ``announced_at_head``, else at the allocation;
    the class methods refuse placements at lowering and give the plan lines
    at an insert and at a drain into the tensor ``into`` (None materializes
    the workspace)."""

    counters: Counters
    key_dtype = np.dtype(np.uint64)
    announced_at_head = False

    @classmethod
    def check(cls, descriptor: WorkspaceDescriptor, prefix: tuple[IndexVar, ...]) -> None:
        pass


class _Block:
    """A host batch's entries as a workspace finishes them: each row's
    count, and the coordinates and values appended row after row into
    buffers that grow in place by a quarter."""

    def __init__(self, n: int, slots: int) -> None:
        self.counts = np.zeros(n, dtype=np.int64)
        self.columns = [np.empty(0, CRD_DTYPE) for _ in range(slots)]
        self.columns.append(np.empty(0, VAL_DTYPE))
        self.size = 0

    def grow(self, m: int) -> list[np.ndarray]:
        """Views of ``m`` more entries in each buffer, coordinates first,
        for the caller to fill before it grows the block again."""
        start, self.size = self.size, self.size + m
        if self.size > len(self.columns[-1]):
            grown = max(self.size, len(self.columns[-1]) * 5 // 4)
            for col in self.columns:
                # nothing else refers to a buffer while it is resized
                col.resize(grown, refcheck=False)
        return [col[start:self.size] for col in self.columns]

    def take(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """The block, its buffers cut to their entries in place."""
        for col in self.columns:
            col.resize(self.size, refcheck=False)
        return self.counts, self.columns[:-1], self.columns[-1]


# a drain: an insert runs one when Acc is full, and finish() the final one
_DRAIN_LINES = ["sort Acc", "merge Acc -> All"]


class IsmWorkspace(Workspace):
    """A sparse workspace: one IsmEngine per execution, run once per host row
    in row order, from reset() to result(), also for a row that inserts
    nothing. A row's result is copied into the batch's block as the row
    ends; a batch of one row hands the engine's arrays over."""

    def __init__(self, ex: _Execution, meta: WsMeta) -> None:
        d = meta.descriptor
        hash_l = d.hash_l
        if d.policy is Policy.HASH and hash_l is None:  # sized from the operands
            hash_l = hash_default_l(max(1, sum(
                t.nnz for name, t in ex.tensors.items()
                if name in ex.plan.operands and not t.format.all_dense())))
        self.engine = IsmEngine([ex.extents[v] for v in meta.slot_vars], d.policy,
                                d.capacity, hash_l=hash_l)
        self.counters = self.engine.counters
        self.key_dtype = self.engine.key_dtype

    @classmethod
    def insert_lines(cls, meta: WsMeta, expr: Expr) -> list[str]:
        coords = ", ".join(v.name for v in meta.slot_vars)
        insert = f"insert ({coords}) -> Acc"
        return [f"val = {format_expr(expr)}", insert, "if Acc.full:",
                *("  " + line for line in [*_DRAIN_LINES, insert])]

    @classmethod
    def drain_lines(cls, meta: WsMeta, prefix_vars: tuple[IndexVar, ...],
                    into: str | None) -> list[str]:
        if into is None:
            return [*_DRAIN_LINES, f"materialize All -> {meta.name}"]
        if prefix_vars:
            coords = ", ".join(v.name for v in prefix_vars)
            return [*_DRAIN_LINES, f"append segment ({coords}, :) <- All -> {into}"]
        return [*_DRAIN_LINES, f"compress All -> {into}"]

    def start(self, n: int) -> None:
        self.n, self.row = n, 0
        self.block = _Block(n, len(self.engine.extents))
        self.engine.reset()

    def _advance(self, row: int) -> None:
        while self.row < row:
            self._keep(*self.engine.result())
            self.row += 1
            self.engine.reset()

    def _keep(self, coords: list[np.ndarray], vals: np.ndarray) -> None:
        self.block.counts[self.row] = len(vals)
        for part, src in zip(self.block.grow(len(vals)), [*coords, vals]):
            part[:] = src

    def insert(self, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
        starts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
        for lo, hi in zip(starts, [*starts[1:], len(owner)]):
            self._advance(int(owner[lo]))
            self.engine.insert_batch(keys[lo:hi], vals[lo:hi])

    def finish(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        self._advance(self.n - 1)
        coords, vals = self.engine.result()
        if self.block.size:
            self._keep(coords, vals)
            return self.block.take()
        # no earlier row has entries: the last row's arrays are the block's
        self.block.counts[-1] = len(vals)
        return self.block.counts, coords, vals


class DenseWorkspace(Workspace):
    """A dense workspace over one dimension for every row of a host batch.
    Each (row, coordinate) keeps a running sum that starts at 0.0 and adds
    values in arrival order, as ``W[c] += v`` would; once a later row
    arrives, a row's sums are final and move to the batch's block. It keeps
    only the sorted union of the cells it touched, never an array over the
    extent."""

    announced_at_head = True
    # a key is the one coordinate
    key_dtype = np.dtype(CRD_DTYPE)

    def __init__(self, ex: _Execution, meta: WsMeta) -> None:
        self.extent = ex.extents[meta.slot_vars[0]]
        self.counters = Counters()

    @classmethod
    def check(cls, descriptor: WorkspaceDescriptor, prefix: tuple[IndexVar, ...]) -> None:
        if not prefix:
            raise LoweringError("a dense workspace only applies under a loop prefix")
        if descriptor.order != 1:
            raise LoweringError("a dense workspace covers exactly one dimension")

    @classmethod
    def insert_lines(cls, meta: WsMeta, expr: Expr) -> list[str]:
        return [f"{meta.name}[{meta.slot_vars[0].name}] += {format_expr(expr)}"]

    @classmethod
    def drain_lines(cls, meta: WsMeta, prefix_vars: tuple[IndexVar, ...],
                    into: str | None) -> list[str]:
        coords = ", ".join(v.name for v in prefix_vars)
        return [f"gather nonzeros {meta.name} -> {into}({coords}, :)", f"clear {meta.name}"]

    def start(self, n: int) -> None:
        self.block = _Block(n, 1)
        # the open cells, keyed (row, coordinate) in the host rows' int64
        self.keys = np.empty(0, dtype=np.int64)
        self.sums = np.empty(0, dtype=np.float64)

    def insert(self, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
        self.counters.inserts += len(keys)
        if not len(keys):
            return
        keys = owner * self.extent + keys
        union = np.sort(np.concatenate((self.keys, keys)))
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]
        sums = np.zeros(len(union), dtype=np.float64)
        sums[np.searchsorted(union, self.keys)] = self.sums
        np.add.at(sums, np.searchsorted(union, keys), vals)
        del keys
        final = int(np.searchsorted(union, owner[-1] * self.extent))
        # the last row's cells stay open, in arrays of their own
        self.keys, self.sums = union[final:].copy(), sums[final:].copy()
        self._close(union[:final], sums[:final])

    def _close(self, keys: np.ndarray, sums: np.ndarray) -> None:
        """Move final cells, in order, to the block."""
        block = self.block
        rows = np.searchsorted(keys, np.arange(len(block.counts) + 1) * self.extent)
        block.counts += np.diff(rows)
        crd, vals = block.grow(len(keys))
        np.remainder(keys, self.extent, out=crd, casting="unsafe")
        vals[:] = sums

    def finish(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Every cell a value was added to, in order, a sum that cancels to
        0.0 included, as a sparse workspace keeps it."""
        self._close(self.keys, self.sums)
        return self.block.take()


WORKSPACE_KINDS: dict[str, type[Workspace]] = {
    SPARSE_WS: IsmWorkspace,
    DENSE_WS: DenseWorkspace,
}


class _Collector:
    """Ordered sink for the result's entries in storage-level order, as
    segments: the first levels' coordinates once per segment, with its entry
    count (None: one entry each), and the other levels' coordinates and the
    values once per entry."""

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self.prefix = 0
        # the chunks of each level's coordinates, of the values and of the counts
        self._columns: list[list] = []

    def extend(self, prefix: list[np.ndarray], counts: np.ndarray | None,
               tail: list[np.ndarray], vals: np.ndarray) -> None:
        if not len(vals):
            return
        if not self._columns:
            self.prefix = len(prefix)
            self._columns = [[] for _ in range(self.levels + 2)]
        for chunks, col in zip(self._columns, [*prefix, *tail, vals, counts]):
            chunks.append(col)

    def finalize(self) -> tuple[list, np.ndarray | None, list, np.ndarray]:
        """Join each column and drop its chunks before joining the next, so
        the chunks and the joined columns are never all live at once."""
        if not self._columns:
            return [np.empty(0, CRD_DTYPE)] * self.levels, None, [], np.empty(0, VAL_DTYPE)
        out = []
        for chunks in self._columns:
            out.append(chunks[0] if len(chunks) == 1 or chunks[0] is None
                       else np.concatenate(chunks))
            chunks.clear()
        *coords, vals, counts = out
        return coords[:self.prefix], counts, coords[self.prefix:], vals


class _Execution:
    def __init__(self, plan: Plan, tensors: dict[str, Tensor]) -> None:
        self.plan = plan
        self.tensors = tensors
        self.counters = Counters()
        self._validate()
        # what each batch carries, by the id of the node that builds it
        self.keep: dict[int, _Keep] = {}
        self._root = _needs(plan.body, set(), self.keep)
        # one implementation per workspace, built at its first allocation
        self.workspaces: dict[str, Workspace] = {}
        self.reg: np.ndarray | None = None
        self.override: Tensor | None = None
        # (parent position, coordinate) keys of the levels that locate searches
        self._level_keys: dict[tuple[str, int], np.ndarray] = {}
        if not plan.result_format.all_dense():
            self.collector = _Collector(plan.result_format.order)
        else:
            shape = tuple(self.extents[v] for v in plan.result.vars)
            self.dense_out = np.zeros(shape, dtype=np.float64)

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
               crd: np.ndarray, keep: _Keep) -> _Rows:
        """Find each row's coordinate among the children of its position at a
        compressed level; rows where it is absent drop out."""
        t = self.tensors[tensor]
        extent = t.level_extent(level)
        keys = self._level_keys.get((tensor, level))
        if keys is None:
            lvl = t.levels[level]
            parent = np.repeat(np.arange(len(lvl.pos) - 1), np.diff(lvl.pos))
            keys = self._level_keys[tensor, level] = parent * extent + lvl.crd
        want = rows.pos[aid] * extent
        want += crd
        at = np.searchsorted(keys, want)
        found = at < len(keys)
        found[found] = keys[at[found]] == want[found]
        hit = np.flatnonzero(found)
        out = rows.take(hit, keep)
        if _pos(aid) in keep.sets:
            out.pos[aid] = at[hit]
        return out

    def run(self) -> ExecutionResult:
        # one iteration, every access at its root position
        root = _Rows(1, {}, {a: np.zeros(1, dtype=np.int64)
                             for kind, a in self._root if kind == "pos"},
                     np.zeros(1, dtype=np.int64) if _OWNER in self._root else None)
        for node in self.plan.body:
            node.run(self, root)
        # fold each workspace's counters and drop the workspaces: an engine's
        # all array would keep its keys live through compression
        while self.workspaces:
            self.counters.merge(self.workspaces.popitem()[1].counters)
        if self.override is not None:
            return ExecutionResult(self.override, self.counters)
        fmt = self.plan.result_format
        dims = tuple(self.extents[v] for v in self.plan.result.vars)
        if fmt.all_dense():
            by_level = np.transpose(self.dense_out, access_map(range(fmt.order), fmt))
            if by_level.flags.c_contiguous:  # the tensor takes the array over
                levels = tuple(DenseLevel(e) for e in by_level.shape)
                tensor = Tensor(dims, fmt, levels, None, by_level.reshape(-1))
            else:  # one copy, into level order
                tensor = from_dense(self.dense_out, fmt)
        else:
            prefix, counts, tail, out_vals = self.collector.finalize()
            tensor = compress_segments(prefix, counts, tail, out_vals, fmt, dims)
        return ExecutionResult(tensor, self.counters)


def execute(plan: Plan, tensors: dict[str, Tensor],
            options: ExecutionOptions | None = None) -> ExecutionResult:
    """Bind tensors to a plan and run it, returning the result tensor and the
    aggregated runtime counters. ``options`` is accepted and ignored (see
    ExecutionOptions)."""
    return _Execution(plan, tensors).run()
