"""Lowering scheduled statements to imperative loop plans, and executing them.

A plan is a tree of loop nodes. Each loop is driven either by a dense range
or by one compressed tensor level it walks; the other compressed levels that
drive it are located in the walked one's coordinates, which intersects any
number of them. Further operands resolve inside the loop through probes
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
    sparse_union_operand,
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
    check_reductions,
    expr_accesses,
    format_expr,
    nest_assign,
    nest_core,
    nest_vars,
)
from .ism import _BLOCK, Counters, IsmEngine, Policy, _sort_arrivals, hash_default_l
from .tensor import (
    COMPRESSED,
    CRD_DTYPE,
    MAX_EXTENT,
    CompressedLevel,
    DenseLevel,
    Format,
    Tensor,
    VAL_DTYPE,
    _sum_groups,
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
# ``keep``, what the batches it builds carry, and a statement what the nodes
# after it read: it releases each operand's positions at their last read,
# and an insert its slot coordinates once its keys are built, unless they
# are read after it.


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
        total = rows.n * ext
        dtype = ex.index_dtype(total)

        def batch(lo: int, hi: int) -> _Rows:
            at = np.arange(lo, hi, dtype=dtype)
            child = rows.take(at // ext, keep)
            if _crd(var) in keep.sets:
                child.crd[var] = np.remainder(at, ext, out=np.empty(len(at), CRD_DTYPE),
                                              casting="unsafe")
            return child

        return _batches(batch, total, chunk)


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
        total = int(ends[-1])
        dtype = ex.index_dtype(total)
        # a shift can be negative: in uint32 it wraps, and so does the sum,
        # which is a position and fits
        ends, shift = ends.astype(dtype, copy=False), shift.astype(dtype, copy=False)

        def batch(lo: int, hi: int) -> _Rows:
            at = np.arange(lo, hi, dtype=dtype)
            row = np.searchsorted(ends, at, side="right")
            child = rows.take(row, keep)
            at += shift[row]
            if _pos(self.aid) in keep.sets:
                child.pos[self.aid] = at.astype(ex.pos_dtype, copy=False)
            if _crd(var) in keep.sets:
                child.crd[var] = _take(level.crd, at)
            return child

        return _batches(batch, total, chunk)


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
    """Search a compressed level for the loop variable's coordinate. A
    locate that ``drives`` its loop is one of the levels it intersects: the
    loop walks its first level and locates every other one, ahead of its
    other probes, and names them all in its header."""

    aid: int
    tensor: str
    level: int
    var: IndexVar
    drives: bool = False

    def __str__(self) -> str:
        return f"{self.tensor}.level({self.level})"

    def lines(self, plan: Plan) -> list[str]:
        return [] if self.drives else [f"locate {self.var.name} in {self}"]

    def needs(self, live: set, keep: dict) -> set:
        keep[id(self)] = _Keep.of(live, {_pos(self.aid)})
        return live | {_pos(self.aid), _crd(self.var)}

    def run(self, ex: _Execution, rows: _Rows) -> _Rows:
        return ex.locate(rows, self.aid, self.tensor, self.level, rows.crd[self.var],
                         ex.keep[id(self)])


@dataclass
class LoopNode:
    var: IndexVar
    driver: DenseRange | LevelIter
    probes: list = field(default_factory=list)
    body: list = field(default_factory=list)

    def lines(self, plan: Plan) -> list[str]:
        levels = [self.driver, *(p for p in self.probes if isinstance(p, Locate) and p.drives)]
        out = [f"forall {self.var.name} in {' & '.join(map(str, levels))}:"]
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
        # a loop's batch stays live while the loops nested in it run; a
        # hosted workspace takes a leaf batch in one call, and sums or plans
        # at most an engine block of pairs at once
        chunk = _OUTER_CHUNK if self.nests else _CHUNK
        if any(isinstance(n, InsertWs) and n.meta.hosted for n in self.body):
            chunk = min(chunk, _BLOCK)
        for child in self.driver.expand(ex, rows, self.var, chunk):
            for probe in self.probes:
                child = probe.run(ex, child)
            # a batch the probes filtered out: no statement, and no
            # workspace, sees it
            if child.n:
                if hosts:
                    child.owner = np.arange(child.n, dtype=_OWNER_DTYPE)
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
        keep[id(self)] = _Keep.of(live, set())
        return live | _operands(self.expr, self.amap) | {_OWNER}

    def run(self, ex: _Execution, rows: _Rows) -> None:
        _sum_groups(ex.reg, rows.owner, _evaluate(ex, rows, self))


@dataclass
class Append:
    """Append the expression's values at the tracked output coordinates; with
    no expression, the register's."""

    level_vars: tuple[IndexVar, ...]
    expr: Expr | None = None
    amap: dict = field(default_factory=dict)

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.level_vars)
        value = "" if self.expr is None else f" = {format_expr(self.expr)}"
        return [f"append ({coords}){value} -> {plan.result.tensor}"]

    def needs(self, live: set, keep: dict) -> set:
        keep[id(self)] = _Keep.of(live, set())
        live = live | {_crd(v) for v in self.level_vars}
        return live if self.expr is None else live | _operands(self.expr, self.amap)

    def run(self, ex: _Execution, rows: _Rows) -> None:
        vals = ex.reg if self.expr is None else _evaluate(ex, rows, self)
        ex.collector.extend([rows.crd[v] for v in self.level_vars], None, [], vals)


@dataclass
class ScatterDense:
    mode_vars: tuple[IndexVar, ...]
    expr: Expr
    amap: dict

    def lines(self, plan: Plan) -> list[str]:
        coords = ", ".join(v.name for v in self.mode_vars)
        return [f"{plan.result.tensor}[{coords}] += {format_expr(self.expr)}"]

    def needs(self, live: set, keep: dict) -> set:
        keep[id(self)] = _Keep.of(live, set())
        return live | {_crd(v) for v in self.mode_vars} | _operands(self.expr, self.amap)

    def run(self, ex: _Execution, rows: _Rows) -> None:
        # row-major positions in the result, in int64
        at = np.zeros(rows.n, dtype=np.int64)
        for v, e in zip(self.mode_vars, ex.dense_out.shape):
            at *= e
            at += rows.crd[v]
        _sum_groups(ex.dense_out.reshape(-1), at, _evaluate(ex, rows, self))


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
        keep[id(self)] = _Keep.of(live, set())
        live = live | {_crd(v) for v in self.meta.slot_vars} | _operands(self.expr, self.amap)
        # a workspace that no loop hosts has one host row, 0
        return live | {_OWNER} if self.meta.hosted else live

    def run(self, ex: _Execution, rows: _Rows) -> None:
        ws = ex.workspaces[self.meta.name]
        first, *rest = self.meta.slot_vars
        keys = rows.crd[first].astype(ws.key_dtype)
        for v in rest:
            keys *= ex.extents[v]
            keys += rows.crd[v]
        rows.drop(ex.keep[id(self)])
        owner = rows.owner if self.meta.hosted else np.broadcast_to(_ROW0, (rows.n,))
        ws.insert(owner, keys, _evaluate(ex, rows, self))


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
    """Drain the workspace into a tensor in its workspace format, the plan's
    result; execute() then runs the consumer's plan over it."""

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
        dims = tuple(ex.extents[v] for v in meta.i_vars)
        ex.override = compress_arrays([slot_coords[s] for s in meta.descriptor.ow_order],
                                      wvals, meta.ws_format, dims)


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
    # whether a prefix loop hosts the workspace, one host row per iteration
    hosted: bool = False


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
        drivers: dict[int, list[tuple]] = {i: [] for i in range(len(order))}
        probes: dict[int, list] = {i: [] for i in range(len(order))}
        for site in sites:
            resolved = -1
            for lvl, v in enumerate(site.level_vars):
                if v not in posmap:
                    raise LoweringError(
                        f"variable {v.name} of access {site.access} is not "
                        "bound by the loop nest")
                own = posmap[v]
                kind = site.fmt.levels[lvl]
                if kind is COMPRESSED and own > resolved:
                    drivers[own].append((site.aid, site.access.tensor, lvl))
                    resolved = own
                else:
                    at = max(own, resolved)
                    cls = Locate if kind is COMPRESSED else DenseStep
                    probes[at].append(cls(site.aid, site.access.tensor, lvl, v))
                    resolved = at
        loops: list[LoopNode] = []
        for i, v in enumerate(order):
            # walk the first compressed level and locate the others: the
            # common coordinates, in the order of a merge
            cands = drivers[i]
            driver = LevelIter(*cands[0]) if cands else DenseRange(v)
            ordered_probes = [*(Locate(*c, v, drives=True) for c in cands[1:]),
                              *sorted(probes[i], key=lambda p: (p.aid, p.level))]
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
        check_reductions(nest_assign(stmt))
        return _lower_plain(stmt, formats)
    prefix = tuple(nest_vars(stmt))
    for part in (core.producer, core.consumer):
        check_reductions(nest_assign(part), prefix)
    return _lower_workspace(stmt, prefix, core, formats)


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

    # NONE for a sparse result: one term with no sparse union, its result
    # coordinates in storage order, every reduction loop inside them
    cls = decision.classification
    order = cls.loop_order
    chain, innermost, amap = low.build_pass(order, assign.rhs)
    if not cls.reduction_vars:
        innermost.body.append(Append(cls.output_order, assign.rhs, amap))
    else:
        innermost.body.append(AccumReg(assign.rhs, amap))
        host = chain[order.index(cls.reduction_vars[0]) - 1]
        host.body = [SetReg(), *host.body, Append(cls.output_order)]
    return Plan(stmt, assign.lhs, result_fmt, [chain[0]], low.operands(),
                low.sites, [])


def _producer_passes(low: _Lowerer, producer: Statement, i_vars: tuple[IndexVar, ...],
                     payload_for: "callable", prefix: tuple[IndexVar, ...] = ()) -> list:
    """One loop chain per additive term, led by the prefix loops and ending
    in its payload node. A product over a sum that holds a sparse operand
    is distributed first, and each of its terms loops over the variables of
    the product it came from."""
    p_assign = nest_assign(producer)
    order = [*prefix, *reconstruct_input_order(producer)]
    chains: list = []
    for term in add_terms(p_assign.rhs):
        term_vars = set(v for a in expr_accesses(term) for v in a.vars)
        pass_order = [v for v in order if v in prefix or v in term_vars or v in i_vars]
        for piece in _distribute(term, low.formats):
            chain, innermost, amap = low.build_pass(pass_order, piece)
            innermost.body.append(payload_for(piece, amap))
            chains.append(chain)
    return chains


def _distribute(term: Expr, formats: dict[str, Format]) -> list[Expr]:
    """The terms whose sum the term is, none with a sparse operand under an
    addition: ``B*(C+D)`` gives ``B*C`` and ``B*D``. A sum of dense
    operands stays in its term."""
    if sparse_union_operand(term, formats) is None:
        return [term]
    if isinstance(term, Add):
        return [*_distribute(term.lhs, formats), *_distribute(term.rhs, formats)]
    return [Mul(lhs, rhs) for lhs in _distribute(term.lhs, formats)
            for rhs in _distribute(term.rhs, formats)]


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

    inv = _inverse(descriptor.ow_order)
    slot_vars = tuple(i_vars[m] for m in inv)
    ws_accesses = [a for a in expr_accesses(c_assign.rhs) if a.tensor == ws]
    renames = ws_accesses[0].vars if ws_accesses else ()
    meta = WsMeta(ws, descriptor, impl, i_vars, slot_vars, consumer_vars=renames,
                  hosted=bool(prefix))
    low = _Lowerer(formats)
    chains = _producer_passes(low, where.producer, i_vars,
                              lambda term, amap: InsertWs(meta, term, amap), prefix)

    if prefix:
        if len(chains) > 1:
            raise LoweringError("a hoisted workspace covers a single product term")
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
    result, tail = c_assign.lhs, DrainWs(meta, ())
    if not straight:
        # the plan ends at the workspace's tensor, which the consumer's plan
        # reads
        meta.ws_format = Format(
            (COMPRESSED,) * len(i_vars),
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
        result, result_fmt, tail = Access(ws, i_vars), meta.ws_format, MaterializeWs(meta)
    return Plan(root, result, result_fmt,
                [AllocWs(meta), *(chain[0] for chain in chains), tail],
                low.operands(), low.sites, [meta])


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
    deepest resolved level (the execution's ``pos_dtype``), and each
    iteration's row in the batch of its host loop (``owner``, uint32), each
    only where the nodes below still read it."""

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
        """Release every coordinate column ``keep`` does not gather."""
        for v in [v for v in self.crd if v not in keep.crd]:
            del self.crd[v]

    def read(self, aid: int, reads: dict) -> np.ndarray:
        """An access's positions. ``reads`` counts the reads left of each
        column to release: the batch lets go of it at the last one."""
        pos = self.pos[aid]
        if aid in reads:
            reads[aid] -= 1
            if not reads[aid]:
                del self.pos[aid]
        return pos


# the columns of a batch: a variable's coordinates, an access's positions,
# and the host rows
def _crd(v: IndexVar) -> tuple:
    return ("crd", v)


def _pos(aid: int) -> tuple:
    return ("pos", aid)


_OWNER = ("owner", None)
# a host batch has at most _OUTER_CHUNK rows
_OWNER_DTYPE = np.dtype(np.uint32)
# the host row of every pair a workspace that no loop hosts inserts,
# broadcast to a batch's length without a byte per pair
_ROW0 = np.zeros(1, _OWNER_DTYPE)


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


# entries a gather takes at a time, and the fewest pairs a dense
# workspace sums at a time
_SLICE = 1 << 11


def _take(src: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``src[at]`` in an array of its own, gathered by ``take``, which is
    faster than indexing with narrow positions, _SLICE entries at a time."""
    out = np.empty(len(at), src.dtype)
    for lo in range(0, len(at), _SLICE):
        src.take(at[lo:lo + _SLICE], out=out[lo:lo + _SLICE])
    return out


def _values(ex: _Execution, rows: _Rows, expr: Expr, amap: dict, reads: dict):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Access):
        return _take(ex.tensors[expr.tensor].vals, rows.read(amap[expr], reads))
    if isinstance(expr, (Add, Mul)):
        add = isinstance(expr, Add)
        op = np.add if add else np.multiply
        lhs = _values(ex, rows, expr.lhs, amap, reads)
        if not (isinstance(lhs, np.ndarray) and lhs.dtype == VAL_DTYPE):
            rhs = _values(ex, rows, expr.rhs, amap, reads)
            return lhs + rhs if add else lhs * rhs
        # an array the expression allocated takes the result in place; an
        # operand joins it a slice at a time, never as a whole column
        if isinstance(expr.rhs, Access):
            vals = ex.tensors[expr.rhs.tensor].vals
            pos = rows.read(amap[expr.rhs], reads)
            for lo in range(0, len(lhs), _SLICE):
                part = lhs[lo:lo + _SLICE]
                op(part, _take(vals, pos[lo:lo + _SLICE]), out=part)
            return lhs
        return op(lhs, _values(ex, rows, expr.rhs, amap, reads), out=lhs)
    raise LoweringError(f"unknown expression node {expr!r}")


def _evaluate(ex: _Execution, rows: _Rows, node) -> np.ndarray:
    """The value of a statement node's expression at every row, operand by
    operand in the order the expression gives. Each position column that
    the nodes after it do not read is released at its last read."""
    keep, amap = ex.keep[id(node)], node.amap
    reads: dict[int, int] = {}
    for aid in (amap[a] for a in expr_accesses(node.expr)):
        if aid not in keep.pos:
            reads[aid] = reads.get(aid, 0) + 1
    vals = np.asarray(_values(ex, rows, node.expr, amap, reads), dtype=np.float64)
    # a constant's one value serves every row as a read-only view
    return vals if vals.shape == (rows.n,) else np.broadcast_to(vals, (rows.n,))


# -- workspace implementations -------------------------------------------------------


class Workspace:
    """The protocol of a workspace implementation; WORKSPACE_KINDS maps a
    descriptor's kind to one. An execution builds ``impl(ex, meta)`` at the
    workspace's first allocation. For each host batch it then calls
    ``start(n)`` with the batch's ``n >= 1`` host rows (one at top level),
    ``insert(owner, keys, vals)`` once per leaf batch, with row-major keys
    over the slot extents, in the workspace's ``key_dtype``, and each
    pair's host row (uint32), rows in order; a hosted workspace's leaf
    batch holds at most an engine block (``ism._BLOCK``) of pairs, and a
    workspace that no loop hosts gets row 0 for every pair, as a read-only
    view of one value. Then ``finish()`` ends the
    batch and returns it as one block ``(counts, coordinates, values)``:
    each host row's entry count (int64), 0 for a row no pair names, then
    every entry's slot coordinates (CRD_DTYPE) and value, row after row and
    sorted within a row. The caller owns all of these arrays. ``counters``
    join the execution's when it ends. The plan announces the workspace at
    its head if ``announced_at_head``, else at the allocation; the class
    methods refuse placements at lowering and give the plan lines at an
    insert and at a drain into the tensor ``into`` (None materializes the
    workspace)."""

    counters: Counters
    key_dtype = np.dtype(np.uint64)
    announced_at_head = False

    @classmethod
    def check(cls, descriptor: WorkspaceDescriptor, prefix: tuple[IndexVar, ...]) -> None:
        pass


class _Block:
    """Entries in storage-level order, as segments: the first levels'
    coordinates and an entry count once per segment (no count: one entry
    each), then the other levels' coordinates and the value once per entry.
    An empty block takes over the arrays of its first extend and never
    writes into or resizes them; more entries are copied once into buffers
    of its own, which grow in place by at least a sixteenth, so a column
    holds at most a sixteenth of its entries in headroom."""

    def __init__(self, levels: int) -> None:
        self.levels = levels
        # every column, the per-segment ones first, and its length
        self.columns: list[np.ndarray] = []
        self.sizes: list[int] = []
        self.owned = False

    def extend(self, prefix: list[np.ndarray], counts: np.ndarray | None,
               tail: list[np.ndarray], vals: np.ndarray) -> None:
        if not len(vals):
            return
        new = [*prefix, *([] if counts is None else [counts]), *tail, vals]
        if not self.columns:
            self.prefix, self.counted = len(prefix), counts is not None
            self.columns, self.sizes = new, [len(c) for c in new]
            return
        for i, src in enumerate(new):
            col, start = self.columns[i], self.sizes[i]
            end = self.sizes[i] = start + len(src)
            size = max(end, len(col) + len(col) // 16)
            if not self.owned:
                own = np.empty(size, col.dtype)
                own[:start] = col
                col = self.columns[i] = own
            elif end > len(col):
                # nothing else refers to a buffer while it is resized
                col.resize(size, refcheck=False)
            col[start:end] = src
        self.owned = True

    def take(self) -> tuple[list[np.ndarray], np.ndarray | None, list[np.ndarray], np.ndarray]:
        """``(prefix, counts, tail, vals)``, the buffers of the block's own
        cut to their entries in place."""
        if not self.columns:
            return [], None, [np.empty(0, CRD_DTYPE)] * self.levels, np.empty(0, VAL_DTYPE)
        if self.owned:
            for col, size in zip(self.columns, self.sizes):
                col.resize(size, refcheck=False)
        *coords, vals = self.columns
        if self.counted:
            return coords[:self.prefix], coords[self.prefix], coords[self.prefix + 1:], vals
        return coords[:self.prefix], None, coords[self.prefix:], vals


# a drain: an insert runs one when Acc is full, and finish() the final one
_DRAIN_LINES = ["sort Acc", "merge Acc -> All"]


class IsmWorkspace(Workspace):
    """A sparse workspace: one IsmEngine per execution, called once per leaf
    batch with each pair's host row. A host row's pairs form an engine run,
    which ends where a later row's pairs start or at finish(), which always
    ends one; the rows each call ends join the batch's block with their
    entry counts. A row without pairs keeps its count of 0. A workspace
    that no loop hosts is the one-row case: every pair is row 0's."""

    def __init__(self, ex: _Execution, meta: WsMeta) -> None:
        d = meta.descriptor
        hash_l = d.hash_l
        if d.policy is Policy.HASH and hash_l is None:  # sized from the operands
            hash_l = hash_default_l(sum(t.nnz for name, t in ex.tensors.items()
                                        if name in ex.plan.operands and not t.format.all_dense()))
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
        self.counts = np.zeros(n, dtype=np.int64)
        self.block = _Block(len(self.engine.extents))

    def insert(self, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
        for rows, counts, coords, entries in self.engine.insert_batch(keys, vals, owner):
            self.counts[rows] = counts
            self.block.extend([], None, coords, entries)

    def finish(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        row = self.engine.row
        coords, vals = self.engine.result()
        if row is not None:
            self.counts[row] = len(vals)
            self.block.extend([], None, coords, vals)
        _, _, coords, vals = self.block.take()
        return self.counts, coords, vals


class DenseWorkspace(Workspace):
    """A dense workspace over one dimension for every row of a host batch.
    Each (row, coordinate) keeps a running sum that starts at 0.0 and adds
    values in arrival order, as ``W[c] += v`` would; once a later row
    arrives, a row's sums are final and move to the batch's block. It keeps
    only the cells it touched, never an array over the extent: the open
    row's, and those of one slice of pairs while it sums them."""

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
        self.counts = np.zeros(n, dtype=np.int64)
        self.block = _Block(1)
        # the open row, the last one a slice named, and its cells in order
        self.row = 0
        self.crd = np.empty(0, CRD_DTYPE)
        self.sums = np.empty(0, VAL_DTYPE)

    def insert(self, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
        self.counters.inserts += len(keys)
        lo = 0
        while lo < len(keys):
            # a slice carries the open row's cells, so it takes as many new
            # pairs at least: a long row costs each pair a bounded share
            hi = lo + max(_SLICE, len(self.crd))
            self._sum(owner[lo:hi], keys[lo:hi], vals[lo:hi])
            lo = hi

    def _sum(self, owner: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> None:
        """Sum a slice of pairs after the open row's cells, which come first
        with their sums as values; every row before the slice's last is then
        final and moves to the block. One sort of (cell, arrival) puts each
        cell's values together in arrival order for ``_sum_groups``; adding
        0.0 then turns only a sum of -0.0 alone into 0.0, as ``W[c] += v``
        from 0.0 gives, so a carried sum is never -0.0."""
        rows = np.concatenate((np.full(len(self.crd), self.row, owner.dtype), owner))
        crd = np.concatenate((self.crd, keys))
        vals = np.concatenate((self.sums, vals))
        first, last = int(rows[0]), int(rows[-1])
        # cells numbered from the slice's first row, each row extent cells
        cells = np.subtract(rows, first, dtype=np.uint64)
        cells *= self.extent
        cells += crd
        order, lead, low = _sort_arrivals(
            cells, ((last - first + 1) * self.extent - 1).bit_length())
        del cells
        order &= low  # arrivals in cell order
        cell = np.cumsum(lead) - 1
        sums = np.empty(int(cell[-1]) + 1, VAL_DTYPE)
        _sum_groups(sums, cell, vals.take(order), slice(None))
        sums += 0.0
        del cell
        order = order.compress(lead)
        crd, rows = crd.take(order), rows.take(order)
        # the last row's cells stay open, in arrays of their own
        final = int(np.searchsorted(rows, last))
        self.counts[first:last] = np.bincount(rows[:final] - first, minlength=last - first)
        self.block.extend([], None, [crd[:final]], sums[:final])
        self.row, self.crd, self.sums = last, crd[final:].copy(), sums[final:].copy()

    def finish(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Every cell a value was added to, in order, a sum that cancels to
        0.0 included, as a sparse workspace keeps it."""
        self.counts[self.row] = len(self.crd)
        self.block.extend([], None, [self.crd], self.sums)
        _, _, crd, vals = self.block.take()
        return self.counts, crd, vals


WORKSPACE_KINDS: dict[str, type[Workspace]] = {
    SPARSE_WS: IsmWorkspace,
    DENSE_WS: DenseWorkspace,
}


def _position_indexed(t: Tensor) -> list[np.ndarray]:
    """The arrays of a tensor that positions index: the values and each
    compressed level's pos and crd."""
    levels = [lvl for lvl in t.levels or () if isinstance(lvl, CompressedLevel)]
    return [t.vals, *(lvl.pos for lvl in levels), *(lvl.crd for lvl in levels)]


class _Execution:
    def __init__(self, plan: Plan, tensors: dict[str, Tensor]) -> None:
        self.plan = plan
        self.tensors = tensors
        self.counters = Counters()
        self._validate()
        # positions in 32 bits where every operand array they index, and so
        # every position count, fits them
        narrow = all(len(a) < MAX_EXTENT for name in plan.operands
                     for a in _position_indexed(tensors[name]))
        self.pos_dtype = np.dtype(CRD_DTYPE if narrow else np.int64)
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
            self.collector = _Block(plan.result_format.order)
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
        """Size each index variable from the tensors at the plan's sites. A
        workspace's consumer-side renamings range over the producer's
        dimensions, and its fixed extents must equal the bound ones."""
        self.extents: dict[IndexVar, int] = {}
        for name, acc in self.plan.sites.values():
            for v, e in zip(acc.vars, self.tensors[name].dims):
                prev = self.extents.setdefault(v, e)
                if prev != e:
                    raise LoweringError(
                        f"dimension mismatch for {v.name}: {prev} vs {e} (from {name})")
        for meta in self.plan.workspaces:
            for m, v in enumerate(meta.consumer_vars):
                if meta.i_vars[m] in self.extents:
                    self.extents.setdefault(v, self.extents[meta.i_vars[m]])
            for d, v in zip(meta.descriptor.dims, meta.i_vars):
                if not isinstance(d, str) and d != self.extents.get(v, d):
                    raise LoweringError(f"workspace {meta.name} fixes the extent of "
                                        f"{v.name} at {d}, but the tensors bind it to "
                                        f"{self.extents[v]}")

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
        # the key space can pass 2^32 where the positions do not
        want = np.multiply(rows.pos[aid], extent, dtype=np.int64)
        want += crd
        at = np.searchsorted(keys, want)
        found = at < len(keys)
        found[found] = keys[at[found]] == want[found]
        hit = np.flatnonzero(found)
        out = rows.take(hit, keep)
        if _pos(aid) in keep.sets:
            out.pos[aid] = at[hit].astype(self.pos_dtype, copy=False)
        return out

    def index_dtype(self, total: int) -> np.dtype:
        """The dtype of the iteration index of a loop expanded to ``total``
        iterations: the position dtype, unless the index passes it."""
        return self.pos_dtype if total < MAX_EXTENT else np.dtype(np.int64)

    def run(self) -> ExecutionResult:
        # one iteration, every access at its root position
        root = _Rows(1, {}, {a: np.zeros(1, dtype=self.pos_dtype)
                             for kind, a in self._root if kind == "pos"},
                     np.zeros(1, dtype=_OWNER_DTYPE) if _OWNER in self._root else None)
        for node in self.plan.body:
            node.run(self, root)
        # fold each workspace's counters and drop the workspaces: finish()
        # left every engine empty, but a workspace's last block would keep
        # the entries it handed over live through compression
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
            prefix, counts, tail, out_vals = self.collector.take()
            tensor = compress_segments(prefix, counts, tail, out_vals, fmt, dims)
        return ExecutionResult(tensor, self.counters)


def execute(plan: Plan, tensors: dict[str, Tensor],
            options: ExecutionOptions | None = None) -> ExecutionResult:
    """Bind tensors to a plan and run it, returning the result tensor and the
    aggregated runtime counters. A plan that materializes a workspace ends
    at the workspace's tensor; its consumer's plan then runs over it and
    gives the result. ``options`` is accepted and ignored (see
    ExecutionOptions)."""
    out = _Execution(plan, tensors).run()
    for meta in plan.workspaces:
        if meta.subplan is not None:
            sub = execute(meta.subplan, {**tensors, meta.name: out.tensor})
            sub.counters.merge(out.counters)
            out = sub
    return out
