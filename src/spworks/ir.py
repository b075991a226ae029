"""Loop-level index notation: expressions, statements, scheduling transforms.

Statements are forall nests around a single assignment, optionally split
into a consumer/producer pair by ``where`` once a workspace is introduced.
Scheduling transforms (reorder, split, fuse, pos) rewrite the loop nest and
log a relation on the statement; access variables inside expressions are
never rewritten by scheduling. The relation log is what makes the original
iteration order reconstructible later.
"""

from __future__ import annotations

import enum
import numbers
import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from .ism import Policy


class IrError(ValueError):
    pass


class VarKind(enum.Enum):
    ORIGINAL = "original"
    SPLIT = "split"
    FUSED = "fused"
    POSITION = "position"


@dataclass(frozen=True, eq=False)
class IndexVar:
    """An index variable; identity is the name, kind records how it was made."""

    name: str
    kind: VarKind = VarKind.ORIGINAL
    provenance: "SchedulingRelation | None" = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IndexVar) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


def var(name: str) -> IndexVar:
    return IndexVar(name)


def _as_var(v: IndexVar | str) -> IndexVar:
    return v if isinstance(v, IndexVar) else IndexVar(v)


class Expr:
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, other)

    def __mul__(self, other: "Expr") -> "Expr":
        return Mul(self, other)


@dataclass(frozen=True)
class Access(Expr):
    tensor: str
    vars: tuple[IndexVar, ...]

    def __str__(self) -> str:
        return f"{self.tensor}({','.join(v.name for v in self.vars)})"


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


def expr_accesses(expr: Expr) -> Iterator[Access]:
    if isinstance(expr, Access):
        yield expr
    elif isinstance(expr, (Add, Mul)):
        yield from expr_accesses(expr.lhs)
        yield from expr_accesses(expr.rhs)


def add_terms(expr: Expr) -> list[Expr]:
    """The top-level additive terms of an expression, left to right."""
    if isinstance(expr, Add):
        return add_terms(expr.lhs) + add_terms(expr.rhs)
    return [expr]


def expr_vars(expr: Expr) -> list[IndexVar]:
    seen: list[IndexVar] = []
    for acc in expr_accesses(expr):
        for v in acc.vars:
            if v not in seen:
                seen.append(v)
    return seen


def format_expr(expr: Expr, parent_add: bool = False) -> str:
    if isinstance(expr, Access):
        return str(expr)
    if isinstance(expr, Const):
        v = expr.value
        return str(int(v)) if float(v).is_integer() else repr(v)
    if isinstance(expr, Add):
        s = f"{format_expr(expr.lhs)} + {format_expr(expr.rhs)}"
        return f"({s})" if parent_add else s
    if isinstance(expr, Mul):
        return f"{format_expr(expr.lhs, True)} * {format_expr(expr.rhs, True)}"
    raise IrError(f"unknown expression node {type(expr).__name__}")


# -- scheduling relations -----------------------------------------------------


@dataclass(frozen=True)
class SchedulingRelation:
    pass


@dataclass(frozen=True)
class Reorder(SchedulingRelation):
    order: tuple[IndexVar, ...]


@dataclass(frozen=True)
class Split(SchedulingRelation):
    var: IndexVar
    outer: IndexVar
    inner: IndexVar
    step: int


@dataclass(frozen=True)
class Fuse(SchedulingRelation):
    outer: IndexVar
    inner: IndexVar
    fused: IndexVar


@dataclass(frozen=True)
class Pos(SchedulingRelation):
    var: IndexVar
    position: IndexVar
    access: Access


# -- workspace descriptor -----------------------------------------------------

# the built-in workspace kinds, implemented in lowering.WORKSPACE_KINDS
SPARSE_WS = "sparse"
DENSE_WS = "dense"


@dataclass(frozen=True)
class WorkspaceDescriptor:
    """Kind, shape, sorting policy and capacity of an inserted workspace.

    ``kind`` names the implementation in ``lowering.WORKSPACE_KINDS``,
    SPARSE_WS (insert-sort-merge) or DENSE_WS. ``dims`` entries are
    either fixed extents or dimension symbols (upper-case variable names)
    resolved when tensors are bound. ``ow_order`` maps each
    producer-side insertion variable to its position in the consumer's access
    order. ``hash_l`` is the bucket count for the hash policy; left unset it
    defaults from the input nonzero count at execution time.
    """

    order: int
    dims: tuple[int | str, ...]
    policy: Policy
    capacity: int
    ow_order: tuple[int, ...]
    hash_l: int | None = None
    kind: str = SPARSE_WS

    def __post_init__(self) -> None:
        if len(self.dims) != self.order or len(self.ow_order) != self.order:
            raise IrError("descriptor dims/ow_order must match the workspace order")
        if sorted(self.ow_order) != list(range(self.order)):
            raise IrError(f"ow_order {self.ow_order} is not a permutation")
        if not isinstance(self.capacity, numbers.Integral) or self.capacity < 1:
            raise IrError(f"workspace capacity {self.capacity!r} is not an integer >= 1")
        if self.hash_l is not None and (not isinstance(self.hash_l, numbers.Integral)
                                        or self.hash_l < 1):
            raise IrError(f"hash bucket count {self.hash_l!r} is not an integer >= 1")

    def __str__(self) -> str:
        dims = "{" + ",".join(str(d) for d in self.dims) + "}"
        ow = "[" + ",".join(str(o) for o in self.ow_order) + "]"
        if self.kind == DENSE_WS:
            return f"DenseWs(order={self.order}), dims={dims}"
        return (
            f"SpFormat(order={self.order}, policy={self.policy.label}), "
            f"dims={dims}, ow_order={ow}, capacity={self.capacity}"
        )


# -- statements ----------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    relations: tuple[SchedulingRelation, ...] = field(default=(), kw_only=True)

    # scheduling API, defined below as free functions and attached for chaining
    def reorder(self, *order: IndexVar | str) -> "Statement":
        return reorder(self, order)

    def split(self, v: IndexVar | str, outer: str, inner: str, step: int) -> "Statement":
        return split(self, v, outer, inner, step)

    def fuse(self, outer: IndexVar | str, inner: IndexVar | str, fused: str) -> "Statement":
        return fuse(self, outer, inner, fused)

    def pos(self, v: IndexVar | str, position: str, access: Access | str) -> "Statement":
        return pos(self, v, position, access)

    def precompute(
        self,
        expr: Expr,
        i_vars: Sequence[IndexVar | str],
        o_vars: Sequence[IndexVar | str] | None,
        descriptor: WorkspaceDescriptor,
        ws: str = "W",
        consumer_order: Sequence[IndexVar | str] | None = None,
    ) -> "Statement":
        return precompute(self, expr, i_vars, o_vars, descriptor, ws, consumer_order)

    def __str__(self) -> str:
        return format_statement(self)


@dataclass(frozen=True)
class Assign(Statement):
    lhs: Access
    rhs: Expr
    accumulate: bool


@dataclass(frozen=True)
class Forall(Statement):
    var: IndexVar
    body: Statement


@dataclass(frozen=True)
class Where(Statement):
    consumer: Statement
    producer: Statement
    ws: str
    descriptor: WorkspaceDescriptor


def nest_vars(stmt: Statement) -> list[IndexVar]:
    """Loop variables of a plain forall nest, outermost first."""
    out: list[IndexVar] = []
    while isinstance(stmt, Forall):
        out.append(stmt.var)
        stmt = stmt.body
    return out


def nest_core(stmt: Statement) -> Statement:
    while isinstance(stmt, Forall):
        stmt = stmt.body
    return stmt


def nest_assign(stmt: Statement) -> Assign:
    core = nest_core(stmt)
    if not isinstance(core, Assign):
        raise IrError("expected a forall nest around a single assignment")
    return core


def build_nest(vars_: Sequence[IndexVar], core: Statement,
               relations: tuple[SchedulingRelation, ...] = ()) -> Statement:
    stmt: Statement = core
    for v in reversed(list(vars_)):
        stmt = Forall(v, stmt)
    if relations:
        stmt = replace(stmt, relations=relations)
    return stmt


def from_einsum(result: Access, rhs: Expr, loop_order: Sequence[IndexVar | str]) -> Statement:
    """Wrap an assignment in foralls; accumulate when a reduction variable exists."""
    order = [_as_var(v) for v in loop_order]
    if len(set(order)) != len(order):
        raise IrError("loop order contains a repeated variable")
    used = list(result.vars) + [v for v in expr_vars(rhs) if v not in result.vars]
    missing = [v for v in used if v not in order]
    if missing:
        raise IrError(f"variables {missing} are not bound by the loop order")
    unused = [v for v in order if v not in used]
    if unused:
        raise IrError(f"loop order variables {unused} are unused")
    _check_reductions(result, rhs)
    accumulate = any(v not in result.vars for v in expr_vars(rhs))
    return build_nest(order, Assign(result, rhs, accumulate))


def _check_reductions(result: Access, rhs: Expr) -> None:
    """Refuse a sum whose terms, constants included, range over different
    reduction variables. The statement would add such a term once per value
    of a reduction variable it lacks, while lowering runs each term only
    over its own variables, so the two would disagree."""
    terms = add_terms(rhs)
    reductions = [[v.name for v in expr_vars(t) if v not in result.vars] for t in terms]
    if len({frozenset(r) for r in reductions}) > 1:
        over = "; ".join(f"{format_expr(t)} over {{{', '.join(r)}}}"
                         for t, r in zip(terms, reductions))
        raise IrError(f"the terms of a sum must range over the same reduction "
                      f"variables: {over}")


# -- substitution ---------------------------------------------------------------


def subst_expr(expr: Expr, mapping: dict[IndexVar, IndexVar]) -> Expr:
    if isinstance(expr, Access):
        return Access(expr.tensor, tuple(mapping.get(v, v) for v in expr.vars))
    if isinstance(expr, Add):
        return Add(subst_expr(expr.lhs, mapping), subst_expr(expr.rhs, mapping))
    if isinstance(expr, Mul):
        return Mul(subst_expr(expr.lhs, mapping), subst_expr(expr.rhs, mapping))
    return expr


def subst_stmt(stmt: Statement, mapping: dict[IndexVar, IndexVar]) -> Statement:
    if isinstance(stmt, Forall):
        return replace(stmt, var=mapping.get(stmt.var, stmt.var),
                       body=subst_stmt(stmt.body, mapping))
    if isinstance(stmt, Assign):
        return replace(stmt, lhs=subst_expr(stmt.lhs, mapping),
                       rhs=subst_expr(stmt.rhs, mapping))
    raise IrError("substitution applies to plain forall/assign statements")


# -- scheduling transforms ------------------------------------------------------


def _resolve(stmt: Statement, v: IndexVar | str) -> IndexVar:
    v = _as_var(v)
    for existing in nest_vars(stmt):
        if existing == v:
            return existing
    raise IrError(f"variable {v.name} is not in the loop nest")


def _check_fresh(stmt: Statement, name: str) -> None:
    if IndexVar(name) in nest_vars(stmt):
        raise IrError(f"variable name {name!r} is already in use")


def reorder(stmt: Statement, order: Sequence[IndexVar | str]) -> Statement:
    current = nest_vars(stmt)
    wanted = [_resolve(stmt, v) for v in order]
    if len(wanted) != len(current) or set(wanted) != set(current):
        raise IrError(f"reorder {list(order)} is not a permutation of {current}")
    rel = Reorder(tuple(wanted))
    return build_nest(wanted, nest_core(stmt), stmt.relations + (rel,))


def split(stmt: Statement, v: IndexVar | str, outer: str, inner: str, step: int) -> Statement:
    if not isinstance(step, numbers.Integral):
        raise IrError(f"split step {step!r} is not an integer")
    if step < 1:
        raise IrError("split step must be positive")
    target = _resolve(stmt, v)
    _check_fresh(stmt, outer)
    _check_fresh(stmt, inner)
    rel = Split(target, IndexVar(outer, VarKind.SPLIT), IndexVar(inner, VarKind.SPLIT), step)
    o = IndexVar(outer, VarKind.SPLIT, rel)
    i = IndexVar(inner, VarKind.SPLIT, rel)
    vars_: list[IndexVar] = []
    for cur in nest_vars(stmt):
        if cur == target:
            vars_.extend((o, i))
        else:
            vars_.append(cur)
    return build_nest(vars_, nest_core(stmt), stmt.relations + (rel,))


def fuse(stmt: Statement, outer: IndexVar | str, inner: IndexVar | str, fused: str) -> Statement:
    a = _resolve(stmt, outer)
    b = _resolve(stmt, inner)
    _check_fresh(stmt, fused)
    current = nest_vars(stmt)
    ia, ib = current.index(a), current.index(b)
    if ib != ia + 1:
        raise IrError(f"fuse requires {a.name} directly outside {b.name}")
    rel = Fuse(a, b, IndexVar(fused, VarKind.FUSED))
    f = IndexVar(fused, VarKind.FUSED, rel)
    vars_ = current[:ia] + [f] + current[ib + 1:]
    return build_nest(vars_, nest_core(stmt), stmt.relations + (rel,))


def pos(stmt: Statement, v: IndexVar | str, position: str, access: Access | str) -> Statement:
    target = _resolve(stmt, v)
    _check_fresh(stmt, position)
    if isinstance(access, str):
        access = parse_access(access)
    rhs = nest_assign(stmt).rhs
    if not any(acc == access for acc in expr_accesses(rhs)):
        raise IrError(f"access {access} does not appear in the statement")
    rel = Pos(target, IndexVar(position, VarKind.POSITION), access)
    p = IndexVar(position, VarKind.POSITION, rel)
    vars_ = [p if cur == target else cur for cur in nest_vars(stmt)]
    return build_nest(vars_, nest_core(stmt), stmt.relations + (rel,))


def _contains_expr(haystack: Expr, needle: Expr) -> bool:
    if haystack == needle:
        return True
    if isinstance(haystack, (Add, Mul)):
        return _contains_expr(haystack.lhs, needle) or _contains_expr(haystack.rhs, needle)
    return False


def _replace_expr(haystack: Expr, needle: Expr, repl: Expr) -> Expr:
    if haystack == needle:
        return repl
    if isinstance(haystack, Add):
        return Add(_replace_expr(haystack.lhs, needle, repl),
                   _replace_expr(haystack.rhs, needle, repl))
    if isinstance(haystack, Mul):
        return Mul(_replace_expr(haystack.lhs, needle, repl),
                   _replace_expr(haystack.rhs, needle, repl))
    return haystack


def precompute(
    stmt: Statement,
    expr: Expr,
    i_vars: Sequence[IndexVar | str],
    o_vars: Sequence[IndexVar | str] | None,
    descriptor: WorkspaceDescriptor,
    ws: str = "W",
    consumer_order: Sequence[IndexVar | str] | None = None,
) -> Statement:
    """Split ``stmt`` into a workspace producer and a consumer reading it back.

    The producer keeps the original loops (restricted to variables of ``expr``
    plus the insertion variables) and assigns into ``ws`` indexed by
    ``i_vars``. The consumer re-reads the workspace in the output access order;
    ``o_vars``, when given, positionally renames ``i_vars`` throughout the
    consumer side.
    """
    assign = nest_assign(stmt)
    if not _contains_expr(assign.rhs, expr):
        raise IrError("expression to precompute is not part of the right-hand side")
    ivs = [_as_var(v) for v in i_vars]
    evs = expr_vars(expr)
    bad = [v for v in ivs if v not in evs]
    if bad:
        raise IrError(f"insertion variables {bad} do not occur in the expression")
    ovs = [_as_var(v) for v in o_vars] if o_vars is not None else list(ivs)
    if len(ovs) != len(ivs):
        raise IrError("o_vars must pair up with i_vars")
    if descriptor.order != len(ivs):
        raise IrError("descriptor order must match the insertion variables")

    keep = set(evs) | set(ivs)
    producer_vars = [v for v in nest_vars(stmt)
                     if v.kind is not VarKind.ORIGINAL or v in keep]
    producer_acc = any(v not in ivs for v in evs)
    producer = build_nest(
        producer_vars,
        Assign(Access(ws, tuple(ivs)), expr, producer_acc),
        stmt.relations,
    )

    consumer_rhs = _replace_expr(assign.rhs, expr, Access(ws, tuple(ivs)))
    if consumer_order is None:
        rest = [v for v in nest_vars(stmt)
                if v.kind is VarKind.ORIGINAL and v in expr_vars(consumer_rhs)
                and v not in assign.lhs.vars]
        consumer_vars = list(assign.lhs.vars) + rest
    else:
        consumer_vars = [_as_var(v) for v in consumer_order]
    mapping = {iv: ov for iv, ov in zip(ivs, ovs) if iv != ov}
    consumer_core = Assign(
        assign.lhs,
        consumer_rhs,
        any(v not in assign.lhs.vars for v in expr_vars(consumer_rhs)),
    )
    consumer = build_nest(consumer_vars, consumer_core)
    if mapping:
        consumer = subst_stmt(consumer, mapping)
    return Where(consumer, producer, ws, descriptor, relations=stmt.relations)


# -- printer --------------------------------------------------------------------


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Where):
        return f"({format_statement(stmt.consumer)}) where ({format_statement(stmt.producer)})"
    vars_ = nest_vars(stmt)
    core = nest_core(stmt)
    if isinstance(core, Where):
        prefix = "".join(f"forall {v.name}: " for v in vars_)
        return prefix + format_statement(core)
    assign = nest_assign(stmt)
    op = "+=" if assign.accumulate else "="
    head = f"forall {', '.join(v.name for v in vars_)}: " if vars_ else ""
    return f"{head}{assign.lhs} {op} {format_expr(assign.rhs)}"


# -- text parser ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_]\w*)|(?P<op>\+=|[()=+*,]))")


class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        if self.pos >= len(self.text) or not self.text[self.pos:].strip():
            return None
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character at column {self.pos + 1}: "
                             f"{self.text[self.pos:self.pos + 10]!r}")
        kind = m.lastgroup or "op"
        return kind, m.group(kind)

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        m = _TOKEN.match(self.text, self.pos)
        assert m is not None
        self.pos = m.end()
        return tok

    def expect(self, value: str) -> None:
        kind, got = self.next()
        if got != value:
            raise ParseError(f"expected {value!r} but found {got!r} at column {self.pos}")


def _parse_access(toks: _Tokens, name: str) -> Access:
    toks.expect("(")
    vars_: list[IndexVar] = []
    while True:
        kind, v = toks.next()
        if kind != "id":
            raise ParseError(f"expected an index variable, found {v!r}")
        vars_.append(IndexVar(v))
        kind, sep = toks.next()
        if sep == ")":
            break
        if sep != ",":
            raise ParseError(f"expected ',' or ')' in access, found {sep!r}")
    return Access(name, tuple(vars_))


def _parse_factor(toks: _Tokens) -> Expr:
    kind, tok = toks.next()
    if kind == "num":
        return Const(float(tok))
    if kind == "id":
        return _parse_access(toks, tok)
    if tok == "(":
        e = _parse_add(toks)
        toks.expect(")")
        return e
    raise ParseError(f"unexpected token {tok!r}")


def _parse_mul(toks: _Tokens) -> Expr:
    e = _parse_factor(toks)
    while True:
        nxt = toks.peek()
        if nxt and nxt[1] == "*":
            toks.next()
            e = Mul(e, _parse_factor(toks))
        else:
            return e


def _parse_add(toks: _Tokens) -> Expr:
    e = _parse_mul(toks)
    while True:
        nxt = toks.peek()
        if nxt and nxt[1] == "+":
            toks.next()
            e = Add(e, _parse_mul(toks))
        else:
            return e


def parse_access(text: str) -> Access:
    toks = _Tokens(text)
    kind, name = toks.next()
    if kind != "id":
        raise ParseError(f"expected a tensor name, found {name!r}")
    acc = _parse_access(toks, name)
    if toks.peek() is not None:
        raise ParseError(f"trailing input after access in {text!r}")
    return acc


def parse_einsum(text: str) -> tuple[Access, Expr]:
    """Parse ``A(i,j) = B(i,k) * C(k,j)`` style equations."""
    toks = _Tokens(text)
    kind, name = toks.next()
    if kind != "id":
        raise ParseError(f"expected the result tensor name, found {name!r}")
    lhs = _parse_access(toks, name)
    kind, op = toks.next()
    if op not in ("=", "+="):
        raise ParseError(f"expected '=' or '+=', found {op!r}")
    rhs = _parse_add(toks)
    if toks.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return lhs, rhs


def default_loop_order(lhs: Access, rhs: Expr) -> list[IndexVar]:
    order = list(lhs.vars)
    for v in expr_vars(rhs):
        if v not in order:
            order.append(v)
    return order


_FORALL = re.compile(r"^\s*forall\s+(?P<vars>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*:(?P<rest>.*)$")


def statement_from_text(text: str, loop_order: Sequence[IndexVar | str] | None = None) -> Statement:
    """Parse an equation, optionally led by an explicit ``forall i, k, j:``.

    Without a prefix (or an explicit ``loop_order``) the loops follow the
    result access order and then the remaining right-hand-side variables.
    """
    m = _FORALL.match(text)
    if m:
        if loop_order is not None:
            raise ParseError("loop order given both inline and as an argument")
        loop_order = [v.strip() for v in m.group("vars").split(",")]
        text = m.group("rest")
    lhs, rhs = parse_einsum(text)
    order = loop_order if loop_order is not None else default_loop_order(lhs, rhs)
    return from_einsum(lhs, rhs, order)


_SCHED = re.compile(r"^(?P<cmd>reorder|split|fuse|pos)\s*\((?P<args>.*)\)\s*$")


def apply_schedule(stmt: Statement, script: str) -> Statement:
    """Run a line-oriented schedule script: one command per line or ';'.

    Commands mirror the scheduling API:
      reorder(i,k,j) | split(i,i0,i1,4) | fuse(i,k,f) | pos(f,fpos,B(i,k))
    """
    for raw in re.split(r"[;\n|]", script):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCHED.match(line)
        if not m:
            raise ParseError(f"unrecognized schedule command: {line!r}")
        cmd, args = m.group("cmd"), m.group("args")
        if cmd == "reorder":
            stmt = reorder(stmt, [a.strip() for a in args.split(",")])
        elif cmd == "split":
            parts = [a.strip() for a in args.split(",")]
            if len(parts) != 4:
                raise ParseError(f"split takes (var, outer, inner, step): {line!r}")
            try:
                step = int(parts[3])
            except ValueError as exc:
                raise ParseError(f"split step must be an integer: {line!r}") from exc
            stmt = split(stmt, parts[0], parts[1], parts[2], step)
        elif cmd == "fuse":
            parts = [a.strip() for a in args.split(",")]
            if len(parts) != 3:
                raise ParseError(f"fuse takes (outer, inner, fused): {line!r}")
            stmt = fuse(stmt, parts[0], parts[1], parts[2])
        else:  # pos
            parts = [a.strip() for a in args.split(",", 2)]
            if len(parts) != 3:
                raise ParseError(f"pos takes (var, position, access): {line!r}")
            stmt = pos(stmt, parts[0], parts[1], parts[2])
    return stmt
