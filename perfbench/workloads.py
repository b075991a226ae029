"""The benchmark's workloads: seeded inputs, the operations of one pass, and
an independent numpy reference for every result.

Every input comes from ``spworks.synthetic_pair`` or from the generators of
the kernel corpus in ``tests/conftest.py``; nothing is downloaded. The
corpus module is loaded by the runner and passed in as ``corpus``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

import spworks as sw
from spworks.ir import expr_accesses
from spworks.oracle import MAX_GRID_CELLS

CAPACITY = 4096

# Independent reference contractions, one per corpus kernel, written out by
# hand so that a parser or lowering fault cannot also fault the reference.
EINSUM = {
    "spgemm-inner": "ik,kj->ij",
    "spgemm-rowwise": "ik,kj->ij",
    "spgemm-rowwise-hoist": "ik,kj->ij",
    "spgemm-outer": "ik,kj->ij",
    "spgemm-transposed": "ik,kj->ji",
    "spmv": "ik,k->i",
    "elementwise": "ij,ij->ij",
    "mttkrp": "ikl,kj,lj->ij",
    "ttm": "ijk,km->ijm",
}

WHY = {
    "scatter-full": "full sparse workspace: 128k mostly distinct inserts and "
                    "about 30 drain+merge cycles per execution, one engine each",
    "hoisted-rows": "hoisted workspaces: about 1,500 short engines per execution, "
                    "sequential and pipelined; heavy dedup, few drains",
    "append-dense": "no IsmEngine at all: producer loops, dense workspace, "
                    "collector and compression; the bypass case for ISM changes",
    "compile-sweep": "compile only: parser, scheduler, analysis, lowering and "
                     "print_plan over random schedules of the nine corpus kernels",
}


@dataclass
class Case:
    """One operand set, converted to the formats a kernel was lowered for,
    with the reference its result must equal."""

    kernel: object
    tensors: dict[str, sw.Tensor]
    reference: object = None  # dense ndarray, or (mode coords, vals) sorted by key

    @property
    def result_name(self) -> str:
        return self.kernel.expr.split("(", 1)[0].split()[-1]


@dataclass(frozen=True)
class Op:
    """One timed operation: compile a kernel, then execute it on a case."""

    case: int
    policy: sw.Policy = sw.Policy.BUCKET
    pipeline: bool = False

    def label(self, cases: list[Case]) -> str:
        mode = "pipelined" if self.pipeline else "sequential"
        return f"{cases[self.case].kernel.name}/{self.policy.value}/{mode}"


@dataclass(frozen=True)
class Compile:
    """One compile-sweep entry: a corpus kernel under a schedule script."""

    kernel: object
    schedule: str
    policy: sw.Policy
    expected_order: tuple[str, ...] | None  # None: the schedule must be rejected
    depth: int


@dataclass
class Inputs:
    cases: list[Case] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    compiles: list[Compile] = field(default_factory=list)
    arrays: list[dict[str, np.ndarray] | None] = field(default_factory=list)


# Input sizes per scale. "full" is what the benchmark measures; "smoke" keeps
# the same shapes of work at a size the benchmark's own tests can afford.
SIZES = {
    "full": {
        "pair": (4000, 4000, 0.5, 8),
        "hoist": (1500, 0.005),
        "mttkrp": (100, 0.02, 16),
        "spmv": (3000, 0.02),
        "inner": (600, 0.01),
        "rowwise": (1500, 0.005),
        "elementwise": (1000, 0.05),
        "ttm": (100, 0.02, 16),
        "compiles_per_kernel": 50,
    },
    "smoke": {
        "pair": (300, 300, 0.5, 8),
        "hoist": (60, 0.05),
        "mttkrp": (12, 0.1, 4),
        "spmv": (80, 0.1),
        "inner": (40, 0.1),
        "rowwise": (60, 0.05),
        "elementwise": (50, 0.1),
        "ttm": (12, 0.1, 4),
        "compiles_per_kernel": 4,
    },
}

WORKLOADS = tuple(WHY)


def generate(workload: str, seed: int, scale: str, corpus) -> dict:
    """Draw the workload's raw operands from the seed (the io.synth layer)."""
    size = SIZES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sparse, dense = corpus.sparse_array, corpus.dense_array
    if workload == "scatter-full":
        rows, cols, density, fill = size["pair"]
        return {"pair": sw.synthetic_pair(rows, cols, density, fill, seed=seed)}
    if workload == "hoisted-rows":
        n, d = size["hoist"]
        m, dm, r = size["mttkrp"]
        s, ds = size["spmv"]
        return {
            "spgemm-rowwise-hoist": {"B": sparse(rng, (n, n), d), "C": sparse(rng, (n, n), d)},
            "mttkrp": {"X": sparse(rng, (m, m, m), dm), "B": dense(rng, (m, r)),
                       "C": dense(rng, (m, r))},
            "spmv": {"B": sparse(rng, (s, s), ds), "c": dense(rng, (s,))},
        }
    if workload == "append-dense":
        n, d = size["inner"]
        w, dw = size["rowwise"]
        e, de = size["elementwise"]
        t, dt, r = size["ttm"]
        return {
            "spgemm-inner": {"B": sparse(rng, (n, n), d), "C": sparse(rng, (n, n), d)},
            "spgemm-rowwise": {"B": sparse(rng, (w, w), dw), "C": sparse(rng, (w, w), dw)},
            "elementwise": {"B": sparse(rng, (e, e), de), "C": dense(rng, (e, e))},
            "ttm": {"X": sparse(rng, (t, t, t), dt), "U": dense(rng, (t, r))},
        }
    if workload == "compile-sweep":
        return {"compiles": compile_stream(rng, size["compiles_per_kernel"], corpus)}
    raise ValueError(f"unknown workload {workload!r}")


def convert(workload: str, raw: dict, corpus) -> Inputs:
    """Store the operands in each kernel's formats (the tensor.convert layer)."""
    kernels = corpus.KERNELS_BY_NAME
    out = Inputs()
    if workload == "compile-sweep":
        out.compiles = raw["compiles"]
        return out
    if workload == "scatter-full":
        b, c = raw["pair"]
        for name in ("spgemm-outer", "spgemm-transposed"):
            k = kernels[name]
            out.cases.append(Case(k, {"B": sw.reformat(b, k.formats["B"]),
                                      "C": sw.reformat(c, k.formats["C"])}))
            out.arrays.append(None)
            out.ops += [Op(len(out.cases) - 1, p) for p in sw.Policy]
        return out
    for name, arrays in raw.items():
        k = kernels[name]
        out.cases.append(Case(k, {n: sw.from_dense(a, k.formats[n])
                                  for n, a in arrays.items()}))
        out.arrays.append(arrays)
        at = len(out.cases) - 1
        out.ops.append(Op(at))
        if k.action is sw.InsertionAction.HOIST:
            out.ops.append(Op(at, pipeline=True))
    return out


# -- references -------------------------------------------------------------


def attach_references(inputs: Inputs, raw: dict) -> None:
    """Compute every case's reference from the generated operands: the dense
    oracle where its grid guard allows, a numpy product elsewhere."""
    for case, arrays in zip(inputs.cases, inputs.arrays):
        spec = EINSUM[case.kernel.name]
        if arrays is None:
            b, c = raw["pair"]
            case.reference = _pair_product(b, c, transposed=spec.endswith("ji"))
            continue
        stmt = sw.statement_from_text(case.kernel.expr)
        extents = {}
        for (letters, a) in zip(spec.split("->")[0].split(","), arrays.values()):
            extents.update(zip(letters, a.shape))
        cells = int(np.prod(list(extents.values()), dtype=object))
        if cells <= MAX_GRID_CELLS:
            case.reference = sw.dense_oracle(stmt, arrays)
        else:
            case.reference = np.einsum(spec, *arrays.values(), optimize=True)


def _pair_product(b: sw.Tensor, c: sw.Tensor, transposed: bool):
    """B @ C (or its transpose) by a coordinate join on k, as sorted
    (mode coords, vals): the operands are too large to densify."""
    bi, bk = (x.astype(np.int64) for x in b.mode_coordinates())
    ck, cj = (x.astype(np.int64) for x in c.mode_coordinates())
    order = np.argsort(ck, kind="stable")
    ck, cj, cv = ck[order], cj[order], c.vals[order]
    lo = np.searchsorted(ck, bk, side="left")
    hi = np.searchsorted(ck, bk, side="right")
    counts = hi - lo
    rows = np.repeat(bi, counts)
    left = np.repeat(b.vals, counts)
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    at = starts + np.arange(counts.sum())
    cols, prod = cj[at], left * cv[at]
    first, second = (cols, rows) if transposed else (rows, cols)
    width = c.dims[1] if not transposed else b.dims[0]
    keys, inverse = np.unique(first * width + second, return_inverse=True)
    vals = np.bincount(inverse, weights=prod, minlength=len(keys))
    return [keys // width, keys % width], vals


def check(result: sw.Tensor, case: Case) -> str | None:
    """Why the result is wrong, or None when it equals the reference exactly
    and is stored in the declared output format."""
    declared = case.kernel.formats[case.result_name]
    if result.format != declared:
        return f"result stored as {result.format}, declared {declared}"
    ref = case.reference
    if isinstance(ref, np.ndarray):
        if result.dims != ref.shape:
            return f"result dims {result.dims}, reference {ref.shape}"
        if not np.array_equal(result.to_dense(), ref):
            return "result differs from the reference"
        return None
    coords, vals = ref
    got = [x.astype(np.int64) for x in result.mode_coordinates()]
    order = np.lexsort(tuple(reversed(got)))
    got = [x[order] for x in got]
    if len(got[0]) != len(vals) or any(not np.array_equal(g, w) for g, w in zip(got, coords)):
        return "result structure differs from the reference"
    if not np.array_equal(result.vals[order], vals):
        return "result values differ from the reference"
    return None


# -- compile sweep ------------------------------------------------------------

_COMMAND = re.compile(r"^(reorder|split|fuse|pos)\((.*)\)$")


def _parse_schedule(text: str | None) -> list[tuple[str, list]]:
    commands = []
    for raw in (text or "").split("|"):
        raw = raw.strip()
        if raw:
            cmd, args = _COMMAND.match(raw).groups()
            commands.append((cmd, [a.strip() for a in args.split(",", 2 if cmd == "pos" else -1)]))
    return commands


def replay(nest: list[str], out_vars: set[str],
           commands: list[tuple[str, list]]) -> tuple[list[str], tuple[str, ...]]:
    """Model of the scheduler and of reconstruct_input_order: returns the
    loop names after ``commands`` and the original variables they stand for
    in loop order. A split keeps an output variable at its inner loop and any
    other variable at its outer loop; fuse concatenates; pos renames."""
    nest = list(nest)
    covers = {v: [v] for v in nest}
    for cmd, args in commands:
        if cmd == "reorder":
            nest = list(args)
        elif cmd == "split":
            v, outer, inner = args[:3]
            at = nest.index(v)
            group = covers.pop(v)
            covers[outer], covers[inner] = ([], group) if v in out_vars else (group, [])
            nest[at:at + 1] = [outer, inner]
        elif cmd == "fuse":
            a, b, fused = args
            at = nest.index(a)
            covers[fused] = covers.pop(a) + covers.pop(b)
            nest[at:at + 2] = [fused]
        else:
            v, position = args[:2]
            nest[nest.index(v)] = position
            covers[position] = covers.pop(v)
    return nest, tuple(x for v in nest for x in covers[v])


def _random_commands(rng: np.random.Generator, nest: list[str], accesses: list[str],
                     depth: int) -> tuple[list[tuple[str, list]], bool]:
    """Up to ``depth`` random scheduling commands over the current nest. One
    fuse in sixteen names its two adjacent loops in the wrong order, which the
    scheduler must reject; the schedule ends there. Returns (commands, valid)."""
    nest = list(nest)
    commands: list[tuple[str, list]] = []
    for n in range(depth):
        kinds = ["reorder", "split", "pos"] + (["fuse"] if len(nest) > 1 else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "reorder":
            args = [nest[i] for i in rng.permutation(len(nest))]
            nest = list(args)
        elif kind == "split":
            v = nest[int(rng.integers(len(nest)))]
            args = [v, f"s{n}o", f"s{n}i", int(rng.integers(2, 9))]
            at = nest.index(v)
            nest[at:at + 1] = args[1:3]
        elif kind == "pos":
            v = nest[int(rng.integers(len(nest)))]
            args = [v, f"p{n}", accesses[int(rng.integers(len(accesses)))]]
            nest[nest.index(v)] = args[1]
        else:
            at = int(rng.integers(len(nest) - 1))
            if rng.random() < 1 / 16:
                commands.append((kind, [nest[at + 1], nest[at], f"u{n}"]))
                return commands, False
            args = [nest[at], nest[at + 1], f"u{n}"]
            nest[at:at + 2] = [args[2]]
        commands.append((kind, args))
    return commands, True


def compile_stream(rng: np.random.Generator, per_kernel: int, corpus) -> list[Compile]:
    """A seeded stream that visits the nine corpus kernels in turn, each with
    a random schedule of depth 0-3 on top of its own, policies in a cycle."""
    policies = list(sw.Policy)
    shapes = {}
    for k in corpus.KERNELS:
        base = sw.statement_from_text(k.expr)
        assign = sw.nest_assign(base)
        shapes[k.name] = ([v.name for v in sw.nest_vars(base)],
                          {v.name for v in assign.lhs.vars},
                          [str(a) for a in expr_accesses(assign.rhs)])
    stream = []
    for n in range(per_kernel * len(corpus.KERNELS)):
        k = corpus.KERNELS[n % len(corpus.KERNELS)]
        nest, out_vars, accesses = shapes[k.name]
        own = _parse_schedule(k.schedule)
        current, _ = replay(nest, out_vars, own)
        extra, valid = _random_commands(rng, current, accesses, int(rng.integers(0, 4)))
        commands = own + extra
        text = " | ".join(f"{c}({','.join(str(a) for a in args)})" for c, args in commands)
        order = replay(nest, out_vars, commands)[1] if valid else None
        stream.append(Compile(k, text, policies[n % len(policies)], order, len(extra)))
    return stream

