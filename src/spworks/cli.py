"""Command-line driver for the workspace pipeline.

Five subcommands cover the lifecycle of a kernel:

``classify``
    Parse an expression (plus an optional schedule), reconstruct the input
    loop order, and print the scattering classification and the workspace
    insertion decision.
``explain``
    The classify report followed by the fully lowered imperative plan,
    including any auto-inserted workspace descriptor.
``run``
    Execute a kernel once on file or synthetic inputs, optionally verifying
    the result against the dense reference interpreter.
``bench``
    Timed runs (warmups plus measured rounds) over policy and capacity
    sweeps, written as CSV.
``ablation``
    A capacity sweep from the sort-every-insert extreme to the
    sort-once-at-the-end extreme, written as CSV with a trailing label
    column.

Exit codes: 0 on success, 1 when --verify finds a mismatch (or an ablation
row disagrees), 2 for parse, format, or input errors.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import AnalysisError, classification_report, insert_sparse_workspace
from .io import (
    CSV_FIELDS,
    IoError,
    synthetic_pair,
    read_frostt,
    read_matrix_market,
    write_csv,
)
from .ir import IrError, ParseError, Statement, apply_schedule, nest_assign, statement_from_text
from .ir import expr_accesses
from .ism import IsmError, Policy
from .lowering import LoweringError, execute, lower, print_plan
from .oracle import OracleError, dense_oracle, oracle_inputs
from .tensor import Format, Tensor, TensorError, format_from_name, reformat, tensors_equal

_USER_ERRORS = (
    ParseError,
    IrError,
    AnalysisError,
    LoweringError,
    TensorError,
    IsmError,
    IoError,
    OracleError,
    OSError,
)


class CliError(Exception):
    """Bad invocation or bad input; maps to exit code 2."""


# -- argument handling ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spworks",
        description="Classify, lower, and run sparse tensor kernels with "
        "automatically inserted workspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, runs: bool) -> None:
        p.add_argument("--expr", required=True,
                       help='kernel in index notation, e.g. "A(i,j) = B(i,k) * C(k,j)"')
        p.add_argument("--schedule", default=None,
                       help="schedule script: inline directives separated by | "
                            "or ; (reorder/split/fuse/pos), or a path to a file "
                            "with one directive per line")
        p.add_argument("--format", action="append", default=[], metavar="T=FMT",
                       help="storage format per tensor (csr, csc, dcsr, dcsc, "
                            "csf, coo, dense, sv, dv); defaults: sv / csr / csf "
                            "by order")
        p.add_argument("--policy", default="bucket",
                       help="accumulate-array policy: bucket, hash, or coord"
                            + (" (comma list allowed)" if runs else ""))
        p.add_argument("--cap", default="4096",
                       help="accumulate-array capacity"
                            + (" (comma list allowed)" if runs else ""))
        if runs:
            p.add_argument("inputs", nargs="*", metavar="T=PATH",
                           help="tensor inputs from .mtx or .tns files")
            p.add_argument("--synthetic", default=None, metavar="RxC:DENSITY:NNZPC",
                           help="generate operands B and C, e.g. 64x64:0.1:4")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--verify", action="store_true",
                           help="check the result against the dense reference")
            p.add_argument("--csv", default=None, metavar="PATH",
                           help="write measurement rows here instead of stdout")

    common(sub.add_parser("classify", help="print the scattering classification"),
           runs=False)
    common(sub.add_parser("explain", help="print classification and lowered plan"),
           runs=False)

    run = sub.add_parser("run", help="execute a kernel once")
    common(run, runs=True)

    bench = sub.add_parser("bench", help="timed policy/capacity sweep as CSV")
    common(bench, runs=True)
    bench.add_argument("--reps", type=int, default=20, help="measured rounds")
    bench.add_argument("--warmups", type=int, default=5, help="untimed rounds")

    ablation = sub.add_parser(
        "ablation", help="capacity sweep between the two extremes as CSV")
    common(ablation, runs=True)
    ablation.add_argument("--reps", type=int, default=20, help="measured rounds")
    ablation.add_argument("--warmups", type=int, default=5, help="untimed rounds")
    return parser


def _parse_statement(ns: argparse.Namespace) -> Statement:
    stmt = statement_from_text(ns.expr)
    if ns.schedule:
        text = ns.schedule
        path = Path(text)
        if path.is_file():
            text = path.read_text(encoding="ascii")
        stmt = apply_schedule(stmt, text)
    return stmt


def _tensor_orders(stmt: Statement) -> dict[str, int]:
    assign = nest_assign(stmt)
    orders: dict[str, int] = {}
    for acc in [assign.lhs, *expr_accesses(assign.rhs)]:
        orders[acc.tensor] = len(acc.vars)
    return orders


_DEFAULT_BY_ORDER = {1: "sv", 2: "csr"}


def _resolve_formats(ns: argparse.Namespace, stmt: Statement) -> dict[str, Format]:
    orders = _tensor_orders(stmt)
    chosen: dict[str, str] = {}
    for spec in ns.format:
        name, eq, fmt_name = spec.partition("=")
        if not eq or not name or not fmt_name:
            raise CliError(f"--format needs T=FMT, got {spec!r}")
        if name not in orders:
            raise CliError(f"--format names unknown tensor {name!r}")
        chosen[name] = fmt_name
    formats: dict[str, Format] = {}
    for name, order in orders.items():
        fmt_name = chosen.get(name, _DEFAULT_BY_ORDER.get(order, "csf"))
        formats[name] = format_from_name(fmt_name, order)
    return formats


def _parse_policies(text: str, *, allow_many: bool) -> list[Policy]:
    names = [w for w in text.split(",") if w.strip()]
    if not names:
        raise CliError("--policy needs at least one policy name")
    if len(names) > 1 and not allow_many:
        raise CliError("this command takes a single --policy")
    return [Policy.from_name(w) for w in names]


def _parse_caps(text: str, *, allow_many: bool) -> list[int]:
    words = [w.strip() for w in str(text).split(",") if w.strip()]
    if not words:
        raise CliError("--cap needs at least one value")
    if len(words) > 1 and not allow_many:
        raise CliError("this command takes a single --cap")
    caps = []
    for w in words:
        try:
            cap = int(w)
        except ValueError:
            raise CliError(f"--cap values must be integers, got {w!r}") from None
        if cap < 1:
            raise CliError(f"--cap must be at least 1, got {cap}")
        caps.append(cap)
    return caps


# -- input resolution ----------------------------------------------------------------


def _parse_synthetic(spec: str) -> tuple[int, int, float, int]:
    head, _, rest = spec.partition(":")
    rows_s, _, cols_s = head.partition("x")
    density_s, _, nnz_s = rest.partition(":")
    try:
        rows, cols = int(rows_s), int(cols_s)
        density = float(density_s)
        nnz_per_col = int(nnz_s)
    except ValueError:
        raise CliError(
            f"--synthetic needs RxC:DENSITY:NNZPC (e.g. 64x64:0.1:4), got {spec!r}"
        ) from None
    return rows, cols, density, nnz_per_col


def _read_file(path: str) -> Tensor:
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return read_matrix_market(path)
    if suffix == ".tns":
        return read_frostt(path)
    raise CliError(f"cannot tell the format of {path!r}; use .mtx or .tns")


def _resolve_tensors(
    ns: argparse.Namespace, stmt: Statement, formats: dict[str, Format]
) -> dict[str, Tensor]:
    orders = _tensor_orders(stmt)
    result_name = nest_assign(stmt).lhs.tensor
    operands = [n for n in orders if n != result_name]

    raw: dict[str, Tensor] = {}
    for spec in ns.inputs:
        name, eq, path = spec.partition("=")
        if not eq or not name or not path:
            raise CliError(f"inputs need T=PATH, got {spec!r}")
        if name not in orders:
            raise CliError(f"input names unknown tensor {name!r}")
        raw[name] = _read_file(path)

    if ns.synthetic:
        rows, cols, density, nnz_per_col = _parse_synthetic(ns.synthetic)
        b, c = synthetic_pair(rows, cols, density, nnz_per_col, ns.seed)
        raw.setdefault("B", b)
        raw.setdefault("C", c)

    tensors: dict[str, Tensor] = {}
    for name in operands:
        if name not in raw:
            raise CliError(
                f"no input for tensor {name}; pass {name}=PATH or --synthetic"
            )
        got = raw[name]
        if got.order != orders[name]:
            raise CliError(
                f"input for {name} has order {got.order}, expression needs "
                f"order {orders[name]}"
            )
        tensors[name] = reformat(got, formats[name])
    return tensors


# -- shared run machinery ------------------------------------------------------------


def _setup(ns: argparse.Namespace, *, many: bool = False,
           ) -> tuple[Statement, dict[str, Format], list[Policy], list[int]]:
    """The statement, formats, policies and capacities of a command; one
    policy and one capacity unless ``many``."""
    stmt = _parse_statement(ns)
    formats = _resolve_formats(ns, stmt)
    return (stmt, formats, _parse_policies(ns.policy, allow_many=many),
            _parse_caps(ns.cap, allow_many=many))


def _prepare(stmt: Statement, formats: dict[str, Format], policy: Policy,
             capacity: int):
    rewritten, decision = insert_sparse_workspace(stmt, formats, policy, capacity)
    plan = lower(rewritten, formats)
    return plan, decision


def _timed_runs(plan, tensors, warmups: int, reps: int):
    if reps < 1 or warmups < 0:
        raise CliError("bench needs --reps >= 1 and --warmups >= 0")
    for _ in range(warmups):
        execute(plan, tensors)
    times = []
    result = None
    for _ in range(reps):
        start = time.perf_counter_ns()
        result = execute(plan, tensors)
        times.append(time.perf_counter_ns() - start)
    return result, int(statistics.fmean(times))


def _verify(stmt: Statement, tensors: dict[str, Tensor], result: Tensor) -> bool:
    reference = dense_oracle(stmt, oracle_inputs(tensors))
    return bool(np.array_equal(result.to_dense(), reference))


def _row(ns: argparse.Namespace, tensors, result, time_ns: int, capacity: int,
         policy: Policy) -> dict[str, object]:
    dims = "x".join(str(d) for d in result.tensor.dims)
    return {
        "kernel": ns.expr,
        "policy": policy.value,
        "capacity": capacity,
        "dims": dims,
        "nnz_in": sum(t.nnz for t in tensors.values()),
        "nnz_out": result.tensor.nnz,
        "time_ns": time_ns,
        "peak_bytes": result.counters.peak_bytes,
        "comparisons": result.counters.comparisons,
        "dedups": result.counters.dedups,
    }


def _emit_rows(ns: argparse.Namespace, rows: list[dict[str, object]],
               fields: Sequence[str]) -> None:
    if ns.csv:
        write_csv(ns.csv, rows, fields)
        print(f"wrote {len(rows)} rows to {ns.csv}")
    else:
        print(",".join(fields))
        for row in rows:
            print(",".join(str(row[f]) for f in fields))


# -- subcommands ---------------------------------------------------------------------


def cmd_classify(ns: argparse.Namespace) -> int:
    stmt, formats, (policy,), (cap,) = _setup(ns)
    _, decision = insert_sparse_workspace(stmt, formats, policy, cap)
    print(classification_report(stmt, formats, decision))
    return 0


def cmd_explain(ns: argparse.Namespace) -> int:
    stmt, formats, (policy,), (cap,) = _setup(ns)
    rewritten, decision = insert_sparse_workspace(stmt, formats, policy, cap)
    print(classification_report(stmt, formats, decision))
    print()
    print(print_plan(lower(rewritten, formats)))
    return 0


def cmd_run(ns: argparse.Namespace) -> int:
    stmt, formats, (policy,), (cap,) = _setup(ns)
    tensors = _resolve_tensors(ns, stmt, formats)
    plan, decision = _prepare(stmt, formats, policy, cap)

    start = time.perf_counter_ns()
    result = execute(plan, tensors)
    elapsed = time.perf_counter_ns() - start

    out = result.tensor
    print(f"result {nest_assign(stmt).lhs.tensor}: dims {out.dims}, nnz {out.nnz}")
    print(f"insertion: {decision.action.value}")
    print(f"time_ns: {elapsed}")
    for key, value in result.counters.as_dict().items():
        print(f"{key}: {value}")
    if ns.csv:
        write_csv(ns.csv, [_row(ns, tensors, result, elapsed, cap, policy)])
    if ns.verify:
        if not _verify(stmt, tensors, out):
            print("verify: FAIL", file=sys.stderr)
            return 1
        print("verify: OK")
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    stmt, formats, policies, caps = _setup(ns, many=True)
    tensors = _resolve_tensors(ns, stmt, formats)

    rows = []
    failed = False
    for policy in policies:
        for cap in caps:
            plan, _ = _prepare(stmt, formats, policy, cap)
            result, mean_ns = _timed_runs(plan, tensors, ns.warmups, ns.reps)
            if ns.verify and not _verify(stmt, tensors, result.tensor):
                print(f"verify: FAIL ({policy.value}, cap {cap})", file=sys.stderr)
                failed = True
            rows.append(_row(ns, tensors, result, mean_ns, cap, policy))
    _emit_rows(ns, rows, CSV_FIELDS)
    return 1 if failed else 0


def _ablation_capacities(stream_length: int) -> list[tuple[int, str]]:
    points: list[tuple[int, str]] = [(1, "map-extreme")]
    cap = 4
    while cap < stream_length:
        points.append((cap, "sweep"))
        cap *= 4
    points.append((max(stream_length, 1), "vector-extreme"))
    return points


def cmd_ablation(ns: argparse.Namespace) -> int:
    stmt, formats, (policy,), (base_cap,) = _setup(ns)
    tensors = _resolve_tensors(ns, stmt, formats)

    plan, decision = _prepare(stmt, formats, policy, base_cap)
    probe = execute(plan, tensors)
    stream_length = probe.counters.inserts
    if not decision.needs_workspace:
        print("note: kernel runs without a workspace; sweep rows will "
              "show zero counters", file=sys.stderr)

    rows = []
    outputs = []
    for cap, label in _ablation_capacities(stream_length):
        plan, _ = _prepare(stmt, formats, policy, cap)
        result, mean_ns = _timed_runs(plan, tensors, ns.warmups, ns.reps)
        row = _row(ns, tensors, result, mean_ns, cap, policy)
        row["label"] = label
        rows.append(row)
        outputs.append(result.tensor)

    for other in outputs[1:]:
        if not tensors_equal(outputs[0], other):
            print("ablation rows disagree on the result tensor", file=sys.stderr)
            return 1
    if ns.verify and not _verify(stmt, tensors, outputs[0]):
        print("verify: FAIL", file=sys.stderr)
        return 1
    _emit_rows(ns, rows, tuple(CSV_FIELDS) + ("label",))
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "explain": cmd_explain,
    "run": cmd_run,
    "bench": cmd_bench,
    "ablation": cmd_ablation,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except (CliError, *_USER_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
