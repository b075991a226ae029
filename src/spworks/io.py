"""Tensor input and output: exchange formats, synthetic inputs, reporting.

Readers accept the two plain-text exchange formats that dominate sparse
benchmarking: MatrixMarket coordinate files for matrices and FROSTT ``.tns``
files for tensors of any order. Both parse into the COO storage variant by
default and can re-store into any same-order format on request.

The module also hosts the synthetic matrix generator used by the benchmark
driver, a byte-cost estimator for workspace sizing decisions, and the CSV
schema shared by all measurement commands.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import Format, Tensor, coo, from_arrays, reformat


class IoError(Exception):
    """A malformed exchange file; message carries ``path:line:`` context."""


def _fail(path: str | Path, lineno: int, message: str) -> IoError:
    return IoError(f"{path}:{lineno}: {message}")


# MatrixMarket coordinate files


def read_matrix_market(path: str | Path, fmt: Format | None = None) -> Tensor:
    """Read a MatrixMarket coordinate file into a matrix.

    Supports ``real``, ``integer``, and ``pattern`` fields with ``general``
    or ``symmetric`` symmetry. Pattern entries store the value 1. Symmetric
    files are expanded to both triangles; duplicate entries are summed. The
    result uses COO storage unless ``fmt`` names another order-2 format.
    """
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise _fail(path, 1, "missing %%MatrixMarket header")
        words = header.strip().split()
        if len(words) != 5 or words[1] != "matrix":
            raise _fail(path, 1, f"unsupported header {header.strip()!r}")
        _, _, layout, field, symmetry = (w.lower() for w in words)
        if layout != "coordinate":
            raise _fail(path, 1, f"unsupported layout {layout!r} (only coordinate)")
        if field not in ("real", "integer", "pattern"):
            raise _fail(path, 1, f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise _fail(path, 1, f"unsupported symmetry {symmetry!r}")
        pattern = field == "pattern"
        symmetric = symmetry == "symmetric"

        lineno = 1
        size_words: list[str] | None = None
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_words = stripped.split()
            break
        if size_words is None:
            raise _fail(path, lineno, "missing size line")
        if len(size_words) != 3:
            raise _fail(path, lineno, f"size line needs 3 fields, got {len(size_words)}")
        try:
            nrows, ncols, nnz = (int(w) for w in size_words)
        except ValueError:
            raise _fail(path, lineno, f"bad size line {' '.join(size_words)!r}") from None
        if nrows <= 0 or ncols <= 0 or nnz < 0:
            raise _fail(path, lineno, "size fields must be positive")

        want = 2 if pattern else 3
        crds: list[int] = []  # row, column of each entry, one after the other
        vals: list[float] = []
        seen = 0
        for line in fh:
            lineno += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            words = stripped.split()
            if len(words) != want:
                raise _fail(path, lineno, f"entry needs {want} fields, got {len(words)}")
            try:
                i = int(words[0])
                j = int(words[1])
                v = 1.0 if pattern else float(words[2])
            except ValueError:
                raise _fail(path, lineno, f"bad entry {stripped!r}") from None
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise _fail(path, lineno, f"coordinate ({i}, {j}) out of range")
            crds += (i - 1, j - 1)
            vals.append(v)
            if symmetric and i != j:
                crds += (j - 1, i - 1)
                vals.append(v)
            seen += 1
        if seen != nnz:
            raise _fail(path, lineno, f"expected {nnz} entries, found {seen}")

    entries = np.array(crds, dtype=np.int64).reshape(-1, 2)
    out = from_arrays(entries.T, vals, coo(2), (nrows, ncols), sum_duplicates=True)
    return out if fmt is None else reformat(out, fmt)


def write_matrix_market(path: str | Path, tensor: Tensor) -> None:
    """Write a matrix as ``coordinate real general`` with 1-based indices."""
    if tensor.order != 2:
        raise IoError(f"MatrixMarket output needs a matrix, got order {tensor.order}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{tensor.dims[0]} {tensor.dims[1]} {tensor.nnz}\n")
        for (i, j), v in tensor.components():
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


# FROSTT .tns files


def read_frostt(
    path: str | Path,
    dims: Sequence[int] | None = None,
    fmt: Format | None = None,
) -> Tensor:
    """Read a FROSTT ``.tns`` file (1-based coordinates, one entry per line).

    The order is inferred from the first entry line. When ``dims`` is not
    given, each extent is one past the largest coordinate seen on that mode.
    """
    path = Path(path)
    order: int | None = None
    crds: list[int] = []  # row-major: one row of ``order`` coordinates per entry
    vals: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            words = stripped.split()
            if order is None:
                order = len(words) - 1
                if order < 1:
                    raise _fail(path, lineno, "entry needs coordinates and a value")
            if len(words) != order + 1:
                raise _fail(
                    path, lineno, f"entry needs {order + 1} fields, got {len(words)}"
                )
            try:
                entry = tuple(int(w) for w in words[:-1])
                val = float(words[-1])
            except ValueError:
                raise _fail(path, lineno, f"bad entry {stripped!r}") from None
            if any(c < 1 for c in entry):
                raise _fail(path, lineno, f"coordinate {entry} is not 1-based")
            crds.extend(entry)
            vals.append(val)
    if order is None:
        raise _fail(path, 1, "file holds no entries")

    try:
        entries = np.array(crds, dtype=np.int64).reshape(-1, order) - 1
    except OverflowError:
        raise IoError(f"{path}: a coordinate exceeds the 2^32 extent limit") from None
    if dims is None:
        shape = tuple(int(x) + 1 for x in entries.max(axis=0))
    else:
        shape = tuple(int(d) for d in dims)
        if len(shape) != order:
            raise IoError(f"{len(shape)} dims for an order-{order} file")
        bad = (entries >= shape).any(axis=1)
        if bad.any():
            entry = tuple(entries[bad.argmax()].tolist())
            raise IoError(f"{path}: entry {entry} exceeds dims {shape}")

    out = from_arrays(entries.T, vals, coo(order), shape, sum_duplicates=True)
    return out if fmt is None else reformat(out, fmt)


def write_frostt(path: str | Path, tensor: Tensor) -> None:
    """Write a tensor as FROSTT ``.tns`` entry lines with 1-based indices."""
    with open(path, "w", encoding="ascii") as fh:
        for crds, val in tensor.components():
            fh.write(" ".join(str(c + 1) for c in crds) + f" {val:.17g}\n")


# Synthetic inputs

SYNTHETIC_RNG = "Philox"


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def synthetic_matrix(
    rows: int,
    cols: int,
    density: float,
    nnz_per_col: int,
    seed: int = 0,
) -> Tensor:
    """A random matrix in COO storage: a fraction of columns, fixed fill each.

    ``density`` selects ``max(1, round(density * cols))`` distinct columns;
    each selected column receives ``nnz_per_col`` distinct random rows with
    integer values drawn from 1..9. The counter-based Philox generator keeps
    every instance reproducible from its seed alone.
    """
    if rows <= 0 or cols <= 0:
        raise IoError("synthetic matrix dims must be positive")
    if seed < 0:
        raise IoError(f"seed {seed} is negative")
    if not 0.0 < density <= 1.0:
        raise IoError(f"density {density} outside (0, 1]")
    fill = min(nnz_per_col, rows)
    if fill <= 0:
        raise IoError("nnz_per_col must be positive")
    rng = _generator(seed)
    ncols = min(cols, max(1, round(density * cols)))
    chosen = np.sort(rng.choice(cols, size=ncols, replace=False))
    # one draw of rows, then one of values, per column: the order fixes
    # every instance, so it must not change
    draws = [(rng.choice(rows, size=fill, replace=False), rng.integers(1, 10, size=fill))
             for _ in chosen]
    row_crds, vals = (np.concatenate(d) for d in zip(*draws))
    return from_arrays([row_crds, np.repeat(chosen, fill)], vals, coo(2), (rows, cols))


def synthetic_pair(
    rows: int,
    cols: int,
    density: float,
    nnz_per_col: int,
    seed: int = 0,
) -> tuple[Tensor, Tensor]:
    """A matrix B and a structurally matched partner C for products.

    C holds B's entries transposed, with each column shifted down one row
    cyclically, so B @ C never degenerates to empty intersections while the
    two operands stay distinct.
    """
    b = synthetic_matrix(rows, cols, density, nnz_per_col, seed)
    rows_b, cols_b = (c.astype(np.int64) for c in b.mode_coordinates())
    c = from_arrays([cols_b, (rows_b + 1) % rows], b.vals, coo(2), (cols, rows))
    return b, c


# Memory estimation

DENSE_CELL_BYTES = 13
SPARSE_ENTRY_BYTES = 12


def estimate_memory(kind: str, count: int) -> int:
    """Workspace byte cost: dense counts cells, sparse counts entries.

    A dense workspace pays 13 bytes per addressable cell (value, validity
    bit, and amortized coordinate bookkeeping); a sparse workspace pays 12
    bytes per stored entry (8-byte value plus packed coordinates).
    """
    if count < 0:
        raise IoError(f"negative size {count}")
    if kind == "dense":
        per = DENSE_CELL_BYTES
    elif kind == "sparse":
        per = SPARSE_ENTRY_BYTES
    else:
        raise IoError(f"unknown workspace kind {kind!r}")
    return count * per


# Measurement output

CSV_FIELDS = (
    "kernel",
    "policy",
    "capacity",
    "dims",
    "nnz_in",
    "nnz_out",
    "time_ns",
    "peak_bytes",
    "comparisons",
    "dedups",
)


def write_csv(
    path: str | Path,
    rows: Iterable[Mapping[str, object]],
    fields: Sequence[str] = CSV_FIELDS,
) -> int:
    """Write measurement rows with the fixed schema; returns the row count."""
    n = 0
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
            n += 1
    return n
