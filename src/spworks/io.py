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
import numbers
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import Format, Tensor, coo, from_arrays, reformat


class IoError(Exception):
    """A malformed exchange file; message carries ``path:line:`` context."""


def _fail(path: str | Path, lineno: int, message: str) -> IoError:
    return IoError(f"{path}:{lineno}: {message}")


def _read_entries(path: Path, fh, lineno: int, comments: str, order: int | None,
                  pattern: bool, accept) -> tuple[np.ndarray, list[float], int, int]:
    """Parse the entry lines of ``fh`` after line ``lineno``, skipping blank
    lines and those that start with a character of ``comments``. An entry
    is ``order`` integer coordinates, as many as the first entry's fields
    less one where ``order`` is None, then a real value, which a
    ``pattern`` entry leaves out and stores as 1.0. ``accept(lineno,
    coords)`` checks an entry's 1-based coordinates and returns those it
    stores, one or more tuples, each with the entry's value. Returns the
    stored coordinates, 0-based, as an int64 array of one row per entry,
    their values, the count of entry lines and the last line number."""
    crds: list[int] = []  # row-major: one row of ``order`` coordinates per entry
    vals: list[float] = []
    seen = 0
    for lineno, line in enumerate(fh, start=lineno + 1):
        stripped = line.strip()
        if not stripped or stripped[0] in comments:
            continue
        words = stripped.split()
        if order is None:
            order = len(words) - 1
            if order < 1:
                raise _fail(path, lineno, "entry needs coordinates and a value")
        want = order if pattern else order + 1
        if len(words) != want:
            raise _fail(path, lineno, f"entry needs {want} fields, got {len(words)}")
        try:
            entry = tuple(int(w) for w in words[:order])
            val = 1.0 if pattern else float(words[order])
        except ValueError:
            raise _fail(path, lineno, f"bad entry {stripped!r}") from None
        for stored in accept(lineno, entry):
            crds.extend(stored)
            vals.append(val)
        seen += 1
    if order is None:
        raise _fail(path, 1, "file holds no entries")
    try:
        entries = np.array(crds, dtype=np.int64).reshape(-1, order) - 1
    except OverflowError:
        raise IoError(f"{path}: a coordinate exceeds the 2^32 extent limit") from None
    return entries, vals, seen, lineno


def _stored(entries: np.ndarray, vals: list[float], shape: tuple[int, ...],
            fmt: Format | None) -> Tensor:
    """The entries as a COO tensor, duplicates summed, in ``fmt`` if given."""
    out = from_arrays(entries.T, vals, coo(len(shape)), shape, sum_duplicates=True)
    return out if fmt is None else reformat(out, fmt)


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

        def accept(lineno: int, entry: tuple[int, ...]):
            i, j = entry
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise _fail(path, lineno, f"coordinate ({i}, {j}) out of range")
            return (entry, (j, i)) if symmetric and i != j else (entry,)

        entries, vals, seen, lineno = _read_entries(path, fh, lineno, "%", 2, pattern,
                                                    accept)
    if seen != nnz:
        raise _fail(path, lineno, f"expected {nnz} entries, found {seen}")
    return _stored(entries, vals, (nrows, ncols), fmt)


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

    def accept(lineno: int, entry: tuple[int, ...]):
        if any(c < 1 for c in entry):
            raise _fail(path, lineno, f"coordinate {entry} is not 1-based")
        return (entry,)

    with open(path, "r", encoding="ascii") as fh:
        entries, vals, _, _ = _read_entries(path, fh, 0, "#%", None, False, accept)
    order = entries.shape[1]
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
    return _stored(entries, vals, shape, fmt)


def write_frostt(path: str | Path, tensor: Tensor) -> None:
    """Write a tensor as FROSTT ``.tns`` entry lines with 1-based indices."""
    with open(path, "w", encoding="ascii") as fh:
        for crds, val in tensor.components():
            fh.write(" ".join(str(c + 1) for c in crds) + f" {val:.17g}\n")


# Synthetic inputs

SYNTHETIC_RNG = "Philox"


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _checked_integer(name: str, value: object) -> int:
    # bool is an Integral, but a flag passed as an extent or a seed is a mistake
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise IoError(f"{name} {value!r} is not an integer")
    return int(value)


# The replay costs a few Python steps per fill position of a block and more per
# draw than numpy's own loops, to save about 20 us a column: at 2 000 columns
# of 10 000 rows it halves the time at fill 64 and breaks even near 128. Wider
# columns keep numpy's calls, which then draw at least 194 values a column in C;
# so does numpy's partial Fisher-Yates regime (rows > 10 000 and
# fill > rows // 50), which this bound leaves out.
_REPLAY_FILL = 64

# draws per bounded-integer call; a block holds under 30 B of scratch per draw
_BLOCK_DRAWS = 1 << 18


def _replayed_columns(
    rng: np.random.Generator, rows: int, fill: int, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and values of ``ncols`` columns, drawn as the per-column calls do.

    ``rng.choice(rows, fill, replace=False)`` in numpy's Floyd regime takes
    ``fill`` bounded draws (step ``t`` picks from ``[0, rows - fill + t]``,
    and a pick already taken in its column becomes ``rows - fill + t``),
    then shuffles with ``fill - 1`` draws (swap position ``i`` with one in
    ``[0, i]``, ``i`` falling); ``rng.integers(1, 10, fill)`` takes the
    values. One ``integers`` call with per-draw bounds takes the same draws
    in the same order, so only the rules are replayed here, across a block
    of columns at once.
    """
    top = np.arange(rows - fill, rows)  # step t picks from [0, top[t]]
    high = np.concatenate([top + 1, np.arange(fill, 1, -1), np.full(fill, 10)])
    low = np.zeros_like(high)
    low[2 * fill - 1:] = 1
    per_block = max(1, _BLOCK_DRAWS // len(high))
    row_crds = np.empty((ncols, fill), dtype=np.int64)
    vals = np.empty_like(row_crds)
    for start in range(0, ncols, per_block):
        stop = min(start + per_block, ncols)
        draws = rng.integers(low, high, size=(stop - start, len(high)))
        picks = draws[:, :fill]
        at = np.arange(len(draws))
        # a pick is taken if it came up earlier in its column, or if it is the
        # top of an earlier step (`back`) that took its top in place of a pick
        order = np.argsort(picks, axis=1, kind="stable")
        ranked = np.take_along_axis(picks, order, axis=1)
        taken = np.zeros(picks.shape, dtype=bool)
        np.put_along_axis(taken, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
        back = picks - (rows - fill)
        for t in range(1, fill):
            earlier = back[:, t] >= 0
            taken[earlier, t] |= taken[at[earlier], back[earlier, t]]
        crds = row_crds[start:stop]
        np.copyto(crds, np.where(taken, top, picks))
        for i, swap in zip(range(fill - 1, 0, -1), draws[:, fill:2 * fill - 1].T):
            held = crds[at, swap]
            crds[at, swap] = crds[:, i]
            crds[:, i] = held
        vals[start:stop] = draws[:, 2 * fill - 1:]
    return row_crds.ravel(), vals.ravel()


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
    rows, cols, nnz_per_col, seed = (
        _checked_integer(name, value)
        for name, value in (("rows", rows), ("cols", cols),
                            ("nnz_per_col", nnz_per_col), ("seed", seed))
    )
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
    if fill <= _REPLAY_FILL:
        row_crds, vals = _replayed_columns(rng, rows, fill, ncols)
    else:
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
    rows_b, cols_b = b.mode_coordinates()
    # the shift stays in B's 32-bit coordinates: only row rows - 1 wraps
    c = from_arrays([cols_b, np.where(rows_b == rows - 1, 0, rows_b + 1)], b.vals, coo(2),
                    (cols, rows))
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
