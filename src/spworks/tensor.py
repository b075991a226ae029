"""Level-based sparse tensor storage.

A tensor is stored level by level. Each level is either dense (an extent,
positions computed arithmetically, random insert allowed) or compressed
(pos/crd segment arrays, ordered append and ordered iteration only). The
mode ordering permutes tensor modes onto storage levels, which is how CSR
and CSC share one level layout. COO is a separate storage variant holding
one coordinate array per level plus the value array.

Values are float64. Coordinates are 32-bit unsigned, matching the 4-byte
accounting used by the memory estimator, so no extent may exceed 2^32.
Every constructor builds coordinate arrays and ends in the level loop of
``compress_arrays``.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

CRD_DTYPE = np.uint32
VAL_DTYPE = np.float64
MAX_EXTENT = 2**32  # every coordinate below it fits in CRD_DTYPE
# parents one searchsorted call places while building pos, and values
# level_coordinates walks up the levels at once
_POS_BLOCK = 2**14
# pairs of adjacent entries an order check compares at a time
_ORDER_BLOCK = 2**12

_T = TypeVar("_T")


class TensorError(ValueError):
    pass


class LevelKind(enum.Enum):
    DENSE = "dense"
    COMPRESSED = "compressed"

    def __str__(self) -> str:
        return self.value


DENSE = LevelKind.DENSE
COMPRESSED = LevelKind.COMPRESSED


@dataclass(frozen=True)
class Format:
    """Per-level storage kinds plus the mode-to-level permutation.

    ``mode_ordering[l]`` is the tensor mode stored at level ``l``. For COO
    storage the level kinds are nominal (every level behaves like an ordered
    coordinate list).
    """

    levels: tuple[LevelKind, ...]
    mode_ordering: tuple[int, ...]
    coo: bool = False
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if sorted(self.mode_ordering) != list(range(len(self.levels))):
            raise TensorError(
                f"mode_ordering {self.mode_ordering} is not a permutation of the "
                f"{len(self.levels)} levels"
            )

    @property
    def order(self) -> int:
        return len(self.levels)

    def all_dense(self) -> bool:
        return not self.coo and all(kind is DENSE for kind in self.levels)

    def __str__(self) -> str:
        if self.name:
            return self.name
        if self.coo:
            return f"COO({self.order})"
        kinds = ",".join(map(str, self.levels))
        return f"Format([{kinds}], order={self.mode_ordering})"


def csr() -> Format:
    return Format((DENSE, COMPRESSED), (0, 1), name="CSR")


def csc() -> Format:
    return Format((DENSE, COMPRESSED), (1, 0), name="CSC")


def dcsr() -> Format:
    return Format((COMPRESSED, COMPRESSED), (0, 1), name="DCSR")


def dcsc() -> Format:
    return Format((COMPRESSED, COMPRESSED), (1, 0), name="DCSC")


def csf(order: int) -> Format:
    if order < 3:
        raise TensorError("CSF is defined for order >= 3; use DCSR/DCSC for matrices")
    return Format((COMPRESSED,) * order, tuple(range(order)), name=f"CSF({order})")


def coo(order: int) -> Format:
    return Format((COMPRESSED,) * order, tuple(range(order)), coo=True,
                  name=f"COO({order})")


def dense(order: int) -> Format:
    return Format((DENSE,) * order, tuple(range(order)), name=f"Dense({order})")


def sparse_vector() -> Format:
    return Format((COMPRESSED,), (0,), name="SparseVec")


def dense_vector() -> Format:
    return Format((DENSE,), (0,), name="DenseVec")


def format_from_name(name: str, order: int) -> Format:
    """Resolve a format by its user-facing name for a tensor of given order."""
    key = name.strip().lower()
    named: dict[str, Format | None] = {
        "csr": csr() if order == 2 else None,
        "csc": csc() if order == 2 else None,
        "dcsr": dcsr() if order == 2 else None,
        "dcsc": dcsc() if order == 2 else None,
        "csf": csf(order) if order >= 3 else None,
        "coo": coo(order),
        "dense": dense(order),
        "sv": sparse_vector() if order == 1 else None,
        "dv": dense_vector() if order == 1 else None,
    }
    if key not in named:
        raise TensorError(f"unknown format name {name!r}")
    fmt = named[key]
    if fmt is None:
        raise TensorError(f"format {name!r} does not apply to an order-{order} tensor")
    return fmt


def access_map(access_vars: Sequence[_T], fmt: Format) -> tuple[_T, ...]:
    """Permute access variables from mode order into storage-level order."""
    if len(access_vars) != fmt.order:
        raise TensorError(
            f"access with {len(access_vars)} variables does not match an "
            f"order-{fmt.order} format"
        )
    # tuple() over a generator allocates ten slots and shrinks the result, so
    # each call would park one more small tuple on the interpreter's free list
    return tuple([access_vars[m] for m in fmt.mode_ordering])


class Component(NamedTuple):
    """One stored entry: coordinates in mode order plus the value."""

    crds: tuple[int, ...]
    val: float


@dataclass
class DenseLevel:
    extent: int


@dataclass
class CompressedLevel:
    pos: np.ndarray
    crd: np.ndarray


@dataclass
class Tensor:
    dims: tuple[int, ...]
    format: Format
    levels: tuple[DenseLevel | CompressedLevel, ...] | None
    coo_coords: tuple[np.ndarray, ...] | None
    vals: np.ndarray

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def nnz(self) -> int:
        """Number of stored values (explicit zeros included)."""
        return len(self.vals)

    def level_extent(self, level: int) -> int:
        return self.dims[self.format.mode_ordering[level]]

    def level_coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate of every stored value at every storage level, in
        CRD_DTYPE. The walk up the levels goes a block of values at a time,
        so beyond its output it holds a few arrays of one block."""
        if self.format.coo:
            return self.coo_coords  # type: ignore[return-value]
        n = len(self.vals)
        coords = [np.empty(n, CRD_DTYPE) for _ in range(self.order)]
        for lo in range(0, n, _POS_BLOCK):
            # each value's position at the level below the current one
            child = np.arange(lo, min(lo + _POS_BLOCK, n))
            for l in range(self.order - 1, -1, -1):
                lvl = self.levels[l]  # type: ignore[index]
                out = coords[l][lo:lo + len(child)]
                if isinstance(lvl, DenseLevel):
                    np.remainder(child, lvl.extent, out=out, casting="unsafe")
                    child //= lvl.extent
                else:
                    np.take(lvl.crd, child, out=out)
                    if l:
                        child = np.searchsorted(lvl.pos, child, side="right") - 1
        return tuple(coords)

    def mode_coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays in mode order (inverse of the level permutation)."""
        by_level = self.level_coordinates()
        return tuple(by_level[self.format.mode_ordering.index(m)] for m in range(self.order))

    def components(self) -> list[Component]:
        """All stored entries in storage order, explicit zeros included."""
        columns = [c.tolist() for c in self.mode_coordinates()]
        crds = zip(*columns) if columns else [()] * self.nnz
        return [Component(c, v) for c, v in zip(crds, self.vals.tolist())]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims, dtype=VAL_DTYPE)
        if len(self.vals) == 0:
            return out
        by_mode = self.mode_coordinates()
        _sum_groups(out, tuple(c.astype(np.int64) for c in by_mode), self.vals)
        return out


def _checked_arrays(
    mode_coords: Sequence[np.ndarray],
    vals: np.ndarray,
    order: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Coordinate and value arrays as given, once each coordinate list is
    known to be 1-D, integer and as long as the 1-D value array."""
    vals = _checked_vals(vals)
    if len(mode_coords) != order:
        raise TensorError(f"{len(mode_coords)} coordinate lists for an order-{order} format")
    return _checked_coords(mode_coords, vals.shape, "mode", "values"), vals


def _checked_vals(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals)
    if vals.ndim != 1:
        raise TensorError(f"values of shape {vals.shape} are not a 1-D array")
    return vals


def _checked_coords(coords: Sequence[np.ndarray], shape: tuple, what: str,
                    against: str, first: int = 0) -> list[np.ndarray]:
    """Each coordinate list as given, once it is known to be integer and of
    ``shape``, the shape of ``against``. Empty lists of any dtype become
    CRD_DTYPE, and uint64 becomes int64 so that level arithmetic stays
    integer (a value past 2^63 turns negative and fails the bounds check)."""
    out = []
    for m, c in enumerate(coords, first):
        c = np.asarray(c)
        if c.shape != shape:
            raise TensorError(f"coordinates of {what} {m} have shape {c.shape}, "
                              f"{against} have shape {shape}")
        if not c.size:
            c = c.astype(CRD_DTYPE)
        elif not np.issubdtype(c.dtype, np.integer):
            raise TensorError(f"coordinates of {what} {m} have non-integer dtype {c.dtype}")
        elif not np.can_cast(c.dtype, np.int64):
            c = c.astype(np.int64)
        out.append(c)
    return out


def _checked_dims(fmt: Format, dims: Sequence[int]) -> tuple[int, ...]:
    if len(dims) != fmt.order:
        raise TensorError(f"{len(dims)} dims for an order-{fmt.order} format")
    if not all(isinstance(d, numbers.Integral) and d >= 0 for d in dims):
        raise TensorError(f"dims {tuple(dims)} are not integers of at least 0")
    dims = tuple(operator.index(d) for d in dims)
    if any(d > MAX_EXTENT for d in dims):
        raise TensorError(f"dims {dims} exceed the coordinate limit of 2^32 per mode")
    return dims


def compress_arrays(
    mode_coords: Sequence[np.ndarray],
    vals: np.ndarray,
    fmt: Format,
    dims: Sequence[int],
) -> Tensor:
    """Pack per-mode coordinate arrays, sorted by the target's access order,
    into a tensor. Entries must be unique; explicit zeros are stored. This
    is ``compress_segments`` with every level given per entry.

    Coordinates of any integer dtype are checked in that dtype and never
    widened, except in a dense level's position product
    ``parent * extent + c`` (int64); compressed levels narrow them to
    CRD_DTYPE. The tensor holds ``crd`` in CRD_DTYPE, ``pos`` in int64 and
    the values in VAL_DTYPE. It takes over a coordinate or value array it
    stores unchanged when ``_taken`` allows, and copies any other; a caller
    that keeps using such an array passes a copy."""
    dims = _checked_dims(fmt, dims)
    mode_coords, vals = _checked_arrays(mode_coords, vals, fmt.order)
    by_level = [mode_coords[m] for m in fmt.mode_ordering]
    _check_bounds(by_level, fmt, dims)
    _check_order(by_level, None, [], len(vals))
    return _compress(fmt, dims, by_level, None, [], vals)


def compress_segments(
    prefix: Sequence[np.ndarray],
    counts: np.ndarray | None,
    tail: Sequence[np.ndarray],
    vals: np.ndarray,
    fmt: Format,
    dims: Sequence[int],
) -> Tensor:
    """Pack entries given as segments into a tensor, in level order: segment
    ``s`` holds ``counts[s]`` entries (one each where ``counts`` is None),
    and ``prefix`` gives the coordinates of the first levels once per
    segment. ``tail`` gives those of the other levels, and ``vals`` the
    values, once per entry, segment after segment.

    The entries the segments stand for must be unique and sorted by the
    target's access order; a segment without entries stands for nothing.
    The tensor equals ``compress_arrays`` over the expanded coordinates, and
    takes over arrays as it does."""
    dims = _checked_dims(fmt, dims)
    vals = _checked_vals(vals)
    if len(prefix) + len(tail) != fmt.order:
        raise TensorError(f"{len(prefix) + len(tail)} coordinate lists for an "
                          f"order-{fmt.order} format")
    if counts is None:
        segments, against = vals.shape, "values"
    else:
        counts = np.asarray(counts)
        if (counts.ndim != 1 or counts.size and counts.dtype.kind not in "iu"
                or counts.min(initial=0) < 0 or counts.sum() != len(vals)):
            raise TensorError(f"segment counts are not a 1-D list of integers of at "
                              f"least 0 that sum to the {len(vals)} values")
        counts = counts.astype(np.int64, copy=False)
        segments, against = counts.shape, "segment counts"
    prefix = _checked_coords(prefix, segments, "level", against)
    tail = _checked_coords(tail, vals.shape, "level", "values", len(prefix))
    if counts is not None and not counts.all():
        has = counts > 0
        prefix = [c[has] for c in prefix]
        counts = counts[has]
    _check_bounds([*prefix, *tail], fmt, dims)
    _check_order(prefix, counts, tail, len(vals))
    return _compress(fmt, dims, prefix, counts, tail, vals)


def _check_bounds(by_level: Sequence[np.ndarray], fmt: Format, dims: tuple[int, ...]) -> None:
    """Raise unless every coordinate lies inside its level's extent. It runs
    on coordinates as given, before any is narrowed (which would wrap it)."""
    for l, (c, m) in enumerate(zip(by_level, fmt.mode_ordering)):
        if len(c) and (c.min() < 0 or c.max() >= dims[m]):
            raise TensorError(f"coordinate out of bounds at level {l}: extent {dims[m]}")


def _compress(fmt: Format, dims: tuple[int, ...], prefix: list[np.ndarray],
              counts: np.ndarray | None, tail: list[np.ndarray], vals: np.ndarray) -> Tensor:
    """The level loop of every constructor, on arrays known to be in
    bounds, unique and in order, with no empty segment: the prefix levels
    once per segment (per entry where ``counts`` is None), then the tail
    levels once per entry."""
    extents = [dims[m] for m in fmt.mode_ordering]
    n = len(vals)
    if fmt.coo:
        if counts is not None:
            prefix = [np.repeat(c, counts) for c in prefix]
        return Tensor(
            dims=dims,
            format=fmt,
            levels=None,
            coo_coords=tuple(_taken(c, CRD_DTYPE) for c in [*prefix, *tail]),
            vals=_taken(vals, VAL_DTYPE),
        )

    # each segment's, and past the prefix each entry's, position at the level
    # above, or None while all sit under the root; ``owned`` marks an array
    # this call may overwrite
    parent: np.ndarray | None = None
    owned = False
    parent_count = 1
    size = n if counts is None else len(counts)
    last = fmt.order - 1
    levels: list[DenseLevel | CompressedLevel] = []
    for l, (kind, c, extent) in enumerate(zip(fmt.levels, [*prefix, *tail], extents)):
        if l == len(prefix) and counts is not None:
            # from segments to entries
            if kind is COMPRESSED and l == last:
                # each entry is a child of its own, so a parent's children
                # start where its first segment's entries do
                ends = np.zeros(size + 1, np.int64)
                np.cumsum(counts, out=ends[1:])
                pos = ends[_segment_pos(parent, parent_count, size)]
                levels.append(CompressedLevel(pos=pos, crd=_taken(c, CRD_DTYPE)))
                parent = None
                break
            if parent is not None:
                parent = np.repeat(parent, counts)
                owned = True
            size = n
        if kind is DENSE:
            if parent is None:
                parent = c
            else:
                parent = parent.astype(np.int64, copy=not owned)
                parent *= extent
                parent += c
                owned = True
            parent_count *= extent
            levels.append(DenseLevel(extent))
        elif l == last:
            # entries are unique, so each one is a child of its own and
            # there are no segment starts to find
            levels.append(CompressedLevel(pos=_segment_pos(parent, parent_count, size),
                                          crd=_taken(c, CRD_DTYPE)))
            parent = None
        else:
            c = c.astype(CRD_DTYPE, copy=False)
            changed = np.empty(size, dtype=bool)
            if size:
                changed[0] = True
                np.not_equal(c[1:], c[:-1], out=changed[1:])
                if parent is not None:
                    changed[1:] |= parent[1:] != parent[:-1]
            crd = c[changed]
            del c
            pos = _segment_pos(None if parent is None else parent[changed],
                               parent_count, len(crd))
            levels.append(CompressedLevel(pos=pos, crd=crd))
            if not owned:
                parent = np.empty(size, dtype=CRD_DTYPE if size <= MAX_EXTENT else np.int64)
                owned = True
            np.cumsum(changed, dtype=parent.dtype, out=parent)
            parent -= 1
            parent_count = len(crd)

    if levels and isinstance(levels[-1], CompressedLevel):
        out_vals = _taken(vals, VAL_DTYPE)
    else:
        out_vals = np.zeros(parent_count, dtype=VAL_DTYPE)
        out_vals[slice(n) if parent is None else parent] = vals
    return Tensor(dims=dims, format=fmt, levels=tuple(levels), coo_coords=None, vals=out_vals)


def _check_order(prefix: list[np.ndarray], counts: np.ndarray | None,
                 tail: list[np.ndarray], n: int) -> None:
    """Raise unless the ``n`` entries the segments stand for are unique and
    ascend lexicographically: adjacent segments compare on the prefix, and
    within a segment, or across two tied on the prefix, entries compare on
    the tail. Pairs are compared a block at a time, so the scratch does not
    grow with ``n`` or the number of segments."""
    if counts is None:
        tied, descending = _adjacent_pairs([*prefix, *tail], n)
    else:
        tied, descending = _adjacent_pairs(tail, n)
        # a pair of adjacent entries that spans two segments compares on the
        # prefix first: swap the tail's verdict on it for the pair's own
        start = 0  # the first entry of segment lo
        for lo in range(0, len(counts) - 1, _ORDER_BLOCK):
            hi = min(lo + _ORDER_BLOCK, len(counts) - 1)
            last = np.cumsum(counts[lo:hi])  # the last entry of each segment
            last += start - 1
            start = int(last[-1]) + 1
            across = [(c[last], c[last + 1]) for c in tail]
            by_tail = _tally(*_fold(across, hi - lo))
            segments = [(c[lo:hi], c[lo + 1:hi + 1]) for c in prefix]
            by_both = _tally(*_fold(across, hi - lo, *_fold(segments, hi - lo)))
            tied += by_both[0] - by_tail[0]
            descending += by_both[1] - by_tail[1]
    if tied:
        raise TensorError("duplicate coordinates in component list")
    if descending:
        raise TensorError("components are not sorted by the target access order")


def _adjacent_pairs(columns: Sequence[np.ndarray], n: int) -> tuple[int, int]:
    """How many of the pairs of adjacent items among ``n``, compared
    column after column, are tied at every column, and how many descend."""
    tied = descending = 0
    for lo in range(0, n - 1, _ORDER_BLOCK):
        hi = min(lo + _ORDER_BLOCK, n - 1)
        t, d = _tally(*_fold([(c[lo:hi], c[lo + 1:hi + 1]) for c in columns], hi - lo))
        tied += t
        descending += d
    return tied, descending


def _fold(pairs: Iterable[tuple[np.ndarray, np.ndarray]], m: int,
          ordered: np.ndarray | None = None,
          tied: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Compare ``m`` pairs of items, given as one (left, right) pair of
    arrays per column, column after column: ``ordered`` marks a pair that
    ascends at a column compared so far, ``tied`` one equal at every such
    column. The fold goes on from verdicts of earlier columns when given,
    in place."""
    if ordered is None or tied is None:
        ordered, tied = np.zeros(m, bool), np.ones(m, bool)
    step = np.empty(m, dtype=bool)
    for a, b in pairs:
        np.less(a, b, out=step)
        step &= tied
        ordered |= step
        np.equal(a, b, out=step)
        tied &= step
    return ordered, tied


def _tally(ordered: np.ndarray, tied: np.ndarray) -> tuple[int, int]:
    """How many pairs are tied, and how many descend."""
    t = int(np.count_nonzero(tied))
    return t, len(tied) - t - int(np.count_nonzero(ordered))


def _taken(a: np.ndarray, dtype: type) -> np.ndarray:
    """``a`` itself when a tensor can keep it: it has ``dtype``, is
    C-contiguous and writable, and owns its data or views the whole buffer
    of a base that does (as a reinterpreting view of a buffer that was
    resized in place does); else a copy in ``dtype``."""
    f = a.flags
    if a.dtype == dtype and f.c_contiguous and f.writeable:
        base = a.base
        if f.owndata or (isinstance(base, np.ndarray) and base.flags.owndata
                         and base.nbytes == a.nbytes
                         and base.ctypes.data == a.ctypes.data):
            return a
    return a.astype(dtype)


def _segment_pos(parent: np.ndarray | None, parent_count: int, n: int) -> np.ndarray:
    """The ``pos`` array of a compressed level: where each parent's segment
    starts among ``n`` children, given every child's parent in ascending
    order (None: every child sits under the root)."""
    pos = np.full(parent_count + 1, n, dtype=np.int64)
    if parent is None:
        pos[0] = 0
    elif n:
        # parents past the last child's own end with empty segments at n;
        # the others are searched a block at a time, so that no temporary
        # grows with the parent count
        k = int(parent[-1]) + 1
        parent = np.ascontiguousarray(parent)  # searchsorted would copy it per call
        for lo in range(0, k, _POS_BLOCK):
            hi = min(lo + _POS_BLOCK, k)
            pos[lo:hi] = np.searchsorted(parent, np.arange(lo, hi, dtype=parent.dtype))
    return pos


def _sum_groups(out: np.ndarray, group, vals: np.ndarray, fresh=None) -> None:
    """spworks' one summation: ``vals`` added in order into ``out`` at
    ``group``, with numpy's overflow and invalid-value warnings. The sums
    ``fresh`` indexes in ``out`` start here, from -0.0, the exact identity
    of IEEE addition: each is its first value, then each later one added in
    turn, bit for bit. The others add to what ``out`` holds."""
    if fresh is not None:
        out[fresh] = -0.0
    np.add.at(out, group, vals)


def from_arrays(
    mode_coords: Sequence[Sequence[int]],
    vals: Sequence[float],
    fmt: Format,
    dims: Sequence[int],
    *,
    sum_duplicates: bool = False,
) -> Tensor:
    """Stably sort per-mode coordinates by the target's access order,
    optionally sum duplicates in input order (``_sum_groups``), then
    compress. The sort takes
    linear time: one radix pass per 16-bit digit of each level's
    coordinates (``_level_order``). One pass over adjacent entries finds
    both whether they already ascend, ties allowed, and so need no sort, and
    the duplicates among them. The tensor shares no memory with the
    caller's arrays."""
    return _from_arrays(mode_coords, vals, fmt, dims, sum_duplicates, handed_over=False)


def _from_arrays(mode_coords: Sequence[Sequence[int]], vals: Sequence[float], fmt: Format,
                 dims: Sequence[int], sum_duplicates: bool, handed_over: bool) -> Tensor:
    """``from_arrays``; the tensor may keep coordinate arrays that are
    ``handed_over``, which no caller uses again."""
    by_mode, vals = _checked_arrays(mode_coords, vals, fmt.order)
    dims = _checked_dims(fmt, dims)
    by_level = [by_mode[m] for m in fmt.mode_ordering]
    _check_bounds(by_level, fmt, dims)
    n = len(vals)
    tied, descending = _adjacent_pairs(by_level, n)
    if descending:
        order = _level_order(by_level, [dims[m] for m in fmt.mode_ordering])
        by_level = [c[order] for c in by_level]
        vals = vals[order]
        del order
        # once sorted, duplicates are adjacent
        tied = sum_duplicates or _adjacent_pairs(by_level, n)[0]
    if tied:
        if not sum_duplicates:
            raise TensorError("duplicate coordinates in component list")
        changed = np.zeros(n, dtype=bool)
        changed[0] = True
        for c in by_level:
            changed[1:] |= c[1:] != c[:-1]
        group = np.cumsum(changed) - 1
        sums = np.empty(int(group[-1]) + 1, VAL_DTYPE)
        _sum_groups(sums, group, vals.astype(VAL_DTYPE, copy=False), slice(None))
        by_level, vals = [c[changed] for c in by_level], sums
    elif not descending:
        if not handed_over:
            # the tensor would take over the caller's arrays
            by_level = [c.copy() if c.dtype == CRD_DTYPE else c for c in by_level]
        vals = vals.astype(VAL_DTYPE)
    return _compress(fmt, dims, by_level, None, [], vals)


def _level_order(by_level: Sequence[np.ndarray], extents: Sequence[int]) -> np.ndarray:
    """The permutation that sorts entries stably by their level-order
    coordinates, each inside its level's extent: ``np.lexsort`` of the
    coordinates split into 16-bit digits, each narrowed to uint8 when its
    values fit. numpy sorts uint8 and uint16 keys by radix, so this is one
    linear pass per digit, least significant first, each reordering one
    index array in place. The permutation is lexsort's on the coordinates
    themselves."""
    digits = []
    for c, e in zip(by_level, extents):
        top = e - 1
        for shift in range(max(top.bit_length() - 1, 0) // 16 * 16, -1, -16):
            # wraps to the digit's 16 bits
            dtype = np.uint8 if top >> shift < 2**8 else np.uint16
            digits.append(np.right_shift(c, shift, out=np.empty(len(c), dtype),
                                         casting="unsafe"))
    return np.lexsort(digits[::-1])


def from_dense(array: np.ndarray, fmt: Format | None = None) -> Tensor:
    """Build a tensor from a dense array; defaults to an all-dense format.
    Sparse formats store every nonzero cell, NaN included and -0.0 not."""
    arr = np.asarray(array)
    # an array numpy casts safely to float64 (bool, an integer, float16 to
    # float64) is scanned in its own dtype, since a value is nonzero after
    # the cast exactly when it is before; any other is converted first
    if not np.can_cast(arr.dtype, VAL_DTYPE):
        arr = arr.astype(VAL_DTYPE)
    fmt = fmt or dense(arr.ndim)
    by_level = np.transpose(arr, access_map(range(arr.ndim), fmt))
    if fmt.all_dense():
        levels = tuple(DenseLevel(e) for e in by_level.shape)
        vals = np.array(by_level, dtype=VAL_DTYPE, order="C").reshape(-1)  # one copy
        return Tensor(dims=arr.shape, format=fmt, levels=levels, coo_coords=None, vals=vals)
    # one scan marks the nonzero cells of the level-order view (a scalar is
    # one cell) in a C-ordered mask, 1 B per cell, whose flat order is the
    # target's access order, so the cells come out sorted. NaN != 0 holds
    # and -0.0 != 0 does not. Neither the mask nor the flat indices outlive
    # the expression, so compression runs without them
    cells = by_level.reshape(by_level.shape or 1)
    idx = np.unravel_index(
        np.flatnonzero(np.not_equal(cells, 0, out=np.empty(cells.shape, dtype=bool))),
        cells.shape)
    mode_coords = [idx[fmt.mode_ordering.index(m)] for m in range(fmt.order)]
    return compress_arrays(mode_coords, cells[idx].astype(VAL_DTYPE, copy=False), fmt, arr.shape)


def reformat(tensor: Tensor, fmt: Format) -> Tensor:
    """Re-store the same entries under another format of equal order. The
    walk up the levels gives them in the source's access order, so they are
    sorted, in linear time as ``from_arrays`` sorts, only when the target's
    order differs."""
    if fmt.order != tensor.order:
        raise TensorError(
            f"cannot reformat an order-{tensor.order} tensor as order-{fmt.order}"
        )
    # a walk up the levels builds coordinate arrays of its own; a COO
    # tensor's are its storage
    return _from_arrays(tensor.mode_coordinates(), tensor.vals, fmt, tensor.dims, False,
                        handed_over=not tensor.format.coo)


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Structural equality: format, dims and every storage array; NaN equals NaN."""
    if a.format != b.format or a.dims != b.dims:
        return False
    if not np.array_equal(a.vals, b.vals, equal_nan=True):
        return False
    if a.format.coo:
        return all(np.array_equal(x, y) for x, y in zip(a.coo_coords, b.coo_coords))
    for la, lb in zip(a.levels, b.levels):  # type: ignore[arg-type]
        if isinstance(la, DenseLevel) != isinstance(lb, DenseLevel):
            return False
        if isinstance(la, DenseLevel):
            if la.extent != lb.extent:  # type: ignore[union-attr]
                return False
        else:
            if not (np.array_equal(la.pos, lb.pos) and np.array_equal(la.crd, lb.crd)):  # type: ignore[union-attr]
                return False
    return True
