"""Level-based storage: formats, compression, iteration, conversion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spworks as sw
import spworks.tensor as tensor
from spworks.tensor import (
    COMPRESSED,
    CRD_DTYPE,
    DENSE,
    Component,
    CompressedLevel,
    DenseLevel,
    compress_arrays,
    compress_segments,
    from_arrays,
)

from conftest import in_order, peak_above, peak_spans


def _random_dense(rng: np.random.Generator, shape, density=0.4) -> np.ndarray:
    return ((rng.random(shape) < density) * rng.integers(1, 10, shape)).astype(float)


def _storage(t: sw.Tensor) -> list[np.ndarray]:
    """Every array a tensor stores."""
    out = [t.vals, *(t.coo_coords or ())]
    return out + [a for lvl in t.levels or () if isinstance(lvl, CompressedLevel)
                  for a in (lvl.pos, lvl.crd)]


# -- formats -------------------------------------------------------------------------


def test_named_formats_level_layout():
    assert sw.csr().levels == (DENSE, COMPRESSED)
    assert sw.csr().mode_ordering == (0, 1)
    assert sw.csc().mode_ordering == (1, 0)
    assert sw.dcsr().levels == (COMPRESSED, COMPRESSED)
    assert sw.csf(3).order == 3
    assert sw.dense(2).all_dense()
    assert not sw.csr().all_dense()
    assert sw.coo(2).coo


def test_format_from_name_resolves_by_order():
    assert sw.format_from_name("csr", 2) == sw.csr()
    assert sw.format_from_name("CSR", 2) == sw.csr()
    assert sw.format_from_name("sv", 1) == sw.sparse_vector()
    assert sw.format_from_name("dense", 3) == sw.dense(3)
    with pytest.raises(sw.TensorError, match="order-3"):
        sw.format_from_name("csr", 3)
    with pytest.raises(sw.TensorError, match="unknown format"):
        sw.format_from_name("ellpack", 2)


def test_format_name_does_not_affect_equality():
    anon = sw.Format((DENSE, COMPRESSED), (0, 1))
    assert anon == sw.csr()
    assert anon != sw.csc()


def test_mode_ordering_must_be_permutation():
    with pytest.raises(sw.TensorError, match="permutation"):
        sw.Format((DENSE, DENSE), (0, 0))


def test_access_map_permutes_into_level_order():
    assert sw.access_map(("i", "j"), sw.csc()) == ("j", "i")
    assert sw.access_map(("i", "j"), sw.csr()) == ("i", "j")
    with pytest.raises(sw.TensorError):
        sw.access_map(("i",), sw.csr())


def test_csf_requires_order_three():
    with pytest.raises(sw.TensorError):
        sw.csf(2)


# -- compression goldens --------------------------------------------------------------


def test_compress_arrays_csr_golden():
    t = compress_arrays([np.array([0, 0, 2]), np.array([0, 2, 1])],
                        np.array([1.0, 2.0, 3.0]), sw.csr(), (3, 3))
    dense_lvl, comp_lvl = t.levels
    assert isinstance(dense_lvl, DenseLevel) and dense_lvl.extent == 3
    assert isinstance(comp_lvl, CompressedLevel)
    assert comp_lvl.pos.tolist() == [0, 2, 2, 3]
    assert comp_lvl.crd.tolist() == [0, 2, 1]
    assert t.vals.tolist() == [1.0, 2.0, 3.0]
    assert t.nnz == 3


def test_compress_arrays_csc_expects_column_major_order():
    # same matrix, but entries must arrive sorted by (j, i)
    t = compress_arrays([np.array([0, 2, 0]), np.array([0, 1, 2])],
                        np.array([1.0, 3.0, 2.0]), sw.csc(), (3, 3))
    assert t.to_dense()[0, 2] == 2.0
    lvl = t.levels[1]
    assert lvl.crd.tolist() == [0, 2, 0]  # row coordinates per column


def test_order_check_finds_a_fault_at_every_pair(monkeypatch):
    # two adjacent entries swapped, or the second made equal to the first,
    # raise at every position, on either side of a block edge and at the
    # last pair, whether entries come one by one or as segments of a row
    flat = np.arange(0, 40, 3)
    rows, cols = divmod(flat, 8)
    for block in (tensor._ORDER_BLOCK, 3):
        monkeypatch.setattr(tensor, "_ORDER_BLOCK", block)
        for i in range(len(flat) - 1):
            for fault, match in (("swap", "not sorted"), ("repeat", "duplicate")):
                r, c = rows.copy(), cols.copy()
                pick = [i + 1, i] if fault == "swap" else [i, i]
                r[[i, i + 1]], c[[i, i + 1]] = r[pick], c[pick]
                with pytest.raises(sw.TensorError, match=match):
                    compress_arrays([r, c], np.ones(len(r)), sw.csr(), (5, 8))
                starts = np.flatnonzero(np.diff(r, prepend=-1))
                counts = np.diff(starts, append=len(r))
                with pytest.raises(sw.TensorError, match=match):
                    compress_segments([r[starts]], counts, [c], np.ones(len(r)),
                                      sw.csr(), (5, 8))


def test_compress_arrays_empty():
    t = compress_arrays([np.empty(0, int), np.empty(0, int)], np.empty(0),
                        sw.csr(), (4, 5))
    assert t.nnz == 0
    assert np.array_equal(t.to_dense(), np.zeros((4, 5)))


def test_coordinates_must_be_integers():
    # truncating would store (0.9, 2.2) silently as (0, 2)
    with pytest.raises(sw.TensorError, match="non-integer dtype float64"):
        from_arrays([[0.9, 1.7], [2.2, 0.5]], [1.0, 2.0], sw.csr(), (3, 3))
    with pytest.raises(sw.TensorError, match="non-integer dtype float64"):
        compress_arrays([[0.0, 1.0], [2.0, 0.0]], [1.0, 2.0], sw.csr(), (3, 3))
    with pytest.raises(sw.TensorError, match="non-integer dtype bool"):
        compress_arrays([np.array([False, True]), [0, 0]], [1.0, 2.0], sw.coo(2), (3, 3))
    with pytest.raises(sw.TensorError, match="non-integer"):
        from_arrays([[0.5], [1]], [1.0], sw.dcsr(), (3, 3))


@pytest.mark.parametrize("fmt", [sw.coo(2), sw.csr(), sw.dcsr()], ids=str)
def test_coordinates_must_be_one_dimensional_and_as_long_as_the_values(fmt):
    with pytest.raises(sw.TensorError, match=r"mode 0 have shape \(2,\)"):
        from_arrays([[0, 1], [1, 2]], [1.0, 2.0, 3.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match=r"mode 0 have shape \(2,\)"):
        compress_arrays([[0, 1], [1, 2]], [1.0, 2.0, 3.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match=r"mode 1 have shape \(2, 1\)"):
        compress_arrays([[0, 1], [[1], [2]]], [1.0, 2.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match="not a 1-D array"):
        compress_arrays([[0, 1], [1, 2]], [[1.0], [2.0]], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match="1 coordinate lists for an order-2"):
        compress_arrays([[0, 1]], [1.0, 2.0], fmt, (3, 3))


@pytest.mark.parametrize("fmt", [sw.coo(2), sw.csr(), sw.dcsr(), sw.dense(2)], ids=str)
def test_empty_coordinate_lists_are_valid(fmt):
    for t in (from_arrays([[], []], [], fmt, (3, 3)),
              compress_arrays([[], []], [], fmt, (3, 3))):
        assert t.nnz == (9 if fmt.all_dense() else 0)
        assert np.array_equal(t.to_dense(), np.zeros((3, 3)))
        crds = t.coo_coords or [lvl.crd for lvl in t.levels
                                if isinstance(lvl, CompressedLevel)]
        assert all(c.dtype == np.uint32 for c in crds)


@pytest.mark.parametrize("dtype", [np.int64, np.uint32], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("fmt, shape", [
    (sw.csr(), (2000, 2000)), (sw.dcsr(), (2000, 2000)), (sw.csf(3), (100, 100, 100)),
    (sw.coo(2), (2000, 2000)), (sw.sparse_vector(), (10**6,)),
    (sw.csr(), (10**6, 100)),  # five rows per entry: pos outgrows the entries
], ids=lambda x: str(x) if isinstance(x, sw.Format) else "x".join(map(str, x)))
def test_compress_arrays_scratch_per_entry(fmt, shape, dtype):
    # what compress_arrays holds at its peak beyond the arrays it allocates
    # for the tensor it returns (an input it takes over was allocated before
    # the span): room for a few bool and 32-bit arrays of one slot per
    # entry, not for an int64 copy of each level's coordinates
    n = 200_000
    rng = np.random.default_rng(0)
    flat = np.sort(rng.choice(math.prod(shape), n, replace=False))
    coords = [c.astype(dtype) for c in np.unravel_index(flat, shape)]
    vals = rng.random(n)
    with peak_above() as span:
        t = compress_arrays(coords, vals, fmt, shape)
    made = [a for a in _storage(t) if not any(a is x for x in [*coords, vals])]
    assert (span.peak - sum(a.nbytes for a in made)) / n <= 12
    assert np.array_equal(t.mode_coordinates()[0], coords[0])


@pytest.mark.parametrize("fmt, shape", [
    (sw.csr(), (2000, 2000)), (sw.dcsr(), (2000, 2000)), (sw.csf(3), (100, 100, 100)),
    (sw.sparse_vector(), (10**6,)), (sw.csr(), (10**6, 100)), (sw.dense(2), (500, 400)),
], ids=lambda x: str(x) if isinstance(x, sw.Format) else "x".join(map(str, x)))
def test_level_coordinates_scratch_per_entry(fmt, shape):
    # beyond the CRD_DTYPE arrays it returns, the walk up the levels holds a
    # few 64-bit arrays of one block of entries, not one per entry per level
    n = 200_000
    rng = np.random.default_rng(0)
    flat = np.sort(rng.choice(math.prod(shape), n, replace=False))
    coords = np.unravel_index(flat, shape)
    t = compress_arrays(list(coords), rng.random(n), fmt, shape)
    with peak_above() as span:
        got = t.level_coordinates()
    assert (span.peak - sum(c.nbytes for c in got)) / t.nnz <= 3
    assert all(c.dtype == CRD_DTYPE for c in got)
    assert all(np.array_equal(g, c) for g, c in zip(got, coords))


@pytest.mark.parametrize("src, dst, shape, bound", [
    (sw.csr(), sw.dcsr(), (2000, 2000), 13.5), (sw.csr(), sw.csr(), (2000, 2000), 4.5),
    (sw.csr(), sw.coo(2), (2000, 2000), 0.5), (sw.csf(3), sw.csf(3), (100, 100, 100), 17),
    (sw.csr(), sw.csc(), (2000, 2000), 20.65), (sw.csr(), sw.csc(), (10**6, 100), 20.57),
], ids=lambda x: str(x) if isinstance(x, (sw.Format, float, int)) else "x".join(map(str, x)))
def test_reformat_scratch_per_entry(src, dst, shape, bound):
    # bounds in bytes per entry beyond the tensor it returns, from
    # measurement (12.96, 4.15, 0.09, 16.66; each 4 B per level more while
    # reformat copied the coordinates the walk up the levels built for it).
    # CSR to CSC sorts: its bounds are what it held while it sorted with
    # np.lexsort on the coordinates themselves, 20.15 and 20.07, plus 0.5,
    # so that the radix passes hold no more (19.95 and 20.02 measured)
    n = 200_000
    rng = np.random.default_rng(0)
    flat = np.sort(rng.choice(math.prod(shape), n, replace=False))
    t = compress_arrays(list(np.unravel_index(flat, shape)), rng.random(n), src, shape)
    with peak_above() as span:
        u = sw.reformat(t, dst)
    assert (span.peak - sum(a.nbytes for a in _storage(u))) / n <= bound
    assert sw.tensors_equal(sw.reformat(u, src), t)


def test_reformat_keeps_the_coordinates_it_builds(monkeypatch):
    # the coordinates the walk up the levels builds for reformat are its
    # own, and the tensor keeps them; a COO source's are its storage, which
    # it copies (as from_arrays copies any caller's arrays)
    built: list[np.ndarray] = []
    walk = sw.Tensor.mode_coordinates

    def recorded(self):
        coords = walk(self)
        built.extend(coords)
        return coords

    monkeypatch.setattr(sw.Tensor, "mode_coordinates", recorded)
    arr = _random_dense(np.random.default_rng(3), (30, 40))
    u = sw.reformat(sw.from_dense(arr, sw.csr()), sw.coo(2))
    assert all(a is b for a, b in zip(u.coo_coords, built))
    src = sw.from_dense(arr, sw.coo(2))
    built.clear()
    for dst in (sw.coo(2), sw.csr()):
        u = sw.reformat(src, dst)
        assert not _shares_memory(u, built)
        assert np.array_equal(u.to_dense(), arr)


def test_from_unsorted_sorts_by_target_order():
    # entries given out of order
    t = from_arrays([[2, 0, 0], [1, 2, 0]], [3.0, 2.0, 1.0], sw.csr(), (3, 3))
    assert t.vals.tolist() == [1.0, 2.0, 3.0]


def test_from_unsorted_sums_duplicates():
    coords, vals = [[1, 0, 1, 1], [1, 0, 1, 1]], [2.0, 1.0, 5.0, -2.0]
    t = from_arrays(coords, vals, sw.csr(), (2, 2), sum_duplicates=True)
    assert t.nnz == 2
    assert t.to_dense()[1, 1] == 5.0
    # without the flag duplicates are a hard error
    with pytest.raises(sw.TensorError, match="duplicate"):
        from_arrays(coords, vals, sw.csr(), (2, 2))


def test_from_arrays_sorts_only_what_is_not_sorted(monkeypatch):
    # coordinates that already ascend in the target's access order, ties
    # included, build without a sort the tensor the sort builds from them
    # shuffled; reformat from COO to CSR and from CSR to DCSR is sort-free.
    # Both the sort and np.lexsort, which it calls, are switched off.
    # Integer values keep the sums of duplicates exact in any order
    rng = np.random.default_rng(8)
    n, shape = 400, (20, 30)
    mode = [rng.integers(0, e, n) for e in shape]
    vals = rng.integers(1, 10, n).astype(float)

    def no_sort(m):
        m.setattr(tensor, "_level_order", None)
        m.setattr(np, "lexsort", None)

    for name in FORMATS2:
        fmt = sw.format_from_name(name, 2)
        order = np.lexsort([mode[m] for m in reversed(fmt.mode_ordering)])
        want = from_arrays(mode, vals, fmt, shape, sum_duplicates=True)
        with monkeypatch.context() as m:
            no_sort(m)
            got = from_arrays([c[order] for c in mode], vals[order], fmt, shape,
                              sum_duplicates=True)
            assert sw.tensors_equal(got, want), name
            with pytest.raises(sw.TensorError, match="duplicate"):
                from_arrays([c[order] for c in mode], vals[order], fmt, shape)
    coo = from_arrays(mode, vals, sw.coo(2), shape, sum_duplicates=True)
    with monkeypatch.context() as m:
        no_sort(m)
        dcsr = sw.reformat(sw.reformat(coo, sw.csr()), sw.dcsr())
    assert sw.tensors_equal(dcsr, sw.reformat(coo, sw.dcsr()))
    assert np.array_equal(dcsr.to_dense(), coo.to_dense())


def test_from_arrays_checks_the_order_once(monkeypatch):
    # the pass over adjacent entries that finds the input sorted also finds
    # its duplicates, so compression does not repeat it; once sorted, the
    # entries are checked for duplicates unless they are summed
    calls = []
    pairs = tensor._adjacent_pairs
    monkeypatch.setattr(tensor, "_adjacent_pairs",
                        lambda *args: calls.append(1) or pairs(*args))
    rows, cols = np.array([0, 0, 1, 2]), np.array([1, 3, 0, 2])
    for mode, summed, passes in [([rows, cols], False, 1), ([cols, rows], False, 2),
                                 ([cols, rows], True, 1)]:
        calls.clear()
        from_arrays(mode, np.ones(4), sw.csr(), (4, 4), sum_duplicates=summed)
        assert len(calls) == passes


# extents at the edges of the radix digits: one value, uint8, uint16, and
# two 16-bit digits up to the coordinate limit
_EDGE_EXTENTS = [1, 2, 255, 256, 257, 65535, 65536, 65537, 2**24 + 1, 2**32 - 1, 2**32]


def _edge_coordinate(extent: int):
    edges = {0, 1, 255, 256, 65535, 65536, 2**24, extent // 2, extent - 2, extent - 1}
    return st.one_of(st.sampled_from(sorted(v for v in edges if 0 <= v < extent)),
                     st.integers(0, extent - 1))


@st.composite
def _entries(draw, extents):
    """Level-order coordinate columns of up to 40 entries, drawn with
    repeats from up to 12 distinct ones, in CRD_DTYPE or int64."""
    pool = draw(st.lists(st.tuples(*map(_edge_coordinate, extents)), max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40)) if pool else []
    dtype = draw(st.sampled_from([CRD_DTYPE, np.int64]))
    return [np.array([pool[i][l] for i in picks], dtype=dtype) for l in range(len(extents))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_EDGE_EXTENTS), min_size=1, max_size=3).flatmap(
    lambda extents: st.tuples(st.just(extents), _entries(extents))))
def test_level_order_is_lexsort(case):
    extents, columns = case
    want = np.lexsort(columns[::-1]) if len(columns[0]) else np.zeros(0, np.intp)
    assert np.array_equal(tensor._level_order(columns, extents), want)


def _formats_of_order(order: int) -> list[sw.Format]:
    names = ["csr", "csc", "dcsr", "dcsc", "csf", "coo", "dense", "sv", "dv"]
    return [sw.format_from_name(n, order) for n in names
            if not isinstance(_outcome(lambda: sw.format_from_name(n, order)), str)]


@st.composite
def _conversion(draw):
    """A format of order 1 to 3, dims at the radix edges (dense levels
    held to about 2^16 cells), and entries with repeats and real values."""
    order = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(_formats_of_order(order)))
    dense_levels = sum(k is DENSE for k in fmt.levels)
    cap = int(65537 ** (1 / dense_levels)) + 1 if dense_levels else 2**32
    extents = [min(draw(st.sampled_from(_EDGE_EXTENTS)), cap if kind is DENSE else 2**32)
               for kind in fmt.levels]
    levels = draw(_entries(extents))
    vals = draw(st.lists(st.floats(width=64), min_size=len(levels[0]),
                         max_size=len(levels[0])))
    dims = [0] * order
    for m, e in zip(fmt.mode_ordering, extents):
        dims[m] = e
    mode = [levels[fmt.mode_ordering.index(m)] for m in range(order)]
    return fmt, tuple(dims), mode, np.array(vals, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_conversion())
@example((sw.csf(3), (1, 2, 2), [np.zeros(2, CRD_DTYPE)] * 3, np.array([np.inf, -np.inf])))
def test_from_arrays_matches_a_lexsort_model(case):
    # a stable lexsort of the level-order coordinates, then a sum of each
    # run of duplicates in input order: the same tensor, bit for bit; and
    # without summing, the same tensor or the same duplicate error
    fmt, dims, mode, vals = case
    # a sum of duplicates may overflow to infinity, or meet infinities of
    # both signs in NaN, in both; the two tests after this one pin that
    with np.errstate(over="ignore", invalid="ignore"):
        _check_against_a_lexsort_model(fmt, dims, mode, vals)


def _check_against_a_lexsort_model(fmt, dims, mode, vals) -> None:
    levels = [mode[m] for m in fmt.mode_ordering]
    order = np.lexsort(levels[::-1]) if len(vals) else np.zeros(0, np.intp)
    levels, vals_sorted = [c[order] for c in levels], vals[order]
    # an entry starts a run unless it equals the one before at every level
    same = np.ones(max(len(vals) - 1, 0), bool)
    for c in levels:
        same &= c[1:] == c[:-1]
    starts = np.flatnonzero(np.concatenate([[True], ~same])[:len(vals)])
    # each run's first value, then each later one added in input order
    bounds = [*starts.tolist(), len(vals)]
    sums = np.array([in_order(vals_sorted[a:b].tolist()) for a, b in zip(bounds, bounds[1:])],
                    np.float64)
    by_mode = [levels[fmt.mode_ordering.index(m)][starts] for m in range(fmt.order)]
    want = compress_arrays(by_mode, sums, fmt, dims)
    got = from_arrays(mode, vals, fmt, dims, sum_duplicates=True)
    assert sw.tensors_equal(got, want) and got.vals.tobytes() == want.vals.tobytes()
    unique = len(starts) == len(vals)
    got = _outcome(lambda: from_arrays(mode, vals, fmt, dims))
    if unique:
        assert sw.tensors_equal(got, want) and got.vals.tobytes() == want.vals.tobytes()
    else:
        assert got == "duplicate coordinates in component list"


def test_a_sum_of_duplicates_that_overflows_gives_infinity_and_warns():
    # the baseline of the numeric contract: two finite duplicates whose sum
    # passes the float64 range sum to -inf in IEEE arithmetic, and numpy's
    # overflow warning passes through; nothing refuses it
    with pytest.warns(RuntimeWarning, match="overflow encountered in add"):
        t = from_arrays([[1, 1]], [-1.09e306, -1.79e308], sw.sparse_vector(), (3,),
                        sum_duplicates=True)
    assert t.nnz == 1 and t.vals[0] == -np.inf
    assert [c.crds for c in t.components()] == [(1,)]


def test_a_sum_of_duplicates_of_opposite_infinities_gives_nan_and_warns():
    # inf + -inf is NaN in IEEE arithmetic, and numpy's invalid-value
    # warning passes through; the entry stays, as any sum of duplicates does
    with pytest.warns(RuntimeWarning, match="invalid value encountered in add"):
        t = from_arrays([[1, 1]], [np.inf, -np.inf], sw.sparse_vector(), (3,),
                        sum_duplicates=True)
    assert t.nnz == 1 and np.isnan(t.vals[0])
    assert [c.crds for c in t.components()] == [(1,)]


@pytest.mark.parametrize("extent", [1, 256, 65536, 2**32])
@pytest.mark.parametrize("bad", ["negative", "extent", "wraps-16", "wraps-32"])
def test_from_arrays_checks_bounds_before_narrowing(extent, bad):
    # a coordinate that narrowing to a 16-bit digit or to CRD_DTYPE would
    # wrap into range is out of bounds, sorted or not, with or without sums
    value = {"negative": -1, "extent": extent, "wraps-16": extent + 2**16,
             "wraps-32": extent + 2**32}[bad]
    rows = np.array([1, 0, value % 7, 2], dtype=np.int64) % 3
    for cols in ([0, 0, value, 0], [value, 0, 0, 0]):
        for summed in (False, True):
            with pytest.raises(sw.TensorError,
                               match=f"^coordinate out of bounds at level 1: extent {extent}$"):
                from_arrays([rows, np.array(cols, dtype=np.int64)], np.ones(4),
                            sw.dcsr(), (3, extent), sum_duplicates=summed)


# -- round trips -----------------------------------------------------------------------


@pytest.mark.parametrize("fmt_name", ["csr", "csc", "dcsr", "dcsc", "coo", "dense"])
def test_matrix_round_trip(fmt_name):
    rng = np.random.default_rng(5)
    arr = _random_dense(rng, (7, 9))
    fmt = sw.format_from_name(fmt_name, 2)
    t = sw.from_dense(arr, fmt)
    assert t.format == fmt
    assert np.array_equal(t.to_dense(), arr)


@pytest.mark.parametrize("fmt", [
    sw.csf(3), sw.coo(3), sw.dense(3), sw.Format((DENSE, COMPRESSED, COMPRESSED), (2, 0, 1)),
], ids=["csf", "coo", "dense", "dense-compressed-compressed-201"])
def test_order3_round_trip(fmt):
    rng = np.random.default_rng(6)
    arr = _random_dense(rng, (4, 5, 3))
    t = sw.from_dense(arr, fmt)
    assert np.array_equal(t.to_dense(), arr)
    assert sw.tensors_equal(sw.reformat(sw.from_dense(arr, sw.coo(3)), fmt), t)


NAMED_FORMATS = [(1, "sv"), (1, "dv"), (1, "coo"), (1, "dense"),
                 (2, "csr"), (2, "csc"), (2, "dcsr"), (2, "dcsc"), (2, "coo"), (2, "dense"),
                 (3, "csf"), (3, "coo"), (3, "dense")]


@pytest.mark.parametrize("order, fmt_name", NAMED_FORMATS)
def test_from_dense_matches_from_unsorted(order, fmt_name):
    rng = np.random.default_rng(order)
    arr = _random_dense(rng, (5, 4, 3)[:order])
    flat = arr.reshape(-1)
    flat[[0, 3]] = -0.0
    flat[4] = np.nan
    # the nonzero cells, last first
    nonzero = [c[::-1] for c in np.nonzero(arr)]
    fmt = sw.format_from_name(fmt_name, order)
    t = sw.from_dense(arr, fmt)
    assert sw.tensors_equal(t, from_arrays(nonzero, arr[tuple(nonzero)], fmt, arr.shape))
    # sparse formats store NaN cells and drop -0.0 cells like any other zero
    stored = arr.size if fmt.all_dense() else len(nonzero[0])
    assert t.nnz == stored
    assert np.isnan(t.vals).sum() == 1
    assert np.signbit(t.vals).sum() == (2 if fmt.all_dense() else 0)
    # compress_arrays builds the same tensor from coordinates of any integer
    # dtype, and still rejects one at or past the extent, or below 0
    m = fmt.mode_ordering[-1]
    for dtype in (np.int64, np.int32, np.uint32):
        coords = [c.astype(dtype) for c in t.mode_coordinates()]
        assert sw.tensors_equal(compress_arrays(coords, t.vals, fmt, arr.shape), t)
        for bad in (arr.shape[m], 2**32 - 1 if dtype is np.uint32 else -1):
            wrong = [c.copy() for c in coords]
            wrong[m][-1] = bad
            with pytest.raises(sw.TensorError, match="coordinate out of bounds"):
                compress_arrays(wrong, t.vals, fmt, arr.shape)


def _from_dense_model(array, fmt: sw.Format) -> sw.Tensor:
    """``from_dense`` as an index walk: ``np.nonzero`` walks the level-order
    view of the float array (a scalar is one cell) in C order, so its
    output is already sorted by the target's access order."""
    arr = np.asarray(array, dtype=float)
    by_level = np.transpose(arr, sw.access_map(range(arr.ndim), fmt))
    if fmt.all_dense():
        return sw.Tensor(dims=arr.shape, format=fmt,
                         levels=tuple(DenseLevel(e) for e in by_level.shape),
                         coo_coords=None, vals=np.array(by_level, order="C").reshape(-1))
    cells = by_level.reshape(by_level.shape or 1)
    idx = np.nonzero(cells)
    mode_coords = [idx[fmt.mode_ordering.index(m)] for m in range(fmt.order)]
    return compress_arrays(mode_coords, cells[idx], fmt, arr.shape)


def _dense_inputs(order: int) -> list:
    """Arrays of every layout and dtype ``from_dense`` takes: C-ordered,
    Fortran-ordered, transposed and strided real arrays with NaN, +-inf and
    -0.0 cells, int and bool arrays, zero-length axes and all-zero arrays."""
    rng = np.random.default_rng(order)
    if not order:
        return [np.array(v) for v in (3.5, 0.0, -0.0, np.nan, -np.inf, 7, 0, True, False)]
    shape = (5, 4, 3)[:order]
    reals = _random_dense(rng, shape) * rng.choice([-1.0, 1.0], shape)
    cells = rng.permutation(reals.size)
    reals.reshape(-1)[cells[:4]] = [np.nan, np.inf, -np.inf, -0.0]
    reals.reshape(-1)[cells[4:8]] = 0.0
    wide = _random_dense(rng, tuple(2 * e + 1 for e in shape))
    return [reals, np.asfortranarray(reals), reals.T, wide[(slice(None, None, -2),) * order],
            _random_dense(rng, shape).astype(np.int64) - 4, _random_dense(rng, shape) > 0,
            np.zeros(shape), np.full(shape, -0.0),
            np.zeros((0, *shape[1:])), np.ones((*shape[:-1], 0))]


@pytest.mark.parametrize("order, fmt_name", [(0, "coo"), (0, "dense"), *NAMED_FORMATS])
def test_from_dense_matches_the_index_walk(order, fmt_name):
    fmt = sw.format_from_name(fmt_name, order)
    for array in _dense_inputs(order):
        got = sw.from_dense(array, fmt)
        assert sw.tensors_equal(got, _from_dense_model(array, fmt)), (array.dtype, array.shape)
        assert got.vals.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int32, np.bool_])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("fmt, shape", [
    (sw.csr(), (1000, 1000)), (sw.csc(), (1000, 1000)), (sw.dcsc(), (1000, 1000)),
    (sw.coo(2), (1000, 1000)), (sw.csf(3), (100, 100, 100)), (sw.coo(3), (100, 100, 100)),
    (sw.sparse_vector(), (10**6,)),
], ids=lambda x: str(x) if isinstance(x, sw.Format) else "x".join(map(str, x)))
def test_from_dense_scratch_per_cell_and_nonzero(fmt, shape, density, dtype):
    # the scan holds a bool mask, 1 B per cell (and up to 64 KB of the
    # ufunc's buffers over a view that is not C-ordered), whatever the
    # array's dtype: an int or bool array is scanned in its own dtype and
    # only its nonzero values become floats. Compression starts from the
    # int64 coordinates and the float values, 8 B per level and per nonzero,
    # with the mask and the flat indices gone. Measured beyond the tensor
    # it returns: 0.99-1.07 MB on 10^6 cells without nonzeros, and 8 B per
    # nonzero more than the mask at 1%; at 50% 20.0 B per nonzero for CSR,
    # 21.0 for DCSC, 29.8 for CSF(3) and 8.0 for SparseVec
    rng = np.random.default_rng(0)
    mask = rng.random(shape) < density
    array = (mask * rng.random(shape) if dtype is np.float64
             else (mask * rng.integers(1, 10, shape)).astype(dtype))
    with peak_spans([(tensor, "from_dense"), (tensor, "compress_arrays")]) as probe:
        t = tensor.from_dense(array, fmt)
    convert, compress = probe.spans.values()
    cells, nnz = array.size, t.nnz
    assert nnz == np.count_nonzero(array)
    assert compress.entry - convert.entry <= 8 * (fmt.order + 1) * nnz + 4096
    scratch = convert.peak - convert.entry - sum(a.nbytes for a in _storage(t))
    assert scratch <= cells + (8 * fmt.order + 6) * nnz + 2**17


def test_orders_and_dims_must_match_the_format():
    with pytest.raises(sw.TensorError, match="does not match an order-3 format"):
        sw.from_dense(np.ones((2, 2)), sw.csf(3))
    with pytest.raises(sw.TensorError, match="does not match an order-2 format"):
        sw.from_dense(np.ones((2, 2, 2)), sw.csr())
    with pytest.raises(sw.TensorError, match="3 dims for an order-2 format"):
        from_arrays([[0], [0]], [1.0], sw.csr(), (2, 2, 2))


@pytest.mark.parametrize("fmt", [sw.coo(2), sw.csr(), sw.dcsr()], ids=str)
def test_extents_must_be_integers_of_at_least_zero(fmt):
    for dims in ((-1, 3), (2.9, 3.7), (2, "3")):
        with pytest.raises(sw.TensorError, match="not integers of at least 0"):
            from_arrays([[], []], [], fmt, dims)
        with pytest.raises(sw.TensorError, match="not integers of at least 0"):
            from_arrays([[0], [0]], [1.0], fmt, dims)
    assert from_arrays([[], []], [], fmt, (0, 3)).dims == (0, 3)
    t = from_arrays([[1], [2]], [1.0], fmt, (np.int64(2), np.uint32(3)))
    assert t.dims == (2, 3) and all(type(d) is int for d in t.dims)


@pytest.mark.parametrize("fmt", [sw.coo(2), sw.dcsr()], ids=str)
def test_extents_above_two_to_the_32_are_rejected(fmt):
    # coordinates are stored as uint32: 2^32 + 5 would wrap to 5
    with pytest.raises(sw.TensorError, match=r"2\^32"):
        compress_arrays([[2**32 + 5], [0]], [1.0], fmt, (2**33, 1))
    t = compress_arrays([[2**32 - 1], [0]], [1.0], fmt, (2**32, 1))
    assert t.mode_coordinates()[0].tolist() == [2**32 - 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    src=st.sampled_from(["csr", "csc", "dcsr", "dcsc", "coo"]),
    dst=st.sampled_from(["csr", "csc", "dcsr", "dcsc", "coo", "dense"]),
)
def test_reformat_preserves_values(seed, rows, cols, src, dst):
    rng = np.random.default_rng(seed)
    arr = _random_dense(rng, (rows, cols))
    t = sw.from_dense(arr, sw.format_from_name(src, 2))
    u = sw.reformat(t, sw.format_from_name(dst, 2))
    assert u.dims == t.dims
    assert np.array_equal(u.to_dense(), arr)


def _shares_memory(t: sw.Tensor, inputs: list[np.ndarray]) -> bool:
    return any(np.shares_memory(a, b) for a in _storage(t) for b in inputs)


FORMATS2 = ["csr", "csc", "dcsr", "dcsc", "coo", "dense"]


def test_public_constructors_share_no_memory_with_their_inputs():
    # compress_arrays takes over the arrays it is handed; the public
    # constructors hand it their own copies, never the caller's arrays
    rng = np.random.default_rng(5)
    arr = _random_dense(rng, (30, 40))
    idx = np.nonzero(arr)
    coords = [c.astype(CRD_DTYPE) for c in idx]  # owned, contiguous, writable
    vals = arr[idx]
    for name in FORMATS2:
        fmt = sw.format_from_name(name, 2)
        for array in (arr, np.asfortranarray(arr)):
            assert not _shares_memory(sw.from_dense(array, fmt), [array]), name
        for sum_duplicates in (False, True):
            t = from_arrays(coords, vals, fmt, arr.shape, sum_duplicates=sum_duplicates)
            assert not _shares_memory(t, [*coords, vals]), name
        src = sw.from_dense(arr, fmt)
        built = from_arrays(src.mode_coordinates(), src.vals, fmt, arr.shape)
        assert not _shares_memory(built, _storage(src)), name
        for dst in FORMATS2:
            u = sw.reformat(src, sw.format_from_name(dst, 2))
            assert not _shares_memory(u, _storage(src)), (name, dst)
            assert np.array_equal(u.to_dense(), arr)


def test_compress_arrays_copies_what_it_cannot_take_over():
    # a broadcast value column is read-only and owns nothing; a coordinate
    # column of another dtype is narrowed
    crd = np.arange(5, dtype=np.int64)
    t = compress_arrays([crd], np.broadcast_to(2.0, (5,)), sw.sparse_vector(), (5,))
    assert t.vals.flags.writeable and t.vals.flags.owndata
    assert t.levels[0].crd.dtype == CRD_DTYPE
    kept_crd = np.arange(5, dtype=CRD_DTYPE)
    kept_vals = np.ones(5)
    t = compress_arrays([kept_crd], kept_vals, sw.sparse_vector(), (5,))
    assert t.levels[0].crd is kept_crd and t.vals is kept_vals


# -- segment assembly ---------------------------------------------------------------

SEGMENT_FORMATS = [(sw.csr(), (5, 6)), (sw.csc(), (5, 6)), (sw.dcsr(), (5, 6)),
                   (sw.dcsc(), (5, 6)), (sw.csf(3), (3, 4, 5)), (sw.coo(2), (5, 6)),
                   (sw.sparse_vector(), (9,))]


def _random_segments(rng: np.random.Generator, fmt: sw.Format, shape: tuple) -> tuple:
    """Sorted unique entries in level order, as segments over a random
    number of leading levels: segments tied on their prefix, segments
    without entries, explicit zeros and real values. Coordinates are int64."""
    extents = [shape[m] for m in fmt.mode_ordering]
    cells = math.prod(extents)
    n = int(rng.integers(0, min(cells, 30) + 1))
    levels = [c.astype(np.int64) for c in
              np.unravel_index(np.sort(rng.choice(cells, n, replace=False)), extents)]
    vals = rng.standard_normal(n)
    vals[rng.random(n) < 0.2] = 0.0
    k = int(rng.integers(0, fmt.order + 1))
    # a segment starts where the prefix changes, and anywhere else at random
    starts = [i for i in range(n)
              if i == 0 or rng.random() < 0.3 or any(c[i] != c[i - 1] for c in levels[:k])]
    bounds = [*starts, n]
    segments = [([int(c[a]) for c in levels[:k]], b - a) for a, b in zip(bounds, bounds[1:])]
    for _ in range(int(rng.integers(0, 4))):  # segments without entries, anywhere
        at = int(rng.integers(0, len(segments) + 1))
        segments.insert(at, ([int(rng.integers(0, e)) for e in extents[:k]], 0))
    prefix = [np.array([p[l] for p, _ in segments], dtype=np.int64) for l in range(k)]
    counts = np.array([count for _, count in segments], dtype=np.int64)
    return prefix, counts, levels[k:], vals


def _expanded(fmt: sw.Format, prefix, counts, tail) -> list[np.ndarray]:
    """The segments' coordinates once per entry, in mode order."""
    levels = [*(np.repeat(p, counts) for p in prefix), *tail]
    return [levels[fmt.mode_ordering.index(m)] for m in range(fmt.order)]


def _outcome(build):
    try:
        return build()
    except sw.TensorError as exc:
        return str(exc)


def _order_model(fmt: sw.Format, shape: tuple, levels: list[np.ndarray]) -> str | None:
    """Why entries given by their level-order coordinates cannot be
    compressed, or None: each entry's position in the level-order grid must
    lie inside it and exceed the one before."""
    extents = [shape[m] for m in fmt.mode_ordering]
    if any(len(c) and (c.min() < 0 or c.max() >= e) for c, e in zip(levels, extents)):
        return "coordinate out of bounds"
    steps = np.diff(np.ravel_multi_index(levels, extents)) if levels else np.zeros(0)
    if (steps == 0).any():
        return "duplicate coordinates"
    if (steps < 0).any():
        return "components are not sorted by the target access order"
    return None


@pytest.mark.parametrize("fmt, shape", SEGMENT_FORMATS, ids=lambda x: str(x))
def test_segment_assembly_matches_compress_arrays(fmt, shape, monkeypatch):
    # valid segments build the tensor compress_arrays builds from the
    # expanded coordinates; after a random coordinate changes to one from
    # -1 to the extent, or two segments swap, both build it or both raise
    # the same TensorError (out of bounds, unsorted or duplicate), the one
    # a model of the order finds. The order check goes a block of pairs at
    # a time; with blocks of three pairs, faults fall on block edges too
    rng = np.random.default_rng(11)
    raised = set()
    for trial in range(300):
        prefix, counts, tail, vals = _random_segments(rng, fmt, shape)
        extents = [shape[m] for m in fmt.mode_ordering]
        if trial % 2:
            pick = int(rng.integers(0, 3))
            if pick == 0 and tail and len(vals):
                l = int(rng.integers(0, len(tail)))
                tail[l][rng.integers(0, len(vals))] = rng.integers(-1, extents[len(prefix) + l] + 1)
            elif pick == 1 and prefix:
                l = int(rng.integers(0, len(prefix)))
                prefix[l][rng.integers(0, len(counts))] = rng.integers(-1, extents[l] + 1)
            elif len(counts) > 1:
                a = int(rng.integers(0, len(counts) - 1))
                spans = np.split(np.arange(len(vals)), np.cumsum(counts)[:-1])
                order = np.concatenate([*spans[:a], spans[a + 1], spans[a], *spans[a + 2:]])
                swap = [*range(a), a + 1, a, *range(a + 2, len(counts))]
                prefix = [p[swap] for p in prefix]
                counts = counts[swap]
                tail = [c[order] for c in tail]
                vals = vals[order]
        expanded = _expanded(fmt, prefix, counts, tail)
        fault = _order_model(fmt, shape, [expanded[m] for m in fmt.mode_ordering])
        for block in (tensor._ORDER_BLOCK, 3):
            monkeypatch.setattr(tensor, "_ORDER_BLOCK", block)
            want = _outcome(lambda: compress_arrays(expanded, vals.copy(), fmt, shape))
            got = _outcome(lambda: compress_segments(prefix, counts, tail, vals.copy(),
                                                     fmt, shape))
            if isinstance(want, str):
                raised.add(want.split(" at ")[0].split(" in ")[0])
                assert got == want and fault is not None and want.startswith(fault)
            else:
                assert fault is None
                assert sw.tensors_equal(got, want)
                assert [a.dtype for a in _storage(got)] == [a.dtype for a in _storage(want)]
            monkeypatch.undo()
    assert {"coordinate out of bounds", "components are not sorted by the target access order",
            "duplicate coordinates"} <= raised


@pytest.mark.parametrize("segments", [False, True], ids=["per-entry", "segments"])
def test_order_check_scratch_does_not_grow_with_the_entries(segments):
    # the order check compares a block of adjacent pairs at a time, and a
    # block of segment edges at a time: three bools per pair of a block,
    # and per edge of a block the last entry's index, the tail coordinates
    # on either side of it and six bools. Measured: 13.9 KB, and 134-144 KB
    # with segments of four entries, at 10^5 to 4*10^6 entries
    for n in (10**5, 10**6):
        rows = n // 4
        rng = np.random.default_rng(n)
        cols = np.sort(rng.random((rows, 64)).argsort(axis=1)[:, :4], axis=1)
        cols = cols.astype(CRD_DTYPE).reshape(-1)
        row = np.arange(rows, dtype=CRD_DTYPE)
        with peak_spans([(tensor, "_check_order")]) as probe:
            if segments:
                compress_segments([row], np.full(rows, 4), [cols], np.ones(n), sw.csr(),
                                  (rows, 64))
            else:
                compress_arrays([np.repeat(row, 4), cols], np.ones(n), sw.csr(), (rows, 64))
        (check,) = probe.spans.values()
        assert check.calls == 1
        assert check.peak - check.entry <= (40 if segments else 4) * tensor._ORDER_BLOCK


def test_segment_counts_must_split_the_values():
    fmt = sw.csr()
    for counts in ([1, 1], [-1, 4], [1.0, 2.0], [[1, 2]]):
        with pytest.raises(sw.TensorError, match="that sum to the 3 values"):
            compress_segments([[0, 1]], counts, [[0, 1, 2]], [1.0, 2.0, 3.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match=r"level 0 have shape \(3,\), segment counts"):
        compress_segments([[0, 1, 2]], [1, 2], [[0, 1, 2]], [1.0, 2.0, 3.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match=r"level 1 have shape \(2,\), values"):
        compress_segments([[0, 1]], [1, 2], [[0, 1]], [1.0, 2.0, 3.0], fmt, (3, 3))
    with pytest.raises(sw.TensorError, match="1 coordinate lists for an order-2"):
        compress_segments([], [3], [[0, 1, 2]], [1.0, 2.0, 3.0], fmt, (3, 3))


def test_compress_arrays_takes_over_a_view_of_a_whole_owned_buffer():
    # as the sums a compaction writes into its sort order's buffer, once
    # that buffer is cut to them in place; a view of part of a buffer is
    # copied
    crd = np.arange(5, dtype=CRD_DTYPE)
    order = np.arange(8, dtype=np.int64)
    order.resize(5, refcheck=False)
    sums = order.view(np.float64)
    assert compress_arrays([crd], sums, sw.sparse_vector(), (5,)).vals is sums
    part = np.zeros(6)[:5]
    t = compress_arrays([crd.copy()], part, sw.sparse_vector(), (5,))
    assert t.vals.flags.owndata and not np.shares_memory(t.vals, part)


def test_reformat_rejects_order_change():
    t = sw.from_dense(np.ones((2, 2)), sw.csr())
    with pytest.raises(sw.TensorError):
        sw.reformat(t, sw.dense(3))


# -- iteration and coordinates --------------------------------------------------------


def test_level_vs_mode_coordinates_csc():
    arr = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    t = sw.from_dense(arr, sw.csc())
    cols, rows = t.level_coordinates()
    assert cols.tolist() == [0, 0, 1]
    assert rows.tolist() == [0, 2, 1]
    by_mode = t.mode_coordinates()
    assert by_mode[0].tolist() == [0, 2, 1]
    assert by_mode[1].tolist() == [0, 0, 1]


def test_components_report_mode_order_coordinates():
    arr = np.array([[0.0, 4.0], [6.0, 0.0]])
    t = sw.from_dense(arr, sw.csc())
    comps = t.components()
    assert comps == [Component((1, 0), 6.0), Component((0, 1), 4.0)]
    assert all(type(x) is int for c in comps for x in c.crds)
    assert all(type(c.val) is float for c in comps)
    assert sw.from_dense(np.array(5.0)).components() == [Component((), 5.0)]


def test_level_extent_follows_mode_ordering():
    t = sw.from_dense(np.zeros((3, 5)), sw.csc())
    assert t.level_extent(0) == 5
    assert t.level_extent(1) == 3


# -- equality -------------------------------------------------------------------------


def test_tensors_equal_structural():
    rng = np.random.default_rng(8)
    arr = _random_dense(rng, (6, 6))
    a = sw.from_dense(arr, sw.csr())
    b = sw.from_dense(arr.copy(), sw.csr())
    assert sw.tensors_equal(a, b)
    assert not sw.tensors_equal(a, sw.from_dense(arr, sw.csc()))
    arr2 = arr.copy()
    arr2[0, 0] += 1.0
    assert not sw.tensors_equal(a, sw.from_dense(arr2, sw.csr()))
    arr2[0, 0] = np.nan
    assert sw.tensors_equal(sw.from_dense(arr2, sw.csr()), sw.from_dense(arr2, sw.csr()))


def test_explicit_zeros_are_stored_distinctly():
    t = from_arrays([[0], [0]], [0.0], sw.csr(), (1, 1))
    u = from_arrays([[], []], [], sw.csr(), (1, 1))
    assert t.nnz == 1 and u.nnz == 0
    assert not sw.tensors_equal(t, u)
