"""Insert-sort-merge runtime: policies, counters, rotation, batch inserts, the log."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spworks as sw
from spworks import ism
from spworks.ism import (
    AccArray,
    AllArray,
    Counters,
    IsmEngine,
    IsmError,
    Policy,
    ceil_log2,
    hash_default_l,
    row_major_strides,
)
from spworks.tensor import CRD_DTYPE

from conftest import KERNELS_BY_NAME, ReferenceEngine, TwoWayMerge, peak_above, prepare


# -- small helpers -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)],
)
def test_ceil_log2_goldens(n, expected):
    assert ceil_log2(n) == expected


@given(st.integers(2, 10**9))
def test_ceil_log2_is_the_smallest_sufficient_exponent(n):
    e = ceil_log2(n)
    assert 2**e >= n > 2 ** (e - 1)


@pytest.mark.parametrize(
    "nnz, expected",
    [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (1000, 1024), (1024, 1024),
     (1025, 2048)],
)
def test_hash_default_bucket_count(nnz, expected):
    assert hash_default_l(nnz) == expected


def test_policy_names_and_labels():
    assert Policy.from_name("bucket") is Policy.BUCKET
    assert Policy.from_name(" Hash ") is Policy.HASH
    assert Policy.COORD.label == "Coord"
    with pytest.raises(IsmError, match="bucket, hash, coord"):
        Policy.from_name("quick")


# -- counters ------------------------------------------------------------------------


def test_counter_sums_and_dict_shape():
    c = Counters(inserts=5, insert_comparisons=1, sort_comparisons=2,
                 merge_comparisons=4, insert_dedups=1, drain_dedups=2,
                 merge_dedups=4, peak_bytes=100)
    assert c.comparisons == 7
    assert c.dedups == 7
    assert c.as_dict() == {
        "inserts": 5, "drains": 0, "merges": 0,
        "comparisons": 7, "dedups": 7, "peak_bytes": 100,
    }


def test_counter_merge_sums_counts_and_maxes_peaks():
    a = Counters(inserts=3, drains=1, peak_bytes=50)
    b = Counters(inserts=4, merges=2, peak_bytes=80)
    a.merge(b)
    assert a.inserts == 7 and a.drains == 1 and a.merges == 2
    assert a.peak_bytes == 80


# -- accumulate array ----------------------------------------------------------------


def _acc(policy: Policy, capacity: int = 8, lead_stride: int = 4,
         hash_l: int | None = None) -> AccArray:
    return AccArray(capacity, policy, lead_stride, hash_l, Counters())


def _plan(acc: AccArray, keys: list[int], vals: list[float]) -> tuple:
    """Plan a batch after the contents and load the plan's last run, as
    insert_batch does; returns the plan."""
    kept, sums, cuts = acc.fill(np.array(keys, acc.key_dtype), np.array(vals))
    acc.load(kept[cuts[-1]:], sums[cuts[-1]:])
    return kept, sums, cuts


def test_coord_appends_blindly_and_sorts_at_drain():
    acc = _acc(Policy.COORD, capacity=4)
    kept, _, cuts = _plan(acc, [5, 3, 5, 1], [1.0, 2.0, 4.0, 8.0])
    assert kept.tolist() == [5, 3, 5, 1] and list(cuts) == [0]
    c = acc.counters
    assert c.insert_comparisons == 0 and c.insert_dedups == 0
    keys, vals = acc.drain()
    assert keys.tolist() == [1, 3, 5]
    assert vals.tolist() == [8.0, 2.0, 5.0]
    # one full sort of four entries plus the adjacent-dedup sweep
    assert c.sort_comparisons == 4 * 2 + 3
    assert c.drain_dedups == 1


def test_coord_ends_a_run_at_the_pair_past_capacity():
    acc = _acc(Policy.COORD, capacity=2)
    # duplicates occupy separate slots under coord
    kept, _, cuts = _plan(acc, [1, 1, 2], [1.0, 1.0, 1.0])
    assert kept.tolist() == [1, 1, 2] and list(cuts) == [0, 2]
    assert acc.keys.tolist() == [2]


def test_bucket_chains_by_lead_coordinate():
    acc = _acc(Policy.BUCKET, lead_stride=4)
    # 5 and 6 in bucket 1, 3 in bucket 0: the repeat of 5 dedups after
    # scanning one chain entry, and 6 scans past 5
    kept, sums, cuts = _plan(acc, [5, 3, 5, 6], [1.0, 1.0, 2.0, 1.0])
    c = acc.counters
    assert c.insert_dedups == 1
    assert c.insert_comparisons == 2
    assert kept.tolist() == [5, 3, 6] and sums.tolist() == [3.0, 1.0, 1.0]
    assert list(cuts) == [0] and acc.size == 3
    keys, vals = acc.drain()
    assert keys.tolist() == [3, 5, 6]
    assert vals.tolist() == [1.0, 3.0, 1.0]
    # only the two-entry chain pays a sort: 2 * ceil_log2(2)
    assert c.sort_comparisons == 2
    assert c.drain_dedups == 0


def test_bucket_ends_a_run_only_at_a_new_key_past_capacity():
    acc = _acc(Policy.BUCKET, capacity=2, lead_stride=4)
    # the repeat of 1 still adds into the full array; only 3 ends the run
    kept, sums, cuts = _plan(acc, [1, 2, 1, 3], [1.0, 1.0, 5.0, 1.0])
    assert kept.tolist() == [1, 2, 3] and sums.tolist() == [6.0, 1.0, 1.0]
    assert list(cuts) == [0, 2] and acc.keys.tolist() == [3]
    # one chain: 2 scans 1, the repeat of 1 finds it first, and 3 scans
    # the full run's whole chain, then the empty one
    c = acc.counters
    assert c.insert_comparisons == 1 + 1 + 2 and c.insert_dedups == 1


def test_hash_chains_by_key_modulus():
    acc = _acc(Policy.HASH, hash_l=2)
    # 5 and 3 in chain 1, 4 in chain 0: 3 scans 5 and misses, and the
    # repeat of 5 dedups on the first scanned entry
    kept, sums, _ = _plan(acc, [5, 3, 5, 4], [1.0, 1.0, 2.0, 1.0])
    c = acc.counters
    assert c.insert_comparisons == 2
    assert c.insert_dedups == 1
    assert kept.tolist() == [5, 3, 4] and sums.tolist() == [3.0, 1.0, 1.0]
    keys, vals = acc.drain()
    assert keys.tolist() == [3, 4, 5]
    assert vals.tolist() == [1.0, 1.0, 3.0]
    # hash pays one full comparison sort over all three live entries
    assert c.sort_comparisons == 3 * ceil_log2(3)
    assert c.drain_dedups == 0


def test_hash_policy_requires_bucket_count():
    with pytest.raises(IsmError, match="None is not an integer >= 1"):
        IsmEngine((8,), Policy.HASH, 4)


def test_capacity_must_be_positive():
    with pytest.raises(IsmError, match="at least 1"):
        _acc(Policy.COORD, capacity=0)


@pytest.mark.parametrize("capacity", [2.5, 4.0, "4"])
def test_capacity_must_be_an_integer(capacity):
    with pytest.raises(IsmError, match="not an integer"):
        _acc(Policy.COORD, capacity=capacity)


def test_drain_keeps_contents_until_clear():
    acc = _acc(Policy.COORD, capacity=4)
    _plan(acc, [2], [1.0])
    keys, _ = acc.drain()
    assert keys.tolist() == [2]
    assert acc.size == 1
    acc.clear()
    assert acc.size == 0


def test_empty_drain_is_free():
    acc = _acc(Policy.BUCKET)
    keys, vals = acc.drain()
    assert keys.size == 0 and vals.size == 0
    assert acc.counters.comparisons == 0


# -- all array -----------------------------------------------------------------------


def test_all_array_merges_sorted_unique_batches():
    c = Counters()
    alla = AllArray(c)
    alla.merge(np.array([2, 5], np.uint64), np.array([1.0, 2.0]))
    alla.merge(np.array([1, 5, 9], np.uint64), np.array([4.0, 8.0, 16.0]))
    assert alla.keys.tolist() == [1, 2, 5, 9]
    assert alla.vals.tolist() == [4.0, 1.0, 10.0, 16.0]
    assert c.merges == 2
    assert c.merge_comparisons == (2 + 0) + (3 + 2)
    assert c.merge_dedups == 1


def test_all_array_charges_its_merges_when_read():
    c = Counters()
    alla = AllArray(c)
    alla.merge(np.array([2, 5], np.uint64), np.array([1.0, 2.0]))
    alla.merge(np.array([5], np.uint64), np.array([4.0]))
    assert c.merges == 2 and c.merge_comparisons == 0
    assert alla.size == 2
    assert c.merge_comparisons == (2 + 0) + (1 + 2) and c.merge_dedups == 1
    # a one-run log is the all array as it is
    keys, vals = np.array([3], np.uint64), np.array([1.5])
    single = AllArray(Counters())
    single.merge(keys, vals)
    assert single.keys is keys and single.vals is vals


def _seeded_runs(seed: int, count: int, universe: int, size: int = 2000):
    """Sorted-unique uint32 runs with real values, one at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        keys = np.unique(rng.integers(0, universe, size).astype(np.uint32))
        yield keys, rng.standard_normal(len(keys))


def test_a_compaction_leaves_what_a_caller_holds_as_it_was():
    # runs the caller merged and still holds, and keys and values it read
    # before later merges, keep their contents through compactions of many
    # key ranges, run at merge() and when the result is read
    alla, reference = AllArray(Counters()), TwoWayMerge(Counters())
    held = []
    for i, (keys, vals) in enumerate(_seeded_runs(3, 3 * ism._LOG_RUNS, 10**6)):
        reference.merge(keys, vals.copy())
        alla.merge(keys, vals)
        if i % 10 == 0:
            held.append((keys, vals))
        if i % 50 == 49:
            held.append((alla.keys, alla.vals))
    del keys, vals
    want = [(k.copy(), v.copy()) for k, v in held]
    assert alla.size > 8 * ism._RANGE
    assert np.array_equal(alla.keys, reference.keys)
    assert alla.vals.tobytes() == reference.vals.tobytes()
    assert alla.counters == reference.counters
    for (keys, vals), (want_keys, want_vals) in zip(held, want):
        assert np.array_equal(keys, want_keys) and vals.tobytes() == want_vals.tobytes()


@pytest.mark.parametrize("universe", [10**7, 10**5])
def test_a_compaction_frees_the_log_as_it_merges(universe):
    # with nothing else holding the runs, each key range's arrivals leave
    # the log as the merged range joins the output, so the compaction adds
    # about one range's scratch to the log (1.9 bytes per logged entry
    # measured with distinct keys, 1.4 with repeats), where copying the
    # log took about 21
    alla, reference = AllArray(Counters()), TwoWayMerge(Counters())
    logged = 0
    # the log is traced from its first run, so that freeing it counts
    with peak_above():
        for keys, vals in _seeded_runs(universe, ism._LOG_RUNS - 1, universe, 4000):
            reference.merge(keys, vals.copy())
            alla.merge(keys, vals)
            logged += len(keys)
        del keys, vals
        with peak_above() as span:
            keys, vals = alla.keys, alla.vals
    assert span.peak <= 2 * logged
    assert np.array_equal(keys, reference.keys)
    assert vals.tobytes() == reference.vals.tobytes()
    assert alla.counters == reference.counters


# -- engine --------------------------------------------------------------------------


def _key(strides: tuple[int, ...], coords: tuple[int, ...]) -> int:
    return sum(c * s for c, s in zip(coords, strides))


def test_linearize_is_row_major():
    assert row_major_strides((4, 5)) == (5, 1)
    assert row_major_strides((3, 4, 5)) == (20, 5, 1)
    eng = IsmEngine((4, 5), Policy.COORD, 16)
    assert eng.strides == row_major_strides((4, 5))
    eng.insert_key(_key(eng.strides, (2, 3)), 1.0)
    coords, _ = eng.result()
    assert [c.tolist() for c in coords] == [[2], [3]]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_key_order_equals_lexicographic_coordinate_order(data):
    extents = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    strides = row_major_strides(extents)
    coord = st.tuples(*[st.integers(0, e - 1) for e in extents])
    a, b = data.draw(coord), data.draw(coord)
    assert (a < b) == (_key(strides, a) < _key(strides, b))


def test_rotation_protocol_counts_one_insert_per_pair():
    eng = IsmEngine((16,), Policy.COORD, 2)
    for k in (9, 4, 1):
        eng.insert_key(k, 1.0)
    coords, vals = eng.result()
    assert coords[0].tolist() == [1, 4, 9]
    assert vals.tolist() == [1.0, 1.0, 1.0]
    c = eng.counters
    assert c.inserts == 3
    assert c.drains == 2  # one on overflow, one at finalization
    assert c.merges == 2
    assert c.sort_comparisons == (2 * 1 + 1) + 0
    assert c.merge_comparisons == (2 + 0) + (1 + 2)


def test_duplicates_across_drains_merge_once():
    eng = IsmEngine((8,), Policy.COORD, 2)
    for k, v in [(3, 1.0), (5, 2.0), (3, 4.0)]:
        eng.insert_key(k, v)
    coords, vals = eng.result()
    assert coords[0].tolist() == [3, 5]
    assert vals.tolist() == [5.0, 2.0]
    assert eng.counters.merge_dedups == 1


def test_result_decodes_multi_dimensional_coordinates():
    eng = IsmEngine((3, 4), Policy.BUCKET, 8)
    eng.insert_key(_key(eng.strides, (2, 1)), 7.0)
    eng.insert_key(_key(eng.strides, (0, 3)), 1.0)
    coords, vals = eng.result()
    assert coords[0].tolist() == [0, 2]
    assert coords[1].tolist() == [3, 1]
    assert vals.tolist() == [1.0, 7.0]


def test_result_decodes_into_the_coordinate_dtype():
    extents = (2**32, 3, 2**20)  # every slot, middle included, at its widest
    eng = IsmEngine(extents, Policy.COORD, 4)
    want = [(0, 1, 5), (2**32 - 1, 2, 2**20 - 1)]
    for crds in want:
        eng.insert_key(_key(eng.strides, crds), 1.0)
    coords, vals = eng.result()
    assert all(c.dtype == CRD_DTYPE for c in coords)
    assert list(zip(*(c.tolist() for c in coords))) == want
    # the all array hands its values over and is emptied; the next run
    # fills it again, and leaves the arrays handed over as they are
    assert eng.all.size == 0
    eng.insert_key(_key(eng.strides, want[0]), 2.0)
    assert eng.result()[1].tolist() == [2.0]
    assert vals.tolist() == [1.0, 1.0]


def test_engine_validates_configuration():
    with pytest.raises(IsmError, match="at least one dimension"):
        IsmEngine((), Policy.COORD, 4)
    with pytest.raises(IsmError, match=r"limit of 2\^32"):
        IsmEngine((2, 2**32 + 1), Policy.COORD, 4)
    with pytest.raises(IsmError, match="64-bit"):
        IsmEngine((2**32, 2**32), Policy.COORD, 4)


@pytest.mark.parametrize("extents", [(-2, -3), (4, -1), (2.5,), (3, 2.0), ("4",), (None,),
                                     (2**32 + 1,)], ids=str)
def test_engine_refuses_extents_that_are_not_integers_in_range(extents):
    # a negative pair once gave a positive key count, and 2.5 was cut to 2
    with pytest.raises(IsmError, match="not integers from 0"):
        IsmEngine(extents, Policy.COORD, 4)


def test_engine_takes_extents_at_the_ends_of_the_range():
    assert IsmEngine((0, 5), Policy.COORD, 4).key_count == 0
    eng = IsmEngine((np.int64(2**32), True), Policy.BUCKET, 4)
    assert eng.extents == (2**32, 1) and eng.key_count == 2**32
    with pytest.raises(IsmError, match="outside"):
        IsmEngine((0,), Policy.COORD, 4).insert_key(0, 1.0)


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("hash_l", [2.5, 0, -4, "8", 8.0], ids=repr)
def test_engine_refuses_a_bucket_count_that_is_not_a_positive_integer(policy, hash_l):
    # 2.5 once constructed and failed at the first insert_batch
    with pytest.raises(IsmError, match="not an integer >= 1"):
        IsmEngine((100,), policy, 4, hash_l=hash_l)


@pytest.mark.parametrize("vals", [
    np.array([1.0, 2j]), [1.0, None], ["x", "y"], np.array([1, 2], object),
    np.array(["1", "2"]),
], ids=["complex", "none", "str", "object", "numeric-str"])
def test_insert_batch_refuses_values_that_are_not_real(vals):
    eng = IsmEngine((8,), Policy.HASH, 4, hash_l=4)
    with pytest.raises(IsmError, match="not real numbers"):
        eng.insert_batch(np.array([1, 2]), vals)
    assert eng.counters.inserts == 0 and eng.acc.size == 0


@pytest.mark.parametrize("val", [1 + 2j, np.complex64(1), None, "x", [1.0], np.ones(1)],
                         ids=repr)
def test_insert_key_refuses_a_value_that_is_not_a_real_number(val):
    eng = IsmEngine((8,), Policy.COORD, 4)
    eng.insert_key(1, 1.0)
    with pytest.raises(IsmError, match="not real numbers|not one number"):
        eng.insert_key(2, val)
    assert eng.counters.inserts == 1
    coords, vals = eng.result()
    assert coords[0].tolist() == [1] and vals.dtype == np.float64


@pytest.mark.parametrize("policy", list(Policy))
def test_both_insert_paths_take_real_values_of_any_real_dtype_as_float64(policy):
    # bool, integer and float values, as scalars and as arrays
    given = [True, np.int8(-3), 2**40, np.uint64(7), np.float32(0.5), 2.25]
    scalar = IsmEngine((8,), policy, 2, hash_l=4)
    for key, val in enumerate(given):
        scalar.insert_key(key, val)
    batched = IsmEngine((8,), policy, 2, hash_l=4)
    for key, val in enumerate(given):
        batched.insert_batch(np.array([key]), np.array([val]))
    want = [float(v) for v in given]
    for eng in (scalar, batched):
        coords, vals = eng.result()
        assert vals.dtype == np.float64 and vals.tolist() == want
        assert coords[0].tolist() == list(range(len(given)))


@pytest.mark.parametrize("key", [8, 100, -1])
def test_insert_key_rejects_a_key_outside_the_workspace(key):
    eng = IsmEngine((8,), Policy.COORD, 4)
    with pytest.raises(IsmError, match="outside"):
        eng.insert_key(key, 1.0)
    assert eng.counters.inserts == 0


# a negative key would wrap to a large unsigned one
@pytest.mark.parametrize("keys", [np.array([3, 9, 1]), np.array([3, 7, -1]), [3, 7, -1]],
                         ids=["past-the-end", "negative", "negative-list"])
def test_insert_batch_rejects_keys_outside_the_workspace(keys):
    eng = IsmEngine((8,), Policy.COORD, 4)
    with pytest.raises(IsmError, match="outside"):
        eng.insert_batch(keys, np.ones(3))
    assert eng.counters.inserts == 0 and eng.acc.size == 0


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("keys, vals", [
    (np.array([1, 2]), np.array([1.0, 2.0, 5.0])),
    (np.array([1, 2, 3]), np.array([1.0, 2.0])),
    (np.array([[1, 2]]), np.array([[1.0, 2.0]])),
    (np.array(1), np.array(1.0)),
    (np.array([], np.int64), np.array([1.0])),
], ids=["more-values", "fewer-values", "2-d", "0-d", "empty-keys"])
def test_insert_batch_rejects_mismatched_arrays(policy, keys, vals):
    eng = IsmEngine((8,), policy, 4, hash_l=4)
    with pytest.raises(IsmError, match="1-D arrays of one length"):
        eng.insert_batch(keys, vals)
    assert eng.counters.inserts == 0 and eng.acc.size == 0


def test_insert_batch_accepts_an_empty_batch():
    eng = IsmEngine((8,), Policy.BUCKET, 4)
    eng.insert_batch([], [])
    eng.insert_batch(np.array([], np.uint64), np.array([]))
    assert eng.counters.inserts == 0 and eng.result()[1].size == 0


@pytest.mark.parametrize("keys", [np.array([2.7, 7.9]), np.array([2.0, np.nan]),
                                  np.array([True, False]), [2.5, 3.0]],
                         ids=["fractional", "nan", "bool", "float-list"])
def test_insert_batch_rejects_non_integer_keys(keys):
    eng = IsmEngine((8,), Policy.COORD, 4)
    with pytest.raises(IsmError, match="not integers"):
        eng.insert_batch(keys, np.ones(2))
    assert eng.counters.inserts == 0 and eng.acc.size == 0


@pytest.mark.parametrize("key", [2.5, 2.0, float("nan"), "2", None])
def test_insert_key_rejects_a_non_integer_key(key):
    eng = IsmEngine((8,), Policy.BUCKET, 4)
    with pytest.raises(IsmError, match="not an integer"):
        eng.insert_key(key, 1.0)
    assert eng.counters.inserts == 0


@pytest.mark.parametrize("policy", list(Policy))
def test_inserts_after_finalize_reach_the_result(policy):
    eng = IsmEngine((8,), policy, 4, hash_l=4)
    eng.insert_key(1, 1.0)
    eng.finalize()
    eng.insert_key(2, 5.0)
    eng.insert_batch(np.array([1, 3]), np.array([2.0, 4.0]))
    eng.finalize()
    eng.insert_key(3, 0.5)
    coords, vals = eng.result()
    assert coords[0].tolist() == [1, 2, 3] and vals.tolist() == [3.0, 5.0, 4.5]
    assert eng.counters.inserts == 5


@pytest.mark.parametrize("policy", list(Policy))
def test_each_result_ends_a_run_of_its_own(policy):
    eng = IsmEngine((4, 8), policy, 2, hash_l=4)
    eng.insert_batch(np.array([3, 9, 3, 30]), np.array([1.0, 2.0, 3.0, 4.0]))
    (rows, cols), vals = eng.result()
    assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([0, 1, 3], [3, 1, 6],
                                                             [4.0, 2.0, 4.0])
    # a result with nothing inserted since is an empty run
    (rows, cols), vals = eng.result()
    assert rows.size == cols.size == vals.size == 0
    assert rows.dtype == cols.dtype == CRD_DTYPE and vals.dtype == np.float64
    eng.insert_key(9, 0.25)
    (rows, cols), vals = eng.result()
    assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([1], [1], [0.25])
    assert eng.acc.size == 0 and eng.all.size == 0


@pytest.mark.parametrize("extents", [(5000,), (70, 300), (7, 30, 40)], ids=str)
@pytest.mark.parametrize("policy", list(Policy))
def test_results_survive_later_runs(policy, extents):
    eng = IsmEngine(extents, policy, 64, hash_l=16)
    assert eng.key_dtype == CRD_DTYPE
    results = []
    for seed in range(3):
        keys, vals = _real_stream(seed, 3000, eng.key_count)
        eng.insert_batch(keys, vals)
        coords, out = eng.result()
        assert all(np.array_equal(c, w) for c, w in
                   zip(coords, np.unravel_index(np.unique(keys), extents)))
        results.append((coords, out, [c.copy() for c in coords], out.copy()))
    eng.result()
    for coords, out, want_coords, want_vals in results:
        assert all(np.array_equal(c, w) for c, w in zip(coords, want_coords))
        assert out.tobytes() == want_vals.tobytes()


def test_keys_read_before_result_keep_their_contents():
    eng = IsmEngine((70, 300), Policy.HASH, 64, hash_l=16)
    keys, vals = _real_stream(1, 3000, eng.key_count)
    eng.insert_batch(keys, vals)
    eng.finalize()
    held = eng.all.keys
    want = held.copy()
    coords, _ = eng.result()
    assert np.array_equal(held, want)
    assert np.array_equal(coords[1], want % 300)


def test_result_decodes_the_last_slot_into_the_keys():
    # 32-bit keys become the last slot's coordinates, so result() allocates
    # only the first slot's column
    eng = IsmEngine((70, 300), Policy.COORD, 4096)
    keys, vals = _real_stream(2, 3000, eng.key_count)
    with peak_above():
        eng.insert_batch(keys, vals)
        eng.finalize()
        n = eng.all.size
        with peak_above() as span:
            coords, _ = eng.result()
    assert span.peak <= 4 * n + 2048
    assert all(np.array_equal(c, w) for c, w in
               zip(coords, np.unravel_index(np.unique(keys), (70, 300))))


def test_peak_bytes_counts_both_arrays():
    eng = IsmEngine((64,), Policy.COORD, 4)
    for k in range(8):
        eng.insert_key(k, 1.0)
    eng.finalize()
    # modelled at 16 bytes per element, whatever the key dtype
    assert eng.counters.peak_bytes >= 16 * (eng.all.size + 4)


def _stream(seed: int, n: int, universe: int) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, n)
    vals = rng.integers(1, 10, n).astype(float)
    return list(zip(keys.tolist(), vals.tolist()))


# the counters that sum over a run; peak_bytes takes a maximum instead
_RUN_COUNTS = ("inserts", "drains", "merges", "insert_comparisons", "sort_comparisons",
               "merge_comparisons", "insert_dedups", "drain_dedups", "merge_dedups")


def _extents(extents: tuple[int, ...], wide_keys: bool) -> tuple[int, ...]:
    """The extents, or, for wide keys, the extents with the lead one raised
    until the key space no longer fits 32-bit keys. The strides stay, so a
    stream below the first key count has the same keys and chains in both."""
    if not wide_keys:
        return extents
    rest = math.prod(extents[1:])
    return (-(-2**32 // rest), *extents[1:])


def _engine(policy: Policy, capacity: int, wide_keys: bool = False) -> IsmEngine:
    eng = IsmEngine(_extents((128,), wide_keys), policy, capacity,
                    hash_l=8 if policy is Policy.HASH else None)
    assert eng.key_dtype == (np.uint64 if wide_keys else np.uint32)
    return eng


def _feed(eng: IsmEngine, stream) -> tuple[list, list]:
    """Insert the stream and finalize; returns the keys and the values."""
    for k, v in stream:
        eng.insert_key(k, v)
    coords, vals = eng.result()
    return coords[0].tolist(), vals.tolist()


def _run(policy: Policy, capacity: int, stream) -> tuple[IsmEngine, list, list]:
    eng = _engine(policy, capacity)
    keys, vals = _feed(eng, stream)
    return eng, keys, vals


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 120),
       capacity=st.sampled_from([1, 2, 7, 64]))
def test_every_policy_agrees_with_a_dict_accumulator(seed, n, capacity):
    stream = _stream(seed, n, universe=40)
    expected: dict[int, float] = {}
    for k, v in stream:
        expected[k] = expected.get(k, 0.0) + v
    want_keys = sorted(expected)
    want_vals = [expected[k] for k in want_keys]
    for policy in Policy:
        _, keys, vals = _run(policy, capacity, stream)
        assert keys == want_keys
        assert vals == want_vals


@pytest.mark.parametrize("policy", list(Policy))
def test_pipelined_mode_is_bit_identical(policy):
    # the retired pipelined mode's option is accepted and ignored: asking for
    # it gives the sequential run's tensors and every counter
    for name in ("spgemm-outer", "spgemm-rowwise-hoist"):
        kernel = KERNELS_BY_NAME[name]
        _, plan, _ = prepare(kernel, policy, 16)
        inst = kernel.instance(1)
        plain = sw.execute(plan, inst.tensors)
        piped = sw.execute(plan, inst.tensors, sw.ExecutionOptions(pipeline=True))
        assert plain.counters.drains > 1, name
        assert sw.tensors_equal(plain.tensor, piped.tensor), name
        assert piped.counters == plain.counters, name


@pytest.mark.parametrize("wide_keys", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
def test_an_engine_after_result_matches_a_fresh_one(policy, wide_keys):
    # the first run's all array holds more keys than the second run's
    first = _stream(seed=3, n=200, universe=64)
    second = _stream(seed=4, n=100, universe=16)
    reused = _engine(policy, 2, wide_keys)
    _feed(reused, first)
    before = copy.copy(reused.counters)
    assert reused.acc.size == 0 and reused.all.size == 0
    got = _feed(reused, second)
    fresh = _engine(policy, 2, wide_keys)
    want = _feed(fresh, second)
    assert got == want
    for name in _RUN_COUNTS:
        delta = getattr(reused.counters, name) - getattr(before, name)
        assert delta == getattr(fresh.counters, name), name


# -- batch inserts -------------------------------------------------------------------


def _real_stream(seed: int, n: int, universe: int) -> tuple[np.ndarray, np.ndarray]:
    """Repeating keys with real values, a few of them -0.0, so that any
    change in summation order or in the first stored value shows."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, n).astype(np.uint64)
    vals = rng.standard_normal(n)
    vals[rng.random(n) < 0.05] = -0.0
    return keys, vals


@pytest.mark.parametrize("signed_keys", [False, True])
@pytest.mark.parametrize("wide_keys", [False, True])
@pytest.mark.parametrize("sort_once", [False, True])
@pytest.mark.parametrize("capacity", [1, 3, 64])
@pytest.mark.parametrize("policy", list(Policy))
def test_insert_batch_matches_insert_key(policy, capacity, sort_once, wide_keys,
                                         signed_keys):
    n = 300
    if sort_once:
        # at or above a run's insert count: each run drains once, at the end
        capacity *= n
    # signed: int64 key arrays, and numpy integer scalars for one-pair inserts
    scalars = list if signed_keys else np.ndarray.tolist

    def engine(cls=IsmEngine) -> IsmEngine:
        # two dimensions, so that bucket chains hold several keys
        eng = cls(_extents((8, 16), wide_keys), policy, capacity, hash_l=8)
        assert eng.key_dtype == (np.uint64 if wide_keys else np.uint32)
        return eng

    for seed in range(3):
        streams = [_real_stream(seed * 2 + run, n, universe=8 * 16 if run else 40)
                   for run in range(2)]
        if signed_keys:
            streams = [(keys.astype(np.int64), vals) for keys, vals in streams]
        scalar = engine(ReferenceEngine)
        want = []
        for keys, vals in streams:
            for k, v in zip(scalars(keys), vals.tolist()):
                scalar.insert_key(k, v)
            want.append(scalar.result())
        rng = np.random.default_rng(seed)
        batched = engine()
        got = []
        for keys, vals in streams:
            cuts = np.sort(rng.choice(np.arange(1, len(keys)), 12, replace=False))
            for part, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(keys)])):
                if part % 4 == 3:  # every fourth piece goes in one pair at a time
                    for k, v in zip(scalars(keys[lo:hi]), vals[lo:hi].tolist()):
                        batched.insert_key(k, v)
                else:
                    batched.insert_batch(keys[lo:hi], vals[lo:hi])
            got.append(batched.result())
        assert batched.counters == scalar.counters, seed
        for (want_coords, want_vals), (got_coords, got_vals) in zip(want, got):
            assert all(np.array_equal(w, g) for w, g in zip(want_coords, got_coords))
            assert want_vals.tobytes() == got_vals.tobytes()


def _insert_batch_scratch(policy: Policy, capacity: int, n: int, universe: int) -> int:
    """Bytes insert_batch held at its peak beyond what it left behind: the
    accumulate array's contents and the log."""
    keys, vals = _real_stream(1, n, universe)
    eng = IsmEngine((universe,), policy, capacity, hash_l=64)
    with peak_above() as span:
        eng.insert_batch(keys, vals)
    return span.peak - span.left


@pytest.mark.parametrize("capacity, universe", [(1, 64), (4096, 10**7), (3 * ism._BLOCK, 10**7)])
@pytest.mark.parametrize("policy", list(Policy))
def test_insert_batch_scratch_is_one_block(policy, capacity, universe):
    # a batch is planned max(capacity, _BLOCK) pairs at a time, after the
    # contents, and each block's plan is released before the next one is
    # made, so from two blocks on, four times the batch holds about the
    # same scratch; at capacity 1 each pair of a block may end a run of its
    # own, which is sliced from the plan only as it drains (45.8 B per pair
    # of a block measured there, 37.8 at the larger capacities)
    block = max(capacity, ism._BLOCK)
    short, long = (_insert_batch_scratch(policy, capacity, k * block, universe)
                   for k in (2, 8))
    assert long <= 1.15 * short
    assert long <= 50 * block


def test_insert_batch_keeps_the_sign_of_a_lone_negative_zero():
    for policy in Policy:
        eng = IsmEngine((4,), policy, 4, hash_l=2)
        eng.insert_batch(np.array([1, 2, 2], np.uint64), np.array([-0.0, -0.0, 1.0]))
        _, vals = eng.result()
        assert np.signbit(vals).tolist() == [True, False], policy


@pytest.mark.parametrize("sort_once", [False, True])
@pytest.mark.parametrize("capacity", [1, 64])
@pytest.mark.parametrize("policy", list(Policy))
def test_insert_batch_spanning_several_blocks(policy, capacity, sort_once):
    # one batch longer than the slice insert_batch plans at once; at a
    # sort-once capacity the slice covers the whole batch instead
    keys, vals = _real_stream(5, 10_000, universe=8 * 16)
    if sort_once:
        capacity *= len(keys)
    scalar, batched = (cls((8, 16), policy, capacity, hash_l=8)
                       for cls in (ReferenceEngine, IsmEngine))
    for k, v in zip(keys.tolist(), vals.tolist()):
        scalar.insert_key(k, v)
    batched.insert_batch(keys, vals)
    (want_coords, want_vals), (got_coords, got_vals) = scalar.result(), batched.result()
    assert batched.counters == scalar.counters
    assert all(np.array_equal(w, g) for w, g in zip(want_coords, got_coords))
    assert want_vals.tobytes() == got_vals.tobytes()


def _lexsort_fill(acc: AccArray, keys: np.ndarray, vals: np.ndarray) -> tuple:
    """AccArray.fill as it was planned with a stable argsort of the keys and
    a lexsort of (run, chain), each index array intp: the model a plan must
    equal, kept keys, sums, cuts and counters, byte for byte."""
    n = acc.size
    both = np.concatenate((acc.keys, keys))
    both_vals = np.concatenate((acc.vals, vals))
    if acc.policy is Policy.COORD:
        return both, both_vals, range(0, max(len(both), 1), acc.capacity)
    total = len(both)
    order = np.argsort(both, kind="stable")
    ordered = both[order]
    same = ordered[1:] == ordered[:-1]
    prev = np.full(total, -1)
    prev[order[1:][same]] = order[:-1][same]
    starts = [0]
    while total > acc.capacity:
        # the new key past the capacity, counting those new since the start
        s = starts[-1]
        fresh = np.flatnonzero(prev[s:] < s)
        if len(fresh) <= acc.capacity:
            break
        starts.append(s + int(fresh[acc.capacity]))
    new = prev < np.repeat(starts, np.diff([*starts, total]))
    fresh = np.flatnonzero(new)
    repeat = ~new[order]
    latest = np.arange(total)
    latest[repeat] = 0
    np.maximum.accumulate(latest, out=latest)
    into = np.searchsorted(fresh, order[latest[repeat]])
    repeats = both_vals[order[repeat]]
    stops = np.asarray(starts[1:], np.int64)
    runs_of = np.concatenate((np.searchsorted(stops, fresh, "right"), np.arange(len(stops))))
    chains = acc._bucket(both[np.concatenate((fresh, stops))])
    by_chain = np.lexsort((chains, runs_of))
    lead = np.ones(len(by_chain), bool)
    chains, runs_of = chains[by_chain], runs_of[by_chain]
    lead[1:] = (chains[1:] != chains[:-1]) | (runs_of[1:] != runs_of[:-1])
    rank = np.arange(len(by_chain))
    start = np.where(lead, rank, 0)
    np.maximum.accumulate(start, out=start)
    rank[by_chain] = rank - start
    c = acc.counters
    c.insert_comparisons += int(rank[n:].sum()) + int(rank[into].sum()) + len(into)
    c.insert_dedups += len(into)
    sums = both_vals[fresh]
    np.add.at(sums, into, repeats)
    return both[fresh], sums, np.searchsorted(fresh, starts)


@st.composite
def _plans(draw):
    """An accumulate array with contents and a batch to plan after them:
    every policy, capacities 1, 3, 64 and 4096, 32- and 64-bit keys (the
    widest past what packs beside an arrival), repeats from heavy to none,
    and values with -0.0 among them."""
    policy = draw(st.sampled_from(list(Policy)))
    capacity = draw(st.sampled_from([1, 3, 64, 4096]))
    dtype = draw(st.sampled_from([np.uint32, np.uint64]))
    top = draw(st.sampled_from([2, 64, 5000, 2**20, 2**32 - 1]
                               + ([2**40, 2**64 - 1] if dtype is np.uint64 else [])))
    # 64-bit keys that differ in their top bits only, which a key shifted
    # past its arrival's bits would lose
    spread = 60 if dtype is np.uint64 and top <= 15 and draw(st.booleans()) else 0
    lead_stride = draw(st.sampled_from([1, 3, 1000, 2**31]))
    hash_l = draw(st.sampled_from([1, 7, 64, 2**20]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # the contents: distinct keys that fit, in arrival order
    n = draw(st.integers(0, min(capacity, top + 1)))
    contents = rng.choice(top + 1, n, replace=False) if top < 2**62 else np.unique(
        rng.integers(0, top, n, dtype=np.uint64, endpoint=True))
    m = draw(st.sampled_from([1, 2, 7, 100, 3000, 9000]))
    keys = rng.integers(0, top, m, dtype=np.uint64, endpoint=True)
    if n and draw(st.booleans()):
        # the batch repeats keys of the contents too
        again = rng.random(m) < 0.5
        keys[again] = rng.choice(contents, int(again.sum()))
    vals = [rng.standard_normal(k) for k in (len(contents), m)]
    for v in vals:
        v[rng.random(len(v)) < 0.1] = -0.0
        v[rng.random(len(v)) < 0.05] = 0.0
    acc = AccArray(capacity, policy, lead_stride, hash_l, Counters(), np.dtype(dtype))
    acc.load(contents.astype(dtype) << dtype(spread), vals[0])
    return acc, keys.astype(dtype) << dtype(spread), vals[1]


@settings(max_examples=400, deadline=None)
@given(_plans())
def test_a_plan_equals_the_lexsort_model(plan):
    acc, keys, vals = plan
    model = copy.deepcopy(acc)
    want_keys, want_sums, want_cuts = _lexsort_fill(model, keys, vals)
    got_keys, got_sums, got_cuts = acc.fill(keys, vals)
    assert got_keys.dtype == want_keys.dtype and got_keys.tobytes() == want_keys.tobytes()
    assert got_sums.tobytes() == want_sums.tobytes()
    assert list(got_cuts) == list(want_cuts)
    assert acc.counters == model.counters


@pytest.mark.parametrize("capacity", [2 * ism._PASS, 4 * ism._PASS])
def test_a_chain_across_passes_keeps_its_ranks(capacity):
    # every key of the first pass over the sorted chains leads its chain,
    # and the next pass opens by continuing the last one's
    p = ism._PASS
    keys = np.concatenate((2 * np.arange(p), [2 * p - 1], 2 * np.arange(p + 1, 2 * p),
                           [2 * p - 1, 0])).astype(np.uint32)
    vals = np.arange(len(keys), dtype=np.float64)
    accs = [AccArray(capacity, Policy.BUCKET, 2, None, Counters(), np.dtype(np.uint32))
            for _ in range(2)]
    got, want = accs[0].fill(keys, vals), _lexsort_fill(accs[1], keys, vals)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert list(got[2]) == list(want[2])
    assert accs[0].counters == accs[1].counters


@pytest.mark.parametrize("policy", [Policy.BUCKET, Policy.HASH])
def test_a_plan_past_2_16_new_keys_matches_the_model(policy):
    # one plan of 100 000 pairs, most of them new keys, over 2^16 of them:
    # places, ranks and arrivals that a 16-bit field would wrap
    keys, vals = _real_stream(7, 100_000, universe=4 * 50_000)
    accs = [AccArray(200_000, policy, 50_000, 64, Counters(), np.dtype(np.uint32))
            for _ in range(2)]
    got = accs[0].fill(keys.astype(np.uint32), vals)
    want = _lexsort_fill(accs[1], keys.astype(np.uint32), vals)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert list(got[2]) == list(want[2]) == [0]
    assert accs[0].counters == accs[1].counters
    assert accs[0].counters.insert_comparisons > 0 and len(got[0]) > 2**16


# -- key width ----------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [1, 7, 4096])
@pytest.mark.parametrize("policy", list(Policy))
def test_narrow_and_wide_keys_agree(policy, capacity):
    # both key spaces have the same strides, so the same stream has the same
    # keys and chains in both; only the first fits 32-bit keys
    narrow, wide = (IsmEngine(extents, policy, capacity, hash_l=64)
                    for extents in [(65535, 65537), (65536, 65537)])
    assert narrow.strides == wide.strides
    assert (narrow.key_dtype, wide.key_dtype) == (np.uint32, np.uint64)
    rng = np.random.default_rng(capacity)
    pool = rng.integers(0, narrow.key_count, 500)
    keys = pool[rng.integers(0, len(pool), 6000)]
    vals = rng.standard_normal(len(keys))
    got = []
    for eng in (narrow, wide):
        for part in np.array_split(np.arange(len(keys)), 5):
            eng.insert_batch(keys[part], vals[part])
        eng.insert_key(int(keys[0]), 1.5)
        # read before result(), which hands the all array's keys over
        eng.finalize()
        assert eng.all.keys.dtype == eng.key_dtype
        coords, out = eng.result()
        got.append((coords, out.tobytes(), eng.counters))
    (want_coords, want_vals, want_counters), (got_coords, got_vals, got_counters) = got
    assert all(np.array_equal(w, g) for w, g in zip(want_coords, got_coords))
    assert want_vals == got_vals
    assert want_counters == got_counters


@pytest.mark.parametrize("capacity", [1, 5, 4096])
@pytest.mark.parametrize("policy", list(Policy))
def test_keys_too_wide_to_pack_with_an_arrival_sort_as_keys(policy, capacity):
    # keys that differ only in their top bits: one shifted past the bits of
    # an arrival would lose them, so a plan and a drain sort their ranks
    rng = np.random.default_rng(capacity)
    eng = IsmEngine((2**32 - 1, 2**32), policy, capacity, hash_l=2**40)
    rows = np.array([2**32 - 2, 2**31, 7], np.uint64)
    keys = (rows[rng.integers(0, 3, 3000)] << np.uint64(32)
            | rng.integers(0, 4, 3000).astype(np.uint64))
    vals = rng.standard_normal(len(keys))
    scalar = ReferenceEngine((2**32 - 1, 2**32), policy, capacity, hash_l=2**40)
    for k, v in zip(keys.tolist(), vals.tolist()):
        scalar.insert_key(k, v)
    eng.insert_batch(keys, vals)
    (rows_got, cols_got), got = eng.result()
    (rows_want, cols_want), want = scalar.result()
    assert eng.counters == scalar.counters
    assert np.array_equal(rows_got, rows_want) and np.array_equal(cols_got, cols_want)
    assert got.tobytes() == want.tobytes()
    sums: dict[int, float] = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        sums[k] = sums.get(k, 0.0) + v
    assert (rows_got.astype(np.uint64) << np.uint64(32) | cols_got).tolist() == sorted(sums)


@pytest.mark.parametrize("extents, narrow", [
    ((1, 2**32), False), ((0, 2**32), False), ((2**32,), False),
    # no keys, but a middle slot's stride of 2^32 that result() divides by
    ((3, 0, 2**16, 2**16), False),
    ((2**16, 2**16 - 1), True),
], ids=str)
@pytest.mark.parametrize("policy", list(Policy))
def test_keys_at_the_width_limit(policy, extents, narrow):
    eng = IsmEngine(extents, policy, 3, hash_l=4)
    assert eng.key_dtype == (np.uint32 if narrow else np.uint64)
    want = sorted({0, eng.key_count // 3, eng.key_count - 1}) if eng.key_count else []
    eng.insert_batch(np.array(want[::-1], np.int64), np.ones(len(want)))
    coords, vals = eng.result()
    keys = sum(c.astype(object) * s for c, s in zip(coords, eng.strides))
    assert list(keys) == want and vals.tolist() == [1.0] * len(want)


def test_a_bucket_count_past_32_bits_widens_the_keys():
    eng = IsmEngine((8,), Policy.HASH, 4, hash_l=2**32)
    assert eng.key_dtype == np.uint64
    eng.insert_batch(np.array([5, 3, 5]), np.ones(3))
    coords, vals = eng.result()
    assert coords[0].tolist() == [3, 5] and vals.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("keys", [
    np.array([3, -1], np.int64), np.array([3, 2**32 + 5], np.uint64),
    [3, -1], [3, 2**32 + 5],
], ids=["negative", "past-32-bits", "negative-list", "past-32-bits-list"])
def test_keys_outside_a_narrow_workspace_never_wrap(keys):
    # 2^32 + 5 would wrap to the valid key 5 in 32 bits, and -1 to 2^32 - 1
    eng = IsmEngine((8,), Policy.BUCKET, 4)
    assert eng.key_dtype == np.uint32
    with pytest.raises(IsmError, match="outside"):
        eng.insert_batch(keys, np.ones(2))
    with pytest.raises(IsmError, match="outside"):
        eng.insert_key(keys[1], 1.0)
    assert eng.counters.inserts == 0 and eng.acc.size == 0


# -- the log against a two-way merge per drain -----------------------------------


def _log_bound_checked(eng: IsmEngine, bounds: list) -> None:
    """Record, after each merge, how far the log's entries and run headers
    exceed the last compacted size, in units of capacity plus headers."""
    alla = eng.all
    merge = alla.merge

    def checked(keys, vals):
        merge(keys, vals)
        over = alla._logged + ism._RUN_ENTRIES * len(alla._runs) - len(alla._keys)
        bounds.append(over / (eng.capacity + ism._RUN_ENTRIES))

    alla.merge = checked


def _check_against_reference(policy: Policy, capacity: int, streams: list,
                             extents: tuple[int, ...]) -> None:
    """Run the streams through a reference engine and an engine with the
    log, a run each, every run ended by result(); the results, every
    counter, peak_bytes included, and the log's bound hold."""
    engines = [cls(extents, policy, capacity, hash_l=64)
               for cls in (ReferenceEngine, IsmEngine)]
    results = []
    bounds: list[float] = []
    for eng in engines:
        out = []
        for keys, vals in streams:
            if isinstance(eng.all, AllArray):  # each run logs into a new one
                _log_bound_checked(eng, bounds)
            eng.insert_batch(keys, vals)
            coords, got = eng.result()
            out.append(([c.copy() for c in coords], got.tobytes()))
        results.append(out)
    reference, log = engines
    assert log.counters == reference.counters
    for (want_coords, want_vals), (got_coords, got_vals) in zip(*results):
        assert all(np.array_equal(w, g) for w, g in zip(want_coords, got_coords))
        assert want_vals == got_vals
    assert max(bounds) < ism._LOG_RUNS


@pytest.mark.parametrize("wide_keys", [False, True])
@pytest.mark.parametrize("capacity", [1, 7, 64, 4096])
@pytest.mark.parametrize("policy", list(Policy))
def test_log_matches_a_two_way_merge_per_drain(policy, capacity, wide_keys):
    # standard-normal values, so that any change in summation order shows;
    # below capacity 4096 the log compacts while the first run goes on
    streams = [_real_stream(seed, n, universe=8 * 512)
               for seed, n in [(11, 6000), (12, 900), (13, 1500)]]
    _check_against_reference(policy, capacity, streams, _extents((8, 512), wide_keys))


@pytest.mark.parametrize("policy", list(Policy))
def test_log_matches_a_two_way_merge_over_many_key_ranges(policy):
    # mostly distinct keys: each compaction merges several key ranges of
    # runs the engine alone refers to, and cuts them back in place
    streams = [_real_stream(seed, n, universe=10**6)
               for seed, n in [(21, 150_000), (22, 20_000)]]
    _check_against_reference(policy, 1024, streams, (1000, 1000))


def test_an_engine_run_is_cut_in_place(monkeypatch):
    # a drained run is referred to by nothing but the log by the time a
    # compaction merges it, at merge() or when the result is read, so every
    # logged array is cut back in place, none left as a view
    cuts = []
    cut = ism._cut

    def counted(run, n):
        cut(run, n)
        cuts.extend(a.flags.owndata for a in run)

    monkeypatch.setattr(ism, "_cut", counted)
    eng = IsmEngine((1000, 1000), Policy.HASH, 1024, hash_l=64)
    eng.insert_batch(*_real_stream(21, 150_000, 10**6))
    eng.result()
    assert len(cuts) > 3000 and all(cuts)


def test_log_stays_bounded_under_heavy_dedup():
    # coord at capacity 1 drains at every insert: 10^5 one-entry runs over
    # 64 keys, which the log compacts every _LOG_RUNS runs
    streams = [_real_stream(seed, n, universe=64)
               for seed, n in [(5, 100_000), (6, 500), (7, 500)]]
    _check_against_reference(Policy.COORD, 1, streams, (64,))


def _compaction_scratch(universe: int, key_dtype) -> float:
    """Bytes per logged entry compacting 63 logged runs allocates beyond
    the log, which stays alive: one short of a compaction at merge()."""
    rng = np.random.default_rng(universe)
    runs = []
    for _ in range(ism._LOG_RUNS - 1):
        keys = np.unique(rng.integers(0, universe, 4000).astype(key_dtype))
        runs.append((keys, rng.standard_normal(len(keys))))
    alla, reference = AllArray(Counters()), TwoWayMerge(Counters())
    for keys, vals in runs:
        alla.merge(keys, vals)
        reference.merge(keys, vals.copy())
    logged = sum(len(k) for k, _ in runs)
    assert len(alla._runs) == len(runs)
    with peak_above() as span:
        keys, vals = alla.keys, alla.vals
    # the two results own buffers of their own length, not of the log's
    assert span.left <= 16 * len(keys) + 32 * 1024
    assert keys.dtype == key_dtype and np.array_equal(keys, reference.keys)
    assert vals.tobytes() == reference.vals.tobytes()
    assert alla.counters == reference.counters
    return span.peak / logged


@pytest.mark.parametrize("universe", [10**7, 10**5, 1000])
def test_compaction_scratch_per_entry(universe):
    # the log stays alive here, so the compaction adds its output, 16 bytes
    # per distinct key, and one key range's scratch: 18.1 bytes per logged
    # entry measured when nearly every key is distinct, 7.0 with 1000 keys
    assert _compaction_scratch(universe, np.uint64) <= 18.5


@pytest.mark.parametrize("universe", [10**7, 10**5, 1000])
def test_compaction_scratch_per_entry_with_32_bit_keys(universe):
    # four bytes fewer per distinct key: 13.8 measured
    assert _compaction_scratch(universe, np.uint32) <= 14.5
