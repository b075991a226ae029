"""Insert-sort-merge runtime: policies, counters, rotation, pipelining."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spworks.ism import (
    AccArray,
    AccFullError,
    AllArray,
    Counters,
    IsmEngine,
    IsmError,
    Policy,
    ceil_log2,
    hash_default_l,
    row_major_strides,
)


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


def test_coord_appends_blindly_and_sorts_at_drain():
    acc = _acc(Policy.COORD, capacity=4)
    for key, val in [(5, 1.0), (3, 2.0), (5, 4.0), (1, 8.0)]:
        acc.insert(key, val)
    c = acc.counters
    assert c.insert_comparisons == 0 and c.insert_dedups == 0
    keys, vals = acc.drain()
    assert keys.tolist() == [1, 3, 5]
    assert vals.tolist() == [8.0, 2.0, 5.0]
    # one full sort of four entries plus the adjacent-dedup sweep
    assert c.sort_comparisons == 4 * 2 + 3
    assert c.drain_dedups == 1


def test_coord_rejects_insert_at_capacity():
    acc = _acc(Policy.COORD, capacity=2)
    acc.insert(1, 1.0)
    acc.insert(1, 1.0)  # duplicates occupy separate slots under coord
    with pytest.raises(AccFullError):
        acc.insert(2, 1.0)
    assert acc.full and acc.size == 2


def test_bucket_chains_by_lead_coordinate():
    acc = _acc(Policy.BUCKET, lead_stride=4)
    acc.insert(5, 1.0)   # bucket 1
    acc.insert(3, 1.0)   # bucket 0
    acc.insert(5, 2.0)   # dedup after scanning one chain entry
    acc.insert(6, 1.0)   # bucket 1, scans past key 5
    c = acc.counters
    assert c.insert_dedups == 1
    assert c.insert_comparisons == 2
    assert acc.size == 3
    keys, vals = acc.drain()
    assert keys.tolist() == [3, 5, 6]
    assert vals.tolist() == [1.0, 3.0, 1.0]
    # only the two-entry chain pays a sort: 2 * ceil_log2(2)
    assert c.sort_comparisons == 2
    assert c.drain_dedups == 0


def test_bucket_insert_rejects_only_new_keys_at_capacity():
    acc = _acc(Policy.BUCKET, capacity=2, lead_stride=4)
    acc.insert(1, 1.0)
    acc.insert(2, 1.0)
    acc.insert(1, 5.0)  # dedup into the existing slot still works when full
    assert acc.size == 2
    with pytest.raises(AccFullError):
        acc.insert(3, 1.0)


def test_hash_chains_by_key_modulus():
    acc = _acc(Policy.HASH, hash_l=2)
    acc.insert(5, 1.0)   # chain 1
    acc.insert(3, 1.0)   # chain 1, scan 1 miss
    acc.insert(5, 2.0)   # chain 1, dedup on the first scanned entry
    acc.insert(4, 1.0)   # chain 0
    c = acc.counters
    assert c.insert_comparisons == 2
    assert c.insert_dedups == 1
    keys, vals = acc.drain()
    assert keys.tolist() == [3, 4, 5]
    assert vals.tolist() == [1.0, 1.0, 3.0]
    # hash pays one full comparison sort over all three live entries
    assert c.sort_comparisons == 3 * ceil_log2(3)
    assert c.drain_dedups == 0


def test_hash_policy_requires_bucket_count():
    with pytest.raises(IsmError, match="positive bucket count"):
        _acc(Policy.HASH, hash_l=None)


def test_capacity_must_be_positive():
    with pytest.raises(IsmError, match="at least 1"):
        _acc(Policy.COORD, capacity=0)


@pytest.mark.parametrize("capacity", [2.5, 4.0, "4"])
def test_capacity_must_be_an_integer(capacity):
    with pytest.raises(IsmError, match="not an integer"):
        _acc(Policy.COORD, capacity=capacity)


def test_drain_keeps_contents_until_clear():
    acc = _acc(Policy.COORD, capacity=4)
    acc.insert(2, 1.0)
    keys, _ = acc.drain()
    assert keys.tolist() == [2]
    assert acc.size == 1
    acc.clear()
    assert acc.size == 0 and not acc.full


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


def test_engine_validates_configuration():
    with pytest.raises(IsmError, match="at least one dimension"):
        IsmEngine((), Policy.COORD, 4)
    with pytest.raises(IsmError, match="64-bit"):
        IsmEngine((2**32, 2**32), Policy.COORD, 4)
    with pytest.raises(IsmError, match="hash_l resolved"):
        IsmEngine((8,), Policy.HASH, 4)


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


def test_finalize_is_idempotent():
    eng = IsmEngine((8,), Policy.COORD, 4)
    eng.insert_key(2, 1.0)
    first = eng.result()
    again = eng.result()
    assert first[0][0].tolist() == again[0][0].tolist()
    assert eng.counters.drains == 1


def test_peak_bytes_counts_both_arrays():
    eng = IsmEngine((64,), Policy.COORD, 4)
    for k in range(8):
        eng.insert_key(k, 1.0)
    eng.finalize()
    assert eng.counters.peak_bytes >= eng.all.nbytes + 4 * 16


def _stream(seed: int, n: int, universe: int) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, n)
    vals = rng.integers(1, 10, n).astype(float)
    return list(zip(keys.tolist(), vals.tolist()))


# the counters that sum over a run; peak_bytes takes a maximum instead
_RUN_COUNTS = ("inserts", "drains", "merges", "insert_comparisons", "sort_comparisons",
               "merge_comparisons", "insert_dedups", "drain_dedups", "merge_dedups")


def _engine(policy: Policy, capacity: int, **kw) -> IsmEngine:
    return IsmEngine((128,), policy, capacity,
                     hash_l=8 if policy is Policy.HASH else None, **kw)


def _feed(eng: IsmEngine, stream) -> tuple[list, list]:
    """Insert the stream and finalize; returns the keys and the values."""
    for k, v in stream:
        eng.insert_key(k, v)
    coords, vals = eng.result()
    return coords[0].tolist(), vals.tolist()


def _run(policy: Policy, capacity: int, stream, **kw) -> tuple[IsmEngine, list, list]:
    with _engine(policy, capacity, **kw) as eng:
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
    stream = _stream(seed=7, n=300, universe=128)
    plain_eng, plain_keys, plain_vals = _run(policy, 16, stream)
    piped_eng, piped_keys, piped_vals = _run(policy, 16, stream, pipeline=True)
    assert piped_keys == plain_keys
    assert piped_vals == plain_vals
    for name in _RUN_COUNTS:
        assert getattr(piped_eng.counters, name) == getattr(plain_eng.counters, name)


def test_pipeline_worker_errors_reach_the_caller():
    class Boom:
        def merge(self, keys, vals):
            raise IsmError("boom")

    with IsmEngine((8,), Policy.COORD, 1, pipeline=True) as eng:
        eng.all = Boom()  # type: ignore[assignment]
        eng.insert_key(1, 1.0)
        eng.insert_key(2, 1.0)
        with pytest.raises(IsmError, match="boom"):
            eng.finalize()


@pytest.mark.parametrize("pipeline", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
def test_reset_engine_matches_a_fresh_one(policy, pipeline):
    # the first run's all array holds more keys than the second run's
    first = _stream(seed=3, n=200, universe=64)
    second = _stream(seed=4, n=100, universe=16)
    with _engine(policy, 2, pipeline=pipeline) as reused:
        _feed(reused, first)
        before = copy.copy(reused.counters)
        reused.reset()
        assert reused.acc.size == 0 and reused.all.size == 0
        got = _feed(reused, second)
    with _engine(policy, 2, pipeline=pipeline) as fresh:
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
@pytest.mark.parametrize("pipeline", [False, True])
@pytest.mark.parametrize("sort_once", [False, True])
@pytest.mark.parametrize("capacity", [1, 3, 64])
@pytest.mark.parametrize("policy", list(Policy))
def test_insert_batch_matches_insert_key(policy, capacity, sort_once, pipeline,
                                         signed_keys):
    n = 300
    if sort_once:
        # at or above a run's insert count: each run drains once, at the end
        capacity *= n
    # signed: int64 key arrays, and numpy integer scalars for one-pair inserts
    scalars = list if signed_keys else np.ndarray.tolist

    def engine() -> IsmEngine:
        # two dimensions, so that bucket chains hold several keys
        return IsmEngine((8, 16), policy, capacity, hash_l=8, pipeline=pipeline)

    for seed in range(3):
        streams = [_real_stream(seed * 2 + run, n, universe=8 * 16 if run else 40)
                   for run in range(2)]
        if signed_keys:
            streams = [(keys.astype(np.int64), vals) for keys, vals in streams]
        with engine() as scalar:
            want = []
            for keys, vals in streams:
                scalar.reset()
                for k, v in zip(scalars(keys), vals.tolist()):
                    scalar.insert_key(k, v)
                want.append(scalar.result())
        rng = np.random.default_rng(seed)
        with engine() as batched:
            got = []
            for keys, vals in streams:
                batched.reset()
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


def test_insert_batch_keeps_the_sign_of_a_lone_negative_zero():
    for policy in Policy:
        with IsmEngine((4,), policy, 4, hash_l=2) as eng:
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
    engines = [IsmEngine((8, 16), policy, capacity, hash_l=8) for _ in range(2)]
    with engines[0] as scalar, engines[1] as batched:
        for k, v in zip(keys.tolist(), vals.tolist()):
            scalar.insert_key(k, v)
        batched.insert_batch(keys, vals)
        (want_coords, want_vals), (got_coords, got_vals) = scalar.result(), batched.result()
    assert batched.counters == scalar.counters
    assert all(np.array_equal(w, g) for w, g in zip(want_coords, got_coords))
    assert want_vals.tobytes() == got_vals.tobytes()
