"""Insert-sort-merge workspace runtime.

A workspace run streams (coordinate, value) pairs into a bounded accumulate
array. When the array fills up, its contents are sorted by coordinate and
merged into a sorted-unique all array; at the end the all array holds the
deduplicated result in coordinate order, ready to compress into any sorted
output format. The all array is a log: a merge appends the drained run, and
the log is merged once, when the result is read or when it has outgrown the
last merged size, with the sums and counters of one two-way merge per drain.

Coordinates are linearized row-major into unsigned keys, which makes key
order identical to lexicographic coordinate order: 32-bit keys where the key
space fits, 64-bit ones otherwise. Counters track the
abstract cost of each stage: comparison sorts are charged n*ceil(log2 n),
merges n+m, chain scans and dedup sweeps their actual lengths.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .tensor import CRD_DTYPE, MAX_EXTENT, VAL_DTYPE

KEY_DTYPE = np.uint64  # the widest key; an engine narrows it where it can
_ELEMENT_BYTES = 16  # modelled per element: a uint64 key and a float64 value
# smallest batch slice IsmEngine.insert_batch plans at once
_BLOCK = 4096
# runs the all array's log holds before merge() considers compacting it
_LOG_RUNS = 64
# the object headers of one logged run (two arrays and a tuple), in entries
_RUN_ENTRIES = 18
# sorted log positions one compaction step gathers and adds at once
_CHUNK = 2**12


class IsmError(RuntimeError):
    pass


class AccFullError(IsmError):
    """Raised by AccArray.insert when the array is at capacity."""


class Policy(enum.Enum):
    """Sorting policy for the accumulate array.

    BUCKET chains inserts by leading output coordinate and sorts each chain
    at drain time; HASH chains by a hash of the full coordinate and does one
    full sort at drain time; COORD appends blindly and defers both sorting
    and deduplication to the drain.
    """

    BUCKET = "bucket"
    HASH = "hash"
    COORD = "coord"

    @property
    def label(self) -> str:
        return self.value.capitalize()

    @classmethod
    def from_name(cls, name: str) -> "Policy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise IsmError(f"unknown policy {name!r}; choose one of {options}") from None


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def hash_default_l(nnz: int) -> int:
    """Default hash bucket count: smallest power of two at or above nnz."""
    if nnz <= 1:
        return 1
    return 1 << (nnz - 1).bit_length()


def row_major_strides(extents: Sequence[int]) -> tuple[int, ...]:
    """Strides that linearize coordinates row-major, the last one fastest."""
    strides = [1] * len(extents)
    for d in range(len(extents) - 1, 0, -1):
        strides[d - 1] = strides[d] * extents[d]
    return tuple(strides)


@dataclass
class Counters:
    """Cost model counters, per stage. The merge counters are charged when
    the all array's log is compacted."""

    inserts: int = 0
    drains: int = 0
    merges: int = 0
    insert_comparisons: int = 0
    sort_comparisons: int = 0
    merge_comparisons: int = 0
    insert_dedups: int = 0
    drain_dedups: int = 0
    merge_dedups: int = 0
    peak_bytes: int = 0

    @property
    def comparisons(self) -> int:
        return self.insert_comparisons + self.sort_comparisons + self.merge_comparisons

    @property
    def dedups(self) -> int:
        return self.insert_dedups + self.drain_dedups + self.merge_dedups

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one; peaks take the maximum."""
        for f in fields(self):
            combine = max if f.name == "peak_bytes" else operator.add
            setattr(self, f.name, combine(getattr(self, f.name), getattr(other, f.name)))

    def as_dict(self) -> dict[str, int]:
        """Report totals: the per-stage comparisons and dedups are summed."""
        out: dict[str, int] = {}
        for f in fields(self):
            total = f.name.partition("_")[2]
            key = total if total in ("comparisons", "dedups") else f.name
            out[key] = out.get(key, 0) + getattr(self, f.name)
        return out


class AccArray:
    """Bounded unsorted accumulate array with a policy-specific insert path.

    Keys (in ``key_dtype``) and values are numpy arrays in arrival order.
    Under BUCKET and HASH a key's chain is every key in the array with the
    same bucket, in arrival order, and inserts deduplicate along it.
    """

    def __init__(self, capacity: int, policy: Policy, lead_stride: int,
                 hash_l: int | None, counters: Counters, key_dtype=KEY_DTYPE) -> None:
        if not isinstance(capacity, numbers.Integral) or capacity < 1:
            raise IsmError(f"accumulate array capacity {capacity!r} is not an integer "
                           "of at least 1")
        self.capacity = capacity
        self.policy = policy
        self.lead_stride = lead_stride
        if policy is Policy.HASH:
            if hash_l is None or hash_l < 1:
                raise IsmError("hash policy requires a positive bucket count")
            self.hash_l = hash_l
        else:
            self.hash_l = 0
        self.counters = counters
        self.key_dtype = key_dtype
        self.clear()

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def full(self) -> bool:
        return len(self.keys) == self.capacity

    def _bucket(self, keys):
        if self.policy is Policy.BUCKET:
            return keys // self.lead_stride
        return keys % self.hash_l

    def insert(self, key: int, val: float) -> None:
        """Add one pair. Bucket and hash chains deduplicate in place; a full
        array rejects the insert before touching anything."""
        if self.policy is not Policy.COORD:
            chain = np.flatnonzero(self._bucket(self.keys) == self._bucket(key))
            hit = np.flatnonzero(self.keys[chain] == key)
            if hit.size:
                self.counters.insert_comparisons += int(hit[0]) + 1
                self.counters.insert_dedups += 1
                self.vals[chain[hit[0]]] += val
                return
            self.counters.insert_comparisons += len(chain)
        if self.full:
            raise AccFullError
        self.load(np.append(self.keys, np.array([key], self.key_dtype)),
                  np.append(self.vals, val))

    def load(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Take over arrays the caller owns as the contents, in arrival order."""
        self.keys, self.vals = keys, vals

    def fill(self, keys: np.ndarray, vals: np.ndarray) -> tuple:
        """Plan the inserts of a batch after the current contents, charging
        the counters of one ``insert`` per pair. Each new key that finds the
        array full ends a full run: the contents as they are at that moment.
        Returns the plan as arrays: the keys each run keeps and their sums,
        run after run in arrival order, and where each run starts among
        them. Every run but the last ends where the next starts, and the
        caller drains them in order; the last, the rest, runs to the end
        and the caller loads it."""
        n = self.size
        # copies of the contents and the batch, which the plan indexes
        both = np.concatenate((self.keys, keys))
        both_vals = np.concatenate((self.vals, vals))
        if self.policy is Policy.COORD:
            return self._fill_coord(both, both_vals)
        total = len(both)
        order = np.argsort(both, kind="stable")
        ordered = both[order]
        same = ordered[1:] == ordered[:-1]
        # the previous arrival of the same key, -1 at its first
        prev = np.full(total, -1)
        prev[order[1:][same]] = order[:-1][same]
        # an arrival takes a slot if its key has not arrived yet in its run,
        # and adds into the slot of the key's first arrival in the run if it has
        if total <= self.capacity:
            starts = [0]
            new = prev < 0
        else:
            starts = self._run_starts(prev)
            new = prev < np.asarray(starts)[np.searchsorted(starts, np.arange(total), "right") - 1]
        fresh = np.flatnonzero(new)
        repeat = np.flatnonzero(~new)
        # in key order, an arrival's latest new predecessor is its key's first
        # arrival in its run
        first = np.empty(total, np.int64)
        first[order] = order[np.maximum.accumulate(np.where(new[order], np.arange(total), 0))]
        slot = (np.cumsum(new) - 1)[first]
        # a key's chain rank counts the earlier keys of its bucket in its run;
        # a key that finds the array full is ranked after the whole run it ends
        stops = np.asarray(starts[1:], np.int64)
        runs_of = np.concatenate((np.searchsorted(stops, fresh, "right"),
                                  np.arange(len(stops))))
        chains = self._bucket(both[np.concatenate((fresh, stops))])
        by_chain = np.lexsort((chains, runs_of))
        lead = np.ones(len(by_chain), bool)
        lead[1:] = ((chains[by_chain[1:]] != chains[by_chain[:-1]])
                    | (runs_of[by_chain[1:]] != runs_of[by_chain[:-1]]))
        k = np.arange(len(by_chain))
        rank = np.empty(len(by_chain), np.int64)
        rank[by_chain] = k - np.maximum.accumulate(np.where(lead, k, 0))
        # a new key scans its whole chain, a repeat its chain up to its key,
        # a key that finds the array full the whole chain there (the live
        # contents were charged when they went in)
        c = self.counters
        c.insert_comparisons += (int(rank[n:].sum()) + int(rank[slot[repeat]].sum())
                                 + len(repeat))
        c.insert_dedups += len(repeat)
        sums = both_vals[fresh]
        np.add.at(sums, slot[repeat], both_vals[repeat])
        # where each run starts among the kept keys; a lone run at the first
        cuts = np.searchsorted(fresh, starts) if len(starts) > 1 else (0,)
        return both[fresh], sums, cuts

    def _run_starts(self, prev: np.ndarray) -> list[int]:
        """Where each run starts: at the new key past the capacity, counting
        the keys that arrived since the run's own start. Each run is searched
        in a window that doubles, so a run costs about its own length."""
        cap, total = self.capacity, len(prev)
        starts = [0]
        while True:
            s, look = starts[-1], cap + 1
            fresh = np.flatnonzero(prev[s:s + look] < s)
            while len(fresh) <= cap and s + look < total:
                look *= 2
                fresh = np.flatnonzero(prev[s:s + look] < s)
            if len(fresh) <= cap:
                return starts
            starts.append(s + int(fresh[cap]))

    def _fill_coord(self, keys: np.ndarray, vals: np.ndarray) -> tuple:
        """Coord appends blindly: runs are slices of exactly the capacity, and
        a full array drains only when one more pair arrives."""
        return keys, vals, range(0, max(len(keys), 1), self.capacity)

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort the contents by key and return them; the array keeps its
        contents until clear() is called."""
        n = self.size
        c = self.counters
        if n <= 1:
            # nothing to compare under any policy
            return self.keys.copy(), self.vals.copy()
        order = np.argsort(self.keys, kind="stable")
        ks, vs = self.keys[order], self.vals[order]
        if self.policy is Policy.BUCKET:
            # each chain is sorted on its own
            lead = ks // self.lead_stride
            bounds = np.flatnonzero(np.concatenate(([True], lead[1:] != lead[:-1], [True])))
            sizes = bounds[1:] - bounds[:-1]
            c.sort_comparisons += int((sizes * np.frexp(sizes - 1.0)[1]).sum())
            return ks, vs
        c.sort_comparisons += n * ceil_log2(n)
        if self.policy is Policy.HASH:
            return ks, vs
        # coord: one adjacent-dedup sweep over the sorted run
        c.sort_comparisons += n - 1
        starts_mask = np.empty(n, bool)
        starts_mask[0] = True
        np.not_equal(ks[1:], ks[:-1], out=starts_mask[1:])
        starts = np.flatnonzero(starts_mask)
        c.drain_dedups += n - len(starts)
        return ks[starts], np.add.reduceat(vs, starts)

    def clear(self) -> None:
        self.load(np.empty(0, self.key_dtype), np.empty(0, VAL_DTYPE))


class AllArray:
    """Sorted-unique accumulator the drains merge into, kept as a log.

    merge() appends each drained run, sorted and unique, to a log. Reading
    keys, vals or size compacts the log into one sorted-unique
    array: a stable sort by key puts each key's arrivals in drain order,
    the first arrival is the key's start value and later ones add to it in
    that order, so every sum is bit for bit the ``old + new`` of a two-way
    merge per drain. merge() also compacts once the log holds _LOG_RUNS
    runs and at least as many entries, counting each run's object headers,
    as the last compaction left, so the log stays within about the distinct
    keys plus _LOG_RUNS runs.

    The merge counters are charged at compaction, from the distinct keys
    after each run: a run costs its length plus the distinct keys before it
    in comparisons, and each key it repeats is a dedup.
    """

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self.merges = 0
        self._keys = np.empty(0, KEY_DTYPE)
        self._vals = np.empty(0, VAL_DTYPE)
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []
        self._logged = 0

    def merge(self, new_keys: np.ndarray, new_vals: np.ndarray) -> None:
        """Log a sorted-unique run, taking over its arrays; its values add
        after those of every earlier run."""
        self.counters.merges += 1
        self.merges += 1
        self._runs.append((new_keys, new_vals))
        self._logged += len(new_keys)
        runs = len(self._runs)
        if runs >= _LOG_RUNS and self._logged + _RUN_ENTRIES * runs >= len(self._keys):
            self._compact()

    def _compact(self) -> None:
        """Merge the log into the last compacted array and charge its merges."""
        runs, self._runs, self._logged = self._runs, [], 0
        base = len(self._keys)
        if not base and len(runs) == 1:
            # nothing to merge the run with: it is the all array
            (self._keys, self._vals), = runs
            self.counters.merge_comparisons += len(self._keys)
            return
        lengths = np.array([len(k) for k, _ in runs], np.int64)
        if base:
            # the last compacted array is the first run: its values came first
            runs.insert(0, (self._keys, self._vals))
        self._keys = self._vals = None
        ends = np.cumsum([len(k) for k, _ in runs])
        total = int(ends[-1])
        # one copy of the log at a time: the values, then the keys
        vals = np.concatenate([v for _, v in runs])
        runs = [k for k, _ in runs]
        keys = np.concatenate(runs)
        del runs
        order = np.argsort(keys, kind="stable")
        keys.sort()
        first = np.empty(total, bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # both results are written in place, a chunk of sorted positions at a
        # time; a chunk writes only at or before its own positions, after it
        # has read them. First the distinct keys, to the front of the keys
        done = 0
        for a in range(0, total, _CHUNK):
            distinct = keys[a:a + _CHUNK][first[a:a + _CHUNK]]
            keys[done:done + len(distinct)] = distinct
            done += len(distinct)
        # nothing else refers to the buffer, so it shrinks in place
        keys.resize(done, refcheck=False)
        self._keys = keys
        # then the merged values, into the buffer of the sort order, and the
        # distinct keys each run brought
        out = order.view(VAL_DTYPE)
        new = np.zeros(len(ends), np.int64)
        done = 0
        for a in range(0, total, _CHUNK):
            f = first[a:a + _CHUNK]
            at = order[a:a + _CHUNK]
            v = vals[at]
            new += np.bincount(np.searchsorted(ends, at[f], "right"), minlength=len(ends))
            group = np.cumsum(f)
            group += done - 1
            out[group[f]] = v[f]
            repeat = ~f
            np.add.at(out, group[repeat], v[repeat])
            done = int(group[-1]) + 1
        del vals, first, f, at, out
        order.resize(done, refcheck=False)
        self._vals = order.view(VAL_DTYPE)
        # each logged run met the distinct keys of the base and of the runs
        # before it, and repeated those it did not bring
        new = new[-len(lengths):]
        before = base + np.cumsum(new) - new
        c = self.counters
        c.merge_comparisons += int(lengths.sum() + before.sum())
        c.merge_dedups += int((lengths - new).sum())

    @property
    def keys(self) -> np.ndarray:
        if self._runs:
            self._compact()
        return self._keys

    @property
    def vals(self) -> np.ndarray:
        if self._runs:
            self._compact()
        return self._vals

    @property
    def size(self) -> int:
        return len(self.keys)


class IsmEngine:
    """Drives insert, drain-on-full, merge and final compression for one
    workspace.

    An executor builds one engine per workspace per execution and calls
    reset() at the start of every run of that workspace (each prefix row of
    a hoisted workspace); counters accumulate across runs.
    """

    def __init__(self, extents: Sequence[int], policy: Policy, capacity: int, *,
                 hash_l: int | None = None) -> None:
        self.extents = tuple(int(e) for e in extents)
        if not self.extents:
            raise IsmError("a workspace needs at least one dimension")
        if any(e > MAX_EXTENT for e in self.extents):
            raise IsmError(f"workspace extents {self.extents} exceed the coordinate "
                           f"limit of 2^32 per slot")
        self.key_count = math.prod(self.extents)
        if self.key_count >= 2 ** 64:
            raise IsmError("workspace key space exceeds 64-bit linearization")
        if policy is Policy.HASH and hash_l is None:
            raise IsmError("hash policy needs hash_l resolved before execution")
        self.strides = row_major_strides(self.extents)
        # 32-bit keys where every key, and every stride, extent and bucket
        # count that keys are divided by, fits them
        narrow = max(self.key_count, *self.strides, *self.extents, hash_l or 0) < 2**32
        self.key_dtype = np.dtype(np.uint32 if narrow else KEY_DTYPE)
        self.policy = policy
        self.capacity = capacity
        self.hash_l = hash_l
        self.counters = Counters()
        self.all = AllArray(self.counters)
        self.reset()

    def reset(self) -> None:
        """Start the next run: an empty accumulate array and an empty all
        array. Counters keep accumulating."""
        if self.all.merges:
            # a run left without result() still owes its merge counters
            self._note_peak()
        self.acc = AccArray(self.capacity, self.policy, self.strides[0], self.hash_l,
                            self.counters, self.key_dtype)
        self.all = AllArray(self.counters)
        self._finalized = False

    # -- inserts -------------------------------------------------------------

    def insert_key(self, key: int, val: float) -> None:
        """Insert one pair under its row-major key."""
        try:
            key = operator.index(key)
        except TypeError:
            raise IsmError(f"key {key!r} is not an integer") from None
        if not 0 <= key < self.key_count:
            raise IsmError(f"key {key} is outside the workspace's {self.key_count} keys")
        self.counters.inserts += 1
        try:
            self.acc.insert(key, val)
        except AccFullError:
            self._flush()
            self.acc.insert(key, val)

    def insert_batch(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Insert pairs in order, with the same drains, results and counters
        as one insert_key call per pair."""
        keys = np.asarray(keys)
        vals = np.asarray(vals, VAL_DTYPE)
        if keys.ndim != 1 or vals.shape != keys.shape:
            raise IsmError(f"keys of shape {keys.shape} and values of shape "
                           f"{vals.shape} are not two 1-D arrays of one length")
        if keys.size:
            if not np.issubdtype(keys.dtype, np.integer):
                raise IsmError(f"keys of dtype {keys.dtype} are not integers")
            # checked in the caller's dtype, before any key is narrowed
            low = int(keys.min()) if keys.dtype.kind == "i" else 0
            high = int(keys.max())
            if low < 0 or high >= self.key_count:
                raise IsmError(f"key {low if low < 0 else high} is outside the "
                               f"workspace's {self.key_count} keys")
        self.counters.inserts += len(keys)
        done = 0
        block = max(self.capacity, _BLOCK)
        while done < len(keys):
            kept, sums, cuts = self.acc.fill(
                keys[done:done + block].astype(self.key_dtype, copy=False),
                vals[done:done + block])
            # a full run is sliced from the plan only as it drains
            for a, b in zip(cuts, cuts[1:]):
                self.acc.load(kept[a:b], sums[a:b])
                self._flush()
            # the rest stays loaded: a copy, unless it is the whole plan
            last = cuts[-1]
            self.acc.load(*(kept, sums) if last == 0 else
                          (kept[last:].copy(), sums[last:].copy()))
            done += block

    def _flush(self) -> None:
        """Drain the accumulate array into the all array."""
        self.counters.drains += 1
        keys, vals = self.acc.drain()
        self.all.merge(keys, vals)
        self.acc.clear()

    def _note_peak(self) -> None:
        """The all array only grows within a run, so its peak is the size
        it ends with, read once the log is compacted."""
        live = (self.all.size + self.capacity) * _ELEMENT_BYTES
        if live > self.counters.peak_bytes:
            self.counters.peak_bytes = live

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Drain whatever is left into the all array."""
        if self._finalized:
            return
        if self.acc.size:
            self._flush()
        self._note_peak()
        self._finalized = True

    def result(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Finalize and decode keys back into per-slot coordinate arrays of
        CRD_DTYPE, the tensor's coordinate width, in key order.

        The values are the all array's own, not a copy: reset() replaces
        the all array, so they stay the caller's once the next run starts.
        Inserting again without reset() would add into them."""
        self.finalize()
        keys = self.all.keys
        coords = []
        for slot, (s, e) in enumerate(zip(self.strides, self.extents)):
            crd = np.empty(len(keys), CRD_DTYPE)
            # slot 0's quotient is already below its extent and the last
            # slot's stride is 1; only a middle slot needs a quotient array
            if slot == 0:
                np.floor_divide(keys, s, out=crd, casting="unsafe")
            else:
                np.remainder(keys if s == 1 else keys // s, e, out=crd, casting="unsafe")
            coords.append(crd)
        return coords, self.all.vals
