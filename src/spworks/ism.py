"""Insert-sort-merge workspace runtime.

A workspace run streams (coordinate, value) pairs into a bounded accumulate
array. When the array fills up, its contents are sorted by coordinate and
merged into a growing sorted-unique all array; at the end the all array holds
the deduplicated result in coordinate order, ready to compress into any
sorted output format.

Coordinates are linearized row-major into unsigned 64-bit keys, which makes
key order identical to lexicographic coordinate order. Counters track the
abstract cost of each stage: comparison sorts are charged n*ceil(log2 n),
merges n+m, chain scans and dedup sweeps their actual lengths.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

KEY_DTYPE = np.uint64
VAL_DTYPE = np.float64
_ELEMENT_BYTES = 16  # one uint64 key plus one float64 value
# smallest batch slice IsmEngine.insert_batch plans at once
_BLOCK = 4096


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
    """Cost model counters; producer-side and worker-side fields are disjoint
    so the pipelined mode needs no locking."""

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

    Keys and values are numpy arrays in arrival order. Under BUCKET and HASH
    a key's chain is every key in the array with the same bucket, in arrival
    order, and inserts deduplicate along it.
    """

    def __init__(self, capacity: int, policy: Policy, lead_stride: int,
                 hash_l: int | None, counters: Counters) -> None:
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
        self.load(np.append(self.keys, np.array([key], KEY_DTYPE)),
                  np.append(self.vals, val))

    def load(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Take over arrays the caller owns as the contents, in arrival order."""
        self.keys, self.vals = keys, vals

    def fill(self, keys: np.ndarray, vals: np.ndarray) -> tuple[list, tuple]:
        """Plan the inserts of a batch after the current contents, charging
        the counters of one ``insert`` per pair. Each new key that finds the
        array full ends a full run: the contents as they are at that moment.
        Returns the full runs and the contents left after the last one, each
        as (keys, values) in arrival order; the caller drains the runs in
        order and loads the rest."""
        n = self.size
        # copies: the runs and the rest are slices of these, and load()
        # takes them over
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
        bounds = [*np.searchsorted(fresh, starts).tolist(), len(fresh)]
        runs = [(both[fresh[a:b]], sums[a:b]) for a, b in zip(bounds, bounds[1:])]
        return runs[:-1], runs[-1]

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

    def _fill_coord(self, keys: np.ndarray, vals: np.ndarray) -> tuple[list, tuple]:
        """Coord appends blindly: runs are slices of exactly the capacity, and
        a full array drains only when one more pair arrives."""
        capacity = self.capacity
        cuts = list(range(0, len(keys), capacity)) or [0]
        runs = [(keys[a:a + capacity], vals[a:a + capacity]) for a in cuts]
        return runs[:-1], runs[-1]

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
        self.load(np.empty(0, KEY_DTYPE), np.empty(0, VAL_DTYPE))


class AllArray:
    """Sorted-unique accumulator the drains merge into."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self.keys = np.empty(0, KEY_DTYPE)
        self.vals = np.empty(0, VAL_DTYPE)

    @property
    def size(self) -> int:
        return len(self.keys)

    def merge(self, new_keys: np.ndarray, new_vals: np.ndarray) -> None:
        """Two-way merge of a sorted-unique batch; equal keys add their values
        (existing value first, so summation order is deterministic)."""
        c = self.counters
        old_keys, old_vals = self.keys, self.vals
        c.merges += 1
        c.merge_comparisons += len(new_keys) + len(old_keys)
        if not old_keys.size:
            self.keys, self.vals = new_keys.copy(), new_vals.copy()
            return
        pos = np.searchsorted(old_keys, new_keys)
        match = np.zeros(len(new_keys), dtype=bool)
        in_range = pos < old_keys.size
        match[in_range] = old_keys[pos[in_range]] == new_keys[in_range]
        c.merge_dedups += int(match.sum())
        old_vals[pos[match]] += new_vals[match]
        fresh = ~match
        self.keys = np.insert(old_keys, pos[fresh], new_keys[fresh])
        self.vals = np.insert(old_vals, pos[fresh], new_vals[fresh])

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.vals.nbytes


class IsmEngine:
    """Drives insert, drain-on-full, merge and final compression for one
    workspace.

    An executor builds one engine per workspace per execution and calls
    reset() before every later run of that workspace (each prefix row of a
    hoisted workspace); counters accumulate across runs.

    In pipelined mode two accumulate arrays alternate: the producer streams
    inserts into one while a single worker thread, started at the first
    drain, drains and merges the other. At most one drain is in flight, so
    merges stay in submission order and results are bit-identical to the
    sequential mode. The engine is a context manager; leaving it joins the
    worker.
    """

    def __init__(
        self,
        extents: Sequence[int],
        policy: Policy,
        capacity: int,
        *,
        hash_l: int | None = None,
        pipeline: bool = False,
    ) -> None:
        self.extents = tuple(int(e) for e in extents)
        if not self.extents:
            raise IsmError("a workspace needs at least one dimension")
        self.key_count = math.prod(self.extents)
        if self.key_count >= 2 ** 64:
            raise IsmError("workspace key space exceeds 64-bit linearization")
        if policy is Policy.HASH and hash_l is None:
            raise IsmError("hash policy needs hash_l resolved before execution")
        self.strides = row_major_strides(self.extents)
        self.policy = policy
        self.capacity = capacity
        self.hash_l = hash_l
        self.pipeline = pipeline
        self.counters = Counters()
        self._pool: ThreadPoolExecutor | None = None
        self._pending: Future | None = None
        self.reset()

    def reset(self) -> None:
        """Start the next run: empty accumulate arrays and an empty all
        array. Counters keep accumulating."""
        self._wait()
        self.acc = self._new_acc()
        self._spare = self._new_acc() if self.pipeline else None
        self.all = AllArray(self.counters)
        self._finalized = False

    def _new_acc(self) -> AccArray:
        return AccArray(self.capacity, self.policy, self.strides[0], self.hash_l,
                        self.counters)

    def close(self) -> None:
        """Join the pipeline worker, if one was started. After finalize()
        nothing is in flight; otherwise an error is already propagating, and
        the error of a drain still in flight is dropped in its favour."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "IsmEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- producer side -----------------------------------------------------

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
        if keys.size and not np.issubdtype(keys.dtype, np.integer):
            raise IsmError(f"keys of dtype {keys.dtype} are not integers")
        # a negative key wraps to a large one here
        keys = keys.astype(KEY_DTYPE, copy=False)
        if keys.size and int(keys.max()) >= self.key_count:
            raise IsmError(f"key {int(keys.max())} is outside the workspace's "
                           f"{self.key_count} keys")
        self.counters.inserts += len(keys)
        done = 0
        block = max(4 * self.capacity, _BLOCK)
        while done < len(keys):
            runs, rest = self.acc.fill(keys[done:done + block], vals[done:done + block])
            for run in runs:
                self.acc.load(*run)
                self._flush()
            self.acc.load(*rest)
            done += block

    def _flush(self) -> None:
        """Drain the accumulate array into the all array: in place, or on the
        worker while inserts continue into the spare array."""
        self.counters.drains += 1
        if not self.pipeline:
            self._drain(self.acc)
            return
        self._wait()
        full = self.acc
        self.acc, self._spare = self._spare, full
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=1)
        self._pending = self._pool.submit(self._drain, full)

    def _wait(self) -> None:
        """Wait for the drain in flight; its error, if any, is raised here."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def _drain(self, acc: AccArray) -> None:
        keys, vals = acc.drain()
        self.all.merge(keys, vals)
        acc.clear()
        self._note_peak()

    def _note_peak(self) -> None:
        live = self.all.nbytes + self._acc_bytes
        if live > self.counters.peak_bytes:
            self.counters.peak_bytes = live

    @property
    def _acc_bytes(self) -> int:
        n = 2 if self.pipeline else 1
        return n * self.capacity * _ELEMENT_BYTES

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Drain whatever is left and wait until it is merged."""
        if self._finalized:
            return
        if self.acc.size:
            self._flush()
        self._wait()
        self._note_peak()
        self._finalized = True

    def result(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Finalize and decode keys back into per-slot coordinate arrays."""
        self.finalize()
        keys = self.all.keys
        coords = [((keys // s) % e).astype(np.int64)
                  for s, e in zip(self.strides, self.extents)]
        return coords, self.all.vals.copy()
