"""Insert-sort-merge workspace runtime.

A workspace run streams (coordinate, value) pairs into a bounded accumulate
array. When the array fills up, its contents are sorted by coordinate and
merged into a sorted-unique all array; at the end the all array holds the
deduplicated result in coordinate order, ready to compress into any sorted
output format. The all array is a log: a merge appends the drained run, and
the log is merged once, when the result is read or when it has outgrown the
last merged size, with the sums and counters of one two-way merge per drain.
The merge runs a key range at a time, from the highest keys down, and cuts
each run back as it goes, so the log is freed as the result is written; the
engine then hands the result over, 32-bit keys decoded in place.

A batch of inserts is planned a block at a time, with the drains and the
counters of one chain-scan insert per pair, from two sorts of packed
unsigned integers: (host row, key, arrival) finds each key's first arrival
in its run and the slot its repeats add into, and (chain, place) ranks each
kept key in its bucket's chain. A batch may carry each pair's host row:
each row's pairs then form runs of their own, and a row whose pairs end in
the batch is handed back whole. The runs a block completes drain in one
more sort of (run, key, arrival), and so does the run a result ends; a row
of one run goes back as it is, and the all array merges every other run.
No index array of the platform's width spans a plan. A compaction sorts (key,
arrival) the same way, and every sum adds a key's values in arrival order
(``tensor._sum_groups``).

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
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .tensor import CRD_DTYPE, MAX_EXTENT, VAL_DTYPE, _sum_groups

KEY_DTYPE = np.uint64  # the widest key; an engine narrows it where it can
_ELEMENT_BYTES = 16  # modelled per element: a uint64 key and a float64 value
# smallest batch slice IsmEngine.insert_batch plans at once
_BLOCK = 4096
# runs the all array's log holds before merge() considers compacting it
_LOG_RUNS = 64
# the object headers of one logged run (two arrays and a tuple), in entries
_RUN_ENTRIES = 18
# sorted pairs a plan or a drain reads at a time: bounds the scratch of each
# pass over them
_PASS = 2**10
# sorted pairs a compaction reads at a time: it keeps no copy of the keys
# beside the sorted words, which pays for the wider reads
_MERGE_PASS = 2 * _PASS
# about the fewest logged entries a compaction merges at once, unless fewer
# are logged; a compaction takes at most about 16 key ranges
_RANGE = 2**13


class IsmError(RuntimeError):
    pass


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
    """Bounded unsorted accumulate array, filled a planned batch at a time.

    Keys (in ``key_dtype``) and values are numpy arrays in arrival order.
    Under BUCKET and HASH a key's chain is every key in the array with the
    same bucket, in arrival order; a pair scans its chain up to its key and
    adds into that slot, or scans the whole chain and takes a new slot, and
    a new key that finds the array full ends the run there. COORD appends
    every pair and ends a run at the pair past the capacity.
    """

    def __init__(self, capacity: int, policy: Policy, lead_stride: int,
                 hash_l: int | None, counters: Counters, key_dtype=KEY_DTYPE) -> None:
        if not isinstance(capacity, numbers.Integral) or capacity < 1:
            raise IsmError(f"accumulate array capacity {capacity!r} is not an integer "
                           "of at least 1")
        self.capacity = capacity
        self.policy = policy
        self.lead_stride = lead_stride
        self.hash_l = hash_l if policy is Policy.HASH else 0
        self.counters = counters
        self.key_dtype = key_dtype
        self.clear()

    @property
    def size(self) -> int:
        return len(self.keys)

    def _bucket(self, keys):
        if self.policy is Policy.BUCKET:
            return keys // self.lead_stride
        return keys % self.hash_l

    def load(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Take over arrays the caller owns as the contents, in arrival order."""
        self.keys, self.vals = keys, vals

    def fill(self, keys: np.ndarray, vals: np.ndarray, rows: np.ndarray | None = None) -> tuple:
        """Plan the inserts of a batch after the current contents, charging
        the counters of one chain scan per pair, and the sort of each run
        the plan completes. ``rows``, if given, holds each pair's host row,
        nondecreasing, and the contents are the first row's: a row's pairs
        form runs of their own, counted from the row's first pair. Each new
        key that finds the array full ends a full run: the contents as they
        are at that moment. Returns the plan: the keys each run keeps and
        their sums, run after run in arrival order, where each run starts
        among them, and each run's segment, the place of its row among the
        batch's rows. Every run but the last is complete, and the caller
        drains them; the last, the rest, runs to the end and the caller
        loads it.

        Arrivals are numbered from the contents' first; the contents hold
        distinct keys, so each of them is new. The plan sorts one uint32 or
        uint64 per pair, the narrower that holds its segment above its key
        above its arrival, in place, which puts each key's arrivals in a row
        together in arrival order; beside it, it holds masks and 32-bit
        arrays over the pairs, and it reads the sorted array _PASS pairs at
        a time. Only a row with more distinct keys than the capacity needs
        its runs cut."""
        n, cap = self.size, self.capacity
        total = n + len(keys)
        index = np.int32 if total < 2**31 else np.int64
        # each segment's first arrival; the contents start the first
        bounds = np.zeros(1, index)
        if rows is not None and len(rows) and rows[0] != rows[-1]:
            bounds = np.append(bounds, n + 1 + np.flatnonzero(rows[1:] != rows[:-1])).astype(index)
        if self.policy is Policy.COORD:
            # coord appends blindly: runs are slices of exactly the capacity
            # of a row's pairs, and a full array drains only when one more
            # pair of its row arrives; the cuts' scratch is freed before the
            # pairs are copied
            per = -(-np.diff(bounds, append=total) // cap)
            segs = np.repeat(np.arange(len(bounds), dtype=index), per)
            cuts = np.arange(len(segs), dtype=index)
            cuts *= cap
            cuts += np.repeat(bounds - (np.cumsum(per, dtype=index) - per) * cap, per)
            del per
            keys, vals = np.concatenate((self.keys, keys)), np.concatenate((self.vals, vals))
            return keys, vals, cuts, segs
        # the keys' own bits, so that the packed words are as narrow as can be
        width = int(max(keys.max(initial=0), self.keys.max(initial=0))).bit_length()
        room = 32 - _bits(total) - (_bits(len(bounds)) if len(bounds) > 1 else 0)
        words = np.concatenate((self.keys, keys),
                               dtype=np.uint32 if width <= room else np.uint64)
        order, lead, low = _sort_arrivals(words, width, bounds)
        del words
        # the segments with more distinct keys than the capacity; a
        # segment's arrivals lie at the same places in key order
        over = np.flatnonzero(np.add.reduceat(lead, bounds, dtype=np.intp) > cap).tolist()
        # the arrivals that start a run at the capacity: a run holds a
        # capacity of keys before one
        stops = np.empty(total // cap if len(over) else 0, index)
        if len(over):
            # the previous arrival of the same key in the row, -1 at its first
            prev = np.full(total, -1, index)
            for lo in range(0, total, _PASS):
                arrival = np.bitwise_and(order[max(lo - 1, 0):lo + _PASS], low, dtype=np.intp)
                same = ~lead[max(lo - 1, 0):lo + _PASS][1:]
                prev[arrival[1:][same]] = arrival[:-1][same]
            new = prev < 0
            ends = np.append(bounds[1:], total)
            found = 0
            for s in over:
                found = self._new(prev, new, int(bounds[s]), int(ends[s]), stops, found)
            del prev
            stops = stops[:found]
        else:
            # a run per row: an arrival is new where its key first arrives
            new = np.empty(total, bool)
            for lo in range(0, total, _PASS):
                new[np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)] = lead[lo:lo + _PASS]
        # in key order each repeat adds into the latest new arrival before
        # it, its key's first in its run, and the sums add in that order
        into, repeats, last = [], [], 0
        for lo in range(0, total, _PASS):
            arrival = np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)
            fresh = new[arrival] if len(over) else lead[lo:lo + _PASS]
            if np.count_nonzero(fresh) == len(fresh):
                last = lo + len(arrival) - 1
                continue
            at = np.where(fresh, np.arange(lo, lo + len(arrival)), last)
            np.maximum.accumulate(at, out=at)
            last = at[-1]
            repeat = ~fresh
            into.append(np.bitwise_and(order[at[repeat]], low, dtype=np.intp))
            repeats.append(vals[arrival[repeat] - n])
        del lead, order
        arrival = at = None  # the last window's, freed before the plan is built
        into = np.concatenate(into) if into else np.empty(0, index)
        # the arrivals that start a run: a row's first, and each stop
        starts = bounds
        if len(stops):
            starts = np.concatenate((bounds, stops))
            starts.sort()
        cuts = np.zeros(1, index)
        if len(into) or len(starts) > 1:
            # a key's slot: its place among the kept keys
            place = new.cumsum(dtype=index)
            place -= 1
            into = place[into]
            cuts = place[starts]
            stops = place[stops]
            del place
        slots = int(np.count_nonzero(new))
        kept = np.empty(slots, self.key_dtype)
        kept[:n] = self.keys
        _masked_into(kept[n:], new[n:], keys)
        self._charge(kept, into, cuts, stops)
        sums = np.empty(slots, VAL_DTYPE)
        sums[:n] = self.vals
        _masked_into(sums[n:], new[n:], vals)
        if repeats:
            _sum_groups(sums, into, np.concatenate(repeats))
        del into, repeats, new
        segs = np.searchsorted(bounds, starts, "right").astype(index)
        segs -= 1
        return kept, sums, cuts, segs

    def _new(self, prev: np.ndarray, new: np.ndarray, lo: int, end: int,
             stops: np.ndarray, found: int) -> int:
        """Mark which arrivals of one row, ``lo`` up to ``end``, are new in
        their run, and write into ``stops``, from its ``found`` first,
        each arrival that starts a run at the capacity: the new key past it,
        counting the keys new since the run's start; returns how many
        ``stops`` then holds. The arrivals are read in windows that double
        from the capacity up to _PASS, so a run costs about its own
        length."""
        cap, start, seen = self.capacity, lo, 0
        look = min(cap + 1, _PASS)
        while lo < end:
            window = new[lo:min(lo + look, end)]
            np.less(prev[lo:lo + len(window)], start, out=window)
            fresh = int(np.count_nonzero(window))
            if seen + fresh > cap:
                # the next run starts here; its own arrivals are read again
                start = lo + int(np.flatnonzero(window)[cap - seen])
                stops[found] = start
                found += 1
                lo, seen, look = start, 0, min(cap + 1, _PASS)
            else:
                lo, seen, look = lo + len(window), seen + fresh, min(2 * look, _PASS)
        return found

    def _charge(self, kept: np.ndarray, into: np.ndarray, cuts: np.ndarray,
                stops: np.ndarray) -> None:
        """Charge the insert counters of a plan, and the sort counters of
        each run it completes, every run but the last (``cuts`` holds where
        each run starts). A key's chain rank counts the earlier kept keys of
        its bucket in its run: a new key scans its whole chain, a repeat its
        chain up to its key (``into`` holds the place of each repeat's key),
        and a key that finds the array full (one of the ``stops``) the whole
        chain there. The live contents, the first ``size`` kept keys, were
        charged when they went in. One sort of (chain, place) puts each
        chain of each run together in arrival order."""
        c = self.counters
        c.insert_comparisons += len(into)
        c.insert_dedups += len(into)
        if self.policy is Policy.HASH:
            # a hash run sorts all its keys at its drain
            c.sort_comparisons += _sort_cost(np.diff(cuts))
        if self.policy is Policy.BUCKET and self.lead_stride == 1:
            return  # a bucket per key: no key scans past another, or sorts
        n, cap, total = self.size, self.capacity, len(kept)
        top = int(kept.max(initial=0))  # bounds every chain
        if self.policy is Policy.BUCKET:
            top //= self.lead_stride
        else:
            top = min(top, self.hash_l - 1)
        # the dtype _sort_arrivals packs them in, so that it sorts them in place
        tags = np.empty(total, np.uint32 if top.bit_length() + _bits(total) <= 32 else np.uint64)
        for lo in range(0, total, _PASS):
            tags[lo:lo + _PASS] = self._bucket(kept[lo:lo + _PASS])
        # without host rows every run but the last holds a capacity of keys,
        # so a place's run is its quotient by the capacity, a division where
        # a search over the cuts would cost a FULL workspace about 5% of its
        # execution under bucket and hash
        aligned = int(cuts[-1]) == (len(cuts) - 1) * cap
        # a stop scanned its chain in the full run just before it, the
        # capacity of places before its own; read about _PASS places at a time
        charged, step = 0, max(1, _PASS // cap)
        for lo in range(0, len(stops), step):
            at = stops[lo:lo + step]
            full = tags[np.add.outer(at - cap, np.arange(cap, dtype=at.dtype))]
            charged += int(np.count_nonzero(full == tags[at][:, None]))
        at = full = None
        tags, lead, low = _sort_arrivals(tags, top.bit_length())
        edges = cuts.astype(tags.dtype)  # searched in the words' own dtype
        rank = np.zeros(total, np.int32 if total < 2**31 else np.int64)  # by place
        start = 0
        for lo in range(0, total, _PASS):
            # after the first, a window starts at the previous one's last
            # key, whose mark it sets aside while it reads the window
            skip = 1 if lo else 0
            part = tags[lo - skip:lo + _PASS]
            head = lead[lo - skip:lo + _PASS]
            mark, head[0] = head[0], not lo
            if len(cuts) > 1:
                run = (part & low) // cap if aligned else np.searchsorted(edges, part & low, "right")
                head[1:] |= run[1:] != run[:-1]
            if np.count_nonzero(head) == len(head) - skip:
                # each key here leads its chain: all ranks 0
                start = lo - skip + len(part) - 1
            else:
                at = np.arange(lo - skip, lo - skip + len(part))
                first = np.where(head, at, start)
                np.maximum.accumulate(first, out=first)
                start = first[-1]
                at -= first
                rank[np.bitwise_and(part[skip:], low, dtype=np.intp)] = at[skip:]
            head[0] = mark
        c.insert_comparisons += charged + int(rank[n:].sum()) + int(rank[into].sum())
        if self.policy is Policy.BUCKET:
            # a bucket run sorts each chain on its own at its drain: the
            # chains that start before the last run
            heads = np.flatnonzero(lead)
            done = (tags[heads] & low) < edges[-1]
            c.sort_comparisons += _sort_cost(np.diff(heads, append=total)[done])

    def drain(self) -> list:
        """Hand the contents over as a plan of one complete run, the form
        fill() returns, and charge the sort counters of that run as fill()
        charges those of the runs it completes (coord's are charged where a
        plan's runs drain); the array is left empty."""
        keys, vals = self.keys, self.vals
        index = np.int32 if len(keys) < 2**31 else np.int64
        cuts = np.array([0, len(keys)], index)
        if self.policy is not Policy.COORD:
            self._charge(keys, cuts[:0], cuts, cuts[:0])
        self.clear()
        return [keys, vals, cuts, np.zeros(2, index)]

    def clear(self) -> None:
        self.load(np.empty(0, self.key_dtype), np.empty(0, VAL_DTYPE))


class AllArray:
    """Sorted-unique accumulator the drains merge into, kept as a log.

    merge() appends each drained run, sorted and unique, to a log. Reading
    keys, vals or size compacts the log into one sorted-unique
    array: a sort of (key, arrival) puts each key's arrivals in drain order,
    the first arrival is the key's start value and later ones add to it in
    that order, so every sum is bit for bit the ``old + new`` of a two-way
    merge per drain. Once a run would make the log hold _LOG_RUNS runs and
    at least as many entries, counting each run's object headers, as the
    last compaction left, merge() compacts the runs before it and logs it
    alone, so the log stays within about the distinct keys plus _LOG_RUNS
    runs.

    A compaction merges a key range at a time and cuts each logged array
    back in place as its entries are merged, which frees the log while the
    result grows. An array something else still refers to is left as it
    is: a run whose caller kept it, and keys or values read before a later
    merge. The compacted keys and values own their buffers.

    The merge counters are charged at compaction, from the distinct keys
    after each run: a run costs its length plus the distinct keys before it
    in comparisons, and each key it repeats is a dedup.
    """

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self._keys = np.empty(0, KEY_DTYPE)
        self._vals = np.empty(0, VAL_DTYPE)
        self._runs: list[list[np.ndarray]] = []  # [keys, values] per run
        self._logged = 0

    def merge(self, new_keys: np.ndarray, new_vals: np.ndarray) -> None:
        """Log a sorted-unique run; its values add after those of every
        earlier run. The compaction frees the run's arrays as it merges
        them, unless the caller still refers to them.

        When the run makes the log due, the runs logged before it are
        compacted and it starts the next log: while this call lasts, its
        caller, and on older Pythons the call itself, still refer to the
        run, but no longer to any run logged before it."""
        self.counters.merges += 1
        runs = len(self._runs) + 1
        if (runs >= _LOG_RUNS
                and self._logged + len(new_keys) + _RUN_ENTRIES * runs >= len(self._keys)):
            self._compact()
        self._runs.append([new_keys, new_vals])
        self._logged += len(new_keys)

    def _compact(self) -> None:
        """Merge the log into the last compacted array and charge its merges.

        The runs are merged a key range at a time, from the highest keys
        down; a range is a suffix of every run. Its arrivals, run after
        run, are sorted by (key, arrival), and each key's sum adds them in
        that order from the first. The output grows in place,
        highest keys first, by at least a sixteenth, and is cut to its
        entries at the end; each run is cut back in place by the suffix it
        gave up, unless something else refers to it."""
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
            runs.insert(0, [self._keys, self._vals])
        self._keys = self._vals = None
        out_keys = np.empty(0, np.result_type(*{k.dtype for k, _ in runs}))
        out_vals = np.empty(0, np.result_type(*{v.dtype for _, v in runs}))
        new = np.zeros(len(runs), np.int64)
        done = 0  # output entries written
        for lows in _ranges(runs, base + int(lengths.sum())):
            # the range's arrivals, run after run, and each run's first
            # place; then each run gives them up, the last range all of it
            starts = np.cumsum([0] + [len(k) - a for (k, _), a in zip(runs, lows)]).tolist()
            n = starts[-1]
            # the runs are sorted: their last keys bound the range's; keys
            # too wide to pack beside an arrival are ranked by the sort, and
            # only then kept aside to be read back
            width = max((int(k[-1]) for (k, _), a in zip(runs, lows) if a < len(k)),
                        default=0).bit_length()
            words = np.concatenate([k[a:] for (k, _), a in zip(runs, lows)],
                                   dtype=np.uint32 if width + _bits(n) <= 32 else np.uint64)
            span = words.copy() if width + _bits(n) > 64 else None
            span_vals = np.concatenate([v[a:] for (_, v), a in zip(runs, lows)])
            if not any(lows):
                runs.clear()
            for run, a in zip(runs, lows):
                if a < len(run[0]):
                    _cut(run, a)
            order, lead, low = _sort_arrivals(words, width)
            del words
            shift = order.dtype.type(low.bit_length())
            # nothing else refers to the output while it grows in place,
            # highest keys first, by at least a sixteenth
            top = done + int(np.count_nonzero(lead)) - 1
            if top >= len(out_keys):
                size = max(top + 1, len(out_keys) + len(out_keys) // 16)
                out_keys.resize(size, refcheck=False)
                out_vals.resize(size, refcheck=False)
            done = top + 1
            # the keys and their sums, a chunk of sorted pairs at a time,
            # the keys that start in a chunk at the next places down
            brought = np.zeros(n, bool)  # the arrivals that bring a key
            group = -1
            for a in range(0, n, _MERGE_PASS):
                f = lead[a:a + _MERGE_PASS]
                arrival = np.bitwise_and(order[a:a + _MERGE_PASS], low, dtype=np.intp)
                where = np.cumsum(f)
                where += group
                fresh = slice(top - int(where[-1]), top - group)
                group = int(where[-1])
                np.subtract(top, where, out=where)
                firsts = arrival[f]
                out_keys[fresh] = (order[a:a + _MERGE_PASS][f] >> shift if span is None
                                   else span.take(firsts))[::-1]
                brought[firsts] = True
                _sum_groups(out_vals, where, span_vals.take(arrival), fresh)
            new += [np.count_nonzero(brought[a:b]) for a, b in zip(starts, starts[1:])]
            del order, lead, span, span_vals, brought
        out_keys.resize(done, refcheck=False)
        out_vals.resize(done, refcheck=False)
        _reverse(out_keys)
        _reverse(out_vals)
        self._keys, self._vals = out_keys, out_vals
        # each logged run met the distinct keys of the base and of the runs
        # before it, and repeated those it did not bring
        new = new[-len(lengths):]
        before = base + np.cumsum(new) - new
        c = self.counters
        c.merge_comparisons += int(lengths.sum() + before.sum())
        c.merge_dedups += int((lengths - new).sum())

    @property
    def held(self) -> bool:
        """Whether the array holds entries, logged or compacted."""
        return bool(self._runs) or bool(len(self._keys))

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


def _bits(n: int) -> int:
    """The bits an index below ``n`` takes, at least one."""
    return max(1, (n - 1).bit_length())


def _sort_cost(sizes: np.ndarray) -> int:
    """Comparisons of sorting groups of the given sizes, n*ceil(log2 n) each."""
    return int((sizes * np.frexp(sizes - 1.0)[1]).sum())


def _sort_arrivals(keys: np.ndarray, width: int, starts: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """The caller's unsigned ``keys`` of at most ``width`` bits, in arrival
    order, packed as ``segment << ... | key << bits | arrival`` in the
    narrower of uint32 and uint64 that holds them, in place if ``keys`` has
    it, and sorted: each segment's keys in order, and each key's arrivals
    in a segment together, in arrival order. Segment ``s`` holds the keys
    from ``starts[s]`` up to the next segment's; without ``starts`` all are
    one. Where a (segment, key) is too wide to pack, it becomes its rank,
    which orders and compares as it does. Returns the words, where each
    (segment, key)'s arrivals start, and ``low``, the arrival bits."""
    n = len(keys)
    bits = _bits(n)
    low = (1 << bits) - 1
    segs = _bits(len(starts)) if starts is not None and len(starts) > 1 else 0
    words = keys.astype(np.uint32 if width + segs + bits <= 32 else np.uint64, copy=False)
    room = 8 * words.itemsize - segs - bits
    if width > room and n:
        width = int(words.max()).bit_length()
        if width > room:  # each (segment, key) becomes its rank
            words[:] = np.unique(words, return_inverse=True)[1].reshape(-1)
            if segs:  # segment * n + key rank, below 2^64, ranked again
                words += np.repeat(np.arange(0, len(starts) * n, n, dtype=words.dtype),
                                   np.diff(starts, append=n))
                words[:] = np.unique(words, return_inverse=True)[1].reshape(-1)
            width, segs = bits, 0
    if segs:
        # each entry's segment counted _PASS entries at a time, without an
        # array of its width over all of them
        shift = words.dtype.type(width)
        mark = np.zeros(n, bool)
        mark[starts[1:]] = True
        seg = 0
        for lo in range(0, n, _PASS):
            part = np.cumsum(mark[lo:lo + _PASS], dtype=words.dtype)
            part += words.dtype.type(seg)
            seg = int(part[-1])
            part <<= shift
            words[lo:lo + _PASS] |= part
    words <<= bits
    for lo in range(0, n, _PASS):
        words[lo:lo + _PASS] |= np.arange(lo, min(lo + _PASS, n), dtype=words.dtype)
    words.sort()
    lead = np.ones(n, bool)
    for lo in range(1, n, _PASS):
        hi = min(lo + _PASS, n)
        np.greater(np.bitwise_xor(words[lo:hi], words[lo - 1:hi - 1]), low, out=lead[lo:hi])
    return words, lead, low


def _masked_into(out: np.ndarray, mask: np.ndarray, src: np.ndarray) -> None:
    """Write the entries of ``src`` that ``mask`` selects over ``out``, in
    order, _PASS at a time."""
    at = 0
    for lo in range(0, len(src), _PASS):
        part = src[lo:lo + _PASS][mask[lo:lo + _PASS]]
        out[at:at + len(part)] = part
        at += len(part)


def _ranges(runs: list[list[np.ndarray]], total: int):
    """For each key range a compaction merges, highest first, where each
    run's sorted keys start it: ranges of about max(_RANGE, total // 16) of
    the runs' ``total`` entries, cut at keys sampled from every run. The
    last range starts at 0 in every run."""
    size = max(_RANGE, total // 16)
    if total > size:
        # at most size // 4 entries between two sampled keys of all runs
        step = max(1, size // (4 * len(runs)))
        sample = np.concatenate([k[step - 1::step] for k, _ in runs])
        sample.sort()
        bounds = sample[::-1][size // step - 1::size // step]
        cuts = [np.searchsorted(k, bounds).tolist() for k, _ in runs]
        for j in range(len(bounds)):
            lows = [c[j] for c in cuts]
            if not any(lows):
                break
            yield lows
    yield [0] * len(runs)


def _cut(run: list[np.ndarray], n: int) -> None:
    """Cut each array of ``run`` to its first ``n`` entries: in place, which
    frees the rest, where nothing else refers to it, else as a view."""
    for i in range(len(run)):
        a = run[i]
        run[i] = None
        try:
            # refcheck: nothing but the name ``a`` may refer to the array
            a.resize(n, refcheck=True)
        except ValueError:
            a = a[:n]
        run[i] = a


def _reverse(a: np.ndarray) -> None:
    """Reverse ``a`` in place, a chunk from each end at a time."""
    i, j = 0, len(a)
    while j - i > 1:
        c = min(_PASS, (j - i) // 2)
        low = a[i:i + c].copy()
        a[i:i + c] = a[j - c:j][::-1]
        a[j - c:j] = low[::-1]
        i += c
        j -= c


class IsmEngine:
    """Drives insert, drain-on-full, merge and final compression for one
    workspace. A run inserts pairs and ends at result(), which hands its
    entries over and leaves the engine empty for the next run; counters
    accumulate across runs. Given each pair's host row, one call runs many
    rows: a row's pairs form runs of their own, and the row ends where a
    later row's start, handed back as it is when it is one run and through
    result() otherwise. An executor builds one engine per workspace per
    execution and calls it once per leaf batch."""

    def __init__(self, extents: Sequence[int], policy: Policy, capacity: int, *,
                 hash_l: int | None = None) -> None:
        if not len(extents):
            raise IsmError("a workspace needs at least one dimension")
        if not all(isinstance(e, numbers.Integral) and 0 <= e <= MAX_EXTENT for e in extents):
            raise IsmError(f"workspace extents {extents} are not integers from 0 to the "
                           f"coordinate limit of 2^32 per slot")
        if (policy is Policy.HASH or hash_l is not None) and (
                not isinstance(hash_l, numbers.Integral) or hash_l < 1):
            raise IsmError(f"hash bucket count {hash_l!r} is not an integer >= 1")
        self.extents = tuple(int(e) for e in extents)
        self.key_count = math.prod(self.extents)
        if self.key_count >= 2 ** 64:
            raise IsmError("workspace key space exceeds 64-bit linearization")
        self.strides = row_major_strides(self.extents)
        # 32-bit keys where every key, and every stride, extent and bucket
        # count that keys are divided by, fits them
        narrow = max(self.key_count, *self.strides, *self.extents, hash_l or 0) < 2**32
        self.key_dtype = np.dtype(np.uint32 if narrow else KEY_DTYPE)
        self.capacity = capacity
        self.counters = Counters()
        self.acc = AccArray(capacity, policy, self.strides[0], hash_l, self.counters,
                            self.key_dtype)
        self.all = AllArray(self.counters)
        # the host row of the open run, if a call gave one
        self.row = None

    # -- inserts -------------------------------------------------------------

    def insert_key(self, key: int, val: float) -> None:
        """Insert one pair under its row-major key: a checked one-pair
        insert_batch."""
        try:
            key = operator.index(key)
        except TypeError:
            raise IsmError(f"key {key!r} is not an integer") from None
        if not 0 <= key < self.key_count:
            raise IsmError(f"key {key} is outside the workspace's {self.key_count} keys")
        val = _real(val)
        if val.ndim:
            raise IsmError(f"values of shape {val.shape} are not one number")
        self.insert_batch(np.array([key], self.key_dtype), val.reshape(1))

    def insert_batch(self, keys: np.ndarray, vals: np.ndarray,
                     rows: np.ndarray | None = None) -> list[tuple]:
        """Insert pairs in order, with the drains, results and counters of
        inserting them one at a time by the chain scan (see AccArray), and
        of ending a run at each change of ``rows``, each pair's host row,
        nondecreasing, if given. The open run continues if the first pair's
        row is its own. Returns what the call ended, as pieces ``(rows,
        counts, coordinates, values)``: rows, each one's entry count, and
        their entries as result() gives them, row after row."""
        keys = np.asarray(keys)
        vals = _real(vals)
        if keys.ndim != 1 or vals.shape != keys.shape:
            raise IsmError(f"keys of shape {keys.shape} and values of shape "
                           f"{vals.shape} are not two 1-D arrays of one length")
        if rows is not None:
            rows = np.asarray(rows)
            if rows.shape != keys.shape:
                raise IsmError(f"host rows of shape {rows.shape} do not match keys of "
                               f"shape {keys.shape}")
            if rows.size and (not np.issubdtype(rows.dtype, np.integer)
                              or np.any(rows[1:] < rows[:-1])
                              or self.row is not None and rows[0] < self.row):
                raise IsmError("host rows are not integers in nondecreasing order, "
                               "from the open run's row on")
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
        ended: list[tuple] = []
        block = max(self.capacity, _BLOCK)
        for lo in range(0, len(keys), block):
            part = labels = None
            if rows is not None:
                part = rows[lo:lo + block]
                if self.row is not None and part[0] != self.row:
                    ended.append(self._end(self.row))
                labels = part[np.append(0, 1 + np.flatnonzero(part[1:] != part[:-1]))
                              if part[0] != part[-1] else [0]]
            plan = list(self.acc.fill(
                keys[lo:lo + block].astype(self.key_dtype, copy=False), vals[lo:lo + block],
                part))
            self.acc.clear()
            # the next block's plan is made without this one
            ended += self._settle(plan, labels)
            if labels is not None:
                self.row = labels[-1]
        return ended

    def _settle(self, plan: list, labels) -> list[tuple]:
        """Drain the complete runs of a plan, ``[kept, sums, cuts, segs]``,
        which this empties, and load its last run. The complete runs, every
        run but the last, drain in one sort of (run, key, arrival). A run
        that is all of a row ending here goes back as it is, with the merge
        counters and peak of a run merged into an empty all array; the all
        array logs every other run, and a row's last logged run ends the
        row through result(). The plan's last row stays open, and its first
        may have runs logged from before the plan. Returns the pieces of the
        rows that end."""
        kept, sums, cuts, segs = plan
        plan.clear()
        done, runs = int(cuts[-1]), len(cuts) - 1
        if not runs:
            # the last run stays loaded: the whole plan
            self.acc.load(kept, sums)
            return []
        c, index = self.counters, cuts.dtype
        c.drains += runs
        coord = self.acc.policy is Policy.COORD
        if coord:
            c.sort_comparisons += _sort_cost(np.diff(cuts)) + done - runs
        # the runs that end a row, and those that are all of one, unless
        # the all array holds runs of the first row from before the plan
        ends = segs[1:] != segs[:-1]
        del segs
        alone = ends.copy()
        alone[1:] &= ends[:-1]
        if alone[0] and self.all.held:
            alone[0] = False
        # each run's keys in order in the sums' buffer, each key's arrivals
        # in arrival order; a sum lands no later than its first arrival,
        # which is already read
        buf = np.empty(done, VAL_DTYPE)
        words = buf.view(np.uint64)
        words[:] = kept[:done]
        order, lead, low = _sort_arrivals(words, 8 * kept.itemsize, cuts[:-1])
        at = np.zeros(runs + 1, index)  # where each run's keys start
        np.add.reduceat(lead, cuts[:-1], dtype=index, out=at[1:])
        np.cumsum(at, out=at)
        ks = np.empty(int(at[-1]), kept.dtype)
        g = -1  # the last key's place
        for lo in range(0, done, _PASS):
            arrival = np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)
            top = lead[lo:lo + _PASS]
            new = int(np.count_nonzero(top))
            ks[g + 1:g + 1 + new] = kept.take(arrival[top])
            if new == len(arrival):
                # each arrival brings its key: its sum as it is
                buf[g + 1:g + 1 + new] = sums.take(arrival)
                g += new
                continue
            group = np.cumsum(top)
            group += g
            fresh = slice(g + 1, g + 1 + new)
            g += new
            _sum_groups(buf, group, sums.take(arrival), fresh)
        del order, lead, words
        arrival = group = None  # the last window's, freed before the runs go out
        if coord:
            c.drain_dedups += done - len(ks)
        # nothing else refers to the sums
        buf.resize(len(ks), refcheck=False)

        def log(o: int) -> None:
            self.all.merge(*(ks, buf) if runs == 1 else
                           (ks[at[o]:at[o + 1]].copy(), buf[at[o]:at[o + 1]].copy()))

        pieces: list[tuple] = []
        row = 0  # the next row that ends, by its segment
        edges = [0, *(np.flatnonzero(alone[1:] != alone[:-1]) + 1).tolist(), runs]
        for a, b in zip(edges, edges[1:]):
            if not alone[a]:
                for o in range(a, b):
                    log(o)
                    if ends[o]:
                        pieces.append(self._end(labels[row]))
                        row += 1
                continue
            # rows of one run each, as a merge into an empty all array
            counts = np.diff(at[a:b + 1]).astype(np.int64)
            c.merges += b - a
            c.merge_comparisons += int(at[b] - at[a])
            c.peak_bytes = max(c.peak_bytes, (int(counts.max()) + self.capacity) * _ELEMENT_BYTES)
            pieces.append((labels[row:row + b - a], counts, self._coords([ks[at[a]:at[b]]]),
                           buf[at[a]:at[b]]))
            row += b - a
        # the last run stays loaded, a copy made once the others are out
        self.acc.load(kept[done:].copy(), sums[done:].copy())
        return pieces

    def _end(self, row) -> tuple:
        """End the open run as the given host row's piece."""
        coords, vals = self.result()
        return np.array([row]), np.array([len(vals)], np.int64), coords, vals

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Drain whatever is left into the all array and note the peak: the
        size the all array ends the run with, once its log is compacted."""
        if self.acc.size:
            # the last run is the one run of a plan, drained as a plan's are
            self._settle(self.acc.drain(), None)
        live = (self.all.size + self.capacity) * _ELEMENT_BYTES
        self.counters.peak_bytes = max(self.counters.peak_bytes, live)

    def result(self) -> tuple[list[np.ndarray], np.ndarray]:
        """End the run: finalize and decode keys back into per-slot
        coordinate arrays of CRD_DTYPE, the tensor's coordinate width, in
        key order. The all array hands its arrays over and starts again
        empty: the values are its own, not a copy, and 32-bit keys that
        nothing else refers to become the last slot's coordinates in place.
        A result() with nothing inserted since the last is an empty run."""
        self.finalize()
        vals = self.all.vals
        box = [self.all.keys]
        self.all = AllArray(self.counters)
        self.row = None
        return self._coords(box), vals

    def _coords(self, box: list) -> list[np.ndarray]:
        """The keys ``box`` holds, which it lets go of, decoded into per-slot
        coordinates: the last slot's in place, where nothing else refers to
        the keys' buffer, and a lone slot's are the keys themselves."""
        keys = box.pop()
        last = len(self.extents) - 1
        coords = []
        for slot, (s, e) in enumerate(zip(self.strides, self.extents)):
            # the last slot's stride is 1: its coordinates are the keys'
            # remainders, written over them when nothing but the name
            # ``keys`` refers to their buffer
            if slot == last and keys.dtype == CRD_DTYPE and (
                    not slot or keys.flags.owndata and sys.getrefcount(keys) == 2):
                if slot:
                    np.remainder(keys, e, out=keys)
                coords.append(keys)
                break
            crd = np.empty(len(keys), CRD_DTYPE)
            # slot 0's quotient is already below its extent; only a
            # middle slot needs a quotient array
            if slot == 0:
                np.floor_divide(keys, s, out=crd, casting="unsafe")
            else:
                np.remainder(keys if s == 1 else keys // s, e, out=crd, casting="unsafe")
            coords.append(crd)
        return coords


def _real(vals) -> np.ndarray:
    """Values of a bool, integer or float dtype as VAL_DTYPE, else IsmError."""
    vals = np.asarray(vals)
    if vals.dtype.kind not in "biuf":
        raise IsmError(f"values of dtype {vals.dtype} are not real numbers")
    return vals.astype(VAL_DTYPE, copy=False)
