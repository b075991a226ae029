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
unsigned integers: (key, arrival) finds each key's first arrival in its run
and the slot its repeats add into, and (chain, place) ranks each kept key
in its bucket's chain. No index array of the platform's width spans a plan.
A coord drain and a compaction sort (key, arrival) the same way, and every
sum adds a key's values in arrival order (``tensor._sum_groups``).

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
# sorted pairs a plan, a drain or a compaction reads at a time: bounds the
# scratch of each pass over them
_PASS = 2**10
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

    def fill(self, keys: np.ndarray, vals: np.ndarray) -> tuple:
        """Plan the inserts of a batch after the current contents, charging
        the counters of one chain scan per pair. Each new key that finds the
        array full ends a full run: the contents as they are at that moment.
        Returns the plan: the keys each run keeps and their sums, run after
        run in arrival order, and where each run starts among them. Every
        run but the last ends where the next starts, and the caller drains
        them in order; the last, the rest, runs to the end and the caller
        loads it.

        Arrivals are numbered from the contents' first; the contents hold
        distinct keys, so each of them is new. The plan sorts one uint64
        per pair, its key above its arrival, in place, which puts each
        key's arrivals together in arrival order; beside it, it holds masks
        and 32-bit arrays over the pairs, and it reads the sorted array
        _PASS pairs at a time."""
        n = self.size
        if self.policy is Policy.COORD:
            # coord appends blindly: runs are slices of exactly the capacity,
            # and a full array drains only when one more pair arrives
            keys, vals = np.concatenate((self.keys, keys)), np.concatenate((self.vals, vals))
            return keys, vals, range(0, max(len(keys), 1), self.capacity)
        total = n + len(keys)
        index = np.int32 if total < 2**31 else np.int64
        order, lead, low = _sort_arrivals(np.concatenate((self.keys, keys), dtype=np.uint64),
                                          8 * keys.itemsize)
        if total > self.capacity:
            # the previous arrival of the same key, -1 at its first
            prev = np.full(total, -1, index)
            for lo in range(0, total, _PASS):
                arrival = np.bitwise_and(order[max(lo - 1, 0):lo + _PASS], low, dtype=np.intp)
                same = ~lead[max(lo - 1, 0):lo + _PASS][1:]
                prev[arrival[1:][same]] = arrival[:-1][same]
            new = self._new(prev)
            del prev
        else:
            # one run: an arrival is new where its key first arrives
            new = np.empty(total, bool)
            for lo in range(0, total, _PASS):
                new[np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)] = lead[lo:lo + _PASS]
        # in key order each repeat adds into the latest new arrival before
        # it, its key's first in its run, and the sums add in that order
        into, repeats, last = [], [], 0
        for lo in range(0, total, _PASS):
            arrival = np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)
            fresh = lead[lo:lo + _PASS] if total <= self.capacity else new[arrival]
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
        into = np.concatenate(into) if into else np.empty(0, index)
        if len(into):
            # each repeat's slot: its key's place among the kept keys
            place = new.cumsum(dtype=index)
            into = place[into]
            del place
            into -= 1
        slots = int(np.count_nonzero(new))
        kept = np.empty(slots, self.key_dtype)
        kept[:n] = self.keys
        _masked_into(kept[n:], new[n:], keys)
        self._charge(kept, into)
        sums = np.empty(slots, VAL_DTYPE)
        sums[:n] = self.vals
        _masked_into(sums[n:], new[n:], vals)
        del new
        if repeats:
            _sum_groups(sums, into, np.concatenate(repeats))
        # each full run keeps exactly a capacity of keys
        return kept, sums, range(0, max(slots, 1), self.capacity)

    def _new(self, prev: np.ndarray) -> np.ndarray:
        """Which arrivals are new in their run. A run starts at the new key
        past the capacity, counting the keys new since its own start; the
        arrivals are read in windows that double from the capacity up to
        _PASS, so a run costs about its own length."""
        cap, total = self.capacity, len(prev)
        new = np.empty(total, bool)
        start = lo = seen = 0
        look = min(cap + 1, _PASS)
        while lo < total:
            window = new[lo:lo + look]
            np.less(prev[lo:lo + look], start, out=window)
            found = int(np.count_nonzero(window))
            if seen + found > cap:
                # the next run starts here; its own arrivals are read again
                start = lo + int(np.flatnonzero(window)[cap - seen])
                lo, seen, look = start, 0, min(cap + 1, _PASS)
            else:
                lo, seen, look = lo + look, seen + found, min(2 * look, _PASS)
        return new

    def _charge(self, kept: np.ndarray, into: np.ndarray) -> None:
        """Charge the insert counters of a plan. A key's chain rank counts
        the earlier kept keys of its bucket in its run: a new key scans its
        whole chain, a repeat its chain up to its key (``into`` holds the
        place of each repeat's key), and a key that finds the array full
        the whole chain there. The live contents, the first ``size`` kept
        keys, were charged when they went in. Each run keeps a capacity of
        keys, so a key's run is its place over the capacity, and one sort
        of (chain, place) puts each chain of each run together in arrival
        order."""
        c = self.counters
        c.insert_comparisons += len(into)
        c.insert_dedups += len(into)
        if self.policy is Policy.BUCKET and self.lead_stride == 1:
            return  # a bucket per key: no key scans past another
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
        # the first key of each run after the first found the run before it
        # full and scanned its chain there: each key of that run in it
        stops = tags[cap::cap]
        charged = int(np.count_nonzero(tags[:len(stops) * cap].reshape(-1, cap)
                                       == stops[:, None]))
        tags, lead, low = _sort_arrivals(tags, top.bit_length())
        rank = np.zeros(total, np.int32 if total < 2**31 else np.int64)  # by place
        start = 0
        for lo in range(0, total, _PASS):
            # after the first, a window starts at the previous one's last
            # key; it overwrites marks that no later window reads
            skip = 1 if lo else 0
            part = tags[lo - skip:lo + _PASS]
            head = lead[lo - skip:lo + _PASS]
            head[0] = not lo
            if total > cap:
                run = (part & low) // cap
                head[1:] |= run[1:] != run[:-1]
            if np.count_nonzero(head) == len(head) - skip:
                # each key here leads its chain: all ranks 0
                start = lo - skip + len(part) - 1
                continue
            at = np.arange(lo - skip, lo - skip + len(part))
            first = np.where(head, at, start)
            np.maximum.accumulate(first, out=first)
            start = first[-1]
            at -= first
            rank[np.bitwise_and(part[skip:], low, dtype=np.intp)] = at[skip:]
        c.insert_comparisons += charged + int(rank[n:].sum()) + int(rank[into].sum())

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort the contents by key and return them; the array keeps its
        contents until clear() is called. Under COORD, the contents' values
        of one key add in arrival order, from the first."""
        n = self.size
        c = self.counters
        if n <= 1:
            # nothing to compare under any policy
            return self.keys.copy(), self.vals.copy()
        if self.policy is not Policy.COORD:
            # distinct keys: any sort orders them as a stable one does
            order = np.argsort(self.keys)
            ks, vs = self.keys[order], self.vals[order]
            if self.policy is Policy.HASH:
                c.sort_comparisons += n * ceil_log2(n)
                return ks, vs
            # each chain is sorted on its own; a bucket per key costs nothing
            for lo, hi in _groups(ks, self.lead_stride) if self.lead_stride > 1 else ():
                lead = ks[lo:hi] // self.lead_stride
                sizes = np.diff(np.flatnonzero(np.concatenate(
                    ([True], lead[1:] != lead[:-1], [True]))))
                c.sort_comparisons += int((sizes * np.frexp(sizes - 1.0)[1]).sum())
            return ks, vs
        # coord sorts (key, arrival) in the values' buffer (uint64: keys
        # take 32 bits or more) and sums into it a span at a time: a key's
        # sum lands no later than its first pair, which is already read
        c.sort_comparisons += n * ceil_log2(n) + n - 1
        vs = np.empty(n, VAL_DTYPE)
        vs.view(np.uint64)[:] = self.keys
        order, lead, low = _sort_arrivals(vs.view(np.uint64), 8 * self.keys.itemsize)
        kept = int(np.count_nonzero(lead))
        ks = np.empty(kept, self.keys.dtype)
        group = -1  # the last key's place
        for lo in range(0, n, _PASS):
            arrival = np.bitwise_and(order[lo:lo + _PASS], low, dtype=np.intp)
            first = lead[lo:lo + _PASS]
            at = np.cumsum(first)
            at += group
            # the keys that start in the span take the next places
            fresh = slice(group + 1, int(at[-1]) + 1)
            group = fresh.stop - 1
            ks[fresh] = self.keys.take(arrival[first])
            _sum_groups(vs, at, self.vals.take(arrival), fresh)
        del order, lead
        c.drain_dedups += n - kept
        # nothing else refers to the values
        vs.resize(kept, refcheck=False)
        return ks, vs

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
            span = np.concatenate([k[a:] for (k, _), a in zip(runs, lows)])
            span_vals = np.concatenate([v[a:] for (_, v), a in zip(runs, lows)])
            if not any(lows):
                runs.clear()
            for run, a in zip(runs, lows):
                if a < len(run[0]):
                    _cut(run, a)
            n = len(span)
            order, lead, low = _sort_arrivals(span.astype(np.uint64), 8 * span.itemsize)
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
            for a in range(0, n, _PASS):
                f = lead[a:a + _PASS]
                arrival = np.bitwise_and(order[a:a + _PASS], low, dtype=np.intp)
                where = np.cumsum(f)
                where += group
                fresh = slice(top - int(where[-1]), top - group)
                group = int(where[-1])
                np.subtract(top, where, out=where)
                firsts = arrival[f]
                out_keys[fresh] = span.take(firsts)[::-1]
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


def _sort_arrivals(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The caller's unsigned ``keys`` of at most ``width`` bits, in arrival
    order, packed as ``key << bits | arrival`` in the narrower of uint32 and
    uint64 that holds them, in place if ``keys`` has it, and sorted: each
    key's arrivals together, in arrival order. Keys too wide to pack become
    their ranks, which order and compare as they do. Returns the words,
    where each key's arrivals start, and ``low``, the arrival bits."""
    n = len(keys)
    bits = _bits(n)
    low = (1 << bits) - 1
    words = keys.astype(np.uint32 if width + bits <= 32 else np.uint64, copy=False)
    room = 8 * words.itemsize - bits
    if width > room and n and int(words.max()) >> room:
        words[:] = np.unique(words, return_inverse=True)[1].reshape(-1)
    words <<= bits
    for lo in range(0, n, _PASS):
        words[lo:lo + _PASS] |= np.arange(lo, min(lo + _PASS, n), dtype=words.dtype)
    words.sort()
    lead = np.ones(n, bool)
    for lo in range(1, n, _PASS):
        hi = min(lo + _PASS, n)
        np.greater(np.bitwise_xor(words[lo:hi], words[lo - 1:hi - 1]), low, out=lead[lo:hi])
    return words, lead, low


def _groups(keys: np.ndarray, width: int):
    """Spans ``(lo, hi)`` of sorted ``keys``, _PASS keys each and on to
    where the last one's group of keys that share ``key // width`` ends."""
    lo, n = 0, len(keys)
    while lo < n:
        hi = min(lo + _PASS, n)
        if hi < n:
            last = min(int(keys[hi - 1]) // width * width + width - 1, int(keys[-1]))
            hi += int(np.searchsorted(keys[hi:], keys.dtype.type(last), "right"))
        yield lo, hi
        lo = hi


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
    accumulate across runs. An executor builds one engine per workspace
    per execution and runs it once per host row that inserts into it."""

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

    def insert_batch(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Insert pairs in order, with the drains, results and counters of
        inserting them one at a time by the chain scan (see AccArray)."""
        keys = np.asarray(keys)
        vals = _real(vals)
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
            # the next block's plan is made without this one
            del kept, sums
            done += block

    def _flush(self) -> None:
        """Drain the accumulate array into the all array."""
        self.counters.drains += 1
        keys, vals = self.acc.drain()
        self.all.merge(keys, vals)
        self.acc.clear()

    # -- finalization --------------------------------------------------------

    def finalize(self) -> None:
        """Drain whatever is left into the all array and note the peak: the
        size the all array ends the run with, once its log is compacted."""
        if self.acc.size:
            self._flush()
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
        keys, vals = self.all.keys, self.all.vals
        self.all = AllArray(self.counters)
        last = len(self.extents) - 1
        coords = []
        for slot, (s, e) in enumerate(zip(self.strides, self.extents)):
            # the last slot's stride is 1: its coordinates are the keys'
            # remainders, written over them when nothing but the name
            # ``keys`` refers to their buffer
            if (slot == last and keys.dtype == CRD_DTYPE and keys.flags.owndata
                    and sys.getrefcount(keys) == 2):
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
        return coords, vals


def _real(vals) -> np.ndarray:
    """Values of a bool, integer or float dtype as VAL_DTYPE, else IsmError."""
    vals = np.asarray(vals)
    if vals.dtype.kind not in "biuf":
        raise IsmError(f"values of dtype {vals.dtype} are not real numbers")
    return vals.astype(VAL_DTYPE, copy=False)
