"""Monotone-key priority queues: two-level bucket, bucket/heap hybrid, binary heap.

All three present the same push/pop/peek/stats surface so the solvers can swap
them freely. Keys are the search's primary f-values. One rule holds for every
kind: a push below `floor`, the last key `pop` or `peek` returned, is refused
with MonotonicityError. It is A*'s monotone-insertion contract, and what lets
the bucket kinds scan strictly left to right, never rewinding. All kinds share
one `peek` and one `pop`, which record `floor`; each kind only finds its head.

The two bucket kinds share one high level (`_Buckets`): one push, and one scan
that examines each high index at most once, left to right, and enters the
first non-empty bucket. A push into the entered bucket goes to the kind's
level below: a LIFO or FIFO bucket for `BucketQueue`, a binary heap for
`HybridQueue`. A one-level bucket queue (delta_f 1) examines and counts
bucket 0 on its first pop; a two-level or hybrid queue sends pushes into
bucket 0 straight to its level below, and examines and counts index 0 only
when that level first runs dry.

queue_ops semantics per kind:
  bucket      -- bucket indices examined (both levels; each index at most once)
  hybrid      -- high indices examined + nodes transferred high->low + heap levels moved
  binary_heap -- heap levels moved, one per swap of a swapping sift
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

BUCKET = "bucket"
HYBRID = "hybrid"
BINARY_HEAP = "binary_heap"

TIE_NONE_LIFO = "none_lifo"
TIE_NONE_FIFO = "none_fifo"
TIE_SECONDARY = "secondary"


class MonotonicityError(ValueError):
    """Key pushed below the queue's floor or outside [f_min, f_max]."""


@dataclass(frozen=True)
class QueueConfig:
    """none_lifo is LIFO only on a bucket queue (a, b, c, d pushed at one key pop
    d, c, b, a); on the hybrid and binary-heap kinds it means no tie-breaking
    (they pop a, d, c, b). none_fifo is for bucket queues, secondary for heaps."""
    kind: str
    f_min: int = 0
    f_max: int = 0
    delta_f: int = 1
    tie_policy: str = TIE_NONE_LIFO

    def validate(self) -> None:
        if self.kind not in (BUCKET, HYBRID, BINARY_HEAP):
            raise ValueError(f"unknown queue kind {self.kind!r}")
        if self.kind != BINARY_HEAP and self.f_max < self.f_min:
            raise ValueError("f_max must be >= f_min")
        if self.delta_f < 1:
            raise ValueError("delta_f must be >= 1")
        if self.kind == BUCKET and self.tie_policy == TIE_SECONDARY:
            raise ValueError("bucket queues use linked lists and cannot tie-break; "
                             "pick none_lifo or none_fifo")
        if self.kind in (HYBRID, BINARY_HEAP) and self.tie_policy == TIE_NONE_FIFO:
            raise ValueError(f"{self.kind} supports tie policies none_lifo and secondary only")
        if self.tie_policy not in (TIE_NONE_LIFO, TIE_NONE_FIFO, TIE_SECONDARY):
            raise ValueError(f"unknown tie policy {self.tie_policy!r}")


@dataclass(slots=True)
class QueueStats:
    pushes: int = 0
    pops: int = 0
    queue_ops: int = 0
    peak_size: int = 0

    def snapshot(self) -> "QueueStats":
        return replace(self)


def bucket_count(f_min: int, f_max: int, delta_f: int) -> int:
    """Number of high-level buckets needed so f_min lands in the first and f_max in the last."""
    return (f_max - f_min) // delta_f + 1


def new_queue(cfg: QueueConfig):
    cfg.validate()
    if cfg.kind == BUCKET:
        return BucketQueue(cfg)
    if cfg.kind == HYBRID:
        return HybridQueue(cfg)
    return BinaryHeapQueue(cfg)


class _CountingHeap:
    """Array binary heap on (kp,) or, with `tie_break`, (kp, ks) of each
    entry. A sift moves each entry it passes one level and writes the
    sifting entry once, into the hole where it stops; `queue_ops` counts one
    op per level moved, as many as the swaps of a swapping sift."""

    __slots__ = ("items", "tie_break", "stats")

    def __init__(self, tie_break: bool, stats: QueueStats):
        self.items: list[tuple] = []
        self.tie_break = tie_break
        self.stats = stats

    def push(self, entry) -> None:
        items = self.items
        i = len(items)
        items.append(entry)
        kp, ks, tie = entry[0], entry[1], self.tie_break
        moved = 0
        while i:
            parent = (i - 1) >> 1
            up = items[parent]
            if kp < up[0] or (tie and kp == up[0] and ks < up[1]):
                items[i] = up
                i = parent
                moved += 1
            else:
                break
        if moved:
            items[i] = entry
            self.stats.queue_ops += moved

    def peek(self):
        return self.items[0]

    def pop(self):
        items = self.items
        top = items[0]
        last = items.pop()
        n = len(items)
        if n:
            kp, ks, tie = last[0], last[1], self.tie_break
            i = 0
            child = 1
            while child < n:
                down = items[child]
                right = child + 1
                if right < n:
                    other = items[right]
                    if other[0] < down[0] or (tie and other[0] == down[0] and other[1] < down[1]):
                        child, down = right, other
                if down[0] < kp or (tie and down[0] == kp and down[1] < ks):
                    items[i] = down
                    i = child
                    child = 2 * i + 1
                else:
                    break
            items[i] = last
            self.stats.queue_ops += (i + 1).bit_length() - 1
        return top


class _QueueBase:
    """One `peek` and one `pop` for every kind (None when empty); a kind reads
    its head with `_head()` and removes it with `_take()`. A push below `floor`
    raises `_behind`."""

    def __init__(self, cfg: QueueConfig):
        self.cfg = cfg
        self._stats = QueueStats()
        self.size = 0
        self.floor = -math.inf  # the last key pop or peek returned

    def __len__(self):
        return self.size

    def stats(self) -> QueueStats:
        return self._stats.snapshot()

    def _behind(self, key: int) -> MonotonicityError:
        return MonotonicityError(f"key {key} is behind the last returned key {self.floor}")

    def peek(self):
        if self.size == 0:
            return None
        item = self._head()
        self.floor = item[0]
        return item

    def pop(self):
        if self.size == 0:
            return None
        item = self._take()
        self.floor = item[0]
        self.size -= 1
        self._stats.pops += 1
        return item


def _take_first(buckets: list, i: int, stats: QueueStats):
    """(index, bucket) of the first non-empty bucket at index i or later, taken
    out of `buckets`; one queue op per index examined."""
    j = i
    while not buckets[j]:
        j += 1
    stats.queue_ops += j + 1 - i
    bucket = buckets[j]
    buckets[j] = None
    return j, bucket


class _Buckets(_QueueBase):
    """High-level buckets of delta_f keys each, scanned once left to right.

    `k` is the entered index: a push there goes to the level below through
    `_push_low`, a push above it to its high bucket (made on its first push,
    so a new queue costs one slot per bucket). No push lands below it, as
    every key there is below `floor`. `k` starts at 0, so pushes into bucket
    0 go straight to the level below until `_enter` first runs. `_enter`
    examines indices from `next` (the first unexamined one) on, one queue op
    and one high check each, takes the first non-empty bucket out of the
    array and enters its index, so each index is examined at most once over
    the queue's lifetime.
    """

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.bucket_size = bucket_count(cfg.f_min, cfg.f_max, cfg.delta_f)
        self.high: list = [None] * self.bucket_size
        self.k = 0
        self.next = 0
        self.high_checks = 0  # high-level scan examinations, bounded by bucket_size
        self.make = list  # container of a bucket

    def push(self, key_primary: int, key_secondary: int, payload) -> None:
        cfg = self.cfg
        if key_primary < cfg.f_min or key_primary > cfg.f_max:
            raise MonotonicityError(
                f"key {key_primary} outside queue range [{cfg.f_min}, {cfg.f_max}]")
        hi = (key_primary - cfg.f_min) // cfg.delta_f
        item = (key_primary, key_secondary, payload)
        if hi <= self.k:  # a key above bucket k is above floor
            if key_primary < self.floor:
                raise self._behind(key_primary)
            self._push_low(item)
        else:
            bucket = self.high[hi]
            if bucket is None:
                bucket = self.high[hi] = self.make()
            bucket.append(item)
        stats = self._stats
        stats.pushes += 1
        size = self.size = self.size + 1
        if size > stats.peak_size:
            stats.peak_size = size

    def _enter(self):
        """Take the next non-empty high bucket out of the array and enter its index."""
        self.k, bucket = _take_first(self.high, self.next, self._stats)
        self.high_checks += self.k + 1 - self.next
        self.next = self.k + 1
        return bucket


class BucketQueue(_Buckets):
    """Two-level bucket queue over linked-list buckets (LIFO or FIFO extraction).

    Nodes are popped from a `current` bucket. With delta_f == 1 that is the
    entered high bucket itself, and bucket 0 is examined and counted on the
    first pop. Otherwise it is the next non-empty one of delta_f low buckets,
    filled from the entered high bucket and scanned the same way (one queue op
    per low index examined); pushes into high bucket 0 go straight to the low
    level, and index 0 is examined and counted only when that first runs dry.
    """

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.fifo = cfg.tie_policy == TIE_NONE_FIFO
        self.make = deque if self.fifo else list
        self.current = self.make()
        self.one_level = cfg.delta_f == 1
        if self.one_level:
            self.k = -1  # so bucket 0 is examined on the first pop
        else:
            self.low: list = [None] * cfg.delta_f
            self.low_count = 0  # nodes in the low buckets, the current one not included
            self.low_j = -1  # the entered low index
            self.low_next = 0

    def _push_low(self, item) -> None:
        if self.one_level:
            self.current.append(item)
            return
        j = (item[0] - self.cfg.f_min) % self.cfg.delta_f
        if j <= self.low_j:
            self.current.append(item)
            return
        bucket = self.low[j]
        if bucket is None:
            bucket = self.low[j] = self.make()
        bucket.append(item)
        self.low_count += 1

    def _refill(self):
        if self.one_level:
            self.current = self._enter()
            return self.current
        if not self.low_count:
            self.low_j = -1
            self.low_next = 0
            for item in self._enter():
                self._push_low(item)
        self.low_j, self.current = _take_first(self.low, self.low_next, self._stats)
        self.low_next = self.low_j + 1
        self.low_count -= len(self.current)
        return self.current

    def _head(self):
        bucket = self.current or self._refill()
        return bucket[0] if self.fifo else bucket[-1]

    def _take(self):
        bucket = self.current or self._refill()
        return bucket.popleft() if self.fifo else bucket.pop()


class HybridQueue(_Buckets):
    """High-level buckets with a binary heap as the low level.

    The heap holds the entered bucket's nodes; when it runs dry, the next
    non-empty bucket moves into it wholesale (one queue op per node moved,
    plus the levels its sifts move). Pushes into bucket 0 go straight to the
    heap, and index 0 is examined and counted only when the heap first runs
    dry.
    """

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.heap = _CountingHeap(cfg.tie_policy == TIE_SECONDARY, self._stats)
        self._push_low = self.heap.push

    def _fill(self) -> _CountingHeap:
        if not self.heap.items:
            for item in self._enter():
                self._stats.queue_ops += 1  # node transferred high -> low
                self.heap.push(item)
        return self.heap

    def _head(self):
        return self._fill().peek()

    def _take(self):
        return self._fill().pop()


class BinaryHeapQueue(_QueueBase):
    """Plain binary heap; delta_f and the f range are irrelevant to it."""

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.heap = _CountingHeap(cfg.tie_policy == TIE_SECONDARY, self._stats)
        self._head, self._take = self.heap.peek, self.heap.pop

    def push(self, key_primary: int, key_secondary: int, payload) -> None:
        if key_primary < self.floor:
            raise self._behind(key_primary)
        self.heap.push((key_primary, key_secondary, payload))
        stats = self._stats
        stats.pushes += 1
        size = self.size = self.size + 1
        if size > stats.peak_size:
            stats.peak_size = size
