"""Monotone-key priority queues: two-level bucket, bucket/heap hybrid, binary heap.

All three present the same push/pop/peek/stats surface so the solvers can swap
them freely. Keys are the search's primary f-values; the monotone-insertion
contract of A* (no push below the already-drained region) is what lets the
bucket kinds scan strictly left-to-right, never rewinding.

queue_ops semantics per kind:
  bucket      -- buckets checked/drained (both levels; each index at most once)
  hybrid      -- buckets checked + nodes transferred high->low + heap swaps
  binary_heap -- heap swaps
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

BUCKET = "bucket"
HYBRID = "hybrid"
BINARY_HEAP = "binary_heap"

TIE_NONE_LIFO = "none_lifo"
TIE_NONE_FIFO = "none_fifo"
TIE_SECONDARY = "secondary"


class MonotonicityError(ValueError):
    """Key pushed below the already-drained region or outside [f_min, f_max]."""


@dataclass(frozen=True)
class QueueConfig:
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
    """Array binary heap that counts element swaps; compares (kp,) or (kp, ks)."""

    __slots__ = ("items", "tie_break", "stats")

    def __init__(self, tie_break: bool, stats: QueueStats):
        self.items: list[tuple] = []
        self.tie_break = tie_break
        self.stats = stats

    def __len__(self):
        return len(self.items)

    def _less(self, a, b) -> bool:
        if a[0] != b[0]:
            return a[0] < b[0]
        return self.tie_break and a[1] < b[1]

    def push(self, entry) -> None:
        items = self.items
        items.append(entry)
        i = len(items) - 1
        while i > 0:
            parent = (i - 1) >> 1
            if self._less(items[i], items[parent]):
                items[i], items[parent] = items[parent], items[i]
                self.stats.queue_ops += 1
                i = parent
            else:
                break

    def peek(self):
        return self.items[0]

    def pop(self):
        items = self.items
        top = items[0]
        last = items.pop()
        n = len(items)
        if n:
            items[0] = last
            i = 0
            while True:
                left = 2 * i + 1
                if left >= n:
                    break
                child = left
                right = left + 1
                if right < n and self._less(items[right], items[left]):
                    child = right
                if self._less(items[child], items[i]):
                    items[i], items[child] = items[child], items[i]
                    self.stats.queue_ops += 1
                    i = child
                else:
                    break
        return top


class _QueueBase:
    def __init__(self, cfg: QueueConfig):
        self.cfg = cfg
        self._stats = QueueStats()
        self.size = 0

    def __len__(self):
        return self.size

    def stats(self) -> QueueStats:
        return self._stats.snapshot()

    def _note_push(self):
        self._stats.pushes += 1
        self.size += 1
        if self.size > self._stats.peak_size:
            self._stats.peak_size = self.size


class BucketQueue(_QueueBase):
    """Two-level bucket queue over linked-list buckets (LIFO or FIFO extraction).

    With delta_f == 1 it degenerates to a one-level queue: nodes live directly
    in the high-level buckets and no transfer step exists. Each bucket index is
    examined (counted) at most once over the queue's lifetime; an entered
    bucket drains for free and the scan then moves past it. A bucket is None
    until its first push, so building a queue costs one list of bucket_size
    slots, whatever the range.
    """

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.bucket_size = bucket_count(cfg.f_min, cfg.f_max, cfg.delta_f)
        self.one_level = cfg.delta_f == 1
        self.fifo = cfg.tie_policy == TIE_NONE_FIFO
        self.make = deque if self.fifo else list
        self.high: list = [None] * self.bucket_size
        if self.one_level:
            self.low = None
        else:
            self.low = [None] * cfg.delta_f
            self.low_count = 0
            self.low_j = 0
            self.low_entered = False
        self.k = 0
        self.entered = False
        self.high_checks = 0  # high-level scan examinations, bounded by bucket_size

    def _head(self, container):
        return container[0] if self.fifo else container[-1]

    def push(self, key_primary: int, key_secondary: int, payload) -> None:
        cfg = self.cfg
        if key_primary < cfg.f_min or key_primary > cfg.f_max:
            raise MonotonicityError(
                f"key {key_primary} outside queue range [{cfg.f_min}, {cfg.f_max}]")
        off = key_primary - cfg.f_min
        item = (key_primary, key_secondary, payload)
        if self.one_level:
            if off < self.k:
                raise MonotonicityError(
                    f"key {key_primary} is behind the drained region (scan at bucket {self.k})")
            bucket = self.high[off]
            if bucket is None:
                bucket = self.high[off] = self.make()
            bucket.append(item)
        else:
            hi = off // cfg.delta_f
            if hi < self.k:
                raise MonotonicityError(
                    f"key {key_primary} is behind the drained region (scan at bucket {self.k})")
            if hi == self.k:
                j = off % cfg.delta_f
                if j < self.low_j:
                    raise MonotonicityError(
                        f"key {key_primary} is behind the drained low-level region")
                bucket = self.low[j]
                if bucket is None:
                    bucket = self.low[j] = self.make()
                bucket.append(item)
                self.low_count += 1
            else:
                bucket = self.high[hi]
                if bucket is None:
                    bucket = self.high[hi] = []
                bucket.append(item)
        stats = self._stats
        stats.pushes += 1
        size = self.size = self.size + 1
        if size > stats.peak_size:
            stats.peak_size = size

    def _advance_one_level(self) -> None:
        # Re-examining the entered bucket after it drained is free; fresh indices cost 1.
        if self.entered and self.high[self.k]:
            return
        if self.entered:
            self.k += 1
            self.entered = False
        while True:
            self._stats.queue_ops += 1
            self.high_checks += 1
            if self.high[self.k]:
                self.entered = True
                return
            self.k += 1

    def _advance_two_level(self) -> None:
        while True:
            if self.low_count:
                if self.low_entered and self.low[self.low_j]:
                    return
                if self.low_entered:
                    self.low_j += 1
                    self.low_entered = False
                while self.low_j < self.cfg.delta_f:
                    self._stats.queue_ops += 1
                    if self.low[self.low_j]:
                        self.low_entered = True
                        return
                    self.low_j += 1
                raise AssertionError("low-level node count desynced from buckets")
            # Low level exhausted: pull the next non-empty high bucket into it.
            if self.entered:
                self.k += 1
                self.entered = False
            while True:
                self._stats.queue_ops += 1
                self.high_checks += 1
                if self.high[self.k]:
                    self.entered = True
                    break
                self.k += 1
            moved = self.high[self.k]
            self.high[self.k] = None
            self.low_j = 0
            self.low_entered = False
            low = self.low
            for item in moved:
                j = (item[0] - self.cfg.f_min) % self.cfg.delta_f
                bucket = low[j]
                if bucket is None:
                    bucket = low[j] = self.make()
                bucket.append(item)
            self.low_count += len(moved)

    def _current(self):
        if self.one_level:
            self._advance_one_level()
            return self.high[self.k]
        self._advance_two_level()
        return self.low[self.low_j]

    def peek(self):
        if self.size == 0:
            return None
        return self._head(self._current())

    def pop(self):
        if self.size == 0:
            return None
        bucket = self._current()
        item = bucket.popleft() if self.fifo else bucket.pop()
        if not self.one_level:
            self.low_count -= 1
        self.size -= 1
        self._stats.pops += 1
        return item


class HybridQueue(_QueueBase):
    """High-level buckets with a binary heap as the low level.

    The heap holds the current bucket's nodes; advancing the scan transfers the
    next non-empty bucket wholesale into the heap (one op counted per node
    moved, plus the sift swaps). A bucket is None until its first push.
    """

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.bucket_size = bucket_count(cfg.f_min, cfg.f_max, cfg.delta_f)
        self.high: list = [None] * self.bucket_size
        self.heap = _CountingHeap(cfg.tie_policy == TIE_SECONDARY, self._stats)
        self.k = 0
        self.entered = False

    def push(self, key_primary: int, key_secondary: int, payload) -> None:
        if key_primary < self.cfg.f_min or key_primary > self.cfg.f_max:
            raise MonotonicityError(
                f"key {key_primary} outside queue range [{self.cfg.f_min}, {self.cfg.f_max}]")
        hi = (key_primary - self.cfg.f_min) // self.cfg.delta_f
        if hi < self.k:
            raise MonotonicityError(
                f"key {key_primary} is behind the drained region (scan at bucket {self.k})")
        item = (key_primary, key_secondary, payload)
        if hi == self.k:
            self.heap.push(item)
        else:
            bucket = self.high[hi]
            if bucket is None:
                bucket = self.high[hi] = []
            bucket.append(item)
        self._note_push()

    def _fill_heap(self) -> None:
        while not len(self.heap):
            if self.entered:
                self.k += 1
                self.entered = False
            while True:
                self._stats.queue_ops += 1
                if self.high[self.k]:
                    self.entered = True
                    break
                self.k += 1
            for item in self.high[self.k]:
                self._stats.queue_ops += 1  # node transferred high -> low
                self.heap.push(item)
            self.high[self.k] = None

    def peek(self):
        if self.size == 0:
            return None
        self._fill_heap()
        return self.heap.peek()

    def pop(self):
        if self.size == 0:
            return None
        self._fill_heap()
        item = self.heap.pop()
        self.size -= 1
        self._stats.pops += 1
        return item


class BinaryHeapQueue(_QueueBase):
    """Plain binary heap; delta_f and the f range are irrelevant to it."""

    def __init__(self, cfg: QueueConfig):
        super().__init__(cfg)
        self.heap = _CountingHeap(cfg.tie_policy == TIE_SECONDARY, self._stats)
        self._last_popped = None

    def push(self, key_primary: int, key_secondary: int, payload) -> None:
        if self._last_popped is not None and key_primary < self._last_popped:
            raise MonotonicityError(
                f"key {key_primary} is behind the last popped key {self._last_popped}")
        self.heap.push((key_primary, key_secondary, payload))
        self._note_push()

    def peek(self):
        if self.size == 0:
            return None
        return self.heap.peek()

    def pop(self):
        if self.size == 0:
            return None
        item = self.heap.pop()
        self.size -= 1
        self._stats.pops += 1
        self._last_popped = item[0]
        return item
