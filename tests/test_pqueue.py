import hashlib
import random

import pytest

from wcspp.pqueue import (BINARY_HEAP, BUCKET, HYBRID, BinaryHeapQueue, BucketQueue,
                          HybridQueue, MonotonicityError, QueueConfig, QueueStats,
                          TIE_NONE_FIFO, TIE_NONE_LIFO, TIE_SECONDARY, _CountingHeap,
                          bucket_count, new_queue)

ALL_CONFIGS = [
    (BUCKET, TIE_NONE_LIFO),
    (BUCKET, TIE_NONE_FIFO),
    (HYBRID, TIE_NONE_LIFO),
    (HYBRID, TIE_SECONDARY),
    (BINARY_HEAP, TIE_NONE_LIFO),
    (BINARY_HEAP, TIE_SECONDARY),
]


def make(kind, tie, f_min=0, f_max=1000, delta_f=1):
    return new_queue(QueueConfig(kind, f_min, f_max, delta_f, tie))


def test_bucket_size_formula():
    assert bucket_count(3, 7, 1) == 5
    assert bucket_count(0, 99, 10) == 10
    assert bucket_count(5, 5, 1) == 1


def test_allocation_sizes():
    q = make(BUCKET, TIE_NONE_LIFO, 3, 7, 1)
    assert q.bucket_size == 5
    q = make(HYBRID, TIE_NONE_LIFO, 0, 99, 10)
    assert q.bucket_size == 10


def test_bucket_rejects_secondary_policy():
    with pytest.raises(ValueError):
        make(BUCKET, TIE_SECONDARY)


def test_heap_and_hybrid_reject_fifo():
    for kind in (HYBRID, BINARY_HEAP):
        with pytest.raises(ValueError):
            make(kind, TIE_NONE_FIFO)


@pytest.mark.parametrize("kind,tie", ALL_CONFIGS)
def test_every_kind_rejects_delta_f_below_one(kind, tie):
    # The binary heap ignores delta_f but used to accept any value for it.
    for delta_f in (0, -3):
        with pytest.raises(ValueError, match="delta_f"):
            make(kind, tie, delta_f=delta_f)


@pytest.mark.parametrize("kind,tie", ALL_CONFIGS)
def test_single_element(kind, tie):
    q = make(kind, tie, 0, 10)
    q.push(4, 0, "a")
    assert q.pop() == (4, 0, "a")
    assert q.pop() is None


def test_bucket_lifo_order():
    q = make(BUCKET, TIE_NONE_LIFO, 0, 10)
    q.push(4, 0, "a")
    q.push(4, 0, "b")
    assert [q.pop()[2] for _ in range(2)] == ["b", "a"]


def test_bucket_fifo_order():
    q = make(BUCKET, TIE_NONE_FIFO, 0, 10)
    q.push(4, 0, "a")
    q.push(4, 0, "b")
    assert [q.pop()[2] for _ in range(2)] == ["a", "b"]


@pytest.mark.parametrize("kind", [HYBRID, BINARY_HEAP])
def test_secondary_tie_breaking(kind):
    q = make(kind, TIE_SECONDARY, 0, 10)
    q.push(4, 9, "a")
    q.push(4, 2, "b")
    assert [q.pop()[2] for _ in range(2)] == ["b", "a"]


@pytest.mark.parametrize("kind,tie", ALL_CONFIGS)
def test_min_ordering(kind, tie):
    q = make(kind, tie, 0, 10)
    for key in (7, 3, 5):
        q.push(key, 0, key)
    assert [q.pop()[0] for _ in range(3)] == [3, 5, 7]
    assert q.pop() is None


def test_bucket_scan_cost_is_101_checks():
    q = make(BUCKET, TIE_NONE_LIFO, 0, 100, 1)
    q.push(0, 0, "x")
    q.pop()
    q.push(100, 0, "y")
    q.pop()
    assert q.stats().queue_ops == 101


def test_bucket_lifetime_scans_bounded_by_bucket_size():
    rng = random.Random(1)
    q = make(BUCKET, TIE_NONE_LIFO, 0, 200, 1)
    low = 0
    for _ in range(3000):
        if rng.random() < 0.6 or not len(q):
            key = rng.randint(low, 200)
            q.push(key, 0, key)
        else:
            low = q.pop()[0]
    while q.pop() is not None:
        pass
    assert q.stats().queue_ops <= q.bucket_size


@pytest.mark.parametrize("delta_f", [1, 3, 10])
def test_two_level_bucket_orders_and_counts(delta_f):
    rng = random.Random(delta_f)
    q = make(BUCKET, TIE_NONE_LIFO, 0, 500, delta_f)
    popped = []
    low = 0
    for _ in range(4000):
        if rng.random() < 0.55 or not len(q):
            key = rng.randint(low, 500)
            q.push(key, 0, key)
        else:
            key = q.pop()[0]
            popped.append(key)
            low = key
    while True:
        item = q.pop()
        if item is None:
            break
        popped.append(item[0])
    # low-level buckets are scanned left to right, so keys emerge sorted
    assert popped == sorted(popped)
    st = q.stats()
    assert st.pops == st.pushes == len(popped)


def test_stats_counters():
    q = make(HYBRID, TIE_SECONDARY, 0, 50)
    assert q.stats().pushes == q.stats().pops == q.stats().queue_ops == 0
    for i in range(10):
        q.push(i, i, i)
    assert q.stats().pushes == 10
    assert q.stats().peak_size == 10
    drained = 0
    while q.pop() is not None:
        drained += 1
    assert drained == 10
    assert q.stats().pops == 10


def test_monotonicity_violation_raises():
    # With delta_f 10 the late key shares the popped key's bucket. A key that
    # `peek` returned bounds later pushes as a popped key does. Every kind
    # refuses by the one rule, with the same message.
    behind = "behind the last returned key"
    for kind in (BUCKET, HYBRID, BINARY_HEAP):
        for delta_f in (1, 10):
            q = make(kind, TIE_NONE_LIFO, 0, 100, delta_f)
            q.push(5, 0, "a")
            q.pop()
            with pytest.raises(MonotonicityError, match=behind):
                q.push(4, 0, "late")
            q = make(kind, TIE_NONE_LIFO, 0, 100, delta_f)
            q.push(5, 0, "a")
            q.push(8, 0, "b")
            q.pop()
            assert q.peek()[0] == 8
            with pytest.raises(MonotonicityError, match=behind):
                q.push(6, 0, "late")


def test_no_queue_kind_inherits_its_hot_methods_from_another():
    # The benchmark's tracer wraps push, pop and peek on each of the three
    # classes in turn; a method one of them inherits from another would be
    # wrapped twice and its calls counted twice.
    kinds = (BucketQueue, HybridQueue, BinaryHeapQueue)
    for cls in kinds:
        for attr in ("push", "pop", "peek"):
            owner = next(base for base in cls.__mro__ if attr in vars(base))
            assert owner is cls or owner not in kinds, (cls.__name__, attr, owner.__name__)


def test_equal_key_push_after_drain_is_legal():
    q = make(BUCKET, TIE_NONE_LIFO, 0, 100, 1)
    q.push(5, 0, "a")
    assert q.pop()[2] == "a"
    q.push(5, 0, "b")  # equal to the minimum extracted key: allowed
    assert q.pop()[2] == "b"


def test_out_of_range_key_raises():
    q = make(BUCKET, TIE_NONE_LIFO, 10, 20, 1)
    with pytest.raises(MonotonicityError):
        q.push(9, 0, "low")
    with pytest.raises(MonotonicityError):
        q.push(21, 0, "high")


def _random_monotone_sequence(rng, n_ops, f_max=300):
    """Interleaved monotone pushes/pops; returns the popped (kp, ks) sequence."""
    ops = []
    low = 0
    size = 0
    for _ in range(n_ops):
        if size and rng.random() < 0.45:
            ops.append(("pop",))
            size -= 1
        else:
            key = rng.randint(low, f_max)
            ops.append(("push", key, rng.randint(0, 50)))
            size += 1
            low = max(low, min(low + rng.randint(0, 2), key))
    return ops


@pytest.mark.parametrize("kind,tie", ALL_CONFIGS)
def test_monotone_extraction_and_multiset(kind, tie):
    rng = random.Random(99)
    q = make(kind, tie, 0, 300)
    pushed = []
    popped = []
    low = 0
    for _ in range(5000):
        if len(q) and rng.random() < 0.45:
            kp, ks, payload = q.pop()
            assert kp >= low
            low = kp
            popped.append((kp, ks))
        else:
            key = rng.randint(low, 300)
            ks = rng.randint(0, 50)
            q.push(key, ks, None)
            pushed.append((key, ks))
    while True:
        item = q.pop()
        if item is None:
            break
        assert item[0] >= low
        low = item[0]
        popped.append((item[0], item[1]))
    assert sorted(popped) == sorted(pushed)


def test_hybrid_and_heap_secondary_equivalence():
    rng = random.Random(4)
    seq = []
    low = 0
    for _ in range(4000):
        if rng.random() < 0.5:
            seq.append(("pop",))
        else:
            key = rng.randint(low, 400)
            seq.append(("push", key, rng.randint(0, 30)))
    outs = []
    for kind in (HYBRID, BINARY_HEAP):
        q = make(kind, TIE_SECONDARY, 0, 400)
        out = []
        for op in seq:
            if op[0] == "push":
                if len(q) == 0 and out:
                    # keep the monotone contract: clamp the key upward
                    key = max(op[1], out[-1][0])
                else:
                    key = op[1]
                q.push(max(key, out[-1][0] if out else 0), op[2], None)
            elif len(q):
                kp, ks, _ = q.pop()
                out.append((kp, ks))
        while len(q):
            kp, ks, _ = q.pop()
            out.append((kp, ks))
        outs.append(out)
    assert outs[0] == outs[1]


# Recorded from the three separate bucket scans that preceded the shared one:
# (items digest, counters digest, final (pushes, pops, queue_ops, peak_size),
# final high_checks for a bucket queue).
PINNED_COUNTERS = {
    (BUCKET, TIE_NONE_LIFO, 1):
        ("1dc5f0256e63", "ee578c09ac54", (284, 284, 61, 70), 61),
    (BUCKET, TIE_NONE_LIFO, 3):
        ("1dc5f0256e63", "28afc7d02ad0", (284, 284, 73, 70), 21),
    (BUCKET, TIE_NONE_LIFO, 7):
        ("1dc5f0256e63", "8b8bd5dd2d3e", (284, 284, 66, 70), 9),
    (BUCKET, TIE_NONE_FIFO, 1):
        ("d7b2ad3298fe", "ee578c09ac54", (284, 284, 61, 70), 61),
    (BUCKET, TIE_NONE_FIFO, 3):
        ("d7b2ad3298fe", "28afc7d02ad0", (284, 284, 73, 70), 21),
    (BUCKET, TIE_NONE_FIFO, 7):
        ("d7b2ad3298fe", "8b8bd5dd2d3e", (284, 284, 66, 70), 9),
    (HYBRID, TIE_NONE_LIFO, 1):
        ("8a8f3e6a8e6d", "a34914c12dc4", (284, 284, 261, 70), None),
    (HYBRID, TIE_NONE_LIFO, 3):
        ("b9c1fb9495d4", "21833bf1452f", (284, 284, 511, 70), None),
    (HYBRID, TIE_NONE_LIFO, 7):
        ("e1797bb6c1d9", "aac712562ab3", (284, 284, 874, 70), None),
    (HYBRID, TIE_SECONDARY, 1):
        ("f7a822374287", "c10808d688a3", (284, 284, 535, 70), None),
    (HYBRID, TIE_SECONDARY, 3):
        ("ecf0f2db9fe8", "a1d993d3dc5d", (284, 284, 791, 70), None),
    (HYBRID, TIE_SECONDARY, 7):
        ("71638282c554", "1742c2c89dd2", (284, 284, 1078, 70), None),
    (BINARY_HEAP, TIE_NONE_LIFO, 1):
        ("a9f65c8cf9b7", "0eaa32e53eff", (284, 284, 1296, 70), None),
    (BINARY_HEAP, TIE_NONE_LIFO, 3):
        ("a9f65c8cf9b7", "0eaa32e53eff", (284, 284, 1296, 70), None),
    (BINARY_HEAP, TIE_NONE_LIFO, 7):
        ("a9f65c8cf9b7", "0eaa32e53eff", (284, 284, 1296, 70), None),
    (BINARY_HEAP, TIE_SECONDARY, 1):
        ("74058e0c2748", "be23dce86881", (284, 284, 1471, 70), None),
    (BINARY_HEAP, TIE_SECONDARY, 3):
        ("74058e0c2748", "be23dce86881", (284, 284, 1471, 70), None),
    (BINARY_HEAP, TIE_SECONDARY, 7):
        ("74058e0c2748", "be23dce86881", (284, 284, 1471, 70), None),
}


@pytest.mark.parametrize("kind,tie,delta_f", sorted(PINNED_COUNTERS))
def test_pinned_items_and_counters_per_kind(kind, tie, delta_f):
    """Three pushes into bucket 0, one seeded monotone push/pop/peek
    sequence, then a full drain.

    The items digest covers every pop and peek result (key, secondary key and
    payload, or None); the counters digest covers the QueueStats fields and a
    bucket queue's high_checks after every call, so an extra or a missing
    bucket examination anywhere changes it.
    """
    rng = random.Random(2024)
    q = make(kind, tie, 0, 60, delta_f)
    low = 0
    items, counters = [], []

    def note(item):
        items.append(item)
        st = q.stats()
        counters.append((st.pushes, st.pops, st.queue_ops, st.peak_size,
                         q.high_checks if kind == BUCKET else None))

    for key in (0, 2, 0):  # into bucket 0 before the first pop
        q.push(key, 0, -1)
        note(None)
    for n in range(600):
        r = rng.random()
        if r < 0.5:
            key = min(60, low + rng.choice((0, 0, 1, 2, 3, 6, 10, 25)))
            q.push(key, rng.randint(0, 3), n)
            note(None)
        else:
            item = q.pop() if r < 0.85 else q.peek()
            if item is not None:
                low = item[0]
            note(item)
    while len(q):
        note(q.pop())
    note(q.pop())

    def digest(log):
        return hashlib.sha256(repr(log).encode()).hexdigest()[:12]

    st = q.stats()
    got = (digest(items), digest(counters), (st.pushes, st.pops, st.queue_ops, st.peak_size),
           q.high_checks if kind == BUCKET else None)
    assert got == PINNED_COUNTERS[kind, tie, delta_f]


class SwapHeap:
    """A binary heap that sifts by swapping neighbours and counts each swap:
    the reference for `_CountingHeap`'s hole sifts."""

    def __init__(self, tie_break: bool):
        self.items, self.tie_break, self.swaps = [], tie_break, 0

    def less(self, a, b) -> bool:
        if a[0] != b[0]:
            return a[0] < b[0]
        return self.tie_break and a[1] < b[1]

    def swap(self, i, j) -> None:
        items = self.items
        items[i], items[j] = items[j], items[i]
        self.swaps += 1

    def push(self, entry) -> None:
        items = self.items
        items.append(entry)
        i = len(items) - 1
        while i > 0 and self.less(items[i], items[(i - 1) // 2]):
            self.swap(i, (i - 1) // 2)
            i = (i - 1) // 2

    def pop(self):
        items = self.items
        top, last = items[0], items.pop()
        if items:
            items[0] = last
            i = 0
            while 2 * i + 1 < len(items):
                child = 2 * i + 1
                if child + 1 < len(items) and self.less(items[child + 1], items[child]):
                    child += 1
                if not self.less(items[child], items[i]):
                    break
                self.swap(i, child)
                i = child
        return top


@pytest.mark.parametrize("tie_break", [False, True])
def test_hole_sifts_match_a_swapping_heap(tie_break):
    # Random pushes and pops over a few keys, so that most entries tie on
    # both keys and only the payload tells them apart: after every
    # operation the popped entry, the array and the count of levels moved
    # must equal those of a heap that sifts by swaps and counts each swap.
    rng = random.Random(35)
    for trial in range(200):
        stats = QueueStats()
        heap, ref = _CountingHeap(tie_break, stats), SwapHeap(tie_break)
        keys = rng.randint(1, 6)
        for n in range(rng.randint(1, 300)):
            if heap.items and rng.random() < rng.choice((0.3, 0.5, 0.7)):
                assert heap.pop() == ref.pop()
            else:
                entry = (rng.randrange(keys), rng.randrange(keys), n)
                heap.push(entry)
                ref.push(entry)
            assert heap.items == ref.items and stats.queue_ops == ref.swaps, (trial, n)
        while heap.items:
            assert heap.pop() == ref.pop()
            assert heap.items == ref.items and stats.queue_ops == ref.swaps
        assert not ref.items
