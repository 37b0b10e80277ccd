"""Recycling allocator for search nodes plus one expansion log per direction.

A search node is one tuple (state, g1, g2, parent_entry); its f-values live
only in its queue key. It lives in the pool while queued or being processed.
Its expansion appends (state, parent_entry) to the log; then its slot is set
to None and returns to the free list. Only `allocate` and `recycle` write a
slot, so a live node never changes. Freed slots are reissued oldest-first;
fresh ones are appended and counted in blocks of BLOCK_NODES.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Optional

BLOCK_NODES = 16_384  # slots per block in the pool_blocks figure


class NodePool:
    """Slot allocator with recycling; a handle indexes one node tuple in `nodes`."""

    __slots__ = ("nodes", "_free")

    def __init__(self):
        self.nodes: list[Optional[tuple]] = []  # None marks a recycled slot
        self._free: deque[int] = deque()

    def allocate(self, state: int, g1: int, g2: int, parent_entry: int) -> int:
        """Return a slot holding the node's four fields (its f-values are its
        queue key); recycled slots are reused first."""
        node = (state, g1, g2, parent_entry)
        if self._free:
            h = self._free.popleft()
            self.nodes[h] = node
        else:
            h = len(self.nodes)
            self.nodes.append(node)
        return h

    def recycle(self, handle: int) -> None:
        assert self.nodes[handle] is not None, f"slot {handle} recycled twice"
        self.nodes[handle] = None
        self._free.append(handle)

    @property
    def slots_created(self) -> int:
        """Distinct slots ever handed out."""
        return len(self.nodes)

    @property
    def blocks_allocated(self) -> int:
        """Slots counted in BLOCK_NODES-sized blocks, the last one partly filled."""
        return -(-len(self.nodes) // BLOCK_NODES)


class ParentArrays:
    """One direction's append-only expansion log: entry i is its i-th expansion,
    of state `states[i]` generated by entry `parents[i]` (-1 for the initial
    node), so an entry names a path. `parents` is an `array('i')`; `states`
    holds the graph's own state ints, so a rebuilt path boxes none anew."""

    __slots__ = ("states", "parents")

    def __init__(self):
        self.states: list[int] = []
        self.parents = array("i")

    def record_expansion(self, state: int, parent_entry: int) -> int:
        """Append one entry and return its index."""
        assert parent_entry < len(self.states)
        self.states.append(state)
        self.parents.append(parent_entry)
        return len(self.states) - 1

    def backtrack(self, entry: int) -> list[int]:
        """States from the search's initial state to entry's state, along its path."""
        seq = []
        states, parents = self.states, self.parents
        while entry >= 0:
            seq.append(states[entry])
            entry = parents[entry]
        return seq[::-1]


def walk_tree(pred: list, state: int) -> list[int]:
    """Follow a shortest-path-tree predecessor array from `state` to its root."""
    seq = [state]
    while pred[seq[-1]] is not None:
        seq.append(pred[seq[-1]])
    return seq


def splice_out_cycles(path: list[int]) -> list[int]:
    """Drop zero-cost revisit loops so the returned state sequence is simple."""
    seen: dict[int, int] = {}
    out: list[int] = []
    for s in path:
        if s in seen:
            del_from = seen[s]
            for dropped in out[del_from:]:
                del seen[dropped]
            out = out[:del_from]
        seen[s] = len(out)
        out.append(s)
    return out


def join_forward(partial_to_state: list[int], tree_walk_to_goal: list[int]) -> list[int]:
    """Concatenate a start..u partial path with a u..goal tree walk."""
    assert partial_to_state[-1] == tree_walk_to_goal[0]
    return splice_out_cycles(partial_to_state + tree_walk_to_goal[1:])
