"""Recycling allocator for search nodes plus sparse per-state parent arrays.

A search node lives in the pool only while it sits in a priority queue or is
being processed; once processed, the few fields backtracking needs move into
the per-state parent arrays and the slot returns to the free list. Freed slots
are reissued oldest-first; fresh slots are appended one at a time and counted
in blocks of BLOCK_NODES.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .graph import FORWARD

BLOCK_NODES = 16_384  # slots per block in the pool_blocks figure

INF = float("inf")


class NodePool:
    """Slot allocator with recycling; handles are indices into parallel arrays."""

    __slots__ = ("state", "g1", "g2", "f1", "f2", "parent_state", "parent_path_id",
                 "_free", "_is_free", "live", "peak_live")

    def __init__(self):
        self.state: list[int] = []
        self.g1: list[int] = []
        self.g2: list[int] = []
        self.f1: list[int] = []
        self.f2: list[int] = []
        self.parent_state: list[Optional[int]] = []
        self.parent_path_id: list[int] = []
        self._free: deque[int] = deque()
        self._is_free = bytearray()
        self.live = 0
        self.peak_live = 0

    def allocate(self, state: int, g1: int, g2: int, f1: int, f2: int,
                 parent_state: Optional[int], parent_path_id: int) -> int:
        """Return a slot holding the given node fields; recycled slots are reused first."""
        if self._free:
            h = self._free.popleft()
            self._is_free[h] = 0
            self.state[h] = state
            self.g1[h] = g1
            self.g2[h] = g2
            self.f1[h] = f1
            self.f2[h] = f2
            self.parent_state[h] = parent_state
            self.parent_path_id[h] = parent_path_id
        else:
            h = len(self.state)
            self.state.append(state)
            self.g1.append(g1)
            self.g2.append(g2)
            self.f1.append(f1)
            self.f2.append(f2)
            self.parent_state.append(parent_state)
            self.parent_path_id.append(parent_path_id)
            self._is_free.append(0)
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live
        return h

    def recycle(self, handle: int) -> None:
        assert not self._is_free[handle], f"slot {handle} recycled twice"
        self._is_free[handle] = 1
        self._free.append(handle)
        self.live -= 1

    @property
    def slots_created(self) -> int:
        """Distinct slots ever handed out."""
        return len(self.state)

    @property
    def blocks_allocated(self) -> int:
        """Slots counted in BLOCK_NODES-sized blocks, the last one partly filled."""
        return -(-len(self.state) // BLOCK_NODES)


class ParentArrays:
    """Per-state append-only (parent_state, parent_path_id) pairs.

    Entry i (1-based) of state u records the i-th successful expansion of u in
    one search direction; id 0 with parent state None marks the initial node.
    Only expanded states hold entries, so the arrays grow with the search,
    not with the graph.
    """

    def __init__(self):
        self.parent_state: dict[int, list[Optional[int]]] = {}
        self.parent_path_id: dict[int, list[int]] = {}

    def record_expansion(self, state: int, parent_state: Optional[int],
                         parent_path_id: int) -> int:
        """Append one entry for `state` and return its 1-based index."""
        if parent_state is not None:
            assert 1 <= parent_path_id <= len(self.parent_state.get(parent_state, ()))
        states = self.parent_state.get(state)
        if states is None:
            states = self.parent_state[state] = []
            self.parent_path_id[state] = []
        states.append(parent_state)
        self.parent_path_id[state].append(parent_path_id)
        return len(states)

    def entries(self, state: int) -> tuple[list[Optional[int]], list[int]]:
        return self.parent_state.get(state, []), self.parent_path_id.get(state, [])

    def backtrack(self, state: int, path_id: int) -> list[int]:
        """States from the search's initial state to `state`, following a recorded path."""
        seq = []
        u, i = state, path_id
        while True:
            seq.append(u)
            p = self.parent_state[u][i - 1]
            if p is None:
                break
            i = self.parent_path_id[u][i - 1]
            u = p
        seq.reverse()
        return seq


def walk_tree(pred: list, state: int) -> list[int]:
    """Follow a shortest-path-tree predecessor array from `state` to its root."""
    seq = [state]
    u = state
    while pred[u] is not None and pred[u] >= 0:
        u = pred[u]
        seq.append(u)
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


def reconstruct(arrays: ParentArrays, tree: list, state: int, path_id: int,
                direction: int) -> list[int]:
    """Full start-goal sequence for a recorded partial path: backtrack it, then
    splice on the complementary shortest-path-tree walk from its last state.

    `tree` is the predecessor array retained for the join attribute; for a
    backward-direction path the tree walk leads to the start instead, so the
    two halves swap and reverse.
    """
    partial = arrays.backtrack(state, path_id)
    walk = walk_tree(tree, state)
    if direction == FORWARD:
        return join_forward(partial, walk)
    return join_forward(list(reversed(walk)), list(reversed(partial)))
