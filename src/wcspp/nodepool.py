"""Recycling allocator for search nodes plus sparse per-state parent entries.

A search node is one tuple (state, g1, g2, parent_state, parent_path_id) that
lives in the pool only while it sits in a priority queue or is being
processed; its f-values live only in its queue key. Once processed, its
parent pair moves into the per-state parent entries and its slot is set to
None and returns to the free list. Only `allocate` and `recycle` write a
slot, so a live node never changes. Freed slots are reissued oldest-first;
fresh slots are appended one at a time and counted in blocks of BLOCK_NODES.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

BLOCK_NODES = 16_384  # slots per block in the pool_blocks figure


class NodePool:
    """Slot allocator with recycling; a handle indexes one node tuple in `nodes`."""

    __slots__ = ("nodes", "_free")

    def __init__(self):
        self.nodes: list[Optional[tuple]] = []  # None marks a recycled slot
        self._free: deque[int] = deque()

    def allocate(self, state: int, g1: int, g2: int,
                 parent_state: Optional[int], parent_path_id: int) -> int:
        """Return a slot holding the node's five fields (its f-values are its
        queue key); recycled slots are reused first."""
        node = (state, g1, g2, parent_state, parent_path_id)
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
    """Per-state append-only lists of (parent_state, parent_path_id) pairs.

    Entry i (1-based) of state u records the i-th successful expansion of u in
    one search direction; id 0 with parent state None marks the initial node.
    Only expanded states hold entries, so the lists grow with the search,
    not with the graph.
    """

    def __init__(self):
        self.pairs: dict[int, list[tuple[Optional[int], int]]] = {}

    def record_expansion(self, state: int, parent_state: Optional[int],
                         parent_path_id: int) -> int:
        """Append one entry for `state` and return its 1-based index."""
        if parent_state is not None:
            assert 1 <= parent_path_id <= len(self.pairs.get(parent_state, ()))
        pairs = self.pairs.get(state)
        if pairs is None:
            pairs = self.pairs[state] = []
        pairs.append((parent_state, parent_path_id))
        return len(pairs)

    def backtrack(self, state: int, path_id: int) -> list[int]:
        """States from the search's initial state to `state`, following a recorded path."""
        seq = []
        u, i = state, path_id
        while u is not None:
            seq.append(u)
            u, i = self.pairs[u][i - 1]
        seq.reverse()
        return seq


def walk_tree(pred: list, state: int) -> list[int]:
    """Follow a shortest-path-tree predecessor array from `state` to its root."""
    seq = [state]
    u = state
    while pred[u] is not None:
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
