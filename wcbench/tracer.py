"""Layer tracing installed from outside the program, by wrapping its public names.

Coarse calls (bounds initialisation, budget factors, queue construction, path
reconstruction, the geometric heuristic, graph loading, instance generation)
are recorded as spans: name, start, end, parent span and solve id. Hot calls
(queue push/pop/peek, node pool allocate/recycle, parent-array appends) are
aggregated per solve as a count and busy time, and `Graph.successors` gets a
call counter. Everything is kept in memory; `dump` writes the spans out.

`install` patches module and class attributes and `uninstall` restores them,
so a traced run and an untraced run use the same program code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import wcspp.bounds as bounds_mod
import wcspp.cli as cli_mod
import wcspp.graph as graph_mod
import wcspp.nodepool as nodepool_mod
import wcspp.pqueue as pqueue_mod
import wcspp.solvers as solvers_mod

INIT_NAMES = ("init_unidirectional", "init_sequential_bidirectional",
              "init_parallel_bidirectional")
QUEUE_CLASSES = (pqueue_mod.BucketQueue, pqueue_mod.HybridQueue, pqueue_mod.BinaryHeapQueue)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    solve: int  # solve id, -1 outside solves


@dataclass
class SolveTrace:
    """Per-solve aggregates of hot calls plus the results captured from coarse ones."""

    counts: dict = field(default_factory=dict)  # hot key -> calls
    busy: dict = field(default_factory=dict)  # hot key -> seconds
    queue_sizes: dict = field(default_factory=dict)  # id(queue) -> [size, peak]
    successors_init: int = 0
    successors_search: int = 0
    init_results: list = field(default_factory=list)  # InitResults, until summarised
    # Filled by summarise() once the solve ends, so no bounds tables stay alive.
    init_status: str = ""
    settled_states: int = 0
    valid_states: int | None = None
    incumbents: int = 0

    def summarise(self) -> None:
        for r in self.init_results:
            self.init_status = r.status
            self.settled_states += sum(sum(mask) for _, _, mask in r.settled_per_phase)
            if r.valid_states is not None:
                self.valid_states = sum(r.valid_states)
            self.incumbents = len(r.gb.incumbents)
        self.init_results = []

    def add(self, key: str, seconds: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.busy[key] = self.busy.get(key, 0.0) + seconds


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solves: list[SolveTrace] = []
        self.setup_successors = 0
        self._stack: list[int] = []
        self._current: SolveTrace | None = None
        self._in_init = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        solve = len(self.solves) - 1 if self._current is not None else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, solve))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = perf_counter()
            self._stack.pop()

    @contextmanager
    def solve(self, name: str):
        """Open a root span for one solve; hot calls inside it are aggregated."""
        trace = SolveTrace()
        self.solves.append(trace)
        self._current = trace
        try:
            with self.span(name):
                yield trace
        finally:
            self._current = None
            trace.summarise()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _coarse(self, owner, attr: str, name: str, init: bool = False):
        """Record each call as a span; an init call's InitResult is kept for the solve."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._in_init += init
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            finally:
                tracer._in_init -= init
            if init and tracer._current is not None:
                tracer._current.init_results.append(result)
            return result

        self._patch(owner, attr, wrapper)

    def _hot(self, cls, attr: str, key: str):
        original = getattr(cls, attr)
        tracer = self

        def wrapper(*args):
            t0 = perf_counter()
            result = original(*args)
            elapsed = perf_counter() - t0
            trace = tracer._current
            if trace is not None:
                trace.add(key, elapsed)
            return result

        self._patch(cls, attr, wrapper)

    def _queue_push(self, cls):
        original = cls.push
        tracer = self

        def push(queue, key_primary, key_secondary, payload):
            t0 = perf_counter()
            original(queue, key_primary, key_secondary, payload)
            elapsed = perf_counter() - t0
            trace = tracer._current
            if trace is not None:
                trace.add("push", elapsed)
                size = trace.queue_sizes.setdefault(id(queue), [0, 0])
                size[0] += 1
                if size[0] > size[1]:
                    size[1] = size[0]

        self._patch(cls, "push", push)

    def _queue_pop(self, cls):
        original = cls.pop
        tracer = self

        def pop(queue):
            t0 = perf_counter()
            item = original(queue)
            elapsed = perf_counter() - t0
            trace = tracer._current
            if trace is not None:
                # pop_s covers every pop call; the pop count only real items,
                # as the queue's own counter does.
                trace.busy["pop"] = trace.busy.get("pop", 0.0) + elapsed
                if item is not None:
                    trace.counts["pop"] = trace.counts.get("pop", 0) + 1
                    trace.queue_sizes[id(queue)][0] -= 1
            return item

        self._patch(cls, "pop", pop)

    def _successors_counter(self):
        original = graph_mod.Graph.successors
        tracer = self

        def successors(graph, u, direction=graph_mod.FORWARD):
            trace = tracer._current
            if trace is None:
                tracer.setup_successors += 1
            elif tracer._in_init:
                trace.successors_init += 1
            else:
                trace.successors_search += 1
            return original(graph, u, direction)

        self._patch(graph_mod.Graph, "successors", successors)

    def install(self) -> None:
        for name in INIT_NAMES:
            self._coarse(solvers_mod, name, f"bounds.{name}", init=True)
        self._coarse(solvers_mod, "budget_factors", "bounds.budget_factors")
        self._coarse(solvers_mod, "reconstruct_solution", "solvers.reconstruct_solution")
        self._coarse(solvers_mod, "new_queue", "pqueue.new_queue")
        self._coarse(bounds_mod, "geo_heuristic", "bounds.geo_heuristic")
        self._coarse(graph_mod, "load_dimacs", "graph.load_dimacs")
        self._coarse(cli_mod, "gen_instances", "cli.gen_instances")
        for cls in QUEUE_CLASSES:
            self._queue_push(cls)
            self._queue_pop(cls)
            self._hot(cls, "peek", "peek")
        self._hot(nodepool_mod.NodePool, "allocate", "allocate")
        self._hot(nodepool_mod.NodePool, "recycle", "recycle")
        self._hot(nodepool_mod.ParentArrays, "record_expansion", "record_expansion")
        self._successors_counter()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.solve] for s in self.spans], fh)
