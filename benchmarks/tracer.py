"""Span tracing by wrapping the program's public functions from outside.

`Tracer.install()` replaces module and class attributes of the moebalance
modules with timing wrappers and `uninstall()` puts the originals back. A
span is (id, name, start, end, parent id, thread id, attr). Spans stay in
memory until `write()`.

Parents are tracked per thread. Tasks handed to `sim.solve_tasks` inherit
the `solve_tasks` span as parent on the worker thread, so the tree spans
threads, while self time (duration minus direct children on the same
thread) stays per thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

# (module, attribute path) of every wrapped callable; the span name is
# "<module>.<attribute path>", so the layer is the text before the first dot.
TARGETS = (
    ("cli", "main"), ("cli", "cmd_gen"), ("cli", "cmd_solve"), ("cli", "cmd_simulate"),
    ("routing", "generate_synthetic_trace"), ("routing", "save_trace"), ("routing", "load_trace"),
    ("routing", "aggregate_batch"),
    ("reorder", "lpt_initial"), ("reorder", "anneal_reorder"), ("reorder", "AnnealState.__init__"),
    ("reorder", "AnnealState.swap_delta"), ("reorder", "AnnealState.apply_swap"),
    ("reorder", "anneal_sample_placement"), ("reorder", "greedy_sample_initial"),
    ("reorder", "rewrite_trace_matrices"),
    ("replicate", "greedy_replicate"), ("replicate", "solve_token_split_lp"),
    ("replicate", "TokenSplitLP.__init__"), ("replicate", "TokenSplitLP.add_replica"),
    ("replicate", "TokenSplitLP.solve"), ("replicate", "TokenSplitLP.snapshot"),
    ("replicate", "TokenSplitLP.restore"), ("replicate", "TokenSplitLP.split_plan"),
    ("lp", "DenseSimplex.__init__"), ("lp", "DenseSimplex.solve"), ("lp", "DenseSimplex.add_row"),
    ("lp", "DenseSimplex.add_columns"), ("lp", "DenseSimplex.snapshot"), ("lp", "DenseSimplex.restore"),
    ("costmodel", "compute_loads"), ("costmodel", "moe_time"),
    ("sim", "build_policy_bundle"), ("sim", "evaluate_bundle"), ("sim", "solve_tasks"),
    ("sim", "write_reports"),
    ("planio", "save_reorder_plan"), ("planio", "save_replication_plan"), ("planio", "load_plan_bundle"),
    ("planio", "load_reorder_plan"), ("planio", "load_replication_plan"),
)

LAYERS = ("cli", "routing", "reorder", "replicate", "lp", "costmodel", "sim", "planio")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`; used for the harness's own phases."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else getattr(tracer._local, "root", None)
            attr = None
            if before is not None:
                args, attr = before(tracer, sid, args)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if after is not None:
                attr = after(args, attr)
            tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident(), attr))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        import importlib
        for module_name, path in TARGETS:
            module = importlib.import_module(f"moebalance.{module_name}")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{module_name}.{path}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        rows = [[s[0], index[s[1]], round(s[2], 9), round(s[3], 9), s[4], tindex[s[5]], s[6]]
                for s in self.spans]
        payload = {"columns": ["id", "name", "start_s", "end_s", "parent", "thread", "attr"],
                   "names": names, "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# hooks of wrappers that record an attribute: before(tracer, sid, args)
# returns (args, attr); after(args, attr), if given, returns the final attr


def _pivots_before(tracer, sid, args):
    return args, args[0]._pivots


def _pivots_after(args, attr):
    """DenseSimplex.solve: pivots taken by this call and tableau size after it."""
    solver = args[0]
    return (solver._pivots - attr, int(solver.tab.size))


def _policy_before(tracer, sid, args):
    """sim.build_policy_bundle: the policy name."""
    return args, args[1]


def _tasks_before(tracer, sid, args):
    """sim.solve_tasks: tasks inherit this span as parent; attr = worker count."""
    tasks, threads = args

    def bind(fn):
        def run():
            tracer._local.root = sid
            try:
                return fn()
            finally:
                tracer._local.root = None
        return run

    return ([(key, bind(fn)) for key, fn in tasks], threads), threads


_HOOKS = {
    "lp.DenseSimplex.solve": (_pivots_before, _pivots_after),
    "sim.build_policy_bundle": (_policy_before, None),
    "sim.solve_tasks": (_tasks_before, None),
}


# ----------------------------------------------------------------------
# analysis


class SpanIndex:
    """Parent/child lookups and per-thread self time over recorded spans."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name: dict[str, list[tuple]] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
        child_time: dict[int, float] = {}
        remote: dict[int, list[tuple]] = {}
        for s in spans:
            parent = self.by_id.get(s[4])
            if parent is None:
                continue
            if parent[5] == s[5]:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
            else:
                remote.setdefault(s[4], []).append(s)
        # a span whose children run on other threads waits for them; that is not self time
        self.wait_time = {sid: union_length([(max(c[2], self.by_id[sid][2]), min(c[3], self.by_id[sid][3]))
                                             for c in children])
                          for sid, children in remote.items()}
        self.self_time = {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) - self.wait_time.get(s[0], 0.0)
                          for s in spans}
        self._phase: dict[int, str | None] = {}

    def phase(self, s: tuple) -> str | None:
        """Name of the harness span ("bench.*") at the root of s's tree, if any."""
        chain = []
        cur = s
        while cur[0] not in self._phase:
            chain.append(cur[0])
            parent = self.by_id.get(cur[4])
            if parent is None:
                self._phase[cur[0]] = cur[1] if cur[1].startswith("bench.") else None
                break
            cur = parent
        found = self._phase[cur[0]]
        for sid in chain:
            self._phase[sid] = found
        return found

    def select(self, name: str, phase: str | None = None, parent_name: str | None = None) -> list[tuple]:
        out = []
        for s in self.by_name.get(name, ()):
            if phase is not None and self.phase(s) != phase:
                continue
            if parent_name is not None:
                parent = self.by_id.get(s[4])
                if parent is None or parent[1] != parent_name:
                    continue
            out.append(s)
        return out

    def parent_layer(self, s: tuple) -> str | None:
        parent = self.by_id.get(s[4])
        return parent[1].split(".", 1)[0] if parent is not None else None

    def wait(self, phase: str) -> float:
        """Time spans of this phase spent waiting on work run by other threads."""
        return sum(w for sid, w in self.wait_time.items() if self.phase(self.by_id[sid]) == phase)

    def layer_self_time(self, phase: str) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s[1].split(".", 1)[0]
            if layer in out and self.phase(s) == phase:
                out[layer] += self.self_time[s[0]]
        return out


def total(spans: list[tuple]) -> float:
    return sum(s[3] - s[2] for s in spans)


def union_length(intervals) -> float:
    """Wall time covered by at least one (start, end) interval, across threads."""
    length = 0.0
    end = None
    for t0, t1 in sorted(intervals):
        if t1 <= t0:
            continue
        if end is None or t0 > end:
            length += t1 - t0
            end = t1
        elif t1 > end:
            length += t1 - end
            end = t1
    return length
