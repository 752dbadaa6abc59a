"""Spans around the calls into each layer of the isolation package.

The wrappers are installed from the benchmark, not written into the program:
for each traced function, every isolation module that binds the function
under some name gets the wrapper under that name, so calls between modules
are recorded as they happen.  Each span records (id, parent id, operation id,
name, start ns, end ns); spans stay in memory until the run ends.

A layer's self time is the total of its spans minus the time covered by
their direct child spans.  A generator function (the census) gets one span
per resumption, so the time its consumer spends between items is not charged
to it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time
from collections import Counter

# (module, function) pairs: the public entry points of each layer.
TRACED = (
    ("graph_core", "canonical_form"),
    ("graph_core", "induced_subgraph"),
    ("graph_core", "decode_g6"),
    ("graph_core", "encode_g6"),
    ("patterns", "enumerate_copies"),
    ("patterns", "contains_pattern"),
    ("solver", "iota_exact"),
    ("solver", "copy_closures"),
    ("solver", "is_isolating"),
    ("constructive", "isolating_set_n5"),
    ("enumerate_verify", "enumerate_connected"),
    ("enumerate_verify", "verify_bound"),
    ("cli", "main"),
)

MODULES = ("graph_core", "patterns", "solver", "constructive",
           "enumerate_verify", "cli")


class TraceError(RuntimeError):
    """A wrap point is missing or recorded no calls where calls are expected."""


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.op = 0
        self._ids = itertools.count(1)
        self._stack = [0]
        self._results: dict[str, list[tuple[int, object]]] = {}

    def keep_results(self, name: str) -> None:
        """Keep (operation id, return value) of every call of ``name``."""
        self._results[name] = []

    def results(self, name: str) -> list[tuple[int, object]]:
        return self._results[name]

    def install(self) -> None:
        """Wrap every traced function at every name an isolation module
        binds it under; raise TraceError if one is missing."""
        modules = [importlib.import_module("isolation")]
        modules += [importlib.import_module(f"isolation.{m}") for m in MODULES]
        for module, func in TRACED:
            name = f"{module}.{func}"
            home = importlib.import_module(f"isolation.{module}")
            original = getattr(home, func, None)
            if not callable(original):
                raise TraceError(f"wrap point isolation.{name} is missing")
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, ids, calls = self.spans, self._stack, self._ids, self.calls
        clock = time.perf_counter_ns
        sink = self._results.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans.append((sid, parent, self.op, name, start, end))
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            calls[name] += 1
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if sink is not None:
                sink.append((self.op, result))
            return result
        return traced

    def self_times(self) -> Counter:
        """Self time in seconds by span name."""
        child_ns: Counter[int] = Counter()
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: Counter = Counter()
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, oldest end first."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
