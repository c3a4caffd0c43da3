"""Spans around calls into each layer, recorded from outside the program.

``install`` wraps every public function of the layer modules, at every
module of the package that binds it (modules import each other's
functions by name, and the CLI even under private aliases), so internal
calls are traced too.  Generator functions are left alone: a span around
one would close before any work is done.  ``uninstall`` puts the
originals back, and ``assert_clean`` proves it before an untraced run.

A span is (invocation, parent, name, start, end, counts).  A layer's self
time is the sum over its spans of duration minus the duration of their
direct children; children nest inside their parent on one thread, so
they never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("parsing", "queries", "hitting", "causality", "repairs", "diagnosis", "preferences", "cli")
_MARK = "__bench_span__"

# Per-span counts, read off arguments and results at the layer boundary.
_COUNTS = {
    "parsing.parse_instance": lambda args, res: {"facts": len(res)},
    "parsing.parse_fact": lambda args, res: {"facts": 1},
    "parsing.parse_fact_list": lambda args, res: {"facts": len(res)},
    "queries.witnesses": lambda args, res: {"images": len(res)},
    "hitting.support_sets": lambda args, res: {"edges": len(res)},
    "hitting.minimal_sets": lambda args, res: {"sets_in": len(args[0]), "sets_out": len(res)},
    "hitting.enumerate_minimal_hitting_sets": lambda args, res: {"sets": len(res.sets)},
    "cli.execute": lambda args, res: {"output_bytes": len(res[1].encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == "hitting.minimal_sets":
                args = (list(args[0]),) + args[1:]  # count the input family
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.invocation, parent, name, start, end, None)
            if count:
                spans[index] = spans[index][:5] + (count(args, result),)
            return result

        setattr(span, _MARK, True)
        return span

    def install(self) -> None:
        assert_clean()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"causerepair.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(fn)):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        assert_clean()

    def summary(self) -> dict:
        """Self time and counts summed per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (_, _, name, start, end, counts) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "min_self_s": float("inf")})
            own = end - start - child[i]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["min_self_s"] = min(entry["min_self_s"], own)
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "causerepair" or n.startswith("causerepair."))]


def assert_clean() -> None:
    """Fail loudly if any span wrapper is still bound anywhere in the package."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"trace wrapper left on {module.__name__}.{attr}")
