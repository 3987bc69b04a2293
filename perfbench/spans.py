"""Outside-in span tracing: time the program's public functions without editing it.

A wrapper replaces every module attribute of the package that is bound to the
original function, so a caller that imported the name (``from .cca import
fit_cca``) is reached as well as one that looks it up through its module. The
benchmark's own code must therefore call the program through module
attributes (``cca.fit_cca(...)``), never through names it imported itself.

Spans are kept in memory as ``[name, parent index, start, end]`` and reduced
to per-name call counts, inclusive time and self time when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "avembed"

# counter(counts, result, args, kwargs): adds exact work counts from one call
Counter = Callable[[dict, object, tuple, dict], None]


class Patches:
    """Context manager that rebinds functions of the program's package and restores them on exit."""

    def __init__(self):
        self._sites: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make_wrapper: Callable[[Callable], Callable]) -> list[str]:
        """Wrap ``module.attr`` everywhere the package binds it; returns the rebound names."""
        func = getattr(module, attr)
        wrapper = make_wrapper(func)
        names = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, name, wrapper)
                    self._sites.append((mod, name, func))
                    names.append(f"{mod_name}.{name}")
        return names

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, func in reversed(self._sites):
            setattr(mod, name, func)
        self._sites.clear()


class Tracer:
    """Records one span per wrapped call, with the span that caused it as parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrapper(self, name: str, count: Counter | None = None) -> Callable[[Callable], Callable]:
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                record = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0]
                open_spans.append(len(spans))
                spans.append(record)
                record[2] = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    record[3] = clock()
                    open_spans.pop()
                if count is not None:
                    count(counts, result, args, kwargs)
                return result

            return traced

        return make

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (minus child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[i]
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)
