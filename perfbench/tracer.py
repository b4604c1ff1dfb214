# In-memory span tracer for the benchmark's traced runs.
#
# It replaces a function by a timing wrapper at the place where its caller
# looks the name up: `adamerge.runtime` binds `matmul`, `salience_of` and
# the other kernels at import time, so the wrapper must go on
# `adamerge.runtime.matmul`, not on `adamerge.numeric.matmul`. A site whose
# module or name no longer exists is recorded as absent, not an error.

import importlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    sample: object   # label of the unit of work the span belongs to
    self_s: float    # duration minus the time covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Site(NamedTuple):
    module: str
    attr: str
    name: str                          # span name, e.g. "numeric.matmul"
    count: Callable | None = None      # count(tracer, args, kwargs, result)


class Tracer:
    def __init__(self, sites):
        self.sites = list(sites)
        self.spans = []
        self.counts = defaultdict(float)   # (sample, key) -> total
        self.sample = None
        self.absent = []
        self._stack = []                   # [span index, child time, name]
        self._installed = []

    def add(self, key: str, value: float) -> None:
        self.counts[(self.sample, key)] += value

    def parent_name(self) -> str | None:
        """Name of the innermost open span (valid inside a count hook)."""
        return self._stack[-1][2] if self._stack else None

    def _wrap(self, fn, site: Site):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0, site.name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                spans[idx] = Span(site.name, start, end,
                                  parent[0] if parent else -1, self.sample,
                                  end - start - frame[1])
                if parent:
                    parent[1] += end - start
            if site.count is not None:
                site.count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for site in self.sites:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                module = None
            fn = getattr(module, site.attr, None)
            if fn is None:
                missing = f"{site.module}.{site.attr}"
                if missing not in self.absent:
                    self.absent.append(missing)
                continue
            setattr(module, site.attr, self._wrap(fn, site))
            self._installed.append((module, site.attr, fn))
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)
        return False

    # -- aggregation ------------------------------------------------------

    def self_time(self, samples) -> dict:
        """Summed self time per span name over the given samples."""
        out = defaultdict(float)
        for s in self.spans:
            if s.sample in samples:
                out[s.name] += s.self_s
        return out

    def total_time(self, samples, names) -> float:
        """Summed duration of the outermost spans named in `names`."""
        total = 0.0
        for s in self.spans:
            if s.sample in samples and s.name in names and \
                    not self._inside(s.parent, names):
                total += s.duration
        return total

    def _inside(self, idx: int, names) -> bool:
        while idx >= 0:
            if self.spans[idx].name in names:
                return True
            idx = self.spans[idx].parent
        return False

    def count(self, samples, key: str) -> float:
        return sum(v for (sample, k), v in self.counts.items()
                   if k == key and sample in samples)
