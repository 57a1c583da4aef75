"""In-memory span tracer that wraps alexlab's public functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` swaps a
timing wrapper into every module attribute (and class attribute) that holds
one of the listed functions, so calls made inside the library nest too, and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in memory
and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Nested spans plus per-op counters recorded at layer boundaries."""

    def __init__(self):
        # each span is [name, start, end, parent span index or -1, op index]
        self.spans: list[list] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap `fn` so that every call records a span named `name`.

        `hook(tracer, args, kwargs, result)` runs after the call returns and
        records counters; it is not part of the span's time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    # -- patching ------------------------------------------------------------

    def install(self, targets, modules) -> None:
        """Wrap each (owner, attribute, span name, hook) target.

        A function owned by a module is also replaced wherever one of
        `modules` imported it by name, so library-internal calls are traced.
        """
        for owner, attr, name, hook in targets:
            original = vars(owner)[attr]
            wrapped = self.span(name, original, hook)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations.

        Calls are sequential in one thread, so the children of a span cover
        disjoint parts of its interval and their durations simply add.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write the header and every span (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [n, round(s - t0, 9), round(e - t0, 9), p, op]
                        for n, s, e, p, op in self.spans
                    ],
                },
                fh,
            )
