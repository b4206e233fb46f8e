"""Span and count recorder that wraps camsync's public functions from outside.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 for a root) and ``note`` is what a
per-name hook took from the call, such as a solver's candidate count or the
class of the exception it raised. Spans stay in memory until ``dump``.

Tracing is off unless a ``Tracer`` is installed; ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, note=None):
        """Return ``fn`` recording one span per call.

        ``note(args, result)`` fills the span's note after a return; an
        exception leaves its class name there instead and is re-raised.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def counted(self, fn, name):
        """Return ``fn`` counting calls, without a span.

        Counts are keyed by ``(name, root)``, ``root`` being the index of the
        outermost open span (-1 outside any span).
        """
        counts, stack = self.counts, self._stack

        def counted_fn(*args, **kwargs):
            counts[name, stack[0] if stack else -1] += 1
            return fn(*args, **kwargs)

        return counted_fn

    def patch(self, module, attr, wrapper):
        """Bind ``wrapper`` as ``module.attr`` until ``uninstall``."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[3] < 0 else out[s[3]])
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            counts = [[name, root, n] for (name, root), n in self.counts.items()]
            fh.write(json.dumps({"counts": counts}) + "\n")
