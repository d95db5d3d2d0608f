"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is (id, name, start, end, parent, request): times are
``time.perf_counter`` seconds, ``parent`` is the id of the enclosing span
(or None), and all spans of one request share the ``request`` identifier.
Nothing is written until :meth:`Tracer.dump` runs at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    def span(self, name, request=None):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, request=None):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._open[-1] if self._open else None, request]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
