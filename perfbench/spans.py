"""In-memory spans recorded around calls into bridgebound's modules.

A span has an index, a name, a start and end (``time.perf_counter``
seconds), and the index of the span that was open when it started.
Spans are kept in memory and written out once, when the run ends.  Calls
into the package are timed by swapping a module attribute for a wrapper
for the length of a ``with tracer.patched(...)`` block, so the package
itself carries no tracing code.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def patched(self, targets):
        """Time every call to ``module.attr`` as a span, for each (module, attr, name)."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, original), (_, _, name) in zip(saved, targets):
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _ancestors(self, record: dict):
        parent = record["parent"]
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent]["parent"]

    def under(self, name: str, ancestor: str) -> list[dict]:
        """Closed spans called ``name`` with an enclosing span called ``ancestor``."""
        return [
            r
            for r in self.spans
            if r["name"] == name
            and r["end"] is not None
            and any(a["name"] == ancestor for a in self._ancestors(r))
        ]

    def descendants(self, record: dict, name: str) -> list[dict]:
        """Closed spans called ``name`` opened inside ``record``."""
        return [
            r
            for r in self.spans
            if r["name"] == name
            and r["end"] is not None
            and any(a is record for a in self._ancestors(r))
        ]

    def median_s(self, name: str, ancestor: str) -> float:
        return statistics.median(duration(r) for r in self.under(name, ancestor))

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1) + "\n")


def duration(record: dict) -> float:
    return record["end"] - record["start"]
