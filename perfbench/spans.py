"""In-memory span and count recorder that wraps functions in place.

``Tracer.span`` and ``Tracer.count`` replace an attribute of a module or
class with a wrapper; ``Tracer.restore`` puts every original back.  Spans
are ``[name, start, end, parent, job]`` lists (times from
``time.perf_counter``, ``parent`` an index into ``spans`` or -1) and stay
in memory until ``write`` is called.  Counts and result hooks apply only
while a job is active (``job`` is not None).
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, make_wrapper):
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, on_result=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_result(args, result)`` runs after a call in a job that returned.
        """
        spans, stack = self.spans, self._stack

        def make(original):
            def wrapper(*args, **kwargs):
                rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if on_result is not None and self.job is not None:
                    on_result(args, result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str):
        """Add one to ``counts[name]`` on every call of ``owner.attr`` in a job."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                if self.job is not None:
                    counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def restore(self):
        """Put back every wrapped attribute, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )
