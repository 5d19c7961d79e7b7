"""In-memory span tracer that wraps public strokedet callables from outside.

A span is (name, start, end, parent, op, counts). `op` is the identifier of
the benchmark operation the span belongs to, so spans of one operation can be
grouped; `counts` holds work counts taken at the same boundary (batch size,
flops, candidates, ...). Nothing here edits the package: wrappers replace
module or class attributes and `uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self.op = None
        self._stack = []
        self._patches = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counts) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = counts
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        """Span around the benchmark's own code; `op` starts a new operation."""
        if op is not None:
            self.op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, None)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` by a spanned wrapper.

        `count(args, kwargs, result)` returns the span's work counts; it runs
        after the span is closed, so it is not charged to the call.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, None)
                raise
            tracer._close(index, None)
            if count is not None:
                tracer.spans[index][5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": start - base, "end_s": end - base,
                    "parent": parent, "op": op, "counts": counts,
                }) + "\n")
