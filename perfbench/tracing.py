"""Spans around calls into gfsim, recorded from outside the package.

A span is (name, start, end, parent, run, op): `name` is "<layer>.<call>",
`parent` is the index of the enclosing span (or -1), `run` identifies the
benchmark run and `op` the workload operation the span belongs to.  Spans are
kept in memory and written out once, when the run ends.

Calls are captured by replacing a module or class attribute with a wrapper for
the duration of the traced pass; `uninstall` puts every original back, so the
untraced passes run the unmodified code.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.recording = False

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while the benchmark checks an output."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def count(self, key: str, amount: float = 1):
        self.counts[key] += amount

    def record_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- call capture --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace owner.attr by a spanned call; `after(result, args, kwargs)` records counts."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = target(*args, **kwargs)
            if after is not None and tracer.recording:
                after(result, args, kwargs)
            return result

        # a classmethod is fetched already bound, so it goes back as a staticmethod
        replacement = staticmethod(traced) if isinstance(raw, classmethod) else traced
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, raw))

    def uninstall(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def self_times(self, first_op: int = 0) -> dict[str, float]:
        """Per layer: span durations minus the part covered by child spans, for ops >= first_op."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if op >= first_op:
                layers[name.split(".", 1)[0]] += (end - start) - child_time[index]
        return dict(layers)

    def dump(self, path):
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": rows}, fh)
            fh.write("\n")
