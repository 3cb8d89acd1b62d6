"""In-memory span recorder for the traced benchmark run.

Spans are opened from the benchmark's own code, around calls into the
public functions of higgsdt; nothing inside the package is instrumented.
A span records its name, start, end, the span that was open when it began
(its parent) and the run it belongs to.  The recorder keeps everything in a
list and writes it out once, when the run ends.
"""

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # [id, name, start, end, parent]
        self.counts = {}
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._open[-1][0] if self._open else None]
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        """fn with a span around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        """Summed self time per span name: duration minus the time covered by
        direct children.  The traced code is single-threaded, so children of
        one span never overlap and their durations simply add."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for i, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end})
                         + "\n")


@contextlib.contextmanager
def patched(module, attr, replacement):
    """Rebind module.attr for the duration of the block (the module's own
    global lookups then see the replacement), restoring it afterwards."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)
