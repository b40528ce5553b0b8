"""In-memory spans for a traced run, and the self-time arithmetic on them.

A span is one call of a wrapped function: its name, start and end on
the perf_counter clock, the index of the span that was open when it
started (its parent), the run it belongs to, the process RSS high-water
mark (``ru_maxrss``) at both ends, and optional counts taken from the
call's arguments and result.  The tracer keeps spans in a list and the
run writes them out once, after the traced command has returned.
"""

from __future__ import annotations

import functools
import resource
import time


def maxrss_kb():
    """High-water resident set size of this process, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records one span per wrapped call, nested by the call stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def open(self, name, start=None, rss_start_kb=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": parent,
            "run": self.run_id,
            "rss_start_kb": maxrss_kb() if rss_start_kb is None
            else rss_start_kb,
            "rss_end_kb": None,
            "counts": None,
        })
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_end_kb"] = maxrss_kb()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name, fn, count=None):
        """fn with a span around each call.

        count(args, kwargs, result) -> dict, when given, is stored as the
        span's counts; it runs after the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.spans[index]["counts"] = count(args, kwargs, result)
            return result

        return traced


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_costs(spans):
    """Per span: (self time in s, self RSS high-water growth in KiB).

    Self time is the span's duration minus the part of its interval that
    its child spans cover.  The high-water mark only rises, so a span's
    growth is at least the sum of its children's; the remainder is the
    growth the span caused itself.
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    costs = []
    for index, span in enumerate(spans):
        kids = [spans[k] for k in children[index]]
        covered = _covered(span["start"], span["end"],
                           [(k["start"], k["end"]) for k in kids])
        growth = span["rss_end_kb"] - span["rss_start_kb"]
        kid_growth = sum(k["rss_end_kb"] - k["rss_start_kb"] for k in kids)
        costs.append((span["end"] - span["start"] - covered,
                      growth - kid_growth))
    return costs
