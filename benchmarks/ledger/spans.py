"""In-memory span recorder for the ledger benchmark.

Spans are recorded from *outside* the program: :func:`wrap` replaces a
public function of a layer with a wrapper that opens a span, calls the
original and closes the span.  Nothing under ``src/`` knows about it.

A span is a list ``[name, start, end, parent, tag]``: ``parent`` is the
span that was open on the same thread when this one opened (None for a
root), ``tag`` is whatever the harness put in :attr:`Recorder.tag` at
that moment (the unit/op the span belongs to).  A span's *self time* is
its duration minus the durations of its direct children, so self times
of a tree sum to the root's duration and no second is booked twice.
Garbage collection is booked as a child span (``runtime.gc``) of
whatever it interrupts, through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, TAG = range(5)

GC_SPAN = "runtime.gc"


def _raw(owner, attr: str):
    """``owner.attr`` as stored (keeping a classmethod/staticmethod
    wrapper), or as inherited when the class does not define it."""
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    return getattr(owner, attr) if raw is None else raw


class Recorder:
    """Collects spans and counters; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        #: harness-owned label copied into every span/counter.
        self.tag = None
        self._local = threading.local()
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else None, self.tag]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.tag, name)] += n

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_span = self.open(GC_SPAN)
        else:
            self.close(self._local.gc_span)

    # -- installing wrappers --------------------------------------------
    def wrap(self, owner, attr: str, name: str, calls: str | None = None,
             before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``calls`` names a counter bumped once per call; ``before`` is
        called with the recorder and the call's arguments just before
        the span opens (for counters that need to look at arguments).
        Class and static methods keep their binding."""
        raw = _raw(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                rec.count(calls)
            if before is not None:
                before(rec, *args, **kwargs)
            span = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)

        self._replace(owner, attr, raw, wrapper)

    def wrap_counter(self, owner, attr: str, calls: str) -> None:
        """Count calls of a function too hot to give a span."""
        raw = _raw(owner, attr)
        rec = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            rec.counts[(rec.tag, calls)] += 1
            return raw(*args, **kwargs)

        self._replace(owner, attr, raw, wrapper)

    def _replace(self, owner, attr, raw, wrapper) -> None:
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        setattr(owner, attr, wrapper)
        if inherited:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, raw))

    def start_gc_timer(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        out = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                out[index[id(parent)]] -= span[END] - span[START]
        return out

    def by_tag(self) -> dict:
        """``{tag: {name: [self seconds, calls, total seconds]}}`` over
        closed spans."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0.0]))
        for span, self_time in zip(self.spans, self.self_times()):
            if span[END] == 0.0:
                continue
            cell = out[span[TAG]][span[NAME]]
            cell[0] += self_time
            cell[1] += 1
            cell[2] += span[END] - span[START]
        return out

    def counts_by_tag(self) -> dict:
        out: dict = defaultdict(dict)
        for (tag, name), n in self.counts.items():
            out[tag][name] = n
        return out

    def rows(self) -> list[list]:
        """Spans as JSON-able rows ``[name, start, end, parent_index,
        tag]`` (parent_index -1 for roots)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [span[NAME], span[START], span[END],
             -1 if span[PARENT] is None else index[id(span[PARENT])],
             span[TAG]]
            for span in self.spans
        ]
