"""Spans and counts recorded around calls into the program, from outside it.

The tracer replaces a function or method with a wrapper for the duration of
a traced pass and puts the original back afterwards; nothing under
``src/expweyl`` is edited.  Three kinds of wrapper:

* ``span``: a timed call recorded as a span (name, start, end, parent,
  request) and kept in memory until the pass ends;
* ``timed``: timed for self time but not recorded, for functions called
  too often to keep one span per call (the derivative caches);
* ``counted``: counted only, for per-scalar and per-monomial hot paths.

Self time is a call's duration minus the time of the timed calls made inside
it.  Wrappers do nothing while ``active`` is false, so input generation and
output checks between requests stay out of the numbers.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._stack: list[list[int]] = []  # [child ns, span index] per open timed call
        self._open: list[int] = []  # indices of open recorded spans
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` until restore()."""
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, module: str, attr: str, make_wrapper) -> None:
        """Wrap a module function and every ``from module import name`` copy."""
        orig = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "expweyl" or name.startswith("expweyl.")) and getattr(mod, attr, None) is orig:
                self.patch(mod, attr, wrapper)

    def patch_method(self, cls, attrs, make_wrapper) -> None:
        """Wrap one method, under each of the given aliases."""
        if isinstance(attrs, str):
            attrs = (attrs,)
        wrapper = make_wrapper(cls.__dict__[attrs[0]])
        for attr in attrs:
            self.patch(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- wrapper factories -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, *, before=None, after=None, always: bool = False):
        return self._timed(name, record=True, before=before, after=after, always=always)

    def timed(self, name: str, *, before=None):
        return self._timed(name, record=False, before=before, after=None, always=False)

    def _timed(self, name, *, record, before, after, always):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def make(orig):
            def wrapper(*args, **kwargs):
                if not (tracer.active or always):
                    return orig(*args, **kwargs)
                if before is not None:
                    before(tracer, args)
                frame = [0, tracer._start_span(nid) if record else -1]
                tracer._stack.append(frame)
                t0 = clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    t1 = clock()
                    tracer._close(name, frame, t0, t1)
                if after is not None:
                    after(tracer, args, result)
                return result

            wrapper.__wrapped__ = orig
            return wrapper

        return make

    def counted(self, name: str, *, before=None, always: bool = False):
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                if tracer.active or always:
                    tracer.counts[name] += 1
                    if before is not None:
                        before(tracer, args)
                return orig(*args, **kwargs)

            wrapper.__wrapped__ = orig
            return wrapper

        return make

    # -- span bookkeeping ----------------------------------------------------------

    def _start_span(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_request.append(self.request)
        self._open.append(idx)
        return idx

    def _close(self, name: str, frame: list[int], t0: int, t1: int) -> None:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        self.self_ns[name] += dur - frame[0]
        self.calls[name] += 1
        if frame[1] >= 0:
            self.span_end[frame[1]] = t1
            self._open.pop()

    def begin_request(self, index: int, kind: str):
        """Open the root span of one request and turn the wrappers on."""
        self.request = index
        frame = [0, self._start_span(self._name_id(f"request.{kind}"))]
        self._stack.append(frame)
        self.active = True
        return frame, time.perf_counter_ns()

    def end_request(self, kind: str, token) -> None:
        t1 = time.perf_counter_ns()
        self.active = False
        frame, t0 = token
        self._close(f"request.{kind}", frame, t0, t1)
        self.request = -1

    # -- results -------------------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line with the name table, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "request"]}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{self.span_name[i]},{self.span_start[i]},{self.span_end[i]},"
                    f"{self.span_parent[i]},{self.span_request[i]}]\n"
                )
