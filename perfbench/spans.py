"""In-memory span tracing, installed from outside around public calls.

The library under test carries no tracing hooks, so the benchmark wraps
the public functions of each layer inside its own process: a wrapper
records one :class:`Span` per call (name, start, end, parent span, the
request id the calling thread is working on, and an optional work
count) and :meth:`Tracer.restore` puts the original functions back.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    n: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``count(args, kwargs) -> int``: the work a call carries (e.g. plans).
CountFn = Callable[[tuple, dict], int]


class Tracer:
    """Records spans; every clock reading is ``time.monotonic()``, the
    clock :class:`~repro.serving.Prediction` stamps requests with."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context ------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Optional[int]:
        """The request id the calling thread is working on."""
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value: Optional[int]) -> None:
        self._local.request = value

    def record(self, name: str, start: float, end: float, request: Optional[int]) -> None:
        """Add a top-level span measured elsewhere (e.g. derived from the
        stamps a request carries)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, request, None))

    # -- wrappers -----------------------------------------------------------
    def _timed(self, name: str, call: Callable, count: Optional[CountFn]) -> Callable:
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.monotonic()
            try:
                return call(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                n = count(args, kwargs) if count is not None else None
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.request, n)
                )

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` — a function of a module, or a method or
        class method a class defines itself — with a span-recording
        wrapper that keeps its calling convention."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            # Bound to ``owner`` now; served back as a plain function.
            replacement: object = staticmethod(self._timed(name, getattr(owner, attr), count))
        else:
            replacement = self._timed(name, raw, count)
        self._install(owner, attr, replacement)

    def wrap_iterator(self, owner: object, attr: str, name: str) -> None:
        """Wrap a method returning an iterator: each ``next()`` on the
        returned iterator becomes one span (the exhausting call too)."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            step = self._timed(name, lambda: next(iterator, _DONE), None)

            def timed():
                while True:
                    item = step()
                    if item is _DONE:
                        return
                    yield item

            return timed()

        self._install(owner, attr, wrapper)

    def _install(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- output ---------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(list(Span._fields)) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


_DONE = object()
