"""In-memory span recorder that times calls into a layer from outside.

The benchmark never edits the program to trace it.  :meth:`Tracer.wrap`
replaces a public function or method with a timing wrapper for the length
of a traced run, and :meth:`Tracer.restore` puts the original back.  Each
call becomes a span — name, start, end, parent span and request id — kept
in memory and written out when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.

Examples::

    >>> import types
    >>> module = types.SimpleNamespace(work=lambda n: sum(range(n)))
    >>> tracer = Tracer()
    >>> tracer.wrap(module, "work", "demo.work")
    >>> module.work(10)
    45
    >>> tracer.restore()
    >>> [span["name"] for span in tracer.spans], tracer.calls("demo.work")
    (['demo.work'], 1)
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs: Any) -> Iterator[None]:
        """Record one span around the ``with`` body, nested under the open one."""
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "request": request,
            "start": self.clock(),
            "end": None,
        }
        if attrs:
            span["attrs"] = attrs
        stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = self.clock()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            request: str | None = None) -> int:
        """Record a span measured elsewhere (e.g. stages echoed on a reply)."""
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "request": request, "start": start, "end": end})
        return span_id

    # ------------------------------------------------------------ patching
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Callable[..., dict] | None = None,
        before: Callable[[], None] | None = None,
    ) -> None:
        """Time every call to ``owner.attr`` as a span called *name*.

        *owner* is a module or a class; class, static and plain methods are
        all handled.  *describe*, given the call's arguments, returns extra
        attributes (such as tensor shapes) stored on the span.  *before*
        runs ahead of each call, outside its span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            attrs = describe(*args, **kwargs) if describe is not None else {}
            with tracer.span(name, **attrs):
                return func(*args, **kwargs)

        setattr(owner, attr, kind(timed) if kind is not None else timed)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- reading
    def _named(self, name: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def durations(self, name: str) -> list[float]:
        """Seconds of each span called *name*, in the order they ended."""
        return [end - start for start, end in self.intervals(name)]

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """``(start, end)`` of each span called *name*, in the order they ended."""
        return [(span["start"], span["end"]) for span in self._named(name)]

    def busy(self, name: str) -> float:
        """Seconds spent inside spans called *name* (children included)."""
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        """Number of spans called *name*."""
        return len(self._named(name))

    def attr_sum(self, name: str, key: str) -> float:
        """Sum of one recorded attribute over the spans called *name*."""
        return sum(span.get("attrs", {}).get(key, 0) for span in self._named(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals
