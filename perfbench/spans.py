"""In-memory span recording around calls into the program's layers.

The benchmark records spans from its own code only: :meth:`SpanRecorder.patch`
replaces a public function or method at the site the program imports
it from (for example ``repro.pic.simulation.gather``) with a wrapper
that opens a span around each call, and restores the original on exit.
Spans nest per thread; each carries the request id and the benchmark
segment that were current when it opened.  Nothing is written until
the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "int | None" = None
    request: str = ""
    segment: str = ""
    family: str = ""
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> "dict[str, Any]":
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request,
            "segment": self.segment, "family": self.family,
            "nbytes": self.nbytes,
        }


class SpanRecorder:
    """Collects spans while :attr:`enabled`; wrappers are no-ops otherwise."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.enabled = False
        self.segment = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- context of the calling thread ----------------------------------
    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag spans opened by this thread with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def open(self, name: str, family: str = "") -> "int | None":
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if not family and parent is not None:
                family = self.spans[parent].family
            span = Span(
                name=name,
                start=time.perf_counter(),
                parent=parent,
                request=getattr(self._local, "request", None) or self.segment,
                segment=self.segment,
                family=family,
            )
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: "int | None", nbytes: int = 0) -> None:
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        self.spans[index].nbytes += nbytes
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, family: str = "") -> Iterator["int | None"]:
        index = self.open(name, family)
        try:
            yield index
        finally:
            self.close(index)

    # -- wrapping the program's functions --------------------------------
    def _wrapper(self, fn: Callable[..., Any], target: "Target") -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            family = target.family_of(*args, **kwargs) if target.family_of else ""
            request = (
                recorder.request(target.request_of(*args, **kwargs))
                if target.request_of else contextlib.nullcontext()
            )
            with request:
                index = recorder.open(target.span, family)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    recorder.close(index)
                    raise
                recorder.close(
                    index, target.observe(args, kwargs, out) if target.observe else 0
                )
            return out

        return traced

    @contextlib.contextmanager
    def patch(self, targets: "Sequence[Target]") -> Iterator[None]:
        """Wrap every target's function; restore the originals on exit.

        Class- and static methods keep their descriptor type.
        """
        saved: "list[tuple[object, str, object]]" = []
        try:
            for target in targets:
                raw = inspect.getattr_static(target.owner, target.attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: object = type(raw)(self._wrapper(raw.__func__, target))
                else:
                    wrapped = self._wrapper(raw, target)
                setattr(target.owner, target.attr, wrapped)
                saved.append((target.owner, target.attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a module or class attribute).

    ``family_of`` and ``request_of`` receive the call's arguments and
    name the engine family / request id the span belongs to.
    ``observe(args, kwargs, result)`` returns the bytes the call moved
    (added to the span) and may record further facts about the call.
    """

    owner: object
    attr: str
    span: str
    family_of: "Callable[..., str] | None" = None
    request_of: "Callable[..., str] | None" = None
    observe: "Callable[[tuple, dict, Any], int] | None" = None


# -- analysis ----------------------------------------------------------
def union_length(intervals: "Sequence[tuple[float, float]]") -> float:
    """Total length covered by the union of ``[start, end]`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "Sequence[Span]") -> "list[float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        kids = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if e > span.start and s < span.end
        ]
        out.append(span.duration - union_length(kids))
    return out


def unattributed_fraction(
    spans: "Sequence[Span]", root_name: str, waits: "Sequence[str]" = ()
) -> float:
    """Share of the ``root_name`` windows no layer span of the same request covers.

    Spans named in ``waits`` (the benchmark blocking on the program)
    cover nothing.
    """
    windows: "dict[str, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.name == root_name:
            windows.setdefault(span.request, []).append((span.start, span.end))
    total = uncovered = 0.0
    for request, roots in windows.items():
        inner = [
            (s.start, s.end) for s in spans
            if s.request == request and s.name != root_name and s.name not in waits
        ]
        for start, end in roots:
            clipped = [
                (max(s, start), min(e, end)) for s, e in inner if e > start and s < end
            ]
            total += end - start
            uncovered += (end - start) - union_length(clipped)
    return uncovered / total if total > 0 else 0.0
