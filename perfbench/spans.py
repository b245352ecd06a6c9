"""In-memory span tracer that wraps library callables from the outside.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the run id shared by every span of one run. Spans stay in
memory until ``write`` dumps them as JSON lines at the end of the run.

The tracer patches attributes (class methods or module-level names) while
it is installed and puts the originals back on ``uninstall``. Where a caller
imported a function by name, patch the caller's module: that is the name
the call looks up.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._targets: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _begin(self, name: str, attrs: dict) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent,
                    attrs=attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = self._begin(name, attrs)
        try:
            yield s
        finally:
            self._end(s)

    # -- patching ---------------------------------------------------------------

    def target(self, owner, attr: str, name: str, attrs_of=None):
        """Register ``owner.attr`` to be traced as span ``name`` when installed.

        ``attrs_of(*args, **kwargs)`` returns extra attributes for the span;
        it runs before the span opens, so its cost is not in the span.
        """
        self._targets.append((owner, attr, name, attrs_of))

    def install(self):
        for owner, attr, name, attrs_of in self._targets:
            # read the class __dict__ so methods are wrapped unbound
            orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs_of))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            s = tracer._begin(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(s)

        return traced

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover.

        Spans come from one thread, so a span's children never overlap.
        """
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def under(self, scope: str) -> dict[int, list[Span]]:
        """Every span grouped by its nearest enclosing span named ``scope``."""
        groups: dict[int, list[Span]] = {}
        owner: dict[int, int | None] = {}
        for s in self.spans:                 # parents precede children
            if s.name == scope:
                owner[s.id] = s.id
                groups.setdefault(s.id, [])
                continue
            o = owner.get(s.parent) if s.parent is not None else None
            owner[s.id] = o
            if o is not None:
                groups[o].append(s)
        return groups

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "self": selfs[s.id], **s.attrs}) + "\n")
