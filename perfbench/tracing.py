"""In-memory span tracer for the benchmark's traced run.

The tracer swaps wrappers in for the program's layer entry points — the
names are patched where they are *looked up*, so a function that
``repro.linscale.calculator`` imported into its own namespace is wrapped
there — and records one span per call: name, start, end, parent span,
run id and thread.  Spans stay in memory until :meth:`Tracer.dump`.
:meth:`Tracer.restore` puts every original object back.

While inactive (see :meth:`Tracer.active`) the wrappers are
pass-through, so checks that run after the timed phase are not traced.
The time a wrapper spends on its own bookkeeping is measured per span
(``overhead``), which gives the instrumentation cost directly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    overhead: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps layer entry points and collects spans from every thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object, bool]] = []
        self._enabled = False
        self._lock = threading.Lock()
        #: named integer / float tallies filled by call hooks
        self.tallies: dict[str, float] = {}

    # -- span bookkeeping ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tally(self, name: str, value: float) -> None:
        with self._lock:
            self.tallies[name] = self.tallies.get(name, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (an operation of the workload)."""
        if not self._enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, self.run_id,
                                   threading.get_ident(), 0.0))

    @contextlib.contextmanager
    def active(self):
        """Record spans and ``repro.obs`` counts inside this block.

        Counts go to a fresh registry, as the benchmark suite's metrics
        fixture does; it is kept in :attr:`registry` afterwards.
        Outside this block the wrappers are pass-through.
        """
        from repro.obs import metrics

        self.registry = metrics.MetricsRegistry()
        old_registry = metrics._swap_registry(self.registry)
        old_enabled = metrics._ENABLED
        metrics._ENABLED = True
        self._enabled = True
        try:
            with self.span("run"):
                yield self
        finally:
            self._enabled = False
            metrics._ENABLED = old_enabled
            metrics._swap_registry(old_registry)

    @contextlib.contextmanager
    def paused(self):
        """Neither spans nor counts inside this block (output checks)."""
        from repro.obs import metrics

        was, old_enabled = self._enabled, metrics._ENABLED
        self._enabled = False
        metrics._ENABLED = False
        try:
            yield
        finally:
            self._enabled = was
            metrics._ENABLED = old_enabled

    # -- patching ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recording *name*.

        *hook(args, kwargs, result)*, when given, runs after each traced
        call (outside the span) to tally work counts.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        fn = getattr(owner, attr)
        if isinstance(original, staticmethod):
            fn = original.__func__
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            span = Span(sid, name, t0, t1, parent, tracer.run_id,
                        threading.get_ident(), 0.0)
            tracer.spans.append(span)
            span.overhead = (t0 - t_in) + (perf_counter() - t1)
            return result

        replacement = staticmethod(wrapper) \
            if isinstance(original, staticmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._patched]

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its child spans cover.

        Children run on the parent's thread and inside its interval, one
        after another, so their durations add without overlap.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) \
                    + s.duration
        return {s.sid: s.duration - child_time.get(s.sid, 0.0)
                for s in self.spans}

    def busy(self, prefix: str) -> float:
        """Wall time inside spans named *prefix*… not nested in another
        span of the same prefix (so recursion is not counted twice)."""
        by_id = {s.sid: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if not s.name.startswith(prefix):
                continue
            p = s.parent
            nested = False
            while p is not None:
                ps = by_id[p]
                if ps.name.startswith(prefix):
                    nested = True
                    break
                p = ps.parent
            if not nested:
                total += s.duration
        return total

    def count(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s.name.startswith(prefix))

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id,
                       "spans": [dict(asdict(s), self_s=selfs[s.sid])
                                 for s in self.spans]}, fh)


class NullTracer:
    """The untraced run: every block is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def active(self):
        return contextlib.nullcontext(self)

    def paused(self):
        return contextlib.nullcontext()
