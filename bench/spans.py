"""In-memory span tracer that wraps ruellebf functions at their module attributes.

The CLI and the library call each other through module attributes and module
globals, so a wrapper installed with setattr also sees calls made inside a
module. Spans record name, start, end, parent span and thread; they stay in
memory until the report is built. Hot functions get a call counter instead
of a span.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name, self.start, self.end, self.parent, self.thread = name, start, None, parent, thread


class Tracer:
    """Install with `install(targets)`, run the workload, then `uninstall()`.

    A target is (module, attribute path, span name, note); the path may name a
    class method ("Class.method"), and note(arguments, result, exc) runs after
    the span closes, with the call's arguments bound to parameter names. A
    span name of None makes the wrapper a call counter named by `note`. A path
    the program no longer has is skipped, so its metrics read 0.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, itertools.count] = {}
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._restore = []

    def install(self, targets):
        for module, path, name, note in targets:
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if name is None:
                wrapper = self._counting(original, note)
            else:
                wrapper = self._spanning(original, name, note)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def count(self, name: str) -> int:
        """Calls counted under name; reading consumes one tick, so read once."""
        counter = self.counters.get(name)
        return next(counter) if counter else 0

    def _counting(self, func, name):
        counter = self.counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return func(*args, **kwargs)
        return wrapper

    def _spanning(self, func, name, note):
        spans, stacks, clock = self.spans, self._stacks, time.perf_counter
        signature = inspect.signature(func) if note is not None else None

        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: the work was handed over by the main thread's open span
                main = stacks.get(self._main)
                parent = main[-1] if main else None
            span = Span(name, clock(), parent, thread)
            stack.append(span)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
                if note is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    note(bound.arguments, result, exc)
        return wrapper


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name.

    Self time is the span's duration minus the time covered by its children.
    A span whose children run on other threads waits for them and gets no
    self time meanwhile; spans open at the same instant on different threads
    share that instant equally, since the interpreter lock runs one at a time.
    The self times therefore add up to the time covered by any span.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    stacks: dict[int, list[Span]] = defaultdict(list)
    waiting: dict[int, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    prev = None
    for t, kind, span in events:
        if prev is not None and t > prev:
            active = [s[-1] for s in stacks.values() if s and not waiting[id(s[-1])]]
            for s in active:
                out[s.name] += (t - prev) / len(active)
        prev = t
        cross = span.parent is not None and span.parent.thread != span.thread
        if kind:
            stacks[span.thread].append(span)
            if cross:
                waiting[id(span.parent)] += 1
        else:
            stacks[span.thread].remove(span)
            if cross:
                waiting[id(span.parent)] -= 1
    return dict(out)
