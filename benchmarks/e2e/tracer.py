"""Outside-in span tracer: wrap public callables, record spans, compute self time.

The benchmark never edits ``src/repro``.  To learn where an operation's
time goes it wraps the layers' *public* callables from outside:

* methods are patched on their class (``wrap_method``), so every instance
  — including ones built after the patch — is traced;
* module functions are re-bound in *every* ``sys.modules`` namespace that
  holds them (``wrap_function``), because ``from m import f`` copies the
  reference and patching ``m.f`` alone would miss those call sites.

Every call of a wrapped callable appends one span ``[name, start, end,
parent, weight]`` to an in-memory list; ``parent`` is the index of the span
that was open when the call started (-1 for a root), so the spans of one
end-to-end operation hang off the root span that caused them.  Nothing is
written anywhere until the caller asks for a summary.

Self time is a span's duration minus the part its child spans cover.  The
process is single-threaded, so child spans never overlap and "covered" is
simply the sum of the direct children's durations.

Hot callables that are too cheap to time (``mod_pow``: ~150 calls per
operation) are only *counted* (``count_function``), keyed by the root span
they ran under.

Leaving the ``with Tracer() as tracer:`` block — normally or through an
exception — restores every patched attribute to the very object that was
there before.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Span fields.  A wrapper's ``name`` is a span name, or a function of the
#: call's ``(args, kwargs)`` that picks one; ``None`` from it passes the call
#: through without a span.
NAME, START, END, PARENT, WEIGHT = range(5)


@dataclass
class Aggregate:
    """Totals for one span name (seconds; ``weight`` is caller-defined)."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    weight: float = 0.0


class Tracer:
    """Records nested spans around wrapped callables (one thread only)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        #: (root span name, counter name) -> calls seen under that root.
        self.counts: dict[tuple[str | None, str], int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Put every patched attribute back (latest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- wrapping ------------------------------------------------------------

    def _traced(self, func: Callable, name: Any, weight: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = name if isinstance(name, str) else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = fixed if fixed is not None else name(args, kwargs)
            if label is None:
                return func(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    weight(args, kwargs) if weight is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    def _counted(self, func: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            key = (spans[stack[0]][NAME] if stack else None, name)
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func  # type: ignore[attr-defined]
        return counted

    def wrap_method(
        self, cls: type, attr: str, name: Any, weight: Callable | None = None
    ) -> None:
        """Trace ``cls.attr`` (plain, class or static method) as ``name``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._traced(raw.__func__, name, weight))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._traced(raw.__func__, name, weight))
        else:
            patched = self._traced(raw, name, weight)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def _rebind(self, module: Any, attr: str, replacement_for: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        replacement = replacement_for(original)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = replacement

    def wrap_function(
        self, module: Any, attr: str, name: Any, weight: Callable | None = None
    ) -> None:
        """Trace module function ``module.attr`` wherever it was imported."""
        self._rebind(module, attr, lambda func: self._traced(func, name, weight))

    def count_function(self, module: Any, attr: str, name: str) -> None:
        """Count (never time) calls of ``module.attr`` wherever imported."""
        self._rebind(module, attr, lambda func: self._counted(func, name))

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def roots(self) -> list[int]:
        """For every span, the index of the root span it descends from."""
        root_of: list[int] = []
        for index, span in enumerate(self.spans):
            root_of.append(index if span[PARENT] < 0 else root_of[span[PARENT]])
        return root_of

    def summarize(self, root_names: Iterable[str] | None = None) -> dict[str, Aggregate]:
        """Per-name totals over spans whose root span is named in ``root_names``.

        ``None`` takes every span.  A root name ending in ``*`` matches by
        prefix.
        """
        keep = _matcher(root_names)
        own = self.self_times()
        root_of = self.roots()
        out: dict[str, Aggregate] = {}
        for index, span in enumerate(self.spans):
            if not keep(self.spans[root_of[index]][NAME]):
                continue
            agg = out.get(span[NAME])
            if agg is None:
                agg = out[span[NAME]] = Aggregate()
            agg.calls += 1
            agg.total += span[END] - span[START]
            agg.self_time += own[index]
            agg.weight += span[WEIGHT]
        return out

    def count_totals(self, root_names: Iterable[str] | None = None) -> dict[str, int]:
        """Counter totals over calls made under the named roots."""
        keep = _matcher(root_names)
        out: dict[str, int] = {}
        for (root, name), calls in self.counts.items():
            if root is not None and keep(root):
                out[name] = out.get(name, 0) + calls
        return out


def _matcher(root_names: Iterable[str] | None) -> Callable[[str], bool]:
    if root_names is None:
        return lambda _name: True
    names = tuple(root_names)
    exact = {name for name in names if not name.endswith("*")}
    prefixes = tuple(name[:-1] for name in names if name.endswith("*"))
    return lambda name: name in exact or (bool(prefixes) and name.startswith(prefixes))
