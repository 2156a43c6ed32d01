"""In-memory span tracing of the sympdefect modules, and the statistics the
benchmark reports from timings.

A :class:`Tracer` wraps functions of the package from outside: the library
code is never edited.  Every wrapped call appends one span
``[name, tag, parent, start, end]`` to a list that stays in memory until the
run ends; ``parent`` is the index of the innermost wrapped call that was
active when the span started (-1 at top level).
"""

from __future__ import annotations

import inspect
import math
import statistics
from collections.abc import Callable, Iterable
from time import perf_counter
from types import ModuleType

NAME, TAG, PARENT, START, END = range(5)

# Percentiles considered for the reported tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records nested spans for calls to wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """`fn` with a span around every call; `tag(args)` labels the span."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, tag(args) if tag else None, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(
        self,
        modules: Iterable[ModuleType],
        namespaces: Iterable[object],
        select: Callable[[str, str], bool],
        tags: dict[str, Callable] | None = None,
    ) -> list[str]:
        """Wrap the selected functions and methods defined in `modules`.

        `select(qualified_name, attribute_name)` picks what to wrap; names
        are ``<module>.<function>`` or ``<module>.<Class>.<method>`` with
        the package prefix dropped.  Every reference to a wrapped function
        found in `namespaces` is replaced, so ``from .x import f`` copies
        are traced too.  Returns the wrapped names.
        """
        tags = tags or {}
        wrapped: dict[Callable, Callable] = {}
        names = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{short}.{attr}"
                    if select(qual, attr):
                        wrapped[obj] = self.wrap(qual, obj, tags.get(qual))
                        names.append(qual)
                elif inspect.isclass(obj):
                    names += self._wrap_class(short, obj, select, tags)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(namespace, attr, wrapped[obj])
        return names

    def _wrap_class(self, short, cls, select, tags) -> list[str]:
        names = []
        for attr, obj in list(vars(cls).items()):
            qual = f"{short}.{cls.__name__}.{attr}"
            if not select(qual, attr):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(qual, obj, tags.get(qual)))
            elif isinstance(obj, classmethod):
                inner = self.wrap(qual, obj.__func__, tags.get(qual))
                self._patch(cls, attr, classmethod(inner))
            else:
                continue
            names.append(qual)
        return names

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of its interval and their durations add up.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def tail_percentile(values: Iterable[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples beyond
    it, by the nearest-rank rule; None when even the median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def summarize(values: list[float], scale: float = 1.0) -> dict:
    """Sample count, median and reportable tail percentile, times `scale`."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "p50": statistics.median(values) * scale}
    tail = tail_percentile(values)
    if tail is not None and tail[0] > 50.0:
        out[f"p{tail[0]:g}"] = tail[1] * scale
    return out


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
