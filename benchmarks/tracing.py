"""In-memory spans and counters recorded around calls into kuiperpair's layers.

Spans are recorded from the benchmark's side only: public functions are
replaced, for the length of a traced pass, by wrappers that note
(name, start, end, parent, op).  The layer of a span is the module part of its
name, and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("bench", "quantile", "fixed_point", "survival_vn", "survival_vnn", "empirical", "cli")


class Tracer:
    """Span recorder; stops recording new spans once ``max_spans`` is reached."""

    def __init__(self, max_spans: int = 150_000):
        self.max_spans = max_spans
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.ops = 0

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.max_spans

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        op = self.spans[self.stack[0]][4] if self.stack else index
        self.spans.append([name, perf_counter_ns(), 0, parent, op])
        self.stack.append(index)
        if parent < 0:
            self.ops += 1
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` inside a span; counts calls and exceptions per span name."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            self.counters[f"{name}.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end(index)

        return traced

    def self_ns_by_layer(self) -> dict[str, int]:
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += end - start - child_ns[index]
        return dict(totals)

    def write(self, path, summary: dict) -> None:
        """One JSON summary line, then one [name, start, end, parent, op] per span."""
        summary = {**summary, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def span_name(fn) -> str:
    """'survival_vn.f_nlm1' for kuiperpair.survival_vn.f_nlm1, and so on."""
    module = getattr(fn, "__module__", None) or "unknown"
    return f"{module.rsplit('.', 1)[-1]}.{getattr(fn, '__name__', type(fn).__name__)}"


def _solver_wrapper(tracer: Tracer, solve):
    """Span the solver and every package function it is handed (the residual)."""
    wrapped: dict[int, object] = {}

    def traced_arg(arg):
        module = getattr(arg, "__module__", "") or ""
        if not callable(arg) or not module.startswith("kuiperpair.") or module == solve.__module__:
            return arg
        key = id(arg)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(span_name(arg), arg)
        return wrapped[key]

    span = tracer.wrap(span_name(solve), solve)

    def traced(*args, **kwargs):
        return span(*(traced_arg(a) for a in args), **kwargs)

    return traced


@contextmanager
def patched(tracer: Tracer, targets, absent: list[str]):
    """Temporarily replace ``module.attr`` for each (module, attr) in targets.

    A target the package no longer has is listed in ``absent`` and skipped.
    ``solve_fixed_point`` also gets its function arguments spanned.
    """
    saved = []
    try:
        for module, attr in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            if attr == "solve_fixed_point":
                setattr(module, attr, _solver_wrapper(tracer, fn))
            else:
                setattr(module, attr, tracer.wrap(span_name(fn), fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
