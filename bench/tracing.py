"""Spans and counters recorded from outside the program.

Spans wrap qslora's public functions under the names their calling modules
bind (for example ``qslora.montecarlo.synthesize_chip_rows``), so the
program itself is unchanged. Spans live in memory and are written out once
the traced pass has ended. Only the process that installs the wrappers is
traced: chunk work done by worker processes is seen through the counting
executor, not through spans.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor


class Tracer:
    """Records (name, id, parent id, start, end) spans and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.counts: dict[str, int] = {}
        self.rows_shapes: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr with a wrapper that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, span_id, parent, start, end))
            if on_result is not None:
                on_result(result)
            return result

        self.patch(module, attr, wrapper)

    def counter(self, module, attr: str, name: str) -> None:
        """Replace module.attr with a wrapper that only counts calls."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


class _CountedFuture:
    """The two methods run_point calls on a chunk future, counted."""

    def __init__(self, future, counts: dict[str, int]) -> None:
        self._future = future
        self._counts = counts

    def result(self, timeout=None):
        self._counts["consumed"] += 1
        return self._future.result(timeout)

    def cancel(self) -> bool:
        cancelled = self._future.cancel()
        if cancelled:
            self._counts["cancelled"] += 1
        return cancelled


class CountingExecutor(ProcessPoolExecutor):
    """Process pool that counts chunks submitted, cancelled and consumed.

    run_point reads each chunk it uses through result() exactly once and
    cancels the rest when it stops, so the three counts give the share of
    submitted chunk work the estimate used.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counts = {"submitted": 0, "cancelled": 0, "consumed": 0}

    def submit(self, fn, /, *args, **kwargs):
        self.counts["submitted"] += 1
        return _CountedFuture(super().submit(fn, *args, **kwargs), self.counts)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark workloads cross."""
    from qslora import cli, continuous_time, montecarlo

    def record_rows(rows) -> None:
        tracer.rows_shapes.append(rows.shape)

    tracer.span(cli, "parse_config", "cli.parse_config")
    tracer.span(cli, "write_results", "cli.write_results")
    tracer.span(cli, "analytical_ser_sync", "montecarlo.analytical_ser_sync")
    tracer.span(montecarlo, "run_point", "montecarlo.run_point")
    tracer.span(montecarlo, "synthesize_chip_rows", "channel.synthesize_chip_rows", record_rows)
    tracer.span(continuous_time, "synthesize_chip_rows", "channel.synthesize_chip_rows", record_rows)
    tracer.span(continuous_time, "synthesize", "continuous_time.synthesize")
    tracer.span(continuous_time, "matched_filter_chip", "continuous_time.matched_filter_chip")
    tracer.counter(continuous_time, "sample_waveform", "waveforms.sample_waveform")

    # integrand evaluations are counted through a wrapped integrand
    integrate = continuous_time.integrate

    @functools.wraps(integrate)
    def counted_integrate(f, *args, **kwargs):
        def integrand(t):
            tracer.count("quadrature.integrand_evaluations")
            return f(t)

        return integrate(integrand, *args, **kwargs)

    tracer.patch(continuous_time, "integrate", counted_integrate)
    tracer.span(continuous_time, "integrate", "quadrature.integrate")
