"""Tracing from outside the library: phase spans, a timing model proxy and
timing wrappers rebound onto library module attributes.

Phase spans (setup, parse, build, run, trace-eval, ...) are cheap and are
recorded in every run; they give the end-to-end timings.  Hot-call timing
(the model proxy and the rebound draw / bench functions) is installed only
in the traced run, which is separate from the timed runs.  Hot calls are
aggregated into a count and a total time per key; spans stay in memory and
are written out with the result.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import vropt.bench
import vropt.optim


class Tracer:
    """Phase spans with parents, plus aggregated hot-call counters."""

    def __init__(self):
        self.spans = []      # [id, name, parent id or None, start, end]
        self.calls = {}      # key -> [count, seconds]
        self.draws = []      # (stream id, value) of each rebound draw
        self.results = []    # RunResults obtained through vropt.bench.run
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def add(self, key: str, seconds: float, count: int = 1) -> None:
        slot = self.calls.get(key)
        if slot is None:
            self.calls[key] = [count, seconds]
        else:
            slot[0] += count
            slot[1] += seconds

    def span_total(self, name: str) -> float:
        """Summed duration of every finished span with this name."""
        return sum((s[4] - s[3] for s in self.spans
                    if s[1] == name and s[4] is not None), 0.0)

    def count(self, key: str) -> int:
        return self.calls.get(key, (0, 0.0))[0]

    def seconds(self, key: str) -> float:
        return self.calls.get(key, (0, 0.0))[1]

    def span_records(self) -> list:
        return [{"id": i, "name": name, "parent": parent,
                 "start_s": start, "duration_s": end - start}
                for i, name, parent, start, end in self.spans]


class TracedModel:
    """Delegating model that times the three oracles.

    ``full_gradient`` is split by its ``counter`` argument: calls with a
    counter are IFO-metered snapshots, calls without one are the unmetered
    trace recordings.  Every other attribute is the wrapped model's.
    """

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._model, name)

    def component_gradient(self, i, x, counter=None):
        t0 = perf_counter()
        g = self._model.component_gradient(i, x, counter)
        self._tracer.add("model.component_gradient", perf_counter() - t0)
        return g

    def full_gradient(self, x, counter=None):
        t0 = perf_counter()
        g = self._model.full_gradient(x, counter)
        key = ("model.full_gradient.metered" if counter is not None
               else "model.full_gradient.unmetered")
        self._tracer.add(key, perf_counter() - t0)
        return g

    def objective(self, x):
        t0 = perf_counter()
        f = self._model.objective(x)
        self._tracer.add("model.objective", perf_counter() - t0)
        return f


def _spanned(fn, tracer: Tracer, name: str):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _recorded_draw(fn, tracer: Tracer):
    def wrapper(rng, n):
        t0 = perf_counter()
        out = fn(rng, n)
        tracer.add("sampling.draw", perf_counter() - t0)
        tracer.draws.append((rng.stream, out))
        return out
    return wrapper


@contextlib.contextmanager
def rebound(tracer: Tracer):
    """Rebind library module attributes to timing wrappers for the duration.

    ``tracer.draws`` receives ``(stream id, value)`` for every index or
    snapshot draw; ``tracer.results`` receives every RunResult that
    ``vropt.bench`` obtains, with the model it ran on wrapped in a
    :class:`TracedModel`.
    """
    real_run = vropt.bench.run

    def bench_run(model, config):
        with tracer.span("run"):
            result = real_run(TracedModel(model, tracer), config)
        tracer.add("bench.cell", 0.0)
        tracer.results.append(result)
        return result

    patches = [
        (vropt.optim, "draw_uniform_index",
         _recorded_draw(vropt.optim.draw_uniform_index, tracer)),
        (vropt.optim, "draw_snapshot_flag",
         _recorded_draw(vropt.optim.draw_snapshot_flag, tracer)),
        (vropt.bench, "run", bench_run),
        (vropt.bench, "write_trace_csv",
         _spanned(vropt.bench.write_trace_csv, tracer, "write")),
        (vropt.bench, "run_experiment",
         _spanned(vropt.bench.run_experiment, tracer, "run_experiment")),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
