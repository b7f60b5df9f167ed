"""Outside-in layer trace of ``mixbench``.

The program has no spans of its own, so the tracer wraps its public
functions from outside: each function is rebound, under a timing wrapper,
in every ``mixbench`` module that holds it.  Wrapping ``engine.simulate``
alone would miss the ``metrics.simulate`` and ``cli.simulate`` bindings
the measurements actually call.

Spans (name, start, end, parent span, invocation id) stay in memory until
the run ends.  Work counters are taken from the wrapped calls' arguments
and results at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import mixbench
from mixbench import cli, config, devices, engine, metrics, signals

MODULES = {"config": config, "signals": signals, "devices": devices,
           "engine": engine, "metrics": metrics, "cli": cli}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_samples(key: str, index: int, name: str):
    def count(counts, args, kwargs, result):
        counts[key] += _arg(args, kwargs, index, name).num_samples
    return count


def _count_grid_samples(key: str, index: int, name: str):
    def count(counts, args, kwargs, result):
        counts[key] += _arg(args, kwargs, index, name).grid.num_samples
    return count


def _count_simulate(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "s").grid.num_samples
    counts["engine.simulate.samples"] += n
    counts["engine.simulate.max_samples"] = max(counts["engine.simulate.max_samples"], n)


def _count_table(counts, args, kwargs, result):
    counts["cli.write_table.rows"] += len(_arg(args, kwargs, 2, "rows"))
    counts["cli.write_table.bytes"] += os.path.getsize(result)


def _count_filtered_reads(counts, args, kwargs, result):
    if _arg(args, kwargs, 0, "result").v_out_filtered is not None:
        counts["engine.if_filter.reads"] += 1


# (span name, defining module, function name, work counter or None)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("config.load_config", "config", "load_config", None),
    ("config.build_nf_setup", "config", "build_nf_setup", None),
    ("signals.synthesize_tone", "signals", "synthesize_tone",
     _count_samples("signals.synthesize_tone.samples", 0, "grid")),
    ("signals.white_noise", "signals", "white_noise",
     _count_samples("signals.white_noise.samples", 0, "grid")),
    ("signals.band_noise_stats", "signals", "_band_noise_stats", None),
    ("signals.bin_amplitude", "signals", "bin_amplitude",
     _count_grid_samples("signals.bin_amplitude.samples", 0, "signal")),
    ("signals.harmonic_table", "signals", "harmonic_table", None),
    ("devices.transconductor_current", "devices", "transconductor_current", None),
    ("devices.switch_waveform", "devices", "switch_waveform", None),
    ("engine.simulate", "engine", "simulate", _count_simulate),
    ("engine.apply_if_filter", "engine", "apply_if_filter", None),
    ("metrics.measure_conversion_gain", "metrics", "measure_conversion_gain", None),
    ("metrics.measure_p1db", "metrics", "measure_p1db", None),
    ("metrics.measure_iip3", "metrics", "measure_iip3", None),
    ("metrics.measure_isolation", "metrics", "measure_isolation", None),
    ("metrics.measure_noise_figure", "metrics", "measure_noise_figure", None),
    ("cli.write_table", "cli", "_write_table", _count_table),
    ("cli.emit_transient", "cli", "emit_transient", _count_filtered_reads),
    ("cli.write_outputs", "cli", "_write_outputs", None),
)
ROOT_SPAN = "cli.run"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + (ROOT_SPAN,)

# Span: (name, start, end, parent span id or -1, invocation id); its id is
# its index in Tracer.spans.
Span = Tuple[str, float, float, int, int]


class Tracer:
    """Installs the wrappers for the lifetime of a ``with`` block."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._invocation = -1
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [*MODULES.values(), mixbench]
        for span_name, home, attr, count in TARGETS:
            original = getattr(MODULES[home], attr)
            wrapper = self._wrap(span_name, original, count)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound_name, original))
                        setattr(module, bound_name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _open(self) -> Tuple[int, int]:
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float, end: float):
        self._stack.pop()
        self.spans[span_id] = (name, start, end, parent, self._invocation)

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start, perf_counter())
            if count is not None:
                count(self.counts[self._invocation], args, kwargs, return_value)
            return return_value
        return wrapper

    @contextmanager
    def invocation(self, invocation_id: int):
        """Root span for one ``mixbench run`` invocation."""
        self._invocation = invocation_id
        self.counts[invocation_id]  # an invocation with no counted work has zeros
        span_id, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, ROOT_SPAN, start, perf_counter())
            self._invocation = -1

    def layer_stats(self) -> Dict[int, Dict[str, Tuple[int, float, float]]]:
        """Per invocation and span name: (calls, total s, self s).

        Self time is a span's duration minus that of its direct children;
        calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, inv in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: Dict[int, Dict[str, List]] = defaultdict(
            lambda: {n: [0, 0.0, 0.0] for n in SPAN_NAMES})
        for span_id, (name, start, end, parent, inv) in enumerate(self.spans):
            entry = stats[inv][name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[span_id]
        return {inv: {n: tuple(v) for n, v in by_name.items()}
                for inv, by_name in stats.items()}

    def work_counts(self, invocation_id: int) -> Dict[str, int]:
        """Calls of every traced function plus the argument-derived counters."""
        calls = {f"{n}.calls": 0 for n in SPAN_NAMES}
        for name, _start, _end, _parent, inv in self.spans:
            if inv == invocation_id:
                calls[f"{name}.calls"] += 1
        return {**calls, **self.counts[invocation_id]}

    def write(self, path: str):
        """Write every span as one JSON line: id, parent, invocation, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, inv) in enumerate(self.spans):
                fh.write(json.dumps([span_id, parent, inv, name, start, end]) + "\n")
