"""Spans and counters recorded from outside the package.

The tracer replaces module-level names that ``wellprob`` resolves at call
time (for example ``wellprob.quantum.airy_eval_many``) with wrappers that
time the call and count its work, and puts the originals back afterwards.
Nothing under ``src/`` is changed.

Each wrapper opens a span named after its layer.  A span's self time is its
duration minus the durations of its direct child spans; a layer's busy time
is the duration of its outermost spans (nested spans of the same layer are
not counted twice).  Counters are updated after the span closes, so the
cost of counting stays out of the span times.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

import wellprob.airy as airy
import wellprob.classical as classical
import wellprob.cli as cli
import wellprob.compare as compare
import wellprob.config as config
import wellprob.quantum as quantum

# Bytes per dense Filon panel product: the complex128 phase matrix element.
_PHASE_BYTES = 16


class Tracer:
    """Spans and counters of one op; ``take`` returns them and starts afresh."""

    def __init__(self):
        self._stack = []  # [layer, start, time covered by direct children]
        self._reset()

    def _reset(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    def take(self) -> dict:
        if self._stack:
            raise RuntimeError("take() called with open spans")
        record = {"busy": dict(self.busy), "self": dict(self.self_time),
                  "counts": dict(self.counts)}
        self._reset()
        return record

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, children = self._stack.pop()
        duration = end - start
        self.self_time[layer] += duration - children
        if not any(open_span[0] == layer for open_span in self._stack):
            self.busy[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration


def _count_calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_airy(counts, args, kwargs, result):
    z = np.asarray(args[0] if args else kwargs["z"], dtype=float)
    series = int(np.count_nonzero(np.abs(z) <= airy.Z_SWITCH))
    counts["airy.calls"] += 1
    counts["airy.points"] += z.size
    counts["airy.series_points"] += series
    counts["airy.asym_points"] += z.size - series


def _count_scan(counts, args, kwargs, result):
    counts["quantum.scans"] += 1
    counts["quantum.roots_located"] += len(result)


def _count_eigenstate(counts, args, kwargs, result):
    counts["quantum.eigenstate.calls"] += 1
    counts["quantum.eigenstate.grid_points"] += len(result.grid)


def _count_transform(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    panels = (len(state.grid) - 1) // 2
    n_p = len(result.grid)
    counts["quantum.transform.calls"] += 1
    counts["quantum.transform.panel_products"] += n_p * panels
    # psi in (8 B per grid point), p grid in and phi out (8 + 16 B per
    # momentum), plus the dense phase matrix the panel sum multiplies.
    counts["quantum.transform.bytes_computed"] += (
        8 * len(state.grid) + 24 * n_p + _PHASE_BYTES * n_p * panels)


def _classical_points(name, args, kwargs, result):
    if name in ("classical_position_density", "classical_momentum_density"):
        return len(result.grid)
    if name == "trajectory":
        return np.size(args[2] if len(args) > 2 else kwargs["t"])
    if name == "sample_measurements":
        return len(result.times)
    if name == "measurement_histogram":
        return len(result.bin_mass) + result.n_draws
    return len(result)  # momentum_delta_masses


def _count_classical(name):
    def count(counts, args, kwargs, result):
        counts["classical.calls"] += 1
        counts["classical.points"] += _classical_points(name, args, kwargs, result)
    return count


def _count_csv(counts, args, kwargs, result):
    data = result.read_bytes()
    counts["cli.files_written"] += 1
    counts["cli.csv_rows"] += data.count(b"\n") - 1  # minus the header
    counts["cli.csv_bytes"] += len(data)


_CLASSICAL_NAMES = ("classical_momentum_density", "classical_position_density",
                    "measurement_histogram", "momentum_delta_masses",
                    "sample_measurements", "trajectory")

# (namespace, attribute, layer, counter).  Every namespace that resolves a
# public name at call time is listed, so no caller routes around a wrapper.
TARGETS = (
    [(quantum, "airy_eval_many", "airy", _count_airy),
     (airy, "airy_eval_many", "airy", _count_airy),
     (quantum, "eigenvalues_closed_court", "quantum.scan", _count_scan)]
    + [(mod, "eigenstate_closed_court", "quantum.eigenstate", _count_eigenstate)
       for mod in (quantum, compare, cli)]
    + [(mod, "eigenstate_infinite_well", "quantum.eigenstate", _count_eigenstate)
       for mod in (quantum, cli)]
    + [(mod, "momentum_transform", "quantum.transform", _count_transform)
       for mod in (quantum, compare, cli)]
    + [(compare, "compare_state", "compare", _count_calls("compare.calls"))]
    + [(cli, name, "classical", _count_classical(name)) for name in _CLASSICAL_NAMES]
    + [(compare, "classical_position_density", "classical",
        _count_classical("classical_position_density"))]
    + [(mod, "classical_state", "model", _count_calls("model.classical_state.calls"))
       for mod in (cli, compare, classical)]
    + [(cli, "parse_file", "config", _count_calls("config.calls")),
       (cli, "apply_overrides", "config", _count_calls("config.calls")),
       (config.RunConfig, "spec", "config", _count_calls("config.calls"))]
    + [(cli, "main", "cli", _count_calls("cli.calls")),
       (cli, "_write_csv", "cli", _count_csv)]
)


def _wrap(tracer: Tracer, fn, layer: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        count(tracer.counts, args, kwargs, result)
        return result
    return wrapper


class Installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for owner, name, layer, count in TARGETS:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, _wrap(self.tracer, original, layer, count))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False
