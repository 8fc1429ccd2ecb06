"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install` replaces public functions of the noiseimaging modules with
timing wrappers, each under the name its caller looks it up by, and
`uninstall` puts the originals back.  Nothing under `src/` changes.  Spans
stay in memory; `layer_metrics` reduces one process's spans to per-layer
counts and times.
"""

import importlib
import math
import os
import time
from functools import wraps


def _burn_in_points(phi):
    # mirrors the trace generator's burn-in: raw points until phi**k < 1e-12
    return 0 if phi <= 0.0 else int(math.ceil(math.log(1e-12) / math.log(phi)))


def _cells_kept(args, kwargs, result):
    return len(result.weights)


def _points_drawn(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.points_per_trace + _burn_in_points(cfg.point_correlation)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, layer, extra): one wrapper per name a caller looks up.
# `extra` turns a call into a count recorded on its span.
TARGETS = (
    ("config", "RunConfig.resolve_r", "config.resolve_r", None),
    ("scene", "bowtie", "scene.bowtie", None),
    ("scene", "decompose", "scene.decompose", _cells_kept),
    ("scene", "CellDecomposition.overlap", "scene.overlap", None),
    ("scene", "glyph", "scene.font", None),
    ("scene", "load_font", "scene.font", None),
    ("noise", "quantum_noise", "noise.quantum", None),
    ("cli", "quantum_noise", "noise.quantum", None),
    ("noise", "classical_noise", "noise.classical", None),
    ("noise", "locked_joint_minimum", "gaussian.locked_joint_minimum", None),
    ("cli", "calibrate_r", "noise.calibrate_r", None),
    ("config", "calibrate_r", "noise.calibrate_r", None),
    ("traces", "simulate_trace", "traces.simulate_trace", _points_drawn),
    ("traces", "segment_stats", "traces.segment_stats", None),
    ("cli", "fit_noise_curve", "estimate.fit_noise_curve", None),
    ("cli", "estimate_sensitivity", "estimate.estimate_sensitivity", None),
    ("estimate", "alphabet_gun", "estimate.alphabet_gun", None),
    ("cli", "_write_csv", "cli.write", _bytes_written),
    ("cli", "_write_json", "cli.write", _bytes_written),
)

# layers reported by call count and by time outside nested calls of the layer
TIMED_LAYERS = (
    "config.resolve_r", "scene.bowtie", "scene.decompose", "scene.overlap",
    "scene.font", "noise.quantum", "noise.classical",
    "gaussian.locked_joint_minimum", "noise.calibrate_r",
    "traces.simulate_trace",
)
TIME_ONLY_LAYERS = ("traces.segment_stats", "estimate.fit_noise_curve",
                    "estimate.estimate_sensitivity", "cli.write")
# computed counts summed from span extras
EXTRA_COUNTS = {"scene.cells": "scene.decompose",
                "traces.points": "traces.simulate_trace",
                "cli.write.bytes": "cli.write"}


def resolve(module_name, attr):
    """(owner, name, raw object) for a dotted attribute of a noiseimaging module.

    A class attribute is read from the class __dict__, so a property comes
    back as the property object, not its value.
    """
    owner = importlib.import_module("noiseimaging." + module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Records spans `[layer, start, end, parent index, extra]` in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def install(self):
        for module_name, attr, layer, extra in TARGETS:
            try:
                owner, name, raw = resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            if isinstance(raw, property):
                new = property(self._wrap(layer, raw.fget, extra))
            else:
                new = self._wrap(layer, raw, extra)
            setattr(owner, name, new)
            self._undo.append((owner, name, raw))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def _wrap(self, layer, fn, extra):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper


def layer_metrics(spans):
    """Per-layer counts and seconds from the spans of one process.

    A layer's time counts only its outermost spans, so a layer that calls
    itself (load_font -> glyph) is not counted twice.  alphabet_gun's self
    time is its span minus the spans directly under it.
    """
    out = {}
    for layer in TIMED_LAYERS:
        out[layer + ".calls"] = 0
    for layer in TIMED_LAYERS + TIME_ONLY_LAYERS:
        out[layer + ".s"] = 0.0
    for name in EXTRA_COUNTS:
        out[name] = 0
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    evals = 0
    self_s = 0.0
    for i, (layer, start, end, parent, extra) in enumerate(spans):
        parent_layer = spans[parent][0] if parent >= 0 else None
        if layer + ".calls" in out:
            out[layer + ".calls"] += 1
        if layer + ".s" in out and parent_layer != layer:
            out[layer + ".s"] += end - start
        for name, source in EXTRA_COUNTS.items():
            if source == layer:
                out[name] += extra
        if layer == "noise.quantum" and parent_layer == "noise.calibrate_r":
            evals += 1
        if layer == "estimate.alphabet_gun":
            self_s += end - start - child_time[i]
    solves = out["noise.calibrate_r.calls"]
    out["noise.calibrate_r.evals"] = evals / solves if solves else 0.0
    out["estimate.alphabet_gun.self_s"] = self_s
    return out
