"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the package's functions from outside: every public
function of the layer modules, the public methods of their classes, and in
`training` also the private phase helpers and `Trainer` methods that
`update_step` calls. A wrapper is put in every `irbm` namespace that holds
the function, so calls between modules are timed too. Nothing is wrapped in
an untraced run.

A span is (name, start, end, parent, counters). Spans stay in memory and
are written once, when the run ends. A span's self time is its duration
minus the part of it that its children cover; the benchmark's own root
spans ("bench.*") hold the time spent outside the package.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

LAYERS = ("model", "sampling", "training", "evaluation", "checkpoint", "datasets")
ROOT_LAYER = "bench"
EPISODE = "bench.episode"
SETUP = "bench.setup"
UPDATE = "training.Trainer.update_step"


# -- counters computed at call boundaries --------------------------------------
# Each takes (args, kwargs, result) and returns {counter: value}. Byte, cell
# and flop counts are computed from array sizes; they are never timings.


def _gemm(n, k, m) -> float:
    return 2.0 * n * k * m


def _param_arrays(p):
    return [a for a in (p.W, p.b_v, p.c, p.U, p.d) if a is not None]


def _count_apply_permutation(args, kwargs, result):
    params, order = args[0], np.asarray(args[1])
    replaced = sum(new.nbytes for old, new in zip(_param_arrays(params), _param_arrays(result))
                   if new is not old)
    gathered = 8 * order.shape[0] * (params.D + params.C + 1)
    return {"bytes": replaced + gathered}


def _count_unit_inputs(args, kwargs, result):
    params, v = args[0], np.atleast_2d(args[1])
    return {"flop": _gemm(v.shape[0], params.D, params.l)}


def _count_draw_v(args, kwargs, result):
    params, H = args[0], args[1]
    return {"flop": _gemm(H.shape[0], params.l, params.D)}


def _count_phase_term(args, kwargs, result):
    params, V = args[0], np.atleast_2d(args[1])
    return {"flop": _gemm(V.shape[0], params.l, params.D + params.C)}


def _count_label_weights(args, kwargs, result):
    params, V = args[0], np.atleast_2d(args[1])
    return {"flop": _gemm(V.shape[0], params.D, params.l)}


def _count_grad_dis(args, kwargs, result):
    params, V = args[0], np.atleast_2d(args[1])
    n = V.shape[0]
    return {"flop": 2 * _gemm(n, params.D, params.l) + _gemm(n, params.C, params.l)}


def _count_draw_z(args, kwargs, result):
    z = np.asarray(result)
    return {"draws": z.size, "edge": int(np.count_nonzero(z == args[0].l + 1))}


def _count_exact(args, kwargs, result):
    params = args[0]
    return {"cells": (2 ** params.D) * (params.l + 1)}


def _count_file(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "model.apply_permutation": _count_apply_permutation,
    "model.unit_inputs": _count_unit_inputs,
    "model.label_joint_log_weights": _count_label_weights,
    "sampling.draw_v": _count_draw_v,
    "sampling.draw_z": _count_draw_z,
    "training._phase_term": _count_phase_term,
    "training.grad_discriminative_exact": _count_grad_dis,
    "evaluation.exact_log_partition": _count_exact,
    "checkpoint.save_checkpoint": _count_file,
    "checkpoint.load_checkpoint": _count_file,
}
# peak traced allocation during the call (tracemalloc), in bytes
TRACK_MEMORY = {"evaluation.exact_log_partition"}


# -- recording ----------------------------------------------------------------


def _targets(module, layer: str):
    """(owner, attribute, span name) for everything the tracer times in one
    layer module."""
    private_ok = layer == "training"
    out = []
    for name, obj in vars(module).items():
        if name.startswith("__") or (name.startswith("_") and not private_ok):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not inspect.isgeneratorfunction(obj):
                out.append((module, name, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, fn in vars(obj).items():
                if attr.startswith("__") or (attr.startswith("_") and not private_ok):
                    continue
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Records spans in memory while installed on the `irbm` package."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, counters]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (not a package call)."""
        i = self._open(name)
        self.spans[i][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[i][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        track = name in TRACK_MEMORY
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            rec = tracer.spans[i]
            if track:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            extra = counter(args, kwargs, result) if counter else None
            if track:
                extra = dict(extra or {}, peak_bytes=peak)
            rec[4] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every traced function in each `irbm` namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                  for m in ("model", "sampling", "training", "evaluation",
                                            "checkpoint", "datasets", "cli", "rng")]
        wrapped = {}
        for layer, module in modules.items():
            for owner, attr, span_name in _targets(module, layer):
                original = vars(owner)[attr]
                wrapped[id(original)] = (original, self.wrap(span_name, original))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)][1])
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path, **header):
        """Write every span, once, as one JSON document."""
        with open(path, "w") as f:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "counters"],
                       "spans": self.spans}, f)


# -- analysis -------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def roots_under(spans, root_name: str) -> list[int]:
    """For each span, the index of its root span when that root is named
    root_name, else -1."""
    out = []
    for s in spans:
        parent = s[3]
        if parent < 0:
            out.append(len(out) if s[0] == root_name else -1)
        else:
            out.append(out[parent])
    return out


def under(spans, ancestor_name: str) -> list[bool]:
    """Whether each span is, or descends from, a span named ancestor_name."""
    out = []
    for s in spans:
        out.append(s[0] == ancestor_name or (s[3] >= 0 and out[s[3]]))
    return out


def layer_self_times(spans, selfs) -> dict:
    """Self time per layer inside the episode root spans. The "bench" entry
    is the time the episodes spend outside the package."""
    roots = roots_under(spans, EPISODE)
    out = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
    for s, own, root in zip(spans, selfs, roots):
        if root >= 0:
            out[layer_of(s[0])] += own
    return out


# name -> (unit, better); the order is the report order
PER_LAYER = {
    "model.unit_inputs.calls_per_update": ("count/update", "lower"),
    "model.unit_inputs.self_s": ("s/episode", "lower"),
    "model.z_posterior.self_s": ("s/episode", "lower"),
    "model.marginal_z_posterior.self_s": ("s/episode", "lower"),
    "model.label_joint_log_weights.calls_per_update": ("count/update", "lower"),
    "model.label_joint_log_weights.self_s": ("s/episode", "lower"),
    "model.apply_permutation.self_s": ("s/episode", "lower"),
    "model.apply_permutation.bytes_copied": ("B-computed", "lower"),
    "sampling.draw_z.self_s": ("s/episode", "lower"),
    "sampling.draw_h.self_s": ("s/episode", "lower"),
    "sampling.draw_v.self_s": ("s/episode", "lower"),
    "sampling.run_cd.self_s": ("s/episode", "lower"),
    "sampling.gibbs_sweep.calls": ("count/episode", "lower"),
    "sampling.gibbs_sweep.self_s": ("s/episode", "lower"),
    "sampling.z_edge_frac": ("frac", "lower"),
    "sampling.z_draws": ("count/episode", "lower"),
    "training.update_step.calls": ("count/episode", "lower"),
    "training.update_step.self_s": ("s/episode", "lower"),
    "training.update_ms_p50": ("ms", "lower"),
    "training.update_ms_p95": ("ms", "lower"),
    "training.grad_generative.self_s": ("s/episode", "lower"),
    "training.grad_discriminative_exact.self_s": ("s/episode", "lower"),
    "training.optimizer.self_s": ("s/episode", "lower"),
    "training.permute_state.self_s": ("s/episode", "lower"),
    "training.grow.count": ("count/episode", "lower"),
    "training.grow.self_s": ("s/episode", "lower"),
    "training.gemm_flop_per_update": ("flop-computed", "lower"),
    "evaluation.exact_log_partition.calls": ("count/episode", "lower"),
    "evaluation.exact_log_partition.self_s": ("s/episode", "lower"),
    "evaluation.log_pstar.self_s": ("s/episode", "lower"),
    "evaluation.exact.peak_mb": ("MB", "lower"),
    "evaluation.exact.cells": ("cell-computed", "lower"),
    "evaluation.ais_log_partition.calls": ("count/episode", "lower"),
    "evaluation.ais_log_partition.self_s": ("s/episode", "lower"),
    "evaluation.ais.sweeps": ("count/episode", "lower"),
    "checkpoint.save_checkpoint.self_s": ("s/episode", "lower"),
    "checkpoint.save_checkpoint.bytes": ("B-computed", "lower"),
    "checkpoint.load_checkpoint.self_s": ("s/episode", "lower"),
    "checkpoint.load_checkpoint.bytes": ("B-computed", "lower"),
    "datasets.read_ibmp.self_s": ("s/setup", "lower"),
    **{f"layer.{layer}.self_s": ("s/episode", "lower") for layer in LAYERS + (ROOT_LAYER,)},
    "trace.overhead_frac": ("frac", "lower"),
}

# metric -> span names whose self times it sums
_SELF = {
    "model.unit_inputs.self_s": ["model.unit_inputs"],
    "model.z_posterior.self_s": ["model.z_posterior"],
    "model.marginal_z_posterior.self_s": ["model.marginal_z_posterior"],
    "model.label_joint_log_weights.self_s": ["model.label_joint_log_weights"],
    "model.apply_permutation.self_s": ["model.apply_permutation"],
    "sampling.draw_z.self_s": ["sampling.draw_z"],
    "sampling.draw_h.self_s": ["sampling.draw_h"],
    "sampling.draw_v.self_s": ["sampling.draw_v"],
    "sampling.run_cd.self_s": ["sampling.run_cd"],
    "sampling.gibbs_sweep.self_s": ["sampling.gibbs_sweep"],
    "training.update_step.self_s": [UPDATE],
    "training.grad_generative.self_s": ["training.grad_generative"],
    "training.grad_discriminative_exact.self_s": ["training.grad_discriminative_exact"],
    "training.optimizer.self_s": ["training.Trainer._apply_gradient", "training.max_norm_project"],
    "training.permute_state.self_s": ["training._permute_rows"],
    "training.grow.self_s": ["training._grow_by_one"],
    "evaluation.exact_log_partition.self_s": ["evaluation.exact_log_partition"],
    "evaluation.log_pstar.self_s": ["evaluation.log_pstar"],
    "evaluation.ais_log_partition.self_s": ["evaluation.ais_log_partition"],
    "checkpoint.save_checkpoint.self_s": ["checkpoint.save_checkpoint"],
    "checkpoint.load_checkpoint.self_s": ["checkpoint.load_checkpoint"],
}
_CALLS = {
    "sampling.gibbs_sweep.calls": "sampling.gibbs_sweep",
    "training.update_step.calls": UPDATE,
    "evaluation.exact_log_partition.calls": "evaluation.exact_log_partition",
    "evaluation.ais_log_partition.calls": "evaluation.ais_log_partition",
    "training.grow.count": "training._grow_by_one",
}
_PER_CALL = {   # metric -> (span name, counter): mean of the counter per call
    "model.apply_permutation.bytes_copied": ("model.apply_permutation", "bytes"),
    "evaluation.exact.cells": ("evaluation.exact_log_partition", "cells"),
    "checkpoint.save_checkpoint.bytes": ("checkpoint.save_checkpoint", "bytes"),
    "checkpoint.load_checkpoint.bytes": ("checkpoint.load_checkpoint", "bytes"),
}


def per_layer_metrics(spans, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from one traced run's spans.

    Body metrics are normalized per "bench.episode" root span, read_ibmp per
    "bench.setup" root span.
    """
    selfs = self_times(spans)
    in_body = [r >= 0 for r in roots_under(spans, EPISODE)]
    in_setup = [r >= 0 for r in roots_under(spans, SETUP)]
    in_update = under(spans, UPDATE)
    in_ais = under(spans, "evaluation.ais_log_partition")
    episodes = max(1, sum(1 for s in spans if s[3] < 0 and s[0] == EPISODE))
    setups = max(1, sum(1 for s in spans if s[3] < 0 and s[0] == SETUP))

    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[tuple, float] = {}
    update_calls: dict[str, int] = {}
    update_ms = []
    flop = 0.0
    draws = edge = sweeps = 0
    peak = 0
    for s, own, body, upd, ais in zip(spans, selfs, in_body, in_update, in_ais):
        name, extra = s[0], s[4] or {}
        if not body:
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in extra.items():
            counters[(name, key)] = counters.get((name, key), 0) + value
        if upd:
            update_calls[name] = update_calls.get(name, 0) + 1
            flop += extra.get("flop", 0.0)
        if name == UPDATE:
            update_ms.append(1e3 * (s[2] - s[1]))
        if name == "sampling.draw_z":
            draws += extra["draws"]
            edge += extra["edge"]
        if name == "sampling.gibbs_sweep" and ais:
            sweeps += 1
        peak = max(peak, extra.get("peak_bytes", 0))
    updates = calls.get(UPDATE, 0)

    out = {}
    for metric, names in _SELF.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names) / episodes
    for metric, name in _CALLS.items():
        out[metric] = calls.get(name, 0) / episodes
    for metric, (name, key) in _PER_CALL.items():
        n = calls.get(name, 0)
        out[metric] = counters.get((name, key), 0) / n if n else 0.0
    for fn in ("model.unit_inputs", "model.label_joint_log_weights"):
        out[f"{fn}.calls_per_update"] = update_calls.get(fn, 0) / updates if updates else 0.0
    out["training.gemm_flop_per_update"] = flop / updates if updates else 0.0
    p50, p95 = (np.percentile(update_ms, [50, 95]) if update_ms else (0.0, 0.0))
    out["training.update_ms_p50"] = float(p50)
    out["training.update_ms_p95"] = float(p95)
    out["sampling.z_edge_frac"] = edge / draws if draws else 0.0
    out["sampling.z_draws"] = draws / episodes
    out["evaluation.ais.sweeps"] = sweeps / episodes
    out["evaluation.exact.peak_mb"] = peak / 2 ** 20
    out["datasets.read_ibmp.self_s"] = sum(
        own for s, own, st in zip(spans, selfs, in_setup)
        if st and s[0] == "datasets.read_ibmp") / setups
    for layer, total in layer_self_times(spans, selfs).items():
        out[f"layer.{layer}.self_s"] = total / episodes
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}


def top_spans(spans) -> dict:
    """Where the traced episodes spend their time: the layer and the span
    with the largest self time."""
    selfs = self_times(spans)
    roots = roots_under(spans, EPISODE)
    own: dict[str, float] = {}
    for s, t, root in zip(spans, selfs, roots):
        if root < 0 or layer_of(s[0]) == ROOT_LAYER:
            continue
        own[s[0]] = own.get(s[0], 0.0) + t
    layers = layer_self_times(spans, selfs)
    layers.pop(ROOT_LAYER)
    return {"top_self_layer": max(layers, key=layers.get),
            "top_self_span": max(own, key=own.get, default="")}
