"""Self-time arithmetic and per-layer metrics on hand-built spans, and the
tracer's install/uninstall on the real package."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import irbm  # noqa: E402
import tracer as tracing  # noqa: E402


def span(name, start, end, parent=-1, counters=None):
    return [name, float(start), float(end), parent, counters]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("bench.episode", 0, 10),
        span("training.Trainer.run_epoch", 1, 4, 0),
        span("model.unit_inputs", 3, 6, 0),        # overlaps its sibling by 1
        span("sampling.draw_z", 2, 3, 1),
        span("model.softplus", 5, 12, 2),          # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 7.0])


def test_self_time_of_a_leaf_and_of_touching_children():
    spans = [span("bench.episode", 0, 4), span("model.a", 0, 2, 0), span("model.b", 2, 4, 0)]
    assert tracing.self_times(spans) == pytest.approx([0.0, 2.0, 2.0])


def test_layer_self_times_account_for_the_episode_wall():
    spans = [
        span("bench.setup", 0, 1),
        span("datasets.read_ibmp", 0.2, 0.7, 0),
        span("bench.episode", 1, 11),
        span("training.Trainer.update_step", 1.5, 9, 2),
        span("model.unit_inputs", 2, 5, 3),
        span("sampling.draw_v", 6, 8, 3),
        span("checkpoint.save_checkpoint", 9, 10.5, 2),
    ]
    layers = tracing.layer_self_times(spans, tracing.self_times(spans))
    assert layers == pytest.approx({"model": 3.0, "sampling": 2.0, "training": 2.5,
                                    "evaluation": 0.0, "checkpoint": 1.5, "datasets": 0.0,
                                    "bench": 1.0})
    assert sum(layers.values()) == pytest.approx(10.0)     # the episode's wall time


def test_per_layer_metrics_from_hand_built_spans():
    spans = [span("bench.setup", 0, 1), span("datasets.read_ibmp", 0, 0.5, 0)]
    for e in range(2):
        root = len(spans)
        t = 10.0 * (e + 1)
        spans.append(span("bench.episode", t, t + 9))
        for u in range(2):
            upd = len(spans)
            s = t + 4 * u
            spans.append(span("training.Trainer.update_step", s, s + 4, root))
            spans.append(span("model.unit_inputs", s, s + 1, upd, {"flop": 100.0}))
            spans.append(span("model.unit_inputs", s + 1, s + 2, upd, {"flop": 100.0}))
            spans.append(span("sampling.draw_z", s + 2, s + 3, upd,
                              {"draws": 10, "edge": 1 + u}))
        spans.append(span("model.unit_inputs", t + 8, t + 9, root, {"flop": 100.0}))
    m = tracing.per_layer_metrics(spans, overhead_frac=0.05)
    assert set(m) == set(tracing.PER_LAYER)
    assert m["model.unit_inputs.calls_per_update"] == 2.0       # the call outside updates is not counted
    assert m["model.unit_inputs.self_s"] == pytest.approx(5.0)  # per episode
    assert m["training.update_step.calls"] == 2.0
    assert m["training.update_step.self_s"] == pytest.approx(2.0)
    assert m["training.update_ms_p50"] == pytest.approx(4000.0)
    assert m["training.gemm_flop_per_update"] == 200.0
    assert m["sampling.z_edge_frac"] == pytest.approx(6 / 40)
    assert m["sampling.z_draws"] == 20.0
    assert m["datasets.read_ibmp.self_s"] == pytest.approx(0.5)
    assert m["layer.bench.self_s"] == pytest.approx(0.0)
    assert m["trace.overhead_frac"] == 0.05
    assert tracing.top_spans(spans) == {"top_self_layer": "model",
                                        "top_self_span": "model.unit_inputs"}


def test_install_wraps_every_namespace_and_uninstall_restores_it():
    originals = (irbm.model.unit_inputs, irbm.sampling.unit_inputs, irbm.z_posterior,
                 irbm.training.Trainer.update_step, irbm.evaluation.exact_loglik)
    params = irbm.model.zero_model(D=3)
    tr = tracing.Tracer()
    with tr.installed(irbm):
        assert irbm.sampling.unit_inputs is irbm.model.unit_inputs
        assert irbm.z_posterior is irbm.model.z_posterior is not originals[2]
        assert irbm.model.unit_inputs.__wrapped__ is originals[0]
        irbm.evaluation.exact_loglik(params, [[0, 1, 0]])
    assert (irbm.model.unit_inputs, irbm.sampling.unit_inputs, irbm.z_posterior,
            irbm.training.Trainer.update_step, irbm.evaluation.exact_loglik) == originals
    names = [s[0] for s in tr.spans]
    assert names[0] == "evaluation.exact_loglik"
    assert "model.unit_inputs" in names
    assert all(s[3] < i and s[1] <= s[2] for i, s in enumerate(tr.spans))
    exact = next(s for s in tr.spans if s[0] == "evaluation.exact_log_partition")
    assert exact[4]["cells"] == 2 ** 3 * 2 and exact[4]["peak_bytes"] > 0
