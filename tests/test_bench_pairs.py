"""The summary and table of scripts/bench_pairs.py, on hand-built runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "epoch_s_p50", "unit": "s", "better": "lower"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def _run(epoch, rss, digest="d", failed=0):
    return {"metrics": {"epoch_s_p50": epoch, "peak_rss_mb": rss},
            "digest": digest, "attempted": 10, "failed": failed}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3201-3203,7") == [3201, 3202, 3203, 7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("")


def test_summary_counts_wins_ties_digests_and_failures():
    pairs = [
        {"parent": _run(1.0, 100.0), "change": _run(0.8, 100.0)},   # rss tie
        {"parent": _run(1.2, 101.0), "change": _run(0.9, 99.0, digest="e")},
        {"parent": _run(0.9, 102.0), "change": _run(1.1, 98.0, failed=2)},
        {"parent": _run(1.1, 103.0), "change": {"exit": 2, "error": "boom"}},
    ]
    s = bench_pairs.summarize(pairs, METRICS)
    epoch, rss = s["metrics"]["epoch_s_p50"], s["metrics"]["peak_rss_mb"]
    assert (s["pairs"], s["pairs_with_results"]) == (4, 3)
    assert (epoch["change_won"], epoch["of"]) == (2, 3)
    assert rss["change_won"] == 2
    assert epoch["parent"] == {"median": 1.0, "q1": 0.95, "q3": 1.1}
    assert epoch["change_over_parent"] == pytest.approx(0.9)
    assert s["digests_equal"] == 2
    assert (s["change_failed"], s["change_attempted"]) == (2, 30)
    assert s["change_runs_without_result"] == 1

    text = bench_pairs.table({"summary": {"w": s}})
    assert "| w | epoch_s_p50 | 1.000 [0.950, 1.100] | 0.900 [0.850, 1.000] | 2/3 | 0.900 |" in text
    assert "| w | peak_rss_mb | 101.00 [100.50, 101.50] | 99.00 [98.50, 99.50] | 2/3 | 0.980 |" in text
    assert "w: digests equal in 2/4 pairs" in text


def test_resource_usage_medians():
    def run(faults, sys_s, **extra):
        return dict(_run(1.0, 100.0), rusage={"minor_faults": faults, "sys_s": sys_s},
                    **extra)

    pairs = [
        {"parent": run(50_000, 0.15), "change": run(5_000, 0.02)},
        {"parent": run(54_000, 0.16), "change": run(6_000, 0.03)},
        {"parent": run(52_000, 0.14),
         "change": {"exit": 2, "error": "boom", "rusage": {"minor_faults": 7_000,
                                                           "sys_s": 0.04}}},
    ]
    s = bench_pairs.summarize(pairs, METRICS)
    faults, sys_s = s["rusage"]["minor_faults"], s["rusage"]["sys_s"]
    assert faults["parent"]["median"] == 52_000
    assert faults["change"] == {"median": 6_000, "q1": 5_500, "q3": 6_500}
    assert sys_s["parent"]["median"] == pytest.approx(0.15)
    text = bench_pairs.table({"summary": {"w": s}})
    assert ("minor page faults per run, median 52000 (parent) and 6000 (change); "
            "system CPU s per run, median 0.15 (parent) and 0.03 (change)") in text

    # records written before resource usage was measured still print
    del s["rusage"]
    assert "minor page faults" not in bench_pairs.table({"summary": {"w": s}})


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_record_reproduces_its_summary(path):
    """Every committed record's summary follows from its own runs under the
    benchmark's end-to-end metrics, its table renders, and the final
    parameters agree in every pair that has a result."""
    record = json.loads(path.read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert record["summary"].keys() == record["runs"].keys()
    for workload, pairs in record["runs"].items():
        got = bench_pairs.summarize(pairs, end_to_end)
        want = record["summary"][workload]
        assert got["metrics"] == want["metrics"]
        for key in ("digests_equal", "parent_failed", "change_failed"):
            assert got[key] == want[key], (workload, key)
        assert got["digests_equal"] == got["pairs_with_results"], workload
    assert bench_pairs.table(record)
