"""Tests of the benchmark's own derivations: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_self_time_nets_out_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 5.0, 9.0, parent=0),
        span("d", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_family_accept_ratio_counts_rejections():
    spans = [span("mkc.generate_basis_family", 0.0, 1.0, accepted=16)]
    spans += [span("mkc.totally_incompatible", 0.1, 0.2, parent=0, result=r)
              for r in [True] * 5 + [False] * 3]
    assert layer_metrics(spans)["mkc.family.accept_ratio"] == pytest.approx(16 / 19)


def test_implication_distinct_ratio_is_per_parent():
    a, b = ((1, 0), (0, 1)), ((3, 1), (1, 1))
    spans = [
        span("logic.check_heyting_laws", 0.0, 1.0, triples=3),
        span("logic.implication", 0.1, 0.2, parent=0, key=a),
        span("logic.implication", 0.2, 0.3, parent=0, key=a),
        span("logic.implication", 0.3, 0.4, parent=0, key=b),
        span("logic.check_heyting_laws", 1.0, 2.0, triples=1),
        span("logic.implication", 1.1, 1.2, parent=4, key=a),
    ]
    metrics = layer_metrics(spans)
    assert metrics["logic.implication.calls"] == 4
    assert metrics["logic.implication.distinct_ratio"] == pytest.approx(3 / 4)
    assert metrics["logic.triples"] == 4


def test_wrappers_restore_every_rebound_attribute():
    import workloads

    hooks = workloads.hooks()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in hooks]
    tracer = tracing.Tracer()
    tracer.begin_pass()
    with pytest.raises(RuntimeError):
        with tracer.installed(hooks):
            assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
            workloads.ks.orthogonal(*workloads.datasets.load_builtin("peres33").vectors[:2])
            raise RuntimeError("leave the block early")
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert not tracer.missing
    assert [s.name for s in tracer.passes[0]] == ["datasets.load_builtin", "exact.orthogonal"]


def test_benchmark_json_lists_the_computed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(layer_metrics([])) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    assert set(tracing.EXACT_COUNTS) <= set(per_layer)
