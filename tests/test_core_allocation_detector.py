"""Unit tests for allocation recommendations and the ShadowSync detector
(:func:`repro.analysis.millibottleneck.detect`) on synthetic scenes."""

import numpy as np
import pytest

from repro.analysis import burst_alignment, detect
from repro.core import (
    concurrency_latency_curve,
    recommend_compaction_threads,
    recommend_flush_threads,
)
from repro.errors import AnalysisError
from repro.metrics import ActivitySpan, SpanLog, StepSeries


# ---------------------------------------------------------------- allocation

def test_flush_threads_equal_cores():
    assert recommend_flush_threads(16) == 16
    assert recommend_flush_threads(8) == 8
    with pytest.raises(AnalysisError):
        recommend_flush_threads(0)


def test_concurrency_latency_curve_bins_windows():
    window_times = np.arange(0.0, 10.0, 0.05)
    concurrency = np.repeat(np.arange(10), 20)[: len(window_times)]
    latency = 0.3 + 0.05 * concurrency
    levels, means = concurrency_latency_curve(
        window_times, latency, window_times, concurrency.astype(float)
    )
    assert list(levels) == list(range(10))
    assert means[3] == pytest.approx(0.3 + 0.15)


def test_curve_needs_enough_levels():
    t = np.arange(0.0, 1.0, 0.05)
    with pytest.raises(AnalysisError):
        concurrency_latency_curve(t, np.ones_like(t), t, np.zeros_like(t))


def test_recommend_threads_finds_headroom_knee():
    """Flat latency up to the headroom, rising fast beyond — the knee
    is the recommended allocation (Figure 15's shape)."""
    levels = np.arange(0.0, 17.0)
    latency = np.where(levels <= 4, 0.4 + 0.005 * levels,
                       0.4 + 0.3 * (levels - 4))
    assert recommend_compaction_threads(levels, latency) in (4, 5)


def test_recommend_threads_fallback_on_flat_curve():
    levels = np.arange(0.0, 8.0)
    latency = np.full_like(levels, 0.4)
    assert recommend_compaction_threads(levels, latency, fallback=4) == 4


# ---------------------------------------------------------------- detector

def build_shadowsync_scene():
    """Synthetic run: 2 spikes, both during CPU saturation windows that
    coincide with flush+compaction overlap."""
    spans = SpanLog()
    for burst_start in (32.0, 64.0):
        for i in range(8):
            spans.add(ActivitySpan("flush", f"f{i}", "s0", i, "n0",
                                   burst_start, burst_start + 0.4))
            spans.add(ActivitySpan("compaction", f"c{i}", "s0", i, "n0",
                                   burst_start + 0.1, burst_start + 2.5))
            spans.add(ActivitySpan("compaction", f"c{i}b", "s1", i, "n0",
                                   burst_start + 0.1, burst_start + 2.5))
    cpu_points = [(0.0, 10.0)]
    for burst_start in (32.0, 64.0):
        cpu_points += [(burst_start, 16.0), (burst_start + 2.5, 10.0)]
    cpu = StepSeries(cpu_points)
    times = np.arange(0.0, 96.0, 0.25)
    latency = np.full_like(times, 0.3)
    for burst_start in (32.0, 64.0):
        latency[(times >= burst_start) & (times < burst_start + 3.0)] = 2.0
    return spans, cpu, times, latency


CHECKPOINTS = [8.0 * k for k in range(12)]


def detect_scene(spans, cpu, times, latency):
    """The §3 detector over a synthetic scene, with the per-checkpoint
    stage-burst counts a live run would supply."""
    return detect(
        times, latency, window_s=0.25, spans=spans, cpu=cpu, capacity=16.0,
        checkpoint_times=CHECKPOINTS,
        per_checkpoint=burst_alignment(spans, ["s0", "s1"], CHECKPOINTS),
        threshold=1.0,
    )


def test_detector_classifies_statistical_shadowsync():
    report = detect_scene(*build_shadowsync_scene())
    assert report.classification == "statistical"
    assert report.spike_count == 2
    assert report.attributed_fraction == 1.0
    assert all(s.overlap_s > 0 for s in report.spikes)
    assert report.saturation_windows
    period = np.diff([s.peak_time for s in report.spikes])
    assert period == pytest.approx([32.0], abs=1.0)


def test_detector_reports_none_without_spikes():
    spans, cpu, times, _latency = build_shadowsync_scene()
    flat = np.full_like(times, 0.3)
    report = detect_scene(spans, cpu, times, flat)
    assert report.spike_count == 0
    assert report.classification == "none"


def test_detector_scheduled_when_stages_alternate():
    spans = SpanLog()
    # s0 bursts at 32, s1 bursts at 64 — alternating periods
    for i in range(8):
        spans.add(ActivitySpan("flush", f"f{i}", "s0", i, "n0", 32.0, 32.4))
        spans.add(ActivitySpan("compaction", f"c{i}", "s0", i, "n0", 32.1, 34.5))
        spans.add(ActivitySpan("flush", f"g{i}", "s1", i, "n0", 64.0, 64.4))
        spans.add(ActivitySpan("compaction", f"d{i}", "s1", i, "n0", 64.1, 66.5))
    cpu = StepSeries([(0.0, 10.0), (32.0, 16.0), (34.5, 10.0),
                      (64.0, 16.0), (66.5, 10.0)])
    times = np.arange(0.0, 96.0, 0.25)
    latency = np.full_like(times, 0.3)
    for start in (32.0, 64.0):
        latency[(times >= start) & (times < start + 3.0)] = 1.8
    report = detect_scene(spans, cpu, times, latency)
    assert report.classification == "scheduled"
    assert report.attributed_fraction == 1.0
    assert report.alignment == pytest.approx(0.71, abs=0.01)


def test_detector_rejects_mismatched_timeline():
    _spans, _cpu, times, latency = build_shadowsync_scene()
    with pytest.raises(AnalysisError):
        detect(times, latency[:-1])
