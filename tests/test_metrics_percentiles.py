"""Unit tests for latency inversion and percentile math."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.metrics import (
    compose_latencies,
    latency_from_segments,
    rates_on_grid,
    tail_summary,
    weighted_quantile,
    windowed_quantile,
)
from repro.sim.fluid import FlowSegment


def seg(time, lam, mu, queue=0.0, blocked=0.0, alloc=0.0):
    return FlowSegment(time, lam, mu, queue, blocked, alloc)


def test_rates_on_grid_piecewise_values():
    segments = [seg(0.0, 100.0, 100.0), seg(5.0, 200.0, 150.0)]
    times, lam, mu, _q = rates_on_grid(segments, 0.0, 10.0, 1.0)
    assert lam[2] == 100.0 and mu[2] == 100.0
    assert lam[7] == 200.0 and mu[7] == 150.0


def test_rates_on_grid_integrates_queue():
    segments = [seg(0.0, 200.0, 100.0, queue=0.0)]
    _t, _lam, _mu, queue = rates_on_grid(segments, 0.0, 4.0, 1.0)
    assert queue[3] == pytest.approx(300.0)  # (200-100)*3


def test_latency_zero_when_service_keeps_up():
    segments = [seg(0.0, 100.0, 100.0)]
    _t, latency, _w = latency_from_segments(segments, 0.0, 10.0, dt=0.01)
    assert np.allclose(latency, 0.0, atol=0.02)


def test_latency_matches_analytic_outage():
    """Service stops for 1 s: a message arriving at outage start waits
    ~1 s; afterwards the backlog drains at 2x arrival rate."""
    lam = 100.0
    segments = [
        seg(0.0, lam, lam),
        seg(5.0, lam, 0.0),          # outage
        seg(6.0, lam, 2 * lam, queue=lam * 1.0),  # drain
    ]
    times, latency, _w = latency_from_segments(segments, 0.0, 12.0, dt=0.005)
    at = lambda t: latency[np.searchsorted(times, t)]
    assert at(5.0) == pytest.approx(1.0, abs=0.03)
    # arriving mid-outage: waits rest of outage + its queue position
    assert at(5.5) == pytest.approx(0.5 + 0.5 * lam * 0.5 / (2 * lam) * 2, abs=0.06)
    # after the backlog drains (1 s of drain), latency back to ~0
    assert at(8.0) == pytest.approx(0.0, abs=0.03)


def test_latency_base_offset_added():
    segments = [seg(0.0, 100.0, 100.0)]
    _t, latency, _w = latency_from_segments(
        segments, 0.0, 5.0, dt=0.01, base_latency=0.25
    )
    assert latency.min() >= 0.25


def test_latency_censored_at_history_end():
    segments = [seg(0.0, 100.0, 0.0)]  # never served
    times, latency, _w = latency_from_segments(segments, 0.0, 10.0, dt=0.1)
    assert latency[0] == pytest.approx(10.0, abs=0.2)


@pytest.mark.xfail(strict=True, reason=(
    "latency_from_segments integrates arrivals and departures from "
    "`start`, ignoring the backlog already queued there"))
def test_latency_counts_backlog_queued_at_start():
    """Service stops for 1 s, then drains at 2x: a message arriving at
    0.5 s waits 0.75 s and one at 1.5 s waits 0.25 s, wherever the grid
    starts."""
    lam = 100.0
    segments = [seg(0.0, lam, 0.0), seg(1.0, lam, 2 * lam, queue=lam)]
    for start in (0.0, 0.5):
        times, latency, _w = latency_from_segments(segments, start, 4.0, dt=0.005)
        at = lambda t: latency[np.searchsorted(times, t - 1e-9)]
        assert at(0.5) == pytest.approx(0.75, abs=0.01)
        assert at(1.5) == pytest.approx(0.25, abs=0.01)


def test_compose_latencies_shifts_downstream():
    times = np.arange(0.0, 10.0, 0.1)
    stage1 = np.where(times < 5.0, 1.0, 0.0)
    stage2 = np.where(times >= 5.0, 2.0, 0.0)
    total = compose_latencies(times, [stage1, stage2])
    # entering stage1 at 4.5: L1=1 -> enters stage2 at 5.5 -> +2
    idx = np.searchsorted(times, 4.5)
    assert total[idx] == pytest.approx(3.0)
    idx_early = np.searchsorted(times, 1.0)
    assert total[idx_early] == pytest.approx(1.0)


def test_weighted_quantile_unweighted_matches_numpy():
    values = np.array([1.0, 2.0, 3.0, 10.0])
    assert weighted_quantile(values, 0.5) == pytest.approx(np.quantile(values, 0.5))


def test_weighted_quantile_respects_weights():
    values = np.array([1.0, 100.0])
    weights = np.array([999.0, 1.0])
    assert weighted_quantile(values, 0.5, weights) == pytest.approx(1.0, abs=0.2)
    weights = np.array([1.0, 999.0])
    assert weighted_quantile(values, 0.5, weights) == pytest.approx(100.0, abs=0.2)


def test_weighted_quantile_validation():
    with pytest.raises(AnalysisError):
        weighted_quantile(np.array([1.0]), 1.5)
    with pytest.raises(AnalysisError):
        weighted_quantile(np.array([]), 0.5)
    with pytest.raises(AnalysisError):
        weighted_quantile(np.array([1.0]), 0.5, np.array([0.0]))
    with pytest.raises(AnalysisError):
        weighted_quantile(np.array([1.0, 2.0]), 0.5, np.array([1.0]))


def test_windowed_quantile_isolates_spike_window():
    times = np.arange(0.0, 10.0, 0.01)
    values = np.where((times >= 4.0) & (times < 5.0), 2.0, 0.1)
    w_times, w_values = windowed_quantile(times, values, window=1.0, quantile=0.999)
    spike_idx = np.searchsorted(w_times, 4.0)
    assert w_values[spike_idx] == pytest.approx(2.0)
    assert w_values[0] == pytest.approx(0.1)


def test_windowed_quantile_rejects_bad_window():
    with pytest.raises(AnalysisError):
        windowed_quantile(np.array([0.0]), np.array([1.0]), 0.0, 0.5)


def test_tail_summary_keys_and_ordering():
    values = np.random.default_rng(0).exponential(1.0, 10000)
    summary = tail_summary(values)
    assert set(summary) == {"p50", "p95", "p99", "p999", "max"}
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["p999"] <= summary["max"]


def test_empty_segments_raise():
    with pytest.raises(AnalysisError):
        rates_on_grid([], 0.0, 1.0, 0.1)
    with pytest.raises(AnalysisError):
        rates_on_grid([seg(0.0, 1.0, 1.0)], 1.0, 1.0, 0.1)
