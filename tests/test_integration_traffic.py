"""Integration tests: the traffic benchmark reproduces the paper's story.

These run on the shared session fixtures (one baseline, one mitigated,
one 16 s-staggered run) and assert the *shape* claims of §3 and §5.
"""

import numpy as np
import pytest

from repro.analysis import find_spikes, overlap_report, spike_period

WARMUP, DURATION = 40.0, 160.0


def timeline(result, start=WARMUP, end=DURATION):
    return result.latency_timeline(0.999, window=0.5, start=start, end=end)


# ------------------------------------------------------------ §3 baseline

def test_baseline_has_latency_long_tail(traffic_baseline):
    tails = traffic_baseline.tail_summary(start=WARMUP)
    assert tails["p999"] > 1.5          # seconds-scale tail ...
    assert tails["p50"] < 0.5           # ... on a sub-second median


def test_baseline_spikes_recur_every_fourth_checkpoint(traffic_baseline):
    times, p999 = timeline(traffic_baseline)
    spikes = find_spikes(times, p999, threshold=1.0)
    assert len(spikes) >= 3
    assert spike_period(spikes) == pytest.approx(32.0, abs=2.0)  # 4 x 8 s


def test_compaction_bursts_align_with_spikes(traffic_baseline):
    times, p999 = timeline(traffic_baseline)
    spikes = find_spikes(times, p999, threshold=1.0)
    _t, comp = traffic_baseline.concurrency("compaction", WARMUP, DURATION)
    grid = np.arange(WARMUP, DURATION, 0.05)
    for spike in spikes:
        window = (grid >= spike.start - 2.0) & (grid <= spike.end + 2.0)
        assert comp[window].max() >= 32, "spike without a compaction burst"


def test_cpu_saturates_during_spikes(traffic_baseline):
    times, p999 = timeline(traffic_baseline)
    spikes = find_spikes(times, p999, threshold=1.0)
    cpu = traffic_baseline.cpu_series("node0")
    for spike in spikes:
        assert cpu.maximum(spike.start - 1.0, spike.end + 1.0) >= 15.5


def test_average_utilization_is_moderate(traffic_baseline):
    """The paper's point: the tail appears at ~75 % average CPU."""
    cpu = traffic_baseline.cpu_series("node0")
    average = cpu.time_average(WARMUP, DURATION)
    assert 11.0 <= average <= 14.5  # ~70-90 % of 16 cores


def test_flush_and_compaction_overlap_in_baseline(traffic_baseline):
    report = overlap_report(traffic_baseline.spans, WARMUP, DURATION)
    assert report.flush_compaction_overlap_s > 0.0
    assert report.peak_compaction_concurrency >= 32


def test_statistical_alignment_both_stages_same_checkpoint(traffic_baseline):
    """initial_l0='aligned' puts s0 and s1 bursts in the same period."""
    stats = traffic_baseline.checkpoint_stats()
    joint = [
        row
        for row in stats
        if row.compaction_count.get("s0", 0) >= 32
        and row.compaction_count.get("s1", 0) >= 32
    ]
    assert joint, "no checkpoint with joint s0+s1 compaction burst"


def test_detector_flags_baseline_as_shadowsync(traffic_baseline):
    report = traffic_baseline.millibottleneck_report(start=WARMUP)
    assert report.classification == "statistical"
    assert report.attributed_fraction >= 0.5


@pytest.mark.parametrize("start", [32.0, WARMUP])
def test_attribution_does_not_depend_on_analysis_start(traffic_baseline, start):
    """Each spike's window reaches back to the checkpoint trigger that
    began its flush/compaction burst, so cutting the analysis at a
    different warmup leaves every spike attributed."""
    report = traffic_baseline.millibottleneck_report(start=start)
    assert report.spike_count >= 3
    assert report.attributed_fraction == 1.0


# ------------------------------------------------------------ §3.2 16 s run

def test_staggered_16s_spikes_alternate_between_stages(traffic_staggered_16s):
    stats = traffic_staggered_16s.checkpoint_stats()
    bursts = [
        ("s0" if row.compaction_count.get("s0", 0) >= 32 else "s1")
        for row in stats
        if sum(row.compaction_count.values()) >= 32 and row.time >= WARMUP
    ]
    assert len(bursts) >= 3
    assert all(a != b for a, b in zip(bursts, bursts[1:])), bursts


def test_staggered_16s_flush_spans_shorter_than_compactions(traffic_staggered_16s):
    flushes = traffic_staggered_16s.flush_spans(window=(WARMUP, 200.0))
    compactions = traffic_staggered_16s.compaction_spans(window=(WARMUP, 200.0))
    mean_flush = np.mean([s.duration for s in flushes])
    mean_comp = np.mean([s.duration for s in compactions])
    assert mean_comp > 3.0 * mean_flush  # Figure 7's contrast


# ------------------------------------------------------------ §5 solution

def test_solution_removes_large_spikes(traffic_baseline, traffic_solution):
    _t, base = timeline(traffic_baseline)
    _t, sol = timeline(traffic_solution)
    assert base.max() > 1.8
    assert sol.max() < 1.0


def test_solution_tail_reduction_matches_paper_shape(
    traffic_baseline, traffic_solution
):
    base = traffic_baseline.tail_summary(start=WARMUP)
    sol = traffic_solution.tail_summary(start=WARMUP)
    assert sol["p999"] / base["p999"] < 0.45   # paper: < 0.2 on their testbed
    assert sol["p95"] / base["p95"] < 0.50     # paper: < 0.5


def test_solution_spreads_compactions_across_checkpoints(traffic_solution):
    counts = traffic_solution.spans.per_cycle_counts(
        traffic_solution.coordinator.checkpoint_times(), kind="compaction"
    )
    active = [c for t, c in sorted(counts.items()) if c > 0]
    assert len(active) >= 8          # spread over many checkpoints
    assert max(active) < 129         # never the full synchronized burst


def test_solution_throughput_not_sacrificed(traffic_baseline, traffic_solution):
    """Mitigations must not starve compaction: all L0 debt is paid."""
    for result in (traffic_baseline, traffic_solution):
        for stage in result.job.stages:
            for instance in stage.instances:
                if instance.store is not None:
                    assert instance.store.l0_file_count <= 8
