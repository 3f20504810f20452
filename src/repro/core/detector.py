"""The ShadowSync detector: find hidden synchronization in a run.

The paper's diagnostic workflow (§3) condensed into one object: feed it
a finished run's spans, checkpoints, CPU series and latency timeline;
it reports

* millibottleneck windows (short full-CPU saturation),
* flush/compaction overlap exposure during those windows,
* whether compaction bursts of different stages align (statistical) or
  alternate (scheduled),
* which latency spikes coincide with ShadowSync windows — the causal
  chain of Figure 6.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.longtail import LatencySpike, find_spikes, spike_period
from ..analysis.overlap import alignment_score, burst_alignment, overlap_report
from ..errors import AnalysisError
from ..metrics.spans import SpanLog
from ..metrics.timeline import StepSeries, millibottleneck_windows

__all__ = ["ShadowSyncFinding", "ShadowSyncDetector"]


class ShadowSyncFinding:
    """The detector's verdict on one run."""

    __slots__ = (
        "millibottlenecks",
        "spikes",
        "matched_spikes",
        "overlap_seconds",
        "alignment",
        "spike_period_s",
        "classification",
    )

    def __init__(self) -> None:
        self.millibottlenecks: List[Tuple[float, float]] = []
        self.spikes: List[LatencySpike] = []
        self.matched_spikes: List[Tuple[LatencySpike, Tuple[float, float]]] = []
        self.overlap_seconds = 0.0
        self.alignment = 0.0
        self.spike_period_s: Optional[float] = None
        self.classification = "none"

    @property
    def spike_match_fraction(self) -> float:
        """Share of latency spikes explained by a millibottleneck."""
        if not self.spikes:
            return 0.0
        return len(self.matched_spikes) / len(self.spikes)

    def to_dict(self) -> dict:
        return {
            "millibottlenecks": self.millibottlenecks,
            "num_spikes": len(self.spikes),
            "spike_match_fraction": self.spike_match_fraction,
            "overlap_seconds": self.overlap_seconds,
            "alignment": self.alignment,
            "spike_period_s": self.spike_period_s,
            "classification": self.classification,
        }


class ShadowSyncDetector:
    """Classifies a run's latency spikes as ShadowSync (or not)."""

    def __init__(
        self,
        spike_threshold_s: float = 0.8,
        saturation: float = 0.95,
        alignment_threshold: float = 0.8,
        match_slack_s: float = 1.0,
    ) -> None:
        self.spike_threshold_s = spike_threshold_s
        self.saturation = saturation
        self.alignment_threshold = alignment_threshold
        self.match_slack_s = match_slack_s

    def analyze(
        self,
        spans: SpanLog,
        cpu_series: StepSeries,
        cpu_capacity: float,
        latency_times: Sequence[float],
        latency_values: Sequence[float],
        checkpoint_times: Sequence[float],
        stages: Sequence[str],
        window: Tuple[float, float],
    ) -> ShadowSyncFinding:
        start, end = window
        if end <= start:
            raise AnalysisError("empty analysis window")
        finding = ShadowSyncFinding()

        finding.millibottlenecks = millibottleneck_windows(
            cpu_series, cpu_capacity, start, end,
            saturation=self.saturation, max_duration=float("inf"),
        )
        finding.spikes = find_spikes(
            latency_times, latency_values, self.spike_threshold_s
        )
        finding.spike_period_s = spike_period(finding.spikes)

        for spike in finding.spikes:
            for mb_start, mb_end in finding.millibottlenecks:
                if (
                    spike.start < mb_end + self.match_slack_s
                    and mb_start < spike.end + self.match_slack_s
                ):
                    finding.matched_spikes.append((spike, (mb_start, mb_end)))
                    break

        report = overlap_report(spans, start, end)
        finding.overlap_seconds = report.flush_compaction_overlap_s

        cps = [t for t in checkpoint_times if start <= t < end]
        if cps:
            per_cp = burst_alignment(spans, stages, cps)
            if per_cp and any(sum(c.values()) for c in per_cp.values()):
                finding.alignment = alignment_score(per_cp)

        finding.classification = self._classify(finding)
        return finding

    def _classify(self, finding: ShadowSyncFinding) -> str:
        if not finding.spikes or finding.spike_match_fraction < 0.5:
            return "none"
        if finding.overlap_seconds <= 0:
            return "none"
        if finding.alignment >= self.alignment_threshold:
            return "statistical"
        return "scheduled"
