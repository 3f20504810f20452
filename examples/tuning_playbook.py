#!/usr/bin/env python3
"""The operator's playbook: detect ShadowSync, derive the fixes, verify.

This example runs the paper's diagnostic/remediation loop end to end:

1. run the baseline and let the millibottleneck detector classify the
   latency spikes (CPU saturation + flush/compaction overlap);
2. derive every mitigation parameter *from measurements*:
   the compaction delay from the drain-out formula T = λ·Δt / C (Eq. 2),
   flush threads from the core count (§4.2.1), and compaction threads
   from the Kneedle knee of the latency-vs-concurrency curve (§4.2.2);
3. apply the derived plan and confirm the long tail is gone.

Run:  python examples/tuning_playbook.py
"""

import numpy as np

from repro.api import (
    MitigationPlan,
    build_traffic_job,
    estimate_drain_time,
    recommend_compaction_threads,
    recommend_flush_threads,
    render_tails,
)
from repro.core import concurrency_latency_curve

WARMUP, RUN = 40.0, 240.0


def main():
    print("step 1: run the baseline and diagnose")
    job = build_traffic_job(checkpoint_interval_s=8.0, initial_l0="aligned", seed=1)
    result = job.run(RUN)
    report = result.millibottleneck_report(start=WARMUP)
    print(f"  spikes found: {report.spike_count}  "
          f"attributed to flush/compaction overlap: {report.attributed_fraction:.0%}")
    print(f"  CPU saturation windows: {len(report.saturation_windows)}  "
          f"alignment: {report.alignment:.2f}")
    period = np.median(np.diff([s.peak_time for s in report.spikes]))
    print(f"  verdict: {report.classification} ShadowSync, "
          f"spike period ~{period:.0f}s")

    print("\nstep 2: derive the mitigation parameters from measurements")
    # Eq. 2: λ per node, flush-phase duration, drain rate once unblocked.
    flushes = result.flush_spans(window=(WARMUP, RUN))
    phase = max(f.end for f in flushes[:129]) - min(f.start for f in flushes[:129])
    delay = estimate_drain_time(
        arrival_rate=15000.0, flush_duration=phase,
        drain_rate=5000.0, blocked_fraction=0.5,
    )
    flush_threads = recommend_flush_threads(cores_per_node=16)
    # Kneedle needs varied concurrency; use a randomized-trigger run.
    probe = build_traffic_job(
        checkpoint_interval_s=8.0, initial_l0="aligned", seed=1,
        mitigation=MitigationPlan(randomize_compaction_trigger=True),
    ).run(RUN)
    wt, wl = probe.latency_timeline(0.999, window=0.05, start=WARMUP)
    ct, cc = probe.concurrency("compaction", WARMUP, RUN, dt=0.05)
    levels, means = concurrency_latency_curve(wt, wl, ct, np.floor(cc / 4.0),
                                              min_windows=5)
    compaction_threads = recommend_compaction_threads(levels, means)
    print(f"  drain-time delay (Eq. 2): {delay:.2f}s")
    print(f"  flush threads (= cores): {flush_threads}")
    print(f"  compaction threads (Kneedle knee): {compaction_threads}")

    print("\nstep 3: apply and verify")
    plan = MitigationPlan(
        randomize_compaction_trigger=True,
        compaction_delay_s=round(delay, 1),
        flush_threads=flush_threads,
        compaction_threads=compaction_threads,
    )
    tuned = build_traffic_job(
        checkpoint_interval_s=8.0, initial_l0="aligned", seed=1, mitigation=plan
    ).run(RUN)
    tails = {
        "baseline": result.tail_summary(start=WARMUP),
        "tuned": tuned.tail_summary(start=WARMUP),
    }
    print(render_tails(tails))
    print(f"\np99.9 reduced to "
          f"{tails['tuned']['p999'] / tails['baseline']['p999']:.0%} of baseline")


if __name__ == "__main__":
    main()
