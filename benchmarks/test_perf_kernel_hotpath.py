"""Perf smoke: kernel hot-path microbenchmarks with a regression gate.

Two throughput probes bracket the optimized run loop:

* **dispatch** — a bare :class:`~repro.sim.kernel.Simulator` driving
  self-rescheduling callbacks: pure event-loop overhead (heap tuple
  ordering, lazy cancellation, GC suspension), no model code;
* **traffic** — the standard traffic job, whose event mix (vectorized
  fluid reallocations, coalesced accounting ticks, LSM work) is the
  sweep benchmark's per-point cost.

Medians of several reps land in ``BENCH_kernel_hotpath.json``.  The
previously checked-in numbers act as the baseline: when
``REPRO_PERF_GATE=1`` (set by the CI perf-smoke job, which measures on
the same runner class) a drop of more than 20 % in either throughput
fails the run.  Unset, the gate only reports — absolute events/s are
machine-dependent, so local boxes refresh the record without flaking.
"""

import json
import os
import time
from pathlib import Path

from repro.experiments import ExperimentSettings
from repro.scenarios import run_scenario
from repro.sim.kernel import Simulator

from conftest import record

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel_hotpath.json"

#: Allowed throughput drop vs the checked-in baseline before the gated
#: run fails (the regression gate of the CI perf-smoke job).
REGRESSION_TOLERANCE = 0.20

DISPATCH_EVENTS = 200_000
TRAFFIC_DURATION_S = 60.0
REPS = 3


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _bench_dispatch() -> float:
    """Pure dispatch throughput (events/s): no model work per event."""

    def run_once() -> float:
        sim = Simulator(seed=1)
        remaining = [DISPATCH_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(sim.now + 0.001, tick)

        sim.schedule(0.0, tick)
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        assert sim.events_fired == DISPATCH_EVENTS
        return DISPATCH_EVENTS / elapsed

    return _median([run_once() for _ in range(REPS)])


def _bench_traffic() -> tuple:
    """Traffic-job throughput (events/s) and wall seconds per run."""
    settings = ExperimentSettings(
        duration_s=TRAFFIC_DURATION_S, warmup_s=16.0, seed=1
    )

    def run_once() -> tuple:
        t0 = time.perf_counter()
        result = run_scenario("baseline_traffic", settings=settings)
        elapsed = time.perf_counter() - t0
        return result.job.sim.events_fired / elapsed, elapsed

    runs = [run_once() for _ in range(REPS)]
    return (_median([r[0] for r in runs]), _median([r[1] for r in runs]))


def test_kernel_hotpath_perf():
    baseline = {}
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text())

    dispatch_eps = _bench_dispatch()
    traffic_eps, traffic_wall = _bench_traffic()

    record("Perf", "kernel dispatch [events/s]", "-", f"{dispatch_eps:,.0f}")
    record("Perf", f"traffic {TRAFFIC_DURATION_S:.0f}s run [events/s]", "-",
           f"{traffic_eps:,.0f}")
    record("Perf", "traffic run wall [s]", "-", f"{traffic_wall:.2f}")

    gate = os.environ.get("REPRO_PERF_GATE") == "1"
    floor = 1.0 - REGRESSION_TOLERANCE
    for key, measured in (("dispatch_events_per_s", dispatch_eps),
                          ("traffic_events_per_s", traffic_eps)):
        base = baseline.get(key)
        if not base:
            continue
        ratio = measured / base
        record("Perf", f"{key} vs baseline",
               f">= {floor:.0%}" if gate else "report-only", f"{ratio:.0%}")
        if gate:
            assert ratio >= floor, (
                f"{key} regressed: {measured:,.0f} events/s vs baseline "
                f"{base:,.0f} ({ratio:.0%} < {floor:.0%})"
            )

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "kernel_hotpath",
        "dispatch_events": DISPATCH_EVENTS,
        "traffic_duration_s": TRAFFIC_DURATION_S,
        "reps": REPS,
        "cores": os.cpu_count() or 1,
        "dispatch_events_per_s": round(dispatch_eps),
        "traffic_events_per_s": round(traffic_eps),
        "traffic_wall_s": round(traffic_wall, 3),
    }, indent=2) + "\n")
