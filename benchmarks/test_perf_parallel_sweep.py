"""Perf smoke: the parallel executor on a standard 6-point delay sweep.

Measures wall-clock of the Figure 12 sweep serial vs parallel vs
warm-cache, so ``BENCH_parallel_sweep.json`` tracks the executor's
trajectory across revisions.  The ≥ 3× speedup criterion only applies
on multi-core hardware; single-core boxes still check correctness and
the < 1 s warm-cache rerun.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.figures import DELAY_SWEEP_S
from repro.experiments.parallel import RunSpec, run_grid
from repro.core import MitigationPlan
from repro.scenarios import scenario

from conftest import record

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_sweep.json"


def _sweep_specs(settings):
    return [
        RunSpec(
            scenario=replace(scenario("baseline_traffic"), mitigation=MitigationPlan(
                randomize_compaction_trigger=True, compaction_delay_s=delay
            )),
            settings=settings,
            label=f"delay={delay:g}s",
        )
        for delay in DELAY_SWEEP_S
    ]


def test_parallel_sweep_perf(settings, tmp_path):
    specs = _sweep_specs(settings)
    cores = os.cpu_count() or 1
    jobs = min(8, cores)

    t0 = time.perf_counter()
    serial = run_grid(specs, jobs=1, cache=False)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_grid(specs, jobs=jobs, cache=False)
    t_parallel = time.perf_counter() - t0

    # Populate, then re-read: the warm path must be near-instant.
    cache_root = tmp_path / "bench-cache"
    run_grid(specs, jobs=1, cache=True, cache_directory=cache_root)
    t0 = time.perf_counter()
    warm = run_grid(specs, jobs=1, cache=True, cache_directory=cache_root)
    t_warm = time.perf_counter() - t0

    assert [s.to_dict() for s in parallel] == [s.to_dict() for s in serial]
    assert [s.to_dict() for s in warm] == [s.to_dict() for s in serial]
    assert t_warm < 1.0

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    record("Perf", f"6-pt sweep serial [s] ({cores} cores)", "-",
           f"{t_serial:.2f}")
    record("Perf", f"6-pt sweep --jobs {jobs} [s]", "-", f"{t_parallel:.2f}")
    record("Perf", "speedup", ">= 3x on >= 8 cores", f"{speedup:.2f}x")
    record("Perf", "warm-cache rerun [s]", "< 1", f"{t_warm:.3f}")

    if cores >= 8:
        assert speedup >= 3.0

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "parallel_sweep",
        "sweep_points": len(specs),
        "duration_s": settings.duration_s,
        "cores": cores,
        "jobs": jobs,
        "serial_s": round(t_serial, 3),
        "parallel_s": round(t_parallel, 3),
        "speedup": round(speedup, 3),
        "warm_cache_s": round(t_warm, 4),
    }, indent=2) + "\n")
