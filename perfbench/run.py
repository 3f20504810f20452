"""Layered host-time benchmark of the ShadowSync reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload traffic_run --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py`` and ``README.md``) repeats one
operation in a closed loop for ``--seconds`` seconds on the package
under ``src/``, checks every output against the recorded references,
and prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` its per-layer metrics, from a separate run whose spans
are timed from this directory (``layers.py``).  Every time is host
time: what the simulator costs to run, not simulated time.  The exit
code is 0 only when every operation ran and passed its check; without
a ``src/repro`` package next to this directory it is 2, before any
result is printed.
"""

from __future__ import annotations

import argparse
import ast
import gc
import heapq
import itertools
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space for the sweep's private caches (inside the checkout).
WORK_PARENT = ROOT / ".perfbench-work"
#: Fresh-interpreter set-up samples per run (their median is reported).
SETUP_SAMPLES = 7
TRACE_SETUP_SAMPLES = 3

#: Per-layer metrics measured outside the span wrappers, by only some
#: workloads; the others report 0 for them.
WORKLOAD_LAYER_METRICS = (
    "stream.epoch_s_p50",
    "stream.epoch_s_max",
    "executor.efficiency",
    "executor.overhead_s",
    "executor.spec_pickle_bytes",
    "executor.cache_load_s",
    "executor.cache_store_s",
    "executor.warm_sweep_s",
    "trace.events",
    "trace.overhead_s",
)

clock = time.perf_counter

#: Fixed input of the calibration loop (stdlib only, no package code).
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b={i}):\n    return [a * b + k for k in range({i % 7})]"
    for i in range(400)
)


def calibration_s(_worker: int = 0) -> float:
    """Seconds this host takes for a fixed mix of interpreter work.

    The host's speed shifts by tens of percent for minutes at a time,
    and the shifts slow this loop and the package alike.  ``op_cal``
    divides by its median, so such a shift cancels out while a change
    to the package does not.
    """
    start = clock()
    tree = ast.parse(_CALIBRATION_SOURCE)
    sum(1 for _ in ast.walk(tree))
    heap: list = []
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, {"k": i}))
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps([{"a": i, "b": [i, str(i)]} for i in range(5000)]))
    return clock() - start


class Tally:
    """Attempted and failed operations; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)


def setup_samples(name: str, seed: int, count: int, work_dir: Path) -> List[tuple]:
    """*count* ``(seconds, probe report)`` samples of a fresh set-up."""
    samples = []
    for _ in range(count):
        start = clock()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed),
             str(work_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = clock() - start
            probe.stdout.read()
        if probe.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {name} exited {probe.returncode}")
        samples.append((elapsed, json.loads(line)))
    return samples


def stop_children() -> None:
    """End every process this run started, and wait for each to end.

    A spawn pool (the calibration pool here, ``run_grid``'s in the
    package) starts multiprocessing's resource tracker, which outlives
    the pool: left alone it exits only after this process has, and no
    one waits for it.
    """
    gc.collect()  # let dead pools unregister while the tracker still runs
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waitpid


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, seconds: float, tally: Tally, samples) -> Dict[str, float]:
    """Closed loop of untraced operations for *seconds*, each after one
    calibration sample, the n-th on the n-th simulator seed from the
    run's own (see ``Workload.reseed``)."""
    if workload.processes > 1:
        # The operation keeps that many cores busy, and a speed shift
        # need not hit every core alike: calibrate on as many at once.
        pool = multiprocessing.get_context("spawn").Pool(workload.processes)

        def calibrate() -> float:
            return statistics.mean(pool.map(calibration_s, range(workload.processes)))
    else:
        pool, calibrate = None, calibration_s
    try:
        return _closed_loop(workload, seconds, tally, samples, calibrate)
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def _closed_loop(workload, seconds, tally, samples, calibrate) -> Dict[str, float]:
    walls, calibrations = [], []
    deadline = clock() + seconds
    for offset in itertools.count():
        workload.reseed(offset)
        # Start every operation from a collected heap, as a fresh
        # process would: the simulator runs with the collector paused,
        # so the previous operation's cycles are still waiting.
        gc.collect()
        calibrations.append(calibrate())
        start = clock()
        try:
            output = workload.op()
            wall = clock() - start
            problems = workload.check(output)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            problems = ["operation raised"]
        else:
            walls.append(wall)
        tally.record(problems)
        if clock() >= deadline:
            break
    return {
        "setup_s": statistics.median(s for s, _ in samples),
        # With no successful operation the run is incorrect anyway.
        "op_cal": (statistics.median(walls) / statistics.median(calibrations)
                   if walls else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- per-layer baselines: untraced measurements before the spans go in ------

def _traffic_baseline(workload, tally: Tally):
    """A stepped run, one ``advance_to`` per checkpoint epoch."""
    epochs: List[float] = []
    start = clock()
    job = workload.build()
    job.start_run()
    duration = workload.settings.duration_s
    boundary = 0.0
    while boundary < duration:
        boundary = min(boundary + workload.spec.interval_s, duration)
        tick = clock()
        job.advance_to(boundary)
        epochs.append(clock() - tick)
    summary = workload.summarize(job.finish_run(duration))
    wall = clock() - start
    tally.record(workload.check(summary))
    return wall, {
        "stream.epoch_s_p50": statistics.median(epochs),
        "stream.epoch_s_max": max(epochs),
    }


def _fig12_baseline(workload, tally: Tally):
    """In-process serial points, then a cold and a warm parallel sweep."""
    from layers import LayerTrace
    from workloads import FIG12_JOBS

    from repro.experiments.parallel import run_grid

    point_s: List[float] = []
    summaries = []
    for spec in workload.run_specs:
        start = clock()
        summaries.extend(run_grid([spec], jobs=None, cache=False))
        point_s.append(clock() - start)
    tally.record(workload.check(summaries))
    with LayerTrace() as parent:
        cold, cold_split = parent.measure(workload.op)
        store_s = parent.total("cache_store", inclusive=True)
        _, warm_split = parent.measure(workload.warm_read)
        load_s = parent.total("cache_load", inclusive=True)
    tally.record(workload.check(cold))
    sweep_s = cold_split["traced.wall_s"]
    serial_s = sum(point_s)
    return serial_s, {
        "executor.efficiency": serial_s / (FIG12_JOBS * sweep_s),
        "executor.overhead_s": sweep_s - serial_s / FIG12_JOBS,
        "executor.spec_pickle_bytes": sum(
            len(pickle.dumps(payload)) for payload in enumerate(workload.run_specs)
        ),
        "executor.cache_load_s": load_s,
        "executor.cache_store_s": store_s,
        "executor.warm_sweep_s": warm_split["traced.wall_s"],
    }


def _lint_baseline(workload, tally: Tally):
    start = clock()
    output = workload.op()
    wall = clock() - start
    tally.record(workload.check(output))
    return wall, {}


def _sync_baseline(workload, tally: Tally):
    """One untraced audit, then the pinned run with and without tracing."""
    from dataclasses import replace

    from repro.experiments.runner import ExperimentSettings
    from repro.experiments.summary import summarize_run
    from repro.scenarios.run import execute_scenario

    start = clock()
    output = workload.op()
    wall = clock() - start
    tally.record(workload.check(output))
    settings = ExperimentSettings.from_dict(dict(workload.settings, seed=workload.seed))
    runs = {}
    for traced in (False, True):
        run_settings = replace(settings, trace=traced)
        begin = clock()
        summary = summarize_run(execute_scenario(workload.spec, settings=run_settings),
                                run_settings)
        runs[traced] = (clock() - begin, summary)
    return wall, {
        "trace.events": len(runs[True][1].trace_events),
        "trace.overhead_s": runs[True][0] - runs[False][0],
    }


BASELINES = {
    "traffic_run": _traffic_baseline,
    "fig12_sweep": _fig12_baseline,
    "lint_corpus": _lint_baseline,
    "sync_audit": _sync_baseline,
}


def per_layer(workload, seconds: float, tally: Tally, samples) -> Dict[str, float]:
    """Baseline, then traced operations for the rest of *seconds*."""
    from layers import LayerTrace

    deadline = clock() + seconds
    untraced_wall, extras = BASELINES[workload.name](workload, tally)
    splits = []
    with LayerTrace() as trace:
        while True:
            gc.collect()
            try:
                output, split = trace.measure(workload.traced_op)
            except Exception:
                traceback.print_exc()
                tally.record(["traced operation raised"])
            else:
                tally.record(workload.check(output))
                splits.append(split)
            if clock() >= deadline:
                break
    metrics = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0)
    if splits:
        splits.sort(key=lambda split: split["traced.wall_s"])
        metrics.update(splits[len(splits) // 2])
        metrics["bench.trace_overhead_s"] = metrics["traced.wall_s"] - untraced_wall
    metrics["bench.op_s"] = untraced_wall
    metrics["bench.cal_s"] = statistics.median(calibration_s() for _ in range(9))
    metrics.update(extras)
    metrics.update({
        "import.s": statistics.median(p["import_s"] for _, p in samples),
        "import.modules": samples[0][1]["modules"],
        "scenarios.build_s": statistics.median(p["build_s"] for _, p in samples),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # No run may read or write the default ./.repro-cache; the sweep
    # passes its own private cache directories explicitly.
    os.environ["REPRO_CACHE"] = "off"
    from workloads import WORKLOADS, unpack_corpus

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    WORK_PARENT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        unpack_corpus(work_dir)  # benchmark plumbing, outside every sample
        samples = setup_samples(args.workload, args.seed,
                                TRACE_SETUP_SAMPLES if args.trace else SETUP_SAMPLES,
                                work_dir)
        workload = WORKLOADS[args.workload](args.seed, work_dir=work_dir)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        try:
            values = measure(workload, args.seconds, tally, samples)
        finally:
            workload.close()
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_PARENT.is_dir() and not any(WORK_PARENT.iterdir()):
            WORK_PARENT.rmdir()

    names = {m["name"] for m in wanted}
    if names != set(values):
        raise KeyError(f"declared but not measured: {sorted(names - set(values))}; "
                       f"measured but not declared: {sorted(set(values) - names)}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
