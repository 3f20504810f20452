"""Tests of the benchmark itself, at one operation per run.

Run from the root of the checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from layers import (  # noqa: E402
    LayerTrace,
    UnmappedDispatchLabel,
    dispatch_by_layer,
)
from workloads import WORKLOADS, LintCorpus, TrafficRun  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int, seed: int = 4):
    """Run the benchmark once at one operation; ``(exit code, result or None)``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def checkout_copy(tmp_path: Path, with_src: bool = True) -> Path:
    """A checkout holding BENCHMARK.json, perfbench/ and (optionally) src/."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src" / "repro", root / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    code, result = run_bench(ROOT, workload, trace)
    assert code == 0, result
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        split = sum(v for name, v in metrics.items() if name.startswith("self_s."))
        assert split == pytest.approx(metrics["traced.wall_s"], rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails_the_run(tmp_path):
    root = checkout_copy(tmp_path)
    path = root / "perfbench" / "inputs" / "references.json"
    references = json.loads(path.read_text(encoding="utf-8"))
    references["traffic_run"] = {seed: "0" * 64 for seed in references["traffic_run"]}
    path.write_text(json.dumps(references), encoding="utf-8")
    code, result = run_bench(root, "traffic_run", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_without_the_package_exits_nonzero_and_prints_nothing(tmp_path):
    root = checkout_copy(tmp_path, with_src=False)
    code, result = run_bench(root, "traffic_run", 0)
    assert code != 0
    assert result is None


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_no_process_outlives_the_run():
    # fig12_sweep starts spawn pools, and with them multiprocessing's
    # resource tracker; the run must end and reap all of them.
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fig12_sweep",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    ) as proc:
        assert proc.wait(timeout=170) == 0
    session = proc.pid  # the run led its own session
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being read
            continue
        if int(fields[3]) == session:
            left.append(stat.parent.name)
    assert left == []


def test_unmapped_dispatch_label_fails_the_traced_op():
    from repro.sim.kernel import Simulator

    def new_callback():
        pass

    def op():
        sim = Simulator(seed=1)
        sim.schedule(0.0, new_callback)
        sim.run()

    with LayerTrace() as trace, pytest.raises(UnmappedDispatchLabel):
        trace.measure(op)
    with pytest.raises(UnmappedDispatchLabel):
        dispatch_by_layer({"Brand._new_tick[node0]": (1, 0.01)})


def test_counts_repeat_exactly_and_patches_are_restored(tmp_path):
    from repro.sim.kernel import Simulator

    original_init = Simulator.__dict__["__init__"]
    traffic = TrafficRun(4)
    lint = LintCorpus(4, work_dir=tmp_path)
    with LayerTrace() as trace:
        first = [trace.measure(w.traced_op)[1] for w in (traffic, lint)]
        second = [trace.measure(w.traced_op)[1] for w in (traffic, lint)]
    assert Simulator.__dict__["__init__"] is original_init
    for a, b in zip(first, second):
        for name in ("sim.kernel.events", "sanitize.parse_calls", "sanitize.walk_steps",
                     "sim.resource.reallocate_calls", "lsm.put_calls"):
            assert a[name] == b[name], name
    assert first[0]["sim.kernel.events"] > 0
    assert first[1]["sanitize.parse_calls"] == 2 * len(lint.files)
