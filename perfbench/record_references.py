"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/record_references.py             # inputs/references.json
    python3 perfbench/record_references.py --pin-specs # also re-pin inputs/specs.json

References come from the pinned specs in ``inputs/specs.json``:
summary digests of ``traffic_run`` and of every in-process serial
``fig12_sweep`` point for simulator seeds 1..REF_SEEDS, the lint
findings on the frozen corpus, and the ``sync_audit`` edge and spike
counts per seed.  Re-record only when the program's output is meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pin_specs() -> dict:
    """The pinned inputs, taken from the scenario library."""
    from dataclasses import replace

    from workloads import FIG12_DELAYS

    from repro.core.mitigation import MitigationPlan
    from repro.scenarios import scenario

    baseline = scenario("baseline_traffic")
    long_run = {"duration_s": 200.0, "warmup_s": 40.0}
    return {
        "traffic_run": {"scenario": baseline.to_dict(), "settings": long_run},
        "fig12_sweep": {
            "scenarios": [
                replace(
                    baseline,
                    mitigation=MitigationPlan(
                        randomize_compaction_trigger=True, compaction_delay_s=delay
                    ),
                ).to_dict()
                for delay in FIG12_DELAYS
            ],
            "settings": long_run,
        },
        "sync_audit": {
            "scenario": baseline.to_dict(),
            "settings": {"duration_s": 120.0, "warmup_s": 10.0},
        },
    }


def record(specs: dict, work_dir: Path) -> dict:
    from workloads import (
        REF_SEEDS, Fig12Sweep, LintCorpus, SyncAudit, TrafficRun, audit_counts,
        finding_rows, summary_digest,
    )

    references: dict = {"traffic_run": {}, "fig12_sweep": {}, "sync_audit": {}}
    for seed in range(1, REF_SEEDS + 1):
        # Workload seeds map to simulator seeds 1 + seed % REF_SEEDS.
        key = str(seed)
        bench_seed = seed - 1
        traffic = TrafficRun(bench_seed, specs=specs, references={})
        references["traffic_run"][key] = summary_digest(traffic.op())
        sweep = Fig12Sweep(bench_seed, specs=specs, references={})
        references["fig12_sweep"][key] = [
            summary_digest(summary) for summary in sweep.traced_op()
        ]
        audit = SyncAudit(bench_seed, specs=specs, references={}, work_dir=work_dir)
        references["sync_audit"][key] = audit_counts(audit.op(), audit.corpus)
        print(f"recorded seed {seed}", file=sys.stderr)
    lint = LintCorpus(0, specs=specs, references={}, work_dir=work_dir)
    references["lint_corpus"] = finding_rows(lint.op(), lint.corpus)
    return references


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pin-specs", action="store_true",
                        help="rewrite inputs/specs.json from the scenario library first")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_CACHE"] = "off"
    from workloads import REFERENCES_PATH, SPECS_PATH, load_json

    if args.pin_specs:
        SPECS_PATH.write_text(json.dumps(pin_specs(), indent=1) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as work_dir:
        references = record(load_json(SPECS_PATH), Path(work_dir))
    REFERENCES_PATH.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
