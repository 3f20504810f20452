"""The benchmark's workloads: pinned inputs, one operation each, output checks.

Every workload is one process, one thread and a closed loop: the next
operation starts when the previous one has ended.  A workload object is
built from the pinned inputs under ``inputs/`` and a simulator seed;
:meth:`Workload.op` runs one operation and returns its output, and
:meth:`Workload.check` compares that output with the recorded reference
and returns the problems it finds (empty when the output is correct).

This module imports only the standard library at load time, so the
set-up probe can time the package import on its own.  Each workload
names the package modules it needs in ``modules``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
INPUTS = BENCH_DIR / "inputs"
SPECS_PATH = INPUTS / "specs.json"
REFERENCES_PATH = INPUTS / "references.json"
#: Frozen snapshot of the package source (``repro/``, 106 files), the
#: input of the static analysis.
CORPUS_ARCHIVE = INPUTS / "corpus.tar.gz"

#: The Fig 12 compaction delays (seconds, on top of the randomized
#: trigger); ``inputs/specs.json`` pins one scenario per value.
FIG12_DELAYS = (0.1, 0.5, 1.0, 3.0, 6.0, 8.0)
#: Worker processes of the sweep: one per core of a 2-core host.
FIG12_JOBS = 2
#: References are recorded for simulator seeds 1..REF_SEEDS; the
#: benchmark seed selects one of them.
REF_SEEDS = 16


def sim_seed(seed: int) -> int:
    """The simulator seed a benchmark seed selects (always recorded)."""
    return 1 + seed % REF_SEEDS


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(data) -> str:
    """SHA-256 of the canonical JSON of plain data."""
    from repro.serialize import canonical_json

    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def summary_digest(summary) -> str:
    return digest(summary.to_dict())


def unpack_corpus(work_dir: Path) -> Path:
    """The frozen corpus, unpacked under *work_dir* (once)."""
    root = Path(work_dir) / "corpus"
    if not root.is_dir():
        # The "data" filter (where this Python has it) refuses links and
        # paths that leave *root*.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(CORPUS_ARCHIVE) as archive:
            archive.extractall(root, **safe)
    return root


def _settings(data: dict, seed: int):
    from repro.experiments.runner import ExperimentSettings

    return ExperimentSettings.from_dict(dict(data, seed=seed))


def _scenario(data: dict):
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec.from_dict(data)


class Workload:
    """One closed-loop operation over pinned inputs.

    *work_dir* is where the workload may create scratch files; the
    corpus workloads need one.
    """

    name = ""
    #: Package modules the workload imports (timed by the set-up probe).
    modules: tuple = ()
    #: Processes an operation keeps busy at once.
    processes = 1

    def __init__(self, seed: int, specs: Optional[dict] = None,
                 references: Optional[dict] = None,
                 work_dir: Optional[Path] = None) -> None:
        self.work_dir = work_dir
        for module in self.modules:
            importlib.import_module(module)
        self.bench_seed = seed
        self.seed = sim_seed(seed)
        self.specs = load_json(SPECS_PATH) if specs is None else specs
        self.references = (
            load_json(REFERENCES_PATH) if references is None else references
        )
        self.prepare()

    def prepare(self) -> None:
        """Build the operation's inputs (part of the timed set-up)."""

    def reseed(self, offset: int) -> None:
        """Run the following operations on simulator seed
        ``sim_seed(seed + offset)``.

        The seeds cost different host time (the six Fig 12 points take
        4.2-5.2 s in-process, depending on the seed), so a closed loop
        that walks them has a median over several seeds rather than the
        cost of one.  Called outside the timed operation.
        """
        self.seed = sim_seed(self.bench_seed + offset)

    @property
    def expected(self):
        """The recorded reference output for this seed."""
        return self.references[self.name][str(self.seed)]

    def op(self):
        raise NotImplementedError

    def traced_op(self):
        """The operation the per-layer run times (default: :meth:`op`)."""
        return self.op()

    def check(self, output) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove the scratch files the operations left."""


class TrafficRun(Workload):
    """Build, run and summarize the pinned ``baseline_traffic`` spec."""

    name = "traffic_run"
    modules = (
        "repro.scenarios.run",
        "repro.experiments.runner",
        "repro.experiments.summary",
    )

    def prepare(self) -> None:
        pinned = self.specs["traffic_run"]
        self.spec = _scenario(pinned["scenario"])
        self.settings = _settings(pinned["settings"], self.seed)
        self.build()  # the first build pays the app modules' lazy imports

    def reseed(self, offset: int) -> None:
        super().reseed(offset)
        self.settings = _settings(self.specs["traffic_run"]["settings"], self.seed)

    def build(self):
        from repro.scenarios import run as scenario_run

        return scenario_run.build_scenario_job(self.spec, seed=self.seed)

    def summarize(self, result):
        from repro.experiments import summary

        return summary.summarize_run(
            result, self.settings, kind="scenario",
            label=self.spec.name, scenario=self.spec.name,
        )

    def op(self):
        return self.summarize(self.build().run(self.settings.duration_s))

    def check(self, output) -> List[str]:
        problems = []
        if summary_digest(output) != self.expected:
            problems.append(
                f"traffic_run seed {self.seed}: summary digest differs "
                "from the recorded reference"
            )
        if output.invariant_violations:
            problems.append(
                f"traffic_run seed {self.seed}: "
                f"{len(output.invariant_violations)} invariant violation(s)"
            )
        return problems


class Fig12Sweep(Workload):
    """The six Fig 12 delay points through the parallel executor.

    Each operation is a cold sweep into a fresh private cache directory,
    so every lookup misses and every summary is stored; the warm re-read
    of the same directory follows outside the timed operation.
    """

    name = "fig12_sweep"
    modules = ("repro.experiments.parallel",)
    processes = FIG12_JOBS
    #: The private cache directory of the last cold sweep, until removed.
    cache_dir: Optional[str] = None

    def prepare(self) -> None:
        from repro.experiments.parallel import RunSpec

        pinned = self.specs["fig12_sweep"]
        scenarios = [_scenario(item) for item in pinned["scenarios"]]
        delays = tuple(s.mitigation.compaction_delay_s for s in scenarios)
        if delays != FIG12_DELAYS:
            raise ValueError(f"pinned fig12 delays {delays} != {FIG12_DELAYS}")
        settings = _settings(pinned["settings"], self.seed)
        self.run_specs = [
            RunSpec(scenario=scenario, settings=settings, label=f"delay={delay:g}s")
            for scenario, delay in zip(scenarios, FIG12_DELAYS)
        ]

    def reseed(self, offset: int) -> None:
        super().reseed(offset)
        self.prepare()

    def sweep(self, jobs: Optional[int], cache_dir: Optional[str]):
        from repro.experiments import parallel

        return parallel.run_grid(
            self.run_specs,
            jobs=jobs,
            cache=cache_dir is not None,
            cache_directory=cache_dir,
        )

    def op(self):
        self.close()
        self.cache_dir = tempfile.mkdtemp(prefix="fig12-cache-", dir=self.work_dir)
        return self.sweep(FIG12_JOBS, self.cache_dir)

    def warm_read(self):
        """Re-run the sweep against the cache the last :meth:`op` filled."""
        return self.sweep(FIG12_JOBS, self.cache_dir)

    def traced_op(self):
        """The six points in-process, where the layer spans can see them."""
        return self.sweep(None, None)

    def check(self, output) -> List[str]:
        problems = [
            f"fig12_sweep seed {self.seed} delay {delay:g}s: summary differs "
            "from the recorded in-process serial reference"
            for delay, summary, expected in zip(FIG12_DELAYS, output, self.expected)
            if summary_digest(summary) != expected
        ]
        if self.cache_dir is not None:
            # *output* is a cold sweep: its cache must read back equal.
            warm = self.warm_read()
            if [s.to_dict() for s in warm] != [s.to_dict() for s in output]:
                problems.append(f"fig12_sweep seed {self.seed}: warm cache "
                                "read differs from the cold sweep")
            self.close()
        return problems

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


def finding_rows(findings, corpus: Path) -> List[list]:
    """Findings as ``[corpus-relative path, line, rule]`` rows."""
    root = corpus.resolve()
    return [
        [Path(f.path).resolve().relative_to(root).as_posix(), f.line, f.rule_id]
        for f in findings
    ]


class LintCorpus(Workload):
    """All lint rules over the frozen source corpus (seed-independent)."""

    name = "lint_corpus"
    modules = ("repro.sanitize.lint",)

    @property
    def expected(self):
        return self.references[self.name]

    def prepare(self) -> None:
        from repro.sanitize.lint import iter_python_files

        self.corpus = unpack_corpus(self.work_dir)
        self.files = iter_python_files([self.corpus])

    def op(self):
        from repro.sanitize import lint

        return lint.lint_paths([self.corpus])

    def check(self, output) -> List[str]:
        rows = finding_rows(output, self.corpus)
        if rows != self.expected:
            return [f"lint_corpus: {len(rows)} finding(s) differ from the "
                    f"{len(self.expected)} recorded"]
        return []


def audit_counts(report, corpus: Path) -> Dict[str, object]:
    """What the sync-audit check compares with the recording."""
    return {
        "findings": finding_rows(report.findings, corpus),
        "edges": sorted([e.kind, e.src, e.dst, e.count] for e in report.edges),
        "shadow_edges": len(report.shadow_edges),
        "spikes": report.spike_count,
        "sync_attributed_spikes": report.sync_attributed_spikes,
    }


class SyncAudit(Workload):
    """``analyze_sync`` on the corpus and a traced pinned baseline run.

    ``analyze_sync`` resolves its scenario by library name, so the
    pinned spec is swapped in under that name for the call.
    """

    name = "sync_audit"
    modules = ("repro.sanitize.syncgraph.audit", "repro.scenarios.library")

    def prepare(self) -> None:
        pinned = self.specs["sync_audit"]
        self.spec = _scenario(pinned["scenario"])
        self.settings = pinned["settings"]
        self.corpus = unpack_corpus(self.work_dir)

    def op(self):
        from unittest import mock

        from repro.sanitize.syncgraph import audit
        from repro.scenarios import library

        with mock.patch.dict(library.SCENARIOS, {self.spec.name: self.spec}):
            return audit.analyze_sync(
                self.spec.name,
                duration_s=self.settings["duration_s"],
                warmup_s=self.settings["warmup_s"],
                seed=self.seed,
                paths=[self.corpus],
            )

    def check(self, output) -> List[str]:
        got = audit_counts(output, self.corpus)
        return [
            f"sync_audit seed {self.seed}: {key} is {got[key]!r}, "
            f"recorded {self.expected[key]!r}"
            for key in sorted(self.expected)
            if got.get(key) != self.expected[key]
        ]


WORKLOADS = {
    cls.name: cls for cls in (TrafficRun, Fig12Sweep, LintCorpus, SyncAudit)
}
