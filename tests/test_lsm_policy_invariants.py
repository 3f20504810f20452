"""The policy-invariant differential harness (the mitigation zoo's lock).

Every policy registered in :mod:`repro.lsm.policies` must preserve the
LSM correctness contract no matter how it reorders, splits or defers
compactions.  This suite drives each registered name through identical
workloads and holds it to:

* **contents equivalence** — same final key/value contents as the
  reference compactor (and as a plain dict model);
* **read-your-writes** — every written key readable at every step,
  including mid-compaction (picked but unfinished jobs);
* **level ordering** — ``check_invariants`` (L1+ non-overlap) after
  every full drain;
* **byte-identical reruns** — the same workload replayed gives the
  same pick sequence and the same final state;
* **exactly-once under crash-and-restore** — the checkpointed
  WordCount pipeline recovers reference counts under any crash
  schedule with the policy installed;
* **golden p99.9 tables** — library-scenario tails per policy match
  ``tests/data/policy_goldens.json`` bit-for-bit (regenerate after a
  deliberate change: ``PYTHONPATH=src python tests/make_policy_goldens.py``).
"""

import json
from pathlib import Path

import pytest

from repro.faults import CheckpointedWordCount
from repro.lsm import KiB, LSMOptions, LSMStore, policy_names
from repro.workloads import SentenceGenerator, count_words

GOLDENS = Path(__file__).parent / "data" / "policy_goldens.json"

POLICIES = policy_names()

#: Small store so a scripted workload exercises flushes, L0 merges and
#: deeper-level overflow within a few hundred operations.
SMALL = dict(
    write_buffer_size=2 * KiB,
    l0_compaction_trigger=2,
    max_bytes_for_level_base=4 * KiB,
)


def make_store(policy, name="store", **params):
    options = LSMOptions(compaction_policy=policy,
                         compaction_policy_params=params or None, **SMALL)
    return LSMStore(options, name=name)


def scripted_ops(rounds=30, keys=24):
    """A deterministic workload: skewed puts, deletes, periodic flushes."""
    ops = []
    for r in range(rounds):
        for i in range(6):
            key = f"k{(r * 7 + i * i) % keys:02d}".encode()
            ops.append(("put", key, f"v{r}.{i}".encode() * 3))
        if r % 3 == 0:
            ops.append(("delete", f"k{(r * 5) % keys:02d}".encode(), b""))
        ops.append(("flush", b"", b""))
    return ops


def apply_ops(store, ops, drain_every_flush=True, check_reads=False):
    """Replay *ops*; returns (dict model, pick trace)."""
    model = {}
    picks = []
    now = 0.0
    for op, key, value in ops:
        now += 1.0
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "delete":
            store.delete(key)
            model.pop(key, None)
        elif op == "flush":
            job = store.begin_flush(now=now)
            if job is not None:
                store.finish_flush(job, now=now)
            if drain_every_flush:
                picks.extend(drain(store, now))
        if check_reads:
            for k, v in model.items():
                assert store.get(k) == v, (op, key)
    return model, picks


def drain(store, now=0.0):
    """Run every due compaction to completion; returns the pick trace."""
    picks = []
    guard = 0
    while True:
        job = store.pick_compaction(now=now)
        if job is None:
            break
        picks.append(
            (job.pick.source_level, job.pick.target_level,
             len(job.pick.inputs), job.input_bytes)
        )
        store.finish_compaction(job, now=now)
        guard += 1
        assert guard < 10_000, "compaction drain did not terminate"
    return picks


# ----------------------------------------------------------------------
# contents equivalence + level ordering
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_final_contents_match_reference(policy):
    ops = scripted_ops()
    reference = make_store("reference", "ref")
    ref_model, _ = apply_ops(reference, ops)
    store = make_store(policy, policy)
    model, _ = apply_ops(store, ops)
    assert model == ref_model
    assert dict(store.scan()) == dict(reference.scan()) == model
    store.check_invariants()


@pytest.mark.parametrize("policy", POLICIES)
def test_read_your_writes_every_step(policy):
    store = make_store(policy)
    apply_ops(store, scripted_ops(rounds=12), check_reads=True)
    store.check_invariants()


@pytest.mark.parametrize("policy", POLICIES)
def test_no_key_unreadable_mid_compaction(policy):
    """Keys stay readable while a pick is claimed but unfinished."""
    store = make_store(policy)
    model = {}
    now = 0.0
    for r in range(10):
        for i in range(6):
            key = f"k{(r + i) % 12:02d}".encode()
            value = f"v{r}.{i}".encode() * 2
            store.put(key, value)
            model[key] = value
        now += 1.0
        job = store.begin_flush(now=now)
        if job is not None:
            store.finish_flush(job, now=now)
        picked = store.pick_compaction(now=now)
        # claimed-but-running: every key must still resolve
        for k, v in model.items():
            assert store.get(k) == v
        if picked is not None:
            store.finish_compaction(picked, now=now)
            for k, v in model.items():
                assert store.get(k) == v
    drain(store, now)
    assert dict(store.scan()) == model
    store.check_invariants()


@pytest.mark.parametrize("policy", POLICIES)
def test_no_lost_keys_after_full_drain(policy):
    store = make_store(policy)
    model, _ = apply_ops(store, scripted_ops(rounds=40))
    drain(store)
    assert dict(store.scan()) == model
    store.check_invariants()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_byte_identical_reruns(policy):
    ops = scripted_ops()
    runs = []
    for _ in range(2):
        store = make_store(policy)
        model, picks = apply_ops(store, ops)
        runs.append((model, picks, sorted(store.scan()),
                     store.stats.to_dict(), store.policy.describe()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("policy", POLICIES)
def test_pick_trace_stable_under_restore(policy):
    """A snapshot/restore round-trip resets transient scheduler state."""
    store = make_store(policy)
    apply_ops(store, scripted_ops(rounds=10))
    drain(store)
    snapshot = store.snapshot_state()
    contents = dict(store.scan())
    store.restore_from_checkpoint(snapshot)
    assert store.policy.picks == 0  # reset() ran
    assert dict(store.scan()) == contents
    store.check_invariants()


# ----------------------------------------------------------------------
# exactly-once under crash-and-restore
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_exactly_once_under_crash_and_restore(policy):
    gen = SentenceGenerator(vocabulary_size=300, words_per_sentence=6, seed=7)
    records = list(gen.sentences(220))
    reference = count_words(records)
    pipeline = CheckpointedWordCount(partitions=2, compaction_policy=policy)
    pipeline.produce(records)
    counts = pipeline.run_to_completion(batch=10, crash_at_steps=(3, 8))
    assert pipeline.crashes == 2
    assert counts == reference
    for store in pipeline.stores:
        assert store.policy.name == policy
        store.check_invariants()


# ----------------------------------------------------------------------
# golden p99.9 tables (library scenarios)
# ----------------------------------------------------------------------


def _golden_settings():
    from repro.experiments.runner import ExperimentSettings

    return ExperimentSettings(duration_s=60.0, warmup_s=20.0, seed=1)


def compute_policy_tails(scenario_name):
    """p99.9 per policy on *scenario_name* at the golden settings."""
    from dataclasses import replace

    from repro.core.mitigation import MitigationPlan
    from repro.experiments.parallel import RunSpec, run_grid
    from repro.scenarios.library import scenario

    base = scenario(scenario_name)
    specs = [
        RunSpec(
            scenario=replace(
                base,
                mitigation=MitigationPlan(compaction_policy=policy),
            ),
            settings=_golden_settings(),
            label=policy,
        )
        for policy in POLICIES
    ]
    summaries = run_grid(specs, cache=False)
    return {policy: summary.p999
            for policy, summary in zip(POLICIES, summaries)}


def test_golden_p999_tables():
    """Library-scenario tails per policy are pinned bit-for-bit.

    A diff here means a policy's scheduling decisions changed — either
    a deliberate improvement (regenerate the goldens and say so in the
    commit) or an accidental behavior change (fix it).
    """
    golden = json.loads(GOLDENS.read_text())
    for scenario_name, expected in golden.items():
        observed = compute_policy_tails(scenario_name)
        assert set(observed) == set(expected), scenario_name
        for policy, p999 in expected.items():
            assert observed[policy] == pytest.approx(p999, rel=0, abs=0), (
                f"{scenario_name}/{policy}: expected p99.9 {p999}, "
                f"got {observed[policy]} — regenerate with "
                "PYTHONPATH=src python tests/make_policy_goldens.py "
                "if the change is deliberate"
            )
