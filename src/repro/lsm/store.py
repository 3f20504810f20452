"""The LSM store façade: RocksDB's role in the benchmark.

One :class:`LSMStore` backs one stage instance's keyed state, exactly as
Flink embeds one RocksDB instance per stateful task.  The store is fully
functional — puts, gets, deletes, scans, flushes, leveled compactions —
and separately exposes the *control-plane* hooks the simulation drives:

* :meth:`begin_flush` / :meth:`finish_flush` bracket a flush whose
  simulated duration the engine charges to CPU/storage;
* :meth:`pick_compaction` / :meth:`finish_compaction` do the same for
  compactions;
* :attr:`l0_file_count` is the counter whose trip at
  ``effective_l0_trigger()`` creates the 4-checkpoint ShadowSync cycle.

The read path merges, newest first: active memtable → frozen memtables
→ L0 (newest first) → L1..L6 (binary search per level).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import LSMError, StoreClosedError
from ..trace import NULL_TRACER
from .compaction import CompactionJob
from .flush import FlushJob
from .levels import LevelManager
from .memtable import TOMBSTONE, MemTable
from .options import LSMOptions
from .policies import CompactionPolicy, make_policy
from .sstable import SSTable
from .wal import WriteAheadLog

__all__ = ["StoreStats", "LSMStore"]


class StoreStats:
    """Lifetime counters of one store."""

    __slots__ = (
        "puts",
        "gets",
        "deletes",
        "flush_count",
        "flush_bytes",
        "compaction_count",
        "compaction_input_bytes",
        "memtable_full_flushes",
    )

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.flush_count = 0
        self.flush_bytes = 0
        self.compaction_count = 0
        self.compaction_input_bytes = 0
        self.memtable_full_flushes = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LSMStore:
    """A single-writer LSM key-value store."""

    def __init__(self, options: Optional[LSMOptions] = None, name: str = "store") -> None:
        self.options = options or LSMOptions()
        self.name = name
        self._active = MemTable(self.options.entry_overhead_bytes)
        self._frozen: List[MemTable] = []
        self.levels = LevelManager(self.options)
        #: The compaction/scheduling policy (see :mod:`repro.lsm.policies`).
        self.policy: CompactionPolicy = make_policy(
            self.options.compaction_policy,
            options=self.options,
            params=self.options.compaction_policy_params,
        )
        self.stats = StoreStats()
        self._closed = False
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog() if self.options.wal_enabled else None
        )
        #: memtable id -> WAL segment id, resolved at finish_flush.
        self._wal_segment_of: dict = {}
        #: Bumped on every checkpoint restore; jobs picked before a
        #: restore carry the old generation and are discarded on finish.
        self.generation = 0
        self.restore_count = 0
        #: Memtable ids frozen at restore time: their in-flight flushes
        #: complete as no-ops instead of corrupting the restored levels.
        self._orphaned: set = set()
        #: Installed by the engine (the simulator's root tracer); the
        #: store emits memtable-freeze instants and L0-count counters.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        if self.wal is not None:
            self.wal.log_put(key, value)
        self._active.put(key, value)
        self.stats.puts += 1

    def delete(self, key: bytes) -> None:
        self._check_open()
        if self.wal is not None:
            self.wal.log_delete(key)
        self._active.delete(key)
        self.stats.deletes += 1

    def account(self, entries: int, data_bytes: int) -> None:
        """Add logical write volume (sampled simulation mode)."""
        self._check_open()
        self._active.account(entries, data_bytes)

    @property
    def memtable_full(self) -> bool:
        """True when the active memtable exceeds ``write_buffer_size``."""
        return self._active.size_bytes >= self.options.write_buffer_size

    @property
    def memtable_bytes(self) -> int:
        return self._active.size_bytes

    @property
    def memtable_entries(self) -> float:
        """Physical plus accounted entries in the active memtable."""
        return self._active.entry_count

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        self.stats.gets += 1
        found = self._active.get(key)
        if found is None:
            for memtable in reversed(self._frozen):
                found = memtable.get(key)
                if found is not None:
                    break
        if found is None:
            for table in self.levels.level(0):
                found = table.get(key)
                if found is not None:
                    break
        if found is None:
            for index in range(1, self.levels.num_levels):
                for table in self.levels.level(index):
                    found = table.get(key)
                    if found is not None:
                        break
                if found is not None:
                    break
        if found is None or found is TOMBSTONE:
            return None
        return found

    def scan(
        self, low: Optional[bytes] = None, high: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield live ``(key, value)`` pairs with ``low <= key < high``.

        Built by merging all sources with newest-wins semantics; this is
        O(total entries) and intended for tests/examples, not hot paths.
        """
        self._check_open()
        merged: dict = {}
        sources: List[Iterator[Tuple[bytes, object]]] = []
        for index in range(self.levels.num_levels - 1, 0, -1):
            for table in self.levels.level(index):
                sources.append(table.scan(low, high))
        for table in reversed(self.levels.level(0)):
            sources.append(table.scan(low, high))
        for memtable in self._frozen:
            sources.append(memtable.scan(low, high))
        sources.append(self._active.scan(low, high))
        for source in sources:  # oldest first: later sources overwrite
            for key, value in source:
                merged[key] = value
        for key in sorted(merged):
            value = merged[key]
            if value is not TOMBSTONE:
                yield key, value

    # ------------------------------------------------------------------
    # flush control plane
    # ------------------------------------------------------------------

    def begin_flush(self, reason: str = "checkpoint", now: float = 0.0) -> Optional[FlushJob]:
        """Freeze the active memtable; return the job, or ``None`` when
        there is nothing to flush."""
        self._check_open()
        if self._active.is_empty:
            return None
        memtable = self._active
        memtable.freeze()
        self._frozen.append(memtable)
        if self.wal is not None:
            self._wal_segment_of[id(memtable)] = self.wal.seal_active_segment()
        self._active = MemTable(self.options.entry_overhead_bytes)
        self.stats.flush_count += 1
        self.stats.flush_bytes += memtable.size_bytes
        if reason == "memtable-full":
            self.stats.memtable_full_flushes += 1
        job = FlushJob(self, memtable, reason=reason, created_at=now)
        if self.tracer.enabled:
            self.tracer.instant(
                "memtable-freeze", "flush", now, tid=self.name, **job.trace_args()
            )
        return job

    def finish_flush(self, job: FlushJob, now: float = 0.0) -> SSTable:
        """Run the flush's data plane and install its L0 output."""
        self._check_open()
        if job.store is not self:
            raise LSMError("flush job belongs to a different store")
        if id(job.memtable) in self._orphaned:
            # the store was restored from a checkpoint while this flush
            # was in flight; its memtable no longer exists
            self._orphaned.discard(id(job.memtable))
            return job.run(now) if job.output is None else job.output
        if job.memtable not in self._frozen:
            raise LSMError("flush job's memtable is not pending")
        table = job.run(now) if job.output is None else job.output
        self._frozen.remove(job.memtable)
        if self.wal is not None:
            segment = self._wal_segment_of.pop(id(job.memtable), None)
            if segment is not None:
                self.wal.drop_segment(segment)
        self.levels.add_l0(table)
        if self.tracer.enabled:
            self.tracer.counter("l0", "lsm", now, self.l0_file_count, tid=self.name)
        return table

    # ------------------------------------------------------------------
    # compaction control plane
    # ------------------------------------------------------------------

    @property
    def l0_file_count(self) -> int:
        return self.levels.l0_file_count

    def compaction_due(self) -> bool:
        """Non-claiming check: is compaction work plausibly available?"""
        return self.policy.due(self.levels)

    def install_compaction_policy(self, policy, params: Optional[dict] = None) -> CompactionPolicy:
        """Switch this store to *policy* (a name or an instance)."""
        if isinstance(policy, CompactionPolicy):
            self.policy = policy
        else:
            self.policy = make_policy(policy, options=self.options, params=params)
        return self.policy

    def pick_compaction(self, now: float = 0.0) -> Optional[CompactionJob]:
        """Reserve the next due compaction as a job, or ``None``."""
        self._check_open()
        pick = self.policy.pick(self.levels, now=now)
        if pick is None:
            return None
        job = CompactionJob(self, pick, created_at=now, policy=self.policy.name)
        job.generation = self.generation
        return job

    def finish_compaction(self, job: CompactionJob, now: float = 0.0) -> SSTable:
        """Run the merge and install its output, freeing the inputs."""
        self._check_open()
        if job.store is not self:
            raise LSMError("compaction job belongs to a different store")
        if getattr(job, "generation", self.generation) != self.generation:
            # picked before a checkpoint restore: its inputs describe a
            # level structure that no longer exists
            self.levels.abandon_compaction(job.pick)
            return job.run(now) if job.output is None else job.output
        output = job.run(now) if job.output is None else job.output
        cap = self.options.live_data_cap_bytes
        if cap is not None and job.pick.target_level >= 1:
            output.logical_bytes = min(output.logical_bytes, cap)
        self.levels.apply_compaction(job.pick, output)
        self.stats.compaction_count += 1
        self.stats.compaction_input_bytes += job.input_bytes
        if self.tracer.enabled:
            self.tracer.counter("l0", "lsm", now, self.l0_file_count, tid=self.name)
        return output

    def cancel_compaction(self, job: CompactionJob) -> None:
        self.levels.abandon_compaction(job.pick)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    def total_bytes(self) -> int:
        """Logical bytes across memtables and all levels."""
        frozen = sum(m.size_bytes for m in self._frozen)
        return self._active.size_bytes + frozen + self.levels.total_bytes()

    def check_invariants(self) -> None:
        self.levels.check_invariants()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """A checkpoint snapshot of the durable state: the level
        structure plus the WAL frontier it covers.

        Meant to be captured right after a checkpoint flush completes,
        when the memtable contents have reached L0.
        """
        self._check_open()
        return {
            "levels": self.levels.snapshot(),
            "wal_sequence": self.wal.last_sequence if self.wal is not None else 0,
        }

    def restore_from_checkpoint(self, snapshot: Optional[dict]) -> None:
        """Rewind this store **in place** to *snapshot* (crash recovery).

        Memtables are lost, the level structure reverts to the snapshot
        (``None`` = cold start: empty levels), and WAL records written
        after the snapshot's frontier are replayed into a fresh memtable.
        In-flight flushes and compactions from before the restore are
        orphaned and complete as no-ops.
        """
        self._check_open()
        for memtable in self._frozen:
            self._orphaned.add(id(memtable))
        self._frozen = []
        self._wal_segment_of.clear()
        self._active = MemTable(self.options.entry_overhead_bytes)
        if snapshot is None:
            self.levels.restore([[] for _ in range(self.levels.num_levels)])
            wal_sequence = 0
        else:
            self.levels.restore(snapshot["levels"])
            wal_sequence = snapshot.get("wal_sequence", 0)
        if self.wal is not None:
            # replayed writes are already in the log — apply them to the
            # fresh memtable without logging them again
            for record in self.wal.replay_since(wal_sequence):
                if record.op == "put":
                    self._active.put(record.key, record.value)
                else:
                    self._active.delete(record.key)
        self.generation += 1
        self.restore_count += 1
        # Transient scheduler state (cursors, holds, token deficits)
        # described the pre-crash timeline; the restored store starts clean.
        self.policy.reset()

    def simulate_crash_and_recover(self) -> LSMStore:
        """Crash model: memtables are lost, SSTables survive, the WAL
        (when enabled) is replayed into a fresh memtable.

        Returns the recovered store; this store is closed.  Without a
        WAL the recovered store only contains flushed data — exactly
        the durability Flink's checkpoint-based recovery provides.
        """
        self._check_open()
        recovered = LSMStore(self.options, name=f"{self.name}-recovered")
        # SSTables are immutable: the recovered store can share them.
        for index in range(self.levels.num_levels):
            recovered.levels._levels[index] = list(self.levels._levels[index])
        if self.wal is not None:
            from .memtable import TOMBSTONE  # local import to avoid cycle noise

            for record in self.wal.replay():
                if record.op == "put":
                    recovered.put(record.key, record.value)
                else:
                    recovered.delete(record.key)
        self.close()
        return recovered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LSMStore {self.name!r} memtable={self._active.size_bytes}B "
            f"L0={self.l0_file_count} total={self.total_bytes()}B>"
        )
