"""Runtime wait-for graph: extract sync edges from recorded traces.

The dynamic half of the hidden-synchronization analyzer.  A recorded
trace (the same events :meth:`StreamJobResult.export_trace` writes)
is folded into **sync edges** — aggregated waiter→holder relations
with total blocked time and the windows where the blocking happened:

* ``pool-queue`` — jobs queued behind busy pool threads
  (``queued:NAME`` spans);
* ``pool-stall`` — pause..resume/restart intervals freezing a pool;
* ``checkpoint-barrier`` — trigger→complete barrier holds
  (``checkpoint-N`` spans);
* ``flush-block`` — instances blocked while a flush drains
  (flush spans, split by reason);
* ``compaction-during-checkpoint`` — compaction work overlapping an
  open checkpoint barrier: **the paper's shadow edge**;
* ``migration-fence`` — fenced nodes during cluster migrations.

:func:`diff_against_catalog` marks each edge with the declared
primitive that explains it; edges with no declaration are **shadow
sync**.  :func:`attribute_spikes` overlaps edge windows with the
millibottleneck spike windows, attributing blocked time onto the run's
latency critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .catalog import SYNC_CATALOG, SyncPrimitive, declared_edge_kinds

__all__ = [
    "SyncEdge",
    "extract_wait_graph",
    "diff_against_catalog",
    "sync_windows",
    "attribute_spikes",
]


@dataclass
class SyncEdge:
    """One aggregated wait-for relation observed at runtime."""

    kind: str
    #: The waiting side (``stage:agg``, ``pool:node0-flush``, ...).
    src: str
    #: What it waited on (``checkpoint``, ``pause-gate``, ...).
    dst: str
    blocked_s: float = 0.0
    count: int = 0
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Declared primitive explaining this edge (after the catalog diff);
    #: ``None`` means shadow sync.
    declared_by: Optional[str] = None
    #: Blocked time overlapping latency-spike windows (critical path).
    spike_overlap_s: float = 0.0

    @property
    def shadow(self) -> bool:
        return self.declared_by is None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "blocked_s": self.blocked_s,
            "count": self.count,
            "windows": [list(w) for w in self.windows],
            "declared_by": self.declared_by,
            "spike_overlap_s": self.spike_overlap_s,
            "shadow": self.shadow,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SyncEdge":
        return cls(
            kind=data["kind"],
            src=data["src"],
            dst=data["dst"],
            blocked_s=data.get("blocked_s", 0.0),
            count=data.get("count", 0),
            windows=[tuple(w) for w in data.get("windows", [])],
            declared_by=data.get("declared_by"),
            spike_overlap_s=data.get("spike_overlap_s", 0.0),
        )


class _EdgeBuilder:
    def __init__(self) -> None:
        self.edges: Dict[Tuple[str, str, str], SyncEdge] = {}

    def add(
        self, kind: str, src: str, dst: str, start: float, end: float
    ) -> None:
        key = (kind, src, dst)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = SyncEdge(kind=kind, src=src, dst=dst)
        edge.blocked_s += max(0.0, end - start)
        edge.count += 1
        edge.windows.append((start, end))

    def build(self) -> List[SyncEdge]:
        edges = [self.edges[key] for key in sorted(self.edges)]
        for edge in edges:
            edge.windows.sort()
        return edges


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def extract_wait_graph(events: Iterable) -> List[SyncEdge]:
    """Fold trace events into aggregated :class:`SyncEdge` records."""
    events = sorted(events, key=lambda e: (e.ts, e.name))
    builder = _EdgeBuilder()
    checkpoint_windows: List[Tuple[float, float]] = []
    #: pool tid -> stack of open pause timestamps.
    open_pauses: Dict[str, List[float]] = {}
    #: node tid -> open fence timestamp.
    open_fences: Dict[str, float] = {}
    last_ts = 0.0

    for e in events:
        last_ts = max(last_ts, e.ts + (e.dur or 0.0))
        if e.ph == "X" and e.cat == "checkpoint":
            if e.name.startswith("checkpoint-"):
                checkpoint_windows.append((e.ts, e.ts + e.dur))
                builder.add(
                    "checkpoint-barrier",
                    "coordinator",
                    "stateful-instances",
                    e.ts,
                    e.ts + e.dur,
                )
        elif e.ph == "X" and e.cat == "pool":
            if e.name.startswith("queued:"):
                job_kind = str(e.args.get("kind", "job"))
                builder.add(
                    "pool-queue",
                    f"job:{job_kind}",
                    f"pool:{e.tid}",
                    e.ts,
                    e.ts + e.dur,
                )
        elif e.ph == "X" and e.cat == "flush":
            reason = str(e.args.get("reason", "") or "memtable-full")
            stage = str(e.args.get("stage", "") or "stage")
            dst = "checkpoint" if reason == "checkpoint" else "memtable"
            builder.add(
                "flush-block", f"stage:{stage}", dst, e.ts, e.ts + e.dur
            )
        elif e.ph == "i" and e.cat == "pool":
            if e.name.startswith("pause:"):
                open_pauses.setdefault(e.tid, []).append(e.ts)
            elif e.name.startswith(("resume:", "restart:")):
                stack = open_pauses.get(e.tid)
                if stack:
                    start = stack.pop()
                    if e.name.startswith("restart:"):
                        # A watchdog restart clears every pause at once.
                        while stack:
                            stack.pop()
                    builder.add(
                        "pool-stall",
                        f"pool:{e.tid}",
                        "pause-gate",
                        start,
                        e.ts,
                    )
        elif e.ph == "i" and e.cat == "cluster":
            if e.name == "node-fence":
                open_fences.setdefault(e.tid, e.ts)
            elif e.name in ("node-revive", "node-join", "node-leave"):
                start = open_fences.pop(e.tid, None)
                if start is not None:
                    builder.add(
                        "migration-fence",
                        f"node:{e.tid}",
                        "cluster-coordinator",
                        start,
                        e.ts,
                    )

    # Dangling pauses/fences block until the end of the trace.
    for tid in sorted(open_pauses):
        for start in open_pauses[tid]:
            builder.add("pool-stall", f"pool:{tid}", "pause-gate",
                        start, last_ts)
    for tid in sorted(open_fences):
        builder.add("migration-fence", f"node:{tid}", "cluster-coordinator",
                    open_fences[tid], last_ts)

    # THE paper edge: compaction work inside an open checkpoint barrier.
    for e in events:
        if e.ph != "X" or e.cat != "compaction":
            continue
        stage = str(e.args.get("stage", "") or "stage")
        for c0, c1 in checkpoint_windows:
            shared = _overlap(e.ts, e.ts + e.dur, c0, c1)
            if shared > 0.0:
                builder.add(
                    "compaction-during-checkpoint",
                    f"stage:{stage}",
                    "checkpoint",
                    max(e.ts, c0),
                    min(e.ts + e.dur, c1),
                )
    return builder.build()


def diff_against_catalog(
    edges: Sequence[SyncEdge],
    catalog: Tuple[SyncPrimitive, ...] = SYNC_CATALOG,
) -> Tuple[List[SyncEdge], List[SyncEdge]]:
    """Mark edges with their declaring primitive; return
    ``(all edges, shadow edges)``.  A runtime edge kind with no catalog
    declaration is shadow sync — the paper's phenomenon, mechanically."""
    declared = declared_edge_kinds(catalog)
    shadows: List[SyncEdge] = []
    for edge in edges:
        edge.declared_by = declared.get(edge.kind)
        if edge.declared_by is None:
            shadows.append(edge)
    return list(edges), shadows


def sync_windows(
    edges: Sequence[SyncEdge],
) -> List[Tuple[str, float, float]]:
    """``(kind, start, end)`` labeled windows: the millibottleneck
    detector's ``sync`` blame source."""
    labeled: List[Tuple[str, float, float]] = []
    for edge in edges:
        for start, end in edge.windows:
            labeled.append((edge.kind, start, end))
    labeled.sort(key=lambda w: (w[1], w[2], w[0]))
    return labeled


def attribute_spikes(
    edges: Sequence[SyncEdge],
    spike_windows: Sequence[Tuple[float, float]],
) -> None:
    """Fill ``spike_overlap_s``: each edge's blocked time that lands
    inside a latency-spike window — the share of the blocking that sat
    on the tail-latency critical path."""
    for edge in edges:
        total = 0.0
        for w0, w1 in edge.windows:
            for s0, s1 in spike_windows:
                total += _overlap(w0, w1, s0, s1)
        edge.spike_overlap_s = total
