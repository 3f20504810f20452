"""Hidden-synchronization analyzer: static catalog + shadow-sync audit.

Two halves joined on one catalog (:mod:`.catalog`):

* **static** — a project-wide call graph (:mod:`.callgraph`) feeds the
  DS2xx lint rules (:mod:`.rules`), which flag blocking calls on the
  dispatch path, undeclared sync primitives, unowned shared state,
  gate-order hazards and unbounded callback puts;
* **dynamic** — a traced run's wait-for graph (:mod:`.waitgraph`) is
  diffed against the same catalog; runtime sync edges with no declared
  counterpart are **shadow sync** (:mod:`.audit`).

Importing this package registers the DS2xx family into the shared
``repro.sanitize`` rule registry.
"""

from .callgraph import (  # noqa: F401
    CallSite,
    FunctionInfo,
    ProjectGraph,
    WriteSite,
    build_project,
    module_name_for,
)
from .catalog import (  # noqa: F401
    DECLARED_SYNC_MODULES,
    OWNERSHIP_TRANSFERS,
    SYNC_CATALOG,
    SyncPrimitive,
    declared_edge_kinds,
    primitives_by_method,
)
from . import rules as _rules  # noqa: F401  (registers DS201..DS205)
from .waitgraph import (  # noqa: F401
    SyncEdge,
    attribute_spikes,
    diff_against_catalog,
    extract_wait_graph,
    sync_windows,
)
from .audit import SyncAuditReport, analyze_sync  # noqa: F401

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ProjectGraph",
    "WriteSite",
    "build_project",
    "module_name_for",
    "DECLARED_SYNC_MODULES",
    "OWNERSHIP_TRANSFERS",
    "SYNC_CATALOG",
    "SyncPrimitive",
    "declared_edge_kinds",
    "primitives_by_method",
    "SyncEdge",
    "attribute_spikes",
    "diff_against_catalog",
    "extract_wait_graph",
    "sync_windows",
    "SyncAuditReport",
    "analyze_sync",
]
