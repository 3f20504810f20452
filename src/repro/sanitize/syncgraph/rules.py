"""The DS2xx hidden-synchronization lint rules.

Registered into the same :data:`repro.sanitize.rules.RULES` registry as
the DS1xx determinism rules, so suppression (``# repro: allow[DS201]``),
selection and reporting all work unchanged.  Unlike DS1xx these rules
are *project-aware*: they consult the static call graph
(:mod:`.callgraph`) and the declared sync catalog (:mod:`.catalog`).

``DS201 hidden-blocking-call``
    A call to a blocking synchronization primitive whose caller is
    reachable from the event-dispatch layer (simulator callbacks) —
    the structural shape behind ShadowSync's long tail.  The finding
    carries the full dispatch chain as evidence.  Every such call must
    either move off the dispatch path or carry an inline allow comment
    stating why the blocking is intended.
``DS202 undeclared-sync-primitive``
    A synchronization primitive (real ``threading``/``queue`` objects,
    or sync vocabulary like ``.acquire()``/``.wait()``) that is not in
    the declared catalog — an undeclared sync point.
``DS203 unowned-shared-state``
    An attribute written on a non-``self`` receiver by two or more
    different classes without a declared ownership transfer.
``DS204 gate-order-hazard``
    Two gates acquired in opposite orders by different functions — the
    classic deadlock/convoy shape, stated statically.
``DS205 unbounded-callback-put``
    An unbounded put into a shared queue from inside an event callback:
    backlog forms invisibly on the dispatch path.
"""

from __future__ import annotations

import ast
import functools
from typing import Callable, Dict, Iterator, List, Tuple, TypeVar, Union

from ..rules import RuleContext, rule
from .callgraph import CallSite, ProjectGraph, WriteSite, link_project
from .catalog import (
    DECLARED_SYNC_MODULES,
    OWNERSHIP_TRANSFERS,
    SyncPrimitive,
    primitives_by_method,
)

__all__ = ["project_for"]

#: Modules whose objects synchronize for real (host-level, not simulated).
REAL_SYNC_MODULES = frozenset({
    "threading",
    "queue",
    "multiprocessing",
    "concurrent",
    "asyncio",
    "socket",
    "select",
    "selectors",
})

#: Method vocabulary that marks a call as a synchronization operation
#: even when the receiver's type is unknown.
SYNC_VOCAB = frozenset({
    "acquire",
    "release",
    "wait",
    "wait_for",
    "notify",
    "notify_all",
    "join",
    "barrier",
})

#: Fully-qualified calls that merely *look* like sync vocabulary.
BENIGN_SYNC_CALLS = frozenset({
    "os.path.join",
    "posixpath.join",
    "ntpath.join",
    "str.join",
    "bytes.join",
    "shlex.join",
})

#: Queue mutation vocabulary for DS205.
PUT_ATTRS = frozenset({"append", "appendleft", "put", "put_nowait", "extend"})

#: Receiver-name fragments that mark an attribute as a queue/backlog.
QUEUE_NAME_HINTS = ("queue", "pending", "backlog", "buffer", "inbox",
                    "mailbox", "jobs", "tasks")

#: Gate-acquiring vocabulary for DS204 ordering analysis.
GATE_ATTRS = frozenset({"acquire", "lock", "pause", "claim", "trigger",
                        "flush_instance"})


class _Site:
    """Positional anchor for findings derived from callgraph records."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col: int) -> None:
        self.lineno = lineno
        self.col_offset = col


def project_for(ctx: RuleContext) -> ProjectGraph:
    """The project graph for *ctx*: shared when ``lint_paths`` built
    one, else a single-file graph built (and cached) on demand."""
    project = getattr(ctx, "project", None)
    if project is None:
        project = link_project([ctx.index])
        ctx.project = project
    return project


T = TypeVar("T")


def per_graph(derive: Callable[[ProjectGraph], T]) -> Callable[[ProjectGraph], T]:
    """Compute a project-wide table once per graph.

    The DS2xx rules run once per file, but what they look up is a
    property of the whole project; the first file's rule pass derives
    the table and stores it in :attr:`ProjectGraph.tables`.
    """
    key = derive.__qualname__

    @functools.wraps(derive)
    def shared(graph: ProjectGraph) -> T:
        if key not in graph.tables:
            graph.tables[key] = derive(graph)
        return graph.tables[key]

    return shared


#: ``path -> [(anchor site, message)]`` of one rule's findings.
FindingsByPath = Dict[str, List[Tuple[Union[CallSite, WriteSite], str]]]


@per_graph
def _calls_by_path(graph: ProjectGraph) -> Dict[str, List[CallSite]]:
    """Every callsite grouped by file, callers in sorted order."""
    by_path: Dict[str, List[CallSite]] = {}
    for caller in sorted(graph.calls):
        for site in graph.calls[caller]:
            by_path.setdefault(site.path, []).append(site)
    return by_path


@per_graph
def _catalog_methods(graph: ProjectGraph) -> Dict[str, SyncPrimitive]:
    return primitives_by_method()


def _anchored(findings: FindingsByPath, path: str) -> Iterator[Tuple[ast.AST, str]]:
    for site, message in findings.get(path, ()):
        yield _Site(site.lineno, site.col), message


def _short(qualname: str) -> str:
    """Trailing ``Class.method`` (or ``module.func``) of a qualname."""
    return ".".join(qualname.split(".")[-2:])


# ----------------------------------------------------------------------
# DS201: blocking call reachable from the dispatch layer
# ----------------------------------------------------------------------


@rule(
    "DS201",
    "hidden-blocking-call",
    "blocking sync primitive reachable from an event-dispatch callback",
    "move the blocking call off the dispatch path (defer it to a pool "
    "job) or declare the edge with an allow comment stating why the "
    "block is intended",
)
def check_hidden_blocking_call(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    methods = _catalog_methods(graph)
    reachable = graph.dispatch_reachable()
    for site in _calls_by_path(graph).get(ctx.path, ()):
        prim = methods.get(site.attr)
        if site.literal_base or prim is None or not prim.blocking:
            continue
        if site.caller not in reachable:
            continue
        chain = [_short(q) for q in graph.dispatch_chain(site.caller)]
        chain.append(f"{prim.owner}.{site.attr}")
        yield _Site(site.lineno, site.col), (
            f"blocking primitive {prim.name} ({prim.owner}.{site.attr}) "
            f"called on the dispatch path: {' -> '.join(chain)}"
        )


# ----------------------------------------------------------------------
# DS202: sync primitive not in the declared catalog
# ----------------------------------------------------------------------


@rule(
    "DS202",
    "undeclared-sync-primitive",
    "synchronization primitive not in the declared sync catalog",
    "declare it in repro.sanitize.syncgraph.catalog.SYNC_CATALOG (with "
    "owner, kind and rationale) or replace it with a cataloged "
    "primitive; host-level threading/queue objects do not exist on the "
    "simulated clock",
)
def check_undeclared_sync(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    graph = project_for(ctx)
    cataloged = _catalog_methods(graph)
    for site in _calls_by_path(graph).get(ctx.path, ()):
        if site.literal_base:
            continue
        dotted = f"{site.base}.{site.attr}" if site.base else site.attr
        root = (site.base or site.attr).split(".", 1)[0]
        if root in REAL_SYNC_MODULES:
            if root in DECLARED_SYNC_MODULES:
                continue
            yield _Site(site.lineno, site.col), (
                f"real synchronization primitive {dotted}() is not in "
                "the sync catalog"
            )
            continue
        if site.attr in SYNC_VOCAB and site.attr not in cataloged:
            if dotted in BENIGN_SYNC_CALLS:
                continue
            yield _Site(site.lineno, site.col), (
                f"sync operation {dotted}() has no declared primitive "
                "in the catalog"
            )


# ----------------------------------------------------------------------
# DS203: shared mutable state without ownership transfer
# ----------------------------------------------------------------------


@rule(
    "DS203",
    "unowned-shared-state",
    "shared mutable attribute crossed by stages without an ownership "
    "transfer",
    "declare the hand-over protocol in "
    "repro.sanitize.syncgraph.catalog.OWNERSHIP_TRANSFERS, or give the "
    "field a single owning class",
)
def check_unowned_shared_state(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    return _anchored(_unowned_writes(project_for(ctx)), ctx.path)


@per_graph
def _unowned_writes(graph: ProjectGraph) -> FindingsByPath:
    findings: FindingsByPath = {}
    for attr in sorted(graph.foreign_writes):
        if attr in OWNERSHIP_TRANSFERS or attr.isupper():
            continue
        sites = graph.foreign_writes[attr]
        # Only class-resident writes count: a module-level helper
        # filling a result object it just built is a builder, not a
        # stage crossing shared state.
        writers = sorted(
            {site.writer for site in sites if site.writer_is_class}
        )
        if len(writers) < 2:
            continue
        for site in sites:
            if not site.writer_is_class:
                continue
            findings.setdefault(site.path, []).append((site, (
                f"attribute {attr!r} on {site.base} is mutated by "
                f"{len(writers)} different classes ({', '.join(writers)}) "
                "with no declared ownership transfer"
            )))
    return findings


# ----------------------------------------------------------------------
# DS204: gate-ordering hazard
# ----------------------------------------------------------------------


def _gate_id(site: CallSite) -> str:
    if site.attr in ("acquire", "lock", "pause") and site.base:
        return site.base.rsplit(".", 1)[-1]
    return site.attr


def _gate_orders(
    graph: ProjectGraph,
) -> Dict[Tuple[str, str], List[Tuple[str, CallSite]]]:
    """``(gate1, gate2) -> [(function, second-acquisition site)]``."""
    orders: Dict[Tuple[str, str], List[Tuple[str, CallSite]]] = {}
    for caller in sorted(graph.calls):
        gates: List[Tuple[str, CallSite]] = []
        seen: set = set()
        for site in graph.calls[caller]:
            if site.literal_base or site.attr not in GATE_ATTRS:
                continue
            gate = _gate_id(site)
            if gate in seen:
                continue
            seen.add(gate)
            gates.append((gate, site))
        for i, (first, _) in enumerate(gates):
            for second, second_site in gates[i + 1:]:
                orders.setdefault((first, second), []).append(
                    (caller, second_site)
                )
    return orders


@rule(
    "DS204",
    "gate-order-hazard",
    "two gates acquired in opposite orders by different functions",
    "pick one global acquisition order for the two gates and make "
    "every code path follow it",
)
def check_gate_order(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    return _anchored(_gate_hazards(project_for(ctx)), ctx.path)


@per_graph
def _gate_hazards(graph: ProjectGraph) -> FindingsByPath:
    orders = _gate_orders(graph)
    findings: FindingsByPath = {}
    reported: set = set()
    for (g1, g2) in sorted(orders):
        if (g2, g1) not in orders or g1 >= g2:
            continue
        forward = orders[(g1, g2)]
        backward = orders[(g2, g1)]
        for caller, site in forward + backward:
            key = (site.path, site.lineno, site.col, g1, g2)
            if key in reported:
                continue
            reported.add(key)
            other = backward if (caller, site) in forward else forward
            other_names = ", ".join(sorted({_short(c) for c, _ in other}))
            findings.setdefault(site.path, []).append((site, (
                f"{_short(caller)} acquires gates {g1!r} and {g2!r} in "
                f"the opposite order from {other_names}"
            )))
    return findings


# ----------------------------------------------------------------------
# DS205: unbounded queue put inside a callback
# ----------------------------------------------------------------------


def _callback_closure(graph: ProjectGraph) -> Dict[str, str]:
    """Callback functions for DS205: the registered roots plus one
    level of expansion through registered lambdas (``on_complete=lambda
    ...: self._phase_done(...)`` makes ``_phase_done`` the callback)."""
    callbacks: Dict[str, str] = {}
    for root, (_, _, registrar) in graph.callback_roots.items():
        callbacks.setdefault(root, registrar)
        info = graph.functions.get(root)
        if info is not None and info.name.startswith("<lambda"):
            for site in graph.calls.get(root, ()):
                if site.target is not None:
                    callbacks.setdefault(site.target, registrar)
    return callbacks


@rule(
    "DS205",
    "unbounded-callback-put",
    "unbounded put into a shared queue inside an event callback",
    "bound the queue (or shed on a threshold), or move the put onto an "
    "explicit pool job so backpressure is visible",
)
def check_unbounded_callback_put(ctx: RuleContext) -> Iterator[Tuple[ast.AST, str]]:
    return _anchored(_callback_puts(project_for(ctx)), ctx.path)


@per_graph
def _callback_puts(graph: ProjectGraph) -> FindingsByPath:
    callbacks = _callback_closure(graph)
    findings: FindingsByPath = {}
    for func in sorted(callbacks):
        for site in graph.calls.get(func, ()):
            if site.literal_base:
                continue
            if site.attr not in PUT_ATTRS or not site.base or "." not in site.base:
                continue
            name = site.base.rsplit(".", 1)[-1].lstrip("_").lower()
            if not any(hint in name for hint in QUEUE_NAME_HINTS):
                continue
            findings.setdefault(site.path, []).append((site, (
                f"callback {_short(func)} (registered via "
                f"{callbacks[func]}) does an unbounded {site.attr}() "
                f"into shared queue {site.base}"
            )))
    return findings
