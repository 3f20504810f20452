"""Project-wide static call graph for the hidden-sync analyzer.

The DS2xx rules need more context than one file's AST: whether a
blocking call is *reachable from the event-dispatch layer* is a
property of the whole call graph.  :func:`build_project` takes every
file's parsed tree and produces a :class:`ProjectGraph` — functions
indexed by module-qualified name, call edges with best-effort
resolution, and the set of functions registered as simulator callbacks
(the dispatch roots).  It reads each tree through the same
:class:`~repro.sanitize.astindex.FileIndex` the DS1xx rules use, and
keeps the indexes in :attr:`ProjectGraph.files`, so a file is traversed
once for the whole lint run.

Resolution is deliberately conservative Python static analysis:

* ``self.meth(...)`` resolves inside the enclosing class;
* imported names resolve through absolute *and* package-relative
  imports (``from ..trace import Tracer``);
* simple local aliases are tracked
  (``backend_flush = self.backend.flush_instance``);
* a bare method name that exists on exactly **one** class in the
  project resolves to that method (the unique-name fallback).

Anything else stays unresolved — an unresolved edge can never produce
a finding, so imprecision biases toward silence, not noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..astindex import FileIndex
from ..rules import qualified_name

__all__ = [
    "CallSite",
    "FunctionInfo",
    "WriteSite",
    "ProjectGraph",
    "build_project",
    "link_project",
    "module_name_for",
]

#: Kernel/threadpool entry points whose function arguments become event
#: callbacks — the roots of the dispatch closure.
CALLBACK_REGISTRARS = frozenset({
    "schedule",
    "schedule_after",
    "schedule_at",
    "call_soon",
    "spawn",
})

#: Keyword arguments that register completion callbacks on jobs/tasks.
CALLBACK_KEYWORDS = frozenset({"on_complete", "on_done", "callback"})

#: ``X.observers.append(fn)`` / ``X.on_trigger.append(fn)`` style sinks.
CALLBACK_SINKS = frozenset({"observers", "on_trigger", "callbacks"})


def module_name_for(path: Path) -> str:
    """Dotted module name of *path*, walking up while ``__init__.py`` exists."""
    path = Path(path).resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


@dataclass(frozen=True)
class CallSite:
    """One call expression, attributed to its enclosing function."""

    caller: str
    #: Resolved project qualname of the callee, or ``None``.
    target: Optional[str]
    #: Bare called name (``flush_instance`` for ``x.y.flush_instance()``).
    attr: str
    #: Dotted receiver text (``self.backend``), ``None`` for bare calls.
    base: Optional[str]
    path: str
    lineno: int
    col: int
    #: True when the receiver is a string/bytes literal (``", ".join``).
    literal_base: bool = False


@dataclass(frozen=True)
class WriteSite:
    """One attribute write on an object other than ``self``."""

    attr: str
    #: Writer identity: enclosing class name, else the module name.
    writer: str
    base: str
    path: str
    lineno: int
    col: int
    #: True when the write happens inside a class body (a component),
    #: False for module-level builder/helper functions.
    writer_is_class: bool = False


@dataclass
class FunctionInfo:
    """One function, method, nested function or lambda in the project."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    path: str
    lineno: int
    #: Qualname of the lexically enclosing function, if nested.
    parent: Optional[str] = None


@dataclass
class ProjectGraph:
    """The indexed project: functions, call edges, dispatch roots."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare name -> qualnames defining a function of that name, in
    #: the order the files were indexed.
    by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: caller qualname -> callsites, in source order.
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: Functions registered as simulator/job callbacks, with evidence
    #: ``qualname -> (path, lineno, registrar)`` of one registration.
    callback_roots: Dict[str, Tuple[str, int, str]] = field(default_factory=dict)
    #: attr name -> writes on non-``self`` receivers, project-wide.
    foreign_writes: Dict[str, List[WriteSite]] = field(default_factory=dict)
    #: path -> the file index the graph was built from; the lint rules
    #: read the same index instead of traversing the file again.
    files: Dict[str, FileIndex] = field(default_factory=dict, repr=False)
    #: Project-wide tables the DS2xx rules derive once and share across
    #: files (see :func:`repro.sanitize.syncgraph.rules.per_graph`).
    tables: Dict[str, object] = field(default_factory=dict, repr=False)
    #: Dispatch closure: callback roots plus everything they reach.
    _reachable: Optional[Dict[str, Optional[str]]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def dispatch_reachable(self) -> Dict[str, Optional[str]]:
        """``qualname -> caller-on-the-chain`` for the dispatch closure.

        Roots map to ``None``; every other entry maps to the function
        through which BFS first reached it, so a full root→site chain
        can be reconstructed with :meth:`dispatch_chain`.
        """
        if self._reachable is not None:
            return self._reachable
        parent: Dict[str, Optional[str]] = {
            root: None for root in self.callback_roots
        }
        frontier = list(self.callback_roots)
        while frontier:
            current = frontier.pop()
            for site in self.calls.get(current, ()):
                if site.target is None or site.target in parent:
                    continue
                if site.target not in self.functions:
                    continue
                parent[site.target] = current
                frontier.append(site.target)
        self._reachable = parent
        return parent

    def dispatch_chain(self, qualname: str) -> List[str]:
        """Root→…→*qualname* chain inside the dispatch closure."""
        parent = self.dispatch_reachable()
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None and cursor not in chain:
            chain.append(cursor)
            cursor = parent.get(cursor)
        return list(reversed(chain))

    def unique_method(self, name: str) -> Optional[str]:
        """The single project function called *name*, if unambiguous."""
        owners = self.by_name.get(name, [])
        return owners[0] if len(owners) == 1 else None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self.by_name.setdefault(info.name, []).append(info.qualname)

    def add_call(self, site: CallSite) -> None:
        self.calls.setdefault(site.caller, []).append(site)


def _import_aliases(imports: Sequence[ast.stmt], module: str) -> Dict[str, str]:
    """Local name -> dotted origin, resolving relative imports too."""
    aliases: Dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in imports:
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        else:
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            elif node.module:
                prefix = node.module
            else:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{prefix}.{item.name}"
    return aliases


class _FileLinker:
    """Turn one :class:`FileIndex` into graph records.

    The index holds scope-tagged syntax; this resolves it against the
    file's import aliases.  Function records and foreign writes go into
    the graph at once.  Callees and registered callbacks can live in any
    file, so :meth:`link_calls` and :meth:`link_registrations` run once
    every file's functions are in the graph.
    """

    def __init__(self, graph: ProjectGraph, index: FileIndex) -> None:
        self.graph = graph
        self.path = index.path
        self.module = module_name_for(Path(index.path))
        self.aliases = _import_aliases(index.imports, self.module)
        #: ``(caller, attr, base, lineno, col, literal_base, class)``.
        self.sites: List[tuple] = []
        #: ``(registrar, attr, base, lineno, class)``.
        self.registrations: List[tuple] = []
        module = self.module
        for qualname, name, cls, lineno, parent in index.defs:
            graph.add_function(
                FunctionInfo(
                    qualname=f"{module}.{qualname}",
                    module=module,
                    name=name,
                    cls=cls,
                    path=self.path,
                    lineno=lineno,
                    parent=f"{module}.{parent}" if parent else None,
                )
            )
        for target, cls in index.writes:
            self._note_write(target, cls)
        for node, cls, func, local in index.call_scopes:
            caller = f"{module}.{func or '<module>'}"
            self._note_call(node, cls, caller, local)

    def _dotted(self, node: ast.AST) -> Optional[str]:
        return qualified_name(node, self.aliases)

    def _note_write(self, target: ast.Attribute, cls: Optional[str]) -> None:
        base = self._dotted(target.value)
        if base is None or base.split(".", 1)[0] in ("self", "cls"):
            return
        site = WriteSite(
            attr=target.attr,
            writer=cls or self.module,
            base=base,
            path=self.path,
            lineno=target.lineno,
            col=target.col_offset,
            writer_is_class=cls is not None,
        )
        self.graph.foreign_writes.setdefault(target.attr, []).append(site)

    def _note_call(
        self,
        node: ast.Call,
        cls: Optional[str],
        caller: str,
        local: Dict[str, ast.AST],
    ) -> None:
        func = node.func
        attr = base = None
        literal_base = False
        if isinstance(func, ast.Name):
            attr = func.id
            bound = local.get(func.id)
            dotted = (
                self._dotted(bound) if bound is not None
                else self.aliases.get(func.id)
            )
            if dotted is not None and "." in dotted:
                base, attr = dotted.rsplit(".", 1)
            elif dotted is not None:
                attr = dotted
        elif isinstance(func, ast.Attribute):
            attr = func.attr
            base = self._dotted(func.value)
            if base is not None and base.split(".", 1)[0] in local:
                root, _, rest = base.partition(".")
                base = self._dotted(local[root]) + (f".{rest}" if rest else "")
            literal_base = isinstance(func.value, ast.Constant)
        if attr is None:
            return
        self.sites.append(
            (caller, attr, base, node.lineno, node.col_offset, literal_base, cls)
        )
        self._note_callbacks(node, cls, caller, attr, base)

    def _callable_name(self, arg: ast.AST, caller: str) -> Optional[str]:
        """Qualname-ish text for a callback argument expression."""
        if isinstance(arg, ast.Lambda):
            return f"{caller}.<lambda:{arg.lineno}>"
        if isinstance(arg, ast.Call):
            # spawn(self._loop()) registers the generator function.
            arg = arg.func
        if isinstance(arg, (ast.Attribute, ast.Name)):
            return self._dotted(arg)
        return None

    def _note_callbacks(
        self,
        node: ast.Call,
        cls: Optional[str],
        caller: str,
        attr: str,
        base: Optional[str],
    ) -> None:
        registered: List[ast.AST] = []
        registrar = attr
        if attr in CALLBACK_REGISTRARS:
            registered.extend(node.args)
        elif attr == "append" and base is not None and (
            base.rsplit(".", 1)[-1] in CALLBACK_SINKS
        ):
            registered.extend(node.args)
            registrar = base.rsplit(".", 1)[-1]
        for kw in node.keywords:
            if kw.arg in CALLBACK_KEYWORDS:
                registered.append(kw.value)
                registrar = kw.arg
        for arg in registered:
            name = self._callable_name(arg, caller)
            if name is None:
                continue
            base, _, attr = name.rpartition(".")
            self.registrations.append(
                (registrar, attr, base or None, node.lineno, cls)
            )

    def link_calls(self) -> None:
        graph, module, path = self.graph, self.module, self.path
        for caller, attr, base, lineno, col, literal_base, cls in self.sites:
            target = _resolve_site(graph, base, attr, cls, module)
            graph.add_call(
                CallSite(caller, target, attr, base, path, lineno, col, literal_base)
            )

    def link_registrations(self) -> None:
        graph = self.graph
        for registrar, attr, base, lineno, cls in self.registrations:
            target = _resolve_site(graph, base, attr, cls, self.module)
            if target is None and base is not None:
                candidate = f"{base}.{attr}"
                target = candidate if candidate in graph.functions else None
            if target is not None and target not in graph.callback_roots:
                graph.callback_roots[target] = (self.path, lineno, registrar)


def _resolve_site(
    graph: ProjectGraph,
    base: Optional[str],
    attr: str,
    cls: Optional[str],
    module: str,
) -> Optional[str]:
    """Best-effort project qualname of a callsite's callee."""
    if base is None:
        for candidate in (f"{module}.{attr}", attr):
            if candidate in graph.functions:
                return candidate
        return graph.unique_method(attr)
    if base == "self" or base.startswith("self."):
        if base == "self" and cls is not None:
            candidate = f"{module}.{cls}.{attr}"
            if candidate in graph.functions:
                return candidate
        return graph.unique_method(attr)
    if base.startswith("cls") and cls is not None:
        candidate = f"{module}.{cls}.{attr}"
        if candidate in graph.functions:
            return candidate
    full = f"{base}.{attr}"
    if full in graph.functions:
        return full
    # ``module.Class`` instantiation or lambda-local receiver: fall back
    # to the unique-name heuristic.
    return graph.unique_method(attr)


def build_project(
    sources: Sequence[Tuple[str, ast.Module]],
) -> ProjectGraph:
    """Index ``(path, tree)`` pairs into one :class:`ProjectGraph`."""
    return link_project([FileIndex(str(path), tree) for path, tree in sources])


def link_project(indexes: Sequence[FileIndex]) -> ProjectGraph:
    """Build the :class:`ProjectGraph` of already-indexed files."""
    graph = ProjectGraph()
    linkers: List[_FileLinker] = []
    for index in indexes:
        graph.files[index.path] = index
        linkers.append(_FileLinker(graph, index))
    for linker in linkers:
        linker.link_calls()
    for linker in linkers:
        linker.link_registrations()
    return graph
