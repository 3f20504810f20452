"""One traversal per file: the node tables every lint rule reads.

``ast.parse`` is the one parse of a file and :class:`FileIndex` is its
one traversal.  Rules never walk the tree themselves:

* the DS1xx determinism rules read the node lists (imports, names,
  calls, iteration sites, function definitions);
* the DS2xx call graph (:mod:`repro.sanitize.syncgraph.callgraph`)
  reads the scope-tagged facts: the enclosing class and function of
  every definition, call and attribute write, and the local aliases
  bound when each call runs.

Nothing here resolves a name.  Import aliases depend on every import
in the file, so the call graph resolves the recorded facts after the
traversal, once the imports are known.  Qualnames are relative to the
module (``Cls.meth``, ``func.<lambda:12>``), so the index does not
depend on where the file sits on disk.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

__all__ = ["FileIndex"]

#: ``(call, enclosing class, enclosing function, local aliases)``.  The
#: alias map binds a local name to the Name/Attribute chain it was
#: assigned (``f = self.backend.flush_instance``).
CallScope = Tuple[ast.Call, Optional[str], Optional[str], Dict[str, ast.AST]]

#: Per node class, the fields that can hold child nodes.  ``ctx`` only
#: ever holds a Load/Store/Del marker, which no rule reads.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    kind: tuple(name for name in kind._fields if name != "ctx")
    for kind in vars(ast).values()
    if isinstance(kind, type) and issubclass(kind, ast.AST)
}


def _rooted(node: ast.AST) -> bool:
    """Whether an Attribute chain ends in a Name (``a.b.c``, not ``f().c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


class FileIndex:
    """Everything the lint rules read from one file's tree.

    Node lists keep source (depth-first) order, except :attr:`imports`,
    which keeps :func:`ast.walk` order so that of two imports binding
    the same name, the one a breadth-first walk meets last wins.
    """

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        #: Attribute and Name nodes.
        self.names: List[ast.expr] = []
        self.calls: List[ast.Call] = []
        #: For/AsyncFor loops and comprehensions.
        self.loops: List[ast.AST] = []
        #: FunctionDef, AsyncFunctionDef and Lambda nodes.
        self.functions: List[ast.AST] = []
        #: ``(qualname, name, class, lineno, parent qualname)`` of every
        #: function and lambda.
        self.defs: List[Tuple[str, str, Optional[str], int, Optional[str]]] = []
        self.call_scopes: List[CallScope] = []
        #: ``(target, enclosing class)`` of every assigned attribute.
        self.writes: List[Tuple[ast.Attribute, Optional[str]]] = []
        self._cls: Optional[str] = None
        self._func: Optional[str] = None
        self._locals: Dict[str, ast.AST] = {}
        self._imports: List[Tuple[int, ast.stmt]] = []
        self._visit(tree, 0)
        # A stable sort by depth turns depth-first order into ast.walk's
        # breadth-first order.
        self.imports: List[ast.stmt] = [
            node for _, node in sorted(self._imports, key=lambda item: item[0])
        ]
        del self._imports

    # -- traversal -----------------------------------------------------

    def _visit(self, node: ast.AST, depth: int) -> None:
        handler = _HANDLERS.get(node.__class__)
        if handler is None:
            self._children(node, depth)
        else:
            handler(self, node, depth)

    def _children(self, node: ast.AST, depth: int) -> None:
        depth += 1
        visit = self._visit
        kind = node.__class__
        for name in _CHILD_FIELDS.get(kind, kind._fields):
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        visit(item, depth)
            elif isinstance(value, ast.AST):
                visit(value, depth)

    def _name(self, node: ast.Name, depth: int) -> None:
        self.names.append(node)

    def _attribute(self, node: ast.Attribute, depth: int) -> None:
        self.names.append(node)
        self._visit(node.value, depth + 1)  # the only child node

    def _call(self, node: ast.Call, depth: int) -> None:
        self.calls.append(node)
        self.call_scopes.append((node, self._cls, self._func, self._locals))
        self._children(node, depth)

    def _loop(self, node: ast.AST, depth: int) -> None:
        self.loops.append(node)
        self._children(node, depth)

    def _import(self, node: ast.stmt, depth: int) -> None:
        # Children are ``alias`` records: names only, nothing to index.
        self._imports.append((depth, node))

    def _class(self, node: ast.ClassDef, depth: int) -> None:
        outer = self._cls
        self._cls = node.name
        self._children(node, depth)
        self._cls = outer

    def _function(self, node: ast.AST, depth: int) -> None:
        self.functions.append(node)
        name = getattr(node, "name", None) or f"<lambda:{node.lineno}>"
        outer, outer_locals = self._func, self._locals
        if outer is not None:
            qualname = f"{outer}.{name}"
        elif self._cls is not None:
            qualname = f"{self._cls}.{name}"
        else:
            qualname = name
        self.defs.append((qualname, name, self._cls, node.lineno, outer))
        self._func = qualname
        self._children(node, depth)
        self._func, self._locals = outer, outer_locals

    def _assign(self, node: ast.Assign, depth: int) -> None:
        targets = node.targets
        if (
            self._func is not None
            and len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(node.value, (ast.Attribute, ast.Name))
            and _rooted(node.value)
        ):
            # Copy on write: recorded call scopes keep the map they saw.
            self._locals = {**self._locals, targets[0].id: node.value}
        for target in targets:
            if isinstance(target, ast.Attribute):
                self.writes.append((target, self._cls))
        self._children(node, depth)

    def _aug_assign(self, node: ast.AugAssign, depth: int) -> None:
        if isinstance(node.target, ast.Attribute):
            self.writes.append((node.target, self._cls))
        self._children(node, depth)


_HANDLERS = {
    ast.Name: FileIndex._name,
    ast.Attribute: FileIndex._attribute,
    ast.Call: FileIndex._call,
    ast.Import: FileIndex._import,
    ast.ImportFrom: FileIndex._import,
    ast.ClassDef: FileIndex._class,
    ast.FunctionDef: FileIndex._function,
    ast.AsyncFunctionDef: FileIndex._function,
    ast.Lambda: FileIndex._function,
    ast.Assign: FileIndex._assign,
    ast.AugAssign: FileIndex._aug_assign,
    **dict.fromkeys(
        (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp),
        FileIndex._loop,
    ),
}
