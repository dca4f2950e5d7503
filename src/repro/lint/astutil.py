"""Small AST helpers shared by the lint rules.

Nothing here knows about any specific invariant; rules compose these
primitives.  Everything operates on the stdlib :mod:`ast` so the linter
stays zero-dependency and works on every Python the package supports.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Sequence, Tuple, Type

__all__ = [
    "ImportMap",
    "build_parents",
    "dotted",
    "enclosing",
    "enclosing_loop",
    "resolved_call_name",
]

#: Scope boundaries: a loop outside one of these is not "the same loop".
_FUNCTION_NODES: Tuple[Type[ast.AST], ...] = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
)
_LOOP_NODES: Tuple[Type[ast.AST], ...] = (ast.For, ast.AsyncFor, ast.While)


def dotted(node: ast.AST) -> Optional[str]:
    """The dotted source of a pure ``Name``/``Attribute`` chain.

    ``np.random.rand`` -> ``"np.random.rand"``; anything containing a
    call, subscript or literal returns ``None``.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Local name -> fully qualified name, from every import statement.

    ``import numpy as np``          maps ``np``       -> ``numpy``
    ``from random import shuffle``  maps ``shuffle``  -> ``random.shuffle``
    ``from repro import obs``       maps ``obs``      -> ``repro.obs``

    Function-level imports are included: aliasing is lexical, and the
    rules only ever ask "could this name be that module?".
    """

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> str:
        """Expand the first segment of a dotted *name* through the map."""
        head, sep, rest = name.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return name
        return target + sep + rest


def build_parents(tree: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` for every node under *tree*."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def enclosing(
    node: ast.AST,
    parents: Dict[int, ast.AST],
    kinds: Sequence[Type[ast.AST]],
    stop_at: Sequence[Type[ast.AST]] = (),
) -> Optional[ast.AST]:
    """The nearest ancestor of one of *kinds*, or ``None``.

    Walking stops (returning ``None``) at the first ancestor matching
    *stop_at* — used to keep loop lookups inside the current function.
    """
    current = parents.get(id(node))
    while current is not None:
        if isinstance(current, tuple(kinds)):
            return current
        if stop_at and isinstance(current, tuple(stop_at)):
            return None
        current = parents.get(id(current))
    return None


def enclosing_loop(node: ast.AST, parents: Dict[int, ast.AST]) -> Optional[ast.AST]:
    """The nearest ``for``/``while`` ancestor *within the same function*."""
    return enclosing(node, parents, _LOOP_NODES, stop_at=_FUNCTION_NODES)


def resolved_call_name(call: ast.Call, imports: ImportMap) -> Optional[str]:
    """The fully qualified dotted name a call resolves to, if static.

    ``np.random.rand(3)`` with ``import numpy as np`` resolves to
    ``"numpy.random.rand"``; calls of computed expressions return
    ``None``.
    """
    name = dotted(call.func)
    if name is None:
        return None
    return imports.resolve(name)
