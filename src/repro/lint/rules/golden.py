"""PD-GOLD — golden reference modules stay dependency-pure.

The fixed-point kernel (``repro.core.predictor``) and the serial ranker
(``rank_placements_serial`` in ``repro.core.optimizer``) are the golden
references every newer layer — the search cache, the surrogate
pre-filter, the prediction store — is equivalence-tested against; the
kernel itself answers to the plain-Python oracle in
``tests/reference_kernel.py``.  The moment a golden module imports one
of those layers the reference stops being independent and the
equivalence tests test a layer against itself.

The check covers *every* import in the module, including lazy
function-level ones, and resolves relative imports against the
module's own package — hiding ``from repro import surrogate`` inside a
helper does not evade it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.registry import LintRule, register

#: Golden module -> layers it must never import.  The forbidden set is
#: deliberately per-module so future golden references can carry their
#: own exclusions.
GOLDEN_MODULES: Dict[str, Tuple[str, ...]] = {
    "repro.core.predictor": ("repro.surrogate", "repro.search.cache", "repro.io"),
    "repro.core.optimizer": ("repro.surrogate", "repro.search.cache", "repro.io"),
}


def _absolute_module(node: ast.ImportFrom, package_parts: List[str]) -> str:
    """Resolve a possibly relative ``from … import`` to an absolute module."""
    if not node.level:
        return node.module or ""
    # level=1 is the module's own package; each extra level climbs one.
    base = package_parts[: len(package_parts) - (node.level - 1)]
    if node.module:
        base = base + [node.module]
    return ".".join(base)


def _violates(module: str, forbidden: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in forbidden
    )


@register
class GoldenPurityRule(LintRule):
    rule_id = "PD-GOLD"
    severity = "error"
    summary = (
        "golden reference modules must not import the layers that are "
        "equivalence-tested against them"
    )

    def check(self, ctx) -> Iterator:
        forbidden = GOLDEN_MODULES.get(ctx.module_name)
        if forbidden is None:
            return
        package_parts = ctx.module_name.split(".")[:-1]
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _violates(alias.name, forbidden):
                        yield self._import_finding(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = _absolute_module(node, package_parts)
                if _violates(module, forbidden):
                    yield self._import_finding(ctx, node, module)
                    continue
                # ``from repro import surrogate`` imports the submodule
                # even though the ImportFrom module is just ``repro``.
                for alias in node.names:
                    candidate = f"{module}.{alias.name}" if module else alias.name
                    if _violates(candidate, forbidden):
                        yield self._import_finding(ctx, node, candidate)

    def _import_finding(self, ctx, node: ast.AST, module: str):
        return self.finding(
            ctx, node,
            f"golden module {ctx.module_name} imports {module}; the golden "
            "path must stay independent of the layers equivalence-tested "
            "against it",
            suggestion="move the dependency to the non-golden caller",
        )
