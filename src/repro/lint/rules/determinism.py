"""PD-DET — predictions must be bit-identical across runs and seeds.

The reproduction's headline invariant (pinned dynamically by
``tests/search/test_golden_equivalence.py``) is that every prediction
is a pure function of its inputs.  Three
statically visible ways to break that:

* drawing from a **global RNG** (``random.random()``,
  ``np.random.rand()``) instead of a seeded ``random.Random(seed)`` /
  ``np.random.default_rng(seed)`` instance;
* reading the **wall clock** with ``time.time()`` in library code —
  intervals belong to ``time.perf_counter()`` (benchmarks live outside
  ``src/repro`` and may keep wall-clock timestamps);
* **iterating a set** in order-sensitive position: set order depends on
  ``PYTHONHASHSEED``, so anything it feeds — canonical keys, persisted
  JSON, report rows — changes between interpreter launches.  Iteration
  folded through an order-insensitive reducer (``sum``/``min``/``max``/
  ``any``/``all``/``len``/``sorted``/``set``) is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.astutil import ImportMap, resolved_call_name
from repro.lint.registry import LintRule, register

#: Constructors that are fine *when seeded*: a call with no arguments
#: seeds from the OS and is flagged.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.RandomState",
    "numpy.random.default_rng",
}

#: Attributes of the seeded-generator APIs that never touch global state.
_RNG_SAFE_TAILS = {"Random", "SystemRandom", "RandomState", "default_rng",
                   "Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: Reducers whose result does not depend on iteration order.
_ORDER_FREE_REDUCERS = {"sum", "min", "max", "any", "all", "len", "set",
                        "frozenset", "sorted"}

#: Sequence builders that freeze a (nondeterministic) set order.
_ORDER_SENSITIVE_BUILDERS = {"list", "tuple", "enumerate"}


def _is_set_expr(node: ast.AST, imports: ImportMap) -> bool:
    """Is *node* statically known to evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = resolved_call_name(node, imports)
        return name in ("set", "frozenset")
    return False


@register
class DeterminismRule(LintRule):
    rule_id = "PD-DET"
    severity = "error"
    summary = (
        "no global RNG draws, wall-clock timing, or order-sensitive set "
        "iteration in library code"
    )

    def check(self, ctx) -> Iterator:
        imports = ctx.imports
        exempt_iters: Set[int] = set()
        # Pre-pass: mark set iterations consumed by order-free reducers
        # (``max(f(p) for p in {…})`` is deterministic).
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = resolved_call_name(node, imports)
                if name in _ORDER_FREE_REDUCERS:
                    for arg in node.args:
                        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                            for comp in arg.generators:
                                exempt_iters.add(id(comp.iter))
                        elif _is_set_expr(arg, imports):
                            exempt_iters.add(id(arg))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports, exempt_iters)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if (
                    _is_set_expr(node.iter, imports)
                    and id(node.iter) not in exempt_iters
                ):
                    yield self._set_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if (
                        _is_set_expr(comp.iter, imports)
                        and id(comp.iter) not in exempt_iters
                        and id(node) not in exempt_iters
                    ):
                        yield self._set_iteration(ctx, comp.iter)

    # -- sub-checks -------------------------------------------------------

    def _check_call(self, ctx, call: ast.Call, imports: ImportMap,
                    exempt_iters: Set[int]) -> Iterator:
        name = resolved_call_name(call, imports)
        if name is None:
            # ``", ".join(set_expr)`` has a non-static receiver; the
            # attribute name is still enough to check the argument.
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "join"
                and call.args
                and _is_set_expr(call.args[0], imports)
            ):
                yield self.finding(
                    ctx, call,
                    "str.join over a set freezes nondeterministic hash order",
                    suggestion="join over sorted(...) instead",
                )
            return
        if name == "time.time":
            yield self.finding(
                ctx, call,
                "time.time() is wall-clock and nondeterministic; library "
                "code times intervals with time.perf_counter()",
                suggestion="use time.perf_counter()",
            )
            return
        if name in _SEEDED_CONSTRUCTORS:
            if not call.args and not call.keywords:
                yield self.finding(
                    ctx, call,
                    f"{name}() without a seed draws entropy from the OS; "
                    "every RNG in this codebase takes an explicit seed",
                    suggestion=f"pass a seed: {name}(seed)",
                )
            return
        if self._is_global_rng(name):
            yield self.finding(
                ctx, call,
                f"{name}() draws from the process-global RNG, so results "
                "depend on interpreter-wide state",
                suggestion="use a seeded random.Random(seed) / "
                "numpy.random.default_rng(seed) instance",
            )
            return
        if name in _ORDER_SENSITIVE_BUILDERS and call.args and _is_set_expr(
            call.args[0], imports
        ):
            yield self._set_iteration(ctx, call)

    @staticmethod
    def _is_global_rng(name: str) -> bool:
        for module in ("random", "numpy.random"):
            prefix = module + "."
            if name.startswith(prefix):
                tail = name[len(prefix):]
                if "." not in tail and tail not in _RNG_SAFE_TAILS:
                    return True
        return False

    def _set_iteration(self, ctx, node: ast.AST):
        return self.finding(
            ctx, node,
            "iteration order over a set depends on PYTHONHASHSEED; "
            "anything it feeds (canonical keys, persisted JSON, report "
            "rows) changes across runs",
            suggestion="iterate sorted(...) instead",
        )
