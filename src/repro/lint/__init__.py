"""``repro.lint`` — the project's own static invariant checker.

Every headline property of this reproduction — bit-identical
predictions, golden-reference purity, bounded observability overhead,
actionable errors — is a *convention* until something checks it.  This
package checks them at CI time, over the stdlib :mod:`ast`, with zero
third-party dependencies:

=========  ==========================================================
PD-DET     no global RNG draws, wall clocks, or set-order iteration
PD-GOLD    golden modules never import the layers tested against them
PD-OBS     spans as context managers, hoisted enabled(), namespaced
           metric names
PD-ERR     repro.errors raises interpolate the failing entity
PD-FLOAT   no ==/!= against float literals
PD-PRAGMA  suppressions name real rules and carry a reason
=========  ==========================================================

Run it as ``pandia lint [paths]`` (default ``src/repro``), suppress a
deliberate exception inline with ``# pandia: lint-ok[RULE-ID] reason``,
and accept pre-existing findings via the committed
``lint-baseline.json`` — only *new* findings fail.  Full catalog and
policy: ``docs/lint.md``.
"""

from repro.lint.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.lint.engine import LintReport, ModuleContext, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, all_rules, register, rule_ids, select_rules
from repro.lint.report import format_json, format_text

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "all_rules",
    "format_json",
    "format_text",
    "register",
    "rule_ids",
    "run_lint",
    "select_rules",
]
