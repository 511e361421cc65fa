"""GC001: the cyclic garbage collector is switched in one module only.

Whether the collector runs, what its thresholds are and which objects
it skips decide a large share of analysis wall time, and one stray
``gc.disable()`` without a matching restore changes every later stage
in the process. :mod:`repro.gcpolicy` holds the program's one GC policy
as context managers that restore the previous state on exit; every
other module goes through them. Reading the collector's state
(``gc.isenabled``, ``gc.get_threshold``) stays allowed everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register_rule
from repro.lint.rules.determinism import _call_target, _collect_aliases

#: The :mod:`gc` calls that change the collector's state.
_SWITCHES = frozenset({"disable", "enable", "freeze", "unfreeze", "set_threshold"})

#: The one module allowed to make them.
_POLICY_MODULE = "repro.gcpolicy"


@register_rule
class GcPolicyRule(Rule):
    """GC001: no collector switches outside :mod:`repro.gcpolicy`."""

    rule_id = "GC001"
    title = "the cyclic GC is switched only by repro.gcpolicy"
    default_severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == _POLICY_MODULE:
            return
        aliases = _collect_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node, aliases)
            if target is None:
                continue
            module, function = target
            if module == "gc" and function in _SWITCHES:
                yield self.finding(
                    ctx,
                    node,
                    f"gc.{function}() changes the collector outside the one GC "
                    "policy; use a repro.gcpolicy context manager (bounded_build, "
                    "frozen_build, streaming_fold or fork_shared), which restores "
                    "the state on exit",
                )
