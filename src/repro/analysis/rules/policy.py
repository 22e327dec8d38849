"""``policy-shim``: execution knobs enter only through ``resolve_policy``.

:class:`~repro.exec.policy.ExecutionPolicy` is the single funnel for every
execution knob — backend choice, pool shape, cache budgets, arena limits.
Public constructors must not grow loose keyword arguments that shadow those
knobs: a constructor that accepts ``workers=`` but never routes it through
``resolve_policy`` silently forks the configuration surface, and the env-var
overrides (``REPRO_*``) stop applying to it.

The check: any public class in ``repro.*`` whose ``__init__`` takes a
parameter named like a policy knob must call ``resolve_policy`` (or
construct an ``ExecutionPolicy``) inside that ``__init__``.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleContext, Rule, register_rule
from repro.analysis.rules._util import contains_call_to

#: Parameter names that are execution knobs (mirrors ExecutionPolicy fields
#: plus the cache budget knobs resolve_policy distributes).
KNOBS = frozenset(
    {
        "backend",
        "batched",
        "workers",
        "chunk_size",
        "min_parallel_sources",
        "result_arena",
        "arena_budget_bytes",
        "snapshot_store",
        "csr_auto_level_threshold",
        "distance_index",
        "label_budget_bytes",
        "compatible_cache_size",
        "bfs_cache_size",
        "result_cache_size",
        "distance_cache_size",
        "mask_cache_size",
        "cache_size",
    }
)


@register_rule
class PolicyShimRule(Rule):
    id = "policy-shim"
    contract = (
        "public constructors accept execution knobs only via resolve_policy "
        "/ ExecutionPolicy, never as loose keyword arguments they interpret "
        "themselves"
    )

    def check_module(self, ctx: ModuleContext):
        findings: List[Finding] = []
        if not ctx.module.startswith("repro."):
            return findings
        if ctx.module == "repro.exec.policy":
            return findings  # the shim itself
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            init = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            params = [a.arg for a in init.args.args[1:]] + [
                a.arg for a in init.args.kwonlyargs
            ]
            knob_params = sorted(set(params) & KNOBS)
            if not knob_params:
                continue
            if contains_call_to(init, "resolve_policy") or contains_call_to(
                init, "ExecutionPolicy"
            ):
                continue
            findings.append(
                self.finding(
                    ctx,
                    init,
                    f"{node.name}.__init__ accepts execution knob(s) "
                    f"{', '.join(knob_params)} without routing them through "
                    "resolve_policy: knobs interpreted outside the policy "
                    "shim fork the configuration surface and ignore REPRO_* "
                    "env overrides",
                )
            )
        return findings
