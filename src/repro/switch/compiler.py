"""Query-to-dataplane compiler.

The switch data plane is compiled once with all supported algorithms; at
query time the control plane only installs match-action *rules* (10-20
per query, §7.1).  This module models that split:

* :class:`QuerySpec` — the (type, parameters) pair the query planner
  sends to the switch control plane (§3's "(1) query type, (2) query
  parameters").
* :class:`QueryCompiler` — resolves a spec to a pruner instance (built
  by the spec's record in :mod:`repro.switch.operators`), its
  Table 2 resource footprint, and the number of control-plane rules the
  installation needs, validating everything against a switch budget.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.core.base import PruningAlgorithm
from repro.switch.operators import OPERATORS
from repro.switch.resources import ResourceUsage, SwitchModel, TOFINO_MODEL


class CompilationError(Exception):
    """The query spec cannot be realised on the target switch."""


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """What the query planner ships to the switch control plane."""

    query_type: str
    params: tuple = ()

    def params_dict(self) -> Dict[str, Any]:
        """Parameters as a dict (pairs of (name, value))."""
        return dict(self.params)


@dataclasses.dataclass
class CompiledQuery:
    """A resolved query: pruner + resource footprint + rule count."""

    spec: QuerySpec
    pruner: PruningAlgorithm
    resources: ResourceUsage
    control_rules: int

    def describe(self) -> str:
        """Human-readable compilation summary."""
        return (
            f"{self.spec.query_type}: {self.resources.describe()}, "
            f"{self.control_rules} control-plane rules"
        )


def _rules_for(pruner: PruningAlgorithm, base: int = 10) -> int:
    """Control-plane rule estimate: a base dispatch/forwarding set plus a
    few per configured parameter — matching §7.1's 10-20 rules/query."""
    return base + 2 * len(pruner.parameters())


class QueryCompiler:
    """Resolve :class:`QuerySpec` objects against a switch budget."""

    def __init__(self, switch: SwitchModel = TOFINO_MODEL, seed: int = 0):
        self.switch = switch
        self.seed = seed

    def supported_types(self) -> list:
        """Query types the precompiled data plane supports."""
        return sorted(OPERATORS)

    def build(self, spec: QuerySpec) -> PruningAlgorithm:
        """The pruner for ``spec``, before the switch-budget check."""
        operator = OPERATORS.get(spec.query_type)
        if operator is None:
            raise CompilationError(
                f"query type {spec.query_type!r} is not precompiled on the "
                f"switch (supported: {', '.join(self.supported_types())})"
            )
        params = {**operator.defaults, **spec.params_dict()}
        for name in operator.required:
            if name not in params:
                raise CompilationError(
                    f"{operator.name} spec needs a {name!r}")
        return operator.pruner(params, self)

    def compile(self, spec: QuerySpec) -> CompiledQuery:
        """Build the pruner for ``spec`` and validate its footprint."""
        pruner = self.build(spec)
        usage = pruner.resources()
        problems = self.switch.violations(usage)
        if problems:
            raise CompilationError(
                f"{spec.query_type} does not fit switch "
                f"'{self.switch.name}': " + "; ".join(problems)
            )
        return CompiledQuery(spec=spec, pruner=pruner, resources=usage,
                             control_rules=_rules_for(pruner))
