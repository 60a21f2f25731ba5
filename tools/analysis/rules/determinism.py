"""``unseeded-random``: every stochastic path flows through ``repro.rng``.

The repo's headline guarantee — bit-identical reproduction, including
checkpoint/resume bit-identity — dies the moment
one code path draws randomness the experiment seed does not control.
This rule forbids, everywhere except the ``repro/rng.py`` chokepoint
(default config allowlist):

- ``import random`` / ``from random import ...``: the stdlib module is
  one hidden global stream, unusable for reproducible work;
- ``np.random.seed(...)``: mutates global numpy state out from under
  every other consumer;
- ``np.random.default_rng(...)`` / ``RandomState(...)`` /
  ``Generator(...)``: direct construction bypasses the
  :func:`repro.rng.ensure_rng` / :func:`repro.rng.spawn_rngs` seam that
  derives every stream from the experiment seed (an *unseeded*
  ``default_rng()`` is worse still — it draws OS entropy);
- legacy global draws (``np.random.rand``, ``np.random.shuffle``, ...).

Only ``ast.Call`` nodes are inspected, so ``np.random.Generator`` in a
type annotation is fine.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.analysis.engine import ModuleContext, Rule
from tools.analysis.findings import Finding

__all__ = ["UnseededRandomRule"]

_STDLIB_MESSAGE = (
    "stdlib 'random' is one hidden global stream — derive seeded numpy"
    " generators via repro.rng instead"
)


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    description = (
        "randomness must flow through repro.rng — no stdlib random,"
        " np.random global state, or direct generator construction"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        numpy_aliases: set[str] = set()  # `import numpy as np` names
        np_random_aliases: set[str] = set()  # `from numpy import random`
        np_random_members: dict[str, str] = {}  # local name -> member
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        numpy_aliases.add("numpy")
                    elif alias.name == "random":
                        findings.append(
                            module.finding(self.id, node.lineno, _STDLIB_MESSAGE)
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    findings.append(
                        module.finding(self.id, node.lineno, _STDLIB_MESSAGE)
                    )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            np_random_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        np_random_members[alias.asname or alias.name] = alias.name
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            member = self._np_random_member(
                node.func, numpy_aliases, np_random_aliases, np_random_members
            )
            if member is None:
                continue
            findings.append(
                module.finding(
                    self.id, node.lineno, self._message(member, node)
                )
            )
        return findings

    @staticmethod
    def _np_random_member(
        func: ast.expr,
        numpy_aliases: set[str],
        np_random_aliases: set[str],
        np_random_members: dict[str, str],
    ) -> str | None:
        """The ``numpy.random`` member a call targets, if any."""
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in numpy_aliases
            ):
                return func.attr  # np.random.X(...)
            if isinstance(base, ast.Name) and base.id in np_random_aliases:
                return func.attr  # random.X(...) via `from numpy import random`
        elif isinstance(func, ast.Name) and func.id in np_random_members:
            return np_random_members[func.id]  # X(...) via `from numpy.random import X`
        return None

    @staticmethod
    def _message(member: str, node: ast.Call) -> str:
        if member == "seed":
            return (
                "np.random.seed() mutates global numpy RNG state — derive"
                " seeded generators via repro.rng instead"
            )
        if member == "default_rng" and not node.args and not node.keywords:
            return (
                "unseeded np.random.default_rng() draws OS entropy — seed"
                " it through repro.rng.ensure_rng"
            )
        if member in ("default_rng", "RandomState", "Generator"):
            return (
                f"direct np.random.{member}(...) — route through"
                " repro.rng.ensure_rng/spawn_rngs so every stream derives"
                " from the experiment seed"
            )
        return (
            f"np.random.{member}() uses the global numpy stream — draw from"
            " a generator obtained via repro.rng instead"
        )
