"""``process-discipline``: process fan-out stays inside ``repro.parallel``.

Multiprocessing primitives carry failure modes the rest of the tree is
not written to survive: orphaned shared-memory segments, zombie
workers, queues whose feeder threads deadlock interpreter shutdown.
The ``repro.parallel`` package centralises all of it — worker-death
detection, deterministic segment sweeps, drain-then-join teardown — so
every other module must go through its decorators and pools rather
than spawning processes ad hoc.

This rule forbids, everywhere except the ``repro/parallel/*``
allowlist:

- constructing ``multiprocessing`` primitives (``Process``, ``Pool``,
  the queue/synchronisation types, ``Manager``, ``get_context``), via
  any import spelling;
- attaching or creating ``multiprocessing.shared_memory`` segments
  (``SharedMemory``, ``ShareableList``);
- ``concurrent.futures.ProcessPoolExecutor`` (a process pool by
  another name) and raw ``os.fork``.

Only ``ast.Call`` nodes are inspected — naming these types in
annotations or docs is fine.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleContext, Rule
from repro.analysis.findings import Finding

__all__ = ["ProcessDisciplineRule"]

#: Constructors of ``multiprocessing`` (and ``multiprocessing.dummy``
#: excluded on purpose: that one is threads).
_MP_MEMBERS = frozenset(
    {
        "Process",
        "Pool",
        "Queue",
        "SimpleQueue",
        "JoinableQueue",
        "Pipe",
        "Manager",
        "Event",
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Barrier",
        "Value",
        "Array",
        "get_context",
    }
)

_SHM_MEMBERS = frozenset({"SharedMemory", "ShareableList"})


class ProcessDisciplineRule(Rule):
    id = "process-discipline"
    description = (
        "multiprocessing primitives (processes, queues, shared memory)"
        " may only be constructed inside repro.parallel"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        mp_aliases: set[str] = set()  # `import multiprocessing as mp`
        shm_aliases: set[str] = set()  # `... import shared_memory as shm`
        futures_aliases: set[str] = set()  # `import concurrent.futures as cf`
        os_aliases: set[str] = set()  # `import os`
        direct: dict[str, str] = {}  # local name -> flagged member
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name, local = alias.name, alias.asname
                    if name == "multiprocessing":
                        mp_aliases.add(local or "multiprocessing")
                    elif name == "multiprocessing.shared_memory":
                        # `import multiprocessing.shared_memory` binds the
                        # top-level package unless aliased.
                        if local is None:
                            mp_aliases.add("multiprocessing")
                        else:
                            shm_aliases.add(local)
                    elif name == "concurrent.futures":
                        if local is None:
                            futures_aliases.add("concurrent")
                        else:
                            futures_aliases.add(local)
                    elif name == "os":
                        os_aliases.add(local or "os")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "multiprocessing":
                    for alias in node.names:
                        if alias.name in _MP_MEMBERS:
                            direct[alias.asname or alias.name] = alias.name
                        elif alias.name == "shared_memory":
                            shm_aliases.add(alias.asname or alias.name)
                elif node.module == "multiprocessing.shared_memory":
                    for alias in node.names:
                        if alias.name in _SHM_MEMBERS:
                            direct[alias.asname or alias.name] = alias.name
                elif node.module == "concurrent.futures":
                    for alias in node.names:
                        if alias.name == "ProcessPoolExecutor":
                            direct[alias.asname or alias.name] = alias.name
                elif node.module == "os":
                    for alias in node.names:
                        if alias.name == "fork":
                            direct[alias.asname or alias.name] = "fork"
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            member = self._flagged_member(
                node.func,
                mp_aliases,
                shm_aliases,
                futures_aliases,
                os_aliases,
                direct,
            )
            if member is None:
                continue
            findings.append(
                module.finding(
                    self.id,
                    node.lineno,
                    f"{member} constructs a multiprocessing primitive —"
                    " process fan-out belongs in repro.parallel (wrap a"
                    " FeatureSource in ProcessPrefetchingSource, or use"
                    " ProcessPredictorPool)",
                )
            )
        return findings

    @staticmethod
    def _flagged_member(
        func: ast.expr,
        mp_aliases: set[str],
        shm_aliases: set[str],
        futures_aliases: set[str],
        os_aliases: set[str],
        direct: dict[str, str],
    ) -> str | None:
        """The forbidden constructor a call targets, if any."""
        if isinstance(func, ast.Name):
            member = direct.get(func.id)
            return None if member is None else f"{member}(...)"
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in mp_aliases and func.attr in _MP_MEMBERS:
                return f"multiprocessing.{func.attr}(...)"
            if base.id in shm_aliases and func.attr in _SHM_MEMBERS:
                return f"shared_memory.{func.attr}(...)"
            if base.id in os_aliases and func.attr == "fork":
                return "os.fork()"
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            root, mid = base.value.id, base.attr
            if (
                root in mp_aliases
                and mid == "shared_memory"
                and func.attr in _SHM_MEMBERS
            ):
                return f"multiprocessing.shared_memory.{func.attr}(...)"
            if (
                root in futures_aliases
                and mid == "futures"
                and func.attr == "ProcessPoolExecutor"
            ):
                return "concurrent.futures.ProcessPoolExecutor(...)"
        if (
            isinstance(base, ast.Name)
            and base.id in futures_aliases
            and func.attr == "ProcessPoolExecutor"
        ):
            return "ProcessPoolExecutor(...)"
        return None
