"""``lock-discipline``: writes to lock-protected attributes stay locked.

For every class that assigns a ``threading.Lock``/``RLock``/
``Condition`` to a ``self`` attribute, the rule infers the set of
instance attributes the class itself treats as lock-protected — those
written at least once while the lock is held — and flags any *other*
write (plain assignment, ``+=`` read-modify-write, or subscript store
like ``self._queue[k] = v``) to the same attribute performed without
that lock.  This is self-calibrating: a class with no locked writes has
no protected set and is never flagged, so single-threaded code costs
nothing.

"Holding the lock" is recognised in the three forms the codebase
actually uses:

- ``with self._lock:`` blocks (including multi-item ``with``);
- paired ``lock.acquire()`` ... ``lock.release()`` regions over
  ``self._lock`` or a local alias (``lock = self._lock``) — the
  hot-path idiom in :mod:`repro.obs.metrics`, where a ``with`` frame
  is measurable overhead;
- ``threading.Condition(self._lock)`` shares its lock with the
  attribute it wraps (one lock *group*), so waiting/notifying through
  the condition and mutating under the raw lock are the same
  discipline — the :class:`~repro.serving.MicroBatcher` wakeup
  pattern.

Two conventional exemptions keep the rule honest about intent:
``__init__`` (construction precedes sharing) and methods named
``*_locked`` (the suffix is the codebase's documented "caller holds the
lock" contract, e.g. ``MicroBatcher._take_locked``).  Writes inside
nested ``def``/``lambda`` bodies are analysed as unlocked — a closure
runs later, when the enclosing ``with`` is long gone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from tools.analysis.engine import ModuleContext, Rule
from tools.analysis.findings import Finding

__all__ = ["LockDisciplineRule"]

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


@dataclass
class _WriteEvent:
    attr: str
    lineno: int
    method: str
    held: frozenset[str]  # lock groups held at the write


@dataclass
class _ClassLocks:
    """Union-find over lock attribute names (Condition aliasing)."""

    parent: dict[str, str] = field(default_factory=dict)

    def add(self, name: str) -> None:
        self.parent.setdefault(name, name)

    def find(self, name: str) -> str:
        root = name
        while self.parent[root] != root:
            root = self.parent[root]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        self.parent[self.find(a)] = self.find(b)

    def __contains__(self, name: str) -> bool:
        return name in self.parent

    def names(self) -> Iterable[str]:
        return self.parent.keys()


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "attributes written under a class's lock must always be written"
        " under it — flags unlocked writes/increments to lock-protected"
        " state"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleContext, node: ast.ClassDef
    ) -> Iterator[Finding]:
        locks = _find_locks(node)
        if not locks.parent:
            return
        events: list[_WriteEvent] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                collector = _MethodWalker(stmt.name, locks)
                collector.walk_body(stmt.body, frozenset())
                events.extend(collector.events)
        # Protected set: attr -> (group -> first locked write line).
        protected: dict[str, dict[str, int]] = {}
        for event in events:
            for group in event.held:
                protected.setdefault(event.attr, {}).setdefault(
                    group, event.lineno
                )
        group_locks: dict[str, list[str]] = {}
        for name in locks.names():
            group_locks.setdefault(locks.find(name), []).append(name)
        for event in events:
            if event.method == "__init__" or event.method.endswith("_locked"):
                continue
            groups = protected.get(event.attr)
            if not groups:
                continue
            missing = [g for g in groups if g not in event.held]
            if len(missing) < len(groups):
                continue  # held at least one lock that protects this attr
            lock_names = sorted(
                "self." + name
                for group in missing
                for name in group_locks.get(group, ())
            )
            example = min(groups[g] for g in missing)
            yield module.finding(
                self.id,
                event.lineno,
                f"'self.{event.attr}' is written under {'/'.join(lock_names)}"
                f" (e.g. line {example}) but written here without holding"
                " it — concurrent callers can interleave and lose updates",
            )


def _find_locks(node: ast.ClassDef) -> _ClassLocks:
    """Lock attributes the class assigns, grouped by shared underlying lock."""
    locks = _ClassLocks()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
            continue
        factory = _lock_factory_name(sub.value.func)
        if factory is None:
            continue
        for target in sub.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            locks.add(attr)
            if factory == "Condition" and sub.value.args:
                wrapped = _self_attr(sub.value.args[0])
                if wrapped is not None:
                    locks.union(attr, wrapped)
    return locks


def _lock_factory_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
        if isinstance(func.value, ast.Name) and func.value.id == "threading":
            return func.attr
    if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        return func.id
    return None


def _self_attr(expr: ast.expr) -> str | None:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


class _MethodWalker:
    """Statement-ordered walk of one method tracking held lock groups."""

    def __init__(self, method: str, locks: _ClassLocks) -> None:
        self.method = method
        self.locks = locks
        self.aliases: dict[str, str] = {}  # local name -> lock attr
        self.events: list[_WriteEvent] = []

    def walk_body(self, body: list[ast.stmt], held: frozenset[str]) -> None:
        for stmt in body:
            held = self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: frozenset[str]) -> frozenset[str]:
        """Process one statement; returns the held-set for what follows."""
        if isinstance(stmt, ast.Assign):
            self._record_writes(stmt.targets, stmt.lineno, held)
            # Track `lock = self._lock` local aliases for acquire/release.
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                attr = _self_attr(stmt.value)
                if attr is not None and attr in self.locks:
                    self.aliases[stmt.targets[0].id] = attr
            return held
        if isinstance(stmt, ast.AugAssign):
            self._record_writes([stmt.target], stmt.lineno, held)
            return held
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._record_writes([stmt.target], stmt.lineno, held)
            return held
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            group, op = self._acquire_release(stmt.value)
            if op == "acquire":
                return held | {group}
            if op == "release":
                return held - {group}
            return held
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                group = self._lock_group(item.context_expr)
                if group is not None:
                    inner.add(group)
            self.walk_body(stmt.body, frozenset(inner))
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later: analyse its body as unlocked.
            self.walk_body(stmt.body, frozenset())
            return held
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_body(handler.body, held)
            self.walk_body(stmt.orelse, held)
            self.walk_body(stmt.finalbody, held)
            return held
        if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.ClassDef):
            return held
        return held

    def _record_writes(
        self, targets: list[ast.expr], lineno: int, held: frozenset[str]
    ) -> None:
        for target in targets:
            for attr in _written_attrs(target):
                self.events.append(
                    _WriteEvent(attr=attr, lineno=lineno, method=self.method, held=held)
                )

    def _lock_group(self, expr: ast.expr) -> str | None:
        attr = _self_attr(expr)
        if attr is None and isinstance(expr, ast.Name):
            attr = self.aliases.get(expr.id)
        if attr is not None and attr in self.locks:
            return self.locks.find(attr)
        return None

    def _acquire_release(self, call: ast.Call) -> tuple[str | None, str | None]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            group = self._lock_group(func.value)
            if group is not None:
                return group, func.attr
        return None, None


def _written_attrs(target: ast.expr) -> Iterator[str]:
    """Instance attributes a store target mutates (``self.x``, ``self.x[k]``)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_attrs(element)
    elif isinstance(target, ast.Starred):
        yield from _written_attrs(target.value)
    elif isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None:
            yield attr
    else:
        attr = _self_attr(target)
        if attr is not None:
            yield attr
