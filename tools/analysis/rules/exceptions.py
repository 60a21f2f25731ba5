"""``exception-hygiene``: failures are typed, routed, or re-raised.

Three checks per module:

- **No bare ``except:``.**  It catches ``SystemExit`` and
  ``KeyboardInterrupt``; name the exceptions (``except Exception`` at
  the broadest) so shutdown still works.
- **Broad handlers must do something with the error.**  An
  ``except Exception``/``except BaseException`` body that neither
  re-raises, emits through :mod:`repro.obs`, nor touches a
  :mod:`repro.errors` type is a swallowed failure — the class of bug
  that turns a corrupt shard into a silently-wrong experiment.
- **Raised types are catchable.**  A ``raise SomeName(...)`` must name
  a builtin exception, a :mod:`repro.errors` type, or a local subclass
  of one — so ``except ReproError`` at a layer boundary is a real
  contract.  Lowercase names (``raise error``) are re-raises of caught
  objects and are left alone, as are dotted names the lint cannot
  resolve.

Handlers that intentionally *transport* an exception (a worker thread
parking the error on a queue for the consumer to re-raise) are exactly
what ``# repro: lint-ignore[exception-hygiene]`` with a justifying
comment is for.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from tools.analysis.engine import ModuleContext, Rule
from tools.analysis.findings import Finding

__all__ = ["ExceptionHygieneRule"]

_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

_BROAD = ("Exception", "BaseException")


class ExceptionHygieneRule(Rule):
    id = "exception-hygiene"
    description = (
        "no bare except, broad handlers must re-raise or route through"
        " repro.errors/repro.obs, and raised types must be repro.errors"
        " or stdlib exceptions"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        allowed, error_names, error_module_aliases = _allowed_names(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                findings.extend(
                    self._check_handler(module, node, error_names, error_module_aliases)
                )
            elif isinstance(node, ast.Raise):
                findings.extend(
                    self._check_raise(module, node, allowed, error_module_aliases)
                )
        return findings

    def _check_handler(
        self,
        module: ModuleContext,
        node: ast.ExceptHandler,
        error_names: set[str],
        error_module_aliases: set[str],
    ) -> Iterable[Finding]:
        if node.type is None:
            yield module.finding(
                self.id,
                node.lineno,
                "bare 'except:' also catches SystemExit/KeyboardInterrupt —"
                " name the exceptions (at broadest, 'except Exception')",
            )
            return
        caught = _caught_names(node.type)
        broad = next((name for name in caught if name in _BROAD), None)
        if broad is None:
            return
        if _handler_routes_error(node, error_names, error_module_aliases):
            return
        yield module.finding(
            self.id,
            node.lineno,
            f"'except {broad}' neither re-raises nor routes the error"
            " through repro.errors/repro.obs — swallowed failures hide"
            " real bugs",
        )

    def _check_raise(
        self,
        module: ModuleContext,
        node: ast.Raise,
        allowed: set[str],
        error_module_aliases: set[str],
    ) -> Iterable[Finding]:
        if node.exc is None:
            return  # bare re-raise
        callee = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(callee, ast.Attribute):
            # errors.X(...) through a repro.errors alias is fine; other
            # dotted names are unresolvable statically — leave them be.
            return
        if not isinstance(callee, ast.Name):
            return
        name = callee.id
        if name in allowed or not name[:1].isupper():
            return  # known-good type, or a variable holding an exception
        yield module.finding(
            self.id,
            node.lineno,
            f"raise of unknown type {name!r} — raise a repro.errors type"
            " (or a stdlib exception subclass) so callers can catch"
            " ReproError at layer boundaries",
        )


def _allowed_names(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(raisable names, repro.errors-ish names, repro.errors module aliases).

    Raisable = builtins + names imported from ``repro.errors`` + local
    classes whose base chain reaches one of those (resolved to a
    fixpoint, so ``class B(A)`` after ``class A(ReproError)`` counts).
    """
    allowed = set(_BUILTIN_EXCEPTIONS)
    error_names: set[str] = set()
    module_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro.errors":
                for alias in node.names:
                    local = alias.asname or alias.name
                    allowed.add(local)
                    error_names.add(local)
            elif node.module == "repro":
                for alias in node.names:
                    if alias.name == "errors":
                        module_aliases.add(alias.asname or "errors")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.errors" and alias.asname:
                    module_aliases.add(alias.asname)
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in allowed:
                continue
            for base in cls.bases:
                base_ok = (
                    isinstance(base, ast.Name) and base.id in allowed
                ) or (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in module_aliases
                )
                if base_ok:
                    allowed.add(cls.name)
                    if not (isinstance(base, ast.Name) and base.id in _BUILTIN_EXCEPTIONS):
                        error_names.add(cls.name)
                    changed = True
                    break
    return allowed, error_names, module_aliases


def _caught_names(expr: ast.expr) -> list[str]:
    if isinstance(expr, ast.Tuple):
        names: list[str] = []
        for element in expr.elts:
            names.extend(_caught_names(element))
        return names
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Attribute):
        return [expr.attr]
    return []


def _handler_routes_error(
    node: ast.ExceptHandler,
    error_names: set[str],
    error_module_aliases: set[str],
) -> bool:
    """Whether a broad handler re-raises or routes through repro seams."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            callee = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            # Routing through the observability layer: console emit, a
            # metrics counter, or a span recording the failure.
            if callee in ("emit", "inc", "record_exception"):
                return True
        if isinstance(sub, ast.Name) and sub.id in error_names:
            return True
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in error_module_aliases:
                return True
    return False
