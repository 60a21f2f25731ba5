"""Telemetry-hygiene rules: clocks, console output and sleeps.

Three rules, all over the AST (comments and strings can mention
whatever they like):

- ``wall-clock``: no ``time.time()``.  Wall clocks drift and step;
  durations must come from ``time.perf_counter``/``time.monotonic``.
- ``bare-print``: no ``print()`` without ``file=``.  Output routes
  through :func:`repro.obs.console.emit`; ``repro/obs/console.py`` is
  the allowlisted chokepoint (benchmarks are exempt by default config —
  they are reporting scripts, not library code).
- ``raw-sleep``: no ``time.sleep()``.  Library threads wait on a
  condition or an event, which a ``notify``/``set`` or ``close`` cuts
  short; a sleep cannot be woken.  The allowlisted sleepers are the
  open-loop load generator's pacing (``repro/serving/benchmark.py``)
  and the test-side fault kit's ``faultkit/backoff.py`` chokepoint.

``from time import time as now`` followed by ``now()`` calls yields
**one** finding — at the import, which is the root cause — with the
alias call lines tagged in the message.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.analysis.engine import ModuleContext, Rule
from tools.analysis.findings import Finding

__all__ = ["BarePrintRule", "RawSleepRule", "WallClockRule"]


def _format_alias_calls(lines: list[int]) -> str:
    if not lines:
        return ""
    noun = "line" if len(lines) == 1 else "lines"
    return f" (called via alias at {noun} {', '.join(str(n) for n in sorted(lines))})"


class _TimeMemberRule(Rule):
    """Shared machinery for the ``time.<member>()`` rules."""

    member = ""
    call_message = ""
    import_message = ""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        imports: dict[str, int] = {}  # local alias -> import lineno
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and node.level == 0
            ):
                for alias in node.names:
                    if alias.name == self.member:
                        imports[alias.asname or alias.name] = node.lineno
        alias_calls: dict[int, list[int]] = {line: [] for line in imports.values()}
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == self.member
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                findings.append(
                    module.finding(self.id, node.lineno, self.call_message)
                )
            elif isinstance(func, ast.Name) and func.id in imports:
                alias_calls[imports[func.id]].append(node.lineno)
        for import_line in sorted(set(imports.values())):
            findings.append(
                module.finding(
                    self.id,
                    import_line,
                    self.import_message + _format_alias_calls(alias_calls[import_line]),
                )
            )
        return findings


class WallClockRule(_TimeMemberRule):
    id = "wall-clock"
    description = (
        "no time.time() in library code — durations use"
        " time.perf_counter/time.monotonic"
    )
    member = "time"
    call_message = (
        "time.time() — use time.perf_counter/time.monotonic for durations"
    )
    import_message = (
        "'from time import time' — use time.perf_counter/time.monotonic"
        " for durations"
    )


class RawSleepRule(_TimeMemberRule):
    id = "raw-sleep"
    description = (
        "no time.sleep() — threads wait on a Condition or Event instead"
    )
    member = "sleep"
    call_message = (
        "time.sleep() — wait on a threading.Condition or Event instead"
    )
    import_message = (
        "'from time import sleep' — wait on a threading.Condition or"
        " Event instead"
    )


class BarePrintRule(Rule):
    id = "bare-print"
    description = (
        "no print() without file= — output routes through"
        " repro.obs.console.emit"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(kw.arg == "file" for kw in node.keywords)
            ):
                findings.append(
                    module.finding(
                        self.id,
                        node.lineno,
                        "bare print() — route output through"
                        " repro.obs.console.emit",
                    )
                )
        return findings
