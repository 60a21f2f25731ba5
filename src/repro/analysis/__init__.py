"""Static analysis for the repro codebase: the second enforcement layer.

The package's guarantees — bit-identical reproduction, seeded
determinism through kill/resume, race-free concurrent serving — are
enforced dynamically by the test suite, which must happen to exercise
the offending line.  :mod:`repro.analysis` enforces the same invariants
*statically*: a rule-plugin AST lint that rejects violating code before
it ever runs.

Seven rules ship (see ``repro lint --list-rules``): the three telemetry
rules migrated from ``tools/check_telemetry_hygiene.py`` (``wall-clock``,
``bare-print``, ``raw-sleep``) plus ``unseeded-random`` (all randomness
flows through :mod:`repro.rng`), ``lock-discipline`` (writes to
lock-protected attributes stay under the lock), ``exception-hygiene``
(no bare/swallowing handlers; raises are typed), and ``feature-source``
(protocol implementations carry the full metadata surface).

Run it as ``repro lint [paths] [--rule ID] [--format json]`` or
``python -m repro.analysis``; suppress a single line with
``# repro: lint-ignore[rule-id]`` (unused suppressions are themselves
findings).  ``tests/test_analysis_self.py`` keeps the shipped tree
clean on every tier-1 pass.
"""

from repro.analysis.engine import (
    AnalysisConfig,
    AnalysisReport,
    ModuleContext,
    Project,
    Rule,
    run_analysis,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, DEFAULT_CONFIG, get_rules

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisReport",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleContext",
    "Project",
    "Rule",
    "get_rules",
    "run_analysis",
]
