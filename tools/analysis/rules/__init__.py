"""The rule registry: every analyzer the lint ships, plus the default
per-rule allowlists naming the sanctioned chokepoint modules.

Adding a rule is: write a :class:`~tools.analysis.engine.Rule` subclass
in a module here, append an instance to :data:`ALL_RULES`, give it a
fixture test in ``tests/test_analysis_rules.py``.  Rule ids are stable
API — suppression comments and ``--rule`` flags reference them.
"""

from __future__ import annotations

from typing import Sequence

from tools.analysis.engine import AnalysisConfig, Rule, StaticAnalysisError
from tools.analysis.rules.determinism import UnseededRandomRule
from tools.analysis.rules.exceptions import ExceptionHygieneRule
from tools.analysis.rules.hygiene import BarePrintRule, RawSleepRule, WallClockRule
from tools.analysis.rules.locks import LockDisciplineRule
from tools.analysis.rules.protocol import FeatureSourceRule

__all__ = ["ALL_RULES", "DEFAULT_CONFIG", "get_rules"]

#: Every shipped rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    BarePrintRule(),
    RawSleepRule(),
    UnseededRandomRule(),
    LockDisciplineRule(),
    ExceptionHygieneRule(),
    FeatureSourceRule(),
)

#: The sanctioned chokepoints.  Patterns match the end of the scanned
#: path, so they hold whether the scan root is ``src``, ``src/repro``,
#: or the repo root.  Benchmarks are exempt from ``bare-print`` —
#: they are human-facing reporting scripts, not library code.  The
#: library's one sleeper is the open-loop load generator's pacing; the
#: test-side fault kit sleeps for retry backoff and slow shards.
DEFAULT_CONFIG = AnalysisConfig(
    allowlists={
        "bare-print": ("repro/obs/console.py", "benchmarks/*"),
        "raw-sleep": ("repro/serving/benchmark.py", "faultkit/backoff.py"),
        "unseeded-random": ("repro/rng.py",),
    }
)


def get_rules(ids: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """Resolve ``--rule`` selections against the registry.

    ``None``/empty selects every rule; unknown ids raise
    :class:`~tools.analysis.engine.StaticAnalysisError`.
    """
    if not ids:
        return ALL_RULES
    by_id = {rule.id: rule for rule in ALL_RULES}
    unknown = [rule_id for rule_id in ids if rule_id not in by_id]
    if unknown:
        # StaticAnalysisError is the engine's ReproError subclass.
        raise StaticAnalysisError(  # repro: lint-ignore[exception-hygiene]
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
            f" (known: {', '.join(sorted(by_id))})"
        )
    return tuple(by_id[rule_id] for rule_id in dict.fromkeys(ids))
