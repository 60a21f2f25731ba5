"""``feature-source``: classes claiming the protocol carry full metadata.

Every consumer of :class:`repro.data.FeatureSource` — trainers,
scorers, the serving encode path — assumes the five-member metadata
surface (``feature_names``, ``n_levels``, ``n_rows``, ``n_shards``,
``n_classes``) is present alongside ``iter_shards``.  Python's duck
typing defers that check to whichever attribute access happens to run
first, often deep inside an epoch loop; this rule makes it static.

A class *claims* the protocol when it defines ``iter_shards``, or names
``FeatureSource``/``SourceDecorator`` (or any class that itself claims)
among its bases.  A claiming class must then provide all five members
**somewhere statically visible**: its own body (methods, properties,
class-level or ``self.x = ...`` assignments) or a base class resolvable
by simple name anywhere in the scanned tree — decorators inherit the
delegating properties from ``SourceDecorator``, so only genuinely
missing surface is flagged.

Protocol-definition classes (any required member is declaration-only —
a bare annotation or a ``raise NotImplementedError`` body) are skipped:
they *are* the contract, not an implementation of it.  Shard-level
containers below the feature layer that happen to expose an
``iter_shards`` of raw shards are the legitimate use of
``# repro: lint-ignore[feature-source]`` with a justifying comment.
"""

from __future__ import annotations

from typing import Iterable

from tools.analysis.engine import ClassInfo, Project, Rule
from tools.analysis.findings import Finding

__all__ = ["FeatureSourceRule", "REQUIRED_MEMBERS"]

REQUIRED_MEMBERS = (
    "feature_names",
    "n_levels",
    "n_rows",
    "n_shards",
    "n_classes",
)

_PROTOCOL_BASES = frozenset({"FeatureSource", "SourceDecorator"})
_CONCRETE_KINDS = frozenset({"def", "property", "assign"})


class FeatureSourceRule(Rule):
    id = "feature-source"
    description = (
        "classes claiming the FeatureSource protocol (iter_shards /"
        " source bases) must statically define feature_names, n_levels,"
        " n_rows, n_shards, n_classes"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        claims_cache: dict[int, bool] = {}
        findings: list[Finding] = []
        for info in project.iter_classes():
            if not self._claims(project, info, claims_cache, set()):
                continue
            if any(
                info.members.get(member) in ("annotation", "abstract")
                for member in REQUIRED_MEMBERS
            ):
                continue  # protocol definition, not an implementation
            missing = [
                member
                for member in REQUIRED_MEMBERS
                if not self._provides(project, info, member, set())
            ]
            if missing:
                findings.append(
                    info.module.finding(
                        self.id,
                        info.lineno,
                        f"class {info.name!r} claims the FeatureSource"
                        " protocol but does not statically define:"
                        f" {', '.join(missing)}",
                    )
                )
        return findings

    def _claims(
        self,
        project: Project,
        info: ClassInfo,
        cache: dict[int, bool],
        visiting: set[int],
    ) -> bool:
        key = id(info.node)
        if key in cache:
            return cache[key]
        if key in visiting:
            return False
        visiting.add(key)
        result = "iter_shards" in info.members
        if not result:
            for base in info.bases:
                if base in _PROTOCOL_BASES:
                    result = True
                    break
                base_info = project.resolve_class(base)
                if base_info is not None and self._claims(
                    project, base_info, cache, visiting
                ):
                    result = True
                    break
        cache[key] = result
        return result

    def _provides(
        self,
        project: Project,
        info: ClassInfo,
        member: str,
        visiting: set[int],
    ) -> bool:
        key = id(info.node)
        if key in visiting:
            return False
        visiting.add(key)
        if info.members.get(member) in _CONCRETE_KINDS:
            return True
        for base in info.bases:
            base_info = project.resolve_class(base)
            if base_info is not None and self._provides(
                project, base_info, member, visiting
            ):
                return True
        return False
