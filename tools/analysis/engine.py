"""The rule-plugin analysis engine behind ``python -m tools.analysis``.

The engine owns everything that is *not* rule-specific:

- **File discovery and parsing.**  Targets may be files or directories;
  directories are walked for ``*.py``.  A file that cannot be read,
  decoded, or parsed is reported as a ``parse-error`` finding and the
  scan continues — a broken file must never take the linter down with
  it.
- **The two rule passes.**  :meth:`Rule.check_module` runs once per
  parsed file with a :class:`ModuleContext`; :meth:`Rule.check_project`
  runs once per analysis with a :class:`Project` symbol table of every
  class seen across all files — the hook cross-class rules (protocol
  conformance) need.
- **Allowlists.**  :class:`AnalysisConfig` maps rule ids to path
  patterns (``fnmatch`` over posix paths) that are exempt wholesale —
  the sanctioned chokepoints: ``repro/obs/console.py`` may print,
  ``repro/rng.py`` may construct generators.
- **Inline suppressions.**  ``# repro: lint-ignore[rule-id]`` on (or
  immediately above) a line silences exactly that line for exactly that
  rule.  Unknown rule ids and suppressions that silenced nothing are
  themselves findings (rule id ``lint-ignore``) — dead suppressions rot
  into false documentation otherwise.

Rules never raise for bad *target* code; they return findings.  Usage
errors (unknown rule id, missing path) raise
:class:`StaticAnalysisError`, which the CLI maps to exit 2.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ReproError
from tools.analysis.findings import Finding

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "ClassInfo",
    "ModuleContext",
    "PARSE_RULE_ID",
    "Project",
    "Rule",
    "SUPPRESS_RULE_ID",
    "StaticAnalysisError",
    "Suppression",
    "class_members",
    "is_abstract_body",
    "iter_python_files",
    "run_analysis",
]

#: Rule id under which unreadable/unparseable files are reported.
PARSE_RULE_ID = "parse-error"

#: Rule id under which bad suppressions (unknown id, unused) are reported.
SUPPRESS_RULE_ID = "lint-ignore"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ignore\[([^\]]*)\]")


class StaticAnalysisError(ReproError):
    """A lint run could not be configured or executed.

    Raised for usage errors — unknown rule ids passed to ``--rule``,
    lint targets that do not exist — as opposed to *findings*, which are
    reported data, not exceptions.  The CLI maps this to exit code 2
    (findings exit 1, a clean tree exits 0).
    """


class Rule:
    """Base class for analysis rules (the plugin protocol).

    Subclasses set ``id`` (kebab-case, stable — it is what suppressions
    and ``--rule`` select) and ``description`` (one line for
    ``--list-rules``), then override :meth:`check_module`,
    :meth:`check_project`, or both.  Both default to "no findings" so a
    rule implements only the pass it needs.
    """

    id: str = ""
    description: str = ""

    def check_module(self, module: "ModuleContext") -> Iterable[Finding]:
        """Per-file pass: inspect one parsed module, yield findings."""
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Cross-file pass: inspect the whole-project symbol table."""
        return ()


@dataclass
class Suppression:
    """One parsed ``# repro: lint-ignore[rule-id]`` comment.

    ``target_line`` is the code line it silences (the comment's own
    line for trailing comments, the next code line for comment-only
    lines); ``comment_line`` is where the comment physically sits,
    which is where unknown/unused-suppression findings point.
    """

    rule: str
    target_line: int
    comment_line: int
    used: bool = False


class ModuleContext:
    """Everything a per-file rule pass may inspect for one source file.

    ``label`` is the path as given (posix separators) — it is what
    findings carry and what allowlist patterns match against.  ``tree``
    is ``None`` when the file failed to read/parse; the engine then
    reports ``parse_failure`` and skips the rule passes for this file.
    """

    def __init__(
        self,
        path: Path,
        label: str,
        source: str | None = None,
        tree: ast.Module | None = None,
        parse_failure: Finding | None = None,
    ) -> None:
        self.path = path
        self.label = label
        self.source = source
        self.tree = tree
        self.parse_failure = parse_failure
        self.suppressions: list[Suppression] = (
            _parse_suppressions(source) if source is not None and tree is not None else []
        )

    def finding(self, rule: str, line: int, message: str) -> Finding:
        """Build a finding against this module."""
        return Finding(path=self.label, line=line, rule=rule, message=message)


@dataclass
class ClassInfo:
    """One class definition in the project symbol table.

    ``bases`` holds the *simple* names of base expressions (``Name``
    ids and the terminal attribute of dotted bases) — cross-file
    resolution is by simple name, which is exactly as precise as a
    single-pass AST lint can honestly be.  ``members`` maps attribute
    name to how it is provided: ``"def"``/``"property"``/``"assign"``
    are concrete, ``"abstract"`` (body is ``raise NotImplementedError``
    or ``...``) and ``"annotation"`` (bare ``x: T``) are declarations
    only.
    """

    name: str
    module: ModuleContext
    node: ast.ClassDef
    bases: tuple[str, ...]
    members: Mapping[str, str]

    @property
    def lineno(self) -> int:
        return self.node.lineno


class Project:
    """Cross-file symbol table handed to :meth:`Rule.check_project`."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        #: Simple class name -> definitions (duplicates across files kept).
        self.classes: dict[str, list[ClassInfo]] = {}
        for module in self.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        bases=tuple(_base_names(node)),
                        members=class_members(node),
                    )
                    self.classes.setdefault(node.name, []).append(info)

    def resolve_class(self, name: str) -> ClassInfo | None:
        """First definition of ``name`` anywhere in the project, if any."""
        infos = self.classes.get(name)
        return infos[0] if infos else None

    def iter_classes(self) -> Iterator[ClassInfo]:
        for infos in self.classes.values():
            yield from infos


@dataclass(frozen=True)
class AnalysisConfig:
    """Per-rule path allowlists (the sanctioned chokepoints).

    ``allowlists`` maps rule id to ``fnmatch`` patterns over the
    module label (posix separators).  A pattern also matches when the
    label *ends with* ``/pattern``, so ``repro/rng.py`` exempts
    ``src/repro/rng.py`` no matter which root the scan started from.
    """

    allowlists: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def allows(self, rule_id: str, label: str) -> bool:
        for pattern in self.allowlists.get(rule_id, ()):
            if fnmatch(label, pattern) or fnmatch(label, "*/" + pattern):
                return True
        return False


@dataclass(frozen=True)
class AnalysisReport:
    """The result of one :func:`run_analysis` call."""

    findings: tuple[Finding, ...]
    files: int
    rule_ids: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> list[str]:
        """One formatted line per finding, sorted."""
        return [finding.format() for finding in self.findings]

    def as_dict(self) -> dict[str, object]:
        """JSON-ready report (``--format json``)."""
        return {
            "files": self.files,
            "rules": list(self.rule_ids),
            "findings": [finding.as_dict() for finding in self.findings],
            "ok": self.ok,
        }


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand lint targets into a sorted list of ``.py`` files.

    Directories are walked recursively; explicit files are taken as-is.
    A target that exists but is neither raises
    :class:`StaticAnalysisError`, as does a missing one.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise StaticAnalysisError(f"no such file or directory: {path}")
    return files


def load_module(path: Path) -> ModuleContext:
    """Read and parse one file, degrading failures to ``parse-error``."""
    label = Path(path).as_posix()
    try:
        source = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        failure = Finding(
            path=label,
            line=1,
            rule=PARSE_RULE_ID,
            message=f"could not read source ({type(error).__name__}); file skipped",
        )
        return ModuleContext(path, label, parse_failure=failure)
    try:
        tree = ast.parse(source, filename=label)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", None) or 1
        detail = getattr(error, "msg", None) or str(error)
        failure = Finding(
            path=label,
            line=line,
            rule=PARSE_RULE_ID,
            message=f"could not parse source ({detail}); file skipped",
        )
        return ModuleContext(path, label, source=source, parse_failure=failure)
    return ModuleContext(path, label, source=source, tree=tree)


def _parse_suppressions(source: str) -> list[Suppression]:
    """Extract ``lint-ignore`` comments, mapping each to its target line.

    Only real ``COMMENT`` tokens count (a docstring *describing* the
    syntax is not a suppression).  A trailing comment targets its own
    line; a comment-only line targets the next line that holds code
    (blank and comment-only lines are skipped), so multi-line
    statements can carry the suppression just above them.
    """
    lines = source.splitlines()
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []  # the file already parsed, so this is vanishingly rare
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        index, column = token.start
        comment_only = not lines[index - 1][:column].strip()
        target = index
        if comment_only:
            target = index + 1
            while target <= len(lines):
                nxt = lines[target - 1].strip()
                if nxt and not nxt.startswith("#"):
                    break
                target += 1
        for rule_id in match.group(1).split(","):
            rule_id = rule_id.strip()
            if rule_id:
                suppressions.append(
                    Suppression(rule=rule_id, target_line=target, comment_line=index)
                )
    return suppressions


def _base_names(node: ast.ClassDef) -> Iterator[str]:
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr
        elif isinstance(base, ast.Subscript):  # Generic[...] style bases
            inner = base.value
            if isinstance(inner, ast.Name):
                yield inner.id
            elif isinstance(inner, ast.Attribute):
                yield inner.attr


def is_abstract_body(node: ast.FunctionDef) -> bool:
    """Whether a method body only declares (``...``/``NotImplementedError``)."""
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # docstring
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc
        callee = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(callee, ast.Name) and callee.id == "NotImplementedError"
    return False


def class_members(node: ast.ClassDef) -> dict[str, str]:
    """Map each attribute a class provides to how it is provided.

    Kinds: ``"def"`` (method), ``"property"`` (decorated method),
    ``"abstract"`` (declaration-only body), ``"annotation"`` (bare
    ``x: T``), ``"assign"`` (class-level or ``self.x = ...`` in any
    method).  Concrete kinds win over declarations when both appear.
    """
    declared: dict[str, str] = {}
    concrete: dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_property = any(
                (isinstance(dec, ast.Name) and dec.id == "property")
                or (isinstance(dec, ast.Attribute) and dec.attr in ("getter", "setter"))
                for dec in stmt.decorator_list
            )
            if is_abstract_body(stmt):
                declared[stmt.name] = "abstract"
            else:
                concrete[stmt.name] = "property" if is_property else "def"
            # Instance attributes assigned in any method body count as
            # provided (``__init__`` assignments are the common case).
            for sub in ast.walk(stmt):
                for target in _assigned_targets(sub):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        concrete.setdefault(target.attr, "assign")
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    concrete[target.id] = "assign"
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is None:
                declared.setdefault(stmt.target.id, "annotation")
            else:
                concrete[stmt.target.id] = "assign"
    return {**declared, **concrete}


def _assigned_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and (
        not isinstance(node, ast.AnnAssign) or node.value is not None
    ):
        yield node.target


def run_analysis(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
    config: AnalysisConfig | None = None,
    known_rule_ids: Iterable[str] | None = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file reachable from ``paths``.

    ``known_rule_ids`` is the universe a suppression may legally name —
    defaults to the ids of ``rules``.  Pass the full registry when
    running a ``--rule`` subset so suppressions for unselected rules
    are neither applied nor flagged as unknown (they are simply left
    alone, and not counted as unused either).
    """
    config = config or AnalysisConfig()
    selected_ids = {rule.id for rule in rules}
    known = set(known_rule_ids) if known_rule_ids is not None else set(selected_ids)
    known |= selected_ids

    modules = [load_module(path) for path in iter_python_files(paths)]
    findings: list[Finding] = []
    for module in modules:
        if module.parse_failure is not None:
            findings.append(module.parse_failure)
            continue
        for rule in rules:
            if config.allows(rule.id, module.label):
                continue
            findings.extend(rule.check_module(module))

    project = Project([m for m in modules if m.tree is not None])
    per_module_allowed = {
        (rule.id, module.label)
        for rule in rules
        for module in modules
        if config.allows(rule.id, module.label)
    }
    for rule in rules:
        for finding in rule.check_project(project):
            if (rule.id, finding.path) not in per_module_allowed:
                findings.append(finding)

    # Apply inline suppressions, then flag the bad ones.
    by_label = {module.label: module for module in modules}
    kept: list[Finding] = []
    for finding in findings:
        module = by_label.get(finding.path)
        suppressed = False
        if module is not None:
            for sup in module.suppressions:
                if sup.rule == finding.rule and sup.target_line == finding.line:
                    sup.used = True
                    suppressed = True
        if not suppressed:
            kept.append(finding)
    for module in modules:
        for sup in module.suppressions:
            if sup.rule not in known:
                kept.append(
                    module.finding(
                        SUPPRESS_RULE_ID,
                        sup.comment_line,
                        f"unknown rule id {sup.rule!r} in lint-ignore"
                        " (see `python -m tools.analysis --list-rules`)",
                    )
                )
            elif sup.rule in selected_ids and not sup.used:
                kept.append(
                    module.finding(
                        SUPPRESS_RULE_ID,
                        sup.comment_line,
                        f"unused lint-ignore[{sup.rule}] — the rule reports"
                        " nothing on this line; remove the suppression",
                    )
                )

    return AnalysisReport(
        findings=tuple(sorted(kept)),
        files=len(modules),
        rule_ids=tuple(sorted(selected_ids)),
    )
