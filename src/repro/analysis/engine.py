"""The visitor-based rule engine behind ``python -m repro.analysis``.

Every headline property of this reproduction — bit-identical replays,
kill-and-restore equivalence, exact int64 join keys, the sticky-worker
state-ownership protocol — is a *discipline*: a way code must be written,
not just a behaviour tests can observe.  This module provides the machinery
to enforce those disciplines statically, before any test runs:

* :class:`Rule` — one check, in the ``target_node_types`` idiom: a rule
  declares which node types it wants to see and yields
  :class:`Violation` records from :meth:`Rule.check`;
* :class:`Analyzer` — parses each file once, walks the tree once, and
  dispatches every node to the rules registered for its type (with the
  ancestor stack available for context-sensitive checks);
* :class:`Finding` — a rule hit pinned to ``path:line:col``, carrying the
  rule id, the message, and whether an inline suppression absolved it;
* suppression comments — ``# repro: ignore[RULE1,RULE2]  # why`` on the
  offending line waives exactly the listed rules there (a bare
  ``# repro: ignore`` waives every rule on the line);
* reporters — :func:`format_findings` for humans, :func:`report_to_json`
  for CI artifacts and golden-adjacent diffs.

The engine is **AST-kind-agnostic**: dispatch, the ancestor stack, findings,
suppressions and both reporters know nothing about Python's :mod:`ast`.  A
:class:`Walker` tells the engine how to enumerate a dialect's children and
locate its nodes, and a :class:`BaseContext` carries the per-file facts
rules consult; the Python specialisation (:class:`AstWalker`,
:class:`SourceContext`) lives here because ``python -m repro.analysis`` uses
it, while :mod:`repro.query` plugs its SQL expression trees into
the *same* engine for query-admission checks (``-- repro: ignore[...]``
comments included).  The rule batteries live in :mod:`repro.analysis.rules`
and :mod:`repro.query.rules`.  See ``docs/static_analysis.md`` for the rule
catalogue and how to add one.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Violation",
    "Finding",
    "FileReport",
    "AnalysisReport",
    "BaseContext",
    "SourceContext",
    "SuppressionComment",
    "Rule",
    "Walker",
    "AstWalker",
    "AST_WALKER",
    "Analyzer",
    "check_tree",
    "python_comments",
    "scan_suppressions",
    "format_findings",
    "report_to_json",
]

#: Matches a suppression comment, bare or with a bracketed rule-id list.
#: Both comment leaders are accepted — ``#`` (Python) and ``--`` (SQL join
#: specs) — so every dialect the engine checks shares one suppression
#: syntax.  (Lives in a string literal, so the scan — which reads real
#: comment tokens only — never matches this file's own source.)
_SUPPRESSION = re.compile(
    r"(?:#|--)\s*repro:\s*ignore(?:\[(?P<ids>[A-Z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit, still anchored to its AST node (engine-internal).

    Node-dispatched rules anchor the violation to the offending node;
    file-level rules (:meth:`Rule.check_file`) have no node and pass
    ``node=None`` with an explicit ``line``/``col`` instead.
    """

    node: Any
    message: str
    line: "int | None" = None
    col: int = 0


@dataclass(frozen=True)
class SuppressionComment:
    """One inline ``repro: ignore`` comment, as scanned from real tokens.

    Attributes
    ----------
    line, col:
        1-based line and 0-based column of the comment token.
    ids:
        The cited rule ids, or ``None`` for the bare form (which waives
        every rule on the line).
    text:
        The raw comment text, for diagnostics.
    """

    line: int
    col: int
    ids: "tuple[str, ...] | None"
    text: str


@dataclass(frozen=True)
class Finding:
    """One rule hit pinned to a source location.

    Attributes
    ----------
    rule_id:
        Id of the rule that fired (``"DET001"``, ...).
    path:
        Posix-style path of the offending file, as given to the analyzer.
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        The rule's explanation of this specific hit.
    snippet:
        The offending source line, stripped, for human reports.
    suppressed:
        Whether an inline ``# repro: ignore[...]`` comment on the line
        waives this finding.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    snippet: str
    suppressed: bool = False

    def location(self) -> str:
        """The clickable ``path:line:col`` prefix of a human report row."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileReport:
    """Everything the analyzer learned about one file."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    #: Lines carrying a suppression comment (whether or not any rule
    #: fired there) — the suppression inventory CI reports as an
    #: artifact so drift stays visible.
    suppression_lines: list[int] = field(default_factory=list)
    #: Parse failure, if the file was not analyzable.
    error: "str | None" = None


@dataclass
class AnalysisReport:
    """The aggregate result of one analyzer run over a set of paths."""

    files: list[FileReport] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        """Every finding, suppressed or not, in file order."""
        return [f for report in self.files for f in report.findings]

    @property
    def unsuppressed(self) -> list[Finding]:
        """The findings that fail the build."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings absolved by an inline suppression comment."""
        return [f for f in self.findings if f.suppressed]

    @property
    def suppression_count(self) -> int:
        """Inline suppression comments present across the scanned files."""
        return sum(len(report.suppression_lines) for report in self.files)

    @property
    def errors(self) -> list[tuple[str, str]]:
        """``(path, error)`` pairs for files that failed to parse."""
        return [
            (report.path, report.error)
            for report in self.files
            if report.error is not None
        ]

    @property
    def ok(self) -> bool:
        """Whether the run is clean: no unsuppressed findings, no errors."""
        return not self.unsuppressed and not self.errors


class BaseContext:
    """Per-file facts rules consult, independent of the AST dialect.

    Exposes the file's path and raw source lines, the scanned suppression
    comments, the id universe of the running analyzer (for suppression
    hygiene rules), and — during a walk — the ancestor stack of the node
    currently being checked.  Dialect specialisations add what their rules
    need: :class:`SourceContext` adds Python import resolution,
    :class:`repro.query.nodes.QueryContext` adds the parsed statement.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        #: Ancestors of the node under check, outermost first (the root
        #: node itself is index 0).  Maintained by :func:`check_tree`.
        self.parents: list[Any] = []
        #: The file's inline suppression comments, in line order.
        self.suppression_comments: list[SuppressionComment] = []
        #: Rule ids registered with the analyzer running this check —
        #: the id universe suppression-hygiene rules validate against.
        self.known_rule_ids: frozenset[str] = frozenset()
        #: ``(comment line, rule id)`` for each suppression that waived a
        #: finding so far.  Maintained by :func:`check_tree`.
        self.waived: set[tuple[int, str]] = set()

    def line_of(self, lineno: int) -> str:
        """The 1-based source line, stripped, or ``""`` out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def enclosing(self, *types: "type[Any]") -> "Any | None":
        """The nearest ancestor of the current node matching ``types``."""
        for parent in reversed(self.parents):
            if isinstance(parent, types):
                return parent
        return None


class SourceContext(BaseContext):
    """Python-file context: adds the parsed tree and import resolution."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        super().__init__(path, source)
        self.tree = tree
        #: ``alias -> module`` for ``import x`` / ``import x.y as z``
        #: (``import x.y`` binds ``x``).
        self.module_aliases: dict[str, str] = {}
        #: ``local name -> "module.name"`` for ``from x import y [as z]``.
        self.imported_names: dict[str, str] = {}
        self._collect_imports(tree)

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.module_aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> "str | None":
        """Resolve a Name/Attribute chain to its imported dotted name.

        ``time.perf_counter`` (with ``import time``) resolves to
        ``"time.perf_counter"``; ``np.random.shuffle`` (with ``import numpy
        as np``) to ``"numpy.random.shuffle"``; a bare ``perf_counter``
        bound by ``from time import perf_counter`` to
        ``"time.perf_counter"``.  Chains not rooted in an import resolve to
        ``None`` — a local variable that happens to be called ``time``
        never trips a rule.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.module_aliases:
            parts.append(self.module_aliases[root])
        elif root in self.imported_names:
            parts.append(self.imported_names[root])
        else:
            return None
        return ".".join(reversed(parts))

    def source_of(self, node: ast.AST) -> str:
        """The exact source text of ``node`` (empty when unavailable)."""
        return ast.get_source_segment(self.source, node) or ""


class Rule:
    """One static check, dispatched on declared node types.

    Subclasses set the class attributes and implement :meth:`check`; the
    analyzer instantiates each rule once per run and calls ``check`` for
    every node whose type appears in ``target_node_types`` (in files the
    rule's path scope admits).  ``target_node_types`` may name *any* node
    classes — Python :mod:`ast` nodes, :mod:`repro.query.nodes` expression
    nodes — as long as the analyzer's :class:`Walker` knows the dialect.
    A rule may additionally (or instead) implement :meth:`check_file`,
    which runs once per file after the walk — the hook file-scoped checks
    like suppression hygiene use.  A rule that sets ``reads_waivers``
    runs its :meth:`check_file` after every other rule's, so the context's
    ``waived`` holds every suppression that waived a finding.

    Attributes
    ----------
    rule_id:
        Stable id used in reports and suppression comments (``DET001``).
    name:
        Short human label.
    description:
        One-line statement of the discipline the rule enforces.
    target_node_types:
        The node classes the rule wants to see.
    include:
        Path fragments the rule is restricted to (empty = every file).
    exclude:
        Path fragments the rule never applies to (wins over ``include``).
    reads_waivers:
        Whether :meth:`check_file` reads ``context.waived`` (and so runs
        last).
    """

    rule_id: ClassVar[str] = "RULE000"
    name: ClassVar[str] = "unnamed rule"
    description: ClassVar[str] = ""
    target_node_types: ClassVar["tuple[type[Any], ...]"] = ()
    include: ClassVar[tuple[str, ...]] = ()
    exclude: ClassVar[tuple[str, ...]] = ()
    reads_waivers: ClassVar[bool] = False

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (posix fragment matching)."""
        posix = Path(path).as_posix()
        if any(fragment in posix for fragment in self.exclude):
            return False
        if not self.include:
            return True
        return any(fragment in posix for fragment in self.include)

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Yield a :class:`Violation` per defect found at ``node``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes the abstract method a generator

    def check_file(self, context: Any) -> Iterator[Violation]:
        """File-level hook: yield violations not tied to any one node.

        Called once per analyzed file, after the tree walk, with the
        context's ``suppression_comments`` and ``known_rule_ids``
        populated.  The default checks nothing.
        """
        return iter(())


class Walker:
    """How the engine traverses and locates nodes of one AST dialect.

    The engine's walk, dispatch and finding machinery use only these two
    methods, so any tree — Python :mod:`ast`, a SQL expression tree —
    plugs in by providing a walker.
    """

    def children(self, node: Any) -> Iterable[Any]:
        """The node's direct children, in source order."""
        raise NotImplementedError

    def location(self, node: Any) -> tuple[int, int, int]:
        """``(line, col, end_line)``: 1-based lines, 0-based column."""
        raise NotImplementedError


class AstWalker(Walker):
    """The Python :mod:`ast` dialect."""

    def children(self, node: Any) -> Iterable[Any]:
        """Direct children via :func:`ast.iter_child_nodes`."""
        return ast.iter_child_nodes(node)

    def location(self, node: Any) -> tuple[int, int, int]:
        """Positions from the node's ``lineno``/``col_offset`` attributes."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end = getattr(node, "end_lineno", line) or line
        return line, col, end


#: The shared Python-ast walker (walkers are stateless).
AST_WALKER = AstWalker()


def python_comments(source: str) -> "Iterator[tuple[int, int, str]]":
    """Yield ``(line, col, text)`` for every real comment token.

    Reading COMMENT tokens (not grepping) means a string literal containing
    ``# repro: ignore`` never waives anything.
    """
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except tokenize.TokenError:  # pragma: no cover - unparsable tail
        return


def scan_suppressions(
    comments: "Iterable[tuple[int, int, str]]",
) -> "tuple[list[SuppressionComment], dict[int, frozenset[str] | None]]":
    """Scan comment tokens for suppressions; return records and line table.

    The table maps line number -> suppressed rule ids (``None`` = every
    rule); a comment listing no ids (``# repro: ignore``) suppresses every
    rule on its line.  The records keep the cited ids and positions for
    suppression-hygiene rules (SUP001).
    """
    records: list[SuppressionComment] = []
    table: "dict[int, frozenset[str] | None]" = {}
    for line, col, text in comments:
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        ids = match.group("ids")
        if ids is None:
            records.append(SuppressionComment(line, col, None, text))
            table[line] = None
        else:
            cited = tuple(part.strip() for part in ids.split(",") if part.strip())
            records.append(SuppressionComment(line, col, cited, text))
            table[line] = frozenset(cited)
    return records, table


def _pin_finding(
    rule: Rule,
    violation: Violation,
    context: BaseContext,
    suppressed: "Mapping[int, frozenset[str] | None]",
    walker: Walker,
) -> Finding:
    """Pin a violation to its location and apply line suppressions.

    A waiver is recorded on ``context.waived`` by the comment's line.
    """
    if violation.node is not None:
        line, col, end = walker.location(violation.node)
    else:
        line = violation.line or 1
        col = violation.col
        end = line
    waived = False
    for candidate in range(line, end + 1):
        ids = suppressed.get(candidate, frozenset())
        if ids is None or rule.rule_id in (ids or frozenset()):
            waived = True
            context.waived.add((candidate, rule.rule_id))
            break
    return Finding(
        rule_id=rule.rule_id,
        path=context.path,
        line=line,
        col=col,
        message=violation.message,
        snippet=context.line_of(line),
        suppressed=waived,
    )


def check_tree(
    tree: Any,
    rules: "Sequence[Rule]",
    context: BaseContext,
    walker: Walker,
    suppressed: "Mapping[int, frozenset[str] | None]",
) -> list[Finding]:
    """Run a rule battery over one parsed tree: one walk, typed dispatch.

    The dialect-agnostic core shared by :class:`Analyzer` (Python) and
    :class:`repro.query.rules.QueryAnalyzer` (SQL join specs): dispatches
    every node to the rules registered for its exact type, maintains the
    ancestor stack on ``context.parents``, runs every rule's
    :meth:`Rule.check_file` hook after the walk, and returns the findings
    sorted by position.  Rules that read the waivers run their file hook
    last.
    """
    context.known_rule_ids = frozenset(rule.rule_id for rule in rules)
    dispatch: "dict[type[Any], list[Rule]]" = {}
    for rule in rules:
        for node_type in rule.target_node_types:
            dispatch.setdefault(node_type, []).append(rule)
    findings: list[Finding] = []

    def visit(node: Any) -> None:
        for rule in dispatch.get(type(node), ()):
            for violation in rule.check(node, context):
                findings.append(
                    _pin_finding(rule, violation, context, suppressed, walker)
                )
        context.parents.append(node)
        for child in walker.children(node):
            visit(child)
        context.parents.pop()

    if dispatch:
        visit(tree)
    for rule in sorted(rules, key=lambda rule: rule.reads_waivers):
        for violation in rule.check_file(context):
            findings.append(
                _pin_finding(rule, violation, context, suppressed, walker)
            )
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule_id))


class Analyzer:
    """Run a rule battery over Python files: one parse and one walk each.

    Parameters
    ----------
    rules:
        The rule instances to run; defaults to the full battery from
        :func:`repro.analysis.rules.default_rules`.
    """

    def __init__(self, rules: "Sequence[Rule] | None" = None) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules: list[Rule] = list(rules)

    # ------------------------------------------------------------------
    # Single-file analysis
    # ------------------------------------------------------------------
    def analyze_source(self, source: str, path: str = "<string>") -> FileReport:
        """Analyze one file's source text; never raises on bad input."""
        posix = Path(path).as_posix()
        report = FileReport(path=posix)
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as error:
            report.error = f"{type(error).__name__}: {error.msg} (line {error.lineno})"
            return report
        context = SourceContext(posix, source, tree)
        comments, suppressed = scan_suppressions(python_comments(source))
        context.suppression_comments = comments
        report.suppression_lines = sorted(suppressed)
        active = [rule for rule in self.rules if rule.applies_to(posix)]
        if not active:
            return report
        report.findings = check_tree(tree, active, context, AST_WALKER, suppressed)
        return report

    # ------------------------------------------------------------------
    # Tree analysis
    # ------------------------------------------------------------------
    def analyze_file(self, path: "str | Path") -> FileReport:
        """Analyze one file on disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.analyze_source(text, str(path))

    def analyze_paths(self, paths: "Iterable[str | Path]") -> AnalysisReport:
        """Analyze files and directories (directories recurse over ``*.py``)."""
        report = AnalysisReport()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for file in sorted(path.rglob("*.py")):
                    report.files.append(self.analyze_file(file))
            else:
                report.files.append(self.analyze_file(path))
        return report


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def format_findings(report: AnalysisReport, show_suppressed: bool = False) -> str:
    """The human report: one ``path:line:col rule message`` row per finding.

    Ends with a one-line summary (findings, suppressions, files scanned) so
    a clean run still says what it checked.
    """
    rows: list[str] = []
    for finding in report.unsuppressed:
        rows.append(
            f"{finding.location()}: {finding.rule_id} {finding.message}"
        )
        if finding.snippet:
            rows.append(f"    {finding.snippet}")
    if show_suppressed:
        for finding in report.suppressed:
            rows.append(
                f"{finding.location()}: {finding.rule_id} "
                f"[suppressed] {finding.message}"
            )
    for path, error in report.errors:
        rows.append(f"{path}: PARSE error {error}")
    rows.append(
        f"{len(report.unsuppressed)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.suppression_count} suppression comment(s), "
        f"{len(report.files)} file(s) scanned"
    )
    return "\n".join(rows)


def report_to_json(report: AnalysisReport, rules: "Sequence[Rule]") -> str:
    """The machine report: deterministic JSON for CI artifacts.

    Carries every finding (suppressed ones marked), the suppression
    inventory per file, and the rule catalogue that produced the run, so a
    rule addition shows its src-wide impact as a plain artifact diff.
    """
    payload = {
        "ok": report.ok,
        "summary": {
            "files_scanned": len(report.files),
            "findings": len(report.unsuppressed),
            "suppressed_findings": len(report.suppressed),
            "suppression_comments": report.suppression_count,
            "parse_errors": len(report.errors),
        },
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "description": rule.description,
            }
            for rule in sorted(rules, key=lambda r: r.rule_id)
        ],
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "suppressed": finding.suppressed,
            }
            for finding in report.findings
        ],
        "suppressions": {
            file.path: file.suppression_lines
            for file in report.files
            if file.suppression_lines
        },
        "errors": [
            {"path": path, "error": error} for path, error in report.errors
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: Callable alias rules may use for clock/predicate injection in tests.
Reporter = Callable[[AnalysisReport], str]
