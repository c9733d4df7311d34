"""The admission rule battery: anti-patterns rejected before a query runs.

Each rule names one way a join spec, though parseable, would hurt the
fleet it is admitted to — unbounded O(n²) state, silent data loss, the
int64 precision trap.  They run through the *same* generalized engine as
the Python battery (:func:`repro.analysis.engine.check_tree` with
:class:`~repro.query.nodes.QueryWalker`), so findings, suppressions
(``-- repro: ignore[QRY002]  -- why``), reporters, JSON artifacts and the
CLI exit-code contract are shared verbatim:

========  ==========================================================
QRY001    no cross joins (missing or trivially-true condition)
QRY002    bandless inequality requires a bounded window
QRY003    unbounded window + shed policy silently loses data
QRY004    float literals against integer key columns (mirrors KEY001)
QRY005    window/policy specs must parse against the factories
SUP001    suppressions cite rule ids that exist, and waive a finding
========  ==========================================================

``docs/query.md`` carries the full catalogue with examples; the fixture
specs under ``examples/queries/`` pin each rule in CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Sequence

from repro.analysis.engine import (
    AnalysisReport,
    FileReport,
    Rule,
    Violation,
    check_tree,
    scan_suppressions,
)
from repro.analysis.rules.suppressions import UnknownSuppressionRule
from repro.query.nodes import (
    INEQUALITY_OPS,
    QUERY_WALKER,
    BandPredicate,
    ColumnRef,
    Comparison,
    JoinClause,
    Literal,
    PolicyClause,
    QueryContext,
    WindowClause,
)
from repro.query.parser import ParseError, parse_sql, tokenize_sql
from repro.streaming.pipeline import make_backpressure
from repro.streaming.window import make_window

__all__ = [
    "CrossJoinRule",
    "BandlessInequalityRule",
    "ShedOnUnboundedRule",
    "FloatKeyLiteralRule",
    "SpecStringRule",
    "ALL_QUERY_RULES",
    "default_query_rules",
    "QueryAnalyzer",
]


def _is_trivially_true(condition: Any) -> bool:
    """Whether a condition can never filter anything (``TRUE``, ``1 = 1``)."""
    if isinstance(condition, Literal):
        return bool(condition.value)
    if (
        isinstance(condition, Comparison)
        and isinstance(condition.left, Literal)
        and isinstance(condition.right, Literal)
    ):
        lhs, rhs = condition.left.value, condition.right.value
        return {
            "=": lhs == rhs,
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            ">": lhs > rhs,
            ">=": lhs >= rhs,
            "<>": lhs != rhs,
        }[condition.op]
    return False


class CrossJoinRule(Rule):
    """QRY001: every admitted join must have a real condition.

    A cross join — explicit ``CROSS JOIN``, a join with no ``ON``/
    ``WHERE``, or a condition that is trivially true — matches every pair
    of tuples: output and per-batch cost are O(|R1|·|R2|) and no window
    bounds the damage.  The engine's monotonic-join machinery cannot even
    represent it; reject at the door.
    """

    rule_id: ClassVar[str] = "QRY001"
    name: ClassVar[str] = "cross join"
    description: ClassVar[str] = (
        "cross joins (missing or trivially-true join condition) are never "
        "admissible"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = (JoinClause,)

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Flag explicit CROSS JOINs and conditions that filter nothing."""
        if node.kind == "cross":
            yield Violation(
                node,
                "explicit CROSS JOIN: every tuple pair matches, state and "
                "output are O(n^2)",
            )
            return
        if node.condition is None:
            yield Violation(
                node,
                "join has no ON (or WHERE) condition, making it a cross "
                "join: give it an equi, band or inequality predicate",
            )
        elif _is_trivially_true(node.condition):
            yield Violation(
                node,
                "join condition is trivially true, making it a cross join: "
                "relate columns of the two streams",
            )


class BandlessInequalityRule(Rule):
    """QRY002: a bandless inequality join needs a bounded window.

    ``r1.key < r2.key`` joins each arrival against (on average) half of
    the other side's *entire history*: with an unbounded window, resident
    state grows O(stream) and per-batch output O(n²).  A bounded window
    (sliding, count or decay) caps both.  A band conjunct bounds the
    joinable interval instead, so banded conditions are exempt.
    """

    rule_id: ClassVar[str] = "QRY002"
    name: ClassVar[str] = "bandless inequality on unbounded window"
    description: ClassVar[str] = (
        "an inequality join without a band must declare a bounded WINDOW "
        "(the O(n^2)-state trap)"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = (Comparison,)

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Flag column-vs-column strict-order comparisons sans window."""
        if node.op not in INEQUALITY_OPS:
            return
        if not (
            isinstance(node.left, ColumnRef)
            and isinstance(node.right, ColumnRef)
        ):
            return
        statement = context.statement
        if statement.window_is_bounded:
            return
        where = (
            "no WINDOW clause"
            if statement.window is None
            else f"WINDOW {statement.window.spec!r} is unbounded"
        )
        yield Violation(
            node,
            f"inequality join ({node.op}) with {where}: each arrival joins "
            "the other side's full history, so state grows O(stream); "
            "declare a bounded window (e.g. WINDOW 'batches:8') or add a "
            "band predicate",
        )


class ShedOnUnboundedRule(Rule):
    """QRY003: shedding into an unbounded window silently loses data.

    ``POLICY 'shed'`` drops whole micro-batches when the queue is full —
    deliberately lossy, which is fine for bounded windows where old state
    expires anyway.  Combined with an *unbounded* window the spec claims
    exact full-history semantics while the policy silently deletes
    arbitrary slices of that history: results become load-dependent and
    irreproducible, and nothing in the output says so.
    """

    rule_id: ClassVar[str] = "QRY003"
    name: ClassVar[str] = "shed policy on unbounded window"
    description: ClassVar[str] = (
        "POLICY 'shed' with an unbounded window is a silent-loss footgun: "
        "full-history semantics plus arbitrary dropped batches"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = (PolicyClause,)

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Flag shed policies whose statement declares no bounded window."""
        if node.spec.strip().lower() != "shed":
            return
        if context.statement.window_is_bounded:
            return
        yield Violation(
            node,
            "POLICY 'shed' with an unbounded window: dropped batches "
            "silently corrupt the full-history result; bound the window "
            "or use 'block'/'coalesce'",
        )


class FloatKeyLiteralRule(Rule):
    """QRY004: float literals against integer key columns (KEY001's twin).

    With ``KEYS INT`` (the default — the repo's exact-int64 discipline) a
    float-spelled literal in the join condition drags key arithmetic onto
    the float64 path: a non-integral band width forces every key through
    ``float64``, and keys above 2**53 round — silently moving tuples
    across the band boundary.  Spell widths and compared values as
    integers, or declare ``KEYS FLOAT`` if the keys really are floats.
    """

    rule_id: ClassVar[str] = "QRY004"
    name: ClassVar[str] = "float literal against integer keys"
    description: ClassVar[str] = (
        "float-spelled literals in conditions over KEYS INT break the "
        "exact-int64 key path (precision trap above 2**53)"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = (
        Comparison,
        BandPredicate,
    )

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Flag float-formed literals in conditions over integer keys."""
        if context.statement.key_dtype != "int":
            return
        literals: list[Literal] = []
        if isinstance(node, BandPredicate):
            literals.append(node.width)
        else:
            for side in (node.left, node.right):
                if isinstance(side, Literal):
                    literals.append(side)
        for literal in literals:
            if literal.is_float_formed:
                yield Violation(
                    literal,
                    f"float literal {literal.raw} against integer keys "
                    "(KEYS INT): key arithmetic leaves the exact int64 "
                    "path and values above 2**53 round; write an integer "
                    "or declare KEYS FLOAT",
                )


class SpecStringRule(Rule):
    """QRY005: window/policy spec strings must parse against the factories.

    The WINDOW and POLICY clauses carry factory spec strings; validating
    them at admission (by calling the factories themselves, so the check
    can never drift from what the engine accepts) turns a run-time
    ``ValueError`` mid-deployment into a reject at the door, with the
    registered forms listed.
    """

    rule_id: ClassVar[str] = "QRY005"
    name: ClassVar[str] = "unparseable window/policy spec"
    description: ClassVar[str] = (
        "WINDOW/POLICY spec strings must parse against the registered "
        "make_window/make_backpressure factories"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = (
        WindowClause,
        PolicyClause,
    )

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Run each spec string through its factory, reporting ValueErrors."""
        if isinstance(node, WindowClause):
            try:
                make_window(node.spec)
            except ValueError as error:
                # The factory's own message already lists the registered
                # WINDOW_SPEC_FORMS; report it verbatim so the check can
                # never drift from what the engine accepts.
                yield Violation(node, str(error))
            return
        try:
            make_backpressure(node.spec)
        except ValueError as error:
            yield Violation(node, str(error))
        if node.queue is not None and node.queue < 1:
            yield Violation(
                node, f"QUEUE depth must be >= 1, got {node.queue}"
            )


#: Every registered query rule class, in catalogue order.  SUP001 joins
#: the battery as an instance in :func:`default_query_rules` — it is the
#: Python battery's rule, reused as-is over ``--`` comments.
ALL_QUERY_RULES: "tuple[type[Rule], ...]" = (
    CrossJoinRule,
    BandlessInequalityRule,
    ShedOnUnboundedRule,
    FloatKeyLiteralRule,
    SpecStringRule,
)


def default_query_rules() -> "list[Rule]":
    """One fresh instance of every admission rule, SUP001 included."""
    rules: list[Rule] = [rule_cls() for rule_cls in ALL_QUERY_RULES]
    rules.append(UnknownSuppressionRule())
    return rules


class QueryAnalyzer:
    """Run the admission battery over join-spec files (``*.sql``).

    The query-dialect counterpart of
    :class:`repro.analysis.engine.Analyzer`: same report types, same
    suppression handling, same reporters — only the parser and walker
    differ.  ``rules`` are the rule instances to run; defaults to
    :func:`default_query_rules`.
    """

    def __init__(self, rules: "Sequence[Rule] | None" = None) -> None:
        self.rules: list[Rule] = list(
            default_query_rules() if rules is None else rules
        )

    def analyze_source(self, source: str, path: str = "<query>") -> FileReport:
        """Analyze one spec's text; parse failures land in ``report.error``."""
        posix = Path(path).as_posix()
        report = FileReport(path=posix)
        try:
            _, comment_tokens = tokenize_sql(source)
            statement = parse_sql(source)
        except ParseError as error:
            report.error = f"ParseError: {error}"
            return report
        context = QueryContext(posix, source, statement)
        comments, suppressed = scan_suppressions(comment_tokens)
        context.suppression_comments = comments
        report.suppression_lines = sorted(suppressed)
        active = [rule for rule in self.rules if rule.applies_to(posix)]
        if not active:
            return report
        report.findings = check_tree(
            statement, active, context, QUERY_WALKER, suppressed
        )
        return report

    def analyze_file(self, path: "str | Path") -> FileReport:
        """Analyze one spec file on disk."""
        text = Path(path).read_text(encoding="utf-8")
        return self.analyze_source(text, str(path))

    def analyze_paths(self, paths: "Iterable[str | Path]") -> AnalysisReport:
        """Analyze files and directories (directories recurse over ``*.sql``)."""
        report = AnalysisReport()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for file in sorted(path.rglob("*.sql")):
                    report.files.append(self.analyze_file(file))
            else:
                report.files.append(self.analyze_file(path))
        return report
