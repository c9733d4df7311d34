"""Lowering parsed join specs to the streaming engine's vocabulary.

The pipeline is ``SQL text -> SelectStmt -> QuerySpec -> CompiledPlan``:

* :func:`lower` distils a parsed :class:`~repro.query.nodes.SelectStmt`
  into a :class:`QuerySpec` — the typed, engine-facing summary of the
  query (condition kind and parameters, window/policy specs, key dtype);
* :func:`compile_spec` materialises the spec through the engine's own
  factories — :func:`repro.joins.conditions.make_condition`,
  :func:`repro.streaming.window.make_window`,
  :func:`repro.streaming.pipeline.make_backpressure` — into a
  :class:`CompiledPlan` ready to drive a
  :class:`~repro.streaming.engine.StreamingJoinEngine`;
* :func:`compile_sql` does both, and by default runs the admission rule
  battery first (:mod:`repro.query.rules`), raising
  :class:`AdmissionError` on any unsuppressed finding — the front-door
  contract: anti-patterns never reach a worker fleet.

Exact integers survive the whole path: an integral band width spelled in
the query stays a Python int through :class:`QuerySpec` into
``make_condition``, engaging the engine's exact int64 band arithmetic
(keys above 2**53 never round — the ``exact_integer_keys`` discipline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.joins.conditions import JoinCondition, make_condition
from repro.query.nodes import (
    INEQUALITY_OPS,
    AndCondition,
    BandPredicate,
    ColumnRef,
    Comparison,
    Literal,
    Node,
    SelectStmt,
    TableRef,
)
from repro.query.parser import parse_sql
from repro.streaming.pipeline import BackpressurePolicy, make_backpressure
from repro.streaming.window import WindowPolicy, make_window

if TYPE_CHECKING:
    from repro.analysis.engine import Finding

__all__ = [
    "CompileError",
    "AdmissionError",
    "QuerySpec",
    "CompiledPlan",
    "lower",
    "compile_spec",
    "compile_sql",
]


class CompileError(ValueError):
    """A parsed spec that cannot be lowered to an engine plan."""


class AdmissionError(ValueError):
    """A spec the admission rule battery rejected.

    Attributes
    ----------
    findings:
        The unsuppressed findings, in position order.
    """

    def __init__(self, findings: "list[Finding]") -> None:
        lines = [
            f"{f.location()}: {f.rule_id} {f.message}" for f in findings
        ]
        super().__init__(
            "query rejected by admission checks:\n" + "\n".join(lines)
        )
        self.findings = findings


# Mirror-image comparison operators, for normalising an inequality whose
# left operand belongs to the *right* stream (``r2.key < r1.key``).
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class QuerySpec:
    """The engine-facing summary of one admitted join query.

    Attributes
    ----------
    left, right:
        Stream (relation) names, in spec order.
    kind:
        Condition kind, one of
        :data:`repro.joins.conditions.CONDITION_KINDS`.
    beta:
        Band width (``0`` for equi/inequality).  Stays a Python int when
        the query spelled it integrally.
    op:
        Inequality operator symbol, normalised to the left-stream
        orientation (``None`` for other kinds).
    window_spec, policy_spec:
        The window / backpressure spec strings (``None`` = engine
        defaults: unbounded window, ``block`` policy).
    queue_batches:
        Bounded-queue depth for the pipeline (``None`` = default).
    scale, domain:
        Composite-key encoding parameters (``None`` for other kinds).
    key_dtype:
        Declared join-key dtype, ``"int"`` (default) or ``"float"``.
    """

    left: str
    right: str
    kind: str
    beta: "int | float" = 0
    op: "str | None" = None
    window_spec: "str | None" = None
    policy_spec: "str | None" = None
    queue_batches: "int | None" = None
    scale: "float | None" = None
    domain: "tuple[float, float] | None" = None
    key_dtype: str = "int"


@dataclass(frozen=True)
class CompiledPlan:
    """A spec materialised through the engine factories, ready to run."""

    spec: QuerySpec
    condition: JoinCondition
    window: WindowPolicy
    policy: BackpressurePolicy
    queue_batches: "int | None" = None


def _column_side(column: ColumnRef, left: TableRef, right: TableRef) -> str:
    """Which stream a column belongs to: ``"left"`` or ``"right"``.

    Unqualified columns are ambiguous and rejected — the lowering must
    know the orientation to preserve inequality semantics.
    """
    if left.binds(column.table):
        return "left"
    if right.binds(column.table):
        return "right"
    raise CompileError(
        f"line {column.line}:{column.col}: column {column.text()!r} does not "
        f"resolve to either stream ({left.alias or left.name!r}, "
        f"{right.alias or right.name!r}); qualify it with a table or alias"
    )


def _classify(
    condition: "Node | None", left: TableRef, right: TableRef
) -> "tuple[str, int | float, str | None]":
    """Distil a condition tree to ``(kind, beta, op)``.

    Recognised shapes (the grammar guarantees nothing deeper):

    * ``None`` / boolean literal / literal-vs-literal -> ``"cross"``
      (no real condition; QRY001 territory, unloadable);
    * column ``=`` column -> ``"equi"``;
    * band predicate -> ``"band"`` with its width;
    * column ``< <= > >=`` column -> ``"inequality"``, operator
      normalised to the left-stream-first orientation;
    * equality AND band -> ``"composite"``.
    """
    if condition is None or isinstance(condition, Literal):
        return "cross", 0, None
    if isinstance(condition, Comparison):
        if isinstance(condition.left, Literal) and isinstance(
            condition.right, Literal
        ):
            return "cross", 0, None
        if not (
            isinstance(condition.left, ColumnRef)
            and isinstance(condition.right, ColumnRef)
        ):
            raise CompileError(
                f"line {condition.line}:{condition.col}: a join condition "
                "must compare columns of the two streams (column-vs-literal "
                "comparisons are filters, not joins)"
            )
        left_side = _column_side(condition.left, left, right)
        right_side = _column_side(condition.right, left, right)
        if left_side == right_side:
            raise CompileError(
                f"line {condition.line}:{condition.col}: both sides of the "
                f"condition bind to the {left_side} stream; a join must "
                "relate the two streams"
            )
        op = condition.op
        if left_side == "right":
            op = _FLIPPED.get(op, op)
        if op == "=":
            return "equi", 0, None
        if op in INEQUALITY_OPS:
            return "inequality", 0, op
        raise CompileError(
            f"line {condition.line}:{condition.col}: operator "
            f"{condition.op!r} is not a monotonic join condition"
        )
    if isinstance(condition, BandPredicate):
        # Orientation check only: a band is symmetric, but both columns
        # must still resolve, one per stream.
        sides = {
            _column_side(condition.left, left, right),
            _column_side(condition.right, left, right),
        }
        if sides != {"left", "right"}:
            raise CompileError(
                f"line {condition.line}:{condition.col}: a band predicate "
                "must relate the two streams"
            )
        return "band", condition.width.value, None
    if isinstance(condition, AndCondition):
        kinds = [_classify(term, left, right) for term in condition.terms]
        equis = [k for k in kinds if k[0] == "equi"]
        bands = [k for k in kinds if k[0] == "band"]
        if len(kinds) == 2 and len(equis) == 1 and len(bands) == 1:
            return "composite", bands[0][1], None
        raise CompileError(
            f"line {condition.line}:{condition.col}: unsupported "
            "conjunction; the composite form is exactly one equality AND "
            "one band predicate"
        )
    raise CompileError(
        f"line {condition.line}:{condition.col}: unsupported condition"
    )


def lower(statement: SelectStmt) -> QuerySpec:
    """Distil a parsed statement into a :class:`QuerySpec`.

    Raises :class:`CompileError` on shapes that cannot reach the engine:
    cross joins (no condition relates the streams), unresolvable columns,
    a composite condition without its ``SCALE`` clause.
    """
    left = statement.left
    right = statement.join.table
    if statement.join.kind == "cross":
        kind: str = "cross"
        beta: "int | float" = 0
        op: "str | None" = None
    else:
        kind, beta, op = _classify(statement.join.condition, left, right)
    if kind == "cross":
        raise CompileError(
            f"line {statement.join.line}:{statement.join.col}: cross joins "
            "are not admissible — every pair of tuples matches, so state "
            "and output are O(n^2); give the join a condition"
        )
    scale: "float | None" = None
    domain: "tuple[float, float] | None" = None
    if kind == "composite":
        if statement.scale is None:
            raise CompileError(
                f"line {statement.join.line}:{statement.join.col}: the "
                "composite equi+band form needs a SCALE clause "
                "(SCALE s DOMAIN lo TO hi) for the lexicographic key "
                "encoding"
            )
        scale = statement.scale.scale
        domain = (statement.scale.domain_min, statement.scale.domain_max)
    return QuerySpec(
        left=left.name,
        right=right.name,
        kind=kind,
        beta=beta,
        op=op,
        window_spec=statement.window.spec if statement.window else None,
        policy_spec=statement.policy.spec if statement.policy else None,
        queue_batches=statement.policy.queue if statement.policy else None,
        scale=scale,
        domain=domain,
        key_dtype=statement.key_dtype,
    )


def compile_spec(spec: QuerySpec) -> CompiledPlan:
    """Materialise a spec through the engine factories.

    Factory ``ValueError``s (unknown window spec, bad scale, ...) are
    re-raised as :class:`CompileError` with the factory's message — the
    same messages QRY005 reports at admission time.
    """
    try:
        if spec.kind == "composite":
            assert spec.scale is not None and spec.domain is not None
            condition = make_condition(
                "composite",
                beta=spec.beta,
                scale=spec.scale,
                band_key_min=spec.domain[0],
                band_key_max=spec.domain[1],
            )
        elif spec.kind == "inequality":
            condition = make_condition("inequality", op=spec.op)
        else:
            condition = make_condition(spec.kind, beta=spec.beta)
        window = make_window(spec.window_spec)
        policy = make_backpressure(spec.policy_spec or "block")
    except ValueError as error:
        raise CompileError(str(error)) from None
    if spec.queue_batches is not None and spec.queue_batches < 1:
        raise CompileError(
            f"queue depth must be >= 1, got {spec.queue_batches}"
        )
    return CompiledPlan(
        spec=spec,
        condition=condition,
        window=window,
        policy=policy,
        queue_batches=spec.queue_batches,
    )


def compile_sql(
    sql: str,
    *,
    admit: bool = True,
    path: str = "<query>",
) -> CompiledPlan:
    """Parse, (optionally) admission-check, and compile one join spec.

    Parameters
    ----------
    sql:
        The spec text.
    admit:
        When true (the default — the front-door contract), run the
        admission battery first and raise :class:`AdmissionError` on any
        unsuppressed finding.  ``admit=False`` compiles whatever lowers,
        for tooling that wants the plan of a rejected spec.
    path:
        Path used in finding locations (the CLI passes the file path).
    """
    if admit:
        from repro.query.rules import QueryAnalyzer

        report = QueryAnalyzer().analyze_source(sql, path)
        if report.error is not None:
            raise CompileError(report.error)
        if report.findings and any(
            not finding.suppressed for finding in report.findings
        ):
            raise AdmissionError(
                [f for f in report.findings if not f.suppressed]
            )
    statement = parse_sql(sql)
    return compile_spec(lower(statement))
