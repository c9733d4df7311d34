"""`repro.query` — the SQL join front door: compile, admit, price.

Parses SQL-ish join specs (``SELECT ... FROM r1 JOIN r2 ON <condition>
[WINDOW ...] [POLICY ...]``) into typed ASTs, statically rejects
anti-patterns through the generalized :mod:`repro.analysis` rule engine
(cross joins, bandless inequality on unbounded windows, shed-into-
unbounded silent loss, float literals against int64 keys, unparseable
specs), lowers admitted specs to the streaming engine's own vocabulary
(:class:`~repro.joins.conditions.JoinCondition`,
:class:`~repro.streaming.window.WindowPolicy`,
:class:`~repro.streaming.pipeline.BackpressurePolicy`), and prices the
resulting plan (:mod:`repro.query.plan`).  Integer literals survive the
whole path exactly — a band width above 2**53 never rounds through float.

Run it as a module::

    python -m repro.query check examples/queries      # exit 1 on findings
    python -m repro.query check specs/ --format json --output report.json
    python -m repro.query plan examples/queries/admitted/band_window.sql

The parser has no dependencies.  Grammar, lowering table and rule
catalogue: ``docs/query.md``.
"""

from repro.query.compiler import (
    AdmissionError,
    CompiledPlan,
    CompileError,
    QuerySpec,
    compile_spec,
    compile_sql,
    lower,
)
from repro.query.nodes import QueryContext, QueryWalker, SelectStmt
from repro.query.parser import ParseError, parse_sql
from repro.query.plan import PlanReport, estimate_plan, format_plan_report
from repro.query.rules import (
    ALL_QUERY_RULES,
    QueryAnalyzer,
    default_query_rules,
)

__all__ = [
    "AdmissionError",
    "CompiledPlan",
    "CompileError",
    "QuerySpec",
    "compile_spec",
    "compile_sql",
    "lower",
    "QueryContext",
    "QueryWalker",
    "SelectStmt",
    "ParseError",
    "parse_sql",
    "PlanReport",
    "estimate_plan",
    "format_plan_report",
    "ALL_QUERY_RULES",
    "QueryAnalyzer",
    "default_query_rules",
]
