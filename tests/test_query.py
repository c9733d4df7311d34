"""Tests for ``repro.query`` — the SQL join front door.

Four layers, mirroring ``tests/test_analysis.py``:

* the parser — grammar shapes, token positions, exact-integer literal
  preservation, and parse errors with positions;
* the compiler — lowering to engine vocabulary (condition kind and
  orientation, window/policy factories), ``CompileError`` on unloadable
  shapes, and the admission gate (``AdmissionError`` carries findings);
* the admission battery — for each QRY rule a violating spec, a clean
  spec and a suppressed spec, plus SUP001 over ``--`` comments (the
  generalized engine end to end);
* the CLI/JSON contract and the ``examples/queries`` fixture directory —
  admitted specs exit 0, every rejected fixture exits 1 with the rule id
  its filename promises (the CI gate's own semantics).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
    make_condition,
)
from repro.query import (
    AdmissionError,
    CompileError,
    ParseError,
    QueryAnalyzer,
    compile_sql,
    default_query_rules,
    estimate_plan,
    parse_sql,
)
from repro.query.cli import main
from repro.query.nodes import BandPredicate, Comparison
from repro.core.weights import WeightFunction
from repro.query.plan import _steady_state, format_plan_report, plan_report_to_json
from repro.streaming import MicroBatch, StaticOneBucketPolicy, StreamingJoinEngine
from repro.streaming.window import ExponentialDecayWindow, SlidingWindow, UnboundedWindow

REPO = Path(__file__).resolve().parent.parent
QUERIES = REPO / "examples" / "queries"

EQUI = "SELECT COUNT(*) FROM r1 JOIN r2 ON r1.key = r2.key"


def rule_ids(report) -> list[str]:
    """Rule ids of the unsuppressed findings, in report order."""
    return [f.rule_id for f in report.findings if not f.suppressed]


def check(sql: str):
    """Run the admission battery over one dedented spec."""
    return QueryAnalyzer().analyze_source(dedent(sql), "specs/q.sql")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
class TestParser:
    def test_equi_shape(self):
        stmt = parse_sql(EQUI)
        assert stmt.projection == "count(*)"
        assert stmt.left.name == "r1"
        assert stmt.join.kind == "inner"
        assert stmt.join.table.name == "r2"
        cond = stmt.join.condition
        assert isinstance(cond, Comparison) and cond.op == "="

    def test_band_abs_and_between_parse_identically(self):
        abs_form = parse_sql(
            "SELECT COUNT(*) FROM a JOIN b ON ABS(a.x - b.y) <= 4"
        ).join.condition
        between = parse_sql(
            "SELECT COUNT(*) FROM a JOIN b ON a.x BETWEEN b.y - 4 AND b.y + 4"
        ).join.condition
        assert isinstance(abs_form, BandPredicate)
        assert isinstance(between, BandPredicate)
        assert abs_form.width.value == between.width.value == 4
        assert (abs_form.form, between.form) == ("abs", "between")

    def test_integer_literal_survives_exactly(self):
        big = 2**53 + 1
        stmt = parse_sql(
            f"SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= {big}"
        )
        width = stmt.join.condition.width
        assert isinstance(width.value, int)
        assert width.value == big
        assert not width.is_float_formed

    def test_float_literal_is_marked(self):
        stmt = parse_sql("SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 2.5")
        assert stmt.join.condition.width.is_float_formed

    def test_trailing_clauses(self):
        stmt = parse_sql(
            EQUI
            + " WINDOW 'batches:8' POLICY 'shed' QUEUE 4"
            + " SCALE 100 DOMAIN 0 TO 10 KEYS FLOAT"
        )
        assert stmt.window.spec == "batches:8"
        assert (stmt.policy.spec, stmt.policy.queue) == ("shed", 4)
        assert stmt.scale.scale == 100.0
        assert (stmt.scale.domain_min, stmt.scale.domain_max) == (0.0, 10.0)
        assert stmt.key_dtype == "float"

    def test_aliases_and_where(self):
        stmt = parse_sql(
            "SELECT * FROM orders AS o1, orders o2 WHERE o1.k = o2.k"
        )
        assert stmt.left.alias == "o1"
        assert stmt.join.kind == "implicit"
        assert isinstance(stmt.join.condition, Comparison)

    def test_case_insensitive_keywords(self):
        stmt = parse_sql("select count(*) from r1 join r2 on r1.k = r2.k")
        assert stmt.join.kind == "inner"

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_sql("SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k ?? r2.k")
        assert excinfo.value.line == 1
        assert excinfo.value.col > 0

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ParseError, match="duplicate WINDOW"):
            parse_sql(EQUI + " WINDOW 'batches:8' WINDOW 'batches:4'")

    def test_on_and_where_conflict(self):
        with pytest.raises(ParseError, match="both ON and WHERE"):
            parse_sql(EQUI + " WHERE r1.k = r2.k")

    def test_between_must_use_one_column_and_width(self):
        with pytest.raises(ParseError, match="one column"):
            parse_sql(
                "SELECT COUNT(*) FROM a JOIN b ON a.x BETWEEN b.y - 2 AND b.z + 2"
            )
        with pytest.raises(ParseError, match="one width"):
            parse_sql(
                "SELECT COUNT(*) FROM a JOIN b ON a.x BETWEEN b.y - 2 AND b.y + 3"
            )


# ---------------------------------------------------------------------------
# Compiler / lowering
# ---------------------------------------------------------------------------
class TestCompiler:
    def test_equi_lowers_to_equi_condition(self):
        plan = compile_sql(EQUI)
        assert isinstance(plan.condition, EquiJoinCondition)
        assert isinstance(plan.window, UnboundedWindow)
        assert plan.policy.name == "block"

    def test_band_width_stays_integer(self):
        big = 2**53 + 1
        plan = compile_sql(
            f"SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= {big}"
        )
        assert isinstance(plan.condition, BandJoinCondition)
        assert isinstance(plan.spec.beta, int)
        assert plan.condition.rule() == ("band", big)

    def test_inequality_orientation_normalises(self):
        forward = compile_sql(
            "SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k < r2.k WINDOW 'batches:4'"
        )
        flipped = compile_sql(
            "SELECT COUNT(*) FROM r1 JOIN r2 ON r2.k > r1.k WINDOW 'batches:4'"
        )
        assert isinstance(forward.condition, InequalityJoinCondition)
        assert forward.condition.op is InequalityOp.LT
        assert flipped.condition.op is InequalityOp.LT

    def test_composite_needs_scale_clause(self):
        sql = (
            "SELECT COUNT(*) FROM a JOIN b ON a.ck = b.ck "
            "AND ABS(a.p - b.p) <= 1 WINDOW 'batches:4'"
        )
        with pytest.raises(CompileError, match="SCALE"):
            compile_sql(sql)
        plan = compile_sql(sql + " SCALE 100 DOMAIN 0 TO 10")
        assert isinstance(plan.condition, CompositeEquiBandCondition)
        assert plan.condition.scale == 100.0

    def test_window_and_policy_materialise(self):
        plan = compile_sql(EQUI + " WINDOW 'tuples:500' POLICY 'coalesce' QUEUE 2")
        assert isinstance(plan.window, SlidingWindow)
        assert plan.policy.name == "coalesce"
        assert plan.queue_batches == 2

    def test_unresolvable_column_rejected(self):
        with pytest.raises(CompileError, match="does not resolve"):
            compile_sql("SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k = r3.k")

    def test_column_vs_literal_is_not_a_join(self):
        with pytest.raises(CompileError, match="filters, not joins"):
            compile_sql(
                "SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k = 3", admit=False
            )

    def test_admission_gate_raises_with_findings(self):
        with pytest.raises(AdmissionError) as excinfo:
            compile_sql("SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k < r2.k")
        assert [f.rule_id for f in excinfo.value.findings] == ["QRY002"]

    def test_admit_false_skips_the_battery(self):
        plan = compile_sql(
            "SELECT COUNT(*) FROM r1 JOIN r2 ON r1.k < r2.k", admit=False
        )
        assert isinstance(plan.condition, InequalityJoinCondition)

    def test_cross_join_cannot_compile_even_unadmitted(self):
        with pytest.raises(CompileError, match="cross join"):
            compile_sql("SELECT COUNT(*) FROM r1 CROSS JOIN r2", admit=False)

    def test_make_condition_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown condition kind"):
            make_condition("theta")


# ---------------------------------------------------------------------------
# Admission rules: violating / clean / suppressed per rule
# ---------------------------------------------------------------------------
class TestAdmissionRules:
    def test_qry001_cross_forms(self):
        assert rule_ids(check("SELECT COUNT(*) FROM r1 CROSS JOIN r2")) == [
            "QRY001"
        ]
        assert rule_ids(check("SELECT COUNT(*) FROM r1, r2")) == ["QRY001"]
        assert rule_ids(
            check("SELECT COUNT(*) FROM r1 JOIN r2 ON TRUE")
        ) == ["QRY001"]
        assert rule_ids(check(EQUI)) == []

    def test_qry001_suppressed(self):
        report = check(
            "SELECT COUNT(*) FROM r1 CROSS JOIN r2"
            " -- repro: ignore[QRY001] -- tiny bounded demo relation\n"
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["QRY001"]

    def test_qry002_bandless_inequality(self):
        bad = "SELECT COUNT(*) FROM a JOIN b ON a.ts < b.ts"
        assert rule_ids(check(bad)) == ["QRY002"]
        assert rule_ids(check(bad + " WINDOW 'unbounded'")) == ["QRY002"]
        assert rule_ids(check(bad + " WINDOW 'batches:4'")) == []
        assert rule_ids(check(bad + " WINDOW 'decay:0.9'")) == []
        # A band condition is exempt: the interval bounds the state.
        assert rule_ids(
            check("SELECT COUNT(*) FROM a JOIN b ON ABS(a.ts - b.ts) <= 5")
        ) == []

    def test_qry003_shed_on_unbounded(self):
        bad = EQUI + " POLICY 'shed'"
        assert rule_ids(check(bad)) == ["QRY003"]
        assert rule_ids(check(EQUI + " WINDOW 'tuples:100' POLICY 'shed'")) == []
        assert rule_ids(check(EQUI + " POLICY 'block'")) == []

    def test_qry004_float_literals(self):
        assert rule_ids(
            check("SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 2.5")
        ) == ["QRY004"]
        # Declared float keys are exempt.
        assert rule_ids(
            check(
                "SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 2.5 "
                "KEYS FLOAT"
            )
        ) == []
        assert rule_ids(
            check("SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 2")
        ) == []

    def test_qry005_spec_strings(self):
        assert rule_ids(check(EQUI + " WINDOW 'bogus:1'")) == ["QRY005"]
        assert rule_ids(check(EQUI + " WINDOW 'batches:8' POLICY 'drop'")) == [
            "QRY005"
        ]
        assert rule_ids(check(EQUI + " WINDOW 'batches:8' POLICY 'shed'")) == []

    def test_sup001_rides_along_over_sql_comments(self):
        report = check(
            EQUI + " -- repro: ignore[TYPO999] -- meant QRY001\n"
        )
        assert rule_ids(report) == ["SUP001"]

    def test_multiple_findings_sort_by_position(self):
        report = check(
            """
            SELECT COUNT(*)
            FROM a JOIN b ON a.ts < b.ts
            POLICY 'shed'
            """
        )
        assert rule_ids(report) == ["QRY002", "QRY003"]

    def test_parse_error_lands_in_report(self):
        report = check("SELECT nonsense")
        assert report.error is not None
        assert "ParseError" in report.error

    def test_every_query_rule_has_distinct_id(self):
        rules = default_query_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids)) == 6
        assert "SUP001" in ids
        for rule in rules:
            assert rule.description


# ---------------------------------------------------------------------------
# Plan estimator
# ---------------------------------------------------------------------------
def mask_steady_state(window, batch_size: int, horizon_batches: int, seed: int):
    """The estimator's window simulation as it ran before it drove an
    ``ArrivalLog``: the live set concatenated and masked once a batch."""
    rng = np.random.default_rng(seed)
    live = np.empty(0, dtype=np.int64)
    batch_starts: list[int] = []
    total = peak = 0
    for _ in range(horizon_batches):
        batch_starts.append(total)
        arrivals = np.arange(total, total + batch_size, dtype=np.int64)
        total += batch_size
        live = np.concatenate([live, arrivals])
        peak = max(peak, len(live))
        if not window.is_unbounded:
            expired = window.evictions(live, batch_starts, total, rng)
            if len(expired):
                keep = np.ones(len(live), dtype=bool)
                keep[np.searchsorted(live, expired)] = False
                live = live[keep]
    return peak, int(window.trim_point(live[0] if len(live) else total))


class SideSeededDecay(ExponentialDecayWindow):
    """A decay window drawing each side's survivals from its own generator.

    The engine expires side 1, then side 2, once a batch, on its shared
    generator; this one answers the calls in turn from two generators
    seeded alike, so side 1 meets the draws a one-sided simulation seeded
    the same way makes.
    """

    def __init__(self, survival: float, seed: int) -> None:
        super().__init__(survival)
        self._rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        self._calls = 0

    def evictions(self, live, batch_starts, total_arrived, rng):
        """The decay's evictions on this side's own generator."""
        side_rng = self._rngs[self._calls % 2]
        self._calls += 1
        return super().evictions(live, batch_starts, total_arrived, side_rng)


class TestPlanEstimator:
    def test_windowed_state_is_bounded(self):
        plan = compile_sql(EQUI + " WINDOW 'batches:4'")
        report = estimate_plan(plan, batch_size=100, horizon_batches=32)
        # Peak is read after arrivals land but before the oldest batch
        # expires, so a 4-batch window holds 5 live batches at its crest.
        assert report.state_bound_tuples == 500
        assert report.state_growth == "O(window)"
        assert report.safe_trim_point > 0

    def test_unbounded_state_grows_with_stream(self):
        plan = compile_sql(EQUI)
        report = estimate_plan(plan, batch_size=100, horizon_batches=32)
        assert report.state_bound_tuples == 3200
        assert report.state_growth == "O(stream)"
        assert report.safe_trim_point == 0

    def test_equi_match_probability_tracks_domain(self):
        plan = compile_sql(EQUI + " WINDOW 'batches:4'")
        report = estimate_plan(plan, key_domain_size=1000, sample_size=4096)
        assert report.match_probability == pytest.approx(1 / 1000, rel=0.5)

    def test_band_probability_scales_with_width(self):
        narrow = estimate_plan(
            compile_sql("SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 1")
        )
        wide = estimate_plan(
            compile_sql("SELECT COUNT(*) FROM a JOIN b ON ABS(a.k - b.k) <= 50")
        )
        assert wide.match_probability > narrow.match_probability

    @pytest.mark.parametrize("window", ["batches:4", "batches:1", "tuples:250", "tuples:64",
                                        "decay:0.9", "decay:0.5", "unbounded"])
    def test_the_window_report_is_an_engines_log(self, window):
        """The estimator's (peak live, trim point) is what an engine's side-1
        log shows on the same arrivals: the live count after each batch
        lands, before it expires, at its most, and the log's base at the
        horizon.  A decay window draws side 1's survivals from the
        estimator's seeded generator here (``SideSeededDecay``), so the two
        logs meet the same draws; the per-batch mask the estimator used to
        run gives the same pair too."""
        batch_size, horizon, seed = 100, 24, 5
        plan = compile_sql(EQUI + ("" if window == "unbounded" else f" WINDOW '{window}'"))
        peak, trim = _steady_state(plan, batch_size, horizon, seed)
        assert (peak, trim) == mask_steady_state(plan.window, batch_size, horizon, seed)
        engine_window = plan.window
        if isinstance(engine_window, ExponentialDecayWindow):
            engine_window = SideSeededDecay(engine_window.survival, seed)
        engine = StreamingJoinEngine(2, plan.condition, WeightFunction(),
                                     policy=StaticOneBucketPolicy(2), window=engine_window)
        engine.start()
        rng = np.random.default_rng(0)
        engine_peak = 0
        for index in range(horizon):
            live = engine._state.log1.live_entries  # 0 where nothing is live-tracked
            keys = rng.integers(0, 1_000, size=(2, batch_size))
            engine.process_batch(MicroBatch(index, keys[0], keys[1]))
            engine_peak = max(engine_peak, live + batch_size)
        log = engine._state.log1
        engine.finish()
        if engine_window.is_unbounded:
            engine_peak = log.retained
        assert (peak, trim) == (engine_peak, log.base)
        assert trim == 0 if engine_window.is_unbounded else 0 < trim < horizon * batch_size

    def test_deterministic_and_renderable(self):
        plan = compile_sql(EQUI + " WINDOW 'decay:0.9'")
        first = estimate_plan(plan, seed=7)
        second = estimate_plan(plan, seed=7)
        assert first == second
        assert "resident state" in format_plan_report(first)
        payload = json.loads(plan_report_to_json(first))
        assert payload["state_growth"] == "O(window)"


# ---------------------------------------------------------------------------
# CLI and JSON contract
# ---------------------------------------------------------------------------
class TestCli:
    def _spec(self, tmp_path, text: str) -> Path:
        spec = tmp_path / "q.sql"
        spec.write_text(dedent(text), encoding="utf-8")
        return spec

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        spec = self._spec(tmp_path, EQUI + " WINDOW 'batches:8'\n")
        assert main(["check", str(spec)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        spec = self._spec(tmp_path, "SELECT COUNT(*) FROM r1 CROSS JOIN r2\n")
        assert main(["check", str(spec)]) == 1
        assert "QRY001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(tmp_path / "missing")])
        assert excinfo.value.code == 2

    def test_json_report_shape(self, tmp_path):
        spec = self._spec(
            tmp_path,
            """
            SELECT COUNT(*)
            FROM a JOIN b ON a.ts < b.ts -- repro: ignore[QRY002] -- demo
            POLICY 'shed'
            """,
        )
        out = tmp_path / "report.json"
        assert (
            main(["check", str(spec), "--format", "json", "--output", str(out)])
            == 1
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is False
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["suppressed_findings"] == 1
        assert [rule["id"] for rule in payload["rules"]] == [
            "QRY001",
            "QRY002",
            "QRY003",
            "QRY004",
            "QRY005",
            "SUP001",
        ]

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("QRY001", "QRY002", "QRY003", "QRY004", "QRY005"):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        spec = self._spec(tmp_path, EQUI + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.query", "check", str(spec)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_plan_subcommand(self, tmp_path, capsys):
        spec = self._spec(tmp_path, EQUI + " WINDOW 'batches:8'\n")
        assert main(["plan", str(spec)]) == 0
        assert "resident state" in capsys.readouterr().out

    def test_plan_subcommand_rejects_inadmissible(self, tmp_path, capsys):
        spec = self._spec(tmp_path, "SELECT COUNT(*) FROM r1 CROSS JOIN r2\n")
        assert main(["plan", str(spec)]) == 1
        assert "QRY001" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The fixture directory CI gates on
# ---------------------------------------------------------------------------
class TestExampleQueries:
    def test_admitted_specs_are_clean(self):
        assert main(["check", str(QUERIES / "admitted")]) == 0

    def test_each_rejected_fixture_fires_its_named_rule(self):
        rejected = sorted((QUERIES / "rejected").glob("*.sql"))
        assert rejected, "no rejected fixtures found"
        analyzer = QueryAnalyzer()
        for spec in rejected:
            expected = spec.name.split("_")[0].upper()
            report = analyzer.analyze_file(spec)
            assert report.error is None, (spec, report.error)
            assert expected in rule_ids(report), (
                f"{spec.name} should fire {expected}, "
                f"got {rule_ids(report)}"
            )

    def test_whole_directory_exits_one(self):
        assert main(["check", str(QUERIES)]) == 1

