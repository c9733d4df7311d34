"""Tests for ``repro.analysis`` — the static invariant checker.

Three layers:

* per-rule fixtures — for each rule family a violating snippet, a clean
  snippet, and a suppressed snippet, run through
  :meth:`~repro.analysis.engine.Analyzer.analyze_source` with a path that
  puts the rule in scope;
* the engine itself — suppression parsing, import resolution, path
  scoping, parse-error reporting, and the CLI/JSON contract CI builds on;
* the tree gate — the tier-1 check that ``src/repro`` carries zero
  unsuppressed findings, which is the analyzer's whole point: the
  invariants it encodes (clock discipline, seeded RNG, exact int64 keys,
  multiprocessing hygiene, complete backend surfaces) stay true by
  construction on every merge.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (
    ALL_RULES,
    Analyzer,
    default_rules,
    format_findings,
    report_to_json,
)
from repro.analysis.cli import main

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: A path inside every rule's scope (KEY001 includes repro/joins and
#: repro/streaming; CONC001's module-state prong watches the same
#: worker-imported packages; the others apply everywhere outside repro/obs).
IN_SCOPE = "src/repro/streaming/example.py"


def run(source: str, path: str = IN_SCOPE):
    """Analyze one dedented snippet; return the file report."""
    return Analyzer(default_rules()).analyze_source(dedent(source), path)


def rule_ids(report) -> list[str]:
    """Rule ids of the unsuppressed findings, in report order."""
    return [f.rule_id for f in report.findings if not f.suppressed]


# ---------------------------------------------------------------------------
# DET001 — direct clock reads
# ---------------------------------------------------------------------------
class TestDirectClock:
    def test_flags_direct_perf_counter(self):
        report = run(
            """
            import time

            def measure():
                start = time.perf_counter()
                return time.perf_counter() - start
            """
        )
        assert rule_ids(report) == ["DET001", "DET001"]

    def test_flags_datetime_now_and_aliased_import(self):
        report = run(
            """
            import datetime
            import time as t

            def stamp():
                return datetime.datetime.now(), t.time()
            """
        )
        assert rule_ids(report) == ["DET001", "DET001"]

    def test_flags_clock_reference_in_default_argument(self):
        # A bare reference (no call) leaks the clock just the same.
        report = run(
            """
            import time

            def loop(clock=time.perf_counter):
                return clock()
            """
        )
        assert rule_ids(report) == ["DET001"]

    def test_clean_when_importing_from_obs_clock(self):
        report = run(
            """
            from repro.obs.clock import perf_counter

            def measure():
                start = perf_counter()
                return perf_counter() - start
            """
        )
        assert rule_ids(report) == []

    def test_local_variable_named_time_is_not_a_clock(self):
        report = run(
            """
            def elapsed(time):
                return time.perf_counter
            """
        )
        assert rule_ids(report) == []

    def test_obs_package_is_exempt(self):
        report = run(
            """
            import time

            def now():
                return time.perf_counter()
            """,
            path="src/repro/obs/clock.py",
        )
        assert rule_ids(report) == []

    def test_suppressed_with_justification(self):
        report = run(
            """
            import time

            def now():
                return time.time()  # repro: ignore[DET001]  # wall stamp for an artifact name
            """
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["DET001"]


# ---------------------------------------------------------------------------
# DET002 — global RNG
# ---------------------------------------------------------------------------
class TestGlobalRng:
    def test_flags_numpy_global_rng(self):
        report = run(
            """
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """
        )
        assert rule_ids(report) == ["DET002"]

    def test_flags_stdlib_global_rng(self):
        report = run(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )
        assert rule_ids(report) == ["DET002"]

    def test_clean_with_seeded_generator(self):
        report = run(
            """
            import numpy as np

            def sample(n, rng: np.random.Generator):
                rng = rng or np.random.default_rng(0)
                return rng.random(n)
            """
        )
        assert rule_ids(report) == []

    def test_suppression_waives_the_named_rule_only(self):
        report = run(
            """
            import numpy as np
            import time

            def jitter():
                return np.random.rand() + time.time()  # repro: ignore[DET002]  # demo
            """
        )
        # DET002 is waived; the DET001 on the same line is not.
        assert rule_ids(report) == ["DET001"]
        assert [f.rule_id for f in report.findings if f.suppressed] == ["DET002"]


# ---------------------------------------------------------------------------
# KEY001 — float coercion on join keys
# ---------------------------------------------------------------------------
class TestFloatKeyCoercion:
    def test_flags_float_call_astype_and_dtype(self):
        report = run(
            """
            import numpy as np

            def route(keys):
                keys = np.asarray(keys, dtype=np.float64)
                k = float(keys[0])
                return keys.astype(float), k
            """
        )
        assert rule_ids(report) == ["KEY001", "KEY001", "KEY001"]

    def test_flags_ascontiguousarray_to_float(self):
        report = run(
            """
            import numpy as np

            def offer(keys, positions):
                keys = np.ascontiguousarray(keys, dtype=np.float64)
                return keys, np.ascontiguousarray(positions, dtype=np.float64)
            """
        )
        assert rule_ids(report) == ["KEY001"]
        assert "ascontiguousarray" in report.findings[0].message

    def test_flags_float_equality_against_key(self):
        report = run(
            """
            def probe(key):
                return key == 1.5
            """
        )
        assert rule_ids(report) == ["KEY001"]

    def test_clean_outside_join_packages(self):
        report = run(
            """
            import numpy as np

            def route(keys):
                return np.asarray(keys, dtype=np.float64)
            """,
            path="src/repro/core/example.py",
        )
        assert rule_ids(report) == []

    def test_clean_on_non_key_dataflow(self):
        report = run(
            """
            import numpy as np

            def weights(values):
                return np.asarray(values, dtype=np.float64)
            """
        )
        assert rule_ids(report) == []

    def test_exact_first_idiom_is_exempt(self):
        # The sanctioned pattern: try exact int64, fall back to float64.
        report = run(
            """
            import numpy as np
            from repro.joins.conditions import exact_integer_keys

            def normalise(keys):
                exact = exact_integer_keys(keys)
                if exact is not None:
                    return exact
                return np.asarray(keys, dtype=np.float64)
            """
        )
        assert rule_ids(report) == []

    def test_suppressed_with_justification(self):
        report = run(
            """
            def lookup(key):
                return float(key)  # repro: ignore[KEY001]  # float-domain cache key
            """
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["KEY001"]


# ---------------------------------------------------------------------------
# CONC001 — multiprocessing hygiene
# ---------------------------------------------------------------------------
class TestMultiprocessingHygiene:
    def test_flags_fork_start_method(self):
        report = run(
            """
            import multiprocessing

            def make_pool():
                return multiprocessing.get_context("fork")
            """
        )
        assert rule_ids(report) == ["CONC001"]

    def test_flags_lambda_submitted_to_executor(self):
        report = run(
            """
            def ship(executor, payload):
                return executor.submit(lambda: payload + 1)
            """
        )
        assert rule_ids(report) == ["CONC001"]

    def test_flags_lambda_process_target(self):
        report = run(
            """
            import multiprocessing

            def spawn(ctx):
                return ctx.Process(target=lambda: None)
            """
        )
        assert rule_ids(report) == ["CONC001"]

    def test_flags_a_process_pool_left_to_the_default_start_method(self):
        report = run(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            def count(tasks, work):
                with ProcessPoolExecutor(max_workers=2) as pool:
                    pool.map(work, tasks)
                with multiprocessing.Pool(2) as pool:
                    pool.map(work, tasks)
            """
        )
        assert rule_ids(report) == ["CONC001", "CONC001"]

    def test_clean_process_pools_with_a_pinned_context(self):
        report = run(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing.pool import Pool

            def count(tasks, work):
                ctx = multiprocessing.get_context("forkserver")
                with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
                    pool.map(work, tasks)
                with ProcessPoolExecutor(2, ctx) as pool:
                    pool.map(work, tasks)
                with Pool(2, context=ctx) as pool:
                    pool.map(work, tasks)
                with ctx.Pool(2) as pool:
                    pool.map(work, tasks)
            """
        )
        assert rule_ids(report) == []

    def test_flags_module_level_mutable_state(self):
        report = run(
            """
            cache = {}
            """
        )
        assert rule_ids(report) == ["CONC001"]

    def test_clean_forkserver_constants_and_module_functions(self):
        report = run(
            """
            import multiprocessing

            REGISTRY = {}

            def work(payload):
                return payload + 1

            def spawn(executor):
                multiprocessing.get_context("forkserver")
                return executor.submit(work, 1)
            """
        )
        assert rule_ids(report) == []

    def test_module_state_prong_only_in_worker_packages(self):
        report = run(
            """
            cache = {}
            """,
            path="src/repro/bench/example.py",
        )
        assert rule_ids(report) == []

    def test_suppressed_with_justification(self):
        report = run(
            """
            registry = {}  # repro: ignore[CONC001]  # filled at import, read-only after
            """
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["CONC001"]


# ---------------------------------------------------------------------------
# API001 — backend protocol surface and bind ordering
# ---------------------------------------------------------------------------
class TestBackendProtocol:
    def test_the_rule_knows_the_backend_protocol(self):
        """``STATE_PROTOCOL`` is a hand-kept copy: it must not go stale."""
        from repro.analysis.rules.api import STATE_PROTOCOL
        from repro.streaming import ExecutionBackend

        public = {
            name
            for name, value in vars(ExecutionBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert set(STATE_PROTOCOL) == public - {"close"}
        assert len(STATE_PROTOCOL) == 5

    def test_flags_sticky_backend_missing_surface(self):
        # "Sticky" as in: state kept remotely -- a partial override is half remote.
        report = run(
            """
            class HalfRemoteBackend(ExecutionBackend):
                def bind(self, *args):
                    return None

                def count_batch(self, *args):
                    return None
            """
        )
        findings = [f for f in report.findings if not f.suppressed]
        assert rule_ids(report) == ["API001"]
        assert "evict_state" in findings[0].message
        assert "drain_channel_bytes" in findings[0].message

    def test_clean_in_process_backend_overrides_nothing(self):
        report = run(
            """
            class PoolBackend(ExecutionBackend):
                name = "pool"
            """
        )
        assert rule_ids(report) == []

    def test_clean_full_sticky_surface(self):
        methods = "\n".join(
            f"    def {name}(self, *args):\n        return None"
            for name in (
                "bind",
                "count_batch",
                "evict_state",
                "install_state",
                "drain_channel_bytes",
            )
        )
        report = run(f"class FullBackend(ExecutionBackend):\n{methods}\n")
        assert rule_ids(report) == []

    def test_full_protocol_minus_drain_channel_bytes_is_half_remote(self):
        methods = "\n".join(
            f"    def {name}(self, *args):\n        return None"
            for name in (
                "bind",
                "count_batch",
                "evict_state",
                "install_state",
            )
        )
        report = run(f"class OldSticky(ExecutionBackend):\n{methods}\n")
        assert rule_ids(report) == ["API001"]

    def test_flags_count_batch_before_bind(self):
        report = run(
            """
            def drive(backend, batch):
                backend.count_batch(batch)
                backend.bind(batch.stream)
            """
        )
        assert rule_ids(report) == ["API001"]

    def test_clean_bind_before_count_batch(self):
        report = run(
            """
            def drive(backend, batch):
                backend.bind(batch.stream)
                backend.count_batch(batch)
            """
        )
        assert rule_ids(report) == []

    def test_one_sided_functions_are_exempt(self):
        report = run(
            """
            def count_only(backend, batch):
                return backend.count_batch(batch)
            """
        )
        assert rule_ids(report) == []

    def test_suppressed_with_justification(self):
        report = run(
            """
            class ProtoBackend(ExecutionBackend):  # repro: ignore[API001]  # doc-only stub
                def count_batch(self, *args):
                    return None
            """
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["API001"]


# ---------------------------------------------------------------------------
# STATE001 — no O(state) array rebuilds under repro.streaming
# ---------------------------------------------------------------------------
class TestStateCopy:
    def test_flags_insert_and_isin_through_any_alias(self):
        report = run(
            """
            import numpy
            import numpy as np
            from numpy import isin as member

            def merge(state, positions, new, expired):
                state = np.insert(state, positions, new)
                keep = ~numpy.isin(state, expired)
                return state[keep & ~member(state, expired)]
            """
        )
        assert rule_ids(report) == ["STATE001"] * 3
        assert "numpy.insert" in report.findings[0].message
        assert "surviving" in report.findings[1].message

    def test_flags_unbuffered_ufunc_scatters(self):
        report = run(
            """
            import numpy as np
            from numpy import maximum

            def sum_halves(halves, peaks, owners, values):
                np.add.at(halves, owners, values)
                maximum.at(peaks, owners, values)
                return np.add.reduceat(values, owners)  # the exact, buffered way
            """
        )
        assert rule_ids(report) == ["STATE001"] * 2
        assert "numpy.add.at" in report.findings[0].message
        assert "reduceat" in report.findings[0].message
        assert "numpy.maximum.at" in report.findings[1].message

    def test_clean_with_runs_and_the_membership_primitive(self):
        report = run(
            """
            import numpy as np
            from repro.streaming.window import surviving

            def evict(index, expired, insert):
                insert(index)  # a local named like the banned call is fine
                return index[surviving(index, expired)]
            """
        )
        assert rule_ids(report) == []

    def test_only_the_streaming_package_is_in_scope(self):
        source = """
            import numpy as np

            def calibrate(state, where, new):
                return np.insert(state, where, new)
            """
        assert rule_ids(run(source, "src/repro/bench/example.py")) == []
        assert rule_ids(run(source)) == ["STATE001"]

    def test_suppression_needs_the_rule_id(self):
        report = run(
            """
            import numpy as np

            def mirror(held, incoming):
                return np.insert(held, np.searchsorted(held, incoming), incoming)  # repro: ignore[STATE001]  # off the measured path
            """
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["STATE001"]


# ---------------------------------------------------------------------------
# FFI001 — native code only through the count kernel's loader
# ---------------------------------------------------------------------------
class TestNativeCode:
    def test_flags_every_foreign_function_interface(self):
        report = run(
            """
            import ctypes
            import ctypes.util as util
            from _ctypes import dlopen
            import cffi
            import numpy as np

            def load(path):
                return np.ctypeslib.load_library(path, ".")
            """,
            "src/repro/engine/example.py",
        )
        assert rule_ids(report) == ["FFI001"] * 5
        assert "ctypes" in report.findings[0].message
        assert "repro.joins.native" in report.findings[0].message
        assert "numpy.ctypeslib.load_library" in report.findings[4].message

    def test_flags_from_imports_of_the_numpy_loader(self):
        report = run("from numpy.ctypeslib import load_library\nfrom numpy import ctypeslib\n")
        assert rule_ids(report) == ["FFI001"] * 2

    def test_clean_without_ffi(self):
        report = run(
            """
            import numpy as np
            from repro.joins import native

            def count_path(keys):
                ctypes = keys.copy()  # a local named like the module is fine
                return native.SOURCE, np.sort(ctypes)
            """
        )
        assert rule_ids(report) == []

    def test_the_kernel_loader_is_the_one_exception(self):
        source = "from importlib.machinery import ExtensionFileLoader\n"
        assert rule_ids(run(source, "src/repro/joins/native.py")) == []
        assert rule_ids(run(source, "src/repro/joins/local.py")) == ["FFI001"]

    def test_flags_ctypes_in_the_kernel_loader_too(self):
        # The loader loads an extension module: it needs no FFI either.
        source = "import ctypes\nLIBRARY = ctypes.CDLL\n"
        assert rule_ids(run(source, "src/repro/joins/native.py")) == ["FFI001"]
        report = run(
            """
            import importlib.machinery

            LOADER = importlib.machinery.ExtensionFileLoader
            """,
            "src/repro/engine/example.py",
        )
        assert rule_ids(report) == ["FFI001"]
        assert "importlib.machinery.ExtensionFileLoader" in report.findings[0].message

    def test_clean_importlib_without_the_extension_loader(self):
        report = run(
            """
            import importlib
            import importlib.util
            from importlib.machinery import SourceFileLoader

            def load(name, path):
                spec = importlib.util.spec_from_loader(name, SourceFileLoader(name, path))
                return importlib.import_module(name), spec
            """,
            "src/repro/engine/example.py",
        )
        assert rule_ids(report) == []


# ---------------------------------------------------------------------------
# SUP001 — suppression comments must cite rule ids that exist
# ---------------------------------------------------------------------------
class TestUnknownSuppression:
    def test_flags_typo_rule_id(self):
        report = run(
            """
            import time

            START = time.time()  # repro: ignore[TYPO999]  # meant DET001
            """
        )
        # The typo waives nothing, so DET001 still fires alongside SUP001.
        assert sorted(rule_ids(report)) == ["DET001", "SUP001"]
        sup = [f for f in report.findings if f.rule_id == "SUP001"][0]
        assert "TYPO999" in sup.message
        assert sup.line == 4

    def test_multi_rule_comment_reports_each_unknown_id(self):
        report = run(
            """
            import time

            START = time.time()  # repro: ignore[DET001, TYPO999, NOPE123]  # why
            """
        )
        # DET001 is validly waived; each unknown id is its own finding.
        messages = [f.message for f in report.findings if f.rule_id == "SUP001"]
        assert len(messages) == 2
        assert any("TYPO999" in m for m in messages)
        assert any("NOPE123" in m for m in messages)
        assert [f.rule_id for f in report.findings if f.suppressed] == ["DET001"]

    def test_bare_form_never_fires(self):
        report = run(
            """
            import time

            START = time.time()  # repro: ignore  # blanket waiver cites nothing
            """
        )
        assert rule_ids(report) == []

    def test_known_ids_are_clean(self):
        report = run(
            """
            import time

            START = time.time()  # repro: ignore[DET001]  # justified
            """
        )
        assert rule_ids(report) == []

    def test_catalogue_ids_known_even_under_rule_subset(self):
        # An Analyzer running only SUP001 must still accept citations of
        # catalogue rules it is not running (the fixture-test pattern).
        from repro.analysis.rules import UnknownSuppressionRule

        analyzer = Analyzer([UnknownSuppressionRule()])
        report = analyzer.analyze_source(
            "x = 1  # repro: ignore[DET001]  # cited, not running\n", IN_SCOPE
        )
        assert rule_ids(report) == []

    def test_flags_a_suppression_that_waives_nothing(self):
        report = run(
            """
            import time

            START = time.time()  # repro: ignore[DET001, DET002]  # DET002 never fires here
            END = 1  # repro: ignore[DET001]  # nothing to waive
            """
        )
        assert rule_ids(report) == ["SUP001"] * 2
        assert [f.line for f in report.findings if not f.suppressed] == [4, 5]
        messages = [f.message for f in report.findings if not f.suppressed]
        assert "DET002 waives nothing" in messages[0]
        assert "DET001 waives nothing" in messages[1]

    def test_clean_when_every_suppression_waives_a_finding(self):
        # A rule that does not run on the file is not judged: KEY001 is
        # scoped to repro/joins and repro/streaming.
        report = run(
            """
            import time

            START = time.time()  # repro: ignore[DET001, KEY001]  # justified
            """,
            "src/repro/engine/example.py",
        )
        assert rule_ids(report) == []
        assert [f.rule_id for f in report.findings if f.suppressed] == ["DET001"]

    def test_sup001_typo_is_not_waived_by_its_own_comment(self):
        # Listing the typo'd id does not license it; an explicit SUP001
        # citation on the line does.
        report = run("x = 1  # repro: ignore[TYPO999]  # no such rule\n")
        assert rule_ids(report) == ["SUP001"]
        waived = run(
            "x = 1  # repro: ignore[TYPO999, SUP001]  # documenting the demo\n"
        )
        assert rule_ids(waived) == []
        assert [f.rule_id for f in waived.findings if f.suppressed] == ["SUP001"]


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------
class TestEngine:
    def test_bare_suppression_waives_all_rules(self):
        report = run(
            """
            import time

            def now():
                return time.time()  # repro: ignore  # legacy line, bulk-waived
            """
        )
        assert rule_ids(report) == []
        assert len(report.findings) == 1 and report.findings[0].suppressed

    def test_suppression_applies_across_multiline_nodes(self):
        report = run(
            """
            import numpy as np

            def sample(n):
                return np.random.normal(
                    0.0,  # repro: ignore[DET002]  # mid-call comment still counts
                    1.0,
                    n,
                )
            """
        )
        assert rule_ids(report) == []

    def test_parse_error_is_reported_not_raised(self):
        analyzer = Analyzer(default_rules())
        report = analyzer.analyze_source("def broken(:\n", IN_SCOPE)
        assert report.error is not None
        assert report.findings == []

    def test_findings_are_sorted_by_position(self):
        report = run(
            """
            import time

            def b():
                return time.time()

            def a():
                return time.perf_counter()
            """
        )
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)

    def test_analyze_paths_recurses_directories(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "streaming"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import time\nSTART = time.time()\n", encoding="utf-8"
        )
        (pkg / "good.py").write_text("x = 1\n", encoding="utf-8")
        report = Analyzer(default_rules()).analyze_paths([tmp_path])
        assert len(report.files) == 2
        assert rule_ids(report) == ["DET001"]
        assert not report.ok

    def test_every_rule_has_distinct_id_and_description(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 8
        for rule in ALL_RULES:
            assert rule.description


# ---------------------------------------------------------------------------
# CLI and JSON report
# ---------------------------------------------------------------------------
class TestCli:
    def _tree(self, tmp_path: Path, source: str) -> Path:
        pkg = tmp_path / "src" / "repro" / "streaming"
        pkg.mkdir(parents=True)
        target = pkg / "example.py"
        target.write_text(dedent(source), encoding="utf-8")
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\n")
        assert main([str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = self._tree(
            tmp_path, "import time\nSTART = time.time()\n"
        )
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "example.py" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "does-not-exist")])
        assert excinfo.value.code == 2

    def test_json_report_shape(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            import time

            START = time.time()
            STOP = time.time()  # repro: ignore[DET001]  # demo suppression
            """,
        )
        out = tmp_path / "report.json"
        assert main([str(root), "--format", "json", "--output", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is False
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["suppressed_findings"] == 1
        assert payload["summary"]["suppression_comments"] == 1
        assert [rule["id"] for rule in payload["rules"]] == [
            "API001",
            "CONC001",
            "DET001",
            "DET002",
            "FFI001",
            "KEY001",
            "STATE001",
            "SUP001",
        ]
        statuses = {f["suppressed"] for f in payload["findings"]}
        assert statuses == {True, False}

    def test_json_report_is_deterministic(self, tmp_path):
        root = self._tree(tmp_path, "import time\nSTART = time.time()\n")
        analyzer = Analyzer(default_rules())
        first = report_to_json(analyzer.analyze_paths([root]), default_rules())
        second = report_to_json(analyzer.analyze_paths([root]), default_rules())
        assert first == second

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "KEY001", "CONC001", "API001", "STATE001"):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        root = self._tree(tmp_path, "x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(root)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_show_suppressed_lists_waived_findings(self, tmp_path, capsys):
        root = self._tree(
            tmp_path,
            "import time\nSTART = time.time()  # repro: ignore[DET001]  # demo\n",
        )
        assert main([str(root), "--show-suppressed"]) == 0
        assert "DET001" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The tree gate (tier 1)
# ---------------------------------------------------------------------------
class TestSourceTree:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        report = Analyzer(default_rules()).analyze_paths([SRC_ROOT])
        problems = [
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.unsuppressed
        ]
        assert report.errors == [], report.errors
        assert problems == [], "\n" + "\n".join(problems)

    def test_src_repro_report_renders(self):
        report = Analyzer(default_rules()).analyze_paths([SRC_ROOT])
        text = format_findings(report)
        assert "file(s) scanned" in text
        json.loads(report_to_json(report, default_rules()))

    def test_suppression_inventory_only_shrinks(self):
        # A ratchet, not a target: lower the bound when a suppression goes,
        # never raise it for new code.  (It rose once, from 12 to 14, when
        # KEY001 learned np.ascontiguousarray: two coercions it had missed
        # were already there, each with its reason.)  The join-state layer
        # has none left -- no engine side copy of the state (STATE001)
        # survives under streaming/.
        report = Analyzer(default_rules()).analyze_paths([SRC_ROOT])
        assert report.suppression_count <= 14
        state_copies = [
            finding.location()
            for finding in report.suppressed
            if finding.rule_id == "STATE001"
            and "streaming" in Path(finding.path).parts
        ]
        assert state_copies == []

    def test_every_suppression_carries_a_justification(self):
        # Discipline: `# repro: ignore[RULE]` must be followed by a second
        # `#`-comment explaining why, so exceptions stay auditable.  Only
        # real COMMENT tokens count — docstrings may mention the syntax.
        import io
        import tokenize

        bad: list[str] = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type != tokenize.COMMENT:
                    continue
                marker = token.string.find("repro: ignore")
                if marker == -1:
                    continue
                tail = token.string[marker + len("repro: ignore"):]
                tail = tail.split("]", 1)[1] if "]" in tail else tail
                if "#" not in tail:
                    bad.append(f"{path}:{token.start[0]}")
        assert bad == [], f"suppressions without a why-comment: {bad}"
