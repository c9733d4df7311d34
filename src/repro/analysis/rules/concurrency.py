"""CONC001: multiprocessing hygiene for the worker-backed backends.

The process-spawning backends pin forkserver/spawn and ship work to
long-lived workers; three well-known footguns break them in ways that only
surface as deadlocks or unpicklable-task errors on some platforms:

* the ``fork`` start method duplicates the parent's threads' held locks
  into the child — the classic deadlock under a threaded
  ``StreamingPipeline`` (see ``default_mp_context``), named or left to a
  process pool made with no context, which forks on Linux before 3.14;
* lambdas (and other unpicklable callables) submitted to executors or used
  as ``Process`` targets fail to pickle under spawn/forkserver — often only
  on the platform that CI doesn't run;
* module-level *mutable* state in worker-imported modules silently forks
  into per-process copies: each worker mutates its own, nothing is shared,
  and the bug looks like "sometimes the count is wrong".

One rule id covers all three because the discipline is one sentence: worker
processes share nothing implicitly — state is owned (the sticky protocol),
shipped (the shm arena), or constant.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["MultiprocessingHygieneRule"]

#: Executor/pool methods whose callable argument crosses a pickle boundary.
_SUBMIT_METHODS = frozenset({"submit", "map", "map_async", "apply", "apply_async"})

#: Process pools by imported name: the argument (keyword, position) that
#: pins their start method.  A context's own ``ctx.Pool()`` carries its own.
_POOL_CONTEXT_ARGUMENTS = {
    "concurrent.futures.ProcessPoolExecutor": ("mp_context", 1),
    "multiprocessing.Pool": ("context", 4),
    "multiprocessing.pool.Pool": ("context", 4),
}

#: Packages whose modules are imported inside worker processes.
_WORKER_PACKAGES = ("repro/streaming/", "repro/engine/", "repro/joins/")

#: Module-level calls producing mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)


class MultiprocessingHygieneRule(Rule):
    """CONC001: no fork, no lambdas across pickle boundaries, no module globals."""

    rule_id = "CONC001"
    name = "multiprocessing hygiene"
    description = (
        "no 'fork' start method, named or a pool's default, no lambdas "
        "submitted to executors or Process targets, no module-level "
        "mutable state in worker-imported modules"
    )
    target_node_types = (ast.Call, ast.Assign, ast.AnnAssign)

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Dispatch to the three prongs by node type."""
        if isinstance(node, ast.Call):
            yield from self._check_call(node, context)
        else:
            yield from self._check_module_state(node, context)

    # ------------------------------------------------------------------
    # Prong 1+2: fork start method, lambda across pickle boundaries
    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call, context: SourceContext) -> Iterator[Violation]:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        pinning = _POOL_CONTEXT_ARGUMENTS.get(context.resolve(func) or "")
        if pinning is not None:
            keyword, position = pinning
            if len(node.args) <= position and not any(
                given.arg in (keyword, None) for given in node.keywords
            ):
                yield Violation(
                    node,
                    f"{attr}(...) without {keyword}= starts its workers with "
                    "the platform's default start method -- 'fork' on Linux "
                    "before Python 3.14; pass a forkserver or spawn context "
                    "(see default_mp_context)",
                )
            return
        if attr in ("get_context", "set_start_method"):
            first = node.args[0] if node.args else None
            if (
                isinstance(first, ast.Constant)
                and first.value == "fork"
            ):
                yield Violation(
                    node,
                    "'fork' start method inherits the parent's threads' "
                    "held locks and can deadlock a threaded pipeline; pin "
                    "forkserver or spawn (see default_mp_context)",
                )
            return
        if attr in _SUBMIT_METHODS and isinstance(func, ast.Attribute):
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    yield Violation(
                        arg,
                        f"lambda passed to .{attr}() cannot be pickled to "
                        "a spawn/forkserver worker; use a module-level "
                        "function",
                    )
            return
        if attr is not None and attr.endswith("Process"):
            for keyword in node.keywords:
                if keyword.arg == "target" and isinstance(
                    keyword.value, ast.Lambda
                ):
                    yield Violation(
                        keyword.value,
                        "lambda as a Process target cannot be pickled to a "
                        "spawn/forkserver child; use a module-level function",
                    )

    # ------------------------------------------------------------------
    # Prong 3: module-level mutable state in worker-imported modules
    # ------------------------------------------------------------------
    def _check_module_state(
        self, node: ast.AST, context: SourceContext
    ) -> Iterator[Violation]:
        if not any(pkg in context.path for pkg in _WORKER_PACKAGES):
            return
        if not context.parents or not isinstance(context.parents[-1], ast.Module):
            return
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            targets = [node.target]
            value = node.value
        if value is None or not self._is_mutable_literal(value):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            # ALL_CAPS module attributes are constants by convention
            # (registries filled at import time and read-only after), and
            # dunders (__all__, ...) are interpreter-facing metadata;
            # anything else is worker-divergent mutable state.
            if name.strip("_").isupper():
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            yield Violation(
                node,
                f"module-level mutable state {name!r} in a worker-imported "
                "module diverges per process; own it (sticky protocol), "
                "ship it (shm arena), or make it an ALL_CAPS constant",
            )

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        """Literal/comprehension/factory-call mutable containers."""
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            return name in _MUTABLE_FACTORIES
        return False
