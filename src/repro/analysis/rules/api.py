"""API001: the ExecutionBackend protocol surface and bind-before-use ordering.

The engine touches join state only through the backend's state-ownership
protocol (``bind`` → per-batch ``count_batch`` / ``evict_state`` /
``install_state``, plus ``drain_channel_bytes``).  The base class
implements all of it in-process; a backend that keeps the state elsewhere
(sticky workers, a forwarding test double) overrides the protocol
instead.  Overriding *part* of it is the bug: a backend whose
``count_batch`` ships arrivals to remote workers while the inherited
``evict_state`` trims an empty in-process table is half remote, and it
only fails at run time on the first stream that happens to evict or
migrate.  Calling the per-batch operations
before ``bind`` is a latent ordering bug of the same kind.  This rule
rejects both statically:

* a class that directly subclasses ``ExecutionBackend`` and overrides
  *any* state-protocol method must override *all* of them (intermediate
  bases like the test-double forwarding backend are subclassed by name,
  not re-checked);
* within one function body, the first ``.bind(...)`` call must precede the
  first per-batch protocol call (``count_batch``/``evict_state``/
  ``install_state``) — functions using only one side of the protocol are
  exempt, since binding and driving legitimately live in
  different engine phases.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["BackendProtocolRule"]

#: The state-ownership protocol surface: override one, override all.  The
#: public methods of ``ExecutionBackend`` minus ``close``
#: (``tests/test_analysis.py`` holds the two equal).
STATE_PROTOCOL = (
    "bind",
    "count_batch",
    "evict_state",
    "install_state",
    "drain_channel_bytes",
)

#: Per-batch protocol operations that must not precede bind in one body.
_AFTER_BIND = frozenset({"count_batch", "evict_state", "install_state"})


class BackendProtocolRule(Rule):
    """API001: whole-or-nothing state protocol; bind before per-batch calls."""

    rule_id = "API001"
    name = "backend protocol surface"
    description = (
        "ExecutionBackend subclasses must override the state-ownership "
        "protocol wholly or not at all, and call sites "
        "must bind before count_batch/evict_state in a function body"
    )
    target_node_types = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Dispatch class-surface and call-ordering checks."""
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(node)
        else:
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from self._check_ordering(node)

    # ------------------------------------------------------------------
    # Class surface
    # ------------------------------------------------------------------
    @staticmethod
    def _base_names(node: ast.ClassDef) -> set[str]:
        names: set[str] = set()
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.add(base.id)
            elif isinstance(base, ast.Attribute):
                names.add(base.attr)
        return names

    @staticmethod
    def _defined(node: ast.ClassDef) -> set[str]:
        """Methods and class attributes defined directly in the body."""
        defined: set[str] = set()
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                defined.add(statement.target.id)
        return defined

    def _check_class(self, node: ast.ClassDef) -> Iterator[Violation]:
        if "ExecutionBackend" not in self._base_names(node):
            return
        defined = self._defined(node)
        overridden = [name for name in STATE_PROTOCOL if name in defined]
        missing = [name for name in STATE_PROTOCOL if name not in defined]
        if overridden and missing:
            yield Violation(
                node,
                f"backend {node.name!r} overrides state-protocol methods "
                f"{overridden} but inherits {missing} from the in-process "
                "default; a half-remote backend diverges on the first "
                "stream that evicts, migrates or resizes -- override the "
                "whole protocol or none of it",
            )

    # ------------------------------------------------------------------
    # Call-site ordering
    # ------------------------------------------------------------------
    def _check_ordering(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Violation]:
        first_bind: "ast.Call | None" = None
        first_batch_op: "ast.Call | None" = None
        first_batch_attr = ""
        for child in ast.walk(node):
            if not (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
            ):
                continue
            attr = child.func.attr
            if attr == "bind" and first_bind is None:
                first_bind = child
            elif attr in _AFTER_BIND and first_batch_op is None:
                first_batch_op = child
                first_batch_attr = attr
        if (
            first_bind is not None
            and first_batch_op is not None
            and first_batch_op.lineno < first_bind.lineno
        ):
            yield Violation(
                first_batch_op,
                f".{first_batch_attr}() is called before .bind() "
                f"in {node.name!r}; the state-ownership protocol requires "
                "the stream binding first",
            )
