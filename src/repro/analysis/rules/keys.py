"""KEY001: the exact-int64 join-key discipline (no float coercion on keys).

PR 5 made integer join keys exact end-to-end: int64 keys above 2**53 must
round-trip through sources, histories, sorted region state and the counting
kernels without value change, because a float64 detour silently collapses
neighbouring keys (the pinned regressions: equi on ``2**53 + 1`` vs
``2**53`` wrongly matched; a band count of 313 vs the exact 237).  This
rule statically rejects the coercions that caused those bugs anywhere on
join-key dataflow in ``repro/joins`` and ``repro/streaming``:

* ``float(<key expression>)`` calls;
* ``<key expression>.astype(float | np.float16/32/64 | "float...")``;
* ``np.asarray(<key expression>, dtype=<float...>)`` (and ``np.array``,
  ``np.ascontiguousarray``);
* ``==`` / ``!=`` comparisons between a key expression and a float literal
  or an explicit ``float(...)`` coercion.

Key dataflow is approximated lexically: an expression participates when its
source text — or the assignment target it feeds — contains ``key`` (case
insensitive).  One structural exemption is built in: the sanctioned
*exact-first* idiom — try ``exact_integer_keys`` / ``normalise_keys``, fall
back to float64 only for genuinely inexact keys — is recognised by the
guard's presence in the enclosing function, so its fallback arm never
flags.  Beyond that the heuristic is deliberately aggressive; genuinely
real-valued key uses (band-condition boundary arithmetic, the histogram's
sample reservoirs, the float-keyed reference joins) carry an inline
``# repro: ignore[KEY001]`` with a justification, which keeps every
deliberate exception enumerable in one ``grep``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["FloatKeyCoercionRule"]

_FLOAT_NAMES = frozenset({"float", "float16", "float32", "float64", "double"})


def _is_float_dtype(node: ast.AST) -> bool:
    """Whether an expression names a float type/dtype statically."""
    if isinstance(node, ast.Name):
        return node.id in _FLOAT_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("float")
    return False


class FloatKeyCoercionRule(Rule):
    """KEY001: no float-coercing operation on join-key dataflow."""

    rule_id = "KEY001"
    name = "float coercion on join keys"
    description = (
        "float()/astype(float)/dtype=float on join-key dataflow collapses "
        "exact int64 keys above 2**53; keep keys in their exact dtype"
    )
    target_node_types = (ast.Call, ast.Compare)
    include = ("repro/joins/", "repro/streaming/")

    #: Names whose presence in the enclosing function marks the sanctioned
    #: exact-first idiom: try :func:`repro.joins.conditions.exact_integer_keys`
    #: (or its total companion ``normalise_keys``), fall back to float64 for
    #: genuinely inexact keys.  The fallback arm is then not a violation.
    exact_guards = frozenset({"exact_integer_keys", "normalise_keys"})

    def _guarded(self, context: SourceContext) -> bool:
        """Whether the enclosing function tries the exact int64 path first."""
        function = context.enclosing(ast.FunctionDef, ast.AsyncFunctionDef)
        if function is None:
            return False
        return any(
            isinstance(child, ast.Name) and child.id in self.exact_guards
            for child in ast.walk(function)
        )

    def _mentions_key(self, node: ast.AST, context: SourceContext) -> bool:
        """Whether the coerced expression is on key dataflow (lexically)."""
        if "key" in context.source_of(node).lower():
            return True
        assign = context.enclosing(ast.Assign, ast.AnnAssign, ast.AugAssign)
        if assign is None:
            return False
        if isinstance(assign, ast.Assign):
            targets = assign.targets
        else:
            targets = [assign.target]
        return any(
            "key" in context.source_of(target).lower() for target in targets
        )

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Flag float coercions and float/key equality comparisons."""
        if self._guarded(context):
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(node, context)
        elif isinstance(node, ast.Compare):
            yield from self._check_compare(node, context)

    def _check_call(self, node: ast.Call, context: SourceContext) -> Iterator[Violation]:
        func = node.func
        # float(<key expr>)
        if (
            isinstance(func, ast.Name)
            and func.id == "float"
            and len(node.args) == 1
            and self._mentions_key(node.args[0], context)
        ):
            yield Violation(
                node,
                "float() on a join-key expression loses int64 exactness "
                "above 2**53",
            )
            return
        # <key expr>.astype(<float dtype>)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and _is_float_dtype(node.args[0])
            and self._mentions_key(func.value, context)
        ):
            yield Violation(
                node,
                "astype(float) on a join-key array loses int64 exactness "
                "above 2**53",
            )
            return
        # np.asarray(<key expr>, dtype=<float>) / np.array(...) / np.ascontiguousarray(...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("asarray", "array", "ascontiguousarray", "full", "zeros", "ones")
            and node.args
        ):
            dtype = next(
                (kw.value for kw in node.keywords if kw.arg == "dtype"), None
            )
            if (
                dtype is not None
                and _is_float_dtype(dtype)
                and self._mentions_key(node.args[0], context)
            ):
                yield Violation(
                    node,
                    f"{func.attr}(..., dtype=float) on a join-key expression "
                    "loses int64 exactness above 2**53",
                )

    def _check_compare(
        self, node: ast.Compare, context: SourceContext
    ) -> Iterator[Violation]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        floats = [operand for operand in operands if self._is_floaty(operand)]
        keys = [
            operand
            for operand in operands
            if "key" in context.source_of(operand).lower()
        ]
        if floats and keys and set(map(id, floats)) != set(map(id, keys)):
            yield Violation(
                node,
                "equality between a join-key expression and a float value "
                "is inexact for int64 keys above 2**53; compare in the "
                "keys' exact dtype",
            )

    @staticmethod
    def _is_floaty(node: ast.AST) -> bool:
        """A float literal or an explicit ``float(...)`` coercion."""
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
