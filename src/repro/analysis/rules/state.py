"""STATE001: no ``O(state)`` array rebuilds or unbuffered scatters in the streaming state path.

The streaming engine's join state, key histories and live sets are touched
on every micro-batch, so anything that copies or sorts a whole retained
array per call makes a batch cost ``O(state)`` instead of ``O(new)`` --
which is exactly how the state layer used to spend most of a batch:

* ``np.insert(array, positions, values)`` allocates and copies the *whole*
  array to add a few entries (54% of an unbounded-stream batch before the
  sorted-run layout of :class:`~repro.streaming.incremental.SortedRegionState`);
* ``np.isin(held, expired)`` re-sorts both arrays on every call (31% of a
  windowed batch before :func:`~repro.streaming.window.surviving`).

This rule flags both calls anywhere under ``repro/streaming`` so neither
grows back.  Append to a run or an arena and merge geometrically instead of
``np.insert``; test membership with ``surviving`` / ``drop_expired`` (a
range check, else one ``searchsorted``) instead of ``np.isin``.

It also flags ``np.add.at`` and every other ``np.<ufunc>.at``: an unbuffered
scatter that handles one element at a time, where the per-batch paths never
scatter (a stream batch's per-machine totals are summed inside the compiled
kernel, ``repro.joins.native.count_half``), and a sum over sorted
segments is one ``np.<ufunc>.reduceat`` over the segment starts, exact and
one buffered pass.  A call that
is genuinely off the per-batch path of every measured workload, or part of
a test oracle, carries an inline ``# repro: ignore[STATE001]`` saying so.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["StateCopyRule"]


class StateCopyRule(Rule):
    """STATE001: ``np.insert`` / ``np.isin`` / ``np.<ufunc>.at`` under ``repro.streaming``."""

    rule_id = "STATE001"
    name = "O(state) array rebuild"
    description = (
        "np.insert copies and np.isin re-sorts a whole retained array per "
        "call, and ufunc.at scatters one element at a time; under "
        "repro.streaming append to a sorted run / arena, test membership "
        "with window.surviving and sum sorted segments with ufunc.reduceat"
    )
    target_node_types = (ast.Call,)
    include = ("repro/streaming/",)

    #: Resolved callables whose every call is an ``O(state)`` copy or sort.
    banned = {
        "numpy.insert": "copies the whole array to add a few entries; append "
        "a sorted run (SortedRegionState) or grow an arena instead",
        "numpy.isin": "re-sorts both arrays on every call; use "
        "repro.streaming.window.surviving / drop_expired instead",
    }

    #: Why every ``numpy.<ufunc>.at`` is flagged.
    scatter_reason = (
        "is an unbuffered scatter, one element per step; the per-batch "
        "paths hold their targets sorted, so reduce each segment with the "
        "ufunc's reduceat instead"
    )

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Flag calls resolving to the banned numpy functions."""
        assert isinstance(node, ast.Call)
        resolved = context.resolve(node.func) or ""
        reason = self.banned.get(resolved)
        if resolved.startswith("numpy.") and resolved.endswith(".at"):
            reason = self.scatter_reason
        if reason is not None:
            yield Violation(node, f"{resolved} {reason}")
