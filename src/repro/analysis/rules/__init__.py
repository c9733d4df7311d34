"""The domain rule battery for :mod:`repro.analysis`.

Eight rule families, one per discipline the repository's tests pin
dynamically (see each module's docstring for the full rationale):

========  ==========================================================
DET001    no direct wall-clock reads outside ``repro.obs``
DET002    no global-RNG calls — thread a seeded ``Generator``
KEY001    no float coercion on join-key dataflow (exact int64 keys)
CONC001   no fork / pickled lambdas / module-level mutable state
API001    complete ``ExecutionBackend`` surfaces, bind-first ordering
STATE001  no ``np.insert`` / ``isin`` / ``ufunc.at`` under streaming
FFI001    no ``ctypes`` / ``cffi``; extensions load in the loader only
SUP001    suppressions cite rule ids that exist, and waive a finding
========  ==========================================================

To add a rule: subclass :class:`repro.analysis.engine.Rule` in a module
here, declare ``target_node_types``, implement ``check``, and append the
class to :data:`ALL_RULES`.  ``docs/static_analysis.md`` walks through an
example.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.api import BackendProtocolRule
from repro.analysis.rules.concurrency import MultiprocessingHygieneRule
from repro.analysis.rules.determinism import DirectClockRule, GlobalRngRule
from repro.analysis.rules.keys import FloatKeyCoercionRule
from repro.analysis.rules.native import NativeCodeRule
from repro.analysis.rules.state import StateCopyRule
from repro.analysis.rules.suppressions import UnknownSuppressionRule

__all__ = [
    "ALL_RULES",
    "default_rules",
    "DirectClockRule",
    "GlobalRngRule",
    "FloatKeyCoercionRule",
    "MultiprocessingHygieneRule",
    "BackendProtocolRule",
    "StateCopyRule",
    "NativeCodeRule",
    "UnknownSuppressionRule",
]

#: Every registered rule class, in catalogue order.
ALL_RULES: "tuple[type[Rule], ...]" = (
    DirectClockRule,
    GlobalRngRule,
    FloatKeyCoercionRule,
    MultiprocessingHygieneRule,
    BackendProtocolRule,
    StateCopyRule,
    NativeCodeRule,
    UnknownSuppressionRule,
)


def default_rules() -> "list[Rule]":
    """One fresh instance of every registered rule."""
    return [rule_cls() for rule_cls in ALL_RULES]
