"""SUP001: suppression comments must cite rule ids that exist, and waive something.

A suppression that cites a typo'd id -- ``# repro: ignore[TYPO999]`` --
waives nothing, fails no build, and rots silently: the reader believes an
exception was granted while the analyzer never honoured it.  Worse, the
rule it was *meant* to waive fires anyway, and the natural "fix" is to
widen the comment rather than correct the id.  SUP001 makes the typo
itself a finding, at the comment's own position, one finding per unknown
id so multi-rule comments report precisely.

A suppression that waives nothing rots the same way: the code it excused
changed, or the rule it cites never fired there, and the comment now
claims an exception that is not taken -- and would silently waive a new
finding of that rule on the line.  So a cited id the analyzer runs on the
file that waived no finding on the comment's line is a finding too.  Ids
the analyzer does not run (a rule subset, a rule scoped away from the
file) are not judged, and neither is a bare comment, which would waive its
own finding.

The id universe is the union of the running analyzer's registered rules
(``context.known_rule_ids``, set by the engine) and the full Python
catalogue (:data:`repro.analysis.rules.ALL_RULES`) -- so an Analyzer built
with a rule subset, as the fixture tests do, does not flag citations of
catalogue rules it happens not to be running.  Bare-form comments
(``# repro: ignore``) cite nothing and never fire.

This is a file-level rule: it implements :meth:`Rule.check_file` over the
context's scanned :class:`~repro.analysis.engine.SuppressionComment`
records and the waivers the other rules' findings took
(``context.waived``; ``reads_waivers`` runs it after them) instead of
dispatching on AST nodes, which also means it works unchanged for any
dialect the engine checks (the query analyzer registers an instance over
``--``-commented SQL join specs).
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterator

from repro.analysis.engine import Rule, Violation

__all__ = ["UnknownSuppressionRule"]


class UnknownSuppressionRule(Rule):
    """SUP001: a suppression citing an unknown rule id, or waiving nothing, is itself a finding."""

    rule_id: ClassVar[str] = "SUP001"
    name: ClassVar[str] = "unknown or unused suppression"
    description: ClassVar[str] = (
        "suppression comments must cite registered rule ids and waive a "
        "finding -- one that waives nothing rots silently"
    )
    target_node_types: ClassVar["tuple[type[Any], ...]"] = ()
    reads_waivers: ClassVar[bool] = True

    def check(self, node: Any, context: Any) -> Iterator[Violation]:
        """Never called: SUP001 dispatches on files, not nodes."""
        return iter(())

    def check_file(self, context: Any) -> Iterator[Violation]:
        """Flag every cited rule id the analyzer does not know, then every waiver not taken."""
        known = set(context.known_rule_ids)
        try:
            from repro.analysis.rules import ALL_RULES

            known.update(rule_cls.rule_id for rule_cls in ALL_RULES)
        except ImportError:  # pragma: no cover - catalogue always importable
            pass
        for comment in context.suppression_comments:
            if comment.ids is None:
                continue
            for cited in comment.ids:
                if cited not in known:
                    yield Violation(
                        node=None,
                        message=(
                            f"suppression cites unknown rule id {cited!r}; "
                            "it waives nothing -- fix the id or drop it"
                        ),
                        line=comment.line,
                        col=comment.col,
                    )
        # Then every waiver not taken; an unknown id's finding, waived on
        # its line by a SUP001 citation, has been recorded by now.
        waived = context.waived
        for comment in context.suppression_comments:
            for cited in comment.ids or ():
                if cited not in context.known_rule_ids or (comment.line, cited) in waived:
                    continue
                yield Violation(
                    node=None,
                    message=(
                        f"suppression of {cited} waives nothing on this line -- "
                        "drop it, or move it to the finding it excuses"
                    ),
                    line=comment.line,
                    col=comment.col,
                )
