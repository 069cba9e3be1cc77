"""Per-line suppression comments and the meta-rules that police them.

A finding is silenced by an inline comment on the offending line::

    results = {}  # repro: allow[det003] — insertion-ordered dict, keys added deterministically

or, when the line is too long, by a standalone comment directly above it::

    # repro: allow[thr001] — single-writer attribute, readers join() first
    self._sentinel_seen = True

Several rules can share one comment (``allow[det001,det003]``).  The reason
string after the dash is **mandatory**: a suppression without one is itself
a finding (:data:`RULE_MISSING_REASON`), because an unexplained waiver is
indistinguishable from a stale copy-paste.  A suppression that no longer
matches any finding on its target lines is also a finding
(:data:`RULE_STALE`) so waivers cannot outlive the code they excused.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

#: Meta-rule: a suppression comment with an empty reason string.
RULE_MISSING_REASON = "SUP001"
#: Meta-rule: a suppression whose rule no longer fires on its target line.
RULE_STALE = "SUP002"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:[-—–:]+\s*(?P<reason>.*))?$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    path: str
    line: int
    """Line the comment itself sits on."""
    rules: FrozenSet[str]
    """Upper-cased rule ids the comment waives."""
    reason: str
    """The justification after the dash (may be empty — then SUP001 fires)."""
    standalone: bool
    """True when the comment is the only token on its line."""

    def target_lines(self) -> Tuple[int, ...]:
        """Lines this suppression applies to.

        An inline comment covers its own line; a standalone comment covers
        its own line *and* the next one (the statement it annotates).
        """
        if self.standalone:
            return (self.line, self.line + 1)
        return (self.line,)

    def covers(self, rule: str) -> bool:
        """Whether this comment waives findings of ``rule``."""
        return rule.upper() in self.rules


def parse_suppressions(path: str, source: str) -> List[Suppression]:
    """Extract every suppression comment of one module.

    Comments are found with :mod:`tokenize` (not a line regex) so ``#``
    characters inside string literals can never masquerade as waivers.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        if not rules:
            continue
        reason = (match.group("reason") or "").strip()
        standalone = token.line[: token.start[1]].strip() == ""
        suppressions.append(
            Suppression(
                path=path,
                line=token.start[0],
                rules=rules,
                reason=reason,
                standalone=standalone,
            )
        )
    return suppressions


def apply_suppressions(
    findings: Sequence[Finding],
    suppressions: Sequence[Suppression],
    executed_rules: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split raw findings into kept vs. suppressed, and emit meta-findings.

    Returns ``(active, suppressed, meta)`` where ``meta`` holds the SUP001
    findings for reason-less comments and the SUP002 findings for stale
    ones.  Meta-findings are not themselves suppressible — a waiver that
    needs a waiver should simply be deleted.

    ``executed_rules`` (when given) limits staleness detection to rules
    that actually ran: under ``--rules DET001`` a DET003 waiver cannot be
    judged stale, because nothing looked for DET003 findings.
    """
    executed = (
        None
        if executed_rules is None
        else {rule.upper() for rule in executed_rules}
    )
    by_target: Dict[Tuple[str, int], List[Suppression]] = {}
    for suppression in suppressions:
        for line in suppression.target_lines():
            by_target.setdefault((suppression.path, line), []).append(suppression)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    used: Dict[Tuple[str, int, FrozenSet[str]], set] = {}
    for finding in findings:
        matches = [
            suppression
            for suppression in by_target.get((finding.path, finding.line), [])
            if suppression.covers(finding.rule)
        ]
        if matches:
            suppressed.append(finding)
            for suppression in matches:
                key = (suppression.path, suppression.line, suppression.rules)
                used.setdefault(key, set()).add(finding.rule.upper())
        else:
            active.append(finding)

    meta: List[Finding] = []
    for suppression in suppressions:
        if not suppression.reason:
            meta.append(
                Finding(
                    path=suppression.path,
                    line=suppression.line,
                    column=0,
                    rule=RULE_MISSING_REASON,
                    message=(
                        "suppression comment has no reason string; write "
                        "'# repro: allow[rule] — why this is safe'"
                    ),
                )
            )
        key = (suppression.path, suppression.line, suppression.rules)
        fired = used.get(key, set())
        stale_candidates = suppression.rules - fired
        if executed is not None:
            stale_candidates &= executed
        for rule in sorted(stale_candidates):
            meta.append(
                Finding(
                    path=suppression.path,
                    line=suppression.line,
                    column=0,
                    rule=RULE_STALE,
                    message=(
                        f"stale suppression: rule {rule} no longer fires on "
                        "this line; delete the allow comment"
                    ),
                )
            )
    return active, suppressed, meta

