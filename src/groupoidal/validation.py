"""Shared reporting plumbing for the exhaustive axiom validators."""

from __future__ import annotations


class ValidationReport:
    """Collects named violations; the subject is valid iff none were recorded.

    Violations are appended in the (deterministic) order the checks run.
    A check that stops at its first failure records the violation it
    found there, so ``first`` names a true violation, not always the
    lexicographically earliest one.
    """

    def __init__(self, subject):
        self.subject = subject
        self.violations = []

    def add(self, message):
        self.violations.append(message)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    @property
    def first(self):
        return self.violations[0] if self.violations else None

    def summary(self):
        if self.ok:
            return f"{self.subject}: ok"
        shown = "; ".join(self.violations[:3])
        extra = len(self.violations) - 3
        if extra > 0:
            shown += f" (+{extra} more)"
        return f"{self.subject}: {shown}"

    def __repr__(self):
        return f"<ValidationReport {self.summary()}>"


class BoundExceeded(RuntimeError):
    """An enumeration or search refused because the instance is too large."""


def stable(obj):
    """Deterministic rendering for report messages: sets are sorted, so the
    output does not depend on hash randomization."""
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(stable(x) for x in obj)) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(stable(x) for x in obj) + ")"
    return str(obj)
