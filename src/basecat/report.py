"""Machine-checkable reports: one claim per line, stable ordering.

Exit code 0 means every claim passed; 1 means at least one failed; parse
and usage problems are signalled before a report exists (exit 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import field

from .records import Frozen, Record

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Claim(Frozen):
    claim_id: str
    status: str
    detail: str = ""


class Report(Record):
    command: str
    claims: list[Claim] = field(default_factory=list)

    def add(self, claim_id: str, ok: object, detail: str = "") -> None:
        """Record a claim that passes when ``ok`` is truthy, so a verdict
        (``True``, a witness or a falsy refutation) is passed as it is."""
        self.claims.append(Claim(claim_id, PASS if ok else FAIL, detail))

    def skip(self, claim_id: str, detail: str = "") -> None:
        self.claims.append(Claim(claim_id, SKIP, detail))

    def extend(self, other: "Report") -> None:
        self.claims.extend(other.claims)

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.claims)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> tuple[int, int, int]:
        counts = Counter(c.status for c in self.claims)
        return counts[PASS], counts[FAIL], counts[SKIP]

    def render(self, fmt: str = "machine") -> str:
        if fmt == "machine":
            lines = [f"{c.claim_id}\t{c.status}\t{c.detail}" for c in self.claims]
            return "\n".join(lines) + ("\n" if lines else "")
        passed, failed, skipped = self.counts()
        lines = [f"# {self.command}"]
        for c in self.claims:
            mark = {"pass": "ok", "fail": "FAIL", "skip": "--"}[c.status]
            detail = f"  {c.detail}" if c.detail else ""
            lines.append(f"[{mark:>4}] {c.claim_id}{detail}")
        lines.append(f"# {passed} passed, {failed} failed, {skipped} skipped")
        return "\n".join(lines) + "\n"
