"""Structured verification reports with a stable JSON shape.

Every verifier in the package returns a :class:`Report`: a command name, a
record of the inputs, and a list of named checks, each carrying a status
(``pass``, ``violated``, ``vacuous`` or ``skipped``), a stable anchor
identifier, and a details object with the witnessing numbers.  The overall
status is ``pass`` exactly when no check is ``violated``; vacuous checks are
reported as such, never silently upgraded to passes.

The JSON rendering is bit-stable: field names and their order never change,
so reports can be diffed across runs.
"""

from __future__ import annotations

import json

__all__ = ["Check", "Report", "STATUSES"]

STATUSES = ("pass", "violated", "vacuous", "skipped")


class Check:
    """One named check: its status, anchor and witnessing details."""

    __slots__ = ("name", "status", "paper_anchor", "details")

    def __init__(
        self, name: str, status: str, paper_anchor: str, details: dict
    ) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown check status {status!r}")
        self.name = name
        self.status = status
        self.paper_anchor = paper_anchor
        self.details = details

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "paper_anchor": self.paper_anchor,
            "details": self.details,
        }


class Report:
    """A command name, a record of its inputs, and its checks in order."""

    __slots__ = ("command", "inputs", "checks")

    def __init__(self, command: str, inputs: dict) -> None:
        self.command = command
        self.inputs = inputs
        self.checks: list[Check] = []

    def add(
        self, name: str, status: str, anchor: str, details: dict | None = None
    ) -> Check:
        check = Check(name, status, anchor, details or {})
        self.checks.append(check)
        return check

    def require(
        self, name: str, ok: bool, anchor: str, details: dict | None = None
    ) -> Check:
        """Add a check whose status is pass/violated from a boolean."""
        return self.add(name, "pass" if ok else "violated", anchor, details)

    @property
    def overall(self) -> str:
        bad = any(c.status == "violated" for c in self.checks)
        return "violated" if bad else "pass"

    @property
    def exit_code(self) -> int:
        return 0 if self.overall == "pass" else 1

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def human(self) -> str:
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"== {self.command} =="]
        for key, value in self.inputs.items():
            lines.append(f"   {key}: {value}")
        for c in self.checks:
            detail = ", ".join(f"{k}={v}" for k, v in c.details.items())
            tag = c.status.upper().ljust(8)
            lines.append(f" {tag} {c.name.ljust(width)}  {detail}")
        lines.append(f" overall: {self.overall}")
        return "\n".join(lines)
