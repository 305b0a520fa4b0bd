"""Correctness gate: compare a command's JSON reports with expected values."""
from __future__ import annotations

import json

from workloads import Command

_MISSING = object()


def _lookup(report: dict, key: str):
    scope, _, field = key.partition(".")
    if scope == "inputs":
        return report.get("inputs", {}).get(field, _MISSING)
    for check in report.get("checks", []):
        if check.get("name") == scope:
            return check.get("details", {}).get(field, _MISSING)
    return _MISSING


def check_command(command: Command, returncode: int, stdout: str) -> list[str]:
    """Every way the command's result differs from what is expected.

    An empty list means the exit code is 0, every report has the expected
    command name and overall status "pass", and every expected value
    matches exactly.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        reports = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return problems + [f"unreadable report: {exc}"]
    if len(reports) != len(command.expect):
        problems.append(f"{len(reports)} reports, expected {len(command.expect)}")
    for i, (report, expect) in enumerate(zip(reports, command.expect)):
        if report.get("command") != command.command:
            problems.append(f"report {i}: command {report.get('command')!r}")
        if report.get("overall") != "pass":
            problems.append(f"report {i}: overall {report.get('overall')!r}")
        for key, want in expect.items():
            got = _lookup(report, key)
            if got is _MISSING:
                problems.append(f"report {i}: {key} missing")
            elif got != want:
                problems.append(f"report {i}: {key} = {got!r}, expected {want!r}")
    return problems
