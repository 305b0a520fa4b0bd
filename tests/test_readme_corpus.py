"""Report invariants of every README command, pinned against a data file.

Each command runs in-process through ``cli_dispatch`` with ``--json``.  The
corpus keeps the exit code, ``overall``, every check's status and every
order, series and count in ``inputs`` and ``details``.  It leaves out
witnesses (permutations, point bijections, block systems), so an algorithm
swap that picks other but equally valid witnesses still passes.

Regenerate the data file, only when a report is meant to change, with

    PYTHONPATH=src python3 tests/test_readme_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from amalgamlab.cli import cli_dispatch
from amalgamlab.graphs import catalog_graph
from amalgamlab.perm import format_group_file

from conftest import format_graph

DATA = Path(__file__).resolve().parent / "data" / "readme_corpus.json"

# The README's command list, in order.  The files g.txt and g.grp hold the
# Tutte–Coxeter graph and its automorphism group; `graph autos g.txt` adds
# the automorphism search on a graph file.
COMMANDS = [
    "action build-pairs --n 4 --out pairs4.grp",
    "action classify --pairs 4",
    "action classify --group pairs4.grp",
    "lemma verify --n 4..8",
    "graph catalog",
    "graph autos tutte-coxeter",
    "graph balls tutte-coxeter --x 0 --radius 3",
    "graph coset heawood",
    "amalgam extract tutte-coxeter --edge 0,1",
    "amalgam faithful tutte-coxeter",
    "amalgam cores tutte-coxeter --depth 3",
    "construct section4 --h tutte-coxeter --depth 3",
    "verify theorem --n 4 --construct tutte-coxeter",
    "verify theorem --n 3",
    "verify theorem --n 4 --graph g.txt --group g.grp --edge 0,1",
    "trace claims --n 4 --construct tutte-coxeter",
    "check hauptlemma --n 4 --construct tutte-coxeter --k trivial",
    "graph autos g.txt",
]

WITNESS_KEYS = {"witness", "generators", "block_system"}


def _invariants(value):
    if isinstance(value, dict):
        return {
            k: _invariants(v) for k, v in value.items() if k not in WITNESS_KEYS
        }
    if isinstance(value, list):
        return [_invariants(v) for v in value]
    return value


def _entry(report: dict) -> dict:
    return {
        "command": report["command"],
        "overall": report["overall"],
        "inputs": _invariants(report["inputs"]),
        "checks": [
            {
                "name": c["name"],
                "status": c["status"],
                "details": _invariants(c["details"]),
            }
            for c in report["checks"]
        ],
    }


def run_corpus(workdir: Path) -> list[dict]:
    """Run every command in ``workdir``; one invariant record per command."""
    tc = catalog_graph("tutte-coxeter")
    (workdir / "g.txt").write_text(format_graph(tc.graph))
    (workdir / "g.grp").write_text(
        format_group_file(tc.group.degree, tc.group.generators)
    )
    records = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_dispatch(command.split() + ["--json"])
            records.append(
                {
                    "argv": command,
                    "exit": code,
                    "stderr": err.getvalue(),
                    "reports": [
                        _entry(json.loads(line))
                        for line in out.getvalue().splitlines()
                    ],
                }
            )
    finally:
        os.chdir(cwd)
    return records


def test_readme_commands_match_corpus(tmp_path):
    expected = json.loads(DATA.read_text())
    actual = run_corpus(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, got["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = run_corpus(Path(tmp))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {DATA}", file=sys.stderr)
