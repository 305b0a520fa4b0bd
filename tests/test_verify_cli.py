"""Theorem verifiers, proof trace, hypothesis checks and the CLI contract."""

import argparse
import contextlib
import fcntl
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import amalgamlab
from amalgamlab.actions import classify_action
from amalgamlab.amalgams import amalgam_from_pair, inflate_amalgam
from amalgamlab.cli import build_parser, cli_dispatch
from amalgamlab.errors import WitnessError
from amalgamlab.graphs import catalog_graph, coset_graph, format_graph, pair_instance
from amalgamlab.group import PermGroup, generate_group, symmetric_group, trivial_group
from amalgamlab.pairs import build_ordered_pairs
from amalgamlab.perm import format_group_file, parse_permutation
from amalgamlab.report import Check
from amalgamlab.structure import o_p
from amalgamlab.verify import (
    _CLAIM_NAMES,
    PRIME_TABLE,
    certify_local,
    edge_context,
    hauptlemma_check,
    proof_trace,
    regular_base_instance,
    theorem_radius,
    verify_theorem,
)


REPO_ROOT = Path(__file__).resolve().parents[1]


def perm(text, degree=None):
    return parse_permutation(text, degree)


def section4_amalgam(name):
    base = build_ordered_pairs(4).group
    seed = classify_action(base).witnesses["quasiprimitive"]
    inst = catalog_graph(name)
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    return inflate_amalgam(base, seed, h).amalgam


# -- radius table ---------------------------------------------------------------


def test_theorem_radius_table():
    assert theorem_radius(3) == 1
    assert theorem_radius(4) == 3
    assert theorem_radius(5) == 2
    assert theorem_radius(6) == 3
    assert theorem_radius(7) == 2
    assert theorem_radius(50) == 2


def test_prime_table():
    assert PRIME_TABLE == {(4, 2), (5, 3), (6, 2)}


# -- edge contexts ----------------------------------------------------------------


def test_edge_context_graph_and_amalgam_routes_agree():
    inst = regular_base_instance()
    y = inst.graph.neighbors(0)[0]
    via_graph = edge_context(inst, 3, edge=(0, y))
    am = amalgam_from_pair(inst, 0, y)
    via_amalgam = edge_context(am, 3)
    assert via_graph.amalgam.a.order() == via_amalgam.amalgam.a.order()
    assert via_graph.amalgam.b.order() == via_amalgam.amalgam.b.order()
    assert via_graph.amalgam.c_in_a.order() == via_amalgam.amalgam.c_in_a.order()
    assert via_graph.valency == via_amalgam.valency
    assert [g.order() for g in via_graph.vertex_cores] == [
        g.order() for g in via_amalgam.vertex_cores
    ]
    assert [g.order() for g in via_graph.edge_cores] == [
        g.order() for g in via_amalgam.edge_cores
    ]


def test_edge_context_rejects_bad_inputs():
    inst = catalog_graph("petersen")
    non_neighbor = next(
        v
        for v in range(10)
        if v != 0 and not inst.graph.has_edge(0, v)
    )
    with pytest.raises(WitnessError):
        edge_context(inst, 2, edge=(0, non_neighbor))
    am = section4_amalgam("k4")
    with pytest.raises(WitnessError):
        edge_context(am, 2, edge=(0, 1))  # amalgams carry their own edge


def test_edge_context_passes_a_built_context_through():
    ctx = edge_context(section4_amalgam("k4"), 2)
    assert edge_context(ctx, 2) is ctx
    assert edge_context(ctx, 1) is ctx
    with pytest.raises(WitnessError):
        edge_context(ctx, 3)  # holds cores to depth 2 only
    with pytest.raises(WitnessError):
        edge_context(ctx, 1, edge=(0, 1))  # its amalgam fixes the edge


def test_certify_local_positive_and_negative():
    tc = section4_amalgam("tutte-coxeter")
    ctx = edge_context(tc, 3)
    ref = certify_local(ctx, 4)
    assert ref is not None
    assert len(ref.witness) == ctx.valency == 12
    assert sorted(ref.witness) == list(range(12))
    assert certify_local(ctx, 5) is None  # valency 20 expected, not 12


# -- verify_theorem ----------------------------------------------------------------


def test_verify_theorem_on_all_section4_amalgams():
    sharp_cases = {"tutte-coxeter": True, "k4": False}
    for name in ("k4", "k33", "petersen", "heawood", "tutte-coxeter"):
        report = verify_theorem(section4_amalgam(name), 4)
        assert report.overall == "pass", (name, report.to_json())
        assert report.exit_code == 0
        by_name = {c.name: c for c in report.checks}
        triviality = by_name["stabilizer-triviality"]
        assert triviality.details["radius"] == 3
        assert triviality.details["vertex_core_orders"][-1] == 1
        if name in sharp_cases:
            assert triviality.details["sharp"] is sharp_cases[name]


def test_verify_theorem_tutte_coxeter_details():
    report = verify_theorem(section4_amalgam("tutte-coxeter"), 4)
    by_name = {c.name: c for c in report.checks}
    assert by_name["locally-reference"].status == "pass"
    details = by_name["stabilizer-triviality"].details
    assert details["vertex_core_orders"] == [8, 2, 1]
    assert details["sharp"] is True


def test_verify_theorem_regular_branch():
    inst = regular_base_instance()
    assert inst.graph.vertex_count == 20
    assert inst.group.order() == 120
    report = verify_theorem(inst, 3)
    assert report.overall == "pass"
    by_name = {c.name: c for c in report.checks}
    details = by_name["stabilizer-triviality"].details
    assert details["radius"] == 1
    assert details["vertex_core_orders"] == [1]


def corrupted_regular_instance():
    """The same twenty-vertex coset graph acted on by a smaller group whose
    local action is only the rotation group, so the reference check fails."""
    amb = symmetric_group(5)
    vertex = generate_group([perm("(0 1 2)", 5), perm("(0 1)", 5)])
    edge = generate_group([perm("(2 3)(1 4)")])
    inst = coset_graph(amb, vertex, edge)
    hom = amb.coset_action(vertex)
    bad = generate_group(
        [
            hom.apply(perm("(0 1 2)", 5)),
            hom.apply(perm("(2 3)(1 4)")),
        ]
    )
    return pair_instance(inst.graph, bad)


def test_verify_theorem_violation_is_witnessed():
    inst = corrupted_regular_instance()
    assert inst.group.order() == 60
    report = verify_theorem(inst, 3)
    assert report.overall == "violated"
    assert report.exit_code == 1
    by_name = {c.name: c for c in report.checks}
    assert by_name["locally-reference"].status == "violated"
    assert by_name["stabilizer-triviality"].status == "skipped"


# -- proof_trace -----------------------------------------------------------------


def test_proof_trace_frozen_subgroup_orders():
    report = proof_trace(section4_amalgam("tutte-coxeter"), 4)
    checks = {c.name: c for c in report.checks}
    assert checks["edge-kernel-prime"].details["prime"] == 2
    assert report.inputs["subgroup_orders"] == {
        "s_xy": 16,
        "z_xy": 4,
        "q_x": 8,
        "q_y": 8,
        "z_x": 8,
        "z_y": 8,
        "r1": 48,
        "r2": 48,
        "r1_star": 48,
        "r2_star": 48,
    }
    assert list(report.inputs)[-1] == "subgroup_orders"
    assert report.overall == "pass"
    assert len(report.checks) == 20
    assert all(c.status == "pass" for c in report.checks)


def test_proof_trace_vacuous_when_edge_kernel_trivial():
    report = proof_trace(section4_amalgam("k4"), 4)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["locally-reference"] == "pass"
    del statuses["locally-reference"]
    assert set(statuses.values()) == {"vacuous"}
    assert report.overall == "pass"
    assert "subgroup_orders" not in report.inputs
    # Vacuous claims are never upgraded to "pass".
    assert "pass" not in statuses.values()


def test_proof_trace_skipped_when_not_locally_reference():
    """Valency 12 is not n(n - 1) = 20: every claim is skipped, in the
    order the trace lists them, and no subgroup is built."""
    report = proof_trace(section4_amalgam("tutte-coxeter"), 5)
    assert [(c.name, c.status) for c in report.checks] == [
        ("locally-reference", "violated")
    ] + [(name, "skipped") for name, _ in _CLAIM_NAMES]
    assert len(report.checks) == 20
    assert report.checks[0].details["valency"] == 12
    assert report.exit_code == 1
    assert "subgroup_orders" not in report.inputs


def test_proof_trace_rejects_out_of_table_n():
    with pytest.raises(WitnessError):
        proof_trace(section4_amalgam("tutte-coxeter"), 7)


# -- hauptlemma -------------------------------------------------------------------


def test_hauptlemma_trivial_k_passes():
    tc = section4_amalgam("tutte-coxeter")
    report = hauptlemma_check(tc, trivial_group(tc.a.degree))
    assert report.overall == "pass"
    check = report.checks[0]
    assert check.name == "hauptlemma-consistency"
    assert check.status == "pass"
    assert check.details["k_order"] == 1
    assert check.details["normalizer_transitive_on_neighbors"] is True


def test_hauptlemma_nontrivial_kernels_are_vacuous():
    tc = section4_amalgam("tutte-coxeter")
    ctx = edge_context(tc, 3)
    for k, k_order, norm_order in [
        (ctx.edge_cores[0], 4, 64),
        (o_p(ctx.amalgam.c_in_a, 2), 16, 32),
    ]:
        report = hauptlemma_check(tc, k)
        check = report.checks[0]
        assert check.status == "vacuous"
        assert check.details["k_order"] == k_order
        assert check.details["normalizer_order"] == norm_order
        assert check.details["failed_hypotheses"] == ["normalizer-transitive"]
        assert report.exit_code == 0


def test_hauptlemma_rejects_k_outside_arc_stabilizer():
    tc = section4_amalgam("tutte-coxeter")
    with pytest.raises(WitnessError):
        hauptlemma_check(tc, tc.a)


# -- CLI ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_cli_build_pairs_writes_group_file(capsys, tmp_path):
    out_file = tmp_path / "pairs.group"
    code, out, _ = run_cli(
        capsys, "action", "build-pairs", "--n", "4", "--out", str(out_file), "--json"
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["overall"] == "pass"
    from amalgamlab.perm import parse_group_file

    degree, gens = parse_group_file(out_file.read_text())
    assert degree == 12
    assert generate_group(gens, degree=12).order() == 24


def test_cli_classify_pairs(capsys):
    code, out, _ = run_cli(capsys, "action", "classify", "--pairs", "4", "--json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["checks"][0]["details"]["level"] == "semiprimitive"


def test_cli_classify_pairs8_report_is_pinned(capsys):
    """The whole n = 8 report, byte for byte: the lattice work runs in the
    action on 8 blocks, and nothing of it may show."""
    code, out, err = run_cli(capsys, "action", "classify", "--pairs", "8", "--json")
    assert (code, err) == (0, "")
    blocks = [list(range(7 * i, 7 * i + 7)) for i in range(8)]
    assert json.loads(out) == {
        "command": "action classify",
        "inputs": {"source": "pairs n=8", "degree": 56, "order": 40320},
        "checks": [
            {
                "name": "classification",
                "status": "pass",
                "paper_anchor": "action-hierarchy",
                "details": {
                    "level": "quasiprimitive",
                    "witness_orders": {},
                    "block_system": blocks,
                    "plinth_orders": [20160],
                },
            }
        ],
        "overall": "pass",
    }
    assert out == json.dumps(json.loads(out)) + "\n"


def test_cli_lemma_range_emits_one_report_per_n(capsys):
    code, out, _ = run_cli(capsys, "lemma", "verify", "--n", "4..6", "--json")
    assert code == 0
    reports = json_lines(out)
    assert [r["inputs"]["n"] for r in reports] == [4, 5, 6]
    assert all(r["overall"] == "pass" for r in reports)


def test_cli_lemma_runs_past_n_9_at_the_default_guards(capsys, monkeypatch):
    """At the default guards, n = 10 finishes in well under a second: its
    p-cores are intersections of conjugates, not kernels of coset actions
    on thousands of cosets, which are refused here, and the element guard
    counts walks and search nodes, not the order 10!."""

    def refuse(*args):
        raise AssertionError("coset action")

    monkeypatch.setattr(PermGroup, "coset_action", refuse)
    code, out, err = run_cli(capsys, "lemma", "verify", "--n", "10", "--json")
    assert (code, err) == (0, "")
    (report,) = json_lines(out)
    assert report["overall"] == "pass"
    assert report["checks"][-1]["name"] == "furthermore-vacuous"


def test_cli_lemma_to_n_12_and_pairs_9_at_the_default_guards(capsys):
    """Sym(n) for n = 9..12 has order above the default element guard, but
    no walk or search of the lemma counts more than a thousand, and the
    longest walk of `action classify --pairs 9` about 50,000."""
    code, out, err = run_cli(capsys, "lemma", "verify", "--n", "4..12", "--json")
    assert (code, err) == (0, "")
    reports = json_lines(out)
    assert [r["inputs"]["n"] for r in reports] == list(range(4, 13))
    assert all(r["overall"] == "pass" for r in reports)
    assert all(
        r["checks"][-1]["name"] == "furthermore-vacuous"
        for r in reports
        if r["inputs"]["n"] >= 9
    )
    code, out, err = run_cli(capsys, "action", "classify", "--pairs", "9", "--json")
    assert (code, err) == (0, "")
    (report,) = json_lines(out)
    assert report["overall"] == "pass"


def test_cli_json_schema_is_bit_exact(capsys):
    code, out, _ = run_cli(capsys, "graph", "autos", "k4", "--json")
    assert code == 0
    (report,) = json_lines(out)
    assert list(report.keys()) == ["command", "inputs", "checks", "overall"]
    for check in report["checks"]:
        assert list(check.keys()) == ["name", "status", "paper_anchor", "details"]
        assert check["status"] in {"pass", "violated", "vacuous", "skipped"}


def test_cli_graph_balls(capsys):
    code, out, _ = run_cli(
        capsys,
        "graph", "balls", "tutte-coxeter", "--x", "0", "--radius", "3", "--json",
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["overall"] == "pass"
    assert "48" in json.dumps(report)


def test_cli_graph_balls_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "graph", "balls", "nosuchfile")
    assert code == 2
    (line,) = err.splitlines()
    assert "nosuchfile" in line and "tutte-coxeter" in line


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "balls", "k4", "--radius", "-1"),
        ("amalgam", "cores", "k4", "--depth", "-2"),
        ("construct", "section4", "--depth", "-1"),
        ("lemma", "verify", "--n", "6..4"),
    ],
)
def test_cli_empty_series_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("graph", "balls", "k4", "--radius", "5"),
         "--radius must be at most the vertex count 4, got 5"),
        (("graph", "balls", "k4", "--radius", "100000000000000000000"),
         "--radius must be at most the vertex count 4, "
         "got 100000000000000000000"),
        (("amalgam", "cores", "k4", "--depth", "5"),
         "--depth must be at most the vertex count 4, got 5"),
        (("amalgam", "cores", "k4", "--depth", "100000000000000000000"),
         "--depth must be at most the vertex count 4, "
         "got 100000000000000000000"),
    ]
    + [
        (argv, f"guard 'order' exceeded: limit {10**12}, "
               f"computation needs {math.factorial(n)}")
        for argv, n in (
            (("action", "build-pairs", "--n", "15"), 15),
            (("action", "classify", "--pairs", "100"), 100),
        )
    ]
    + [
        (("construct", "section4", "--h", "tutte-coxeter", "--depth", depth),
         "depth must be at most 8, the bit length of the vertex-group "
         f"order 192, got {depth}")
        for depth in ("9", "100000000000000000000")
    ],
)
def test_cli_out_of_range_is_exit_2(capsys, argv, message):
    """Refused at once, not run: past the diameter a ball or core series
    is constant, past the bit length of the vertex-group order an
    inflation's core series is too, and n! is checked against the order
    guard before any chain of the pairs action is built."""
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("action", "classify", "--group"), "degree 1000000000000\n",
         "guard 'degree' exceeded: limit 100000, computation needs 1000000000000"),
        (("graph", "autos"), "1000000000000 0\n", "graph is not connected"),
    ],
)
def test_cli_huge_file_header_is_exit_2(capsys, tmp_path, argv, text, message):
    """A size in a file's header is checked before anything of that size is
    allocated."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path), "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "command",
    [
        ("amalgam", "extract", "{path}"),
        ("amalgam", "faithful", "{path}"),
        ("amalgam", "cores", "{path}", "--depth", "1"),
        ("graph", "coset", "{path}"),
        ("construct", "section4", "--h", "{path}"),
        ("verify", "theorem", "--n", "3", "--graph", "{path}", "--group", "{group}"),
        ("trace", "claims", "--n", "4", "--graph", "{path}", "--group", "{group}"),
        ("check", "hauptlemma", "--n", "3", "--graph", "{path}", "--group", "{group}"),
    ],
)
def test_cli_graph_without_edges_is_exit_2(capsys, tmp_path, command):
    """A command that defaults to the graph's first edge refuses a graph
    that has none."""
    path = tmp_path / "one.txt"
    path.write_text("1 0\n")
    group = tmp_path / "one.group"
    group.write_text("degree 1\n")
    argv = [arg.format(path=path, group=group) for arg in command]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: the graph has no edge"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("graph", "balls", "petersen", "--x", "0", "--y", "7", "--radius", "1"),
         "{0,7} is not an edge"),
        (("graph", "balls", "petersen", "--x", "0", "--y", "0", "--radius", "1"),
         "{0,0} is not an edge"),
    ]
    + [
        (("amalgam", "cores", "k4", "--edge", edge),
         f"--edge must be x,y with integer x and y, got {edge!r}")
        for edge in ("0", "0,", "a,1", "0,1,2")
    ]
    + [
        ((*command, "petersen", "--edge", edge), f"{{{edge}}} is not an edge")
        for command in (
            ("graph", "coset"),
            ("amalgam", "extract"),
            ("amalgam", "faithful"),
            ("amalgam", "cores"),
        )
        for edge in ("0,7", "0,0", "99,0")
    ]
    + [
        ((*command, "--n", "4", "--construct", "k4", "--edge", edge), message)
        for command in (
            ("verify", "theorem"),
            ("trace", "claims"),
            ("check", "hauptlemma"),
        )
        for edge, message in (
            ("foo", "--edge must be x,y with integer x and y, got 'foo'"),
            ("0,1", "an amalgam fixes its own edge; none may be given"),
        )
    ],
)
def test_cli_bad_edge_is_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("n", ["4..x", "..5", "5..", "4..5..6", "x"])
def test_cli_bad_n_is_exit_2(capsys, n):
    code, out, err = run_cli(capsys, "lemma", "verify", "--n", n, "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: --n must be an integer or a range a..b, got {n!r}"
    ]


@pytest.mark.parametrize("value", ["-5", "0", "x"])
@pytest.mark.parametrize(
    "name", ["AMALGAMLAB_GUARD_ELEMENTS", "AMALGAMLAB_GUARD_DEGREE"]
)
def test_cli_bad_guard_is_exit_2(capsys, monkeypatch, name, value):
    """A guard below 1 is refused, not reported as a computation that
    exceeds it."""
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, "lemma", "verify", "--n", "4", "--json")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {name} must be a positive integer, got {value!r}"
    ]


def test_cli_huge_n_range_stops_at_the_guard(capsys):
    """The range is never materialised: n = 9..14 pass, and n = 15 stops
    on the fixed order cap, as 15! exceeds 10^12."""
    code, out, err = run_cli(
        capsys, "lemma", "verify", "--n", "9..100000000000000000000", "--json"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: guard 'order' exceeded: limit 1000000000000, "
        "computation needs 1307674368000"
    ]


def test_cli_graph_balls_records_y(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "balls", "petersen", "--x", "0", "--y", "1",
        "--radius", "1", "--json",
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["inputs"] == {"source": "petersen", "x": 0, "y": 1, "radius": 1}
    assert [c["name"] for c in report["checks"]] == ["ball-series", "edge-ball-series"]


def test_cli_closed_stdout_is_quiet():
    """A reader that leaves after one line (`| head -n 1`) gets no traceback.

    The pipe is shrunk to one page where the platform allows it, so the
    command is still writing when the reader closes its end.
    """
    read_fd, write_fd = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "amalgamlab.cli", "lemma", "verify", "--n", "4..7",
         "--json"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        text=True,
    )
    os.close(write_fd)
    first = b""
    while not first.endswith(b"\n"):
        chunk = os.read(read_fd, 1)
        if not chunk:
            break
        first += chunk
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert json.loads(first)["inputs"]["n"] == 4
    assert "Traceback" not in err
    assert proc.returncode == 0


_LOADED_MODULES = """
import sys
from amalgamlab.cli import cli_dispatch
code = cli_dispatch(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("amalgamlab.")),
      file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, runs, skips",
    [
        ("graph autos k4", "graphs",
         {"actions", "structure", "pairs", "amalgams", "verify"}),
        ("amalgam cores k4", "amalgams",
         {"actions", "structure", "pairs", "verify"}),
        ("action build-pairs --n 4", "pairs",
         {"actions", "structure", "graphs", "amalgams", "verify"}),
        ("lemma verify --n 4", "structure", {"graphs", "amalgams", "verify"}),
        ("action classify --group {group}", "structure",
         {"graphs", "amalgams", "verify"}),
    ],
)
def test_cli_command_loads_only_the_modules_it_runs(tmp_path, argv, runs, skips):
    """Each command, run in a fresh interpreter, imports only its part of
    the package: a module-level import that pulls in the rest shows here."""
    group_file = tmp_path / "pairs4.group"
    action = build_ordered_pairs(4)
    group_file.write_text(format_group_file(action.degree, action.group.generators))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES,
         *argv.format(group=group_file).split()],
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, *modules = proc.stderr.split()
    loaded = {m.removeprefix("amalgamlab.") for m in modules}
    assert code == "0"
    assert {"cli", runs} <= loaded
    assert not loaded & skips


def test_package_never_imports_typing():
    """Annotations are strings and abstract types come from collections.abc,
    so no module loads `typing`.  `-S` keeps `site` from loading it first."""
    src = Path(amalgamlab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, amalgamlab.verify, amalgamlab.cli; "
         "print('typing' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.split() == ["False"], proc.stderr


_DATACLASSES = """
import dataclasses, sys
import amalgamlab.verify, amalgamlab.cli
print(*sorted(
    f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items())
    if name.startswith("amalgamlab")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
    and dataclasses.is_dataclass(value)
))
"""


def test_only_guards_is_a_dataclass():
    """Record classes are plain `__slots__` classes: a dataclass compiles its
    methods with `exec` on every start-up.  `Guards` stays one, because the
    benchmark launcher reads it with `dataclasses.asdict`."""
    proc = subprocess.run(
        [sys.executable, "-c", _DATACLASSES],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout.split() == ["amalgamlab.config.Guards"], proc.stderr


def test_check_rejects_an_unknown_status():
    with pytest.raises(ValueError, match="unknown check status 'passed'"):
        Check("name", "passed", "anchor", {})


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _parse_exit(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_one_group_parser_matches_the_full_parser():
    """A parser built for one command group prints the same help and the
    same usage errors as the parser with every group built."""
    full = build_parser()
    argvs = [["--help"]]
    for group, group_parser in _subcommands(full).items():
        argvs += [[group], [group, "--help"], [group, "nosuch"]]
        for leaf in _subcommands(group_parser):
            argvs += [[group, leaf, "--help"], [group, leaf, "--frobnicate"]]
    for argv in argvs:
        expected = _parse_exit(full, argv)
        assert expected[0] in (0, 2), argv
        assert _parse_exit(build_parser(argv), argv) == expected, argv


def test_cli_unknown_subcommand_is_exit_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run_cli(capsys, "graph", "autos", "k4", "--frobnicate")
    assert code == 2


def test_cli_construct_section4(capsys):
    code, out, _ = run_cli(capsys, "construct", "section4", "--json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["command"] == "construct section4"
    assert report["overall"] == "pass"
    assert len(report["checks"]) == 6


def test_cli_verify_theorem_constructed(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "theorem", "--construct", "tutte-coxeter", "--n", "4", "--json",
    )
    assert code == 0
    (report,) = json_lines(out)
    triviality = [
        c for c in report["checks"] if c["name"] == "stabilizer-triviality"
    ][0]
    assert triviality["details"]["sharp"] is True


def test_cli_verify_theorem_files_violated_is_exit_1(capsys, tmp_path):
    inst = corrupted_regular_instance()
    graph_file = tmp_path / "c.graph"
    group_file = tmp_path / "c.group"
    graph_file.write_text(format_graph(inst.graph))
    group_file.write_text(
        format_group_file(inst.group.degree, inst.group.generators)
    )
    code, out, _ = run_cli(
        capsys,
        "verify", "theorem",
        "--graph", str(graph_file),
        "--group", str(group_file),
        "--n", "3", "--json",
    )
    assert code == 1
    (report,) = json_lines(out)
    assert report["overall"] == "violated"


def test_cli_trace_claims(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace", "claims", "--construct", "tutte-coxeter", "--n", "4", "--json",
    )
    assert code == 0
    (report,) = json_lines(out)
    assert report["inputs"]["subgroup_orders"]["s_xy"] == 16
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize(
    "command, after",
    [
        (("verify", "theorem"), ["skipped"]),
        (("trace", "claims"), ["skipped"] * 19),
    ],
)
def test_cli_graph_not_locally_reference_is_exit_1(capsys, tmp_path, command, after):
    """The cubic Tutte–Coxeter graph is not locally the n = 4 pairs action:
    the hypothesis check is violated and everything after it skipped."""
    tc = catalog_graph("tutte-coxeter")
    graph_file = tmp_path / "tc.txt"
    group_file = tmp_path / "tc.grp"
    graph_file.write_text(format_graph(tc.graph))
    group_file.write_text(format_group_file(tc.group.degree, tc.group.generators))
    code, out, _ = run_cli(
        capsys,
        *command,
        "--n", "4",
        "--graph", str(graph_file),
        "--group", str(group_file),
        "--json",
    )
    assert code == 1
    (report,) = json_lines(out)
    assert [c["status"] for c in report["checks"]] == ["violated", *after]
    assert report["checks"][0]["name"] == "locally-reference"
    assert "subgroup_orders" not in report["inputs"]


def test_cli_check_hauptlemma_choices(capsys, monkeypatch):
    """Each run builds one edge context: the handler passes its context to
    the check, and on the amalgam route every build runs core_sequence."""
    import amalgamlab.verify as verify

    depths = []
    original = verify.core_sequence

    def spy(am, depth):
        depths.append(depth)
        return original(am, depth)

    monkeypatch.setattr(verify, "core_sequence", spy)
    for k, expected in [
        ("trivial", "pass"),
        ("first-edge-kernel", "vacuous"),
        ("sylow-product", "vacuous"),
    ]:
        depths.clear()
        code, out, _ = run_cli(
            capsys,
            "check", "hauptlemma",
            "--construct", "tutte-coxeter", "--n", "4", "--k", k, "--json",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["checks"][0]["status"] == expected
        assert depths == [1]


def test_cli_amalgam_commands(capsys):
    code, out, _ = run_cli(capsys, "amalgam", "extract", "tutte-coxeter", "--json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["inputs"]["vertex_order"] == 48
    assert report["inputs"]["edge_order"] == 32
    assert report["inputs"]["shared_order"] == 16
    code, out, _ = run_cli(capsys, "amalgam", "faithful", "tutte-coxeter", "--json")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "amalgam", "cores", "tutte-coxeter", "--depth", "3", "--json"
    )
    assert code == 0
    (report,) = json_lines(out)
    assert "[8, 2, 1]" in json.dumps(report) or [8, 2, 1] in [
        c["details"].get("vertex_core_orders") for c in report["checks"]
    ]


def test_cli_graph_coset_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "graph", "coset", "heawood", "--json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["overall"] == "pass"


def test_cli_human_output_default(capsys):
    code, out, _ = run_cli(capsys, "graph", "autos", "k4")
    assert code == 0
    assert "PASS" in out or "pass" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_console_script_entrypoint():
    """The declared `amalgamlab` script runs; so does an installed one.

    The declaration is read from pyproject.toml rather than from installed
    metadata, which a stale egg-info on the path can report even when
    nothing is installed.  The target is run the way installers write
    their wrapper script.  Where an `amalgamlab` script is on PATH it must
    print exactly what the declared entry point prints.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "amalgamlab" in scripts, "pyproject.toml must declare the script"
    module, _, attr = scripts["amalgamlab"].partition(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'amalgamlab'\nsys.exit({attr}())\n"
    )
    argv = ["graph", "catalog", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    (report,) = json_lines(proc.stdout)
    assert report["command"] == "graph catalog"

    exe = shutil.which("amalgamlab")
    if exe:
        installed = subprocess.run([exe, *argv], capture_output=True, text=True)
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout


def test_module_invocation_matches_dispatch():
    proc = subprocess.run(
        [sys.executable, "-m", "amalgamlab.cli", "action", "classify",
         "--pairs", "4", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    (report,) = json_lines(proc.stdout)
    assert report["checks"][0]["details"]["level"] == "semiprimitive"
