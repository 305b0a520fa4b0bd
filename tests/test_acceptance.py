"""End-to-end acceptance checks.

One test per criterion.  Each test enforces its stated runtime budget and
prints a single verdict line (visible with ``pytest -v -s``); the pytest
``-v`` report gives the pass/fail line per criterion either way.
"""

import math
import re
import subprocess
import sys
import time
from pathlib import Path

from amalgamlab.actions import LEVELS, classify_action
from amalgamlab.amalgams import (
    amalgam_from_pair,
    core_sequence,
    faithful_kernel,
    inflate_amalgam,
    verify_inflation,
)
from amalgamlab.graphs import catalog_graph, catalog_names, stabilizer_series
from amalgamlab.group import derived_subgroup
from amalgamlab.pairs import build_ordered_pairs, verify_approximation
from amalgamlab.verify import proof_trace, regular_base_instance, verify_theorem

from conftest import oracle_automorphisms, oracle_ball_series


def _verdict(number, started, limit, summary):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (budget {limit}s)"
    print(f"ACCEPTANCE {number}: PASS — {summary} ({elapsed:.2f}s < {limit}s)")


def _section4(base, seed, name):
    inst = catalog_graph(name)
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    return inflate_amalgam(base, seed, h).amalgam


def test_acceptance_1_ordered_pairs_action():
    started = time.perf_counter()
    for n in range(3, 8):
        group = build_ordered_pairs(n).group
        assert group.degree == n * (n - 1)
        assert group.order() == math.factorial(n)
        assert group.is_transitive()

    base = build_ordered_pairs(4).group
    classification = classify_action(base)
    assert classification.level == "semiprimitive"
    assert LEVELS.index(classification.level) < LEVELS.index("quasiprimitive")
    witness = classification.witnesses["quasiprimitive"]
    assert witness.order() == 4
    assert witness.is_normal_in(base)
    assert not witness.is_transitive()

    commutator = derived_subgroup(base)
    assert commutator.order() == 12
    assert commutator.is_transitive() and commutator.is_semiregular()
    _verdict(1, started, 5, "pairs action degrees/orders, n=4 classification, [L,L] regular")


def test_acceptance_2_approximation_lemma():
    started = time.perf_counter()
    furthermore_expected = {4: (2, 12), 5: (3, 120), 6: (2, 360)}
    for n in range(4, 9):
        report = verify_approximation(n)
        assert report.overall == "pass"
        items = [c for c in report.checks if c.paper_anchor.startswith("approximation-item-")]
        assert {c.paper_anchor for c in items} == {
            f"approximation-item-{i}" for i in (1, 2, 3, 4)
        }
        assert all(c.status == "pass" for c in items)

        furthermore = [
            c for c in report.checks if c.paper_anchor == "approximation-furthermore"
        ]
        if n in furthermore_expected:
            prime, join_order = furthermore_expected[n]
            assert furthermore and all(c.status == "pass" for c in furthermore)
            assert {c.details["prime"] for c in furthermore} == {prime}
            joins = {
                c.details["join_order"] for c in furthermore if "join_order" in c.details
            }
            assert joins == {join_order}
    _verdict(2, started, 60, "items (1)-(4) for n=4..8, furthermore primes 2/3/2 joins 12/120/360")


def test_acceptance_3_cubic_census_against_oracle():
    started = time.perf_counter()
    frozen = {
        "k4": (24, [6, 1]),
        "k33": (72, [12, 2, 1]),
        "petersen": (120, [12, 2, 1]),
        "heawood": (336, [24, 4, 1]),
        "tutte-coxeter": (1440, [48, 8, 2, 1]),
    }
    assert set(catalog_names()) == set(frozen)
    assert {tuple(series) for _, series in frozen.values()} == {
        (6, 1),
        (12, 2, 1),
        (24, 4, 1),
        (48, 8, 2, 1),
    }
    for name, (order, series) in frozen.items():
        inst = catalog_graph(name)
        # Brute-force oracle first: exhaustive backtracking over vertex images,
        # then explicit pointwise-stabilizer filtering of the element list.
        autos = oracle_automorphisms(inst.graph)
        assert len(autos) == order
        assert oracle_ball_series(inst.graph, autos, 0, len(series) - 1) == series
        # Only now compare the main implementation, element for element.
        assert inst.group.order() == order
        assert set(inst.group.element_images()) == set(autos)
        assert stabilizer_series(inst, 0, len(series) - 1) == series
    _verdict(3, started, 120, "catalog orders 24/72/120/336/1440 and ball series match oracle")


def test_acceptance_4_inflated_construction_sharpness():
    started = time.perf_counter()
    base = build_ordered_pairs(4).group
    seed = classify_action(base).witnesses["quasiprimitive"]
    assert seed.order() == 4

    inst = catalog_graph("tutte-coxeter")
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    certificate = inflate_amalgam(base, seed, h)
    amalgam = certificate.amalgam

    assert amalgam.a.order() == 192
    assert amalgam.b.order() == 32
    assert amalgam.c_in_a.order() == 16
    assert faithful_kernel(amalgam).is_trivial()

    report = verify_inflation(certificate, depth=3)
    assert report.overall == "pass"
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["faithful"] == "pass"
    assert statuses["local-action-is-base"] == "pass"

    vertex_cores, _ = core_sequence(amalgam, 3)
    orders = [g.order() for g in vertex_cores]
    assert orders == [8, 2, 1]
    assert orders[1] != 1  # depth-2 core nontrivial: the radius bound is sharp
    assert orders[2] == 1
    _verdict(4, started, 60, "192/32/16 faithful, local action matches base, cores [8,2,1]")


def test_acceptance_5_theorem_instance_checks():
    started = time.perf_counter()
    base = build_ordered_pairs(4).group
    seed = classify_action(base).witnesses["quasiprimitive"]
    for name in catalog_names():
        report = verify_theorem(_section4(base, seed, name), 4)
        assert report.overall == "pass"
        by_name = {c.name: c for c in report.checks}
        assert by_name["locally-reference"].status == "pass"
        triviality = by_name["stabilizer-triviality"]
        assert triviality.status == "pass"
        assert triviality.details["vertex_core_orders"][-1] == 1

    report = verify_theorem(regular_base_instance(), 3)
    assert report.overall == "pass"
    details = {c.name: c for c in report.checks}["stabilizer-triviality"].details
    assert details["radius"] == 1
    assert details["vertex_core_orders"] == [1]
    _verdict(5, started, 60, "theorem verified on all five inflated amalgams and the n=3 branch")


def test_acceptance_6_proof_trace():
    started = time.perf_counter()
    base = build_ordered_pairs(4).group
    seed = classify_action(base).witnesses["quasiprimitive"]
    report = proof_trace(_section4(base, seed, "tutte-coxeter"), 4)

    assert report.overall == "pass"
    assert all(c.status == "pass" for c in report.checks)  # zero violations
    checks = {c.name: c for c in report.checks}

    assert checks["edge-kernel-prime"].details["prime"] == 2
    table = checks["prime-table"]
    assert table.status == "pass"
    assert sorted(tuple(row) for row in table.details["table"]) == [(4, 2), (5, 3), (6, 2)]

    assert checks["claim1-centralizer-of-radical"].status == "pass"
    assert checks["claim1-centralizer-of-socle"].status == "pass"

    product = checks["radical-product-identity"]
    assert product.status == "pass"
    assert product.details["s_xy_order"] == 16
    assert product.details["q_x_order"] == 8
    assert product.details["q_y_order"] == 8

    for i in (1, 2):
        for part in ("radical", "centralizer", "quotient", "sylow"):
            assert checks[f"claim3-{part}-r{i}"].status == "pass"
        assert checks[f"claim3-quotient-r{i}"].details["quotient_order"] == 6
        assert checks[f"claim4-characteristic-r{i}"].status == "pass"
        assert checks[f"claim5-commutator-r{i}"].status == "pass"

    second = checks["claim5-second-edge-kernel"]
    assert second.status == "pass"
    assert second.details["second_edge_kernel_order"] == 1
    _verdict(6, started, 120, "all 20 trace checks pass incl. claims 1/3/4/5 and quotient order 6")


def test_acceptance_7_property_suites():
    started = time.perf_counter()
    suite = Path(__file__).with_name("test_properties.py")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q"],
        capture_output=True,
        text=True,
        cwd=str(suite.parent.parent),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert re.search(r"\b7 passed\b", result.stdout)
    _verdict(7, started, 600, "seven randomized property suites, >=200 cases each, zero failures")
