"""Amalgam extraction, faithfulness, core sequences and the product
construction that inflates a vertex-edge amalgam by a semiregular seed."""

import pytest

from amalgamlab.actions import classify_action
from amalgamlab.amalgams import (
    Amalgam,
    GroupIso,
    amalgam_from_pair,
    core_sequence,
    faithful_kernel,
    identity_amalgam,
    inflate_amalgam,
    verify_inflation,
)
from amalgamlab.errors import AmalgamError, ConstructionError, GuardExceededError
from amalgamlab.graphs import (
    ball_stabilizer,
    ball_stabilizer_pair,
    catalog_graph,
    catalog_names,
    coset_graph,
)
from amalgamlab.group import (
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from amalgamlab.pairs import build_ordered_pairs
from amalgamlab.perm import Permutation, parse_permutation

from conftest import assert_same_group, element_set


def perm(text, degree=None):
    return parse_permutation(text, degree)


# -- GroupIso -----------------------------------------------------------------


def test_group_iso_identity_fast_path():
    g = symmetric_group(4)
    iso = GroupIso(g, g, g.generators)
    a4 = alternating_group(4)
    assert iso.apply(g.generators[0]).images == g.generators[0].images
    assert_same_group(iso.map_subgroup(a4), a4)


def test_group_iso_relabeling():
    s3 = symmetric_group(3)
    b = perm("(0 2)")
    other = generate_group([b.inverse() * g * b for g in s3.generators])
    iso = GroupIso(s3, other, tuple(b.inverse() * g * b for g in s3.generators))
    x = perm("(0 1 2)")
    y = iso.apply(x)
    assert iso.invert(y).images == x.images
    sub = generate_group([perm("(0 1 2)")])
    mapped = iso.map_subgroup(sub)
    assert mapped.order() == 3
    assert_same_group(iso.invert_subgroup(mapped), sub)


def test_group_iso_rejects_non_homomorphism():
    c4 = cyclic_group(4)
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    # Sending a generator of order 4 to one of order 2 collapses the table.
    with pytest.raises(AmalgamError):
        GroupIso(c4, v4, (v4.generators[0],))


def test_group_iso_rejects_non_bijection():
    c4 = cyclic_group(4)
    c2 = generate_group([perm("(0 1)", 4)])
    with pytest.raises(AmalgamError):
        GroupIso(c4, c2, (c2.generators[0],))


def test_group_iso_table_counts_against_the_element_guard(monkeypatch):
    """The table is a walk over the source: Sym(5) relabelled fits a limit
    of 120 entries and not one of 119."""
    s5 = symmetric_group(5)
    b = perm("(0 4)")
    images = tuple(b.inverse() * g * b for g in s5.generators)
    other = generate_group(images)
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "120")
    assert GroupIso(s5, other, images).apply(b).images == b.images
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "119")
    with pytest.raises(GuardExceededError):
        GroupIso(s5, other, images)


def test_group_iso_rejects_wrong_image_count():
    s3 = symmetric_group(3)
    with pytest.raises(AmalgamError):
        GroupIso(s3, s3, (s3.generators[0],))


# -- Amalgam container -----------------------------------------------------------


def test_amalgam_validation():
    s4 = symmetric_group(4)
    a4 = alternating_group(4)
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    am = identity_amalgam(s4, a4, v4)
    assert am.index_a == 6 and am.index_b == 3
    assert not am.is_vertex_edge()
    with pytest.raises(AmalgamError, match="C is not a subgroup of A"):
        identity_amalgam(v4, a4, s4)  # shared not inside either side


def test_amalgam_from_pair_frozen_triples():
    expected = {
        "k4": (6, 4, 2),
        "petersen": (12, 8, 4),
        "tutte-coxeter": (48, 32, 16),
        "k33": (12, 8, 4),
        "heawood": (24, 16, 8),
    }
    for name, (ax, bx, cx) in expected.items():
        inst = catalog_graph(name)
        y = inst.graph.neighbors(0)[0]
        am = amalgam_from_pair(inst, 0, y)
        assert (am.a.order(), am.b.order(), am.c_in_a.order()) == (ax, bx, cx)
        assert am.is_vertex_edge()
        assert am.index_b == 2
        assert am.phi.source.order() == cx


def test_amalgam_from_pair_rejects_non_edges():
    inst = catalog_graph("petersen")
    non_neighbor = next(
        v
        for v in range(inst.graph.vertex_count)
        if v != 0 and not inst.graph.has_edge(0, v)
    )
    with pytest.raises(AmalgamError):
        amalgam_from_pair(inst, 0, non_neighbor)
    with pytest.raises(AmalgamError):
        amalgam_from_pair(inst, 0, 0)


# -- faithfulness ------------------------------------------------------------------


def test_catalog_amalgams_are_faithful():
    for name in catalog_names():
        inst = catalog_graph(name)
        am = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
        assert faithful_kernel(am).is_trivial()


def non_faithful_amalgam():
    """A cycle of length six with the full rotation group at a vertex: the
    half-turn is normal in both sides, so the amalgam cannot be faithful."""
    sigma = perm("(0 1 2 3 4 5)")
    a = generate_group([sigma])
    b = generate_group([perm("(0 3)(1 4)(2 5)"), perm("(0 3)", 6)])
    c = generate_group([perm("(0 3)(1 4)(2 5)")])
    return identity_amalgam(a, b, c)


def test_non_faithful_kernel_detected():
    am = non_faithful_amalgam()
    kernel = faithful_kernel(am)
    assert kernel.order() == 2
    assert kernel.is_normal_in(am.a)
    assert am.phi.map_subgroup(kernel).is_normal_in(am.b)


# -- core sequences -------------------------------------------------------------------


def test_core_sequence_matches_ball_stabilizers():
    for name in catalog_names():
        inst = catalog_graph(name)
        y = inst.graph.neighbors(0)[0]
        am = amalgam_from_pair(inst, 0, y)
        vertex_cores, edge_cores = core_sequence(am, 3)
        for i in range(3):
            assert (
                vertex_cores[i].order()
                == ball_stabilizer(inst, 0, i + 1).order()
            )
            assert (
                edge_cores[i].order()
                == ball_stabilizer_pair(inst, 0, y, i + 1).order()
            )


def test_core_sequence_frozen_values():
    inst = catalog_graph("tutte-coxeter")
    am = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    vertex_cores, edge_cores = core_sequence(am, 3)
    assert [g.order() for g in vertex_cores] == [8, 2, 1]
    assert [g.order() for g in edge_cores] == [4, 1, 1]
    inst = catalog_graph("heawood")
    am = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    vertex_cores, edge_cores = core_sequence(am, 3)
    assert [g.order() for g in vertex_cores] == [4, 1, 1]
    assert [g.order() for g in edge_cores] == [2, 1, 1]


# -- the product construction ----------------------------------------------------------


def pairs_action_and_seed():
    action = build_ordered_pairs(4)
    seed = classify_action(action.group).witnesses["quasiprimitive"]
    return action.group, seed


def test_seed_witness_shape():
    base, seed = pairs_action_and_seed()
    assert seed.order() == 4
    assert seed.is_normal_in(base)
    assert seed.is_semiregular()
    assert not seed.is_transitive()
    assert len(seed.orbits()) == 3


def test_inflation_tutte_coxeter_frozen(tutte_coxeter_section4):
    cert = tutte_coxeter_section4
    am = cert.amalgam
    assert am.a.order() == 192
    assert am.b.order() == 32
    assert am.c_in_a.order() == 16
    assert am.index_a == 12
    assert am.index_b == 2
    assert faithful_kernel(am).is_trivial()
    vertex_cores, edge_cores = core_sequence(am, 3)
    assert [g.order() for g in vertex_cores] == [8, 2, 1]
    # The input amalgam data is carried through unchanged.
    assert cert.input_amalgam.a.order() == 48
    assert cert.input_first_core.order() == 8
    assert cert.embedded_seed.order() == 4


def test_inflation_sizes_for_all_catalog_inputs():
    base, seed = pairs_action_and_seed()
    expected = {
        "k4": (24, 4, 2),
        "k33": (48, 8, 4),
        "petersen": (48, 8, 4),
        "heawood": (96, 16, 8),
        "tutte-coxeter": (192, 32, 16),
    }
    for name, (ax, bx, cx) in expected.items():
        inst = catalog_graph(name)
        h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
        cert = inflate_amalgam(base, seed, h)
        am = cert.amalgam
        assert (am.a.order(), am.b.order(), am.c_in_a.order()) == (ax, bx, cx)
        assert am.index_a == 12
        # |G_x| = |S| * |H_x| and |G_xy| = |H_xy| by construction.
        assert am.a.order() == seed.order() * h.a.order()
        assert am.c_in_a.order() == h.c_in_a.order()


def test_verify_inflation_all_pass(tutte_coxeter_section4):
    report = verify_inflation(tutte_coxeter_section4, depth=3)
    assert report.overall == "pass"
    assert report.exit_code == 0
    statuses = {c.name: c.status for c in report.checks}
    assert statuses == {
        "core-sequence-match": "pass",
        "faithful": "pass",
        "local-action-is-base": "pass",
        "shared-meets-seed-trivially": "pass",
        "shared-projects-isomorphically": "pass",
        "edge-index-two": "pass",
    }


def test_verify_inflation_depth_bound_is_inclusive(tutte_coxeter_section4):
    """Depth 8 is the bit length of |G_x| = 192, the largest depth
    accepted; the CLI tests check that 9 is refused."""
    report = verify_inflation(tutte_coxeter_section4, depth=8)
    assert report.overall == "pass"
    assert report.checks[0].details["vertex_core_orders"] == [8, 2] + [1] * 6


def test_verify_inflation_vacuous_on_non_faithful_input():
    sigma = perm("(0 1 2 3 4 5)")
    base = generate_group([sigma])
    seed = generate_group([sigma ** 3])
    h = non_faithful_amalgam()
    cert = inflate_amalgam(base, seed, h)
    report = verify_inflation(cert, depth=2)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["faithful"] == "vacuous"
    assert report.overall == "pass"  # vacuous never counts as violated


def test_inflation_rejects_bad_seeds():
    base, seed = pairs_action_and_seed()
    inst = catalog_graph("tutte-coxeter")
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    with pytest.raises(ConstructionError):
        inflate_amalgam(base, generate_group([base.generators[0]]), h)
    with pytest.raises(ConstructionError):
        inflate_amalgam(base, base, h)  # transitive
    with pytest.raises(ConstructionError):
        inflate_amalgam(base, trivial_group(12), h)


def test_inflation_rejects_seed_that_is_not_block_kernel():
    d8 = dihedral_group(4)
    z = d8.center()
    k4 = catalog_graph("k4")
    h = amalgam_from_pair(k4, 0, 1)
    with pytest.raises(ConstructionError) as err:
        inflate_amalgam(d8, z, h)
    assert "kernel" in str(err.value)


def test_inflation_rejects_mismatched_local_action():
    base, seed = pairs_action_and_seed()
    a4 = alternating_group(4)
    inst = coset_graph(
        a4,
        generate_group([perm("(0 1 2)", 4)]),
        generate_group([perm("(0 1)(2 3)")]),
    )
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    with pytest.raises(ConstructionError) as err:
        inflate_amalgam(base, seed, h)
    assert "isomorphic" in str(err.value)


def test_inflation_rejects_non_vertex_edge_input():
    base, seed = pairs_action_and_seed()
    s4 = symmetric_group(4)
    a4 = alternating_group(4)
    with pytest.raises(ConstructionError):
        inflate_amalgam(base, seed, identity_amalgam(s4, s4, a4))
