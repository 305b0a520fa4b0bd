"""Transitivity ladder, block systems and permutation isomorphism."""

import random

import pytest

from amalgamlab.actions import (
    LEVELS,
    action_profile,
    block_systems,
    classify_action,
    induced_action,
    is_primitive,
    permutation_isomorphism,
)
from amalgamlab.group import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from amalgamlab.perm import Permutation, parse_permutation

from conftest import (
    assert_same_group,
    compose_images,
    element_set,
    invert_images,
    oracle_hom_table,
    oracle_kernel,
    random_group,
    random_perm,
    random_subgroup,
)


def perm(text, degree=None):
    return parse_permutation(text, degree)


def relabel(group, bijection):
    """The same abstract group acting through a fixed relabeling."""
    b = Permutation(bijection)
    return generate_group(
        [b.inverse() * g * b for g in group.generators], degree=group.degree
    )


# -- profiles ---------------------------------------------------------------


def test_action_profile_knowns():
    p = action_profile(cyclic_group(6))
    assert p.transitive and p.semiregular and p.regular
    assert p.orbits == ((0, 1, 2, 3, 4, 5),)

    p = action_profile(symmetric_group(4))
    assert p.transitive and not p.semiregular and not p.regular

    intrans = generate_group([perm("(0 1 2)", 5)])
    p = action_profile(intrans)
    assert not p.transitive
    assert len(p.orbits) == 3

    p = action_profile(trivial_group(3))
    assert p.semiregular and not p.transitive


# -- block systems and primitivity -------------------------------------------


def test_block_systems_knowns():
    assert block_systems(symmetric_group(4)) == []
    c6 = block_systems(cyclic_group(6))
    sizes = sorted(len(system[0]) for system in c6)
    assert sizes == [2, 3]
    d8 = block_systems(dihedral_group(4))
    assert len(d8) == 1 and len(d8[0][0]) == 2


def test_block_systems_are_genuine():
    rng = random.Random(107)
    checked = 0
    while checked < 12:
        g = random_group(rng, max_order=500)
        if not g.is_transitive():
            continue
        checked += 1
        for system in block_systems(g):
            blocks = [frozenset(b) for b in system]
            assert sum(len(b) for b in blocks) == g.degree
            assert 1 < len(blocks[0]) < g.degree
            for t in g.gen_images():
                for b in blocks:
                    image = frozenset(t[x] for x in b)
                    assert image in blocks


def test_is_primitive_knowns():
    assert is_primitive(symmetric_group(4))
    assert is_primitive(alternating_group(5))
    assert is_primitive(cyclic_group(5))  # prime degree regular
    assert not is_primitive(cyclic_group(6))
    assert not is_primitive(dihedral_group(4))
    assert not is_primitive(generate_group([perm("(0 1 2)", 4)]))  # intransitive


# -- the classification ladder ------------------------------------------------


def test_levels_constant():
    assert LEVELS == (
        "intransitive",
        "transitive-only",
        "semiprimitive",
        "quasiprimitive",
        "primitive",
    )


def test_classify_primitive():
    assert classify_action(symmetric_group(4)).level == "primitive"
    assert classify_action(alternating_group(5)).level == "primitive"


def test_classify_regular_cyclic():
    report = classify_action(cyclic_group(6))
    assert report.level == "semiprimitive"
    # The failing-level witnesses are genuine normal subgroups that are
    # nontrivial and intransitive.
    for level in ("quasiprimitive", "primitive"):
        w = report.witnesses[level]
        assert not w.is_trivial()
        assert w.is_normal_in(cyclic_group(6))
        assert not w.is_transitive()
    assert [p.order() for p in report.plinths] == [6]


def test_classify_dihedral_transitive_only():
    d8 = dihedral_group(4)
    report = classify_action(d8)
    assert report.level == "transitive-only"
    w = report.witnesses["semiprimitive"]
    assert w.is_normal_in(d8)
    assert not w.is_transitive()
    assert not w.is_semiregular()


def test_classify_intransitive():
    report = classify_action(generate_group([perm("(0 1 2)", 5)]))
    assert report.level == "intransitive"


def test_classify_reports_block_system():
    report = classify_action(cyclic_group(6))
    assert report.block_system is not None
    sizes = {len(b) for b in report.block_system}
    assert len(sizes) == 1
    report = classify_action(symmetric_group(4))
    assert report.block_system is None


# -- permutation isomorphism ---------------------------------------------------


def assert_witness_conjugates(source, target, witness):
    b = Permutation(witness)
    for g in source.generators:
        assert target.contains_images((b.inverse() * g * b).images)


def test_permutation_isomorphism_relabeling():
    rng = random.Random(109)
    for group in [
        symmetric_group(4),
        dihedral_group(4),
        cyclic_group(6),
        alternating_group(4),
    ]:
        images = list(range(group.degree))
        rng.shuffle(images)
        other = relabel(group, tuple(images))
        witness = permutation_isomorphism(group, other)
        assert witness is not None
        assert_witness_conjugates(group, other, witness)
        # And backwards.
        back = permutation_isomorphism(other, group)
        assert back is not None
        assert_witness_conjugates(other, group, back)


def test_permutation_isomorphism_identity():
    g = dihedral_group(5)
    witness = permutation_isomorphism(g, g)
    assert witness is not None
    assert_witness_conjugates(g, g, witness)


def test_permutation_isomorphism_negatives():
    c4 = cyclic_group(4)
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    assert permutation_isomorphism(c4, v4) is None
    # Same abstract group, different actions: S3 regular vs natural padded.
    s3_natural = generate_group(
        [perm("(0 1)", 6), perm("(0 1 2)", 6)]
    )
    s3_regular = cayley_regular_s3()
    assert permutation_isomorphism(s3_natural, s3_regular) is None
    # Different orders.
    assert (
        permutation_isomorphism(cyclic_group(4), generate_group([perm("(0 1)", 4)]))
        is None
    )


def cayley_regular_s3():
    s3 = symmetric_group(3)
    elems = sorted(t for t in element_set(s3))
    index = {t: i for i, t in enumerate(elems)}
    gens = []
    for g in s3.generators:
        gens.append(
            Permutation(
                tuple(index[compose_images(t, g.images)] for t in elems)
            )
        )
    return generate_group(gens, degree=6)


def test_permutation_isomorphism_degree_mismatch_is_none():
    assert permutation_isomorphism(cyclic_group(4), cyclic_group(5)) is None


# -- induced actions -------------------------------------------------------------


def test_induced_action_on_orbit():
    g = generate_group([perm("(0 2 4)", 6), perm("(1 3)", 6)])
    hom = induced_action(g, (0, 2, 4))
    assert hom.image_group().order() == 3
    assert hom.image_group().degree == 3
    assert hom.kernel.order() == 2  # the (1 3) factor acts trivially there


def test_induced_action_respects_products():
    rng = random.Random(113)
    g = dihedral_group(6)
    system = block_systems(g)
    hom = induced_action(g, tuple(range(g.degree)))
    elems = list(g.elements())
    for _ in range(20):
        a, b = rng.choice(elems), rng.choice(elems)
        assert hom.apply(a * b).images == (hom.apply(a) * hom.apply(b)).images


def test_induced_action_rejects_non_invariant():
    from amalgamlab.errors import ConstructionError

    g = cyclic_group(6)
    with pytest.raises(ConstructionError):
        induced_action(g, (0, 1))


def _random_hom(rng, g):
    """A coset, invariant-set or invariant-partition homomorphism of g."""
    kind = rng.randrange(3)
    if kind == 0:
        return g.coset_action(random_subgroup(rng, g))
    if kind == 1:
        orbits = g.orbits()
        chosen = rng.sample(orbits, rng.randrange(1, len(orbits) + 1))
        return induced_action(g, [p for orbit in chosen for p in orbit])
    # The orbits of a normal subgroup are permuted by the whole group.
    normal = g.normal_closure([rng.choice(list(g.elements()))])
    return induced_action(g, normal.orbits())


def test_action_hom_properties():
    from amalgamlab.errors import ConstructionError

    rng = random.Random(2024_11)
    outside_checked = missed_checked = 0
    for _ in range(60):
        g = random_group(rng, max_order=300)
        hom = _random_hom(rng, g)
        table = oracle_hom_table(hom)
        elems = list(g.elements())
        kernel = hom.kernel
        for _ in range(5):
            a, b = rng.choice(elems), rng.choice(elems)
            assert hom.apply(a).images == table[a.images]
            assert hom.apply(a * b) == hom.apply(a) * hom.apply(b)
            lifted = hom.preimage(hom.apply(a))
            assert kernel.contains_images((a.inverse() * lifted).images)
        assert element_set(kernel) == oracle_kernel(hom)
        sub = random_subgroup(rng, g)
        assert_same_group(
            hom.preimage_subgroup(hom.map_subgroup(sub)), sub.join(kernel)
        )
        outside = random_perm(rng, g.degree)
        if outside not in g:
            outside_checked += 1
            with pytest.raises(ConstructionError):
                hom.apply(outside)
        with pytest.raises(ConstructionError):
            hom.apply(Permutation.identity(g.degree + 1))
        image = hom.image_group()
        missed = random_perm(rng, hom.target_degree)
        if missed not in image:
            missed_checked += 1
            with pytest.raises(ConstructionError):
                hom.preimage(missed)
        with pytest.raises(ConstructionError):
            hom.preimage(Permutation.identity(hom.target_degree + 1))
    assert outside_checked and missed_checked
