"""Subgroup-structure operators checked against small-lattice oracles."""

import random
from itertools import combinations

import pytest

from amalgamlab import structure
from amalgamlab.errors import GuardExceededError, WitnessError
from amalgamlab.group import (
    PermGroup,
    _Chain,
    alternating_group,
    cyclic_group,
    dihedral_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from amalgamlab.perm import Permutation, parse_permutation
from amalgamlab.structure import (
    conjugacy_classes,
    frattini_p,
    is_prime,
    minimal_normal,
    normal_subgroups,
    o_p,
    o_upper_p,
    omega1_center,
    p_part,
    p_valuation,
    sylow,
    thompson_subgroup,
)

from conftest import (
    assert_same_group,
    bfs_normal_subgroups,
    compose_images,
    conjugate_images,
    direct_sum_gens,
    element_set,
    mulclose,
    p_prime_part,
    prime_divisors,
    random_group,
    random_perm,
    random_subgroup,
    scan_conjugacy_classes,
    scan_o_upper_p,
    scan_omega1_center,
)


def perm(text, degree=None):
    return parse_permutation(text, degree)


def quaternion_group():
    q8 = generate_group(
        [perm("(0 1 2 3)(4 5 6 7)"), perm("(0 4 2 6)(1 7 3 5)")]
    )
    assert q8.order() == 8
    return q8


# -- elementary arithmetic --------------------------------------------------


def test_p_valuation():
    assert p_valuation(12, 2) == (2, 3)
    assert p_valuation(12, 3) == (1, 4)
    assert p_valuation(7, 5) == (0, 7)
    assert p_valuation(1, 2) == (0, 1)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)


def test_p_part_decomposition():
    rng = random.Random(83)
    for _ in range(40):
        g = random_perm(rng, rng.randrange(2, 12))
        for p in (2, 3, 5):
            gp = p_part(g, p)
            gq = p_prime_part(g, p)
            assert (gp * gq).images == g.images
            assert (gq * gp).images == g.images
            a, r = p_valuation(g.order(), p)
            assert gp.order() == p**a
            assert gq.order() == r


# -- Sylow subgroups --------------------------------------------------------


def test_sylow_orders_and_witness():
    cases = [
        (symmetric_group(4), 2, 8),
        (symmetric_group(4), 3, 3),
        (symmetric_group(5), 2, 8),
        (symmetric_group(5), 5, 5),
        (alternating_group(5), 2, 4),
        (symmetric_group(6), 2, 16),
        (symmetric_group(6), 3, 9),
        (cyclic_group(12), 2, 4),
    ]
    for group, p, order in cases:
        s = sylow(group, p)
        assert s.order() == order
        assert s.is_subgroup_of(group)
    # The p-functors take only p-groups, the trivial group among them.
    with pytest.raises(WitnessError, match="needs a 2-group"):
        omega1_center(symmetric_group(3), 2)
    with pytest.raises(ValueError, match="4 is not prime"):
        omega1_center(trivial_group(3), 4)
    assert omega1_center(trivial_group(3), 2).is_trivial()


def test_sylow_on_random_groups():
    rng = random.Random(89)
    for _ in range(20):
        g = random_group(rng, max_order=720)
        for p in prime_divisors(g.order()):
            s = sylow(g, p)
            a, _ = p_valuation(g.order(), p)
            assert s.order() == p**a
            assert s.is_subgroup_of(g)


# -- normal-subgroup enumeration --------------------------------------------


def oracle_normal_subgroups(group):
    """All normal subgroups by closing each subset of conjugacy classes.

    Exponential and only usable on tiny groups; that is the point."""
    elems = sorted(element_set(group))
    classes = {}
    for t in elems:
        key = min(
            compose_images(compose_images(_inv(u), t), u) for u in elems
        )
        classes.setdefault(key, []).append(t)
    reps = sorted(classes)
    out = set()
    # A subgroup generated by whole conjugacy classes is automatically
    # normal, and every normal subgroup is such a union, so enumerating
    # closures of class unions finds exactly the normal subgroups.
    for r in range(len(reps) + 1):
        for combo in combinations(reps, r):
            chosen = {tuple(range(group.degree))}
            for key in combo:
                chosen.update(classes[key])
            out.add(mulclose(chosen, group.degree))
    return out


def _inv(t):
    out = [0] * len(t)
    for i, v in enumerate(t):
        out[v] = i
    return tuple(out)


def test_normal_subgroups_on_knowns():
    s4 = symmetric_group(4)
    assert sorted(n.order() for n in normal_subgroups(s4)) == [1, 4, 12, 24]
    a4 = alternating_group(4)
    assert sorted(n.order() for n in normal_subgroups(a4)) == [1, 4, 12]
    a5 = alternating_group(5)
    assert sorted(n.order() for n in normal_subgroups(a5)) == [1, 60]
    d8 = dihedral_group(4)
    assert sorted(n.order() for n in normal_subgroups(d8)) == [
        1, 2, 4, 4, 4, 8,
    ]
    for n in normal_subgroups(s4):
        assert n.is_normal_in(s4)


def test_normal_subgroups_match_exponential_oracle():
    for group in [
        symmetric_group(3),
        alternating_group(4),
        dihedral_group(4),
        cyclic_group(8),
        quaternion_group(),
        dihedral_group(6),
    ]:
        oracle = oracle_normal_subgroups(group)
        computed = {element_set(n) for n in normal_subgroups(group)}
        assert computed == oracle


def test_minimal_normal_subgroups():
    assert [n.order() for n in minimal_normal(symmetric_group(4))] == [4]
    assert [n.order() for n in minimal_normal(alternating_group(5))] == [60]
    c6 = cyclic_group(6)
    assert sorted(n.order() for n in minimal_normal(c6)) == [2, 3]
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    assert sorted(n.order() for n in minimal_normal(v4)) == [2, 2, 2]
    for n in minimal_normal(symmetric_group(4)):
        assert n.is_normal_in(symmetric_group(4))
        assert not n.is_trivial()


# -- conjugacy classes -------------------------------------------------------


def test_conjugacy_classes_s4():
    classes = conjugacy_classes(symmetric_group(4))
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 3, 6, 6, 8]
    assert sum(sizes) == 24
    assert sorted(c.representative.order() for c in classes) == [1, 2, 2, 3, 4]


def test_conjugacy_classes_random_partition():
    rng = random.Random(97)
    for _ in range(8):
        g = random_group(rng, max_order=200)
        classes = conjugacy_classes(g)
        assert sum(c.size for c in classes) == g.order()
        # Orbit-counting: class size divides the group order.
        for c in classes:
            assert g.order() % c.size == 0


def _class_list(group):
    return [(c.representative.images, c.size) for c in conjugacy_classes(group)]


def relabelled_pairs_group(n, rng):
    """Sym(n) on ordered pairs with its points relabelled at random and its
    generators shuffled."""
    from amalgamlab.pairs import build_ordered_pairs

    group = build_ordered_pairs(n).group
    sigma = random_perm(rng, group.degree).images
    gens = [conjugate_images(g, sigma) for g in group.gen_images()]
    rng.shuffle(gens)
    return PermGroup.from_images(group.degree, gens)


def pairs_action(group):
    """A subgroup of Sym(n) acting on the n(n-1) ordered pairs."""
    from amalgamlab.pairs import build_ordered_pairs

    action = build_ordered_pairs(group.degree)
    return PermGroup(
        [action.embed(g) for g in group.generators],
        degree=action.group.degree,
    )


def _record_class_walks(monkeypatch):
    """Groups handed to the class walk that finishes a failed type pass."""
    walked = []
    finish = structure._class_walk

    def recorded(group, *args):
        walked.append(group)
        return finish(group, *args)

    monkeypatch.setattr(structure, "_class_walk", recorded)
    return walked


def test_conjugacy_classes_match_the_full_walk(monkeypatch):
    rng = random.Random(101)
    groups = [random_group(rng, max_order=600) for _ in range(12)]
    groups += [relabelled_pairs_group(n, rng) for n in (4, 5, 6, 7)]
    # Bases of no point (trivial groups) and of one point (a regular cyclic
    # group, a degree-2 group): an itemgetter over the base cannot be built
    # for the first and yields a bare point for the second.
    groups += [trivial_group(d) for d in (0, 1, 3)]
    groups += [cyclic_group(7), symmetric_group(2)]
    # A cycle type holding two classes of the group: the type pass cannot
    # cover these, and the class walk must finish them.
    split = [
        alternating_group(5),
        alternating_group(7),
        pairs_action(alternating_group(7)),
    ]
    walked = _record_class_walks(monkeypatch)
    for g in groups + split:
        assert _class_list(g) == scan_conjugacy_classes(g)
    assert all(any(w is g for w in walked) for g in split)


def test_sym_pairs_classes_are_certified_without_the_class_walk(monkeypatch):
    """On Sym(7) on pairs every cycle type is one class, so the type pass
    covers the group; the class walk never runs."""
    from amalgamlab.pairs import build_ordered_pairs

    walked = _record_class_walks(monkeypatch)
    group = build_ordered_pairs(7).group
    assert _class_list(group) == scan_conjugacy_classes(group)
    assert walked == []


def _spy_class_sizing(monkeypatch):
    """Calls of the bounded class closure and of the centralizer search."""
    calls = []
    close = structure._close_class
    centralizer = PermGroup.centralizer

    def closing(*args):
        calls.append("close")
        return close(*args)

    def centralizing(self, other):
        calls.append("centralizer")
        return centralizer(self, other)

    monkeypatch.setattr(structure, "_close_class", closing)
    monkeypatch.setattr(PermGroup, "centralizer", centralizing)
    return calls


def test_symmetric_classes_are_sized_by_formula(monkeypatch):
    """A group of order k! on k points is Sym(k), whose cycle types are
    its classes, of k!/z_lambda elements each.  Natural and relabelled
    Sym(k), and the faithful Sym(n) image in which `normal_subgroups`
    takes the classes of Sym(n) on pairs, list the full walk's classes
    without closing a class or searching a centralizer."""
    rng = random.Random(109)
    groups = [symmetric_group(k) for k in range(8)]
    for k in range(2, 8):
        sigma = random_perm(rng, k).images
        gens = [conjugate_images(g, sigma) for g in symmetric_group(k).gen_images()]
        gens.append(random_perm(rng, k).images)
        rng.shuffle(gens)
        groups.append(PermGroup.from_images(k, gens))
    recorded = []
    classes_of = structure.conjugacy_classes

    def recording(group, **kwargs):
        classes = classes_of(group, **kwargs)
        recorded.append((group, classes))
        return classes

    sizing = _spy_class_sizing(monkeypatch)
    for g in groups:
        assert _class_list(g) == scan_conjugacy_classes(g)
    monkeypatch.setattr(structure, "conjugacy_classes", recording)
    pairs = [relabelled_pairs_group(n, rng) for n in (4, 5, 6, 7)]
    lattices = [[n.order() for n in normal_subgroups(g)] for g in pairs]
    assert sizing == []
    assert lattices == [[1, 4, 12, 24], [1, 60, 120], [1, 360, 720], [1, 2520, 5040]]
    assert [id(g) for g, _ in recorded] == [id(g) for g in pairs]
    for g, classes in recorded:
        got = [(c.representative.images, c.size) for c in classes]
        assert got == scan_conjugacy_classes(g)


def test_classes_of_other_groups_are_closed(monkeypatch):
    """Alt(k) is not Sym(k), and Sym(4) on its 12 ordered pairs, handed
    to `conjugacy_classes` itself, has order 4! on more than 4 points:
    both still size their classes by closure."""
    from amalgamlab.pairs import build_ordered_pairs

    sizing = _spy_class_sizing(monkeypatch)
    for g in (alternating_group(6), build_ordered_pairs(4).group):
        sizing.clear()
        assert _class_list(g) == scan_conjugacy_classes(g)
        assert "close" in sizing


def test_class_walk_stops_at_the_group_order(monkeypatch):
    """On Sym(7) on pairs the type pass ends once its certified classes
    cover the group, before the chain has yielded every element."""
    from amalgamlab.pairs import build_ordered_pairs

    group = build_ordered_pairs(7).group
    walk = _Chain.iter_elements
    yielded = []

    def counted(self):
        for img in walk(self):
            yielded.append(img)
            yield img

    monkeypatch.setattr(_Chain, "iter_elements", counted)
    classes = conjugacy_classes(group)
    assert sum(c.size for c in classes) == group.order() == 5040
    assert len(classes) == 15  # the partitions of 7
    assert len(yielded) < group.order()


def test_class_walk_closures_count_against_the_element_guard(monkeypatch):
    """Sym(6) x Alt(5): the type pass stops at the split 5-cycles of
    Alt(5), and the class walk closes all 43,200 elements while its chain
    walks fewer than 10,000.  The closures count, so a limit of |G| is
    enough and one of 20,000 is not."""
    gens = direct_sum_gens(
        6, 5, symmetric_group(6).generators, alternating_group(5).generators
    )
    walked = _record_class_walks(monkeypatch)
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "43200")
    group = PermGroup(gens, degree=11)
    assert sum(c.size for c in conjugacy_classes(group)) == group.order() == 43200
    assert walked == [group]
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "20000")
    with pytest.raises(GuardExceededError):
        conjugacy_classes(PermGroup(gens, degree=11))


def test_class_walk_keeps_base_images_only():
    """The class walk remembers visited elements by their base images, so
    on Alt(7) on pairs, where it runs, the search peaks below
    |G|·degree·8 bytes, the size of one pointer per image point of every
    element."""
    import tracemalloc

    group = pairs_action(alternating_group(7))
    group.chain()
    tracemalloc.start()
    try:
        conjugacy_classes(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < group.order() * group.degree * 8 == 846_720


def test_normal_subgroups_match_the_unskipped_search():
    """Skipping closures whose signature is already found changes nothing:
    same subgroups, same order, same generator lists."""
    rng = random.Random(107)
    groups = [random_group(rng, max_order=600) for _ in range(10)]
    groups += [relabelled_pairs_group(n, rng) for n in (4, 5, 6)]
    groups += [alternating_group(5)]
    for g in groups:
        got = normal_subgroups(g)
        want = bfs_normal_subgroups(g)
        assert [n.gen_images() for n in got] == [n.gen_images() for n in want]


def _wreath(k, m):
    """Sym(k) wr Sym(m) on m blocks of k points, blocks {ik, ..., ik+k-1}."""
    degree = k * m
    gens = []
    for cycle in ((0, 1), tuple(range(k))):
        images = list(range(degree))
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]
        gens.append(Permutation(images))
    for cycle in ((0, 1), tuple(range(m))):
        images = list(range(degree))
        for i, b in enumerate(cycle):
            for x in range(k):
                images[b * k + x] = cycle[(i + 1) % len(cycle)] * k + x
        gens.append(Permutation(images))
    return PermGroup(gens, degree=degree)


def test_normal_subgroups_in_the_faithful_block_image(monkeypatch):
    """The lattice work in a faithful block action gives the oracle's
    subgroups with the oracle's generator lists.  Sym(n) and Alt(n) on
    pairs act faithfully on the n blocks of a first coordinate (Alt(n)
    also reaches the class walk there); the wreath products' block actions
    have a kernel, so they stay in themselves."""
    from amalgamlab.pairs import build_ordered_pairs

    chosen = []
    choose = structure._faithful_block_image

    def spy(group, blocks):
        image = choose(group, blocks)
        chosen.append((group, image.group.degree))
        return image

    monkeypatch.setattr(structure, "_faithful_block_image", spy)
    walked = _record_class_walks(monkeypatch)
    split = [pairs_action(alternating_group(n)) for n in (6, 7)]
    # Each group with the degree of the image its lattice work runs in.
    cases = [(build_ordered_pairs(n).group, n) for n in (4, 5, 6, 7)]
    cases += [(split[0], 6), (split[1], 7), (_wreath(2, 3), 6), (_wreath(3, 2), 6)]
    for g, _ in cases:
        got = normal_subgroups(g)
        want = bfs_normal_subgroups(g)
        assert [n.gen_images() for n in got] == [n.gen_images() for n in want]
    assert [(id(g), d) for g, d in chosen] == [(id(g), d) for g, d in cases]
    assert all(any(w is g for w in walked) for g in split)


# -- O_p, O^p ---------------------------------------------------------------


def test_o_p_knowns():
    assert o_p(symmetric_group(4), 2).order() == 4
    assert o_p(symmetric_group(4), 3).order() == 1
    assert o_p(alternating_group(4), 2).order() == 4
    assert o_p(dihedral_group(4), 2).order() == 8
    assert o_p(cyclic_group(12), 2).order() == 4
    assert o_p(alternating_group(5), 2).order() == 1


def test_o_p_of_a_p_group_is_the_group_without_a_sylow_search(monkeypatch):
    def refuse(group, p):
        raise AssertionError("sylow called on a p-group")

    monkeypatch.setattr(structure, "sylow", refuse)
    for group, p in (
        (dihedral_group(4), 2),
        (quaternion_group(), 2),
        (cyclic_group(9), 3),
        (symmetric_group(3).stabilizer(0), 2),
    ):
        assert o_p(group, p) is group


def test_o_p_is_largest_normal_p_subgroup():
    rng = random.Random(101)
    for _ in range(12):
        g = random_group(rng, max_order=240)
        for p in prime_divisors(g.order()):
            radical = o_p(g, p)
            assert radical.is_normal_in(g)
            assert p_valuation(radical.order(), p)[1] == 1
            for n in normal_subgroups(g):
                if p_valuation(n.order(), p)[1] == 1:
                    assert n.is_subgroup_of(radical)


def test_o_upper_p_knowns():
    assert o_upper_p(symmetric_group(4), 2).order() == 12
    assert o_upper_p(symmetric_group(4), 3).order() == 24
    assert o_upper_p(alternating_group(4), 3).order() == 4
    assert o_upper_p(cyclic_group(12), 2).order() == 3
    assert o_upper_p(cyclic_group(12), 3).order() == 4


def test_o_upper_p_is_smallest_with_p_power_index():
    rng = random.Random(103)
    for _ in range(12):
        g = random_group(rng, max_order=240)
        for p in prime_divisors(g.order()):
            residual = o_upper_p(g, p)
            assert_same_group(residual, scan_o_upper_p(g, p))
            assert residual.is_normal_in(g)
            index = g.order() // residual.order()
            assert p_valuation(index, p)[1] == 1  # index is a power of p
            for n in normal_subgroups(g):
                if p_valuation(g.order() // n.order(), p)[1] == 1:
                    assert residual.is_subgroup_of(n)


# -- p-group operators -------------------------------------------------------


def test_omega1_center_knowns():
    assert omega1_center(dihedral_group(4), 2).order() == 2
    assert omega1_center(quaternion_group(), 2).order() == 2
    assert omega1_center(cyclic_group(8), 2).order() == 2
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    assert omega1_center(v4, 2).order() == 4
    c9 = cyclic_group(9)
    assert omega1_center(c9, 3).order() == 3


def test_omega1_center_matches_scan():
    """On seeded Sylow subgroups, and on their centers, which are abelian
    and so take Thompson's abelian branch: Omega_1 of the center."""
    rng = random.Random(107)
    for _ in range(12):
        g = random_group(rng, max_order=400)
        for p in prime_divisors(g.order()):
            x = sylow(g, p)
            assert_same_group(omega1_center(x, p), scan_omega1_center(x, p))
            z = x.center()
            assert_same_group(thompson_subgroup(z, p), scan_omega1_center(z, p))


def test_cores_and_p_functors_scan_no_elements(monkeypatch):
    """`core`, `o_upper_p`, `omega1_center` and the abelian Thompson
    subgroup come from intersections, normal closures and kernels, and
    `sylow` (hence `o_p`) from seeded draws: no element walk and no coset
    action.  The draws are repeatable and leave the global `random` state
    alone."""
    rng = random.Random(109)
    cases = []
    for _ in range(10):
        g = random_group(rng, max_order=400)
        h = random_subgroup(rng, g)
        p = rng.choice(prime_divisors(g.order()))
        x = sylow(g, p)
        z = x.center()
        expected = (
            g.coset_action(h).kernel,
            scan_o_upper_p(g, p),
            scan_omega1_center(x, p),
            scan_omega1_center(z, p),
            g.coset_action(x).kernel,
        )
        cases.append((g, h, p, x, z, expected))

    def refuse(*args, **kwargs):
        raise AssertionError("element scan or coset action")

    monkeypatch.setattr(_Chain, "iter_elements", refuse)
    monkeypatch.setattr(PermGroup, "coset_action", refuse)
    for g, h, p, x, z, expected in cases:
        state = random.getstate()
        found = (
            g.core(h),
            o_upper_p(g, p),
            omega1_center(x, p),
            thompson_subgroup(z, p),
            o_p(g, p),
        )
        for a, b in zip(found, expected):
            assert_same_group(a, b)
        first, second = sylow(g, p), sylow(g, p)
        assert first.order() == p ** p_valuation(g.order(), p)[0]
        assert first.generators == second.generators
        assert random.getstate() == state


def oracle_elementary_abelian_maxima(x, p):
    """All elementary abelian subgroups of maximal order, grown greedily
    from commuting elements of order p."""
    elems = [t for t in element_set(x)]
    order_p = [
        t
        for t in elems
        if t != tuple(range(x.degree))
        and _pow(t, p, x.degree) == tuple(range(x.degree))
    ]
    subgroups = set()
    frontier = {frozenset([tuple(range(x.degree))])}
    while frontier:
        nxt = set()
        for sub in frontier:
            subgroups.add(sub)
            for t in order_p:
                if t in sub:
                    continue
                if all(
                    compose_images(t, u) == compose_images(u, t) for u in sub
                ):
                    grown = frozenset(mulclose(set(sub) | {t}, x.degree))
                    if grown not in subgroups:
                        nxt.add(grown)
        frontier = nxt
    best = max(len(s) for s in subgroups)
    return [s for s in subgroups if len(s) == best]


def _pow(t, k, degree):
    out = tuple(range(degree))
    for _ in range(k):
        out = compose_images(out, t)
    return out


def test_thompson_subgroup_matches_oracle():
    cases = [
        (dihedral_group(4), 2),
        (cyclic_group(4), 2),
        (quaternion_group(), 2),
        (cyclic_group(9), 3),
        (sylow(symmetric_group(4), 2), 2),
        (sylow(symmetric_group(6), 2), 2),
        (sylow(symmetric_group(6), 3), 3),
        (sylow(alternating_group(6), 2), 2),
    ]
    for x, p in cases:
        maxima = oracle_elementary_abelian_maxima(x, p)
        expected = mulclose(set().union(*maxima), x.degree)
        j = thompson_subgroup(x, p)
        assert element_set(j) == expected


def test_thompson_knowns():
    assert thompson_subgroup(dihedral_group(4), 2).order() == 8
    assert thompson_subgroup(cyclic_group(4), 2).order() == 2
    assert thompson_subgroup(quaternion_group(), 2).order() == 2


def oracle_frattini(x, p):
    """Intersection of the maximal subgroups, via the normal lattice: every
    maximal subgroup of a p-group is normal of index p."""
    maximal = [
        n for n in normal_subgroups(x) if n.order() * p == x.order()
    ]
    assert maximal, "p-groups of order > 1 have maximal subgroups"
    meet = element_set(maximal[0])
    for n in maximal[1:]:
        meet &= element_set(n)
    return meet


def test_frattini_matches_oracle():
    cases = [
        (dihedral_group(4), 2),
        (cyclic_group(4), 2),
        (cyclic_group(8), 2),
        (quaternion_group(), 2),
        (cyclic_group(9), 3),
        (sylow(symmetric_group(4), 2), 2),
        (sylow(symmetric_group(6), 2), 2),
    ]
    for x, p in cases:
        assert element_set(frattini_p(x, p)) == oracle_frattini(x, p)
    v4 = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    assert frattini_p(v4, 2).is_trivial()
