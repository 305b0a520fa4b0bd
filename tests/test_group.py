"""Stabilizer-chain group arithmetic against brute-force closure oracles."""

import random
from itertools import islice

import pytest

from amalgamlab.errors import (
    ConstructionError,
    DegreeMismatchError,
    GuardExceededError,
)
from amalgamlab.group import (
    ActionHom,
    PermGroup,
    _Chain,
    alternating_group,
    commutator_subgroup,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    direct_sum_gens,
    generate_group,
    intersection,
    symmetric_group,
    trivial_group,
)
from amalgamlab.pairs import verify_approximation
from amalgamlab.perm import Permutation

from conftest import (
    CollapsingChain,
    assert_same_group,
    compose_images,
    element_set,
    group_from_images,
    invert_images,
    mulclose,
    oracle_kernel,
    oracle_lowest_moved,
    oracle_normal_closure,
    random_group,
    random_perm,
    random_subgroup,
    scan_centralizer,
    scan_intersection,
    scan_normalizer,
    scan_setwise_stabilizer,
)


def perm(text, degree=None):
    from amalgamlab.perm import parse_permutation

    return parse_permutation(text, degree)


KNOWN_ORDERS = [
    (symmetric_group(4), 24),
    (alternating_group(4), 12),
    (cyclic_group(6), 6),
    (dihedral_group(4), 8),
    (symmetric_group(1), 1),
    (trivial_group(5), 1),
]


def test_known_orders():
    for group, order in KNOWN_ORDERS:
        assert group.order() == order


def test_order_matches_brute_force_closure():
    rng = random.Random(23)
    for _ in range(30):
        g = random_group(rng, max_order=600)
        oracle = mulclose([p.images for p in g.generators], g.degree)
        assert g.order() == len(oracle)
        assert element_set(g) == oracle


def test_membership_agrees_with_closure():
    rng = random.Random(29)
    for _ in range(20):
        g = random_group(rng, max_order=400)
        oracle = mulclose([p.images for p in g.generators], g.degree)
        for _ in range(10):
            t = random_perm(rng, g.degree).images
            assert g.contains_images(t) == (t in oracle)
        for t in list(oracle)[:10]:
            assert g.contains_images(t)


def test_chain_is_deterministic():
    gens = symmetric_group(5).generators
    a = generate_group(gens, degree=5)
    b = generate_group(gens, degree=5)
    assert a.chain().base() == b.chain().base()
    assert [g.images for g in a.strong_generators()] == [
        g.images for g in b.strong_generators()
    ]


def test_orbit_and_stabilizer():
    rng = random.Random(31)
    for _ in range(25):
        g = random_group(rng, max_order=720)
        x = rng.randrange(g.degree)
        orbit, stab = g.orbit_and_stabilizer(x)
        assert len(orbit) * stab.order() == g.order()
        assert set(orbit) == set(g.orbit(x))
        oracle = [t for t in g.element_images() if t[x] == x]
        assert stab.order() == len(oracle)
        assert all(stab.contains_images(t) for t in oracle)


def test_pointwise_stabilizer_matches_filter():
    rng = random.Random(37)
    for _ in range(15):
        g = random_group(rng, max_order=500)
        pts = tuple(
            sorted(rng.sample(range(g.degree), rng.randrange(1, min(4, g.degree) + 1)))
        )
        sub = g.pointwise_stabilizer(pts)
        oracle = [
            t for t in g.element_images() if all(t[x] == x for x in pts)
        ]
        assert sub.order() == len(oracle)
        assert all(sub.contains_images(t) for t in oracle)


def test_setwise_stabilizer_matches_filter():
    rng = random.Random(41)
    for _ in range(15):
        g = random_group(rng, max_order=500)
        k = rng.randrange(1, min(4, g.degree) + 1)
        pts = frozenset(rng.sample(range(g.degree), k))
        sub = g.setwise_stabilizer(tuple(sorted(pts)))
        oracle = [
            t for t in g.element_images() if {t[x] for x in pts} == pts
        ]
        assert sub.order() == len(oracle)
        assert all(sub.contains_images(t) for t in oracle)


def test_transporter_matches_scan():
    rng = random.Random(43)
    for _ in range(25):
        g = random_group(rng, max_order=500)
        x, y = rng.randrange(g.degree), rng.randrange(g.degree)
        t = g.transporter(x, y)
        witnesses = [u for u in g.element_images() if u[x] == y]
        if t is None:
            assert not witnesses
        else:
            assert t[x] == y
            assert g.contains_images(t.images)
            assert witnesses


def test_element_with_images_matches_scan():
    rng = random.Random(47)
    for _ in range(30):
        g = random_group(rng, max_order=500)
        k = rng.randrange(1, min(4, g.degree) + 1)
        src = rng.sample(range(g.degree), k)
        if rng.randrange(2):
            # Realizable mapping: restrict an actual element.
            t = rng.choice(list(g.elements()))
            mapping = {x: t[x] for x in src}
        else:
            dst = rng.sample(range(g.degree), k)
            mapping = dict(zip(src, dst))
        found = g.element_with_images(mapping)
        oracle = [
            u
            for u in g.element_images()
            if all(u[a] == b for a, b in mapping.items())
        ]
        if found is None:
            assert not oracle
        else:
            assert g.contains_images(found.images)
            assert all(found[a] == b for a, b in mapping.items())
            assert oracle


def test_coset_action_kernel_is_core():
    rng = random.Random(53)
    for _ in range(12):
        g = random_group(rng, max_order=400)
        h = random_subgroup(rng, g)
        hom = g.coset_action(h)
        assert hom.target_degree == g.order() // h.order()
        assert_same_group(hom.kernel, g.core(h))
        assert element_set(hom.kernel) == oracle_kernel(hom)
        # The trivial coset is labeled 0, so h maps into the stabilizer of 0.
        for u in h.generators:
            assert hom.apply(u)[0] == 0


def test_core_of_a_non_subgroup_is_refused():
    g = cyclic_group(4)
    with pytest.raises(ConstructionError, match="core requires a subgroup"):
        g.core(generate_group([Permutation((1, 0, 2, 3))]))


def test_coset_rep_labels_cover_group():
    g = symmetric_group(4)
    h = g.stabilizer(0)
    hom = g.coset_action(h)
    seen = set()
    for t in g.elements():
        seen.add(hom.apply(t)[0])
    assert seen == set(range(hom.target_degree))


def test_normal_closure_matches_oracle():
    rng = random.Random(59)
    for _ in range(12):
        g = random_group(rng, max_order=300)
        elems = list(g.elements())
        seed = [rng.choice(elems).images]
        closed = g.normal_closure(group_from_images(g.degree, seed))
        oracle = oracle_normal_closure(element_set(g), seed, g.degree)
        assert element_set(closed) == oracle


def test_centralizer_and_normalizer_match_filters():
    rng = random.Random(61)
    for _ in range(10):
        g = random_group(rng, max_order=240)
        h = random_subgroup(rng, g)
        cent = g.centralizer(h)
        norm = g.normalizer(h)
        helems = element_set(h)
        cent_oracle = [
            t
            for t in g.element_images()
            if all(
                compose_images(t, u.images) == compose_images(u.images, t)
                for u in h.generators
            )
        ]
        norm_oracle = [
            t
            for t in g.element_images()
            if all(
                compose_images(compose_images(invert_images(t), u), t)
                in helems
                for u in helems
            )
        ]
        assert cent.order() == len(cent_oracle)
        assert norm.order() == len(norm_oracle)
        assert cent.is_subgroup_of(norm)


def _search_cases():
    """(group, other) pairs: seeded random subgroups, and the base-pair
    stabilizers of Sym(n) on ordered pairs with their Sylow subgroups."""
    from amalgamlab.pairs import build_ordered_pairs
    from amalgamlab.structure import sylow

    rng = random.Random(83)
    cases = []
    for _ in range(12):
        g = random_group(rng, max_order=1000)
        cases.append((g, random_subgroup(rng, g)))
    for n in (5, 6):
        action = build_ordered_pairs(n)
        stab = action.group.stabilizer(action.base_pair_index)
        cases.append((action.group, stab))
        for p in (2, 3):
            cases.append((action.group, sylow(stab, p)))
            cases.append((stab, sylow(stab, p)))
    return cases


def test_searches_keep_the_scan_generators():
    rng = random.Random(89)
    for g, h in _search_cases():
        assert g.normalizer(h).gen_images() == scan_normalizer(g, h).gen_images()
        assert (
            g.centralizer(h).gen_images()
            == scan_centralizer(g, h.gen_images()).gen_images()
        )
        t = rng.choice(list(g.element_images()))
        assert (
            g.centralizer(Permutation(t)).gen_images()
            == scan_centralizer(g, [t]).gen_images()
        )
        conj = h.conjugate(Permutation(t))
        assert (
            intersection(h, conj).gen_images()
            == scan_intersection(h, conj).gen_images()
        )
        pts = rng.sample(range(g.degree), rng.randrange(1, g.degree))
        assert (
            g.setwise_stabilizer(pts).gen_images()
            == scan_setwise_stabilizer(g, pts).gen_images()
        )


def test_searches_scan_no_elements(monkeypatch):
    cases = _search_cases()

    def no_scan(self):
        raise AssertionError("element scan inside a subgroup search")

    monkeypatch.setattr(_Chain, "iter_elements", no_scan)
    for g, h in cases:
        g.normalizer(h)
        g.centralizer(h)
        g.setwise_stabilizer([0, g.degree - 1])
        intersection(g, h)


def test_backtrack_streams_one_hit_per_coset(monkeypatch):
    """Off the identity path the search leaves a subtree after its first
    hit, so the normalizer of the n = 7 base-pair stabilizer streams fewer
    hits into `_grown` than it has elements, and keeps the same generators."""
    from amalgamlab.pairs import build_ordered_pairs

    action = build_ordered_pairs(7)
    stab = action.group.stabilizer(action.base_pair_index)
    expected = scan_normalizer(action.group, stab).gen_images()
    grown = PermGroup._grown
    streamed = []

    def counted(self, images):
        return grown(self, (streamed.append(img) or img for img in images))

    monkeypatch.setattr(PermGroup, "_grown", counted)
    norm = action.group.normalizer(stab)
    assert norm.order() == 240
    assert norm.gen_images() == expected
    assert 0 < len(streamed) < norm.order()


def test_element_walk_composes_once_per_tree_node(monkeypatch):
    """The walk carries the partial product down the chain's tree, so on
    Sym(7) on pairs (orbits 42, 5, 4, 3, 2) it composes once per tree node
    instead of once per level for every element."""
    from amalgamlab import kernels
    from amalgamlab.pairs import build_ordered_pairs

    chain = build_ordered_pairs(7).group.chain()
    nodes, width = 0, 1
    for orbit in chain.basic_orbits():
        width *= len(orbit)
        nodes += width
    compose = kernels.compose
    calls = []

    def counted(p, q):
        calls.append(None)
        return compose(p, q)

    monkeypatch.setattr(kernels, "compose", counted)
    elements = list(chain.iter_elements())
    assert len(set(elements)) == len(elements) == 5040
    assert len(calls) <= nodes == 8652


def test_known_centers():
    assert dihedral_group(4).center().order() == 2
    assert symmetric_group(4).center().order() == 1
    assert cyclic_group(8).center().order() == 8
    q8 = generate_group(
        [perm("(0 1 2 3)(4 5 6 7)"), perm("(0 4 2 6)(1 7 3 5)")]
    )
    assert q8.order() == 8
    assert q8.center().order() == 2


def _check_intersections(seed):
    rng = random.Random(seed)
    for _ in range(12):
        g = random_group(rng, max_order=300)
        a = random_subgroup(rng, g)
        b = random_subgroup(rng, g)
        both = intersection(a, b)
        assert element_set(both) == element_set(a) & element_set(b)
        assert_same_group(both, a.intersection(b))


def test_intersection_filter_path():
    # The cases the old element filter covered, now run by the backtrack.
    _check_intersections(67)


def test_intersection_backtrack_path():
    _check_intersections(71)


def test_join_and_conjugate():
    rng = random.Random(73)
    for _ in range(10):
        g = random_group(rng, max_order=300)
        a = random_subgroup(rng, g)
        b = random_subgroup(rng, g)
        j = a.join(b)
        oracle = mulclose(
            [t.images for t in a.generators + b.generators], g.degree
        )
        assert element_set(j) == oracle
        t = rng.choice(list(g.elements()))
        conj = a.conjugate(t)
        assert element_set(conj) == frozenset(
            compose_images(compose_images(invert_images(t.images), u), t.images)
            for u in element_set(a)
        )


def test_derived_subgroup_keeps_the_commutator_generators():
    """derived_subgroup closes in g itself what commutator_subgroup closes
    in g.join(g): the same seeds and conjugators give the same generators,
    whether or not g's chain is built."""
    rng = random.Random(80)
    for _ in range(16):
        g = random_group(rng)
        expected = commutator_subgroup(g, g).gen_images()
        assert derived_subgroup(g).gen_images() == expected
        g.order()
        assert derived_subgroup(g).gen_images() == expected


def test_commutator_subgroup_and_derived():
    s4 = symmetric_group(4)
    assert derived_subgroup(s4).order() == 12
    assert derived_subgroup(alternating_group(4)).order() == 4
    assert derived_subgroup(dihedral_group(4)).order() == 2
    assert derived_subgroup(cyclic_group(12)).order() == 1
    # [A, B] is normalized by the join and contains generator commutators.
    rng = random.Random(79)
    for _ in range(8):
        g = random_group(rng, max_order=240)
        a = random_subgroup(rng, g)
        b = random_subgroup(rng, g)
        c = commutator_subgroup(a, b)
        amb = a.join(b)
        assert c.is_normal_in(amb)
        for x in a.generators:
            for y in b.generators:
                assert c.contains_images(
                    (x.inverse() * y.inverse() * x * y).images
                )


def test_predicates_on_knowns():
    c6 = cyclic_group(6)
    assert c6.is_transitive() and c6.is_regular() and c6.is_semiregular()
    s4 = symmetric_group(4)
    assert s4.is_transitive() and not s4.is_semiregular()
    v = generate_group([perm("(0 1)(2 3)"), perm("(0 2)(1 3)")])
    assert v.is_regular()
    assert alternating_group(4).is_normal_in(s4)
    assert not generate_group([perm("(0 1)", 4)]).is_normal_in(s4)
    assert trivial_group(3).is_trivial()


def test_direct_sum_generators():
    left = symmetric_group(3)
    right = cyclic_group(4)
    gens = direct_sum_gens(3, 4, left.generators, right.generators)
    g = generate_group(gens, degree=7)
    assert g.order() == 24
    assert [sorted(o) for o in g.orbits()] == [[0, 1, 2], [3, 4, 5, 6]]


def test_fixed_points_and_orbits():
    g = generate_group([perm("(0 1 2)", 6), perm("(4 5)", 6)])
    assert list(g.fixed_points()) == [3]
    assert [sorted(o) for o in g.orbits()] == [[0, 1, 2], [3], [4, 5]]


def test_base_and_basic_orbits_consistent():
    g = symmetric_group(5)
    chain = g.chain()
    base = chain.base()
    order = 1
    for length in (len(o) for o in g.basic_orbits()):
        order *= length
    assert order == g.order()
    assert len(base) == len(g.basic_orbits())


def _chain_state(chain):
    """Every level of a chain, dict entries in insertion order."""
    return [
        (
            lvl.base,
            list(lvl.orbit),
            list(lvl.transversal.items()),
            list(lvl.inverse.items()),
            list(lvl.gens),
        )
        for lvl in chain.levels
    ]


def _random_generators(rng):
    """A few random permutations of degree 2..14, some moving only part of
    the points, so that the groups range from cyclic to Sym(14)."""
    degree = rng.randrange(2, 15)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        points = rng.sample(range(degree), rng.randrange(2, degree + 1))
        shuffled = points[:]
        rng.shuffle(shuffled)
        images = list(range(degree))
        for x, y in zip(points, shuffled):
            images[x] = y
        gens.append(tuple(images))
    return degree, gens


def _bounded_matches(degree, gens, rank, counted):
    """The chain built with its true order as bound equals the unbounded
    chain; returns the sifts each build made."""
    counted.clear()
    full = _Chain(degree, gens, rank=rank)
    unbounded_sifts = len(counted)
    counted.clear()
    bounded = _Chain(degree, gens, rank=rank, bound=full.order())
    assert bounded.complete
    assert _chain_state(bounded) == _chain_state(full)
    return unbounded_sifts, len(counted)


def _count_sifts(monkeypatch):
    calls = []
    sift = _Chain.sift

    def counted(self, img, start=0):
        calls.append(start)
        return sift(self, img, start)

    monkeypatch.setattr(_Chain, "sift", counted)
    return calls


def test_known_order_stop_builds_the_same_chain(monkeypatch):
    """Schreier-Sims stopped at the group's order leaves every level as the
    full scan does: base, orbit order, transversals, inverses, generators."""
    rng = random.Random(2026)
    counted = _count_sifts(monkeypatch)
    saved = 0
    for _ in range(400):
        degree, gens = _random_generators(rng)
        rank = None
        if rng.random() < 0.5:
            rank = list(range(degree))
            rng.shuffle(rank)
        full_sifts, bounded_sifts = _bounded_matches(degree, gens, rank, counted)
        assert bounded_sifts <= full_sifts
        saved += full_sifts - bounded_sifts
    assert saved > 0


def test_known_order_stop_on_graph_groups(monkeypatch):
    """The same on the graph groups of coset and induced actions, in their
    natural and their target-first ranking, bounded by |source|."""
    from amalgamlab.actions import induced_action

    rng = random.Random(2027)
    counted = _count_sifts(monkeypatch)
    for _ in range(40):
        g = random_group(rng, max_order=300)
        if rng.random() < 0.5:
            hom = g.coset_action(random_subgroup(rng, g))
        else:
            orbits = g.orbits()
            if rng.random() < 0.5:
                hom = induced_action(g, rng.choice(orbits))
            else:
                normal = g.normal_closure([rng.choice(list(g.elements()))])
                hom = induced_action(g, normal.orbits())
        graph = hom._graph
        assert graph._bound == g.order()
        n, degree = g.degree, graph.degree
        target_first = [0] * degree
        for i, x in enumerate(list(range(n, degree)) + list(range(n))):
            target_first[x] = i
        for rank in (None, target_first):
            _bounded_matches(degree, graph.gen_images(), rank, counted)


def test_chain_bases_are_the_lowest_ranked_moved_points():
    """Every level's base is the lowest-ranked point that the level's
    generators move: in natural order, in a shuffled ranking, and in the
    ranking `_prefix_chain` gives a shuffled prefix of points."""
    rng = random.Random(2028)
    cases = []
    for _ in range(200):
        degree, gens = _random_generators(rng)
        rank = list(range(degree))
        rng.shuffle(rank)
        cases += [(_Chain(degree, gens), None), (_Chain(degree, gens, rank=rank), rank)]
    for _ in range(40):
        g = random_group(rng)
        prefix = rng.sample(range(g.degree), rng.randrange(1, g.degree + 1))
        # The repeated point is dropped: it keeps its first place.
        chain, _ = g._prefix_chain(prefix + prefix[:1])
        rank = [0] * g.degree
        for i, x in enumerate(prefix + [x for x in range(g.degree) if x not in prefix]):
            rank[x] = i
        cases += [(g.chain(), None), (chain, rank)]
    assert sum(len(chain.levels) for chain, _ in cases) > 2 * len(cases)
    for chain, rank in cases:
        for lvl in chain.levels:
            assert lvl.base == oracle_lowest_moved(lvl.gens, rank)


def _watch_levels(monkeypatch):
    """Wrap `_Chain._place`: each call records (levels before, levels
    after, level returned)."""
    calls = []
    place = _Chain._place

    def watched(self, img, lo, j):
        before = len(self.levels)
        k = place(self, img, lo, j)
        calls.append((before, len(self.levels), k))
        return k

    monkeypatch.setattr(_Chain, "_place", watched)
    return calls


def _random_rank(rng, degree):
    rank = list(range(degree))
    rng.shuffle(rank)
    return rank


def test_inserted_levels_build_the_collapsing_chain(monkeypatch):
    """A chain that inserts a level where a strong generator moves a point
    ranked below an existing base ends in the same state as the reference
    that collapses the tail there and rebuilds it: base, generator lists,
    orbit order, transversals and inverses.  Checked on seeded random
    groups in natural and shuffled ranking, unbounded and bounded by their
    order, and on `_prefix_chain` chains of random groups."""
    import amalgamlab.group as group_module

    calls = _watch_levels(monkeypatch)
    rng = random.Random(2029)
    for _ in range(300):
        degree, gens = _random_generators(rng)
        rank = _random_rank(rng, degree) if rng.random() < 0.5 else None
        chain = _Chain(degree, gens, rank=rank)
        assert _chain_state(chain) == _chain_state(CollapsingChain(degree, gens, rank=rank))
        bound = chain.order()
        bounded = _Chain(degree, gens, rank=rank, bound=bound)
        reference = CollapsingChain(degree, gens, rank=rank, bound=bound)
        assert bounded.complete and reference.complete
        assert _chain_state(bounded) == _chain_state(reference)
    for _ in range(60):
        g = random_group(rng)
        prefix = rng.sample(range(g.degree), rng.randrange(1, g.degree + 1))
        chain, cut = g._prefix_chain(prefix)
        with monkeypatch.context() as patch:
            patch.setattr(group_module, "_Chain", CollapsingChain)
            reference, reference_cut = g._prefix_chain(prefix)
        assert type(reference) is CollapsingChain
        assert cut == reference_cut
        assert _chain_state(chain) == _chain_state(reference)
    # Some builds inserted a level above the last one, where the
    # reference collapses a tail.
    assert any(k < before for before, after, k in calls if after > before)


def test_chain_builds_never_drop_a_level(monkeypatch):
    """Placing a strong generator never shortens the chain: on seeded
    random chains and on every chain the lemma check for n = 8 builds."""
    calls = _watch_levels(monkeypatch)
    rng = random.Random(2030)
    for _ in range(200):
        degree, gens = _random_generators(rng)
        _Chain(degree, gens, rank=_random_rank(rng, degree))
        _Chain(degree, gens)
    assert verify_approximation(8).overall == "pass"
    assert len(calls) > 1000
    assert all(after >= before for before, after, _ in calls)


def test_order_guard_trips_on_huge_groups():
    with pytest.raises(GuardExceededError):
        symmetric_group(60).order()


def test_element_guard_trips_on_scan(monkeypatch):
    """The walk raises while it runs, at its first element past the limit;
    a walk of exactly the limit finishes."""
    g = symmetric_group(5)
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "10")
    walk = g.elements()
    assert len(list(islice(walk, 10))) == 10
    with pytest.raises(GuardExceededError) as info:
        next(walk)
    assert (info.value.guard, info.value.limit, info.value.needed) == (
        "elements", 10, "more than 10"
    )
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "120")
    assert len(list(g.elements())) == 120
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "119")
    with pytest.raises(GuardExceededError):
        list(g.elements())


def test_element_guard_counts_work_not_group_order(monkeypatch):
    """Sym(7), of order 5040, under a limit of 1000: a walk that stops
    after 100 elements and the centralizer backtrack of a 7-cycle (63
    search nodes) finish, with the results computed at the default guard."""
    t = Permutation.from_cycles(7, [tuple(range(7))])
    head = list(islice(symmetric_group(7).element_images(), 100))
    oracle = scan_centralizer(symmetric_group(7), [t.images])
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "1000")
    g = symmetric_group(7)
    assert g.order() > 1000
    assert list(islice(g.element_images(), 100)) == head
    assert g.centralizer(t).gen_images() == oracle.gen_images()


def test_element_guard_trips_in_a_backtrack(monkeypatch):
    """The normalizer of a 7-cycle in Sym(7) forms 2077 search nodes and
    walks no elements; under a limit of 1000 the backtrack raises."""
    c7 = PermGroup([Permutation.from_cycles(7, [tuple(range(7))])])
    g = symmetric_group(7)
    assert g.normalizer(c7).order() == 42
    monkeypatch.setenv("AMALGAMLAB_GUARD_ELEMENTS", "1000")
    with pytest.raises(GuardExceededError) as info:
        symmetric_group(7).normalizer(c7)
    assert info.value.needed == "more than 1000"


def test_degree_mismatch_between_groups():
    with pytest.raises(DegreeMismatchError):
        symmetric_group(3).join(symmetric_group(4))
    with pytest.raises(DegreeMismatchError):
        intersection(symmetric_group(3), symmetric_group(4))


def test_action_hom_map_subgroup():
    g = symmetric_group(4)
    h = g.stabilizer(0)
    hom = g.coset_action(h)
    image = hom.map_subgroup(alternating_group(4))
    assert image.order() == 12  # A4 acts faithfully on the four cosets
    assert hom.image_group().order() == 24
