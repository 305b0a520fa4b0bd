"""Shared fixtures and independent oracles.

The oracles in this file are deliberately naive: breadth-first closures
over raw image tuples and exhaustive backtracking searches.  They share no
code with the package internals (no stabilizer chains, no partition
refinement), so agreement between the two is meaningful evidence of
correctness rather than a tautology.  The one exception is
`CollapsingChain`, a stabilizer chain that grows by an older, simpler rule
and serves as the reference state for `_Chain` builds.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from amalgamlab.group import (
    PermGroup,
    _Chain,
    _Level,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_sum_gens,
    generate_group,
    symmetric_group,
)
from amalgamlab.perm import Permutation
from amalgamlab.structure import p_prime_part


# --------------------------------------------------------------------------
# tuple-level oracle arithmetic (independent of the kernels backends)
# --------------------------------------------------------------------------


def compose_images(p: tuple, q: tuple) -> tuple:
    """Left-to-right composition of image tuples: x -> q[p[x]]."""
    return tuple(q[v] for v in p)


def invert_images(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def conjugate_images(p: tuple, g: tuple) -> tuple:
    """g^-1 * p * g as an image tuple."""
    return compose_images(compose_images(invert_images(g), p), g)


def mulclose(images, degree: int, cap: int | None = None) -> frozenset:
    """Brute-force closure of a set of image tuples under composition."""
    ident = tuple(range(degree))
    seen = {ident}
    gens = [tuple(g) for g in images]
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = compose_images(t, g)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if cap is not None and len(seen) > cap:
                        raise AssertionError("oracle closure exceeded cap")
        frontier = nxt
    return frozenset(seen)


def element_set(group: PermGroup) -> frozenset:
    """All elements of a (small) group as image tuples."""
    return frozenset(group.element_images())


def group_from_images(degree: int, images) -> PermGroup:
    return generate_group(
        [Permutation(tuple(t)) for t in images], degree=degree
    )


def assert_same_group(a: PermGroup, b: PermGroup) -> None:
    assert a.degree == b.degree
    assert a.order() == b.order()
    assert all(a.contains_images(g.images) for g in b.generators)


def oracle_hom_table(hom) -> dict:
    """Every source element with its image under an action homomorphism.

    Closes the generator pairs (g, g^phi), glued into one tuple on source
    plus target points, under composition; two images for one source
    element mean the generator images define no homomorphism.
    """
    n = hom.source.degree
    pairs = mulclose(
        (
            g.images + tuple(n + x for x in h.images)
            for g, h in zip(hom.source.generators, hom.generator_images)
        ),
        n + hom.target_degree,
    )
    table = {t[:n]: tuple(x - n for x in t[n:]) for t in pairs}
    assert len(table) == len(pairs), "generator images define no homomorphism"
    return table


def oracle_kernel(hom) -> frozenset:
    """{g : g^phi = 1}, by scanning the element table."""
    ident = tuple(range(hom.target_degree))
    return frozenset(g for g, h in oracle_hom_table(hom).items() if h == ident)


def oracle_normal_closure(group_images: frozenset, seed_images, degree: int):
    """Smallest subset of group_images closed under multiplication and
    conjugation by every group element, containing seed_images."""
    seen = {tuple(range(degree))}
    frontier = []
    for s in seed_images:
        s = tuple(s)
        if s not in seen:
            seen.add(s)
            frontier.append(s)
    while frontier:
        t = frontier.pop()
        new = [compose_images(t, u) for u in list(seen)]
        new += [compose_images(u, t) for u in list(seen)]
        new += [
            compose_images(compose_images(invert_images(g), t), g)
            for g in group_images
        ]
        for u in new:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


# --------------------------------------------------------------------------
# element scans: subgroup searches and the class walk
# --------------------------------------------------------------------------
# The library finds these subgroups by a pruned chain backtrack.  The scans
# below filter every element in chain order and grow the group from the
# hits, so equal generator lists show that the pruning dropped no hit and
# kept the order in which hits are found.  The class walk is the library's
# without its early stop.


def scan_normalizer(group: PermGroup, other: PermGroup) -> PermGroup:
    targets = other.gen_images()
    return group._grown(
        img
        for img in group.element_images()
        if all(
            other.contains_images(conjugate_images(t, img)) for t in targets
        )
    )


def scan_centralizer(group: PermGroup, targets) -> PermGroup:
    """Centralizer of a list of image tuples."""
    return group._grown(
        img
        for img in group.element_images()
        if all(compose_images(t, img) == compose_images(img, t) for t in targets)
    )


def scan_setwise_stabilizer(group: PermGroup, points) -> PermGroup:
    target = set(points)
    return group._grown(
        img
        for img in group.element_images()
        if all(img[x] in target for x in target)
    )


def scan_intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    small, big = (a, b) if a.order() <= b.order() else (b, a)
    return small._grown(
        img for img in small.element_images() if big.contains_images(img)
    )


def oracle_lowest_moved(gens, rank) -> int:
    """The lowest-ranked point that any of the image tuples gens moves:
    the least of their moved points under `rank`, a list from point to
    rank (None ranks the points in their natural order)."""
    key = None if rank is None else rank.__getitem__
    return min((x for g in gens for x in Permutation(g).moved_points()), key=key)


class CollapsingChain(_Chain):
    """Reference Schreier-Sims that grows by collapse and rebuild.

    Unlike the oracles above it is a stabilizer chain, and differs from
    `_Chain` only in `_place`: when a strong generator moves a point ranked
    below the base of level k, it deletes levels k.. and starts a fresh
    level from level k's generators plus the new one, based at the
    lowest-ranked point any of them moves, for `_process` to rebuild the
    tail from scratch.  `_Chain` inserts one level there instead and keeps
    the tail; the two must end in the same state.
    """

    def _place(self, img: tuple, lo: int, j: int) -> int:
        moved = self._min_moved(img)
        m_rank = self._point_rank(moved)
        for k in range(lo, j + 1):
            if k == len(self.levels):
                self.levels.append(_Level(moved, [img]))
                self._extend_orbit(k)
                self._check_order()
                return k
            lvl = self.levels[k]
            if m_rank < self._point_rank(lvl.base):
                gens = lvl.gens + [img]
                del self.levels[k:]
                self.levels.append(_Level(self._lowest_moved(gens), gens))
                self._extend_orbit(k)
                self._check_order()
                return k
            if img not in lvl.gen_set:
                lvl.gens.append(img)
                lvl.gen_set.add(img)
                self._extend_orbit(k)
        self._check_order()
        return j


def scan_conjugacy_classes(group: PermGroup) -> list[tuple[tuple, int]]:
    """(representative, size) of every class, walking every element in
    chain order; each element outside the classes found starts a new one,
    closed under conjugation by the generators."""
    gens = group.gen_images()
    visited: set[tuple] = set()
    classes = []
    for t in group.element_images():
        if t in visited:
            continue
        orbit = [t]
        visited.add(t)
        for s in orbit:
            for g in gens:
                c = conjugate_images(s, g)
                if c not in visited:
                    visited.add(c)
                    orbit.append(c)
        classes.append((t, len(orbit)))
    return classes


def bfs_normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup by breadth-first closure over class unions,
    closing every (subgroup, class representative) pair met; representatives
    come from `scan_conjugacy_classes`, and results are sorted by order,
    ties broken by their class-index sets."""
    reps = [Permutation(t) for t, _ in scan_conjugacy_classes(group)]

    def signature(n: PermGroup) -> frozenset[int]:
        return frozenset(i for i, r in enumerate(reps) if r in n)

    base = PermGroup((), degree=group.degree)
    found = {signature(base): base}
    queue = [base]
    while queue:
        current = queue.pop(0)
        for rep in reps:
            if rep in current:
                continue
            grown = group.normal_closure(
                PermGroup(current.generators + (rep,), degree=group.degree)
            )
            sig = signature(grown)
            if sig not in found:
                found[sig] = grown
                queue.append(grown)
    return [
        found[sig]
        for sig in sorted(
            found, key=lambda s: (found[s].order(), tuple(sorted(s)))
        )
    ]


# --------------------------------------------------------------------------
# p-functors by element scan
# --------------------------------------------------------------------------
# The library builds O^p from normal closures and Omega_1 from the kernel of
# z -> z^p.  These scans generate the same subgroups from their definitions.


def scan_o_upper_p(group: PermGroup, p: int) -> PermGroup:
    """O^p(G), generated by the p'-parts of all elements.  That generating
    set is closed under conjugation, so its span is normal."""
    parts: list[tuple] = []
    seen: set[tuple] = set()
    for g in group.elements():
        t = p_prime_part(g, p).images
        if t not in seen:
            seen.add(t)
            parts.append(t)
    return PermGroup.from_images(group.degree, parts)


def scan_omega1_center(x: PermGroup, p: int) -> PermGroup:
    """Subgroup of the center generated by its elements of order p."""
    gens = [z for z in x.center().elements() if z.order() == p]
    return PermGroup(gens, degree=x.degree)


# --------------------------------------------------------------------------
# brute-force graph automorphism oracle
# --------------------------------------------------------------------------


def oracle_automorphisms(graph) -> list[tuple[int, ...]]:
    """Every adjacency-preserving bijection, found by plain backtracking
    over vertex images with no partition refinement."""
    n = graph.vertex_count
    adj = [frozenset(graph.neighbors(v)) for v in range(n)]
    deg = [len(adj[v]) for v in range(n)]
    images = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(images))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((u in adj[v]) == (images[u] in adj[w]) for u in range(v)):
                images[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        images[v] = -1

    extend(0)
    return found


def oracle_ball_series(graph, autos, x: int, r_max: int) -> list[int]:
    """Pointwise ball-stabilizer orders computed by filtering an explicit
    automorphism list; no group machinery involved."""
    dist = graph.distances(x)
    orders = []
    for r in range(r_max + 1):
        ball = [v for v in range(graph.vertex_count) if 0 <= dist[v] <= r]
        orders.append(
            sum(1 for a in autos if all(a[v] == v for v in ball))
        )
    return orders


def oracle_pair_ball_series(graph, autos, x: int, y: int, r_max: int):
    dx = graph.distances(x)
    dy = graph.distances(y)
    orders = []
    for r in range(1, r_max + 1):
        ball = [
            v
            for v in range(graph.vertex_count)
            if (0 <= dx[v] <= r) or (0 <= dy[v] <= r)
        ]
        orders.append(
            sum(1 for a in autos if all(a[v] == v for v in ball))
        )
    return orders


# --------------------------------------------------------------------------
# seeded random group factory
# --------------------------------------------------------------------------

MAX_POOL_ORDER = 2000


def random_perm(rng: random.Random, degree: int) -> Permutation:
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _random_sym_subgroup(rng: random.Random) -> PermGroup:
    degree = rng.randrange(4, 10)
    k = rng.randrange(1, 4)
    for _ in range(12):
        gens = [random_perm(rng, degree) for _ in range(k)]
        g = generate_group(gens, degree=degree)
        if 1 < g.order() <= MAX_POOL_ORDER:
            return g
    return generate_group([random_perm(rng, degree)], degree=degree)


def _random_named(rng: random.Random) -> PermGroup:
    kind = rng.randrange(4)
    if kind == 0:
        return cyclic_group(rng.randrange(2, 13))
    if kind == 1:
        return dihedral_group(rng.randrange(3, 11))
    if kind == 2:
        return symmetric_group(rng.randrange(2, 7))
    return alternating_group(rng.randrange(3, 8))


def _random_direct_sum(rng: random.Random) -> PermGroup:
    left = _random_named(rng)
    right = _random_named(rng)
    if left.degree + right.degree > 16:
        return left
    gens = direct_sum_gens(
        left.degree, right.degree, left.generators, right.generators
    )
    g = generate_group(gens, degree=left.degree + right.degree)
    return g if g.order() <= MAX_POOL_ORDER else left


def random_group(rng: random.Random, max_order: int = MAX_POOL_ORDER) -> PermGroup:
    """A nontrivial permutation group of order <= max_order drawn from a
    mixture of random subgroups of symmetric groups, standard families and
    direct sums."""
    while True:
        kind = rng.randrange(8)
        if kind < 4:
            g = _random_sym_subgroup(rng)
        elif kind < 6:
            g = _random_named(rng)
        else:
            g = _random_direct_sum(rng)
        if 1 < g.order() <= max_order:
            return g


def random_subgroup(rng: random.Random, group: PermGroup) -> PermGroup:
    """A random subgroup generated by a few random elements."""
    elems = list(group.elements())
    k = rng.randrange(0, 3)
    gens = [rng.choice(elems) for _ in range(k)] if k else []
    return generate_group(gens, degree=group.degree)


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# shared fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def catalog_instances():
    from amalgamlab.graphs import catalog_graph, catalog_names

    return {name: catalog_graph(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def tutte_coxeter_section4():
    """The product construction seeded with the two-coordinate action of
    Sym(4) and its order-4 semiregular witness, glued to the Tutte-Coxeter
    vertex-edge amalgam.  Shared because several suites re-examine it."""
    from amalgamlab.actions import classify_action
    from amalgamlab.amalgams import amalgam_from_pair, inflate_amalgam
    from amalgamlab.graphs import catalog_graph
    from amalgamlab.pairs import build_ordered_pairs

    action = build_ordered_pairs(4)
    seed = classify_action(action.group).witnesses["quasiprimitive"]
    inst = catalog_graph("tutte-coxeter")
    h = amalgam_from_pair(inst, 0, inst.graph.neighbors(0)[0])
    return inflate_amalgam(action.group, seed, h)
