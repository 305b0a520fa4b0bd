"""Transitivity hierarchy of permutation actions.

Classifies a finite permutation group into one of the levels

    intransitive < transitive-only < semiprimitive < quasiprimitive < primitive

where a transitive group is *semiprimitive* when every normal subgroup is
transitive or semiregular, *quasiprimitive* when every nontrivial normal
subgroup is transitive, and *primitive* when it admits no nontrivial block
system.  Also extracts plinths (minimally transitive normal subgroups),
minimal block systems, permutation isomorphisms between actions, and the
actions induced on invariant sets and invariant partitions.
"""

from __future__ import annotations

from collections import Counter

from . import kernels
from .config import guards
from .errors import ConstructionError, GuardExceededError, WitnessError
from .group import ActionHom, PermGroup
from .perm import Permutation

__all__ = [
    "ActionProfile",
    "ClassificationReport",
    "action_profile",
    "block_systems",
    "classify_action",
    "induced_action",
    "is_primitive",
    "permutation_isomorphism",
]

LEVELS = (
    "intransitive",
    "transitive-only",
    "semiprimitive",
    "quasiprimitive",
    "primitive",
)


class ActionProfile:
    """Transitivity and semiregularity of one action."""

    __slots__ = ("transitive", "semiregular", "regular", "orbits")

    def __init__(
        self,
        transitive: bool,
        semiregular: bool,
        regular: bool,
        orbits: tuple[tuple[int, ...], ...],
    ) -> None:
        self.transitive = transitive
        self.semiregular = semiregular
        self.regular = regular
        self.orbits = orbits


def action_profile(group: PermGroup) -> ActionProfile:
    orbits = tuple(tuple(o) for o in group.orbits())
    semiregular = group.is_semiregular()
    transitive = len(orbits) == 1
    return ActionProfile(
        transitive=transitive,
        semiregular=semiregular,
        regular=transitive and semiregular,
        orbits=orbits,
    )


# -- block systems ----------------------------------------------------------


def _merge_congruence(group: PermGroup, x: int) -> tuple[frozenset, ...]:
    """Smallest G-congruence identifying 0 and x (seed-pair merging)."""
    n = group.degree
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    queue = [(0, x)]
    parent[find(x)] = find(0)
    gen_images = group.gen_images()
    while queue:
        a, b = queue.pop()
        for g in gen_images:
            ra, rb = find(g[a]), find(g[b])
            if ra != rb:
                parent[rb] = ra
                queue.append((ra, rb))
    blocks: dict[int, list[int]] = {}
    for point in range(n):
        blocks.setdefault(find(point), []).append(point)
    return tuple(frozenset(b) for b in blocks.values())


def _refines(fine: tuple[frozenset, ...], coarse: tuple[frozenset, ...]) -> bool:
    lookup = {}
    for i, block in enumerate(coarse):
        for point in block:
            lookup[point] = i
    return all(len({lookup[p] for p in block}) == 1 for block in fine)


def block_systems(group: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All minimal nontrivial block systems of a transitive group.

    Every minimal system is the congruence generated by some pair (0, x);
    the candidates are computed for all x, deduplicated, and filtered down
    to the refinement-minimal ones.
    """
    if not group.is_transitive():
        raise WitnessError("block_systems needs a transitive group")
    n = group.degree
    candidates: list[tuple[frozenset, ...]] = []
    seen = set()
    for x in range(1, n):
        system = _merge_congruence(group, x)
        if len(system) in (1, n):
            continue
        key = frozenset(system)
        if key not in seen:
            seen.add(key)
            candidates.append(system)
    minimal = [
        s
        for s in candidates
        if not any(t is not s and _refines(t, s) for t in candidates)
    ]
    shaped = [
        tuple(sorted((tuple(sorted(b)) for b in s), key=lambda b: b[0]))
        for s in minimal
    ]
    return sorted(shaped, key=lambda s: (len(s), s))


def is_primitive(group: PermGroup) -> bool:
    return group.is_transitive() and not block_systems(group)


# -- classification ---------------------------------------------------------


class ClassificationReport:
    """Where one action sits in the transitivity hierarchy.

    ``witnesses`` maps each failed level that admits a normal-subgroup
    certificate to one such subgroup; imprimitivity of a quasiprimitive
    group has no normal witness, so ``block_system`` carries the partition
    certificate whenever the action is imprimitive.
    """

    __slots__ = ("level", "witnesses", "plinths", "block_system")

    def __init__(
        self,
        level: str,
        witnesses: dict[str, PermGroup],
        plinths: tuple[PermGroup, ...],
        block_system: tuple[tuple[int, ...], ...] | None,
    ) -> None:
        self.level = level
        self.witnesses = witnesses
        self.plinths = plinths
        self.block_system = block_system


def classify_action(group: PermGroup) -> ClassificationReport:
    from .structure import normal_subgroups

    if not group.is_transitive():
        return ClassificationReport("intransitive", {}, (), None)
    blocks = block_systems(group)
    lattice = normal_subgroups(group, _blocks=blocks)
    order = group.order()
    witnesses: dict[str, PermGroup] = {}
    semiprimitive = True
    quasiprimitive = True
    transitive_normals: list[PermGroup] = []
    for sub in lattice:
        profile = action_profile(sub)
        if profile.transitive:
            transitive_normals.append(sub)
        if sub.is_trivial() or sub.order() == order:
            continue
        if not profile.transitive:
            quasiprimitive = False
            witnesses.setdefault("quasiprimitive", sub)
            witnesses.setdefault("primitive", sub)
        if not (profile.transitive or profile.semiregular):
            semiprimitive = False
            witnesses.setdefault("semiprimitive", sub)
    primitive = not blocks
    if primitive:
        level = "primitive"
    elif quasiprimitive:
        level = "quasiprimitive"
    elif semiprimitive:
        level = "semiprimitive"
    else:
        level = "transitive-only"
    assert not (primitive and not quasiprimitive)
    assert not (quasiprimitive and not semiprimitive)
    plinths = tuple(
        n
        for n in transitive_normals
        if not any(
            m.order() < n.order() and m.is_subgroup_of(n)
            for m in transitive_normals
        )
    )
    return ClassificationReport(
        level=level,
        witnesses=witnesses,
        plinths=plinths,
        block_system=blocks[0] if blocks else None,
    )


# -- permutation isomorphism ------------------------------------------------


def _pair_orbit_ids(group: PermGroup) -> list[list[int]]:
    """Orbit index of every ordered pair under the diagonal action."""
    n = group.degree
    ids = [[-1] * n for _ in range(n)]
    gen_images = group.gen_images()
    next_id = 0
    for a in range(n):
        for b in range(n):
            if ids[a][b] != -1:
                continue
            ids[a][b] = next_id
            queue = [(a, b)]
            while queue:
                x, y = queue.pop()
                for g in gen_images:
                    gx, gy = g[x], g[y]
                    if ids[gx][gy] == -1:
                        ids[gx][gy] = next_id
                        queue.append((gx, gy))
            next_id += 1
    return ids


def permutation_isomorphism(
    g1: PermGroup, g2: PermGroup
) -> tuple[int, ...] | None:
    """Point bijection b with b-conjugation carrying g1 onto g2, or None.

    Backtracks over images of 0, 1, ... in increasing order, so the first
    witness found is the lexicographically least one.  Pruning: a partial
    map must send ordered pairs to ordered pairs inducing a consistent
    bijection of pair orbits (in particular orbit sizes match).  At a full
    assignment the conjugate of every generator must lie in g2; equal
    orders then force equality of the conjugated group with g2.
    """
    limit = guards().isomorphism_degree
    if g1.degree > limit or g2.degree > limit:
        raise GuardExceededError(
            "isomorphism_degree", limit, max(g1.degree, g2.degree)
        )
    n = g1.degree
    if g2.degree != n or g1.order() != g2.order():
        return None
    ids1, ids2 = _pair_orbit_ids(g1), _pair_orbit_ids(g2)
    count1 = Counter(v for row in ids1 for v in row)
    count2 = Counter(v for row in ids2 for v in row)
    if sorted(count1.values()) != sorted(count2.values()):
        return None
    gen_images = g1.gen_images()

    b = [-1] * n
    used = [False] * n
    orbit_map: dict[int, int] = {}
    orbit_map_rev: dict[int, int] = {}

    def undo(added: list[int]) -> None:
        for o1 in added:
            del orbit_map_rev[orbit_map.pop(o1)]

    def admissible(x: int, y: int) -> list[int] | None:
        """Bind the pair orbits that mapping x to y forces; the orbits
        newly bound, or None (with nothing bound) if that clashes."""
        added: list[int] = []
        for prev in range(x + 1):
            px = b[prev] if prev < x else y
            for o1, o2 in (
                (ids1[prev][x], ids2[px][y]),
                (ids1[x][prev], ids2[y][px]),
            ):
                bound = orbit_map.get(o1)
                if bound == o2:
                    continue
                if bound is not None or o2 in orbit_map_rev or count1[o1] != count2[o2]:
                    undo(added)
                    return None
                orbit_map[o1] = o2
                orbit_map_rev[o2] = o1
                added.append(o1)
        return added

    def conjugates_into(mapping: list[int]) -> bool:
        inv = kernels.inverse(tuple(mapping))
        for g in gen_images:
            moved = kernels.compose(kernels.compose(inv, g), tuple(mapping))
            if not g2.contains_images(moved):
                return False
        return True

    def search(x: int) -> bool:
        if x == n:
            return conjugates_into(b)
        for y in range(n):
            if used[y]:
                continue
            added = admissible(x, y)
            if added is None:
                continue
            b[x] = y
            used[y] = True
            if search(x + 1):
                return True
            used[y] = False
            b[x] = -1
            undo(added)
        return False

    return tuple(b) if search(0) else None


# -- induced actions --------------------------------------------------------


def _induced_on_set(group: PermGroup, points: tuple[int, ...]) -> ActionHom:
    position = {p: i for i, p in enumerate(points)}
    images = []
    for g in group.gen_images():
        if any(g[p] not in position for p in points):
            raise ConstructionError(
                "point set is not invariant under the group"
            )
        images.append(Permutation._raw(tuple(position[g[p]] for p in points)))
    return ActionHom(group, len(points), images)


def _induced_on_partition(
    group: PermGroup, blocks: tuple[tuple[int, ...], ...]
) -> ActionHom:
    n = group.degree
    block_of = [-1] * n
    for i, block in enumerate(blocks):
        for p in block:
            if not 0 <= p < n or block_of[p] != -1:
                raise ConstructionError(
                    "blocks must partition the domain exactly once"
                )
            block_of[p] = i
    if any(i == -1 for i in block_of):
        raise ConstructionError("blocks must cover the whole domain")
    images = []
    for g in group.gen_images():
        row = []
        for block in blocks:
            targets = {block_of[g[p]] for p in block}
            if len(targets) != 1:
                raise ConstructionError(
                    "partition is not invariant under the group"
                )
            row.append(targets.pop())
        images.append(Permutation(row))
    return ActionHom(group, len(blocks), images)


def induced_action(group: PermGroup, domain) -> ActionHom:
    """Action induced on an invariant point set or an invariant partition.

    ``domain`` is either an iterable of points (restriction to an invariant
    set, kernel = pointwise stabilizer) or an iterable of blocks covering
    the domain (action on blocks, kernel = setwise stabilizer of every
    block).
    """
    items = list(domain)
    if not items:
        raise ConstructionError("domain must be nonempty")
    if all(isinstance(x, int) for x in items):
        points = tuple(sorted(set(items)))
        if len(points) != len(items):
            raise ConstructionError("duplicate points in domain")
        return _induced_on_set(group, points)
    blocks = tuple(
        sorted((tuple(sorted(block)) for block in items), key=lambda b: b[0])
    )
    return _induced_on_partition(group, blocks)
