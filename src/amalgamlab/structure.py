"""Subgroup functors: Sylow subgroups, cores, residuals, and normal lattices.

Everything here is exact and deterministic.  Cores, p-residuals and
Omega_1 come from intersections, normal closures and `ActionHom` kernels,
Sylow subgroups from seeded random draws.  Only the type pass and class
walk of `conjugacy_classes` (hence `normal_subgroups`) and the Thompson
search of a non-abelian group walk elements, each counted against the
``elements`` guard as it goes; the Thompson search also has an order
guard, as it is exponential at worst.

Conjugacy classes are certified rather than walked where the group allows
it: representatives of distinct cycle types are never conjugate, so once
the classes of the cycle types met in chain order add up to |G|, no class
is missing.  In Sym(k) on its k points the class of a cycle type has a
known size, so none is closed.  Only a group in which some cycle type holds
several classes falls back to closing every class under conjugation.

The normal-subgroup lattice of a transitive group is worked out in a
faithful action on a minimal block system when there is one, and pulled
back (see `normal_subgroups`).

Conventions
-----------
* The trivial group counts as a p-group for every prime p (order p^0).
* "p-part" of an element g of order p^a * r (p not dividing r) is the unique
  power of g with order p^a; the "p'-part" is the complementary power of
  order r.  Their product is g and they commute.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from math import factorial
from operator import itemgetter

from . import kernels
from .config import guards
from .errors import GuardExceededError, WitnessError
from .group import ActionHom, PermGroup, _element_ticks, derived_subgroup, trivial_group
from .perm import Permutation

__all__ = [
    "ConjugacyClass",
    "conjugacy_classes",
    "frattini_p",
    "is_prime",
    "minimal_normal",
    "normal_subgroups",
    "o_p",
    "o_upper_p",
    "omega1_center",
    "p_part",
    "p_valuation",
    "sylow",
    "thompson_subgroup",
]


# -- arithmetic helpers -----------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def p_valuation(n: int, p: int) -> tuple[int, int]:
    """Split n = p**a * r with p not dividing r; returns (a, r)."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a, n


def p_part(g: Permutation, p: int) -> Permutation:
    """The power of g whose order is the full p-power dividing g's order."""
    a, r = p_valuation(g.order(), p)
    if a == 0:
        return Permutation.identity(g.degree)
    if r == 1:
        return g
    # Exponent e with e = 1 mod p**a and e = 0 mod r picks out the p-part.
    return g ** (r * pow(r, -1, p**a))


def _require_p_group(group: PermGroup, p: int, where: str) -> None:
    """Raise unless |group| is a power of p (the trivial group qualifies)."""
    _require_prime(p)
    if p_valuation(group.order(), p)[1] != 1:
        raise WitnessError(
            f"{where} needs a {p}-group, got a group of order {group.order()}"
        )


# -- Sylow subgroups and the two p-radicals ---------------------------------


def sylow(group: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown from draws of a `random.Random` seeded by p.

    P starts trivial in host G.  Each draw, one tick of the ``elements``
    guard, is a uniform element of the host; its p-part is adjoined when
    outside P, and the host becomes N_G(P).  P is normal in its normalizer,
    so the span is again a p-group; while P is not Sylow, p divides
    |N_G(P) : P|, so some draw lands outside P.  Reports use only the
    order and core of the result, which do not depend on the draws.
    """
    _require_prime(p)
    a, _ = p_valuation(group.order(), p)
    rng, ticks = random.Random(p), _element_ticks()
    current, host = trivial_group(group.degree), group
    while current.order() < p**a:
        next(ticks)
        y = p_part(Permutation._raw(host.chain().draw(rng)), p)
        if not y.is_identity() and y not in current:
            current = PermGroup(current.generators + (y,), degree=group.degree)
            if current.order() < p**a:
                host = group.normalizer(current)
    return current


def o_p(group: PermGroup, p: int) -> PermGroup:
    """Largest normal p-subgroup: the core of any Sylow p-subgroup.

    A nontrivial p-group is its own largest normal p-subgroup, so it is
    returned before any Sylow subgroup is grown."""
    _require_prime(p)
    a, r = p_valuation(group.order(), p)
    if a and r == 1:
        return group
    sub = sylow(group, p)
    if sub.is_trivial():
        return sub
    return group.core(sub)


def o_upper_p(group: PermGroup, p: int) -> PermGroup:
    """Smallest normal subgroup with p-group quotient.

    The limit of N -> [N,N]N^p from N = G.  Each term is characteristic in
    the one before, so normal in G, with an elementary abelian p-quotient;
    the order stops falling at a term with no p-quotient.  Every p'-element
    of G lies in each term, so the limit is generated by them: O^p(G).
    """
    _require_prime(p)
    current, step = group, _frattini_step(group, p)
    while step.order() < current.order():
        current, step = step, _frattini_step(step, p)
    return current


# -- distinguished subgroups of p-groups ------------------------------------


def _omega1_abelian(z: PermGroup, p: int) -> PermGroup:
    """Omega_1 of an abelian group z: the kernel of the homomorphism z -> z^p."""
    return ActionHom(z, z.degree, [g**p for g in z.generators]).kernel


def omega1_center(x: PermGroup, p: int) -> PermGroup:
    """Subgroup of the center generated by its elements of order p."""
    _require_p_group(x, p, "omega1_center")
    return _omega1_abelian(x.center(), p)


def thompson_subgroup(x: PermGroup, p: int) -> PermGroup:
    """Subgroup generated by all elementary abelian subgroups of largest order.

    For abelian x the unique largest elementary abelian subgroup is its
    Omega_1, so no search is needed.  Otherwise a breadth-first search
    enumerates every elementary abelian subgroup as a frozenset of element
    tuples, extending each by commuting elements of order p; dedup on the
    element set keeps each subgroup visited once.
    """
    _require_p_group(x, p, "thompson_subgroup")
    limit = guards().thompson_order
    if x.order() > limit:
        raise GuardExceededError("thompson_order", limit, x.order())
    if all(a * b == b * a for a in x.generators for b in x.generators):
        return _omega1_abelian(x, p)
    order_p = [g for g in x.elements() if g.order() == p]
    identity = Permutation.identity(x.degree).images
    powers = {
        g.images: [(g**k).images for k in range(p)] for g in order_p
    }
    start = frozenset([identity])
    visited = {start}
    queue: list[tuple[frozenset, tuple]] = [(start, ())]
    while queue:
        members, gens = queue.pop(0)
        for g in order_p:
            t = g.images
            if t in members:
                continue
            if any(
                kernels.compose(t, h) != kernels.compose(h, t) for h in gens
            ):
                continue
            grown = frozenset(
                kernels.compose(m, tk) for m in members for tk in powers[t]
            )
            if grown not in visited:
                visited.add(grown)
                queue.append((grown, gens + (t,)))
    best = max(len(s) for s in visited)
    span: list[tuple] = []
    seen: set[tuple] = set()
    for s in sorted(visited, key=sorted):
        if len(s) == best:
            for t in sorted(s):
                if t not in seen:
                    seen.add(t)
                    span.append(t)
    return PermGroup.from_images(x.degree, span)


def frattini_p(x: PermGroup, p: int) -> PermGroup:
    """Frattini subgroup of a p-group: commutators and p-th powers."""
    _require_p_group(x, p, "frattini_p")
    return _frattini_step(x, p)


def _frattini_step(x: PermGroup, p: int) -> PermGroup:
    """[x,x]x^p, the smallest normal subgroup with elementary abelian
    p-quotient.  The quotient by [x,x] is abelian, so the p-th powers of
    the generators alone complete [x,x] to [x,x]*x^p."""
    return x._within(
        derived_subgroup(x).gen_images() + [(g**p).images for g in x.generators]
    )


# -- conjugacy classes and the normal-subgroup lattice ----------------------


class ConjugacyClass:
    """A conjugacy class, named by its first element in enumeration order."""

    __slots__ = ("representative", "size")

    def __init__(self, representative: Permutation, size: int) -> None:
        self.representative = representative
        self.size = size


class _Image:
    """A faithful image of a group G, where classes are closed and
    memberships decided.

    `group` is the image of `source` under `hom`, a faithful action, or
    `source` itself when `hom` is None; `project` sends an element of G to
    its image.  A faithful image is isomorphic to G, so conjugacy,
    membership and closure decide there as they do in G.
    """

    __slots__ = ("source", "group", "project", "hom")

    def __init__(
        self,
        source: PermGroup,
        group: PermGroup,
        project: Callable[[tuple], tuple],
        hom: ActionHom | None = None,
    ) -> None:
        self.source = source
        self.group = group
        self.project = project
        self.hom = hom

    @classmethod
    def itself(cls, group: PermGroup) -> "_Image":
        return cls(group, group, lambda t: t)

    def walk(self) -> Iterator[tuple]:
        """The images of G's elements, in G's chain order."""
        if self.hom is None:
            return self.source.element_images()
        return self.source.chain().iter_elements(self.project)

    def preimage(self, img: tuple) -> tuple:
        if self.hom is None:
            return img
        return self.hom.preimage(Permutation._raw(img)).images

    def pull_back(self, sub: PermGroup) -> PermGroup:
        """The preimage of a subgroup of the image, generated by the
        preimages of its generators in order."""
        if self.hom is None:
            return sub
        return PermGroup.from_images(
            self.source.degree, map(self.preimage, sub.gen_images())
        )._bounded(sub.order())


def _faithful_block_image(
    group: PermGroup, blocks: Sequence[tuple[tuple[int, ...], ...]]
) -> _Image:
    """The action on the first of the block systems (fewest blocks first)
    whose block action is faithful, or the group itself when none is."""
    from .actions import induced_action

    for system in blocks:
        hom = induced_action(group, system)
        image = hom.image_group()
        if image.order() != group.order():
            continue
        block_of = [0] * group.degree
        for i, block in enumerate(system):
            for x in block:
                block_of[x] = i
        # A block goes to the block that holds the image of its first point.
        firsts = itemgetter(*(block[0] for block in system))
        return _Image(
            group, image, lambda t: tuple(map(block_of.__getitem__, firsts(t))), hom
        )
    return _Image.itself(group)


def conjugacy_classes(
    group: PermGroup, *, _image: _Image | None = None
) -> list[ConjugacyClass]:
    """All conjugacy classes; representatives in element-enumeration order.

    Type pass: the elements are walked in chain order, and each one whose
    cycle type is new becomes a representative.  Two elements of different
    cycle types are not conjugate even in the full symmetric group, so
    these classes are distinct, and once their sizes add up to |G| they
    are all the classes: the walk stops there.  Every class lies inside
    one cycle type, so the first element of a type that is one class is
    the first element of that class.

    When the group the classes are taken in (the group, or its image
    below) has order k! on its k points, it is Sym(k): each cycle type is
    one class, and the class of the type with m_i cycles of length i has
    k!/z elements, z = prod i^(m_i) m_i! (Sagan, *The Symmetric Group*,
    2nd ed., Prop. 1.1.1).  Any other class is sized by closing it under
    conjugation by the generators while it has at most b*m elements, for
    a chain of b levels holding m coset representatives; a larger class
    is sized as |G| / |C_G(r)| by the centralizer backtrack.  b*m bounds
    the nodes of a backtrack that follows every child of the identity
    path down to a leaf, and on Sym(n) on pairs the closure and the
    backtrack cost about the same at that class size.  Either way the
    walk and its stop are the same, so the representatives and their
    order do not depend on how a class is sized.

    Once a type has met more elements than its class holds, it is a union
    of several classes (as in Alt(n)), and `_class_walk` finishes.

    `_image`, from `normal_subgroups`, is a faithful image of the group:
    the walk then keeps the group's chain order but carries each element
    as its image, and cycle types, class sizes, closures and centralizers
    are taken in the image.  Images of conjugate elements are conjugate in
    the image, so the cycle type there is a class invariant as well, and
    the argument above holds unchanged: the representatives are the same.
    Sym(n) on pairs acts faithfully on the n blocks of a first coordinate,
    so its classes are sized by the formula there.
    """
    image = _image if _image is not None else _Image.itself(group)
    order = group.order()
    target = image.group
    base = target.base()
    # itemgetter needs at least one point; only the trivial group has none.
    key = itemgetter(*base) if base else (lambda t: ())
    gens = [(kernels.inverse(s), s) for s in target.gen_images()]
    limit = len(base) * sum(len(orbit) for orbit in target.basic_orbits())
    symmetric = _is_symmetric(target)
    classes: list[ConjugacyClass] = []
    positions: list[int] = []
    type_index: dict[tuple, int] = {}
    counts: list[int] = []
    covered = 0
    for pos, t in enumerate(image.walk()):
        ct = kernels.cycle_type(t)
        i = type_index.get(ct)
        if i is not None:
            counts[i] += 1
            if counts[i] > classes[i].size:
                break
            continue
        type_index[ct] = len(classes)
        if symmetric:
            size = order // _centralizer_order(ct)
        else:
            size = _close_class(t, gens, key, set(), iter(range(limit - 1)))
            if size is None:
                size = order // target.centralizer(Permutation._raw(t)).order()
        classes.append(ConjugacyClass(Permutation._raw(image.preimage(t)), size))
        positions.append(pos)
        counts.append(1)
        covered += size
        if covered == order:
            return classes
    return _class_walk(group, classes, positions, image, gens, key)


def _class_walk(
    group: PermGroup,
    classes: list[ConjugacyClass],
    positions: list[int],
    image: _Image,
    gens: list[tuple[tuple, tuple]],
    key: Callable[[tuple], object],
) -> list[ConjugacyClass]:
    """Finish a type pass that met a type holding several classes.

    The classes found, `classes[i]` first met at chain position
    `positions[i]`, are closed under conjugation in the image.  The walk
    then starts again; each element outside the closed classes starts a
    new one, and the walk stops once the classes cover the group.
    """
    order = group.order()
    ticks = _element_ticks()
    visited: set = set()
    for c in classes:
        _close_class(image.project(c.representative.images), gens, key, visited, ticks)
    found = list(zip(positions, classes))
    for pos, t in enumerate(image.walk()):
        if key(t) in visited:
            continue
        size = _close_class(t, gens, key, visited, ticks)
        rep = Permutation._raw(image.preimage(t))
        found.append((pos, ConjugacyClass(rep, size)))
        if len(visited) == order:
            break
    found.sort(key=itemgetter(0))
    return [c for _, c in found]


def _is_symmetric(group: PermGroup) -> bool:
    """Whether the group has order k! on its k points, that is, is Sym(k);
    the factorial is multiplied out no further than the order."""
    order, product = group.order(), 1
    for i in range(2, group.degree + 1):
        product *= i
        if product > order:
            return False
    return product == order


def _centralizer_order(cycle_type: tuple[int, ...]) -> int:
    """z_lambda = prod i^(m_i) m_i!, the order of the centralizer in S_k of
    an element whose k cycle lengths, fixed points included, are
    `cycle_type` with m_i cycles of length i."""
    z = 1
    for length, cycles in Counter(cycle_type).items():
        z *= length**cycles * factorial(cycles)
    return z


def _close_class(
    t: tuple,
    gens: list[tuple[tuple, tuple]],
    key: Callable[[tuple], object],
    visited: set,
    budget: Iterator[int],
) -> int | None:
    """Size of the class of t, closed under conjugation by the (inverse,
    generator) pairs; None once `budget`, a tick per new element, runs out.

    Its elements are added to `visited` by their `key`, their images of
    the chain's base points.  Only the identity fixes a base pointwise, so
    two elements x, y with the same base images are equal (x y^-1 fixes
    the base), and these short keys identify an element.  Full image
    tuples are kept only for the class being closed.
    """
    orbit = [t]
    visited.add(key(t))
    for s in orbit:
        for inv, gen in gens:
            c = kernels.compose(kernels.compose(inv, s), gen)
            k = key(c)
            if k not in visited:
                if next(budget, None) is None:
                    return None
                visited.add(k)
                orbit.append(c)
    return len(orbit)


def normal_subgroups(
    group: PermGroup,
    *,
    _blocks: Sequence[tuple[tuple[int, ...], ...]] | None = None,
) -> list[PermGroup]:
    """Every normal subgroup, via breadth-first closure over class unions.

    A normal subgroup is a union of conjugacy classes, so the class-index
    set (its signature) is a perfect dedup key and the only edges needed
    are "adjoin one class representative and take the normal closure".
    Results are sorted by order, ties broken by the class-index sets.

    The first round, from the trivial group, records the signature of the
    normal closure of each representative.  Later, adjoining r_i to N is
    skipped when sig(N) | sig(ncl(r_i)) is already found: that normal
    subgroup contains N and r_i, hence their normal closure, and the
    closure contains every class of N and of ncl(r_i), hence that
    subgroup.  The two are equal, so the closure would only be found
    again.

    Faithful-image rule: when the group is transitive and its action on
    one of its minimal block systems is faithful, all of this runs in the
    image of the first such system in `block_systems` order, the one with
    the fewest blocks; Sym(8) on its 56 ordered pairs becomes Sym(8) on 8
    points.  `_blocks` passes the systems when the caller has them.  The
    classes are sized there, and the normal-closure BFS and every
    signature test run on the images of the representatives, the
    generators and the subgroups.  In an isomorphic image each closure
    and membership test decides as in the group, so the BFS meets the
    images of the group's generator lists in the same order, and
    `ActionHom.preimage` pulls them back unchanged.  Any other group
    takes the same path in itself.
    """
    if _blocks is None and group.is_transitive():
        from .actions import block_systems

        _blocks = block_systems(group)
    image = _faithful_block_image(group, _blocks or ())
    classes = conjugacy_classes(group, _image=image)
    target = image.group
    reps = [image.project(c.representative.images) for c in classes]

    def signature(n: PermGroup) -> frozenset[int]:
        return frozenset(i for i, r in enumerate(reps) if n.contains_images(r))

    base = trivial_group(target.degree)
    start = signature(base)
    found = {start: base}
    principal: dict[int, frozenset[int]] = {}
    queue = [(start, base)]
    while queue:
        csig, current = queue.pop(0)
        for i, rep in enumerate(reps):
            if i in csig or (i in principal and csig | principal[i] in found):
                continue
            grown = target.normal_closure(
                PermGroup.from_images(target.degree, current.gen_images() + [rep])
            )
            sig = signature(grown)
            if current is base:
                principal[i] = sig
            if sig not in found:
                found[sig] = grown
                queue.append((sig, grown))
    return [
        image.pull_back(found[sig])
        for sig in sorted(
            found, key=lambda s: (found[s].order(), tuple(sorted(s)))
        )
    ]


def minimal_normal(group: PermGroup) -> list[PermGroup]:
    """Minimal non-trivial normal subgroups."""
    lattice = [n for n in normal_subgroups(group) if not n.is_trivial()]
    return [
        n
        for n in lattice
        if not any(
            m.order() < n.order() and m.is_subgroup_of(n) for m in lattice
        )
    ]
