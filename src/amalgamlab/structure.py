"""Subgroup functors: Sylow subgroups, cores, residuals, and normal lattices.

Everything here is exact and deterministic.  Functions that must scan all
elements of a group are protected by the ``elements`` guard; the Thompson
subgroup has its own order guard because its elementary-abelian search is
exponential in the worst case.

Conventions
-----------
* The trivial group counts as a p-group for every prime p (order p^0).
* "p-part" of an element g of order p^a * r (p not dividing r) is the unique
  power of g with order p^a; the "p'-part" is the complementary power of
  order r.  Their product is g and they commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import kernels
from .config import guards
from .errors import GuardExceededError, WitnessError
from .group import PermGroup, trivial_group
from .perm import Permutation

__all__ = [
    "ConjugacyClass",
    "PGroupWitness",
    "conjugacy_classes",
    "frattini_p",
    "is_prime",
    "minimal_normal",
    "normal_subgroups",
    "o_p",
    "o_upper_p",
    "omega1_center",
    "p_group_witness",
    "p_part",
    "p_prime_part",
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


def p_prime_part(g: Permutation, p: int) -> Permutation:
    """The power of g whose order is g's order with all factors p removed."""
    return g * p_part(g, p).inverse()


# -- p-group witnesses ------------------------------------------------------


@dataclass(frozen=True)
class PGroupWitness:
    """Carries a group together with a checked is-a-p-group flag."""

    group: PermGroup
    prime: int
    certificate: bool


def p_group_witness(group: PermGroup, p: int) -> PGroupWitness:
    """Check whether |group| is a power of p (the trivial group qualifies)."""
    _require_prime(p)
    _, r = p_valuation(group.order(), p)
    return PGroupWitness(group, p, r == 1)


def _require_p_group(group: PermGroup, p: int, where: str) -> None:
    if not p_group_witness(group, p).certificate:
        raise WitnessError(
            f"{where} needs a {p}-group, got a group of order {group.order()}"
        )


# -- Sylow subgroups and the two p-radicals ---------------------------------


def sylow(group: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown deterministically.

    Seed: the p-part of the first element (in enumeration order) whose order
    p divides.  Growth: while not yet of full p-power order, scan the
    normalizer of the current p-subgroup P for the first p-element outside
    P and adjoin it; P normal in its normalizer makes the span a p-group
    again, and such an element always exists while P is not Sylow.
    """
    _require_prime(p)
    a, _ = p_valuation(group.order(), p)
    if a == 0:
        return trivial_group(group.degree)
    target = p**a
    group._scan_guard()
    seed = None
    for g in group.elements():
        if g.order() % p == 0:
            seed = p_part(g, p)
            break
    assert seed is not None  # Cauchy: p divides the order
    current = PermGroup([seed], degree=group.degree)
    while current.order() < target:
        normalizer = group.normalizer(current)
        for x in normalizer.elements():
            y = p_part(x, p)
            if not y.is_identity() and y not in current:
                current = PermGroup(
                    current.generators + (y,), degree=group.degree
                )
                break
    return current


def o_p(group: PermGroup, p: int) -> PermGroup:
    """Largest normal p-subgroup: the core of any Sylow p-subgroup."""
    _require_prime(p)
    sub = sylow(group, p)
    if sub.is_trivial():
        return sub
    if sub.order() == group.order():
        return group
    return group.core(sub)


def o_upper_p(group: PermGroup, p: int) -> PermGroup:
    """Smallest normal subgroup with p-group quotient.

    Generated by the p'-parts of all elements.  That generating set is
    closed under conjugation, so the span is normal without a further
    closure pass.
    """
    _require_prime(p)
    group._scan_guard()
    parts: list[tuple] = []
    seen: set[tuple] = set()
    for g in group.elements():
        t = p_prime_part(g, p).images
        if t not in seen:
            seen.add(t)
            parts.append(t)
    return PermGroup.from_images(group.degree, parts)


# -- distinguished subgroups of p-groups ------------------------------------


def omega1_center(x: PermGroup, p: int) -> PermGroup:
    """Subgroup of the center generated by its elements of order p."""
    _require_p_group(x, p, "omega1_center")
    center = x.center()
    gens = [z for z in center.elements() if z.order() == p]
    return PermGroup(gens, degree=x.degree)


def thompson_subgroup(x: PermGroup, p: int) -> PermGroup:
    """Subgroup generated by all elementary abelian subgroups of largest order.

    For abelian x the unique largest elementary abelian subgroup is the span
    of all elements of order p, so no search is needed.  Otherwise a
    breadth-first search enumerates every elementary abelian subgroup as a
    frozenset of element tuples, extending each by commuting elements of
    order p; dedup on the element set keeps each subgroup visited once.
    """
    _require_p_group(x, p, "thompson_subgroup")
    limit = guards().thompson_order
    if x.order() > limit:
        raise GuardExceededError("thompson_order", limit, x.order())
    if x.is_trivial():
        return x
    order_p = [g for g in x.elements() if g.order() == p]
    if all(a * b == b * a for a in x.generators for b in x.generators):
        return PermGroup(order_p, degree=x.degree)
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
    """Frattini subgroup of a p-group: commutators and p-th powers.

    The quotient by [x,x] is abelian, so the p-th powers of the generators
    alone complete [x,x] to [x,x]*x^p.
    """
    _require_p_group(x, p, "frattini_p")
    commutators = [
        a.inverse() * b.inverse() * a * b
        for a in x.generators
        for b in x.generators
    ]
    derived = x.normal_closure(commutators)
    return PermGroup(
        derived.generators + tuple(g**p for g in x.generators),
        degree=x.degree,
    )


# -- conjugacy classes and the normal-subgroup lattice ----------------------


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class, named by its first element in enumeration order."""

    representative: Permutation
    size: int


def conjugacy_classes(group: PermGroup) -> list[ConjugacyClass]:
    """All conjugacy classes; representatives in element-enumeration order.

    Each element not yet in a class starts a new one, closed under
    conjugation by the generators.  The walk stops as soon as the class
    sizes add up to the group order: every later element already lies in a
    class found, so it could start none.

    Elements are remembered by their images of the chain's base points.
    Only the identity fixes a base pointwise, so two elements x, y with
    the same base images are equal (x y^-1 fixes the base), and these
    short keys identify an element.  Full image tuples are kept only for
    the class being closed.
    """
    group._scan_guard()
    order = group.order()
    base = group.base()
    # itemgetter needs at least one point; only the trivial group has none.
    key = itemgetter(*base) if base else (lambda t: ())
    gens = [(kernels.inverse(s), s) for s in group.gen_images()]
    visited: set = set()
    classes: list[ConjugacyClass] = []
    for g in group.elements():
        t = g.images
        k = key(t)
        if k in visited:
            continue
        orbit = [t]
        visited.add(k)
        i = 0
        while i < len(orbit):
            s = orbit[i]
            i += 1
            for inv, gen in gens:
                c = kernels.compose(kernels.compose(inv, s), gen)
                k = key(c)
                if k not in visited:
                    visited.add(k)
                    orbit.append(c)
        classes.append(ConjugacyClass(g, len(orbit)))
        if len(visited) == order:
            break
    return classes


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup, via breadth-first closure over class unions.

    A normal subgroup is a union of conjugacy classes, so the class-index
    set is a perfect dedup key and the only edges needed are "adjoin one
    class representative and take the normal closure".  Results are sorted
    by order, ties broken by the class-index sets.
    """
    classes = conjugacy_classes(group)
    reps = [c.representative for c in classes]

    def signature(n: PermGroup) -> frozenset[int]:
        return frozenset(i for i, r in enumerate(reps) if r in n)

    base = trivial_group(group.degree)
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
