"""The action of Sym(n) on ordered pairs of distinct points.

The domain is the n(n-1) ordered pairs (a, b), a != b, labeled
lexicographically: index(a, b) = a*(n-1) + (b if b < a else b-1).  The
acting group L is generated by the pair-images of the transposition (0 1)
and the full n-cycle, so |L| = n! and L is permutationally the symmetric
group in its pair action.

``verify_approximation`` checks, on a concrete n, that the two coordinate
stabilizers T1 (all pairs keep first coordinate fixed at 0) and T2 (at 1)
approximate L relative to the stabilizer of the base pair (0, 1): each T_i
contains that stabilizer, is a faithful copy of Sym(n-1), generates L
together with the stabilizer's normalizer, and T1, T2 together generate L.
When the base-pair stabilizer has a nontrivial p-core, the furthermore
clause is checked: T_i's Sylow p-subgroups fit inside the stabilizer, and
the p-residuals of T1 and T2 generate a group transitive on all pairs that
is the full alternating or symmetric image.
"""

from __future__ import annotations

from math import factorial

from .config import guards
from .errors import ConstructionError, DegreeMismatchError, GuardExceededError
from .group import PermGroup, alternating_group
from .perm import Permutation
from .report import Report

__all__ = [
    "OrderedPairsAction",
    "build_ordered_pairs",
    "verify_approximation",
]


class OrderedPairsAction:
    """Sym(n) acting on the n(n-1) ordered pairs of distinct points."""

    __slots__ = ("n", "group")

    def __init__(self, n: int, group: PermGroup) -> None:
        self.n = n
        self.group = group

    @property
    def degree(self) -> int:
        return self.n * (self.n - 1)

    def pair_index(self, a: int, b: int) -> int:
        if a == b or not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"({a}, {b}) is not an ordered pair of distinct points")
        return a * (self.n - 1) + (b if b < a else b - 1)

    def index_pair(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.degree:
            raise ValueError(f"pair index {index} out of range")
        a, r = divmod(index, self.n - 1)
        return (a, r if r < a else r + 1)

    def embed(self, g: Permutation) -> Permutation:
        """Image of a degree-n permutation in the pair action."""
        if g.degree != self.n:
            raise DegreeMismatchError(
                f"degree {g.degree} permutation in a degree-{self.n} base"
            )
        return Permutation._raw(
            tuple(
                self.pair_index(g[a], g[b])
                for a, b in (self.index_pair(i) for i in range(self.degree))
            )
        )

    def embed_group(self, base: PermGroup) -> PermGroup:
        """Image of a subgroup of Sym(n), of order at most |base|."""
        return PermGroup(
            (self.embed(g) for g in base.generators), degree=self.degree
        )._bounded(base.order())

    def coordinate_stabilizer(self, value: int) -> PermGroup:
        """Image of the base-point stabilizer: all g with g(value) = value.

        As the image of Sym(n - 1), it has order at most (n - 1)!.
        """
        gens = []
        others = [x for x in range(self.n) if x != value]
        if len(others) >= 2:
            swap = list(range(self.n))
            swap[others[0]], swap[others[1]] = others[1], others[0]
            gens.append(self.embed(Permutation(swap)))
        if len(others) >= 3:
            cycle = list(range(self.n))
            for i, x in enumerate(others):
                cycle[x] = others[(i + 1) % len(others)]
            gens.append(self.embed(Permutation(cycle)))
        return PermGroup(gens, degree=self.degree)._bounded(factorial(self.n - 1))

    @property
    def base_pair_index(self) -> int:
        return self.pair_index(0, 1)


def build_ordered_pairs(n: int) -> OrderedPairsAction:
    """Sym(n) on ordered pairs; the order guard is checked on n! before
    any stabilizer chain is built.  As an image of Sym(n), the group has
    order at most n!, so its chain stops there, and the order check below
    still fails for an unfaithful action."""
    if n < 3:
        raise ConstructionError("the ordered-pairs action needs n >= 3")
    limit = guards().order
    if factorial(n) > limit:
        raise GuardExceededError("order", limit, factorial(n))
    placeholder = OrderedPairsAction(n, PermGroup(degree=n * (n - 1)))
    transposition = Permutation.from_cycles(n, [(0, 1)])
    cycle = Permutation([(x + 1) % n for x in range(n)])
    group = PermGroup(
        [placeholder.embed(transposition), placeholder.embed(cycle)],
        degree=n * (n - 1),
    )._bounded(factorial(n))
    action = OrderedPairsAction(n, group)
    assert group.order() == factorial(n), "pair action must be faithful"
    return action


def _join_inside(group: PermGroup, *subs: PermGroup) -> PermGroup:
    """The join of subgroups of group, whose chain stops at |group|."""
    return group._within([t for sub in subs for t in sub.gen_images()])


def _faithful_symmetric_restriction(
    action: OrderedPairsAction, sub: PermGroup, value: int
) -> tuple[bool, int]:
    """Does sub act faithfully as the full symmetric group on the pairs
    whose first coordinate is the fixed value?"""
    from .actions import induced_action

    invariant = [
        action.pair_index(value, b) for b in range(action.n) if b != value
    ]
    hom = induced_action(sub, invariant)
    image = hom.image_group()
    return (
        hom.kernel.is_trivial()
        and image.order() == factorial(action.n - 1),
        image.order(),
    )


def verify_approximation(n: int) -> Report:
    """Check the pair-stabilizer approximation statement on a concrete n."""
    from .structure import is_prime, o_p, o_upper_p, sylow

    if n < 4:
        raise ConstructionError("approximation checks need n >= 4")
    action = build_ordered_pairs(n)
    group = action.group
    report = Report("lemma verify", {"n": n, "degree": action.degree})

    omega = action.base_pair_index
    stab = group.stabilizer(omega)
    report.require(
        "base-stabilizer-order",
        stab.order() == factorial(n - 2),
        "pair-stabilizer-order",
        {"order": stab.order(), "expected": factorial(n - 2)},
    )

    towers = [action.coordinate_stabilizer(0), action.coordinate_stabilizer(1)]
    for i, tower in enumerate(towers, start=1):
        report.require(
            f"contains-stabilizer-{i}",
            stab.is_subgroup_of(tower),
            "approximation-item-1",
            {"tower_order": tower.order(), "stabilizer_order": stab.order()},
        )
        faithful, image_order = _faithful_symmetric_restriction(
            action, tower, i - 1
        )
        report.require(
            f"symmetric-restriction-{i}",
            tower.order() == factorial(n - 1) and faithful,
            "approximation-item-2",
            {
                "order": tower.order(),
                "expected": factorial(n - 1),
                "restriction_order": image_order,
            },
        )

    normalizer = group.normalizer(stab)
    report.require(
        "normalizer-index",
        normalizer.order() == 2 * stab.order(),
        "pair-normalizer-index",
        {"normalizer_order": normalizer.order(), "index": normalizer.order() // stab.order() if stab.order() else 0},
    )
    for i, tower in enumerate(towers, start=1):
        joined = _join_inside(group, normalizer, tower)
        report.require(
            f"normalizer-join-{i}",
            joined.order() == group.order(),
            "approximation-item-3",
            {"join_order": joined.order(), "group_order": group.order()},
        )
    both = _join_inside(group, *towers)
    report.require(
        "pair-generation",
        both.order() == group.order(),
        "approximation-item-4",
        {"join_order": both.order(), "group_order": group.order()},
    )

    swap = action.embed(Permutation.from_cycles(n, [(0, 1)]))
    report.require(
        "conjugacy-witness",
        swap in normalizer and towers[0].conjugate(swap) == towers[1],
        "approximation-conjugacy",
        {"witness": str(swap)},
    )

    primes = [
        p
        for p in range(2, n - 1)
        if is_prime(p) and factorial(n - 2) % p == 0
    ]
    active = [p for p in primes if not o_p(stab, p).is_trivial()]
    if not active:
        report.add(
            "furthermore-vacuous",
            "vacuous",
            "approximation-furthermore",
            {"stabilizer_order": stab.order(), "primes_checked": primes},
        )
        return report
    for p in active:
        witness = sylow(stab, p)
        for i, tower in enumerate(towers, start=1):
            tower_sylow = sylow(tower, p)
            # The stabilizer contains a Sylow p-subgroup of the tower
            # exactly when its own Sylow p-subgroup already has full order.
            inside = (
                witness.order() == tower_sylow.order()
                and witness.is_subgroup_of(tower)
            )
            report.require(
                f"sylow-containment-p{p}-{i}",
                inside,
                "approximation-furthermore",
                {
                    "prime": p,
                    "sylow_order": tower_sylow.order(),
                    "witness_order": witness.order(),
                },
            )
        residuals = [o_upper_p(t, p) for t in towers]
        joined = _join_inside(group, *residuals)
        report.require(
            f"residual-join-transitive-p{p}",
            joined.is_transitive(),
            "approximation-furthermore",
            {"prime": p, "join_order": joined.order()},
        )
        alternating = action.embed_group(alternating_group(n))
        report.require(
            f"residual-join-alt-or-sym-p{p}",
            joined == alternating or joined == group,
            "approximation-furthermore",
            {
                "prime": p,
                "join_order": joined.order(),
                "alt_order": alternating.order(),
                "sym_order": group.order(),
            },
        )
    return report
