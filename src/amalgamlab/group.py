"""Finite permutation groups with deterministic stabilizer chains.

A PermGroup is generated by a list of same-degree permutations.  Orders,
membership, stabilizers and element enumeration all go through a stabilizer
chain built by a Schreier-Sims procedure that is deterministic end to end:

  * base points are chosen in increasing point order restricted to moved
    points (a custom point ranking supports pointwise stabilizers),
  * orbits and transversals are breadth-first in generator order,
  * Schreier generators are processed in a fixed scan order; when one
    places a new strong generator, the deeper levels it changed are
    completed first, then the scan resumes where it stopped.

Identical inputs therefore always produce identical chains, orders, orbit
labelings and enumeration orders.  All arithmetic is exact.
"""
from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import compress
from operator import itemgetter, ne

from . import kernels
from .config import Guards, guards
from .errors import (
    ConstructionError,
    DegreeMismatchError,
    GuardExceededError,
)
from .perm import Permutation

__all__ = [
    "PermGroup",
    "ActionHom",
    "generate_group",
    "intersection",
    "commutator_subgroup",
    "symmetric_group",
    "alternating_group",
    "cyclic_group",
    "dihedral_group",
    "trivial_group",
]


class _Level:
    __slots__ = ("base", "gens", "gen_set", "orbit", "transversal", "inverse")

    def __init__(self, base: int, gens: list[tuple]) -> None:
        self.base = base
        self.gens = gens
        self.gen_set = set(gens)
        self.orbit: list[int] = [base]
        self.transversal: dict[int, tuple] = {}
        self.inverse: dict[int, tuple] = {}


def _element_ticks() -> Iterator[int]:
    """Ticks of the ``elements`` guard: the one past the limit raises it."""
    limit = guards().elements
    yield from range(limit)
    raise GuardExceededError("elements", limit, f"more than {limit}")


class _Chain:
    """Stabilizer chain over image tuples (deterministic Schreier-Sims).

    Each level keeps the generators of its stabilizer subgroup; the lists
    are nested, a strong generator found at one level is appended to every
    level it belongs to.  The chain grows in one way only: levels are
    inserted and orbits extended, never deleted or rebuilt, so coset
    representatives stay stable while the chain grows.  Each level also
    caches the inverse of every transversal element, computed once when
    the orbit reaches its point, so `sift`, `_process` and `force` never
    invert a coset representative again.

    `rank` orders the points used for base selection; None means natural
    order.  Each base is the lowest-ranked point that its level's
    generators move, so with a custom rank the subgroup fixing the first k
    ranked points is exactly the level group reached after consuming them,
    which is how pointwise stabilizers are extracted.  A strong generator
    that moves a point ranked below the base of level k keeps this true by
    inserting a level there (see `_place`): level k's generators fix every
    point ranked below their base, so that point is the lowest-ranked one
    moved by them and the new generator together, and becomes the new
    level's base.  The levels from k on fix it, so they stay a chain of a
    subgroup of its stabilizer in the new level's group, and `_process`
    completes the new level on top of them.

    `bound`, when given, must be a proven upper bound on the order of the
    generated group G; the Schreier-Sims scan stops once the product of
    the basic orbit lengths reaches it.  That stop changes nothing: level
    i's generators fix the base points before it, so its orbit lies in
    the orbit of the i-th pointwise stabilizer G^(i) and is at most
    |G^(i) : G^(i+1)| long.  The product of the orbit lengths is thus at
    most |G : G^(k)| <= |G|, and equal to |G| only when every orbit is
    full and the base is fixed by the identity alone.  Then every element
    of G sifts to the identity, every Schreier generator the unbounded
    scan would go on to test sifts away, and that scan places nothing
    more: both builds end with the same levels, orbits, transversals and
    generators.
    """

    order_cap = Guards.order

    def __init__(
        self,
        degree: int,
        gen_images: Sequence[tuple],
        rank: Sequence[int] | None = None,
        bound: int | None = None,
    ) -> None:
        self.degree = degree
        # The points in rank order, and for a ranked chain the gather that
        # lists an image tuple's values in that order (see `_min_moved`).
        # Below degree 2 no point moves, so the ranking is moot.
        if rank is None or degree < 2:
            self.rank = None
            self._points: Sequence[int] = range(degree)
            self._gather = None
        else:
            self.rank = list(rank)
            self._points = sorted(range(degree), key=self.rank.__getitem__)
            self._gather = itemgetter(*self._points)
        self.bound = bound
        self.complete = False
        self.levels: list[_Level] = []
        self._identity = tuple(range(degree))
        seeds = []
        seen = set()
        for img in gen_images:
            if img != self._identity and img not in seen:
                seen.add(img)
                seeds.append(img)
        if seeds:
            self.levels.append(_Level(self._lowest_moved(seeds), seeds))
            self._extend_orbit(0)
        self.complete = self.order() == bound
        if self.levels:
            self._process(0)

    def _point_rank(self, point: int) -> int:
        return self.rank[point] if self.rank is not None else point

    def _min_moved(self, img: tuple) -> int:
        """The lowest-ranked point that img moves, found by one C-level
        scan of the points in rank order; img is not the identity."""
        points = self._points
        gathered = img if self._gather is None else self._gather(img)
        return next(compress(points, map(ne, gathered, points)))

    def _lowest_moved(self, imgs: Iterable[tuple]) -> int:
        """The lowest-ranked point that any of imgs moves."""
        key = None if self.rank is None else self.rank.__getitem__
        return min(map(self._min_moved, imgs), key=key)

    def effective_gens(self, i: int) -> list[tuple]:
        return list(self.levels[i].gens) if i < len(self.levels) else []

    def _extend_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        if not lvl.transversal:
            lvl.transversal[lvl.base] = self._identity
            lvl.inverse[lvl.base] = self._identity
        head = 0
        while head < len(lvl.orbit):
            point = lvl.orbit[head]
            head += 1
            u = lvl.transversal[point]
            for g in lvl.gens:
                image = g[point]
                if image not in lvl.transversal:
                    v = kernels.compose(u, g)
                    lvl.transversal[image] = v
                    lvl.inverse[image] = kernels.inverse(v)
                    lvl.orbit.append(image)

    def order(self) -> int:
        total = 1
        for lvl in self.levels:
            total *= len(lvl.orbit)
        return total

    def sift(self, img: tuple, start: int = 0) -> tuple[tuple, int]:
        """Quotient img by transversal elements; (residue, stop level)."""
        for j in range(start, len(self.levels)):
            lvl = self.levels[j]
            u_inv = lvl.inverse.get(img[lvl.base])
            if u_inv is None:
                return img, j
            img = kernels.compose(img, u_inv)
        return img, len(self.levels)

    def contains(self, img: tuple) -> bool:
        residue, _ = self.sift(img)
        return residue == self._identity

    def _place(self, img: tuple, lo: int, j: int) -> int:
        """Record a strong generator spanning levels lo..j.

        Returns the deepest level whose generator list changed.  The
        generator joins every level from lo on until it reaches the end of
        the chain or a level whose base ranks above the lowest point it
        moves.  There a level based at that point is inserted, generated by
        the generators of the level below it (if any) and the new one;
        inserting at the end appends.
        """
        moved = self._min_moved(img)
        m_rank = self._point_rank(moved)
        for k in range(lo, j + 1):
            lvl = self.levels[k] if k < len(self.levels) else None
            if lvl is None or m_rank < self._point_rank(lvl.base):
                gens = [img] if lvl is None else lvl.gens + [img]
                self.levels.insert(k, _Level(moved, gens))
                self._extend_orbit(k)
                self._check_order()
                return k
            if img not in lvl.gen_set:
                lvl.gens.append(img)
                lvl.gen_set.add(img)
                self._extend_orbit(k)
        self._check_order()
        return j

    def _check_order(self) -> None:
        order = self.order()
        if order > self.order_cap:
            raise GuardExceededError("order", self.order_cap, f"> {self.order_cap}")
        self.complete = order == self.bound

    def _process(self, i: int) -> None:
        """Make levels i.. satisfy the strong generating property, assuming
        deeper levels already do; nothing once the chain is complete."""
        if self.complete:
            return
        self._extend_orbit(i)
        lvl = self.levels[i]
        # Orbit and generator list of this level are frozen during the
        # scan: new strong generators only land at deeper levels.
        p_idx = 0
        while p_idx < len(lvl.orbit):
            point = lvl.orbit[p_idx]
            p_idx += 1
            u = lvl.transversal[point]
            g_idx = 0
            while g_idx < len(lvl.gens):
                s = lvl.gens[g_idx]
                g_idx += 1
                h = kernels.compose(kernels.compose(u, s), lvl.inverse[s[point]])
                if h == self._identity:
                    continue
                residue, j = self.sift(h, i + 1)
                if residue == self._identity:
                    continue
                deepest = self._place(residue, i + 1, j)
                for l in range(deepest, i, -1):
                    self._process(l)
                if self.complete:
                    return

    def force(self, mapping: dict) -> tuple | None:
        """The element sending every key of mapping to its value, or None.

        The chain's base must start with the keys.  At each level whose
        base is a key, the transversal entry hitting the (adjusted) target
        is forced, so the result is canonical; keys that the remaining
        level group fixes must already sit on their targets.
        """
        current = dict(mapping)
        acc = self._identity
        for lvl in self.levels:
            if lvl.base not in current:
                break
            target = current.pop(lvl.base)
            u = lvl.transversal.get(target)
            if u is None:
                return None
            acc = kernels.compose(u, acc)
            u_inv = lvl.inverse[target]
            current = {p: u_inv[t] for p, t in current.items()}
        if any(p != t for p, t in current.items()):
            return None
        return acc

    def base(self) -> list[int]:
        return [lvl.base for lvl in self.levels]

    def basic_orbits(self) -> list[list[int]]:
        return [list(lvl.orbit) for lvl in self.levels]

    def iter_elements(
        self, through: Callable[[tuple], tuple] | None = None
    ) -> Iterator[tuple]:
        """All elements, deterministically: identity first, grouped by the
        image of the first base point in increasing order.  The partial
        product is carried down the tree, one `compose` per tree node.

        `through`, a homomorphism on image tuples, makes the walk yield
        the image of each element instead, in the same order: it maps the
        coset representatives once and composes their images.
        """
        ticks = _element_ticks()
        levels = [
            [lvl.transversal[point] for point in sorted(lvl.orbit)]
            for lvl in self.levels
        ]
        identity = self._identity
        if through is not None:
            levels = [list(map(through, reps)) for reps in levels]
            identity = through(identity)

        def rec(i: int, partial: tuple) -> Iterator[tuple]:
            if i == len(levels):
                next(ticks)
                yield partial
                return
            for u in levels[i]:
                yield from rec(i + 1, kernels.compose(u, partial))

        return rec(0, identity)

    def draw(self, rng: random.Random) -> tuple:
        """A uniform element: one coset representative drawn per level."""
        acc = self._identity
        for lvl in self.levels:
            acc = kernels.compose(lvl.transversal[rng.choice(lvl.orbit)], acc)
        return acc


class PermGroup:
    """Group generated by permutations of a common degree.

    Generators keep their input order with identities and duplicates
    dropped; every derived quantity is deterministic in that list.

    A group built from a known group may carry a proven upper bound on its
    order, taken from how it was built and never from a value a report
    checks; its chain build stops there (see `_Chain`).
    """

    __slots__ = ("_degree", "_gens", "_chain", "_bound")

    def __init__(
        self,
        generators: Iterable[Permutation] = (),
        degree: int | None = None,
    ) -> None:
        gens: list[Permutation] = []
        seen = set()
        for g in generators:
            if degree is None:
                degree = g.degree
            elif g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree}, expected {degree}"
                )
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        if degree is None:
            raise ValueError("degree required for a group with no generators")
        self._degree = degree
        self._gens = tuple(gens)
        self._chain: _Chain | None = None
        self._bound: int | None = None

    @classmethod
    def from_images(cls, degree: int, images: Iterable[tuple]) -> "PermGroup":
        return cls((Permutation(img) for img in images), degree=degree)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    def gen_images(self) -> list[tuple]:
        return [g.images for g in self._gens]

    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self._degree, self.gen_images(), bound=self._bound)
        return self._chain

    def _bounded(self, bound: int | None) -> "PermGroup":
        """This group, whose order the caller has proven to be at most
        bound (None: no bound), before its chain is built."""
        self._bound = bound
        return self

    def _order_bound(self) -> int | None:
        """The order if the chain is built, else the bound if any."""
        return self._chain.order() if self._chain is not None else self._bound

    def _within(self, images: Iterable[tuple]) -> "PermGroup":
        """Subgroup generated by images the caller built from elements of
        this group, so bounded by its order."""
        return PermGroup.from_images(self._degree, images)._bounded(self._order_bound())

    def order(self) -> int:
        return self.chain().order()

    def is_trivial(self) -> bool:
        return not self._gens

    def __contains__(self, perm: Permutation) -> bool:
        if not isinstance(perm, Permutation) or perm.degree != self._degree:
            return False
        return self.chain().contains(perm.images)

    def contains_images(self, img: tuple) -> bool:
        return len(img) == self._degree and self.chain().contains(img)

    def elements(self) -> Iterator[Permutation]:
        return (Permutation._raw(img) for img in self.chain().iter_elements())

    def element_images(self) -> Iterator[tuple]:
        return self.chain().iter_elements()

    def base(self) -> list[int]:
        return self.chain().base()

    def basic_orbits(self) -> list[list[int]]:
        return self.chain().basic_orbits()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return (
            self._degree == other._degree
            and self.order() == other.order()
            and all(g in other for g in self._gens)
        )

    def __hash__(self) -> int:
        return hash((self._degree, self.order()))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, order={self.order()})"

    # -- orbits ---------------------------------------------------------

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point in breadth-first discovery order."""
        self._check_point(point)
        orbit, _ = kernels.orbit_transversal(self.gen_images(), point, self._degree)
        return orbit

    def orbits(self) -> list[list[int]]:
        """All orbits, each sorted, ordered by least point."""
        seen = set()
        out = []
        for x in range(self._degree):
            if x in seen:
                continue
            orb = sorted(self.orbit(x))
            seen.update(orb)
            out.append(orb)
        return out

    def transporter(self, point: int, target: int) -> Permutation | None:
        """Some element mapping point to target, None if separate orbits."""
        self._check_point(point)
        self._check_point(target)
        orbit, transversal = kernels.orbit_transversal(
            self.gen_images(), point, self._degree
        )
        img = transversal.get(target)
        return Permutation._raw(img) if img is not None else None

    def is_transitive(self) -> bool:
        return self._degree > 0 and len(self.orbit(0)) == self._degree

    def is_semiregular(self) -> bool:
        """Only the identity fixes a point.  By orbit-stabilizer, a point
        stabilizer is trivial exactly when the point's orbit has length |G|."""
        order = self.order()
        return all(len(orb) == order for orb in self.orbits())

    # -- stabilizers ----------------------------------------------------

    def _check_point(self, point: int) -> None:
        if not 0 <= point < self._degree:
            raise ValueError(f"point {point} out of range for degree {self._degree}")

    def _prefix_chain(self, points: Sequence[int]) -> tuple[_Chain, int]:
        """Chain ranked by the given points, in the order given (repeats
        dropped), then the rest in increasing order; returns it with the
        level index of the subgroup fixing all of them.

        Its base takes the given points in the order given, skipping each
        one that the stabilizer of those before it fixes, so `force` can
        prescribe the images of any prefix of the given points.
        """
        prefix = list(dict.fromkeys(points))
        for x in prefix:
            self._check_point(x)
        pos = {x: i for i, x in enumerate(prefix)}
        rest = [x for x in range(self._degree) if x not in pos]
        rank = [0] * self._degree
        for i, x in enumerate(prefix + rest):
            rank[x] = i
        chain = _Chain(
            self._degree, self.gen_images(), rank=rank, bound=self._order_bound()
        )
        cut = 0
        prefix_set = set(prefix)
        while cut < len(chain.levels) and chain.levels[cut].base in prefix_set:
            cut += 1
        return chain, cut

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        points = list(points)
        if not points:
            return self
        chain, cut = self._prefix_chain(sorted(points))
        return _level_group(chain, cut, self._degree)

    def stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer([point])

    def setwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        target = set(points)
        for x in target:
            self._check_point(x)
        if not target or len(target) == self._degree:
            return self
        limits = guards()
        if self.order() > limits.elements and self._degree > limits.setwise_degree:
            raise GuardExceededError("setwise_degree", limits.setwise_degree, self._degree)

        def test(img: tuple) -> bool:
            return all(img[x] in target for x in target)

        def prune(img: tuple, fixed: set[int]) -> bool:
            return all((x in target) == (img[x] in target) for x in fixed)

        return self._backtrack(test, prune)

    def _backtrack(
        self,
        test: Callable[[tuple], bool],
        prune: Callable[[tuple, set[int]], bool],
    ) -> "PermGroup":
        """Subgroup H generated by the elements passing `test`, found by a
        depth-first search over chain cosets.

        The elements passing `test` must form a subgroup.  At depth i the
        partial product u_i...u_1u_0 already determines the images of all
        points fixed by the level-i group; `prune` sees the partial image
        tuple plus that point set and may cut the subtree, so it must only
        reject partial products that no passing element extends.  Leaves
        are reached in exactly the order of `_Chain.iter_elements` (the
        same products, orbits sorted, depth first), so the generators kept
        by `_grown` are the ones a filter of `element_images()` would keep.

        First-hit invariant: a node at depth i with partial product p != 1
        covers the leaves G^(i)p, whose hits form one coset (H & G^(i))h0.
        Its path leaves the identity path at some level j < i, and the
        identity child there, covering G^(j+1) >= G^(i), was searched first
        (a base point is the least point of its orbit).  So the group grown
        so far already contains H & G^(i), and once h0 is streamed `_grown`
        would reject every later hit of the subtree.  The search therefore
        leaves such a node after its first hit; the kept generators do not
        change.
        """
        ticks = _element_ticks()
        chain = self.chain()
        levels = chain.levels
        fixed_at: list[set[int]] = []
        for i in range(len(levels) + 1):
            moved = set()
            for g in chain.effective_gens(i):
                moved.update(Permutation._raw(g).moved_points())
            fixed_at.append(set(range(self._degree)) - moved)
        identity = chain._identity

        def rec(i: int, partial: tuple) -> Iterator[tuple]:
            if i == len(levels):
                if test(partial):
                    yield partial
                return
            lvl = levels[i]
            for point in sorted(lvl.orbit):
                next(ticks)
                u = lvl.transversal[point]
                nxt = kernels.compose(u, partial)
                if not prune(nxt, fixed_at[i + 1]):
                    continue
                hits = rec(i + 1, nxt)
                if nxt == identity:
                    yield from hits
                else:
                    first = next(hits, None)
                    if first is not None:
                        yield first

        return self._grown(rec(0, identity))

    def _grown(self, images: Iterable[tuple]) -> "PermGroup":
        """Group generated by the stream, adding only non-members.

        Deterministic: candidates are tested in stream order.
        """
        gens: list[tuple] = []
        current = PermGroup((), degree=self._degree)
        for img in images:
            if not current.contains_images(img):
                gens.append(img)
                current = self._within(gens)
        return current

    # -- subgroup relations ----------------------------------------------

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self._degree != other._degree:
            raise DegreeMismatchError(
                f"degree {self._degree} vs degree {other._degree}"
            )
        return all(g in other for g in self._gens)

    def __le__(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other)

    def is_normal_in(self, other: "PermGroup") -> bool:
        """Whether other normalizes this group (self need not be <= other)."""
        if self._degree != other._degree:
            raise DegreeMismatchError(
                f"degree {self._degree} vs degree {other._degree}"
            )
        return all(
            self.contains_images(kernels.conjugate(s.images, g.images))
            for s in self._gens
            for g in other._gens
        )

    def conjugate(self, g: Permutation) -> "PermGroup":
        if g.degree != self._degree:
            raise DegreeMismatchError(f"degree {self._degree} ^ degree {g.degree}")
        return PermGroup.from_images(
            self._degree,
            (kernels.conjugate(s.images, g.images) for s in self._gens),
        )._bounded(self._order_bound())

    def intersection(self, other: "PermGroup") -> "PermGroup":
        return intersection(self, other)

    def join(self, other: "PermGroup") -> "PermGroup":
        """Subgroup generated by both groups."""
        if self._degree != other._degree:
            raise DegreeMismatchError(
                f"degree {self._degree} vs degree {other._degree}"
            )
        return PermGroup(self._gens + other._gens, degree=self._degree)

    # -- normal-subgroup machinery ---------------------------------------

    def normal_closure(self, sub: "PermGroup | Iterable[Permutation]") -> "PermGroup":
        """Smallest subgroup containing sub that is normalized by self.

        When self's chain is built and contains every seed, the closure
        lies in self, and each closure group's chain stops at |self|.
        """
        seed = sub.generators if isinstance(sub, PermGroup) else tuple(sub)
        gens: list[tuple] = []
        seen = set()
        for s in seed:
            if s.degree != self._degree:
                raise DegreeMismatchError(
                    f"degree {s.degree} inside degree {self._degree}"
                )
            if not s.is_identity() and s.images not in seen:
                seen.add(s.images)
                gens.append(s.images)
        inside = self._chain is not None and all(map(self._chain.contains, gens))
        bound = self._chain.order() if inside else None
        closure = PermGroup.from_images(self._degree, gens)._bounded(bound)
        queue = list(gens)
        while queue:
            t = queue.pop(0)
            for g in self._gens:
                c = kernels.conjugate(t, g.images)
                if not closure.contains_images(c):
                    gens.append(c)
                    closure = PermGroup.from_images(self._degree, gens)._bounded(bound)
                    queue.append(c)
        return closure

    def centralizer(self, other: "PermGroup | Permutation") -> "PermGroup":
        """Elements commuting with every generator of other (or with other).

        Chain backtrack: a partial product is cut as soon as some point x
        with t[x] also fixed has img[t[x]] != t[img[x]].
        """
        targets = (
            other.gen_images()
            if isinstance(other, PermGroup)
            else [other.images]
        )
        for t in targets:
            if len(t) != self._degree:
                raise DegreeMismatchError(
                    f"degree {len(t)} vs degree {self._degree}"
                )

        def commutes(img: tuple, fixed: set[int]) -> bool:
            return all(
                img[t[x]] == t[img[x]]
                for t in targets
                for x in fixed
                if t[x] in fixed
            )

        return self._backtrack(
            lambda img: all(kernels.conjugate(t, img) == t for t in targets),
            commutes,
        )

    def center(self) -> "PermGroup":
        return self.centralizer(self)

    def normalizer(self, other: "PermGroup") -> "PermGroup":
        """Elements conjugating other onto itself.

        Chain backtrack: such an element permutes the orbits of other, so a
        partial product is cut when it sends a fixed point into an orbit of
        another size, or two points of one orbit into different orbits.
        """
        if other._degree != self._degree:
            raise DegreeMismatchError(
                f"degree {other._degree} vs degree {self._degree}"
            )
        targets = other.gen_images()
        label = [0] * self._degree
        sizes = []
        for orbit in other.orbits():
            for x in orbit:
                label[x] = len(sizes)
            sizes.append(len(orbit))

        def keeps_orbits(img: tuple, fixed: set[int]) -> bool:
            image_of: dict[int, int] = {}
            for x in fixed:
                a, b = label[x], label[img[x]]
                if sizes[a] != sizes[b] or image_of.setdefault(a, b) != b:
                    return False
            return True

        return self._backtrack(
            lambda img: all(
                other.contains_images(kernels.conjugate(t, img)) for t in targets
            ),
            keeps_orbits,
        )

    def core(self, sub: "PermGroup") -> "PermGroup":
        """Largest subgroup of sub normal in self, the intersection of its
        conjugates: C = sub is replaced by C ∩ C^g for each generator g
        with C^g not inside C, until every generator normalizes C.  Each
        step keeps every normal subgroup of self that lies in C."""
        if not sub.is_subgroup_of(self):
            raise ConstructionError("core requires a subgroup")
        current, changed = sub, True
        while changed:
            changed = False
            for g in self._gens:
                conj = current.conjugate(g)
                if not conj.is_subgroup_of(current):
                    current, changed = intersection(current, conj), True
        return current

    # -- coset action -----------------------------------------------------

    def coset_rep(self, sub_chain: _Chain, img: tuple) -> tuple:
        """Lexicographically least element of the right coset (sub)·img."""
        for lvl in sub_chain.levels:
            best = min(lvl.orbit, key=img.__getitem__)
            img = kernels.compose(lvl.transversal[best], img)
        return img

    def coset_action(self, sub: "PermGroup") -> "ActionHom":
        """Right-multiplication action on right cosets of sub.

        Cosets are labeled by first discovery in a breadth-first walk that
        applies the generators in order starting from the coset of sub
        itself, which therefore always has label 0.
        """
        if not sub.is_subgroup_of(self):
            raise ConstructionError("coset action requires a subgroup")
        index = self.order() // sub.order()
        limit = guards().degree
        if index > limit:
            raise GuardExceededError("degree", limit, index)
        sub_chain = sub.chain()
        start = self.coset_rep(sub_chain, tuple(range(self._degree)))
        reps = [start]
        labels = {start: 0}
        gen_imgs = self.gen_images()
        # rows[k][i] is the label of coset i times generator k.
        rows: list[list[int]] = [[] for _ in gen_imgs]
        head = 0
        while head < len(reps):
            rep = reps[head]
            head += 1
            for row, g in zip(rows, gen_imgs):
                image = self.coset_rep(sub_chain, kernels.compose(rep, g))
                if image not in labels:
                    labels[image] = len(reps)
                    reps.append(image)
                row.append(labels[image])
        if len(reps) != index:
            raise ConstructionError(
                f"coset walk found {len(reps)} cosets, expected index {index}"
            )
        return ActionHom(self, index, (Permutation._raw(tuple(r)) for r in rows))


class ActionHom:
    """Homomorphism from a permutation group to an action on a new domain,
    presented by the images of the source generators.

    Contract: the generator images must extend to a homomorphism phi of
    the source, as they do for an action on cosets, on an invariant set
    or on an invariant partition.  Nothing checks it.

    Everything is read off the graph group {(g, g^phi)}, which acts on the
    source points 0..n-1 and the target points n..n+m-1 at once (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, 4.4).  Its
    natural chain has the source points first in its base and forces
    images; a chain with the target points first forces preimages, and its
    level that fixes every target point is the kernel.  Each chain is
    built on first use.  By the contract, g -> (g, g^phi) is an
    isomorphism from the source onto the graph group, so the graph
    group's chains stop at |source|; images that are no homomorphism
    would generate a larger graph group, and its chains would stop short.
    """

    def __init__(
        self,
        source: PermGroup,
        target_degree: int,
        generator_images: Iterable[Permutation],
    ) -> None:
        self.source = source
        self.target_degree = target_degree
        self.generator_images = tuple(generator_images)

    @cached_property
    def _graph(self) -> PermGroup:
        n = self.source.degree
        return PermGroup.from_images(
            n + self.target_degree,
            (
                g.images + tuple(n + x for x in h.images)
                for g, h in zip(self.source.generators, self.generator_images)
            ),
        )._bounded(self.source._order_bound())

    @cached_property
    def _target_first(self) -> tuple[_Chain, int]:
        n = self.source.degree
        return self._graph._prefix_chain(range(n, n + self.target_degree))

    def apply(self, g: Permutation) -> Permutation:
        n = self.source.degree
        img = None
        if g.degree == n:
            img = self._graph.chain().force(dict(enumerate(g.images)))
        if img is None:
            raise ConstructionError("element outside the acting group")
        return Permutation._raw(tuple(x - n for x in img[n:]))

    def preimage(self, h: Permutation) -> Permutation:
        """The canonical element of the source that maps to h."""
        n = self.source.degree
        img = None
        if h.degree == self.target_degree:
            chain = self._target_first[0]
            img = chain.force({n + j: n + x for j, x in enumerate(h.images)})
        if img is None:
            raise ConstructionError("element outside the image")
        return Permutation._raw(img[:n])

    @cached_property
    def kernel(self) -> PermGroup:
        chain, cut = self._target_first
        return _level_group(chain, cut, self.source.degree)

    def image_group(self) -> PermGroup:
        return PermGroup(
            self.generator_images, degree=self.target_degree
        )._bounded(self.source._order_bound())

    def map_subgroup(self, sub: PermGroup) -> PermGroup:
        if not sub.is_subgroup_of(self.source):
            raise ConstructionError("can only map subgroups of the source")
        return PermGroup(
            (self.apply(g) for g in sub.generators), degree=self.target_degree
        )

    def preimage_subgroup(self, sub: PermGroup) -> PermGroup:
        """The full preimage of a subgroup of the image."""
        return PermGroup(
            [self.preimage(h) for h in sub.generators] + list(self.kernel.generators),
            degree=self.source.degree,
        )


def _level_group(chain: _Chain, cut: int, degree: int) -> PermGroup:
    """The level group at index cut of a complete chain, on its first
    degree points; every element of that level group must fix the rest.
    Its order is the product of the orbit lengths from cut on."""
    bound = 1
    for lvl in chain.levels[cut:]:
        bound *= len(lvl.orbit)
    return PermGroup.from_images(
        degree, (img[:degree] for img in chain.effective_gens(cut))
    )._bounded(bound)


def generate_group(
    generators: Iterable[Permutation], degree: int | None = None
) -> PermGroup:
    return PermGroup(generators, degree=degree)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    """Intersection, by `_backtrack` over the smaller group's chain.

    A leaf passes when the larger group contains it.  The prune asks the
    larger group's chain, re-ranked to start with the smaller group's base
    in base order, to `force` the base images fixed so far; those are
    exactly a base prefix, so it cuts precisely the partial products that
    no element of the larger group extends.
    """
    if a.degree != b.degree:
        raise DegreeMismatchError(f"degree {a.degree} vs degree {b.degree}")
    small, big = (a, b) if a.order() <= b.order() else (b, a)
    bases = small.base()
    big_chain, _ = big._prefix_chain(bases)

    def realizable(img: tuple, fixed: set[int]) -> bool:
        return big_chain.force({x: img[x] for x in bases if x in fixed}) is not None

    return small._backtrack(big.contains_images, realizable)


def commutator_subgroup(a: PermGroup, b: PermGroup) -> PermGroup:
    """Subgroup generated by all commutators [x, y], x in a, y in b.

    Computed as the normal closure, in the join of a and b, of the
    commutators of the generators.
    """
    if a.degree != b.degree:
        raise DegreeMismatchError(f"degree {a.degree} vs degree {b.degree}")
    ambient = a.join(b)
    comms = []
    for x in a.generators:
        for y in b.generators:
            c = x.inverse() * y.inverse() * x * y
            if not c.is_identity():
                comms.append(c)
    return ambient.normal_closure(comms)


def derived_subgroup(g: PermGroup) -> PermGroup:
    """[g, g]: the normal closure, in g, of its generators' commutators."""
    return g.normal_closure(
        a.inverse() * b.inverse() * a * b for a in g.generators for b in g.generators
    )


# -- standard construction helpers ---------------------------------------


def trivial_group(degree: int) -> PermGroup:
    return PermGroup((), degree=degree)


def symmetric_group(n: int) -> PermGroup:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(gens, degree=n)


def alternating_group(n: int) -> PermGroup:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(0, 1, 2)]))
    if n >= 4:
        cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cycle]))
    return PermGroup(gens, degree=n)


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return trivial_group(1)
    return PermGroup([Permutation.from_cycles(n, [tuple(range(n))])], degree=n)


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of a regular n-gon acting on its vertices (order 2n)."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    ref = Permutation([(n - x) % n for x in range(n)])
    return PermGroup([rot, ref], degree=n)
