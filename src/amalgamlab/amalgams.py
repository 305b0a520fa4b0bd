"""Amalgams of groups with an explicitly identified common subgroup.

An amalgam is a triple (A, B, C) with C embedded in both A and B; here the
two embeddings are concrete permutation groups plus a verified isomorphism
between them, so subgroups can be transported across sides.  From a graph
with a group acting on it, every edge {x, y} yields the vertex-edge
stabilizer amalgam (G_x, G_e, G_xy).

The two amalgam-level engines are:

* the descending core recursion — alternate "largest subgroup normal in
  the vertex group" and "normal in the edge group" starting from C — which
  computes the same orders as pointwise ball stabilizers on a graph
  realization, and whose limit (the largest subgroup of C normal in both
  sides) is trivial exactly when the amalgam is faithful;

* ``inflate_amalgam``: given a degree-|Ω| group L with an intransitive
  semiregular normal subgroup S that is the kernel of L's action on the
  S-orbit set Δ, and a vertex-edge amalgam H whose local quotient is
  permutationally isomorphic to L's Δ-action, build a faithful amalgam
  inside L × H_x whose local action is L and whose core recursion matches
  H's level for level.  This manufactures instances with prescribed local
  action and prescribed depth of the stabilizer series.
"""

from __future__ import annotations

from . import kernels
from .errors import AmalgamError, ConstructionError
from .graphs import PairInstance
from .group import PermGroup, _element_ticks, intersection
from .perm import Permutation
from .report import Report

__all__ = [
    "Amalgam",
    "GroupIso",
    "InflationCertificate",
    "amalgam_from_pair",
    "core_sequence",
    "faithful_kernel",
    "inflate_amalgam",
    "verify_inflation",
]


class GroupIso:
    """An isomorphism between permutation groups, given on generators.

    The full element table is built by closing the paired generator list
    under multiplication; a pair collision or a size mismatch along the
    way disproves the homomorphism/bijectivity and raises.  The identity
    map gets a fast path with no table.
    """

    def __init__(
        self,
        source: PermGroup,
        target: PermGroup,
        images: tuple[Permutation, ...],
    ) -> None:
        if len(images) != len(source.generators):
            raise AmalgamError("need one image per source generator")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._identity = source.degree == target.degree and all(
            g.images == h.images
            for g, h in zip(source.generators, images)
        )
        self._table: dict[tuple, tuple] | None = None
        if not self._identity:
            self._build_table()

    def _build_table(self) -> None:
        ticks = _element_ticks()
        degree_s, degree_t = self.source.degree, self.target.degree
        ident = (
            tuple(range(degree_s)),
            tuple(range(degree_t)),
        )
        table = {ident[0]: ident[1]}
        queue = [ident]
        pairs = [
            (g.images, h.images)
            for g, h in zip(self.source.generators, self.images)
        ]
        while queue:
            s, t = queue.pop()
            next(ticks)
            for gs, gt in pairs:
                ns, nt = kernels.compose(s, gs), kernels.compose(t, gt)
                known = table.get(ns)
                if known is None:
                    table[ns] = nt
                    queue.append((ns, nt))
                elif known != nt:
                    raise AmalgamError(
                        "generator images do not extend to a homomorphism"
                    )
        if len(table) != self.source.order():
            raise AmalgamError("closure does not cover the source group")
        if len(set(table.values())) != len(table):
            raise AmalgamError("generator images do not extend injectively")
        if self.target.order() != len(table):
            raise AmalgamError(
                "image size differs from the declared target order"
            )
        self._table = table

    def apply(self, g: Permutation) -> Permutation:
        if self._identity:
            if g not in self.source:
                raise AmalgamError("element outside the isomorphism's source")
            return g
        assert self._table is not None
        img = self._table.get(g.images)
        if img is None:
            raise AmalgamError("element outside the isomorphism's source")
        return Permutation._raw(img)

    def invert(self, h: Permutation) -> Permutation:
        if self._identity:
            if h not in self.source:
                raise AmalgamError("element outside the isomorphism's range")
            return h
        assert self._table is not None
        for s, t in self._table.items():
            if t == h.images:
                return Permutation._raw(s)
        raise AmalgamError("element outside the isomorphism's range")

    def map_subgroup(self, sub: PermGroup) -> PermGroup:
        return PermGroup(
            (self.apply(g) for g in sub.generators), degree=self.target.degree
        )

    def invert_subgroup(self, sub: PermGroup) -> PermGroup:
        return PermGroup(
            (self.invert(g) for g in sub.generators), degree=self.source.degree
        )


class Amalgam:
    """Groups A and B sharing C, with the identification made explicit."""

    __slots__ = ("a", "b", "c_in_a", "c_in_b", "phi")

    def __init__(
        self,
        a: PermGroup,
        b: PermGroup,
        c_in_a: PermGroup,
        c_in_b: PermGroup,
        phi: GroupIso,
    ) -> None:
        if not c_in_a.is_subgroup_of(a):
            raise AmalgamError("C is not a subgroup of A")
        if not c_in_b.is_subgroup_of(b):
            raise AmalgamError("C is not a subgroup of B")
        if phi.source != c_in_a or phi.target != c_in_b:
            raise AmalgamError("phi must identify C_in_A with C_in_B")
        self.a = a
        self.b = b
        self.c_in_a = c_in_a
        self.c_in_b = c_in_b
        self.phi = phi

    @property
    def index_a(self) -> int:
        return self.a.order() // self.c_in_a.order()

    @property
    def index_b(self) -> int:
        return self.b.order() // self.c_in_b.order()

    def is_vertex_edge(self) -> bool:
        return self.index_b == 2


def identity_amalgam(a: PermGroup, b: PermGroup, c: PermGroup) -> Amalgam:
    """Amalgam where both copies of C are the same permutation group."""
    phi = GroupIso(c, c, c.generators)
    return Amalgam(a=a, b=b, c_in_a=c, c_in_b=c, phi=phi)


def amalgam_from_pair(inst: PairInstance, x: int, y: int) -> Amalgam:
    """The vertex-edge stabilizer amalgam of a graph pair at an edge."""
    if not inst.graph.has_edge(x, y):
        raise AmalgamError(f"{{{x},{y}}} is not an edge")
    vertex = inst.group.stabilizer(x)
    edge = inst.group.setwise_stabilizer([x, y])
    both = inst.group.pointwise_stabilizer([x, y])
    if both.order() * 2 != edge.order():
        raise AmalgamError(
            "no group element swaps the two endpoints (|B : C| != 2)"
        )
    return identity_amalgam(vertex, edge, both)


def _core_step(am: Amalgam, current: PermGroup) -> tuple[PermGroup, PermGroup]:
    """The largest subgroup of ``current`` normal in A, and the largest
    subgroup of that one normal, across phi, in B."""
    vertex_core = am.a.core(current)
    return vertex_core, am.phi.invert_subgroup(
        am.b.core(am.phi.map_subgroup(vertex_core))
    )


def faithful_kernel(am: Amalgam) -> PermGroup:
    """Largest subgroup of C normal in A and, across phi, normal in B.

    Alternates the two cores until the order stabilizes; each step shrinks
    or fixes the subgroup, and a fixed point is normal in both sides.  The
    amalgam is faithful exactly when the result is trivial.
    """
    current = am.c_in_a
    while True:
        before = current.order()
        _, current = _core_step(am, current)
        if current.order() == before:
            return current


def core_sequence(
    am: Amalgam, depth: int
) -> tuple[list[PermGroup], list[PermGroup]]:
    """The descending series of vertex and edge cores, as subgroups of A.

    Entry i (0-based, depth entries) holds the pair: the largest subgroup
    of the previous edge core that is normal in A, and the largest subgroup
    of that one normal in B.  On a graph realization these are the
    pointwise stabilizers of balls of radius i+1 around a vertex and
    around an edge.
    """
    if not am.is_vertex_edge():
        raise AmalgamError(
            f"core sequence needs |B : C| = 2, got {am.index_b}"
        )
    vertex_cores: list[PermGroup] = []
    edge_cores: list[PermGroup] = []
    current = am.c_in_a
    for _ in range(depth):
        vertex_core, current = _core_step(am, current)
        vertex_cores.append(vertex_core)
        edge_cores.append(current)
    return vertex_cores, edge_cores


# -- the inflation construction ----------------------------------------------


class InflationCertificate:
    """Everything ``inflate_amalgam`` built, for independent re-checking."""

    __slots__ = (
        "base",
        "seed",
        "blocks",
        "block_image",
        "input_amalgam",
        "input_first_core",
        "iso_witness",
        "delta",
        "omega",
        "amalgam",
        "embedded_seed",
    )

    def __init__(
        self,
        base: PermGroup,                      # L, on its own domain
        seed: PermGroup,                      # S, normal semiregular intransitive
        blocks: tuple[tuple[int, ...], ...],  # Δ = S-orbits, sorted by least point
        block_image: PermGroup,               # L's action on Δ
        input_amalgam: Amalgam,               # (H_x, H_e, H_xy)
        input_first_core: PermGroup,          # H_x^[1]
        iso_witness: tuple[int, ...],         # local quotient ≅ block action
        delta: int,                           # block paired with the base coset
        omega: int,                           # least point of that block
        amalgam: Amalgam,                     # output (G_x, G_e, G_xy)
        embedded_seed: PermGroup,             # S acting on the product domain
    ) -> None:
        self.base = base
        self.seed = seed
        self.blocks = blocks
        self.block_image = block_image
        self.input_amalgam = input_amalgam
        self.input_first_core = input_first_core
        self.iso_witness = iso_witness
        self.delta = delta
        self.omega = omega
        self.amalgam = amalgam
        self.embedded_seed = embedded_seed


def _embed_left(g: Permutation, right_degree: int) -> Permutation:
    return Permutation._raw(
        g.images + tuple(range(g.degree, g.degree + right_degree))
    )


def _embed_right(g: Permutation, left_degree: int) -> Permutation:
    return Permutation._raw(
        tuple(range(left_degree)) + tuple(left_degree + x for x in g.images)
    )


def inflate_amalgam(
    base: PermGroup, seed: PermGroup, h_amalgam: Amalgam
) -> InflationCertificate:
    """Build a faithful vertex-edge amalgam with local action ``base``.

    Inside the direct product of ``base`` (= L, with normal subgroup
    ``seed`` = S acting semiregularly with at least two orbits) and the
    input amalgam's vertex group H_x, take the subgroup G_x of pairs whose
    two coordinates induce matching permutations — matching across a
    permutation isomorphism between H_x's action on the cosets of H_xy and
    L's action on the S-orbits.  The edge side is untouched: G_e = H_e,
    and G_xy is the graph of the same matching over L_ω × H_xy, projecting
    isomorphically onto H_xy.

    The kernel of L's action on the S-orbits must be S itself (automatic
    for semiprimitive L); this is validated, not assumed.
    """
    from .actions import induced_action, permutation_isomorphism

    n = base.degree
    if seed.degree != n:
        raise ConstructionError("seed must act on the base group's domain")
    if not seed.is_normal_in(base):
        raise ConstructionError("seed subgroup is not normal")
    if seed.is_transitive():
        raise ConstructionError("seed subgroup must be intransitive")
    if not seed.is_semiregular():
        raise ConstructionError("seed subgroup must be semiregular")
    if seed.is_trivial():
        raise ConstructionError("seed subgroup must be nontrivial")

    blocks = tuple(tuple(o) for o in seed.orbits())
    block_hom = induced_action(base, blocks)
    if block_hom.kernel != seed:
        raise ConstructionError(
            "seed is not the kernel of the action on its orbits "
            f"(kernel order {block_hom.kernel.order()}, seed order {seed.order()})"
        )
    block_image = block_hom.image_group()

    if not h_amalgam.is_vertex_edge():
        raise ConstructionError("input amalgam must have |B : C| = 2")
    h_x = h_amalgam.a
    h_e = h_amalgam.b
    h_xy = h_amalgam.c_in_a
    first_core = h_amalgam.a.core(h_xy)

    local = h_x.coset_action(h_xy)
    local_image = local.image_group()
    if local_image.degree != block_image.degree:
        raise ConstructionError(
            f"local quotient degree {local_image.degree} does not match "
            f"the {block_image.degree} seed orbits"
        )
    witness = permutation_isomorphism(local_image, block_image)
    if witness is None:
        raise ConstructionError(
            "local quotient is not permutationally isomorphic to the "
            "action on seed orbits"
        )
    witness_inv = kernels.inverse(witness)

    def lift(block_perm: tuple, fix: int | None) -> Permutation:
        """An element of L inducing block_perm; with ``fix``, the unique one
        fixing that point (S is semiregular and a block is an S-orbit)."""
        whole = block_hom.preimage(Permutation._raw(block_perm))
        if fix is None:
            return whole
        return whole * seed.transporter(whole[fix], fix)

    def transport(h: Permutation) -> tuple:
        """Image of an H_x element: local quotient, then the isomorphism."""
        local_perm = local.apply(h).images
        return kernels.compose(kernels.compose(witness_inv, local_perm), witness)

    h_degree = h_x.degree
    delta = witness[0]
    omega = min(blocks[delta])

    x_gens = [_embed_left(s, h_degree) for s in seed.generators] + [
        _embed_right(kk, n) for kk in first_core.generators
    ]
    g_x = PermGroup(
        x_gens
        + [
            Permutation._raw(lift(transport(h), None).images + tuple(n + v for v in h.images))
            for h in h_x.generators
        ],
        degree=n + h_degree,
    )
    g_xy = PermGroup(
        [_embed_right(kk, n) for kk in first_core.generators]
        + [
            Permutation._raw(
                lift(transport(c), omega).images + tuple(n + v for v in c.images)
            )
            for c in h_xy.generators
        ],
        degree=n + h_degree,
    )
    projection = GroupIso(
        g_xy,
        h_amalgam.c_in_b,
        tuple(
            Permutation._raw(tuple(v - n for v in g.images[n:]))
            for g in g_xy.generators
        ),
    )
    output = Amalgam(
        a=g_x, b=h_e, c_in_a=g_xy, c_in_b=h_amalgam.c_in_b, phi=projection
    )
    if output.index_a != n:
        raise ConstructionError(
            f"|G_x : G_xy| = {output.index_a} does not equal the base degree {n}"
        )
    embedded_seed = PermGroup(
        (_embed_left(s, h_degree) for s in seed.generators),
        degree=n + h_degree,
    )
    return InflationCertificate(
        base=base,
        seed=seed,
        blocks=blocks,
        block_image=block_image,
        input_amalgam=h_amalgam,
        input_first_core=first_core,
        iso_witness=witness,
        delta=delta,
        omega=omega,
        amalgam=output,
        embedded_seed=embedded_seed,
    )


def verify_inflation(cert: InflationCertificate, depth: int = 3) -> Report:
    """Re-check an inflation output against its contract.

    Each core series descends inside a vertex group and is constant once a
    step repeats, so a depth past the bit length of the larger vertex-group
    order only repeats and raises ConstructionError.
    """
    from .actions import permutation_isomorphism

    out = cert.amalgam
    h_am = cert.input_amalgam
    order = max(h_am.a.order(), out.a.order())
    if depth > order.bit_length():
        raise ConstructionError(
            f"depth must be at most {order.bit_length()}, the bit length of "
            f"the vertex-group order {order}, got {depth}"
        )
    n = cert.base.degree
    h_degree = h_am.a.degree
    report = Report(
        "construct section4",
        {
            "base_order": cert.base.order(),
            "seed_order": cert.seed.order(),
            "input_vertex_order": h_am.a.order(),
            "output_vertex_order": out.a.order(),
            "output_edge_order": out.b.order(),
            "output_shared_order": out.c_in_a.order(),
            "delta": cert.delta,
            "omega": cert.omega,
        },
    )

    out_x, out_xy = core_sequence(out, depth)
    in_x, in_xy = core_sequence(h_am, depth)
    embedded_in_x = [
        PermGroup((_embed_right(g, n) for g in sub.generators), degree=n + h_degree)
        for sub in in_x
    ]
    report.require(
        "core-sequence-match",
        [g.order() for g in out_x] == [g.order() for g in in_x]
        and [g.order() for g in out_xy] == [g.order() for g in in_xy]
        and all(a == b for a, b in zip(out_x, embedded_in_x)),
        "inflation-core-transfer",
        {
            "vertex_core_orders": [g.order() for g in out_x],
            "edge_core_orders": [g.order() for g in out_xy],
        },
    )

    input_faithful = faithful_kernel(h_am).is_trivial()
    kernel = faithful_kernel(out)
    if input_faithful:
        report.require(
            "faithful",
            kernel.is_trivial(),
            "inflation-faithfulness",
            {"kernel_order": kernel.order()},
        )
    else:
        report.add(
            "faithful",
            "vacuous",
            "inflation-faithfulness",
            {"reason": "input amalgam is not faithful",
             "kernel_order": kernel.order()},
        )

    induced = out.a.coset_action(out.c_in_a).image_group()
    iso = permutation_isomorphism(induced, cert.base)
    report.require(
        "local-action-is-base",
        iso is not None,
        "inflation-local-action",
        {"induced_order": induced.order(), "base_order": cert.base.order()},
    )

    meet = intersection(out.c_in_a, cert.embedded_seed)
    report.require(
        "shared-meets-seed-trivially",
        meet.is_trivial(),
        "inflation-seed-meet",
        {"intersection_order": meet.order()},
    )

    report.require(
        "shared-projects-isomorphically",
        out.c_in_a.order() == h_am.c_in_b.order(),
        "inflation-projection",
        {
            "shared_order": out.c_in_a.order(),
            "input_shared_order": h_am.c_in_b.order(),
        },
    )
    report.require(
        "edge-index-two",
        out.index_b == 2,
        "inflation-edge-index",
        {"index": out.index_b},
    )
    return report
