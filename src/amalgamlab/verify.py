"""Instance-level verifiers for ball-stabilizer triviality.

The main theorem being checked: for a vertex-transitive pair whose local
action is the ordered-pairs action of Sym(n), the pointwise stabilizer of
a ball around a vertex is trivial at radius 1 for n = 3, radius 2 for
n = 5 or n >= 7, and radius 3 for n = 4 or 6.

``verify_theorem`` certifies the local action and checks the triviality at
the radius for the given n.  ``proof_trace`` re-runs, on one instance, the
chain of subgroup facts that the proof of the theorem establishes along
the way (claims 1, 3, 4 and 5 plus the derived identities); every claim is
reported honestly as pass / violated / vacuous, in one ``Report`` that
also carries the orders of the subgroups built.  ``hauptlemma_check``
evaluates the basic lemma that powers all of them: a subgroup of the arc
stabilizer that is normal in the edge group and whose normalizer in the
vertex group is transitive on the neighbors must be trivial.

Both a concrete graph-with-group and an abstract vertex-edge amalgam are
accepted; ``EdgeContext`` reduces the two to a common view: the edge's
amalgam (G_x, G_e, G_xy), the neighbor action and the descending cores.  A
graph's amalgam comes from ``amalgam_from_pair``, so the amalgam module
alone builds the identification of G_xy across the two sides.
"""

from __future__ import annotations

from . import kernels
from .actions import induced_action, permutation_isomorphism
from .amalgams import Amalgam, amalgam_from_pair, core_sequence
from .errors import WitnessError
from .graphs import (
    PairInstance,
    ball_stabilizer,
    ball_stabilizer_pair,
    coset_graph,
)
from .group import (
    ActionHom,
    PermGroup,
    commutator_subgroup,
    derived_subgroup,
    intersection,
    symmetric_group,
)
from .pairs import OrderedPairsAction, build_ordered_pairs
from .perm import Permutation
from .report import Report
from .structure import (
    frattini_p,
    o_p,
    o_upper_p,
    omega1_center,
    p_valuation,
    thompson_subgroup,
)

__all__ = [
    "EdgeContext",
    "LocalReference",
    "edge_context",
    "edge_kernel_prime",
    "hauptlemma_check",
    "proof_trace",
    "regular_base_instance",
    "theorem_radius",
    "verify_theorem",
]


PRIME_TABLE = {(4, 2), (5, 3), (6, 2)}
QUOTIENT_ORDER = {4: 6, 6: 60}


def theorem_radius(n: int) -> int:
    """Ball radius at which the stabilizer is asserted trivial."""
    if n < 3:
        raise WitnessError("the ordered-pairs action needs n >= 3")
    if n == 3:
        return 1
    if n in (4, 6):
        return 3
    return 2


class EdgeContext:
    """One edge of an instance, reduced to the data the verifiers use.

    ``amalgam`` is the edge's vertex-edge amalgam: ``a`` the vertex group,
    ``b`` the edge group, ``c_in_a`` the arc stabilizer inside the vertex
    group's domain and ``phi`` its identification with the copy inside the
    edge group (for a graph both domains coincide and ``phi`` is the
    identity map).  The cores are the descending pointwise ball
    stabilizers: ``vertex_cores[i]`` fixes the radius-(i+1) ball around the
    vertex, ``edge_cores[i]`` the union of the balls around both endpoints.
    """

    __slots__ = (
        "route",
        "amalgam",
        "neighbor_hom",
        "base_neighbor",
        "vertex_cores",
        "edge_cores",
    )

    def __init__(
        self,
        route: str,
        amalgam: Amalgam,
        neighbor_hom: ActionHom,
        base_neighbor: int,
        vertex_cores: tuple[PermGroup, ...],
        edge_cores: tuple[PermGroup, ...],
    ) -> None:
        self.route = route
        self.amalgam = amalgam
        self.neighbor_hom = neighbor_hom
        self.base_neighbor = base_neighbor
        self.vertex_cores = vertex_cores
        self.edge_cores = edge_cores

    @property
    def valency(self) -> int:
        return self.neighbor_hom.target_degree

    def neighbor_image(self, sub: PermGroup) -> PermGroup:
        """The permutations a subgroup of G_x induces on the neighbors."""
        return self.neighbor_hom.map_subgroup(sub)

    def swap_conjugate(self, sub: PermGroup) -> PermGroup:
        """Conjugate a subgroup of the arc stabilizer by an endpoint swap."""
        phi = self.amalgam.phi
        swap = next(g for g in self.amalgam.b.generators if g not in phi.target)
        return phi.invert_subgroup(phi.map_subgroup(sub).conjugate(swap))


def _graph_context(inst: PairInstance, x: int, y: int, depth: int) -> EdgeContext:
    if not inst.graph.has_edge(x, y):
        raise WitnessError(f"{{{x},{y}}} is not an edge")
    am = amalgam_from_pair(inst, x, y)
    neighbors = list(inst.graph.neighbors(x))
    return EdgeContext(
        route="graph",
        amalgam=am,
        neighbor_hom=induced_action(am.a, neighbors),
        base_neighbor=neighbors.index(y),
        vertex_cores=tuple(
            ball_stabilizer(inst, x, r) for r in range(1, depth + 1)
        ),
        edge_cores=tuple(
            ball_stabilizer_pair(inst, x, y, r) for r in range(1, depth + 1)
        ),
    )


def _amalgam_context(am: Amalgam, depth: int) -> EdgeContext:
    vertex_cores, edge_cores = core_sequence(am, depth)
    return EdgeContext(
        route="amalgam",
        amalgam=am,
        neighbor_hom=am.a.coset_action(am.c_in_a),
        base_neighbor=0,
        vertex_cores=tuple(vertex_cores),
        edge_cores=tuple(edge_cores),
    )


def edge_context(
    instance: PairInstance | Amalgam | EdgeContext,
    depth: int,
    edge: tuple[int, int] | None = None,
) -> EdgeContext:
    """Reduce a graph pair or a vertex-edge amalgam to an edge's data.

    A graph pair takes the given edge or its first one.  An amalgam, and a
    context already built, fix their own edge; a context is returned as it
    is when it holds cores to at least ``depth``.
    """
    if isinstance(instance, (Amalgam, EdgeContext)) and edge is not None:
        raise WitnessError("an amalgam fixes its own edge; none may be given")
    if isinstance(instance, EdgeContext):
        if len(instance.vertex_cores) < depth:
            raise WitnessError(
                f"the edge context holds cores to depth "
                f"{len(instance.vertex_cores)}, {depth} are needed"
            )
        return instance
    if isinstance(instance, Amalgam):
        return _amalgam_context(instance, depth)
    if isinstance(instance, PairInstance):
        x, y = instance.graph.first_edge() if edge is None else edge
        return _graph_context(instance, x, y, depth)
    raise WitnessError(
        f"expected a graph pair or an amalgam, got {type(instance).__name__}"
    )


class LocalReference:
    """Certificate that the local action is the ordered-pairs group.

    ``witness`` maps neighbor points to pair labels so that conjugation by
    it carries every induced neighbor permutation into the reference
    group; ``base_pair`` is the ordered pair matched to the context's base
    neighbor, whose two coordinates seed the point-stabilizer towers.
    """

    __slots__ = ("pairs", "witness", "base_pair")

    def __init__(
        self,
        pairs: OrderedPairsAction,
        witness: tuple[int, ...],
        base_pair: tuple[int, int],
    ) -> None:
        self.pairs = pairs
        self.witness = witness
        self.base_pair = base_pair


def certify_local(ctx: EdgeContext, n: int) -> LocalReference | None:
    pairs = build_ordered_pairs(n)
    if ctx.valency != pairs.degree:
        return None
    image = ctx.neighbor_hom.image_group()
    witness = permutation_isomorphism(image, pairs.group)
    if witness is None:
        return None
    return LocalReference(
        pairs=pairs,
        witness=witness,
        base_pair=pairs.index_pair(witness[ctx.base_neighbor]),
    )


def _coordinate_tower_preimages(
    ctx: EdgeContext, ref: LocalReference
) -> tuple[PermGroup, PermGroup]:
    """Subgroups of G_x inducing neighbor actions that fix a coordinate.

    Every element of G_x induces, through the certificate, an element of
    the ordered-pairs group and hence a permutation of the n underlying
    points.  The towers are the preimages of the two point stabilizers at
    the base pair's coordinates under that action.
    """
    pairs = ref.pairs
    n = pairs.n
    witness_inv = kernels.inverse(ref.witness)
    coords = []
    for h in ctx.neighbor_hom.generator_images:
        in_pairs = kernels.compose(kernels.compose(witness_inv, h.images), ref.witness)
        coord = tuple(
            pairs.index_pair(in_pairs[pairs.pair_index(a, (a + 1) % n)])[0]
            for a in range(n)
        )
        coords.append(Permutation._raw(coord))
    hom = ActionHom(ctx.amalgam.a, n, coords)
    image = hom.image_group()
    return tuple(
        hom.preimage_subgroup(image.stabilizer(c)) for c in ref.base_pair
    )


# -- the theorem check --------------------------------------------------------


def verify_theorem(
    instance: PairInstance | Amalgam | EdgeContext,
    n: int,
    edge: tuple[int, int] | None = None,
) -> Report:
    """Check stabilizer triviality at the radius the theorem asserts."""
    radius = theorem_radius(n)
    ctx = edge_context(instance, depth=radius, edge=edge)
    report = Report(
        "verify theorem",
        {
            "n": n,
            "radius": radius,
            "route": ctx.route,
            "vertex_order": ctx.amalgam.a.order(),
            "edge_order": ctx.amalgam.b.order(),
            "valency": ctx.valency,
        },
    )
    ref = certify_local(ctx, n)
    if ref is None:
        report.add(
            "locally-reference",
            "violated",
            "main-theorem-hypothesis",
            {
                "valency": ctx.valency,
                "required_degree": n * (n - 1),
                "local_order": ctx.neighbor_hom.image_group().order(),
                "required_order": build_ordered_pairs(n).group.order(),
            },
        )
        report.add(
            "stabilizer-triviality",
            "skipped",
            "main-theorem-fixity",
            {"reason": "local action is not the reference group"},
        )
        return report
    report.add(
        "locally-reference",
        "pass",
        "main-theorem-hypothesis",
        {"witness": list(ref.witness)},
    )
    core_orders = [g.order() for g in ctx.vertex_cores]
    previous = ctx.amalgam.a if radius == 1 else ctx.vertex_cores[radius - 2]
    report.require(
        "stabilizer-triviality",
        ctx.vertex_cores[radius - 1].is_trivial(),
        "main-theorem-fixity",
        {
            "radius": radius,
            "vertex_core_orders": core_orders,
            "sharp": previous.order() > 1,
        },
    )
    return report


# -- the proof trace ----------------------------------------------------------


_CLAIM_NAMES = (
    ("edge-kernel-prime", "edge-kernel-prime"),
    ("prime-table", "prime-table"),
    ("claim1-centralizer-of-radical", "claim-1"),
    ("claim1-centralizer-of-socle", "claim-1"),
    ("center-containment", "claim-1"),
    ("radical-product-identity", "sylow-product"),
    ("claim3-radical-r1", "claim-3"),
    ("claim3-centralizer-r1", "claim-3"),
    ("claim3-quotient-r1", "claim-3"),
    ("claim3-sylow-r1", "claim-3"),
    ("claim3-radical-r2", "claim-3"),
    ("claim3-centralizer-r2", "claim-3"),
    ("claim3-quotient-r2", "claim-3"),
    ("claim3-sylow-r2", "claim-3"),
    ("claim4-characteristic-r1", "claim-4"),
    ("claim4-characteristic-r2", "claim-4"),
    ("claim5-commutator-r1", "claim-5"),
    ("claim5-commutator-r2", "claim-5"),
    ("claim5-second-edge-kernel", "claim-5"),
)


def _characteristic_family(
    s: PermGroup, p: int, socle: PermGroup
) -> list[tuple[str, PermGroup]]:
    """Standard characteristic subgroups of a p-group, its center socle given."""
    return [
        ("center", s.center()),
        ("center-socle", socle),
        ("derived", derived_subgroup(s)),
        ("frattini", frattini_p(s, p)),
        ("thompson", thompson_subgroup(s, p)),
    ]


def _close_claims(
    report: Report, claims: tuple[tuple[str, str], ...], status: str, reason: str
) -> Report:
    """Mark claims that an early exit leaves unchecked, all for one reason."""
    for name, anchor in claims:
        report.add(name, status, anchor, {"reason": reason})
    return report


def edge_kernel_prime(ctx: EdgeContext) -> int:
    """The least prime dividing the order of a nontrivial first edge kernel."""
    order = ctx.edge_cores[0].order()
    return next(f for f in range(2, order + 1) if order % f == 0)


def proof_trace(
    instance: PairInstance | Amalgam | EdgeContext,
    n: int,
    edge: tuple[int, int] | None = None,
) -> Report:
    """Re-check, on one instance, the subgroup facts the proof derives.

    Past every early exit, the inputs end with ``subgroup_orders``: ``r1``
    and ``r2`` are the preimages in G_x of the two point-stabilizer towers,
    ``r1_star`` and ``r2_star`` the normal closures of S_xy inside them.
    """
    if n not in (4, 5, 6):
        raise WitnessError("the trace applies for n in {4, 5, 6}")
    ctx = edge_context(instance, depth=2, edge=edge)
    report = Report(
        "trace claims",
        {
            "n": n,
            "route": ctx.route,
            "vertex_order": ctx.amalgam.a.order(),
            "edge_order": ctx.amalgam.b.order(),
            "first_edge_kernel_order": ctx.edge_cores[0].order(),
        },
    )
    ref = certify_local(ctx, n)
    if ref is None:
        report.add(
            "locally-reference",
            "violated",
            "main-theorem-hypothesis",
            {
                "valency": ctx.valency,
                "required_degree": n * (n - 1),
                "local_order": ctx.neighbor_hom.image_group().order(),
            },
        )
        return _close_claims(
            report, _CLAIM_NAMES, "skipped", "not locally the reference group"
        )
    report.add(
        "locally-reference", "pass", "main-theorem-hypothesis", {"witness": list(ref.witness)}
    )

    first_kernel = ctx.edge_cores[0]
    if first_kernel.is_trivial():
        return _close_claims(
            report, _CLAIM_NAMES, "vacuous", "first edge kernel is trivial"
        )

    order = first_kernel.order()
    p = edge_kernel_prime(ctx)
    exponent, residue = p_valuation(order, p)
    report.require(
        "edge-kernel-prime",
        residue == 1,
        "edge-kernel-prime",
        {"prime": p, "order": order, "p_power": p**exponent},
    )
    if residue != 1:
        return _close_claims(
            report,
            _CLAIM_NAMES[1:],
            "skipped",
            "first edge kernel is not a prime power",
        )

    report.require(
        "prime-table",
        (n, p) in PRIME_TABLE,
        "prime-table",
        {"n": n, "prime": p, "table": sorted(PRIME_TABLE)},
    )

    s_xy = o_p(ctx.amalgam.c_in_a, p)
    z_xy = omega1_center(s_xy, p)
    q_x = o_p(ctx.vertex_cores[0], p)
    z_x = omega1_center(q_x, p)
    q_y = ctx.swap_conjugate(q_x)
    z_y = ctx.swap_conjugate(z_x)

    for label, sub in (("radical", q_x), ("socle", z_x)):
        centralizer = ctx.amalgam.a.centralizer(sub)
        induced = ctx.neighbor_image(centralizer)
        semiregular = induced.is_semiregular()
        report.require(
            f"claim1-centralizer-of-{label}",
            not induced.is_transitive() and semiregular,
            "claim-1",
            {
                "centralizer_order": centralizer.order(),
                "neighbor_orbit_sizes": sorted(
                    len(o) for o in induced.orbits()
                ),
                "semiregular": semiregular,
            },
        )

    report.require(
        "center-containment",
        z_xy.is_subgroup_of(z_x),
        "claim-1",
        {"z_xy_order": z_xy.order(), "z_x_order": z_x.order()},
    )

    product_order, meet = q_x.order() * q_y.order(), intersection(q_x, q_y)
    report.require(
        "radical-product-identity",
        q_x.join(q_y) == s_xy and product_order == s_xy.order() * meet.order(),
        "sylow-product",
        {
            "s_xy_order": s_xy.order(),
            "q_x_order": q_x.order(),
            "q_y_order": q_y.order(),
            "intersection_order": meet.order(),
        },
    )

    towers = _coordinate_tower_preimages(ctx, ref)
    stars = tuple(r.normal_closure(s_xy) for r in towers)
    family = _characteristic_family(s_xy, p, z_xy)
    for i, star in enumerate(stars, start=1):
        radical = o_p(star, p)
        report.require(
            f"claim3-radical-r{i}",
            radical == q_x,
            "claim-3",
            {
                "closure_order": star.order(),
                "radical_order": radical.order(),
                "q_x_order": q_x.order(),
            },
        )
        star_centralizer = star.centralizer(q_x)
        report.require(
            f"claim3-centralizer-r{i}",
            star_centralizer.is_subgroup_of(q_x),
            "claim-3",
            {"centralizer_order": star_centralizer.order()},
        )
        if n in QUOTIENT_ORDER:
            report.require(
                f"claim3-quotient-r{i}",
                star.order() == QUOTIENT_ORDER[n] * q_x.order(),
                "claim-3",
                {
                    "quotient_order": star.order() // q_x.order(),
                    "expected": QUOTIENT_ORDER[n],
                },
            )
        else:
            report.add(
                f"claim3-quotient-r{i}",
                "skipped",
                "claim-3",
                {"reason": f"no realizable quotient target for n = {n}"},
            )
        star_exponent, _ = p_valuation(star.order(), p)
        report.require(
            f"claim3-sylow-r{i}",
            s_xy.is_subgroup_of(star) and s_xy.order() == p**star_exponent,
            "claim-3",
            {
                "s_xy_order": s_xy.order(),
                "sylow_order": p**star_exponent,
            },
        )
        normal_members = {
            name: sub.order()
            for name, sub in family
            if not sub.is_trivial() and sub.is_normal_in(star)
        }
        report.require(
            f"claim4-characteristic-r{i}",
            not normal_members,
            "claim-4",
            {
                "family_orders": {name: sub.order() for name, sub in family},
                "normal_members": normal_members,
            },
        )
        away = o_upper_p(star, p)
        pinned = commutator_subgroup(ctx.vertex_cores[1], away)
        center = star.center()
        report.require(
            f"claim5-commutator-r{i}",
            pinned.is_subgroup_of(center),
            "claim-5",
            {
                "commutator_order": pinned.order(),
                "center_order": center.order(),
            },
        )

    report.require(
        "claim5-second-edge-kernel",
        ctx.edge_cores[1].is_trivial(),
        "claim-5",
        {"second_edge_kernel_order": ctx.edge_cores[1].order()},
    )

    names = ("s_xy", "z_xy", "q_x", "q_y", "z_x", "z_y", "r1", "r2", "r1_star", "r2_star")
    subgroups = (s_xy, z_xy, q_x, q_y, z_x, z_y, *towers, *stars)
    report.inputs["subgroup_orders"] = {
        name: sub.order() for name, sub in zip(names, subgroups)
    }
    return report


# -- the basic lemma ----------------------------------------------------------


def hauptlemma_check(
    instance: PairInstance | Amalgam | EdgeContext,
    k: PermGroup,
    edge: tuple[int, int] | None = None,
) -> Report:
    """Test one subgroup against the normal-plus-transitive triviality lemma.

    Reports pass when all three hypotheses hold and K is trivial (the
    lemma's conclusion, observed); violated when all hold with K nontrivial
    (impossible if the implementation is sound); vacuous when a hypothesis
    fails, naming the failed ones.
    """
    ctx = edge_context(instance, depth=1, edge=edge)
    am = ctx.amalgam
    if not k.is_subgroup_of(am.c_in_a):
        raise WitnessError("K must lie inside the arc stabilizer")
    report = Report(
        "check hauptlemma",
        {
            "route": ctx.route,
            "k_order": k.order(),
            "vertex_order": am.a.order(),
        },
    )
    normal_in_edge = am.phi.map_subgroup(k).is_normal_in(am.b)
    normalizer = am.a.normalizer(k)
    transitive = ctx.neighbor_image(normalizer).is_transitive()
    details = {
        "k_order": k.order(),
        "normal_in_edge_group": normal_in_edge,
        "normalizer_transitive_on_neighbors": transitive,
        "normalizer_order": normalizer.order(),
    }
    if normal_in_edge and transitive:
        if k.is_trivial():
            report.add("hauptlemma-consistency", "pass", "hauptlemma", details)
        else:
            report.add(
                "hauptlemma-consistency",
                "violated",
                "hauptlemma",
                details
                | {"witness_generators": [str(g) for g in k.generators]},
            )
    else:
        failed = [
            name
            for name, held in (
                ("normal-in-edge-group", normal_in_edge),
                ("normalizer-transitive", transitive),
            )
            if not held
        ]
        report.add(
            "hauptlemma-consistency",
            "vacuous",
            "hauptlemma",
            details | {"failed_hypotheses": failed},
        )
    return report


# -- a built-in smallest instance ---------------------------------------------


def regular_base_instance() -> PairInstance:
    """A 20-vertex, 6-valent pair whose local action is the n = 3 group.

    The full symmetric group on five points, acting on the cosets of a
    symmetric group on three of them, with edges through an involution
    moving the other two: the vertex stabilizer acts regularly on the six
    neighbors, which is exactly the ordered-pairs action for n = 3.
    """
    ambient = symmetric_group(5)
    vertex = PermGroup(
        [
            Permutation.from_cycles(5, [(0, 1, 2)]),
            Permutation.from_cycles(5, [(0, 1)]),
        ]
    )
    edge = PermGroup([Permutation.from_cycles(5, [(2, 3), (1, 4)])])
    return coset_graph(ambient, vertex, edge)
