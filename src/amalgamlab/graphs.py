"""Finite simple connected graphs and their symmetry machinery.

Provides graph text IO, full automorphism groups by pruned backtracking,
a small catalog of named cubic arc-transitive graphs, vertex/edge ball
stabilizers (the pointwise stabilizers of all vertices within a given
radius), coset graphs built from a group with chosen vertex and edge
subgroups, and certification that a pair (graph, group) is locally a given
permutation group on the neighbor sets.
"""

from __future__ import annotations

from functools import lru_cache

from .config import guards
from .errors import (
    ConstructionError,
    DegreeMismatchError,
    FormatError,
    GraphError,
    GuardExceededError,
)
from .group import ActionHom, PermGroup, intersection
from .perm import Permutation

__all__ = [
    "Graph",
    "PairInstance",
    "ball",
    "ball_stabilizer",
    "ball_stabilizer_pair",
    "catalog_graph",
    "catalog_names",
    "complete_bipartite_graph",
    "complete_graph",
    "coset_graph",
    "cycle_graph",
    "format_graph",
    "graph_automorphisms",
    "graph_from_edges",
    "is_locally",
    "lcf_graph",
    "local_action",
    "pair_instance",
    "parse_graph",
    "stabilizer_series",
    "stabilizer_series_pair",
]


class Graph:
    """A finite simple connected graph as sorted adjacency tuples."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: tuple[tuple[int, ...], ...]) -> None:
        n = len(adjacency)
        for v, row in enumerate(adjacency):
            if tuple(sorted(set(row))) != row:
                raise GraphError(f"adjacency of vertex {v} not sorted/unique")
            for w in row:
                if w == v:
                    raise GraphError(f"loop at vertex {v}")
                if not 0 <= w < n:
                    raise GraphError(f"vertex {w} out of range")
                if v not in adjacency[w]:
                    raise GraphError(f"edge {v}-{w} not symmetric")
        if n:
            seen = {0}
            queue = [0]
            while queue:
                v = queue.pop()
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) != n:
                raise GraphError("graph is not connected")
        self.adjacency = adjacency

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge; False for a vertex out of range."""
        return 0 <= u < len(self.adjacency) and v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in self.adjacency[u]
            if u < v
        ]

    def first_edge(self) -> tuple[int, int]:
        """The default edge of every edge-based check: the first of ``edges``."""
        edges = self.edges()
        if not edges:
            raise GraphError("the graph has no edge")
        return edges[0]

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    def distances(self, x: int) -> list[int]:
        dist = [-1] * self.vertex_count
        dist[x] = 0
        queue = [x]
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for w in self.adjacency[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def is_automorphism(self, g: Permutation) -> bool:
        if g.degree != self.vertex_count:
            return False
        return all(
            self.has_edge(g[u], g[v]) for u, v in self.edges()
        )


def graph_from_edges(n: int, edges) -> Graph:
    adjacency: list[set[int]] = [set() for _ in range(n)]
    count = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} out of range")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if v in adjacency[u]:
            raise GraphError(f"duplicate edge {u}-{v}")
        adjacency[u].add(v)
        adjacency[v].add(u)
        count += 1
    return Graph(tuple(tuple(sorted(row)) for row in adjacency))


def parse_graph(text: str) -> Graph:
    """Read "n m" then m lines "u v" (0-based); '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 2 or not all(p.lstrip("-").isdigit() for p in head):
        raise FormatError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if n < 1 or m < 0:
        raise FormatError("vertex/edge counts must be positive")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise FormatError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if m < n - 1:
        # Checked before n adjacency sets exist: n is bounded by the file.
        raise GraphError("graph is not connected")
    return graph_from_edges(n, edges)


def format_graph(graph: Graph) -> str:
    lines = [f"{graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


# -- constructions ----------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return graph_from_edges(
        a + b, [(u, a + v) for u in range(a) for v in range(b)]
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def lcf_graph(shifts: list[int], repeats: int) -> Graph:
    """Cubic Hamiltonian graph from LCF notation [shifts]^repeats."""
    n = len(shifts) * repeats
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    return graph_from_edges(
        n, sorted((u, v) if u < v else (v, u) for u, v in edges)
    )


# -- automorphisms ----------------------------------------------------------


def _vertex_invariant(graph: Graph) -> list[tuple]:
    out = []
    for v in range(graph.vertex_count):
        dist = graph.distances(v)
        profile: dict[int, int] = {}
        for d in dist:
            profile[d] = profile.get(d, 0) + 1
        out.append(
            (
                graph.degree(v),
                tuple(sorted(graph.degree(w) for w in graph.neighbors(v))),
                tuple(sorted(profile.items())),
            )
        )
    return out


def graph_automorphisms(graph: Graph) -> PermGroup:
    """The full automorphism group, by a coset-pruned search for generators.

    The base is the breadth-first order from vertex 0, so a base point's
    image lies next to the image of its BFS parent.  Levels L run from the
    last base point down to the first.  At level L, order[:L] is fixed
    pointwise, as every generator found so far fixes it; each image of
    order[L] outside its orbit under them, in increasing order, is extended
    depth-first to its first automorphism, which becomes a generator.  One
    leaf is sought per coset (McKay 1981; Butler, LNCS 559, 1991), and it
    is the lexicographically first in base order.  Candidates must match
    vertex invariants (degree, neighbor degrees, distance profile), and the
    assigned neighbors of v must map onto the assigned neighbors of its
    image: an O(degree) check that equals full adjacency agreement.
    """
    limit = guards().autos_vertices
    n = graph.vertex_count
    if n > limit:
        raise GuardExceededError("autos_vertices", limit, n)
    invariant = _vertex_invariant(graph)
    order = []
    parent = [-1] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    while queue:
        v = queue.pop(0)
        order.append(v)
        for w in graph.neighbors(v):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                queue.append(w)
    image = list(range(n))  # all fixed at first; -1 marks unassigned
    used = [True] * n

    def candidates(v: int) -> list[int]:
        pool = range(n) if parent[v] == -1 else graph.neighbors(image[parent[v]])
        mapped = {image[u] for u in graph.neighbors(v) if image[u] != -1}
        return [
            w
            for w in pool
            if not used[w]
            and invariant[w] == invariant[v]
            and mapped == {u for u in graph.neighbors(w) if used[u]}
        ]

    def first_leaf(i: int, w: int) -> tuple | None:
        """The first automorphism extending the assignment by order[i] -> w."""
        image[order[i]], used[w] = w, True
        try:
            if i + 1 == n:
                return tuple(image)
            for u in candidates(order[i + 1]):
                leaf = first_leaf(i + 1, u)
                if leaf is not None:
                    return leaf
            return None
        finally:
            image[order[i]], used[w] = -1, False

    gens: list[tuple] = []
    for level in range(n - 1, -1, -1):
        v = order[level]
        image[v], used[v] = -1, False
        orbit = {v}
        for w in candidates(v):
            if w in orbit or (leaf := first_leaf(level, w)) is None:
                continue
            gens.append(leaf)
            frontier = orbit
            while frontier:
                frontier = {g[u] for u in frontier for g in gens} - orbit
                orbit |= frontier
    return PermGroup.from_images(n, gens)


# -- instances --------------------------------------------------------------


class PairInstance:
    """A graph together with an adjacency-preserving group on its vertices."""

    __slots__ = ("graph", "group", "vertex_transitive")

    def __init__(
        self, graph: Graph, group: PermGroup, vertex_transitive: bool
    ) -> None:
        self.graph = graph
        self.group = group
        self.vertex_transitive = vertex_transitive


def pair_instance(graph: Graph, group: PermGroup) -> PairInstance:
    if group.degree != graph.vertex_count:
        raise DegreeMismatchError(
            f"group degree {group.degree} vs {graph.vertex_count} vertices"
        )
    for g in group.generators:
        if not graph.is_automorphism(g):
            raise GraphError(
                f"generator {g} does not preserve adjacency"
            )
    return PairInstance(
        graph=graph,
        group=group,
        vertex_transitive=group.is_transitive(),
    )


_CATALOG = {
    "k4": lambda: complete_graph(4),
    "k33": lambda: complete_bipartite_graph(3, 3),
    "petersen": lambda: graph_from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
    "heawood": lambda: lcf_graph([5, -5], 7),
    "tutte-coxeter": lambda: lcf_graph([-13, -9, 7, -7, 9, 13], 5),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


@lru_cache(maxsize=None)
def catalog_graph(name: str) -> PairInstance:
    """A named cubic arc-transitive graph with its full automorphism group."""
    if name not in _CATALOG:
        raise ConstructionError(
            f"unknown catalog graph {name!r}; available: {', '.join(catalog_names())}"
        )
    graph = _CATALOG[name]()
    return pair_instance(graph, graph_automorphisms(graph))


# -- balls and stabilizers ---------------------------------------------------


def ball(graph: Graph, x: int, radius: int) -> tuple[int, ...]:
    dist = graph.distances(x)
    return tuple(v for v in range(graph.vertex_count) if dist[v] <= radius)


def _check_vertex(graph: Graph, x: int) -> None:
    if not 0 <= x < graph.vertex_count:
        raise GraphError(f"vertex {x} out of range")


def ball_stabilizer(inst: PairInstance, x: int, radius: int) -> PermGroup:
    """Pointwise stabilizer of every vertex within the given distance of x."""
    _check_vertex(inst.graph, x)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return inst.group.pointwise_stabilizer(ball(inst.graph, x, radius))


def ball_stabilizer_pair(
    inst: PairInstance, x: int, y: int, radius: int
) -> PermGroup:
    """Pointwise stabilizer of the union of the two balls around an edge."""
    _check_vertex(inst.graph, x)
    _check_vertex(inst.graph, y)
    if not inst.graph.has_edge(x, y):
        raise GraphError(f"{{{x},{y}}} is not an edge")
    points = sorted(set(ball(inst.graph, x, radius)) | set(ball(inst.graph, y, radius)))
    return inst.group.pointwise_stabilizer(points)


def stabilizer_series(inst: PairInstance, x: int, r_max: int) -> list[int]:
    return [ball_stabilizer(inst, x, r).order() for r in range(r_max + 1)]


def stabilizer_series_pair(
    inst: PairInstance, x: int, y: int, r_max: int
) -> list[int]:
    return [
        ball_stabilizer_pair(inst, x, y, r).order() for r in range(r_max + 1)
    ]


def local_action(inst: PairInstance, x: int) -> ActionHom:
    """Restriction of the vertex stabilizer to the neighbor set.

    The kernel of the returned homomorphism is the radius-1 ball stabilizer
    (every vertex-stabilizer element fixing each neighbor)."""
    from .actions import induced_action

    _check_vertex(inst.graph, x)
    stab = inst.group.stabilizer(x)
    return induced_action(stab, list(inst.graph.neighbors(x)))


# -- coset graphs -------------------------------------------------------------


def coset_graph(
    group: PermGroup, vertex_sub: PermGroup, edge_sub: PermGroup
) -> PairInstance:
    """The graph on right cosets of the vertex subgroup.

    Two vertex-cosets are adjacent when some right coset of the edge
    subgroup meets both.  Requires |edge : vertex ∩ edge| = 2 (each edge
    coset meets exactly two vertex cosets) and ⟨vertex, edge⟩ = group
    (connectivity).  Degenerate incidence (distinct edge cosets joining
    the same vertex pair) is refused.
    """
    if not vertex_sub.is_subgroup_of(group):
        raise ConstructionError("vertex subgroup not inside the group")
    if not edge_sub.is_subgroup_of(group):
        raise ConstructionError("edge subgroup not inside the group")
    shared = intersection(vertex_sub, edge_sub)
    if shared.order() * 2 != edge_sub.order():
        raise ConstructionError(
            "edge subgroup must meet the vertex subgroup in index 2, got "
            f"index {edge_sub.order() / shared.order():g}"
        )
    if vertex_sub.join(edge_sub).order() != group.order():
        raise ConstructionError(
            "vertex and edge subgroups must generate the whole group"
        )
    action = group.coset_action(vertex_sub)
    flip = next(
        g for g in edge_sub.generators if g not in vertex_sub
    )
    base_edge = (0, action.apply(flip)[0])
    assert base_edge[1] != 0
    edges = {base_edge}
    queue = [base_edge]
    gen_images = [h.images for h in action.generator_images]
    while queue:
        u, v = queue.pop()
        for img in gen_images:
            e = (min(img[u], img[v]), max(img[u], img[v]))
            if e not in edges:
                edges.add(e)
                queue.append(e)
    graph = graph_from_edges(action.target_degree, sorted(edges))
    valency = vertex_sub.order() // shared.order()
    if graph.degree(0) != valency:
        raise ConstructionError(
            f"degenerate incidence: valency {graph.degree(0)} != "
            f"|vertex : vertex ∩ edge| = {valency}"
        )
    return pair_instance(graph, action.image_group())


# -- local certification -------------------------------------------------------


def is_locally(
    inst: PairInstance, local_group: PermGroup
) -> tuple[bool, tuple[int, ...] | None]:
    """Is the pair locally the given group?

    True when the instance is vertex-transitive and the vertex stabilizer's
    action on the neighbors of a base vertex is permutationally isomorphic
    to the given group; the witnessing point bijection is returned.  By
    vertex-transitivity the base vertex 0 decides for every vertex.
    """
    from .actions import permutation_isomorphism

    valency = inst.graph.degree(0)
    if local_group.degree != valency:
        raise DegreeMismatchError(
            f"local group degree {local_group.degree} vs valency {valency}"
        )
    if not inst.vertex_transitive:
        return False, None
    image = local_action(inst, 0).image_group()
    witness = permutation_isomorphism(image, local_group)
    return (witness is not None), witness
