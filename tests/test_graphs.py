"""Graphs, automorphism groups, coset graphs and ball stabilizers.

Automorphism groups of every small graph here are checked against the
exhaustive backtracking oracle in conftest, which never touches the
coset-pruned search under test.
"""

import random

import pytest

from amalgamlab.cli import cli_dispatch
from amalgamlab.errors import (
    ConstructionError,
    DegreeMismatchError,
    FormatError,
    GraphError,
    GuardExceededError,
)
from amalgamlab.graphs import (
    Graph,
    ball,
    ball_stabilizer,
    ball_stabilizer_pair,
    catalog_graph,
    catalog_names,
    complete_bipartite_graph,
    complete_graph,
    coset_graph,
    graph_automorphisms,
    graph_from_edges,
    is_locally,
    lcf_graph,
    local_action,
    pair_instance,
    parse_graph,
    stabilizer_series,
    stabilizer_series_pair,
)
from amalgamlab.group import (
    PermGroup,
    alternating_group,
    generate_group,
    symmetric_group,
    trivial_group,
)
from amalgamlab.kernels import conjugate
from amalgamlab.perm import Permutation, parse_permutation

from conftest import (
    cycle_graph,
    element_set,
    format_graph,
    oracle_automorphisms,
    oracle_ball_series,
    random_perm,
)


def perm(text, degree=None):
    return parse_permutation(text, degree)


# -- construction and text format ---------------------------------------------


def test_complete_graph():
    g = complete_graph(4)
    assert g.vertex_count == 4
    assert len(g.edges()) == 6
    assert all(g.degree(v) == 3 for v in range(4))
    assert g.has_edge(0, 3) and not g.has_edge(2, 2)
    assert not g.has_edge(-1, 0) and not g.has_edge(4, 0)


def test_cycle_and_bipartite():
    c = cycle_graph(5)
    assert all(c.degree(v) == 2 for v in range(5))
    assert len(c.edges()) == 5
    b = complete_bipartite_graph(3, 3)
    assert b.vertex_count == 6
    assert len(b.edges()) == 9
    assert not b.has_edge(0, 1) and b.has_edge(0, 3)


def test_graph_from_edges_validation():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.degree(1) == 2
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 5)])
    with pytest.raises(GraphError):
        graph_from_edges(2, [(0, 1), (1, 0)])


def test_graph_rejects_malformed_adjacency():
    for adjacency, message in (
        (((1, 1), (0,)), "not sorted/unique"),
        (((0,),), "loop at vertex 0"),
        (((2,), (0,)), "vertex 2 out of range"),
        (((1,), ()), "edge 0-1 not symmetric"),
        (((1,), (0,), ()), "not connected"),
    ):
        with pytest.raises(GraphError, match=message):
            Graph(adjacency)


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges, so the graph is connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for e in rng.sample(possible, rng.randrange(0, len(possible) + 1)):
        edges.add(e)
    return graph_from_edges(n, sorted(edges))


def test_format_parse_roundtrip():
    rng = random.Random(131)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        h = parse_graph(format_graph(g))
        assert h.vertex_count == g.vertex_count
        assert sorted(h.edges()) == sorted(g.edges())


def test_parse_graph_rejects_garbage():
    with pytest.raises(FormatError):
        parse_graph("no header\n0 1\n")
    with pytest.raises(FormatError):
        parse_graph("2 1\n0\n")
    with pytest.raises(GraphError):
        parse_graph("2 1\n0 0\n")
    with pytest.raises(GraphError):
        parse_graph("4 1\n0 1\n")  # disconnected
    with pytest.raises(GraphError, match="not connected"):
        parse_graph("1000000000000 0")  # refused before any allocation


def test_distances_and_ball():
    g = cycle_graph(6)
    dist = g.distances(0)
    assert dist[3] == 3 and dist[1] == 1 and dist[0] == 0
    assert ball(g, 0, 1) == (0, 1, 5)
    assert ball(g, 0, 2) == (0, 1, 2, 4, 5)
    assert ball(g, 0, 0) == (0,)


def test_lcf_construction():
    heawood = lcf_graph([5, -5], 7)
    assert heawood.vertex_count == 14
    assert all(heawood.degree(v) == 3 for v in range(14))
    tc = lcf_graph([-13, -9, 7, -7, 9, 13], 5)
    assert tc.vertex_count == 30
    assert all(tc.degree(v) == 3 for v in range(30))
    with pytest.raises(GraphError):
        lcf_graph([0], 3)


def girth(graph):
    import collections

    best = None
    for s in range(graph.vertex_count):
        dist = {s: 0}
        parent = {s: None}
        queue = collections.deque([s])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def test_catalog_girths():
    assert girth(catalog_graph("k4").graph) == 3
    assert girth(catalog_graph("k33").graph) == 4
    assert girth(catalog_graph("petersen").graph) == 5
    assert girth(catalog_graph("heawood").graph) == 6
    assert girth(catalog_graph("tutte-coxeter").graph) == 8


# -- automorphism groups against the exhaustive oracle -------------------------


def test_automorphisms_match_oracle_on_small_graphs():
    graphs = [
        complete_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        complete_bipartite_graph(3, 3),
        complete_bipartite_graph(2, 3),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path
        graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # star
        catalog_graph("petersen").graph,
    ]
    for g in graphs:
        oracle = frozenset(oracle_automorphisms(g))
        computed = graph_automorphisms(g)
        assert element_set(computed) == oracle


def test_automorphisms_match_oracle_on_random_graphs():
    rng = random.Random(137)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(3, 9))
        assert element_set(graph_automorphisms(g)) == frozenset(
            oracle_automorphisms(g)
        )


@pytest.mark.parametrize("name", ["heawood", "tutte-coxeter"])
def test_automorphisms_of_relabelled_catalog_graphs(name):
    """A relabelling p conjugates the group: g -> p^-1 g p.

    The search keeps one leaf per coset, so no generator lies in the group
    generated by those before it.
    """
    inst = catalog_graph(name)
    n = inst.graph.vertex_count
    rng = random.Random(f"relabel {name}")
    for _ in range(5):
        p = Permutation(rng.sample(range(n), n))
        relabelled = graph_from_edges(
            n, [(p[u], p[v]) for u, v in inst.graph.edges()]
        )
        group = graph_automorphisms(relabelled)
        assert group.order() == inst.group.order()
        gens = group.generators
        assert all(g not in PermGroup(gens[:i], degree=n) for i, g in enumerate(gens))
        assert all(
            group.contains_images(conjugate(g.images, p.images))
            for g in inst.group.generators
        )
        assert all(
            inst.group.contains_images(conjugate(h.images, p.inverse().images))
            for h in group.generators
        )
        x = rng.randrange(n)
        orbits = inst.group.stabilizer(x).orbits()
        mapped = sorted(sorted(p[v] for v in orbit) for orbit in orbits)
        assert mapped == group.stabilizer(p[x]).orbits()


def test_automorphism_search_makes_no_membership_tests(monkeypatch):
    def refuse(self, img):
        raise AssertionError("membership test inside the automorphism search")

    graph = catalog_graph("tutte-coxeter").graph
    with monkeypatch.context() as patch:
        patch.setattr(PermGroup, "contains_images", refuse)
        group = graph_automorphisms(graph)
    assert group.order() == 1440


def test_automorphism_guard_on_vertex_count(capsys, tmp_path):
    cycle = cycle_graph(201)
    with pytest.raises(GuardExceededError) as info:
        graph_automorphisms(cycle)
    assert (info.value.guard, info.value.limit, info.value.needed) == (
        "autos_vertices", 200, 201
    )
    path = tmp_path / "c201.graph"
    path.write_text(format_graph(cycle))
    assert cli_dispatch(["graph", "autos", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: guard 'autos_vertices' exceeded")


def test_catalog_automorphism_orders():
    expected = {
        "k4": 24,
        "k33": 72,
        "petersen": 120,
        "heawood": 336,
        "tutte-coxeter": 1440,
    }
    assert set(catalog_names()) == set(expected)
    for name, order in expected.items():
        inst = catalog_graph(name)
        assert inst.group.order() == order
        assert inst.vertex_transitive
        assert all(inst.graph.degree(v) == 3 for v in range(inst.graph.vertex_count))


def test_catalog_groups_act_as_automorphisms():
    for name in catalog_names():
        inst = catalog_graph(name)
        for g in inst.group.generators:
            assert inst.graph.is_automorphism(g)


# -- pair instances ------------------------------------------------------------


def test_pair_instance_rejects_non_automorphisms():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        pair_instance(g, symmetric_group(4))
    with pytest.raises(DegreeMismatchError):
        pair_instance(g, symmetric_group(3))


def test_pair_instance_accepts_subgroups_of_autos():
    inst = catalog_graph("k4")
    sub = alternating_group(4)
    built = pair_instance(inst.graph, sub)
    assert built.group.order() == 12
    assert built.vertex_transitive


# -- ball stabilizers -----------------------------------------------------------


def test_stabilizer_series_frozen_values():
    expected = {
        "k4": [6, 1],
        "k33": [12, 2, 1],
        "petersen": [12, 2, 1],
        "heawood": [24, 4, 1],
        "tutte-coxeter": [48, 8, 2, 1],
    }
    for name, series in expected.items():
        inst = catalog_graph(name)
        assert stabilizer_series(inst, 0, len(series) - 1) == series


def test_ball_stabilizers_match_filter_oracle():
    for name in ("k4", "k33", "petersen", "heawood"):
        inst = catalog_graph(name)
        autos = list(inst.group.element_images())
        series = oracle_ball_series(inst.graph, autos, 0, 3)
        for r in range(4):
            assert ball_stabilizer(inst, 0, r).order() == series[r]


def test_vertex_transitivity_makes_series_vertex_independent():
    inst = catalog_graph("petersen")
    for x in range(inst.graph.vertex_count):
        assert stabilizer_series(inst, x, 2) == [12, 2, 1]


def test_pair_series_frozen_values():
    inst = catalog_graph("tutte-coxeter")
    y = inst.graph.neighbors(0)[0]
    assert stabilizer_series_pair(inst, 0, y, 3) == [16, 4, 1, 1]
    inst = catalog_graph("heawood")
    y = inst.graph.neighbors(0)[0]
    assert stabilizer_series_pair(inst, 0, y, 3) == [8, 2, 1, 1]


def test_pair_stabilizer_is_intersection():
    inst = catalog_graph("petersen")
    y = inst.graph.neighbors(0)[0]
    for r in (1, 2):
        left = ball_stabilizer(inst, 0, r)
        right = ball_stabilizer(inst, y, r)
        both = ball_stabilizer_pair(inst, 0, y, r)
        assert element_set(both) == element_set(left) & element_set(right)


# -- local action ---------------------------------------------------------------


def test_local_action_of_cubic_instances():
    for name in catalog_names():
        inst = catalog_graph(name)
        hom = local_action(inst, 0)
        assert hom.image_group().order() == 6  # Sym(3) on the neighbors
        assert hom.image_group().is_transitive()


def test_is_locally():
    s3 = symmetric_group(3)
    for name in catalog_names():
        inst = catalog_graph(name)
        ok, witness = is_locally(inst, s3)
        assert ok and witness is not None
    c3 = generate_group([perm("(0 1 2)")])
    ok, witness = is_locally(catalog_graph("k4"), c3)
    assert not ok and witness is None


# -- coset graphs ----------------------------------------------------------------


def test_coset_graph_reconstructs_k4():
    s4 = symmetric_group(4)
    vertex = s4.stabilizer(0)
    edge = s4.setwise_stabilizer((0, 1))
    inst = coset_graph(s4, vertex, edge)
    assert inst.graph.vertex_count == 4
    assert all(inst.graph.degree(v) == 3 for v in range(4))
    assert inst.group.order() == 24
    assert girth(inst.graph) == 3


def test_coset_graph_reconstructs_heawood():
    base = catalog_graph("heawood")
    g = base.group
    vertex = g.stabilizer(0)
    y = base.graph.neighbors(0)[0]
    inst = coset_graph(g, vertex, g.setwise_stabilizer((0, y)))
    assert inst.graph.vertex_count == 14
    assert all(inst.graph.degree(v) == 3 for v in range(14))
    assert girth(inst.graph) == 6
    assert stabilizer_series(inst, 0, 2) == [24, 4, 1]


def test_coset_graph_degenerate_inputs():
    s4 = symmetric_group(4)
    vertex = s4.stabilizer(0)
    with pytest.raises(ConstructionError):
        coset_graph(s4, vertex, vertex)  # index 1, no swap
    with pytest.raises(ConstructionError):
        coset_graph(s4, vertex, generate_group([perm("(0 1)", 4)]))
