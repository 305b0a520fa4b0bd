"""The two-coordinate action of Sym(n) and its stabilizer approximations."""

import random
from math import factorial

import pytest

from amalgamlab.errors import ConstructionError
from amalgamlab.group import symmetric_group
from amalgamlab.pairs import OrderedPairsAction, build_ordered_pairs, verify_approximation

from conftest import compose_images, random_perm


def test_degree_and_order():
    for n in range(3, 8):
        action = build_ordered_pairs(n)
        assert action.n == n
        assert action.degree == n * (n - 1)
        assert action.group.degree == n * (n - 1)
        assert action.group.order() == factorial(n)
        assert action.group.is_transitive()


def test_rejects_tiny_n():
    with pytest.raises(ConstructionError):
        build_ordered_pairs(1)


def test_pair_labeling_is_lexicographic_bijection():
    action = build_ordered_pairs(5)
    pairs = [(a, b) for a in range(5) for b in range(5) if a != b]
    assert action.degree == len(pairs) == 20
    for i, pair in enumerate(pairs):
        assert action.pair_index(*pair) == i
        assert action.index_pair(i) == pair
    with pytest.raises(ValueError):
        action.pair_index(2, 2)


def test_embed_is_a_homomorphism():
    rng = random.Random(127)
    action = build_ordered_pairs(5)
    for _ in range(25):
        a = random_perm(rng, 5)
        b = random_perm(rng, 5)
        assert (
            action.embed(a * b).images
            == (action.embed(a) * action.embed(b)).images
        )
        ea = action.embed(a)
        for i in range(action.degree):
            x, y = action.index_pair(i)
            assert action.index_pair(ea[i]) == (a[x], a[y])


def test_embed_group_is_faithful_copy():
    action = build_ordered_pairs(4)
    embedded = action.embed_group(symmetric_group(4))
    assert embedded.order() == 24
    assert embedded.degree == 12
    assert not embedded.is_trivial()
    # Only the identity of Sym(4) acts trivially on ordered pairs.
    for g in symmetric_group(4).elements():
        if action.embed(g).is_identity():
            assert g.is_identity()


def test_approximation_reports_pass_for_lemma_range():
    for n in range(4, 9):
        report = verify_approximation(n)
        assert report.overall == "pass", report.to_json()
        assert report.exit_code == 0
        anchors = {c.paper_anchor for c in report.checks}
        for i in (1, 2, 3, 4):
            assert f"approximation-item-{i}" in anchors


def test_approximation_furthermore_active_primes():
    # Nontrivial p-radical exists exactly for n = 4, 5, 6 with p = 2, 3, 2,
    # and the two p-residual joins generate a transitive group of the
    # stated order inside {Alt(n), Sym(n)}.
    expected = {4: (2, 12), 5: (3, 120), 6: (2, 360)}
    for n, (p, join_order) in expected.items():
        report = verify_approximation(n)
        farthermore = [
            c
            for c in report.checks
            if c.paper_anchor == "approximation-furthermore"
        ]
        assert farthermore, report.to_json()
        assert all(c.status == "pass" for c in farthermore)
        details = {}
        for c in farthermore:
            details.update(c.details)
        assert details.get("prime") == p
        assert details.get("join_order") == join_order


def test_approximation_furthermore_vacuous_above_six():
    for n in (7, 8):
        report = verify_approximation(n)
        farthermore = [
            c
            for c in report.checks
            if c.paper_anchor == "approximation-furthermore"
        ]
        assert farthermore
        assert all(c.status == "vacuous" for c in farthermore)
        assert report.overall == "pass"


def test_approximation_rejects_small_n():
    with pytest.raises(ConstructionError):
        verify_approximation(3)
