"""Randomized property suites over groups of order at most 2000.

Each suite runs at least 200 seeded cases.  Draws that do not satisfy a
suite's applicability condition (say, no second prime divisor) are redrawn,
never silently counted.
"""

import random

import pytest

from amalgamlab.amalgams import amalgam_from_pair, core_sequence
from amalgamlab.graphs import (
    ball_stabilizer,
    ball_stabilizer_pair,
    catalog_graph,
    catalog_names,
)
from amalgamlab.group import commutator_subgroup, generate_group
from amalgamlab.structure import (
    normal_subgroups,
    o_upper_p,
    p_group_witness,
    sylow,
    thompson_subgroup,
)
from amalgamlab.verify import regular_base_instance

from conftest import (
    assert_same_group,
    element_set,
    oracle_kernel,
    prime_divisors,
    random_group,
    random_subgroup,
)

CASES = 200


def draw(rng, budget, condition_draw):
    """Redraw until the suite's applicability condition holds."""
    for _ in range(budget):
        value = condition_draw()
        if value is not None:
            return value
    raise AssertionError("could not draw an applicable case; pool too thin")


def test_orbit_stabilizer_equality():
    rng = random.Random(2024_01)
    for _ in range(CASES):
        g = random_group(rng)
        x = rng.randrange(g.degree)
        orbit, stab = g.orbit_and_stabilizer(x)
        assert len(orbit) * stab.order() == g.order()


def test_core_equals_coset_action_kernel():
    rng = random.Random(2024_02)
    for _ in range(CASES):
        g = random_group(rng)
        h = random_subgroup(rng, g)
        hom = g.coset_action(h)
        assert_same_group(g.core(h), hom.kernel)
        assert element_set(g.core(h)) == oracle_kernel(hom)


def test_p_radical_contains_every_normal_p_subgroup():
    rng = random.Random(2024_03)
    for _ in range(CASES):
        g = random_group(rng, max_order=400)
        from amalgamlab.structure import o_p

        for p in prime_divisors(g.order()):
            radical = o_p(g, p)
            for n in normal_subgroups(g):
                if p_group_witness(n, p).certificate:
                    assert n.is_subgroup_of(radical)


def test_thompson_subgroup_is_hereditary():
    rng = random.Random(2024_04)
    done = 0
    attempts = 0
    while done < CASES:
        attempts += 1
        assert attempts < CASES * 20
        g = random_group(rng)
        primes = prime_divisors(g.order())
        p = rng.choice(primes)
        x = sylow(g, p)
        if x.is_trivial():
            continue
        j = thompson_subgroup(x, p)
        extra = [rng.choice(list(x.elements())) for _ in range(rng.randrange(0, 3))]
        y = generate_group(list(j.generators) + extra, degree=x.degree)
        assert j.is_subgroup_of(y) and y.is_subgroup_of(x)
        assert_same_group(thompson_subgroup(y, p), j)
        done += 1


def test_coprime_action_identities():
    # For R acting on a p-group X: a q-subgroup S with q != p satisfies
    # [X, S] = [X, S, S], and [X, O^p(R), O^p(R)] = [X, O^p(R)].
    rng = random.Random(2024_05)
    done = 0
    attempts = 0
    while done < CASES:
        attempts += 1
        assert attempts < CASES * 30
        g = random_group(rng)
        primes = prime_divisors(g.order())
        if len(primes) < 2:
            continue
        p = rng.choice(primes)
        x = sylow(g, p)
        if x.is_trivial():
            continue
        r = g.normalizer(x)
        r_primes = [q for q in prime_divisors(r.order()) if q != p]
        if not r_primes:
            continue
        s = sylow(r, rng.choice(r_primes))
        first = commutator_subgroup(x, s)
        second = commutator_subgroup(first, s)
        assert_same_group(first, second)

        residual = o_upper_p(r, p)
        first = commutator_subgroup(x, residual)
        second = commutator_subgroup(first, residual)
        assert_same_group(first, second)
        done += 1


def test_ball_stabilizer_nesting():
    rng = random.Random(2024_06)
    pool = [catalog_graph(name) for name in catalog_names()]
    pool.append(regular_base_instance())
    for _ in range(CASES):
        inst = rng.choice(pool)
        x = rng.randrange(inst.graph.vertex_count)
        r = rng.randrange(0, 3)
        outer = ball_stabilizer(inst, x, r)
        inner = ball_stabilizer(inst, x, r + 1)
        assert inner.is_subgroup_of(outer)
        y = rng.choice(inst.graph.neighbors(x))
        pair_inner = ball_stabilizer_pair(inst, x, y, r + 1)
        pair_outer = ball_stabilizer_pair(inst, x, y, max(r, 1))
        if r >= 1:
            assert pair_inner.is_subgroup_of(pair_outer)
        assert pair_inner.is_subgroup_of(inner)


def test_amalgam_cores_equal_ball_stabilizer_orders():
    rng = random.Random(2024_07)
    pool = []
    for name in catalog_names():
        inst = catalog_graph(name)
        for x, y in inst.graph.edges():
            pool.append((inst, x, y))
            pool.append((inst, y, x))
    rng.shuffle(pool)
    cases = (pool * ((CASES // len(pool)) + 1))[:CASES] if len(pool) < CASES else pool[:CASES]
    assert len(cases) >= CASES
    for inst, x, y in cases:
        am = amalgam_from_pair(inst, x, y)
        vertex_cores, edge_cores = core_sequence(am, 3)
        for i in range(3):
            assert (
                vertex_cores[i].order()
                == ball_stabilizer(inst, x, i + 1).order()
            )
            assert (
                edge_cores[i].order()
                == ball_stabilizer_pair(inst, x, y, i + 1).order()
            )
