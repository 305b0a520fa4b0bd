"""The kernel contract, checked against naive definitions.

Degrees 0, 1 and 2 are included because a kernel that gathers with
`operator.itemgetter` needs its own path there.
"""

import random

from amalgamlab import kernels
from amalgamlab.perm import Permutation
from conftest import compose_images, conjugate_images, invert_images


def _perms():
    """Every permutation of degree 0, 1 and 2, then seeded random ones of
    degree up to 60."""
    perms = [(), (0,), (0, 1), (1, 0)]
    rng = random.Random(59)
    for _ in range(60):
        images = list(range(rng.randrange(3, 61)))
        rng.shuffle(images)
        perms.append(tuple(images))
    return perms


PERMS = _perms()


def _partner(p, salt):
    """A second permutation of p's degree."""
    images = list(p)
    random.Random(salt).shuffle(images)
    return tuple(images)


def naive_power(p, n):
    acc = tuple(range(len(p)))
    step = p if n >= 0 else invert_images(p)
    for _ in range(abs(n)):
        acc = compose_images(acc, step)
    return acc


def naive_orbit(gens, base):
    """Breadth-first orbit, generators tried in list order."""
    orbit = [base]
    for point in orbit:
        for g in gens:
            if g[point] not in orbit:
                orbit.append(g[point])
    return orbit


def test_backend_name():
    """Run records name the kernels by this constant."""
    assert kernels.BACKEND == "python"


def test_compose_inverse_conjugate():
    for i, p in enumerate(PERMS):
        q = _partner(p, i)
        for got, want in (
            (kernels.compose(p, q), compose_images(p, q)),
            (kernels.inverse(p), invert_images(p)),
            (kernels.conjugate(p, q), conjugate_images(p, q)),
        ):
            assert type(got) is tuple
            assert got == want


def test_power():
    for p in PERMS:
        for n in (-3, -1, 0, 1, 2, 5):
            got = kernels.power(p, n)
            assert type(got) is tuple
            assert got == naive_power(p, n)


def test_orbit_transversal():
    for i, p in enumerate(PERMS):
        degree = len(p)
        if not degree:
            continue
        gens = [p, _partner(p, i)] if i % 2 else [p]
        base = i % degree
        orbit, transversal = kernels.orbit_transversal(gens, base, degree)
        assert orbit == naive_orbit(gens, base)
        assert set(transversal) == set(orbit)
        assert transversal[base] == tuple(range(degree))
        for pos, point in enumerate(orbit):
            u = transversal[point]
            assert type(u) is tuple
            assert u[base] == point
            if pos:
                # A Schreier tree: u extends an earlier point's word by one
                # generator, so it lies in the group the generators make.
                assert any(
                    g[prev] == point
                    and u == compose_images(transversal[prev], g)
                    for prev in orbit[:pos]
                    for g in gens
                )


def test_cycle_type():
    for p in PERMS:
        lengths = [len(c) for c in Permutation(p).cycles()]
        fixed = sum(1 for i, x in enumerate(p) if i == x)
        got = kernels.cycle_type(p)
        assert type(got) is tuple
        assert got == tuple(sorted(lengths + [1] * fixed))
