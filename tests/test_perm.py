"""Permutation arithmetic and the two text formats."""

import random

import pytest

from amalgamlab.errors import DegreeMismatchError, FormatError, GuardExceededError
from amalgamlab.kernels import conjugate
from amalgamlab.perm import (
    Permutation,
    format_group_file,
    parse_group_file,
    parse_permutation,
)

from conftest import compose_images, invert_images, random_perm


def test_composition_reads_left_to_right():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    # (p * q)(0) applies p first: 0 -> 1 -> 2.
    assert (p * q)[0] == 2
    assert (q * p)[0] == 1


def test_identity_and_degree():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert e.degree == 5
    assert e.images == (0, 1, 2, 3, 4)
    assert e.order() == 1


def test_from_cycles_roundtrip():
    p = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert p.images == (1, 2, 0, 4, 3, 5)
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert list(p.moved_points()) == [0, 1, 2, 3, 4]


def test_from_cycles_rejects_overlap_and_range():
    with pytest.raises(FormatError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(FormatError):
        Permutation.from_cycles(3, [(0, 5)])
    with pytest.raises(FormatError):
        Permutation.from_cycles(4, [(0, 0)])


def test_constructor_validates_bijection():
    with pytest.raises(FormatError):
        Permutation((0, 0, 1))
    with pytest.raises(FormatError):
        Permutation((0, 2))


def test_inverse_and_order_match_oracle():
    rng = random.Random(7)
    for _ in range(60):
        degree = rng.randrange(1, 12)
        p = random_perm(rng, degree)
        assert p.inverse().images == invert_images(p.images)
        assert (p * p.inverse()).is_identity()
        # Order by repeated multiplication.
        t, k = p.images, 1
        ident = tuple(range(degree))
        while t != ident:
            t = compose_images(t, p.images)
            k += 1
        assert p.order() == k


def test_power_and_associativity():
    rng = random.Random(11)
    for _ in range(40):
        degree = rng.randrange(2, 10)
        p, q, r = (random_perm(rng, degree) for _ in range(3))
        assert ((p * q) * r).images == (p * (q * r)).images
        assert (p ** 3).images == (p * p * p).images
        assert (p ** 0).is_identity()
        assert (p ** -1).images == p.inverse().images


def test_conjugation_formula():
    rng = random.Random(13)
    for _ in range(40):
        degree = rng.randrange(2, 10)
        p = random_perm(rng, degree)
        g = random_perm(rng, degree)
        c = conjugate(p.images, g.images)
        # x^g maps g(a) to g(p(a)).
        for a in range(degree):
            assert c[g[a]] == g[p[a]]


def test_degree_mismatch_rejected():
    p = Permutation.identity(3)
    q = Permutation.identity(4)
    with pytest.raises(DegreeMismatchError):
        p * q


def test_parse_cycle_and_image_forms():
    assert parse_permutation("(0 1 2)(3 4)", 5).images == (1, 2, 0, 4, 3)
    assert parse_permutation("1,0,2").images == (1, 0, 2)
    assert parse_permutation("()", 3).is_identity()
    # Degree inferred from the largest point in cycle form.
    assert parse_permutation("(0 4)").degree == 5


def test_parse_rejects_garbage():
    for text in ["(0 1", "0,,1", "(0 1)(1 2)", "abc", "1,1"]:
        with pytest.raises(FormatError):
            parse_permutation(text)


def test_parse_respects_explicit_degree():
    p = parse_permutation("(0 1)", 6)
    assert p.degree == 6
    with pytest.raises(FormatError):
        parse_permutation("(0 9)", 4)


def test_image_csv_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        p = random_perm(rng, rng.randrange(1, 9))
        csv = ",".join(str(x) for x in p.images)
        assert parse_permutation(csv).images == p.images


def test_group_file_roundtrip():
    rng = random.Random(19)
    gens = [random_perm(rng, 7) for _ in range(3)]
    text = format_group_file(7, gens)
    degree, parsed = parse_group_file(text)
    assert degree == 7
    assert [g.images for g in parsed] == [g.images for g in gens]


def test_group_file_ignores_comments_and_blanks():
    text = "# header\ndegree 4\n\n(0 1)\n# tail\n(2 3)\n"
    degree, gens = parse_group_file(text)
    assert degree == 4
    assert len(gens) == 2


def test_group_file_rejects_bad_header():
    with pytest.raises(FormatError):
        parse_group_file("(0 1)\n")
    with pytest.raises(FormatError):
        parse_group_file("degree x\n(0 1)\n")
    with pytest.raises(FormatError, match="^line 2: degree must be at least 1$"):
        parse_group_file("# empty domain\ndegree 0\n")
    with pytest.raises(GuardExceededError) as info:
        parse_group_file("degree 1000000000000\n")
    assert (info.value.guard, info.value.needed) == ("degree", 10**12)
