"""Pure-Python permutation kernels, re-exported by `amalgamlab.kernels`.

Permutations are image tuples over 0..n-1 and compose left to right:
(p * q)(x) = q(p(x)).

`compose` is a gather, q[p[0]], q[p[1]], ..., done by `operator.itemgetter`
at C speed, so every routine built on it (chain sifts, element walks,
orbit transversals, powers) runs without a Python-level loop per point.
"""
from math import gcd
from operator import itemgetter


def compose(p, q):
    """Image tuple of p followed by q: the gather of q at the points of p.

    For degree 0 or 1 the gather is written out, because `itemgetter`
    raises for no item and returns a bare item, not a tuple, for one.
    """
    if len(p) < 2:
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(p, g):
    """Image tuple of g^-1 * p * g, computed in one pass."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[g[i]] = g[x]
    return tuple(out)


def power(p, n):
    deg = len(p)
    ident = tuple(range(deg))
    if n == 0:
        return ident
    if n < 0:
        p = inverse(p)
        n = -n
    acc = ident
    base = p
    while n:
        if n & 1:
            acc = compose(acc, base)
        n >>= 1
        if n:
            base = compose(base, base)
    return acc


def cycle_type(p):
    """Cycle lengths of p in increasing order, fixed points as 1s.

    Two permutations are conjugate in the full symmetric group exactly when
    their cycle types agree."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = True
        x = p[start]
        length = 1
        while x != start:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def perm_order(p):
    """Least k >= 1 with p^k = identity (lcm of cycle lengths)."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = order * length // gcd(order, length)
    return order


def orbit_transversal(gens, base, degree):
    """Breadth-first orbit of a point with coset representatives.

    Returns (orbit, transversal) where orbit lists points in discovery
    order and transversal[point] is an image tuple u with u(base) = point.
    Generators are applied in list order, so the result is deterministic.
    """
    ident = tuple(range(degree))
    orbit = [base]
    transversal = {base: ident}
    head = 0
    while head < len(orbit):
        point = orbit[head]
        head += 1
        u = transversal[point]
        for g in gens:
            image = g[point]
            if image not in transversal:
                transversal[image] = compose(u, g)
                orbit.append(image)
    return orbit, transversal
