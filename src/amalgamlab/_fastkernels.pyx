# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled permutation kernels.

Same contract as _purekernels: image tuples over 0..n-1, left-to-right
composition (p * q)(x) = q(p(x)).
"""
from math import gcd

BACKEND = "c"


def compose(tuple p, tuple q):
    cdef Py_ssize_t n = len(p)
    cdef Py_ssize_t i
    cdef list out = [0] * n
    for i in range(n):
        out[i] = q[<Py_ssize_t> p[i]]
    return tuple(out)


def inverse(tuple p):
    cdef Py_ssize_t n = len(p)
    cdef Py_ssize_t i
    cdef list out = [0] * n
    for i in range(n):
        out[<Py_ssize_t> p[i]] = i
    return tuple(out)


def conjugate(tuple p, tuple g):
    cdef Py_ssize_t n = len(p)
    cdef Py_ssize_t i
    cdef list out = [0] * n
    for i in range(n):
        out[<Py_ssize_t> g[i]] = g[<Py_ssize_t> p[i]]
    return tuple(out)


def power(tuple p, n):
    cdef Py_ssize_t deg = len(p)
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


def perm_order(tuple p):
    cdef Py_ssize_t n = len(p)
    cdef Py_ssize_t start, x, length
    cdef list seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start] or <Py_ssize_t> p[start] == start:
            seen[start] = True
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = <Py_ssize_t> p[x]
            length += 1
        order = order * length // gcd(order, length)
    return order


def orbit_transversal(list gens, Py_ssize_t base, Py_ssize_t degree):
    ident = tuple(range(degree))
    cdef list orbit = [base]
    cdef dict transversal = {base: ident}
    cdef Py_ssize_t head = 0
    cdef Py_ssize_t point, image
    cdef tuple g, u
    while head < len(orbit):
        point = <Py_ssize_t> orbit[head]
        head += 1
        u = transversal[point]
        for g in gens:
            image = <Py_ssize_t> g[point]
            if image not in transversal:
                transversal[image] = compose(u, g)
                orbit.append(image)
    return orbit, transversal
