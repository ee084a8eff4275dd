"""Degree-2 truncated group-ring coordinates.

For a class-2 group with layers of rank n and m, the quadratic layer of
the augmentation filtration is free abelian on p(x_i), p(x_i)p(x_j) for
i <= j, and p(y_j), where p(g) is the class of g - 1. Elements here
store coordinates in that basis. The key facts encoded below: p is
polynomial of degree 2 in the exponents, and the truncated product of
two degree-1 classes lands in the quadratic basis via the commutation
rule x_i x_j = x_j x_i + [x_i, x_j] modulo degree 3.
"""

from __future__ import annotations

from operator import index

from .exactlinalg import _Value, _set
from .grouplaw import _collect


def quad_pairs(n):
    """Basis order for the quadratic block: (i, j) with i <= j, lexicographic."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def quad_index(n, i, j):
    if not (0 <= i <= j < n):
        raise IndexError("quadratic index (%d, %d) out of range" % (i, j))
    return i * n - i * (i - 1) // 2 + (j - i)


def _binom2(a):
    # C(a, 2) as a polynomial, valid for negative a as well
    return a * (a - 1) // 2


class PassiElement(_Value):
    """Coordinates (lin_x, quad, lin_y) in the degree-2 basis."""

    __slots__ = ("lin_x", "quad", "lin_y")

    def __init__(self, lin_x, quad, lin_y):
        _set(self, "lin_x", tuple(map(index, lin_x)))
        _set(self, "quad", tuple(map(index, quad)))
        _set(self, "lin_y", tuple(map(index, lin_y)))

    def __add__(self, other):
        return PassiElement(
            tuple(x + y for x, y in zip(self.lin_x, other.lin_x)),
            tuple(x + y for x, y in zip(self.quad, other.quad)),
            tuple(x + y for x, y in zip(self.lin_y, other.lin_y)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PassiElement(tuple(-x for x in self.lin_x),
                            tuple(-x for x in self.quad),
                            tuple(-x for x in self.lin_y))

    def is_zero(self):
        return not (any(self.lin_x) or any(self.quad) or any(self.lin_y))


def zero(P):
    k = P.n * (P.n + 1) // 2
    return PassiElement((0,) * P.n, (0,) * k, (0,) * P.m)


def p2(P, g):
    """Degree-2 class of g - 1.

    Linear parts are the exponents themselves; the quadratic block is
    C(a_i, 2) on the diagonal and a_i a_j off it.
    """
    if len(g.a) != P.n or len(g.b) != P.m:
        raise ValueError("dimension mismatch between element and presentation")
    quad = [0] * (P.n * (P.n + 1) // 2)
    for i in range(P.n):
        ai = g.a[i]
        if ai:
            quad[quad_index(P.n, i, i)] = _binom2(ai)
            for j in range(i + 1, P.n):
                if g.a[j]:
                    quad[quad_index(P.n, i, j)] = ai * g.a[j]
    return PassiElement(g.a, tuple(quad), g.b)


def p2_mul(P, u, v):
    """Truncated product of two degree-2 elements.

    Only the degree-1 x-parts survive multiplication: everything of
    total degree >= 3 is truncated to zero. The product of x_i and x_j
    is the ordered quadratic monomial, plus the central correction
    -bracket(j, i) when the factors arrive out of order.
    """
    n = P.n
    quad = [0] * (n * (n + 1) // 2)
    for i in range(n):
        ui = u.lin_x[i]
        if not ui:
            continue
        for j in range(n):
            coef = ui * v.lin_x[j]
            if coef:
                quad[quad_index(n, i, j) if i <= j else quad_index(n, j, i)] += coef
    lin_y = tuple(-x for x in _collect(P, u.lin_x, v.lin_x))
    return PassiElement((0,) * n, tuple(quad), lin_y)
