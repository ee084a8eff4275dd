"""Stock presentations used by the command line, the tests, and the demos."""

import random
from math import comb
from operator import index

from .grouplaw import GroupPresentation, InvalidPresentationError, require_valid


def abelian(n):
    """Z^n: no central layer, nothing brackets."""
    return GroupPresentation(n=n, m=0, bracket={})


def divisor_chain_group(d):
    """Generators x_1..x_k, y_1..y_k and central z with [x_i, y_i] = z^{d_i}.

    The degree-1 layer is ordered x_1, ..., x_k, y_1, ..., y_k. With a
    divisor chain d_1 | d_2 | ... | d_k this family has
    H^2(G, Z) = Z^{C(2k,2)-1} (+) Z_{d_1} (torsion omitted when d_1 = 1).
    """
    d = tuple(map(index, d))
    if any(x < 1 for x in d):
        raise ValueError("chain entries must be positive")
    k = len(d)
    bracket = {(i, k + i): (d[i],) for i in range(k)}
    return GroupPresentation(n=2 * k, m=1, bracket=bracket)


def heisenberg():
    """The integral Heisenberg group: [x_1, x_2] = y_1."""
    return divisor_chain_group((1,))


def discrete_heisenberg(d):
    """[x_1, x_2] = y_1^d; H^2(G, Z) = Z^2 (+) Z_d."""
    return divisor_chain_group((d,))


def random_presentation(n, m, bound, seed):
    """Random brackets in [-bound, bound], redrawn until rank(c) = m.

    Deterministic in seed. Raises ValueError before any draw when
    m > C(n,2), since c then has rank at most C(n,2) < m, and when no
    valid draw shows up within 100 tries.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if m > comb(n, 2):
        raise ValueError("no presentation with n=%d, m=%d: rank(c) <= C(n,2) = %d < m"
                         % (n, m, comb(n, 2)))
    rng = random.Random(seed)
    for _ in range(100):
        bracket = {}
        for i in range(n):
            for j in range(i + 1, n):
                bracket[(i, j)] = tuple(rng.randint(-bound, bound)
                                        for _ in range(m))
        P = GroupPresentation(n=n, m=m, bracket=bracket)
        try:
            require_valid(P)   # fills the report the caller's first check reads
        except InvalidPresentationError:
            continue
        return P
    raise ValueError("no valid presentation with n=%d, m=%d found in 100 attempts"
                     % (n, m))
