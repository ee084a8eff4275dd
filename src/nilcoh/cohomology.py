"""First and second cohomology with trivial coefficients Z^r.

For a valid presentation with layers L_1 = Z^n and L_2 = Z^m, the
commutator map c: wedge^2 L_1 -> L_2 determines everything:

    H^1(G, Z^r) = Z^{r n},
    H^2(G, Z^r) = Coker(c^*) (+) Hom((L_1 (x) L_2) / S, Z^r),

where c^* dualises c on Hom(-, Z^r) and S <= L_1 (x) L_2 is spanned by
the Jacobi elements

    x_i (x) c(x_j ^ x_k) - x_j (x) c(x_i ^ x_k) + x_k (x) c(x_i ^ x_j).

As a cross-check, ``h2_via_complex`` computes the same group from the
Chevalley-Eilenberg complex of the Lie ring with basis x_1, ..., x_n
(weight 1), y_1, ..., y_m (weight 2, central), reading each [x_i, x_j]
off ``grouplaw.commutator``. Its free rank is that of H^2(G, Z) by Nomizu's
theorem (Ann. of Math. 59, 1954). The differentials preserve the weight:
the 2-forms of weight 2 (x ^ x) give Coker(c^*), with the torsion of
G^ab; weight 3 (x ^ y) gives the Hom part; weight 4 (y ^ y) gives 0.
The route reads no matrix the closed form builds; both rest on
``validate`` and on ``quotient_invariants``, ``rank`` and ``_smith``.

The coefficients are trivial, so H^2(G, Z^r) = H^2(G, Z)^r. Both routes
apply r by that one rule: they compute at r = 1 and repeat the group r
times.

Basis orderings are fixed here once and shared by every matrix and every
cocycle coordinate in the package: pairs (i < j) and triples (i < j < k)
in ``itertools.combinations`` order, which is lexicographic; tensor basis
x_t (x) y_l row-major in (t, l).
"""

from collections import defaultdict
from itertools import combinations
from math import comb

from .exactlinalg import (AbelianGroupInvariants, IntMatrix, _Value, _set,
                          rank, subquotient_invariants, quotient_invariants)
from .grouplaw import (GroupElement, InvalidPresentationError, bracket_matrix,
                       commutator, validate)


def tensor_index(n, m, t, l):
    if not (0 <= t < n and 0 <= l < m):
        raise IndexError("tensor index (%d, %d) out of range" % (t, l))
    return t * m + l


def require_valid(P):
    if P._report is None:
        _set(P, "_report", validate(P))
    if not P._report.ok:
        raise InvalidPresentationError(P._report)


def _jacobi_transpose(P):
    """S^T: per triple, one row holding its Jacobi element in the tensor basis."""
    n, m = P.n, P.m
    rows = [[(tensor_index(n, m, t, l), sign * x)
             for t, p, q, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1))
             for l, x in enumerate(P.bracket.get((p, q), ())) if x]
            for i, j, k in combinations(range(n), 3)]
    return IntMatrix._from_pairs(n * m, rows)


class H2Report(_Value):
    """H^2 with its summands, plus the complex-path value.

    hom_part_rank is the rank of Hom((L_1 (x) L_2)/S, Z^r) and ker_c_rank
    is C(n,2) - rank(c); both feed the equivalent free-rank form
    Z^{r ker_c_rank} (+) Z^{hom_part_rank} (+) ext_part.
    """

    __slots__ = ("total", "coker_cstar", "hom_part_rank", "ker_c_rank",
                 "ext_part", "crosscheck", "agree")

    def __init__(self, total, coker_cstar, hom_part_rank, ker_c_rank,
                 ext_part, crosscheck, agree):
        _set(self, "total", total)
        _set(self, "coker_cstar", coker_cstar)
        _set(self, "hom_part_rank", hom_part_rank)
        _set(self, "ker_c_rank", ker_c_rank)
        _set(self, "ext_part", ext_part)
        _set(self, "crosscheck", crosscheck)
        _set(self, "agree", agree)

    def to_json(self):
        return {
            "total": self.total.to_json(),
            "coker_cstar": self.coker_cstar.to_json(),
            "hom_part_rank": self.hom_part_rank,
            "ker_c_rank": self.ker_c_rank,
            "ext_part": self.ext_part.to_json(),
            "crosscheck": self.crosscheck.to_json(),
            "agree": self.agree,
        }


def h1(P, r=1):
    """H^1(G, Z^r) = Hom(L_1, Z^r), free of rank r n."""
    require_valid(P)
    if r < 0:
        raise ValueError("coefficient rank must be nonnegative")
    return AbelianGroupInvariants.free(r * P.n)


def h2(P, r=1):
    """H^2(G, Z^r) = H^2(G, Z)^r from the bracket and Jacobi matrices.

    Every summand and the complex-route cross-check are computed at r = 1;
    the report holds each group repeated r times. One elimination of C
    gives both C-summands: C has rank m on a valid presentation, and C^T
    has the invariant factors of C. The rank r is checked first; then the
    complex route runs and validates P for both routes.
    """
    if r < 0:
        require_valid(P)   # an invalid P is reported first, as h1 does
        raise ValueError("coefficient rank must be nonnegative")
    crosscheck = h2_via_complex(P, 1)
    ext_part = quotient_invariants(P.m, bracket_matrix(P))
    ker_c_rank, hom_part_rank = _free_ranks(P)
    coker_cstar = AbelianGroupInvariants(ker_c_rank, ext_part.torsion)
    total = AbelianGroupInvariants(ker_c_rank + hom_part_rank, ext_part.torsion)
    return H2Report(total=total.repeat(r), coker_cstar=coker_cstar.repeat(r),
                    hom_part_rank=r * hom_part_rank, ker_c_rank=ker_c_rank,
                    ext_part=ext_part.repeat(r), crosscheck=crosscheck.repeat(r),
                    agree=crosscheck == total)


def h2_via_complex(P, r=1):
    """H^2(G, Z^r) = H^2(G, Z)^r from the Chevalley-Eilenberg complex of the Lie ring.

    Sums ker d^2 / im d^1 over the 2-form weights 2, 3 and 4 (see the
    module docstring) and repeats the group r times.
    """
    require_valid(P)
    if r < 0:
        raise ValueError("coefficient rank must be nonnegative")
    n, m = P.n, P.m
    # the y's are central, so only a bracket of two x's can be nonzero
    units = [GroupElement(e, (0,) * m) for e in IntMatrix.identity(n).to_rows()]
    bracket = {(a, b): [(e, x) for e, x in enumerate(g.a + g.b) if x]
               for a, b in combinations(range(n), 2)
               for g in [commutator(P, units[a], units[b])]}

    def forms(k, w):
        # the k-forms e_s of weight w, s increasing: w - k of s are y's
        if not 0 <= w - k <= k:
            return []
        return [xs + ys for xs in combinations(range(n), 2 * k - w)
                for ys in combinations(range(n, n + m), w - k)]

    def d(k, w):
        # (d t)(s) = sum over p < q of (-1)^(p+q) t([s_p, s_q], rest of s)
        basis, rows = forms(k, w), forms(k + 1, w)
        # t(s_i, rest of s) = (-1)^i t(s): (s_i, rest) -> (column of s, (-1)^i)
        cols = {(s[i],) + s[:i] + s[i + 1:]: (j, (-1) ** i)
                for j, s in enumerate(basis) for i in range(k)}
        nonzeros = []
        for s in rows:
            row = defaultdict(int)
            for p, q in combinations(range(k + 1), 2):
                rest = s[:p] + s[p + 1:q] + s[q + 1:]
                for e, x in bracket.get((s[p], s[q]), ()):
                    if e not in rest:
                        j, t = cols[(e,) + rest]
                        row[j] += (-1) ** (p + q) * t * x
            nonzeros.append(row.items())
        return IntMatrix._from_pairs(len(basis), nonzeros)

    # a weight with no 2-forms adds 0; only weight 2 has 1-forms, so only
    # it carries torsion
    h = [subquotient_invariants(d(2, w), d(1, w)) for w in (2, 3, 4) if forms(2, w)]
    return AbelianGroupInvariants(sum(g.free_rank for g in h),
                                  sum((g.torsion for g in h), ())).repeat(r)


def second_homology_rank(P):
    """Free rank of the second integral homology.

    Equals ker_c_rank plus the rank of (L_1 (x) L_2)/S, i.e. the free
    rank of H^2(G, Z) by universal coefficients.
    """
    require_valid(P)
    return sum(_free_ranks(P))


def _free_ranks(P):
    """Ranks of ker c (c has rank m) and of the Hom part; b_2 is their sum."""
    return comb(P.n, 2) - P.m, P.n * P.m - rank(_jacobi_transpose(P))
