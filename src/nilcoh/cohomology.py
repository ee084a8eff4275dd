"""First and second cohomology with trivial coefficients Z^r.

For a valid presentation with layers L_1 = Z^n and L_2 = Z^m, the
commutator map c: wedge^2 L_1 -> L_2 determines everything:

    H^1(G, Z^r) = Z^{r n},
    H^2(G, Z^r) = Coker(c^*) (+) Hom((L_1 (x) L_2) / S, Z^r),

where c^* dualises c on Hom(-, Z^r) and S <= L_1 (x) L_2 is spanned by
the Jacobi elements

    x_i (x) c(x_j ^ x_k) - x_j (x) c(x_i ^ x_k) + x_k (x) c(x_i ^ x_j).

As an independent cross-check, the same group is the degree-2 cohomology
of the dual of the finite complex

    wedge^3 L_1 --A--> (L_1 (x) L_2) (+) wedge^2 L_1 --B--> L_1 (+) L_2,

with A the Jacobi map into the tensor block and B the commutator map out
of the wedge block. That route builds the two dual maps d^1 = B^T and
d^2 = A^T row by row, and ``subquotient_invariants`` checks
d^2 d^1 = (B A)^T = 0 on every call. Both routes are computed exactly and
compared.

The coefficients are trivial, so H^2(G, Z^r) = H^2(G, Z)^r. Both routes
apply r by that one rule: they compute at r = 1 and repeat the group r
times.

Basis orderings are fixed here once and shared by every matrix and every
cocycle coordinate in the package: pairs (i < j) and triples (i < j < k)
lexicographic, tensor basis x_t (x) y_l row-major in (t, l).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exactlinalg import (AbelianGroupInvariants, IntMatrix, rank,
                          subquotient_invariants, quotient_invariants)
from .grouplaw import InvalidPresentationError, bracket_matrix, validate


def ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def pair_index(n, i, j):
    if not (0 <= i < j < n):
        raise IndexError("pair (%d, %d) out of range" % (i, j))
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def ordered_triples(n):
    return [(i, j, k) for i in range(n)
            for j in range(i + 1, n) for k in range(j + 1, n)]


def tensor_index(n, m, t, l):
    if not (0 <= t < n and 0 <= l < m):
        raise IndexError("tensor index (%d, %d) out of range" % (t, l))
    return t * m + l


def require_valid(P):
    report = validate(P)
    if not report.ok:
        raise InvalidPresentationError(report)


def _jacobi_transpose(P):
    """S^T: per triple, one row holding its Jacobi element in the tensor basis."""
    n, m = P.n, P.m
    rows = []
    for (i, j, k) in ordered_triples(n):
        row = [0] * (n * m)
        for t, p, q, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
            vec = P.bracket.get((p, q), (0,) * m)
            for l in range(m):
                if vec[l]:
                    row[tensor_index(n, m, t, l)] += sign * vec[l]
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=n * m)


def jacobi_s_matrix(P):
    """The (n m) x C(n,3) matrix whose columns span S inside L_1 (x) L_2."""
    return _jacobi_transpose(P).transpose()


@dataclass(frozen=True)
class H2Report:
    """H^2 with its summands, plus the independent complex-path value.

    hom_part_rank is the rank of Hom((L_1 (x) L_2)/S, Z^r) and ker_c_rank
    is C(n,2) - rank(c); both feed the equivalent free-rank form
    Z^{r ker_c_rank} (+) Z^{hom_part_rank} (+) ext_part.
    """

    total: AbelianGroupInvariants
    coker_cstar: AbelianGroupInvariants
    hom_part_rank: int
    ker_c_rank: int
    ext_part: AbelianGroupInvariants
    crosscheck: AbelianGroupInvariants
    agree: bool

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
    has the invariant factors of C.
    """
    require_valid(P)
    if r < 0:
        raise ValueError("coefficient rank must be nonnegative")
    C = bracket_matrix(P)
    ext_part = quotient_invariants(P.m, C)
    ker_c_rank = C.cols - P.m
    coker_cstar = AbelianGroupInvariants(ker_c_rank, ext_part.torsion)
    hom_part_rank = P.n * P.m - rank(_jacobi_transpose(P))
    total = AbelianGroupInvariants(ker_c_rank + hom_part_rank, ext_part.torsion)

    crosscheck = h2_via_complex(P, 1)
    return H2Report(total=total.repeat(r), coker_cstar=coker_cstar.repeat(r),
                    hom_part_rank=r * hom_part_rank, ker_c_rank=ker_c_rank,
                    ext_part=ext_part.repeat(r), crosscheck=crosscheck.repeat(r),
                    agree=crosscheck == total)


def h2_via_complex(P, r=1):
    """H^2(G, Z^r) = H^2(G, Z)^r by cohomology of the dualised complex.

    This path never looks at the closed-form decomposition: it builds the
    two coboundary maps d^1 = B^T and d^2 = A^T of the dual complex
    directly, takes invariants of ker d^2 / im d^1 (which checks
    d^2 d^1 = 0), and repeats the group r times.
    """
    require_valid(P)
    if r < 0:
        raise ValueError("coefficient rank must be nonnegative")
    n, m = P.n, P.m
    npairs = comb(n, 2)
    C = bracket_matrix(P)

    # d^1 = B^T: zero rows for the tensor block, then c(x_i ^ x_j) per pair
    d1 = IntMatrix.from_rows([(0,) * (n + m)] * (n * m)
                             + [(0,) * n + C.col(p) for p in range(npairs)],
                             cols=n + m)
    # d^2 = A^T: per triple, its Jacobi element, then zeros for the pairs
    St = _jacobi_transpose(P)
    d2 = St.hstack(IntMatrix.zeros(St.rows, npairs))
    return subquotient_invariants(d2, d1).repeat(r)


def second_homology_rank(P):
    """Free rank of the second integral homology.

    Equals ker_c_rank plus the rank of (L_1 (x) L_2)/S, i.e. the free
    rank of H^2(G, Z) by universal coefficients.
    """
    require_valid(P)
    return (comb(P.n, 2) - P.m) + (P.n * P.m - rank(_jacobi_transpose(P)))
