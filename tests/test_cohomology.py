"""First and second cohomology, computed two independent ways."""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from math import comb

from nilcoh import (acceptance, cocycles, cohomology, exactlinalg, families,
                    grouplaw)
from nilcoh.exactlinalg import (_solve_many, AbelianGroupInvariants, IntMatrix,
                                kernel_basis, quotient_invariants,
                                subquotient_invariants)
from nilcoh.grouplaw import GroupPresentation, InvalidPresentationError
from nilcoh.cohomology import (
    _jacobi_transpose,
    bracket_matrix,
    h1,
    h2,
    h2_via_complex,
    second_homology_rank,
)

Z = AbelianGroupInvariants


def free_class_two(n):
    """F(n), the free class-2 group: m = C(n,2) and [x_i, x_j] = y_ij."""
    pairs = list(combinations(range(n), 2))
    return GroupPresentation(n, len(pairs), {
        pair: tuple(int(l == t) for l in range(len(pairs)))
        for t, pair in enumerate(pairs)})


def random_presentations():
    """Small valid presentations drawn deterministically from a seed."""
    return st.builds(
        lambda n, mseed, seed: families.random_presentation(
            n, mseed % (comb(n, 2) + 1), 5, seed
        ),
        st.integers(2, 5),
        st.integers(0, 3),
        st.integers(0, 10**6),
    )


class TestBracketMatrix:
    def test_heisenberg(self):
        c = bracket_matrix(families.heisenberg())
        assert (c.rows, c.cols) == (1, 1)
        assert c.row(0)[0] == 1

    def test_abelian_has_zero_rows(self):
        c = bracket_matrix(families.abelian(3))
        assert (c.rows, c.cols) == (0, 3)

    def test_divisor_chain(self):
        # generators x1, x2, y1, y2; [x_i, y_i] = z^{d_i}
        c = bracket_matrix(families.divisor_chain_group((2, 4)))
        assert (c.rows, c.cols) == (1, 6)
        assert c.to_rows() == [[0, 2, 0, 0, 4, 0]]
        pairs = list(combinations(range(4), 2))
        assert c.row(0)[pairs.index((0, 2))] == 2
        assert c.row(0)[pairs.index((1, 3))] == 4


class TestJacobiSMatrix:
    def test_heisenberg_is_empty(self):
        s = _jacobi_transpose(families.heisenberg()).transpose()
        assert (s.rows, s.cols) == (2, 0)

    def test_divisor_chain_column(self):
        # triple (x1, x2, y1): only x2 (x) c(y1 ^ x1) = -2 z survives
        P = families.divisor_chain_group((2, 4))
        s = _jacobi_transpose(P).transpose()
        assert (s.rows, s.cols) == (4, 4)
        col = s.transpose().row(list(combinations(range(4), 3)).index((0, 1, 2)))
        expected = [0] * 4
        expected[1 * 1 + 0] = -2   # x_t (x) y_l at t * m + l
        assert list(col) == expected

    def test_zero_brackets_give_zero_matrix(self):
        s = _jacobi_transpose(families.abelian(4)).transpose()
        assert s.is_zero()
        assert (s.rows, s.cols) == (0, 4)

    @pytest.mark.parametrize("n", range(5))
    def test_no_tensor_basis_gives_empty_rows(self, n):
        # n * m = 0: L_1 (x) L_2 = 0, so each of the C(n,3) triples has an
        # empty row
        s_t = _jacobi_transpose(families.abelian(n))
        assert s_t == IntMatrix(comb(n, 3), 0)
        assert s_t.to_rows() == [[]] * comb(n, 3)


class TestH1:
    def test_heisenberg(self):
        assert h1(families.heisenberg(), 1) == Z(2)

    def test_abelian(self):
        assert h1(families.abelian(3), 1) == Z(3)
        assert h1(families.abelian(3), 2) == Z(6)

    def test_rank_zero_coefficients(self):
        assert h1(families.heisenberg(), 0) == Z(0)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidPresentationError):
            h1(GroupPresentation(n=1, m=1), 1)

    def test_negative_rank_is_refused(self):
        with pytest.raises(ValueError, match="coefficient rank must be nonnegative"):
            h1(families.heisenberg(), -1)
        with pytest.raises(InvalidPresentationError):   # reported first
            h1(GroupPresentation(n=1, m=1), -1)


class TestH2:
    def test_divisor_chain(self):
        rep = h2(families.divisor_chain_group((2, 4)), 1)
        assert rep.total == AbelianGroupInvariants(5, (2,))
        assert rep.ker_c_rank == 5
        assert rep.hom_part_rank == 0
        assert rep.ext_part == AbelianGroupInvariants(0, (2,))
        assert rep.agree

    def test_heisenberg(self):
        rep = h2(families.heisenberg(), 1)
        assert rep.total == Z(2)
        assert rep.ker_c_rank == 0
        assert rep.hom_part_rank == 2
        assert rep.ext_part == Z(0)
        assert rep.agree

    def test_abelian(self):
        assert h2(families.abelian(3), 1).total == Z(3)

    def test_discrete_heisenberg_torsion(self):
        for d in (2, 3, 5, 12):
            rep = h2(families.discrete_heisenberg(d), 1)
            assert rep.total == AbelianGroupInvariants(2, (d,))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_free_class_two_group(self, n):
        # Sigg, J. Algebra 185 (1996): b_2 of the free 2-step nilpotent Lie
        # algebra on n generators is (n^3 - n) / 3, and H^2 has no torsion
        rep = h2(free_class_two(n), 1)
        assert rep.total == Z((n ** 3 - n) // 3)
        assert rep.agree

    def test_report_json_schema(self):
        doc = h2(families.divisor_chain_group((2, 4)), 1).to_json()
        assert set(doc) == {"total", "coker_cstar", "hom_part_rank",
                            "ker_c_rank", "ext_part", "crosscheck", "agree"}
        assert doc["total"] == {"free": 5, "torsion": [2]}
        assert doc["agree"] is True

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_validates_once(self, monkeypatch, r):
        # one validation serves the closed form and the complex route
        calls = []
        real = grouplaw.validate

        def counted(P):
            calls.append(P)
            return real(P)

        monkeypatch.setattr(grouplaw, "validate", counted)
        h2(families.divisor_chain_group((2, 4)), r)
        assert len(calls) == 1

    def test_invalid_input_is_reported_before_a_negative_rank(self):
        with pytest.raises(InvalidPresentationError):
            h2(GroupPresentation(n=1, m=1), -1)
        with pytest.raises(ValueError, match="coefficient rank"):
            h2(families.heisenberg(), -1)

    def test_negative_rank_is_refused_before_computing(self, monkeypatch):
        def fail(P):
            raise AssertionError("the complex route ran")

        monkeypatch.setattr(cohomology, "h2_via_complex", fail)
        with pytest.raises(ValueError, match="coefficient rank"):
            h2(families.heisenberg(), -1)


class TestH2ViaComplex:
    def test_heisenberg(self):
        assert h2_via_complex(families.heisenberg()) == Z(2)

    def test_abelian_rank_two(self):
        assert h2_via_complex(families.abelian(2)) == Z(1)

    def test_divisor_chain_matches_closed_form(self):
        P = families.divisor_chain_group((2, 4))
        got = h2_via_complex(P)
        assert got == AbelianGroupInvariants(5, (2,))
        assert got == h2(P, 1).total


def kron_identity(M, r):
    """M (x) I_r: each entry e of M becomes the r x r block e * I_r."""
    out = []
    for row in M.to_rows():
        for s in range(r):
            out.append([e if s == t else 0 for e in row for t in range(r)])
    return IntMatrix.from_rows(out, cols=M.cols * r)


def complex_maps(P):
    """The boundary maps A, B of the finite complex

        wedge^3 L_1 --A--> (L_1 (x) L_2) (+) wedge^2 L_1 --B--> L_1 (+) L_2,

    A the Jacobi map into the tensor block and B the commutator map out of
    the wedge block; H^2(G, Z) is the degree-2 cohomology of its dual.
    """
    n, m, npairs = P.n, P.m, comb(P.n, 2)
    S, C = _jacobi_transpose(P).transpose(), bracket_matrix(P)
    A = IntMatrix.from_rows(S.to_rows() + [[0] * S.cols] * npairs, cols=S.cols)
    B = IntMatrix.from_rows([[0] * (n * m + npairs)] * n
                            + [[0] * (n * m) + row for row in C.to_rows()],
                            cols=n * m + npairs)
    return A, B


def kronecker_complex_h2(P, r):
    """H^2(G, Z^r) from the complex with each boundary map tensored with I_r.

    An independent check of the coefficient-rank rule: nothing here repeats
    a group r times, the matrices themselves are r times larger.
    """
    A, B = complex_maps(P)
    return subquotient_invariants(kron_identity(A.transpose(), r),
                                  kron_identity(B.transpose(), r))


class TestKroneckerOracle:
    def test_kron_identity(self):
        M = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert kron_identity(M, 2).to_rows() == [
            [1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]]
        assert kron_identity(M, 0).entries == ()

    @pytest.mark.parametrize("r", [0, 2, 3])
    @pytest.mark.parametrize("P", [
        families.divisor_chain_group((2, 4)),
        families.divisor_chain_group((3, 3, 6)),
        families.random_presentation(3, 2, 5, 1),
        families.random_presentation(4, 2, 5, 7),
        families.random_presentation(5, 3, 5, 11),
        families.random_presentation(5, 1, 5, 4),
    ], ids=["chain(2,4)", "chain(3,3,6)", "random(3,2)", "random(4,2)",
            "random(5,3)", "random(5,1)"])
    def test_both_routes_match_the_kronecker_complex(self, P, r):
        expected = kronecker_complex_h2(P, r)
        rep = h2(P, r)
        assert rep.total == expected
        assert rep.crosscheck == expected
        assert h2_via_complex(P).repeat(r) == expected


def reference_subquotient(out_map, in_map):
    """ker(out_map) / im(in_map) through a saturated kernel basis (oracle).

    Expresses the image inside the kernel basis K, where integer
    coordinates always exist, and takes the quotient of Z^K.cols by them.
    """
    assert (out_map @ in_map).is_zero()
    K = kernel_basis(out_map)
    coords = _solve_many(K, in_map)
    assert coords is not None
    return quotient_invariants(coords)


LADDER = [(n, (n + 2) // 3, seed) for n in range(3, 9) for seed in (1, 2)]
complex_corpus = pytest.mark.parametrize("P", [
    families.heisenberg(),
    families.abelian(3),
    families.discrete_heisenberg(6),
    families.divisor_chain_group((2, 4)),
    families.divisor_chain_group((3, 3, 6)),
    families.divisor_chain_group((2, 4, 8)),
    families.random_presentation(5, 10, 5, 1),
    families.random_presentation(6, 15, 5, 2),
] + [families.random_presentation(n, m, 5, seed) for n, m, seed in LADDER],
    ids=["heisenberg", "abelian(3)", "discrete_heisenberg(6)",
         "chain(2,4)", "chain(3,3,6)", "chain(2,4,8)", "random(5,10)",
         "random(6,15)"] + ["random(%d,%d)s%d" % a for a in LADDER])


class TestSubquotientOracle:
    """subquotient_invariants reads torsion and ranks off the maps; the
    kernel-basis route agrees."""

    @complex_corpus
    def test_complex_maps_of_the_corpus(self, P):
        A, B = complex_maps(P)
        f, g = A.transpose(), B.transpose()
        assert subquotient_invariants(f, g) == reference_subquotient(f, g)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 4), st.integers(0, 6), st.integers(0, 4),
           st.integers(0, 10**6))
    def test_random_complexes(self, rows, cols, width, seed):
        # g = (kernel columns of f) @ M: f @ g = 0, and ker f / im g often
        # has torsion
        rng = random.Random(seed)
        f = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
            cols=cols)
        K = kernel_basis(f)
        M = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(width)] for _ in range(K.cols)],
            cols=width)
        g = K @ M
        assert subquotient_invariants(f, g) == reference_subquotient(f, g)


def jacobi_without_third_term(P):
    """_jacobi_transpose with the x_k (x) c(x_i ^ x_j) term dropped (a mutant)."""
    n, m = P.n, P.m
    rows = []
    for (i, j, k) in combinations(range(n), 3):
        row = [0] * (n * m)
        for t, p, q, sign in ((i, j, k, 1), (j, i, k, -1)):
            for l, x in enumerate(P.bracket.get((p, q), ())):   # p < q
                row[t * m + l] += sign * x
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=n * m)


CHAINS = [families.divisor_chain_group(c) for c in ((2, 4), (3, 3, 6), (1, 2, 4, 8))]


class TestIndependentRoutes:
    """A fault in a closed-form builder cannot reach the complex route."""

    def test_jacobi_mutant_breaks_agreement(self, monkeypatch):
        monkeypatch.setattr(cohomology, "_jacobi_transpose", jacobi_without_third_term)
        assert not all(h2(P, 1).agree for P in CHAINS)

    def test_doubled_bracket_matrix_breaks_agreement(self, monkeypatch):
        real = cohomology.bracket_matrix

        def doubled(P):
            C = real(P)
            return IntMatrix(C.rows, C.cols,
                             [[(j, 2 * x) for j, x in row] for row in C.nonzeros])

        monkeypatch.setattr(cohomology, "bracket_matrix", doubled)
        assert not all(h2(P, 1).agree for P in CHAINS)

    @complex_corpus
    def test_complex_route_reads_no_closed_form_builder(self, P, monkeypatch):
        expected = h2(P, 1).total

        def refuse(*args):
            raise AssertionError("the complex route read a closed-form builder")

        monkeypatch.setattr(cohomology, "bracket_matrix", refuse)
        monkeypatch.setattr(cohomology, "_jacobi_transpose", refuse)
        assert h2_via_complex(P) == expected

    def test_abelian_builds_no_zero_block(self, monkeypatch):
        # m = 0: every weight block is empty, where a padded d^2 would be a
        # C(50,3) x C(50,2) zero matrix; weights 3 and 4 have no 2-forms,
        # so no d^2 with C(50,3) empty rows is built for them either
        shapes = []

        def record(out_map, in_map):
            shapes.extend([(out_map.rows, out_map.cols), (in_map.rows, in_map.cols)])
            return subquotient_invariants(out_map, in_map)

        monkeypatch.setattr(cohomology, "subquotient_invariants", record)
        assert h2_via_complex(families.abelian(50)) == Z(1225)
        assert shapes and all(rows * cols == 0 for rows, cols in shapes)
        assert all(rows <= comb(50, 2) for rows, cols in shapes)


class TestSecondHomologyRank:
    def test_known_values(self):
        assert second_homology_rank(families.heisenberg()) == 2
        assert second_homology_rank(families.abelian(3)) == 3
        assert second_homology_rank(families.divisor_chain_group((2, 4))) == 5


class TestProperties:
    @settings(deadline=None, max_examples=40)
    @given(random_presentations(), st.integers(1, 3))
    def test_dual_path_agreement(self, P, r):
        rep = h2(P, r)
        assert rep.agree
        assert rep.total == h2_via_complex(P).repeat(r)

    @settings(deadline=None, max_examples=40)
    @given(random_presentations())
    def test_form_equivalence(self, P):
        rep = h2(P, 1)
        assert rep.coker_cstar.free_rank == rep.ker_c_rank
        assert rep.coker_cstar.torsion == rep.ext_part.torsion

    @settings(deadline=None, max_examples=30)
    @given(random_presentations(), st.integers(0, 3))
    def test_repetition_in_coefficient_rank(self, P, r):
        assert h2(P, r).total == h2(P, 1).total.repeat(r)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 6), st.integers(1, 3))
    def test_abelian_closed_form(self, n, r):
        assert h2(families.abelian(n), r).total == Z(r * comb(n, 2))

    def test_basis_orderings(self):
        assert list(combinations(range(4), 2)).index((1, 3)) == 4
        assert list(combinations(range(3), 3)) == [(0, 1, 2)]
        # x_t (x) y_l is column t * m + l of S^T: x_3 (x) y_2 is 5 at m = 2
        P = GroupPresentation(n=3, m=2, bracket={(0, 1): (0, 1)})
        assert _jacobi_transpose(P).nonzeros == (((5, 1),),)


class TestTransformFree:
    """h2 needs invariants and ranks only, never the unimodular transforms."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_h2_never_builds_a_full_decomposition(self, monkeypatch, seed):
        def refuse(A):
            raise AssertionError("h2 asked for a full Smith decomposition")

        for name, mod in list(sys.modules.items()):
            if ((name == "nilcoh" or name.startswith("nilcoh."))
                    and hasattr(mod, "smith_normal_form")):
                monkeypatch.setattr(mod, "smith_normal_form", refuse)
        P = families.random_presentation(8, 3, 5, seed)
        for r in (1, 2):
            assert h2(P, r).agree


class TestOneEliminationOfC:
    """Each use of the bracket matrix C eliminates it exactly once."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        # the shapes of the matrices _smith eliminates; rank only falls
        # back to _smith when no modular certificate answers
        calls = []
        smith = exactlinalg._smith

        def counted(A, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "rank":
                calls.append((A.rows, A.cols))
            return smith(A, *args, **kwargs)

        monkeypatch.setattr(exactlinalg, "_smith", counted)
        return calls

    @pytest.mark.parametrize("P", [P for _, P in acceptance.corpus()] + [
        families.random_presentation(n, (n + 2) // 3, 5, 1) for n in range(6, 12)])
    def test_lemmax_and_h2(self, smith_calls, P):
        n, m, npairs = P.n, P.m, comb(P.n, 2)
        cocycles.lemmax_generators(P)
        assert smith_calls == [(npairs, m)]
        for r in (1, 2):
            del smith_calls[:]
            cohomology.h2(P, r)
            # the complex route on its weight-2 d^1, then the closed form on
            # C; no 1-form has weight 3 or 4, so those d^1 have no columns,
            # and a weight with no 2-forms (no rows) is skipped
            d1 = [(npairs, m), (n * m, 0), (comb(m, 2), 0)]
            assert smith_calls == [s for s in d1 if s[0]] + [(m, npairs)]
