"""Exact integer linear algebra: Smith form, kernels, quotients, lattice solve."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import acceptance, exactlinalg, families
from nilcoh.cohomology import _jacobi_transpose, h2
from nilcoh.exactlinalg import (
    _inverted,
    _replay,
    _replayed,
    _smith,
    _solve_many,
    AbelianGroupInvariants,
    IntMatrix,
    cokernel,
    kernel_basis,
    quotient_invariants,
    rank,
    smith_normal_form,
    solve_in_lattice,
    subquotient_invariants,
)
from nilcoh.grouplaw import bracket_matrix


def fraction_rank(rows):
    """Rank over Q by Gaussian elimination with exact fractions (independent oracle)."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def bareiss_determinant(rows):
    """Fraction-free determinant for square integer matrices."""
    n = len(rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if piv is None:
                return 0
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def from_cols(cols, rows=None):
    """The matrix with these columns; ``rows`` disambiguates the empty case."""
    return IntMatrix.from_rows(cols, rows).transpose()


def dense(rows, cols, entries):
    """The rows x cols matrix of ``entries``, listed row by row."""
    entries = list(entries)
    return IntMatrix.from_rows(
        [entries[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)


matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )
)


class TestIntMatrix:
    def test_nonzeros_are_sorted_and_checked(self):
        a = IntMatrix(2, 3, [[(2, 5), (0, -1), (1, 0)], []])
        assert a.nonzeros == (((0, -1), (2, 5)), ())
        assert a == IntMatrix.from_rows([[-1, 0, 5], [0, 0, 0]])
        assert a.entries == (-1, 0, 5, 0, 0, 0)
        # a column out of range or repeated, or a missing row
        for bad in ([[(3, 1)]], [[(-1, 1)]], [[(0, 1), (0, 2)]], []):
            with pytest.raises(ValueError):
                IntMatrix(1, 3, bad)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
    def test_matmul_matches_the_triple_sum(self, r, k, c, data):
        entries = st.just(0) | st.integers(-9, 9)

        def draw(rows, cols):
            return dense(rows, cols, data.draw(st.lists(
                entries, min_size=rows * cols, max_size=rows * cols)))

        # the right factor always has some all-zero rows, as the blocks of
        # the complex route do
        zero_rows = (data.draw(st.sets(st.integers(0, k - 1), min_size=1))
                     if k else set())
        b = IntMatrix.from_rows([[0] * c if t in zero_rows else row
                                 for t, row in enumerate(draw(k, c).to_rows())],
                                cols=c)
        a = draw(r, k)
        expect = [[sum(a.row(i)[t] * b.row(t)[j] for t in range(k))
                   for j in range(c)] for i in range(r)]
        assert a @ b == IntMatrix.from_rows(expect, cols=c)

    @pytest.mark.parametrize("r, k, c", [
        (0, 0, 0), (0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 4), (3, 0, 0)])
    def test_matmul_with_an_empty_dimension(self, r, k, c):
        # the complex route's products all have one: weight 2's d^2 has no
        # rows, and weights 3 and 4 have no d^1 columns
        a = dense(r, k, range(1, r * k + 1))
        b = dense(k, c, range(1, k * c + 1))
        assert a @ b == IntMatrix(r, c)


class TestSmithNormalForm:
    def test_worked_example(self):
        # gcd of entries is 2, |det| = 8, so invariants must be (2, 4)
        s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert s.invariants == (2, 4)

    def test_identity(self):
        s = smith_normal_form(IntMatrix.identity(3))
        assert s.invariants == (1, 1, 1)

    def test_zero_matrix(self):
        s = smith_normal_form(IntMatrix(2, 3))
        assert s.invariants == ()
        assert len(s.invariants) == 0

    def test_empty_matrix(self):
        s = smith_normal_form(IntMatrix(0, 4))
        assert s.invariants == ()
        assert s.U.rows == 0 and s.V.cols == 4

    @settings(deadline=None, max_examples=150)
    @given(matrices)
    def test_decomposition_properties(self, a):
        s = smith_normal_form(a)
        d = s.U @ a @ s.V
        assert d == s.D
        assert abs(bareiss_determinant(s.U.to_rows())) == 1
        assert abs(bareiss_determinant(s.V.to_rows())) == 1
        diag = [s.D.row(i)[i] for i in range(min(a.rows, a.cols))]
        for i in range(a.rows):
            for j in range(a.cols):
                if i != j:
                    assert s.D.row(i)[j] == 0
        nonzero = [x for x in diag if x != 0]
        assert list(s.invariants) == nonzero
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # nonzero entries come first on the diagonal
        assert all(x == 0 for x in diag[len(nonzero):])

    @settings(deadline=None, max_examples=150)
    @given(matrices)
    def test_rank_matches_fraction_elimination(self, a):
        assert rank(a) == fraction_rank(a.to_rows())


class TestKernelBasis:
    def test_forced_up_to_sign(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert k.cols == 1
        col = k.transpose().row(0)
        assert col in ((1, -1), (-1, 1))

    def test_injective_map(self):
        k = kernel_basis(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert k.cols == 0

    def test_rank_one_row(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        k = kernel_basis(a)
        assert k.cols == 2
        assert (a @ k).is_zero()
        assert rank(k) == 2

    @settings(deadline=None, max_examples=100)
    @given(matrices)
    def test_kernel_is_saturated(self, a):
        k = kernel_basis(a)
        assert k.cols == a.cols - rank(a)
        assert (a @ k).is_zero()
        # saturation: the basis spans a direct summand, so all invariants are 1
        assert all(d == 1 for d in smith_normal_form(k).invariants)


def pinned_smith_inputs():
    """Seeded small matrices, then S^T and C^T of the groups whose reports
    the CLI tests pin."""
    rng = random.Random(26)
    out = []
    for k in range(40):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        a = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(cols)]
             for _ in range(rows)]
        if rows and cols and k % 2:
            # one zero row and one zero column
            a[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        out.append(IntMatrix.from_rows(a, cols=cols))
    groups = [families.heisenberg(),
              families.random_presentation(3, 3, 3, 1003),
              families.random_presentation(4, 6, 3, 1004),
              *map(families.discrete_heisenberg, (2, 3, 4, 5)),
              families.divisor_chain_group((2, 6)),
              families.divisor_chain_group((3, 3, 6)),
              families.random_presentation(3, 3, 3, 2026003),
              families.random_presentation(5, 10, 3, 2026005)]
    for P in groups:
        out += [_jacobi_transpose(P), bracket_matrix(P).transpose()]
    return out


class TestSmithRecordPin:
    def test_records_are_pinned(self):
        # the pivot rule decides every record, and the records decide every
        # transform, kernel basis, cocycle and witness
        records = []
        for a in pinned_smith_inputs():
            invariants, *_, ops, cops = _smith(a)
            records.append((tuple(invariants), tuple(ops), tuple(cops)))
        assert len(records) == 62
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "dccaef874ff205b4bcf3ebb870cb95e9021667a3e6ba24fd3a365532c634f058")


def reference_solve(A, B):
    """Integer solutions of A X = B read off the full decomposition (oracle).

    U A V = D, so A X = B iff D (V^-1 X) = U B: divide U B by the diagonal
    of D row by row, require zeros below the rank, and map back through V.
    """
    s = smith_normal_form(A)
    UB = s.U @ B
    cols = []
    for j in range(B.cols):
        y = [0] * A.cols
        for i in range(A.rows):
            c = UB.row(i)[j]
            if i < len(s.invariants):
                if c % s.D.row(i)[i]:
                    return None
                y[i] = c // s.D.row(i)[i]
            elif c:
                return None
        cols.append((s.V @ from_cols([y])).transpose().row(0))
    return from_cols(cols, rows=A.cols)


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def replayed_v(cops, n):
    """V from the column record of _smith: its replay on the identity."""
    v = IntMatrix.identity(n).to_rows()
    _replay(cops, v)
    return IntMatrix.from_rows(v, cols=n)


def draw_rhs(data, rows):
    """A drawn matrix with ``rows`` rows and 0..3 columns."""
    return data.draw(st.integers(0, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=rows, max_size=rows).map(
                lambda r: IntMatrix.from_rows(r, cols=k))))


class TestTransformTracking:
    """The records of _smith, replayed, give the transforms of smith_normal_form."""

    @settings(deadline=None, max_examples=100)
    @given(matrices, st.data())
    def test_every_combination_matches_full_decomposition(self, a, data):
        full = smith_normal_form(a)
        B = draw_rhs(data, a.rows)
        invariants, ops, cops = _smith(a)
        assert invariants == full.invariants
        # the reduced matrix: the invariants on the diagonal, zeros elsewhere
        D = IntMatrix.from_rows(
            [[invariants[i] if i == j < len(invariants) else 0
              for j in range(a.cols)] for i in range(a.rows)], cols=a.cols)
        assert D == full.D
        # replay of the row record on the identity gives U
        u = IntMatrix.identity(a.rows).to_rows()
        _replay(ops, u)
        U = IntMatrix.from_rows(u, cols=a.rows)
        assert U == full.U
        # replay on B gives U @ B
        rows = B.to_rows()
        _replay(ops, rows)
        assert IntMatrix.from_rows(rows, cols=B.cols) == U @ B
        # replay of the column record on the identity gives V: U A V = D
        # with V unimodular, by a determinant that shares no code with _smith
        V = replayed_v(cops, a.cols)
        assert V == full.V
        assert U @ a @ V == D
        assert abs(acceptance.bareiss_determinant(V.to_rows())) == 1
        # replay on C gives V @ C, as the row record's gives U @ B
        C = draw_rhs(data, a.cols)
        rows = C.to_rows()
        _replay(cops, rows)
        assert IntMatrix.from_rows(rows, cols=C.cols) == V @ C
        # the kernel basis is V's columns rank ..
        assert kernel_basis(a) == from_cols(
            V.transpose().to_rows()[len(invariants):], rows=a.cols)
        # the inverted row record, replayed on the identity, gives U^-1
        inv = IntMatrix.from_rows(
            _replayed(_inverted(ops), a.rows, range(a.rows)), cols=a.rows)
        assert inv @ full.U == full.U @ inv == IntMatrix.identity(a.rows)

    @settings(deadline=None, max_examples=100)
    @given(matrices, st.data())
    def test_replay_on_some_columns_is_those_of_the_full_replay(self, a, data):
        _, ops, cops = _smith(a)
        for record, n in ((ops, a.rows), (cops, a.cols)):
            cols = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                      unique=True, max_size=n))
            full = _replayed(record, n, range(n))
            assert _replayed(record, n, cols) == [
                [row[j] for j in cols] for row in full]

    @pytest.mark.parametrize("a, kernel_rank", [
        (IntMatrix(0, 0), 0),
        (IntMatrix(0, 3), 3),
        (IntMatrix(2, 0), 0),
        (IntMatrix(2, 3), 3),
        (IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]]), 0),
        (IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]), 2),
    ])
    def test_kernel_basis_is_the_kernel_columns_of_v(self, a, kernel_rank):
        # rank 0 and full column rank: the selection starts at the rank
        V = replayed_v(_smith(a)[2], a.cols)
        k = kernel_basis(a)
        assert k.cols == kernel_rank
        assert k == from_cols(V.transpose().to_rows()[a.cols - kernel_rank:],
                              rows=a.cols)

    @settings(deadline=None, max_examples=100)
    @given(matrices, st.integers(0, 3), st.integers(0, 10**6))
    def test_solve_many_matches_reference(self, a, k, seed):
        rng = random.Random(seed)
        X = random_matrix(rng, a.cols, k, -4, 4)
        consistent = a @ X
        arbitrary = random_matrix(rng, a.rows, k, -9, 9)
        for B in (consistent, arbitrary):
            assert _solve_many(a, B) == reference_solve(a, B)
        assert _solve_many(a, consistent) is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_consistent_system(self, seed):
        rng = random.Random(seed)
        A = random_matrix(rng, 40, 8)
        B = A @ random_matrix(rng, 8, 5, -6, 6)
        X = _solve_many(A, B)
        assert X == reference_solve(A, B)
        assert A @ X == B

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_inconsistent_over_q(self, seed):
        rng = random.Random(seed)
        A = random_matrix(rng, 40, 8)
        rows = (A @ random_matrix(rng, 8, 3, -6, 6)).to_rows()
        rows[rng.randrange(40)][1] += 1
        B = IntMatrix.from_rows(rows, cols=3)
        # the nudged column leaves the rational column space of A
        assert fraction_rank([row + [b] for row, b in
                              zip(A.to_rows(), B.transpose().row(1))]) \
            == fraction_rank(A.to_rows()) + 1
        assert reference_solve(A, B) is None
        assert _solve_many(A, B) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_lattice_obstruction(self, seed):
        # A = 2M with M of full column rank, b = M x with x odd somewhere:
        # the unique rational solution x / 2 is not integral
        rng = random.Random(seed)
        M = random_matrix(rng, 40, 8)
        assert fraction_rank(M.to_rows()) == 8
        A = IntMatrix(40, 8, [[(j, 2 * e) for j, e in row] for row in M.nonzeros])
        x = [rng.randint(-5, 5) for _ in range(8)]
        x[rng.randrange(8)] = 2 * rng.randint(-5, 5) + 1
        B = M @ from_cols([x, [2 * e for e in x]])
        assert reference_solve(A, B) is None
        assert _solve_many(A, B) is None
        even = from_cols([B.transpose().row(1)])
        assert _solve_many(A, even) == from_cols([x])


P61 = (1 << 61) - 1


class TestModularFastPath:
    """Solves at the edges of arithmetic modulo 2^61 - 1 match reference_solve.

    The inputs are zero columns, an entry beyond half the prime, a
    determinant equal to the prime, dependent live columns and a system
    inconsistent modulo the prime; every one takes the Smith route.
    """

    def test_zero_columns_stay_zero(self):
        rng = random.Random(5)
        cols = list(zip(*random_matrix(rng, 30, 6).to_rows()))
        zero = (0,) * 30
        A = from_cols([zero, cols[0], cols[1], zero, *cols[2:], zero])
        x = [0, 3, -7, 0, 1, 0, 2, -4, 0]
        B = A @ from_cols([x])
        assert _solve_many(A, B) == reference_solve(A, B) \
            == from_cols([x])

    def test_entry_beyond_half_the_prime_takes_the_smith_route(self):
        rng = random.Random(6)
        A = random_matrix(rng, 20, 5)
        assert fraction_rank(A.to_rows()) == 5
        x = [(1 << 62) + 3, -5, 0, 1, -(1 << 61)]
        B = A @ from_cols([x])
        assert _solve_many(A, B) == reference_solve(A, B) \
            == from_cols([x])

    def test_square_with_determinant_p_takes_the_smith_route(self):
        # full rank over Q but singular modulo p
        A = IntMatrix.from_rows([[1, 1, 0], [1, P61 + 1, 2], [0, 0, 1]])
        assert bareiss_determinant(A.to_rows()) == P61
        B = A @ from_cols([[4, -9, 2], [1, 1, 1]])
        e1 = from_cols([[1, 0, 0]])
        assert _solve_many(A, B) == reference_solve(A, B) is not None
        assert _solve_many(A, e1) == reference_solve(A, e1) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_dependent_live_columns_take_the_smith_route(self, seed):
        rng = random.Random(seed)
        cols = list(zip(*random_matrix(rng, 25, 4).to_rows()))
        A = from_cols(
            cols + [[a - 2 * b for a, b in zip(cols[0], cols[3])]])
        assert fraction_rank(A.to_rows()) == 4
        B = A @ random_matrix(rng, 5, 2, -6, 6)
        X = _solve_many(A, B)
        assert X == reference_solve(A, B)
        assert A @ X == B

    @pytest.mark.parametrize("seed", range(3))
    def test_inconsistent_modulo_p_returns_none(self, seed):
        rng = random.Random(seed)
        A = random_matrix(rng, 40, 8)
        rows = (A @ random_matrix(rng, 8, 2, -6, 6)).to_rows()
        rows[rng.randrange(40)][0] += 1
        B = IntMatrix.from_rows(rows, cols=2)
        assert _solve_many(A, B) is None
        assert reference_solve(A, B) is None


@pytest.fixture
def rank_branches(monkeypatch):
    """Record, in order, which test of ``rank`` ran: gf2, mod p or smith."""
    calls = []
    for name, label in (("_rank_gf2", "gf2"), ("_pivots_mod_p", "mod p"),
                        ("_smith", "smith")):
        def recording(*args, _inner=getattr(exactlinalg, name), _label=label):
            calls.append(_label)
            return _inner(*args)

        monkeypatch.setattr(exactlinalg, name, recording)
    return calls


@pytest.fixture
def smith_callers(monkeypatch):
    """Record the name of the function that calls _smith, call by call."""
    callers = []
    inner = exactlinalg._smith

    def recording(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return inner(A)

    monkeypatch.setattr(exactlinalg, "_smith", recording)
    return callers


class TestRankCertificates:
    """rank answers from GF(2) or the prime only when the rank is the
    smaller live dimension; otherwise Smith elimination decides."""

    @pytest.mark.parametrize("rows, expect", [
        ([[1, 0, 3], [2, 1, 5]], 2),
        ([[3], [4], [6]], 1),
        ([[0, 0, 0, 0], [0, 1, 0, 4], [0, 0, 0, 0]], 1),
        # the weight-4 block of the complex route on F(n): one nonzero
        # per row, more rows than columns
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 1], [0, -1, 0], [3, 0, 0], [0, 0, 0]], 3),
    ])
    def test_gf2_answers(self, rank_branches, rows, expect):
        A = IntMatrix.from_rows(rows)
        assert rank(A) == expect == fraction_rank(rows)
        assert rank_branches == ["gf2"]

    @pytest.mark.parametrize("rows, expect", [
        ([[2]], 1),
        ([[1, 1], [1, -1]], 2),
        ([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, -1]], 2),
        ([[P61 + 2, 4, 0], [6, 8, 2]], 2),
    ])
    def test_full_over_q_but_not_mod_2_the_prime_answers(
            self, rank_branches, rows, expect):
        A = IntMatrix.from_rows(rows)
        assert rank(A) == expect == fraction_rank(rows)
        assert rank_branches == ["gf2", "mod p"]

    @pytest.mark.parametrize("rows, expect", [
        ([[2 * P61]], 1),
        ([[1, 1, 0], [1, 2 * P61 + 1, 2], [0, 0, 1]], 3),  # det 2 p
    ])
    def test_deficient_mod_both_primes_smith_answers(
            self, rank_branches, rows, expect):
        A = IntMatrix.from_rows(rows)
        assert rank(A) == expect == fraction_rank(rows)
        assert rank_branches == ["gf2", "mod p", "smith"]

    @pytest.mark.parametrize("seed", range(3))
    def test_deficient_over_q_smith_answers(self, rank_branches, seed):
        rng = random.Random(seed)
        cols = list(zip(*random_matrix(rng, 6, 4).to_rows()))
        A = from_cols(cols + [[a + 3 * b for a, b in zip(cols[0], cols[2])]])
        assert rank(A) == fraction_rank(A.to_rows()) == 4
        assert rank_branches == ["gf2", "mod p", "smith"]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (3, 4)])
    def test_zero_and_empty_shapes_need_no_elimination(
            self, rank_branches, shape):
        rows, cols = shape
        assert rank(IntMatrix(rows, cols)) == 0
        assert rank_branches == []

    @pytest.mark.parametrize("n", range(6, 12))
    def test_h2_ranks_need_no_smith(self, smith_callers, n):
        for seed in (1, 2):
            P = families.random_presentation(n, (n + 2) // 3, 5, seed)
            assert h2(P, 1).agree
        assert smith_callers and "rank" not in smith_callers


class TestQuotientInvariants:
    def test_split_direct_sum(self):
        q = quotient_invariants(from_cols([(2, 0)]))
        assert q == AbelianGroupInvariants(free_rank=1, torsion=(2,))

    def test_full_quotient(self):
        q = quotient_invariants(IntMatrix.from_rows([[1]]))
        assert q == AbelianGroupInvariants(0)

    def test_no_generators_leave_the_whole_lattice(self):
        # the ambient rank is the number of rows, also with no columns
        assert quotient_invariants(IntMatrix(3, 0)) == AbelianGroupInvariants(3)
        assert quotient_invariants(IntMatrix(0, 0)) == AbelianGroupInvariants(0)

    def test_two_columns(self):
        gens = from_cols([(1, 1, 0), (0, 2, 0)], rows=3)
        q = quotient_invariants(gens)
        assert q == AbelianGroupInvariants(free_rank=1, torsion=(2,))

    @settings(deadline=None, max_examples=100)
    @given(matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    def test_column_operation_invariance(self, a, coeffs):
        if a.cols == 0:
            col = (0,) * a.rows
        else:
            weights = (coeffs * a.cols)[: a.cols]
            col = tuple(
                sum(w * a.row(i)[j] for j, w in enumerate(weights))
                for i in range(a.rows)
            )
        enlarged = IntMatrix.from_rows(
            [row + [c] for row, c in zip(a.to_rows(), col)], cols=a.cols + 1)
        assert quotient_invariants(a) == quotient_invariants(enlarged)


class TestSubquotientInvariants:
    def test_zero_out_map_reduces_to_quotient(self):
        out = IntMatrix(1, 2)
        inn = from_cols([(2, 0)])
        assert subquotient_invariants(out, inn) == AbelianGroupInvariants(1, (2,))

    def test_torsion_only(self):
        out = IntMatrix.from_rows([[1, 1]])
        inn = from_cols([(2, -2)])
        q = subquotient_invariants(out, inn)
        assert q == AbelianGroupInvariants(free_rank=0, torsion=(2,))

    def test_zero_kernel(self):
        q = subquotient_invariants(IntMatrix.identity(2), IntMatrix(2, 0))
        assert q == AbelianGroupInvariants(0)

    def test_rejects_non_complex(self):
        with pytest.raises(ValueError, match="not a complex"):
            subquotient_invariants(IntMatrix.identity(1), IntMatrix.from_rows([[1]]))

    @settings(deadline=None, max_examples=100)
    @given(matrices)
    def test_zero_out_map_agrees_with_quotient(self, a):
        out = IntMatrix(0, a.rows)
        assert subquotient_invariants(out, a) == quotient_invariants(a)


class TestSolveInLattice:
    def test_even_target(self):
        assert solve_in_lattice(IntMatrix.from_rows([[2]]), (4,)) == (2,)

    def test_parity_obstruction(self):
        assert solve_in_lattice(IntMatrix.from_rows([[2]]), (3,)) is None

    def test_upper_triangular(self):
        x = solve_in_lattice(IntMatrix.from_rows([[1, 2], [0, 2]]), (3, 2))
        assert x == (1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_in_lattice(IntMatrix.from_rows([[1]]), (1, 2))

    def test_absent_matches_box_search(self):
        # brute-force box oracle on a small instance with torsion obstruction
        a = IntMatrix.from_rows([[2, 4], [0, 6]])
        for b in [(1, 0), (0, 3), (2, 6), (6, 6)]:
            found = any(
                (a @ from_cols([(x, y)])).transpose().row(0) == b
                for x in range(-12, 13)
                for y in range(-12, 13)
            )
            x = solve_in_lattice(a, b)
            assert (x is not None) == found
            if x is not None:
                assert (a @ from_cols([x])).transpose().row(0) == b

    @settings(deadline=None, max_examples=100)
    @given(matrices, st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_reconstructs_known_solutions(self, a, xs):
        x = tuple(xs[: a.cols])
        b = (a @ from_cols([x])).transpose().row(0)
        got = solve_in_lattice(a, b)
        assert got is not None
        assert (a @ from_cols([got])).transpose().row(0) == b


class TestCokernelGenerators:
    @settings(deadline=None, max_examples=100)
    @given(matrices)
    def test_lifts_are_columns_of_the_inverse_transform(self, a):
        # U f = e_t says f is column t of U^-1; the free indices come
        # first, then one per invariant factor d > 1
        s = smith_normal_form(a)
        expect = [(0, t) for t in range(len(s.invariants), a.rows)] + [
            (d, t) for t, d in enumerate(s.invariants) if d > 1]
        invariants, ops, lifts, V = cokernel(a)
        assert invariants == s.invariants
        V = IntMatrix.from_rows(V, cols=a.cols)
        assert V == replayed_v(_smith(a)[2], a.cols) == s.V
        assert s.U @ a @ V == s.D
        u = IntMatrix.identity(a.rows).to_rows()
        _replay(ops, u)
        assert IntMatrix.from_rows(u, cols=a.rows) == s.U
        assert [d for d, _ in lifts] == [d for d, _ in expect]
        for (_, f), (_, t) in zip(lifts, expect):
            assert (s.U @ from_cols([f])).transpose().row(0) == tuple(
                int(i == t) for i in range(a.rows))


class TestAbelianGroupInvariants:
    def test_canonical_form_rejects_unit_factors(self):
        with pytest.raises(ValueError):
            AbelianGroupInvariants(free_rank=0, torsion=(1, 2))
        with pytest.raises(ValueError):
            AbelianGroupInvariants(free_rank=0, torsion=(4, 2))

    def test_repeat(self):
        a = AbelianGroupInvariants(2, (4,))
        assert a.repeat(2) == AbelianGroupInvariants(4, (4, 4))
        assert a.repeat(0) == AbelianGroupInvariants(0)

    def test_repeat_refuses_negative_rank(self):
        with pytest.raises(ValueError, match="coefficient rank must be nonnegative"):
            AbelianGroupInvariants(2, (4,)).repeat(-1)

    def test_str_forms(self):
        assert str(AbelianGroupInvariants(0)) == "0"
        assert str(AbelianGroupInvariants(1)) == "Z"
        assert str(AbelianGroupInvariants(5, (2,))) == "Z^5 (+) Z_2"
        assert str(AbelianGroupInvariants(0, (2, 4))) == "Z_2 (+) Z_4"

    def test_json_document(self):
        a = AbelianGroupInvariants(3, (2, 6))
        assert a.to_json() == {"free": 3, "torsion": [2, 6]}
