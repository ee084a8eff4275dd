"""Cocycle construction, evaluation, rendering, extensions, coboundary witnesses."""

import hashlib
import random
import re
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import acceptance, cocycles, families, grouplaw
from nilcoh.cohomology import _jacobi_transpose, bracket_matrix, h2
from nilcoh.exactlinalg import (AbelianGroupInvariants, IntMatrix,
                                _lattice_solution, _replay, rank,
                                smith_normal_form, solve_in_lattice)
from nilcoh.grouplaw import (GroupElement, GroupPresentation, identity,
                             multiply, random_element)
from nilcoh.cocycles import (
    CocycleLemmaX,
    CocycleLemmaY,
    CocycleSum,
    ExtElement,
    ExtensionGroup,
    Primitive,
    VerificationReport,
    all_cocycles,
    build_extension,
    coboundary_witness,
    cocycle_to_json,
    evaluate,
    lemmax_generators,
    lemmay_basis,
    prove_cocycles,
    render,
    verify_cocycle,
    verify_cocycles,
    _family,
)

HEIS = families.heisenberg()
CHAIN = families.divisor_chain_group((2, 4))
E11 = CocycleLemmaY(phi=((1,), (0,)))
# not a cocycle: S has full rank on CHAIN, so no nonzero phi annihilates it
CHAIN_BAD = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))

CORPUS = [
    HEIS,
    families.abelian(3),
    families.discrete_heisenberg(3),
    CHAIN,
    families.divisor_chain_group((3, 3, 6)),
]


def prime_factors(d):
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return out + [d] if d > 1 else out


CORPUS_IDS = ["heisenberg", "abelian3", "dheis3", "chain2-4", "chain3-3-6"]
NEAR_FREE_CORPUS = CORPUS + [families.random_presentation(n, comb(n, 2), 5, 1)
                             for n in range(3, 7)]
NEAR_FREE_IDS = CORPUS_IDS + ["near-free-n%d" % n for n in range(3, 7)]
ACCEPTANCE_CORPUS = [P for _, P in acceptance.corpus()]
ACCEPTANCE_IDS = [name for name, _ in acceptance.corpus()]


def torsion_generators(P):
    return [w for w in lemmax_generators(P) if w.order]


def eval_rendered(P, text, g, h):
    """Evaluate a rendered polynomial string independently of evaluate()."""
    source = text.replace("'", "p").replace("C(", "binom2(").replace("^", "**")
    scope = {"binom2": lambda x, two: x * (x - 1) // 2}
    for i in range(P.n):
        scope["a%d" % (i + 1)] = g.a[i]
        scope["a%dp" % (i + 1)] = h.a[i]
    for l in range(P.m):
        scope["b%d" % (l + 1)] = g.b[l]
        scope["b%dp" % (l + 1)] = h.b[l]
    return eval(source, {"__builtins__": {}}, scope)


def reference_value(P, w, g, h):
    """The LemmaX/LemmaY formulas of the cocycles module docstring, term by term.

    Independent of the polynomial table that evaluate() and render() share.
    The docstring's sum over j < i, j < k appears here as two sums, split
    at i < k and k <= i.
    """
    if isinstance(w, CocycleSum):
        return sum(c * reference_value(P, p, g, h) for c, p in w.terms)
    a, b, ap = g.a, g.b, h.a
    if isinstance(w, CocycleLemmaX):
        return -sum(a[j] * ap[i] * f
                    for (i, j), f in zip(combinations(range(P.n), 2), w.f))

    def C2(x):
        return x * (x - 1) // 2

    def phi(t, p, q):  # phi(x_t (x) c(x_p ^ x_q))
        return sum(y * c for y, c in zip(P.bracket_vector(p, q), w.phi[t]))

    N = range(P.n)
    pairs = list(product(N, repeat=2))
    triples = list(product(N, repeat=3))
    return -(sum(C2(a[i]) * ap[j] * phi(i, i, j) for i, j in pairs if i > j)
             + sum(a[i] * C2(ap[j]) * phi(j, i, j) for i, j in pairs if i > j)
             + sum(a[i] * a[j] * ap[k] * phi(j, i, k)
                   for i, j, k in triples if k < i < j)
             + sum(a[i] * ap[j] * ap[k] * phi(k, i, j)
                   for i, j, k in triples if j < i < k)
             + sum(a[i] * ap[j] * ap[k] * phi(k, i, j)
                   for i, j, k in triples if j < k <= i)
             + sum(ap[i] * b[l] * w.phi[i][l] for i in N for l in range(P.m)))


class TestLemmaXGenerators:
    def test_heisenberg_has_none(self):
        assert lemmax_generators(HEIS) == []

    def test_abelian_rank_two(self):
        gens = lemmax_generators(families.abelian(2))
        assert len(gens) == 1
        assert gens[0].order == 0
        assert gens[0].f in ((1,), (-1,))

    def test_divisor_chain_counts_and_orders(self):
        gens = lemmax_generators(CHAIN)
        orders = [w.order for w in gens]
        assert orders.count(0) == 5
        assert orders.count(2) == 1
        assert len(gens) == 6

    @pytest.mark.parametrize("P", NEAR_FREE_CORPUS, ids=NEAR_FREE_IDS)
    def test_torsion_orders_are_exact(self, P):
        # order d: d*f is in im(C^T), and (d/p)*f is not for each prime p | d
        CT = bracket_matrix(P).transpose()
        for w in torsion_generators(P):
            d = w.order
            assert solve_in_lattice(CT, [d * x for x in w.f]) is not None
            for p in prime_factors(d):
                assert solve_in_lattice(CT, [d // p * x for x in w.f]) is None


class TestLemmaYBasis:
    def test_heisenberg_spans_full_space(self):
        basis = lemmay_basis(HEIS)
        assert len(basis) == 2
        flat = IntMatrix.from_cols(
            [tuple(x for row in w.phi for x in row) for w in basis], rows=2)
        # span equality with Z^2: the basis matrix is unimodular
        assert smith_normal_form(flat).invariants == (1, 1)

    def test_divisor_chain_is_torsion_only(self):
        P = CHAIN
        assert lemmay_basis(P) == []
        assert P.n * P.m - rank(_jacobi_transpose(P)) == 0

    def test_abelian_has_none(self):
        assert lemmay_basis(families.abelian(4)) == []

    def test_annihilates_jacobi_columns(self):
        for P in CORPUS:
            S = _jacobi_transpose(P).transpose()
            for w in lemmay_basis(P):
                flat = tuple(x for row in w.phi for x in row)
                for c in range(S.cols):
                    col = S.col(c)
                    assert sum(f * x for f, x in zip(flat, col)) == 0


class TestEvaluate:
    def test_lemmax_single_term(self):
        w = CocycleLemmaX(f=(1,))
        g = GroupElement((0, 1), (0,))
        h = GroupElement((1, 0), (0,))
        assert evaluate(HEIS, w, g, h) == -1

    def test_normalization_at_identity(self):
        g = GroupElement((3, -2), (5,))
        for w in (CocycleLemmaX(f=(7,)), E11):
            assert evaluate(HEIS, w, g, identity(HEIS)) == 0
            assert evaluate(HEIS, w, identity(HEIS), g) == 0

    @pytest.mark.parametrize("P", ACCEPTANCE_CORPUS, ids=ACCEPTANCE_IDS)
    def test_built_monomials_are_normalized(self, P):
        # every monomial the package builds has a primed and an unprimed
        # factor, so the exact normalization check passes on its tables
        values, rows, monos = _family(P, all_cocycles(P))
        for k, mono in enumerate(monos):
            if any(row[k] for row in rows):
                # h's slots: a' and C(a',2) in [2n, 4n), b' from 4n + m
                assert {2 * P.n <= s < 4 * P.n or s >= 4 * P.n + P.m
                        for s in mono} == {0, 1}
        # sampled oracle: w(g, e) = w(e, g) = 0
        e, rng = identity(P), random.Random(0)
        for _ in range(50):
            g = random_element(P, 10, rng)
            assert values(g, e) == values(e, g) == [0] * len(rows)

    def test_lemmay_central_term(self):
        g = GroupElement((0, 0), (1,))
        h = GroupElement((1, 0), (0,))
        assert evaluate(HEIS, E11, g, h) == -1

    def test_lemmay_binomial_term(self):
        g = GroupElement((0, 1), (0,))
        h = GroupElement((2, 0), (0,))
        assert evaluate(HEIS, E11, g, h) == 1

    def test_lemmay_closed_form(self):
        # for this phi the whole formula collapses to a2*C(a1',2) - a1'*b1
        rng = random.Random(5)
        for _ in range(100):
            g = random_element(HEIS, 10, rng)
            h = random_element(HEIS, 10, rng)
            a1p = h.a[0]
            expected = g.a[1] * a1p * (a1p - 1) // 2 - a1p * g.b[0]
            assert evaluate(HEIS, E11, g, h) == expected

    def test_linear_in_the_cocycle(self):
        rng = random.Random(6)
        w1 = CocycleLemmaX(f=(3,))
        w2 = E11
        for _ in range(50):
            g = random_element(HEIS, 8, rng)
            h = random_element(HEIS, 8, rng)
            assert (evaluate(HEIS, w1 + w2, g, h)
                    == evaluate(HEIS, w1, g, h) + evaluate(HEIS, w2, g, h))
            assert evaluate(HEIS, 5 * w1 - w2, g, h) == (
                5 * evaluate(HEIS, w1, g, h) - evaluate(HEIS, w2, g, h))

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(range(len(CORPUS) + 1)), st.integers(0, 10**6))
    def test_matches_the_formula_reference(self, pidx, seed):
        # arbitrary f and phi, not only cocycles: the formula is linear in
        # them, so any table exercises every monomial of the expansion
        P = (CORPUS + [families.random_presentation(4, 3, 3, seed=7)])[pidx]
        rng = random.Random(seed)
        ws = all_cocycles(P) + [
            CocycleLemmaX(f=[rng.randint(-5, 5) for _ in range(comb(P.n, 2))]),
            CocycleLemmaY(phi=[[rng.randint(-5, 5) for _ in range(P.m)]
                               for _ in range(P.n)])]
        w = sum((rng.randint(-3, 3) * v for v in ws), CocycleSum(()))
        for _ in range(50):
            g = random_element(P, 6, rng)
            h = random_element(P, 6, rng)
            assert evaluate(P, w, g, h) == reference_value(P, w, g, h)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(HEIS, CocycleLemmaX(f=(1, 2)),
                     identity(HEIS), identity(HEIS))


class TestRender:
    def test_lemmay_fixed_string(self):
        assert render(HEIS, E11) == "a2*C(a1',2) - a1'*b1"

    def test_zero_cocycle(self):
        assert render(HEIS, 0 * E11) == "0"

    def test_lemmax_fixed_string(self):
        assert render(HEIS, CocycleLemmaX(f=(1,))) == "-a2*a1'"

    def test_deterministic(self):
        w = 2 * E11 - 3 * CocycleLemmaX(f=(1,))
        assert render(HEIS, w) == render(HEIS, w)

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(range(len(CORPUS))), st.integers(0, 10**6))
    def test_agrees_with_evaluate(self, pidx, seed):
        P = CORPUS[pidx]
        rng = random.Random(seed)
        ws = all_cocycles(P)
        if not ws:
            return
        w = sum((rng.randint(-3, 3) * v for v in ws), CocycleSum(()))
        text = render(P, w)
        for _ in range(100):
            g = random_element(P, 6, rng)
            h = random_element(P, 6, rng)
            assert eval_rendered(P, text, g, h) == evaluate(P, w, g, h)


def add_monomial(monkeypatch, k, mono):
    """Make every family table give cocycle k one more term, 3 * mono."""
    polys = cocycles._polys

    def mutant(P, ws):
        out = polys(P, ws)
        out[k][mono] = 3
        return out

    monkeypatch.setattr(cocycles, "_polys", mutant)


class TestVerifyCocycle:
    def test_lemmay_on_heisenberg(self):
        rep = verify_cocycle(HEIS, E11, trials=1000, bound=10, seed=0)
        assert rep.ok
        assert rep.trials == 1000

    def test_generators_on_divisor_chain(self):
        for w in lemmax_generators(CHAIN):
            assert verify_cocycle(CHAIN, w, trials=500, bound=10, seed=0).ok

    def test_corrupted_phi_fails_with_witness(self):
        # S has full rank here, so no nonzero phi annihilates it
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        rep = verify_cocycle(CHAIN, bad, trials=1000, bound=10, seed=0)
        assert not rep.ok
        assert rep.counterexample
        g, h, k = rep.counterexample
        lhs = evaluate(CHAIN, bad, g, h) + evaluate(CHAIN, bad, multiply(CHAIN, g, h), k)
        rhs = evaluate(CHAIN, bad, h, k) + evaluate(CHAIN, bad, g, multiply(CHAIN, h, k))
        assert lhs != rhs

    def test_deterministic_in_seed(self):
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        a = verify_cocycle(CHAIN, bad, trials=50, bound=5, seed="s")
        b = verify_cocycle(CHAIN, bad, trials=50, bound=5, seed="s")
        assert a == b

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_rejected(self, trials):
        # a non-cocycle must not pass on an empty sample
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        with pytest.raises(ValueError, match="trials >= 1"):
            verify_cocycle(CHAIN, bad, trials=trials, bound=10, seed=0)

    def test_family_reports_equal_single_reports(self):
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        good = lemmax_generators(CHAIN) + lemmay_basis(CHAIN)
        ws = good[:2] + [bad] + good[2:] + [good[0] + 2 * bad]
        reports = verify_cocycles(CHAIN, ws, trials=300, bound=10, seed=0)
        assert [r.ok for r in reports] == [w in good for w in ws]
        assert reports == [verify_cocycle(CHAIN, w, trials=300, bound=10,
                                          seed=0) for w in ws]

    def test_empty_family(self):
        assert verify_cocycles(CHAIN, [], trials=5, bound=3, seed=0) == []

    def test_reports_are_pinned(self, monkeypatch):
        # the corpus with a random phi each, failures at trial > 0, and a
        # 3*C(a1,2)*a1' term that passes normalization but not the identity
        reprs = []
        for P in ACCEPTANCE_CORPUS:
            rng = random.Random(P.n * 100 + P.m)
            bad = CocycleLemmaY(phi=[[rng.randint(-3, 3) for _ in range(P.m)]
                                     for _ in range(P.n)])
            reprs.append(verify_cocycles(P, all_cocycles(P) + [bad], 200, 10, 0))
        reprs.append(verify_cocycles(CHAIN, [CHAIN_BAD], 200, 10, 0))
        for seed in range(6):
            reprs.append(verify_cocycles(
                CHAIN, [CHAIN_BAD, all_cocycles(CHAIN)[1] + 2 * CHAIN_BAD],
                200, 1, seed))
        add_monomial(monkeypatch, 0, (1, 4))
        reprs.append(verify_cocycles(HEIS, all_cocycles(HEIS), 200, 10, 0))
        digest = hashlib.sha256("\n".join(map(repr, reprs)).encode())
        assert digest.hexdigest() == \
            "12e5e1962cd9438136d44997514be66b60eb83c802f0ccc3d86d014f7d9188d5"

    @pytest.mark.parametrize("mono, text", [
        ((0, 2), "a1*a2"),        # slots of a1, a2 on HEIS (n=2, m=1)
        ((4, 9), "a1'*b1'"),      # slots of a1', b1'
    ], ids=["no-primed-factor", "no-unprimed-factor"])
    def test_unnormalized_monomial_is_named(self, monkeypatch, mono, text):
        add_monomial(monkeypatch, 1, mono)
        ws = [E11, CocycleLemmaY(phi=((0,), (1,))), E11]
        reports = verify_cocycles(HEIS, ws, trials=50, bound=10, seed=0)
        message = "normalization fails at monomial %s" % text
        assert reports[1] == VerificationReport(False, 0, message)
        assert reports[0].ok and reports[2].ok
        with pytest.raises(ValueError, match="^fiber 1 failed "
                           "verification: %s$" % re.escape(message)):
            build_extension(HEIS, ws)


def lemmay_sum(P, mono):
    """Which of the five LemmaY sums of the module docstring builds mono.

    0 for the bilinear monomials a_j a'_i of LemmaX: each sum has its own
    shape of slots (a at even, C(a,2) at odd slots below 4n, b from 4n).
    """
    n = P.n
    if any(s >= 4 * n for s in mono):
        return 5
    if len(mono) == 3:
        return 3 if mono[1] < 2 * n else 4
    return 1 if mono[0] % 2 else 2 if mono[1] % 2 else 0


def flip_sum(s):
    return lambda P, poly: {mono: -c if lemmay_sum(P, mono) == s else c
                            for mono, c in poly.items()}


def skip_first_i(P, poly):
    # the third sum runs i over range(k + 2, n): a_i a_j a'_k with i = k+1 goes
    return {mono: c for mono, c in poly.items()
            if not (lemmay_sum(P, mono) == 3
                    and mono[0] // 2 == mono[2] // 2 - P.n + 1)}


def stray_term(P, poly):
    out = dict(poly)   # plus C(a1,2)*a2'
    out[(1, 2 * (P.n + 1))] = out.get((1, 2 * (P.n + 1)), 0) + 1
    return out


MUTANTS = [flip_sum(s) for s in range(1, 6)] + [skip_first_i, stray_term]
MUTANT_IDS = ["flip-sum-%d" % s for s in range(1, 6)] + [
    "range-k-plus-2", "stray-C(a1,2)*a2'"]


def mutate_tables(monkeypatch, mutant):
    """Make every family table pass each cocycle's polynomial through mutant."""
    polys = cocycles._polys
    monkeypatch.setattr(cocycles, "_polys", lambda P, ws: [
        mutant(P, poly) for poly in polys(P, ws)])


class TestProveCocycles:
    def test_proves_the_heisenberg_basis(self):
        reports = prove_cocycles(HEIS, lemmay_basis(HEIS))
        assert reports == [VerificationReport(True, 0,
                                              "delta w = 0 proved exactly")] * 2

    def test_names_the_first_monomial_of_delta_w(self):
        # w = 2*a3*C(a1',2) - a1'*b1, so delta w = -4*a4*a2'*a1''
        (rep,) = prove_cocycles(CHAIN, [CHAIN_BAD])
        assert rep == VerificationReport(
            False, 0, "cocycle identity fails: delta w has the monomial "
            "a4*a2'*a1''")

    def test_empty_family(self):
        assert prove_cocycles(CHAIN, []) == []

    @pytest.mark.parametrize("P", ACCEPTANCE_CORPUS, ids=ACCEPTANCE_IDS)
    def test_agrees_with_the_sampled_oracle(self, P):
        # the cocycles, and non-cocycles: a random phi and a sum holding it
        rng = random.Random(P.n * 100 + P.m)
        good = all_cocycles(P)
        bad = CocycleLemmaY(phi=[[rng.randint(-3, 3) for _ in range(P.m)]
                                 for _ in range(P.n)])
        ws = good + [bad] + [w - 2 * bad for w in good[:1]]
        proved = [r.ok for r in prove_cocycles(P, ws)]
        sampled = [r.ok for r in verify_cocycles(P, ws, trials=300, bound=10,
                                                 seed=0)]
        assert proved == sampled
        assert proved[:len(good)] == [True] * len(good)

    @pytest.mark.parametrize("mutant", MUTANTS, ids=MUTANT_IDS)
    def test_refutes_each_mutant_as_the_oracle_does(self, monkeypatch, mutant):
        P = families.random_presentation(4, 6, 5, 1)   # near-free n=4
        ws = all_cocycles(P)
        lemmay = [isinstance(w, CocycleLemmaY) for w in ws]
        assert sum(lemmay) == 20 and len(ws) == 21
        mutate_tables(monkeypatch, mutant)
        proved = [r.ok for r in prove_cocycles(P, ws)]
        sampled = [r.ok for r in verify_cocycles(P, ws, trials=300, bound=10,
                                                 seed=0)]
        assert proved == sampled
        # each mutant breaks every LemmaY cocycle; the stray term, the LemmaX one too
        expected = [False] * 21 if mutant is stray_term else \
            [not y for y in lemmay]
        assert proved == expected

    def test_refutes_a_stray_term_on_heisenberg(self, monkeypatch):
        mutate_tables(monkeypatch, stray_term)
        ws = lemmay_basis(HEIS)
        assert [r.ok for r in prove_cocycles(HEIS, ws)] == [False, False]
        assert [r.ok for r in verify_cocycles(HEIS, ws, trials=300, bound=10,
                                              seed=0)] == [False, False]

    def test_refutes_a_constant_term(self, monkeypatch):
        # delta of a constant is 0, but w(e, e) = 3 breaks normalization
        add_monomial(monkeypatch, 0, ())
        assert not prove_cocycles(HEIS, [E11])[0].ok
        assert not verify_cocycles(HEIS, [E11], trials=5, bound=3,
                                   seed=0)[0].ok

    # 3*a1' and 3*C(a1,2) on HEIS; the proof expands C(a1,2) to a1^2 - a1
    # but names the table's monomial, as the oracle does
    @pytest.mark.parametrize("mono, name", [((4,), "a1'"), ((1,), "C(a1,2)")])
    def test_normalization_is_decided_first(self, monkeypatch, mono, name):
        add_monomial(monkeypatch, 0, mono)
        rep = prove_cocycles(HEIS, [E11])[0]
        msg = "normalization fails at monomial " + name
        assert rep == VerificationReport(False, 0, msg)
        assert verify_cocycles(HEIS, [E11], trials=5, bound=3,
                               seed=0)[0].message == msg


class TestExtensions:
    def test_heisenberg_extension_associative(self):
        ext = build_extension(HEIS, [E11])
        rng = random.Random(1)
        for _ in range(1000):
            e1, e2, e3 = (ext.random_element(8, rng) for _ in range(3))
            assert ext.multiply(ext.multiply(e1, e2), e3) == \
                ext.multiply(e1, ext.multiply(e2, e3))

    def test_inverses(self):
        ext = build_extension(HEIS, [E11, CocycleLemmaX(f=(2,))])
        rng = random.Random(2)
        for _ in range(300):
            e = ext.random_element(8, rng)
            assert ext.multiply(e, ext.inverse(e)) == ext.identity()
            assert ext.multiply(ext.inverse(e), e) == ext.identity()

    def test_empty_fiber_list_is_base_arithmetic(self):
        ext = build_extension(HEIS, [])
        rng = random.Random(3)
        for _ in range(100):
            g = random_element(HEIS, 8, rng)
            h = random_element(HEIS, 8, rng)
            prod = ext.multiply(ExtElement(g, ()), ExtElement(h, ()))
            assert prod.g == multiply(HEIS, g, h)
            assert prod.t == ()

    def test_two_fibers_are_componentwise(self):
        w1 = E11
        w2 = CocycleLemmaY(phi=((0,), (1,)))
        ext = build_extension(HEIS, [w1, w2])
        single1 = build_extension(HEIS, [w1])
        single2 = build_extension(HEIS, [w2])
        rng = random.Random(4)
        for _ in range(100):
            g = random_element(HEIS, 8, rng)
            h = random_element(HEIS, 8, rng)
            both = ext.multiply(ExtElement(g, (0, 0)), ExtElement(h, (0, 0)))
            one = single1.multiply(ExtElement(g, (0,)), ExtElement(h, (0,)))
            two = single2.multiply(ExtElement(g, (0,)), ExtElement(h, (0,)))
            assert both.t == (one.t[0], two.t[0])

    def test_rejects_non_cocycle_fiber(self):
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        with pytest.raises(ValueError, match="^fiber 0 failed verification: "
                           "cocycle identity fails"):
            build_extension(CHAIN, [bad])

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_rejection_names_the_bad_fiber(self, k):
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        good = lemmax_generators(CHAIN) + lemmay_basis(CHAIN)
        with pytest.raises(ValueError,
                           match="^fiber %d failed verification" % k):
            build_extension(CHAIN, good[:k] + [bad] + good[k:] + [bad])

    def test_many_fibers_are_the_one_fiber_groups_componentwise(self):
        P = families.random_presentation(4, 6, 3, 1004)
        ws = all_cocycles(P)
        assert len(ws) == 21
        ext = build_extension(P, ws)
        singles = [build_extension(P, [w]) for w in ws]
        rng = random.Random(6)
        for _ in range(50):
            x, y = ext.random_element(6, rng), ext.random_element(6, rng)
            xy = ext.multiply(x, y)
            assert xy.g == multiply(P, x.g, y.g)
            assert xy.t == tuple(
                E.multiply(ExtElement(x.g, (s,)), ExtElement(y.g, (u,))).t[0]
                for E, s, u in zip(singles, x.t, y.t))
        for _ in range(50):
            x = ext.random_element(6, rng)
            xi = ext.inverse(x)
            assert xi.t == tuple(E.inverse(ExtElement(x.g, (s,))).t[0]
                                 for E, s in zip(singles, x.t))

    def test_draws_are_pinned(self):
        ext = build_extension(HEIS, lemmay_basis(HEIS))
        rng = random.Random("ext-draws")
        assert [(e.g.a, e.g.b, e.t) for e in (ext.random_element(5, rng)
                                              for _ in range(3))] == [
            ((0, 0), (-5,), (-2, 1)), ((3, -4), (4,), (-5, 0)),
            ((2, -3), (4,), (-4, -4))]

    @pytest.mark.parametrize("P", ACCEPTANCE_CORPUS, ids=ACCEPTANCE_IDS)
    def test_law_check_passes_one_fiber_extensions(self, P):
        for w in all_cocycles(P):
            E = build_extension(P, [w])
            for seed, trials in (("a", 1), ("b", 7), (3, 20)):
                assert E.first_law_failure(trials, 10,
                                           random.Random(seed)) is None, w

    # at bound 1 a trial can miss, so a failure can come after trial 0
    @pytest.mark.parametrize("fibers, failures", [
        (lambda good: [CHAIN_BAD],
         [("associativity", 1), ("inverse law", 2), ("associativity", 2),
          ("inverse law", 0), ("associativity", 3), ("associativity", 1)]),
        (lambda good: good[:2] + [CHAIN_BAD] + good[2:],
         [("associativity", 2), ("inverse law", 1), ("associativity", 1),
          ("inverse law", 0), ("associativity", 0), ("associativity", 1)]),
        (lambda good: [good[0], 2 * CHAIN_BAD + good[1], good[3]],
         [("inverse law", 1), ("associativity", 5), ("associativity", 1),
          ("associativity", 0), ("associativity", 0), ("inverse law", 2)]),
    ], ids=["bad", "mixed", "sum"])
    def test_law_check_catches_a_non_cocycle(self, fibers, failures):
        E = ExtensionGroup(CHAIN, tuple(fibers(all_cocycles(CHAIN))))
        assert [E.first_law_failure(40, 1, random.Random(seed))
                for seed in range(6)] == failures
        assert E.first_law_failure(40, 10, random.Random(0)) == \
            ("associativity", 0)

    def test_law_check_catches_the_inverse_law(self, monkeypatch):
        # w(g, h) = 3 a1': the fibers of (x y) z and x (y z) differ by
        # -3 a1(z), and x^-1 x has fiber 6 a1(x)
        add_monomial(monkeypatch, 0, (4,))   # the slot of a1' on HEIS
        E = ExtensionGroup(HEIS, (CocycleLemmaX(f=(0,)),))
        assert [E.first_law_failure(20, 1, random.Random(seed))
                for seed in range(10)] == [
            ("associativity", 1), ("associativity", 0), ("inverse law", 0),
            ("associativity", 0), ("associativity", 0), ("associativity", 0),
            ("associativity", 0), ("associativity", 1), ("associativity", 0),
            ("associativity", 1)]

    @pytest.mark.parametrize("trials, bound", [(100, 0), (0, 10), (100, -3)])
    def test_degenerate_sample_is_rejected(self, trials, bound):
        # a non-cocycle must not pass on an empty or all-identity sample
        E = ExtensionGroup(CHAIN, (CHAIN_BAD,))
        with pytest.raises(ValueError, match="^need trials >= 1 and bound >= 1$"):
            E.first_law_failure(trials, bound, random.Random(0))
        with pytest.raises(ValueError, match="bound must be >= 1"):
            E.random_element(0, 0)

    def test_non_cocycle_fiber_fails_associativity(self):
        # built directly, past the proof in build_extension
        bad = CocycleLemmaY(phi=((1,), (0,), (0,), (0,)))
        ext = ExtensionGroup(CHAIN, (bad,))
        law, trial = ext.first_law_failure(1000, 10, random.Random(0))
        assert law == "associativity"
        rng = random.Random(0)
        for k in range(trial + 1):
            x, y, z = (ext.random_element(10, rng) for _ in range(3))
            broken = ext.multiply(ext.multiply(x, y), z) != \
                ext.multiply(x, ext.multiply(y, z))
            assert broken == (k == trial)


def _weighted_monomials(n, m, max_weight):
    # exponent weight: 1 per a_i power, 2 per b_l power; constant excluded
    out = []

    def rec(idx, remaining, acc):
        if idx == n + m:
            if any(acc):
                out.append((tuple(acc[:n]), tuple(acc[n:])))
            return
        step = 1 if idx < n else 2
        e = 0
        while e * step <= remaining:
            rec(idx + 1, remaining - e * step, acc + [e])
            e += 1

    rec(0, max_weight, [])
    return out


def _mono_value(mono, g):
    """Value at g of the monomial with exponent vectors mono = (ea, eb)."""
    ea, eb = mono
    val = 1
    for x, e in zip(g.a + g.b, ea + eb):
        val *= x ** e
    return val


def _solve_mod_p(rows, rhs):
    """One integer solution x of rows @ x = rhs, or None.

    Gauss-Jordan elimination modulo the prime 2^61 - 1, every free unknown
    set to 0, lifted to the symmetric range. The lift is accepted only if
    it solves every row over Z; otherwise the lattice solve decides.
    """
    p, width = (1 << 61) - 1, len(rows[0])
    pivots = []  # (lead, row of [rows | rhs]): 1 at its lead, 0 at every other lead
    for vec, y in zip(rows, rhs):
        row = [e % p for e in vec] + [y % p]
        for c, prow in pivots:
            f = row[c]
            if f:
                row = [(e - f * g) % p for e, g in zip(row, prow)]
        lead = next((c for c, e in enumerate(row) if e), None)
        if lead == width:
            break  # no solution modulo p
        if lead is not None:
            inv = pow(row[lead], -1, p)
            row = [e * inv % p for e in row]
            pivots = [(c, [(e - prow[lead] * g) % p for e, g in zip(prow, row)])
                      for c, prow in pivots] + [(lead, row)]
    else:
        x = [0] * width
        for c, prow in pivots:
            x[c] = prow[width] - p if prow[width] > p // 2 else prow[width]
        if all(sum(a * v for a, v in zip(vec, x)) == y for vec, y in zip(rows, rhs)):
            return tuple(x)
    return solve_in_lattice(IntMatrix.from_rows(rows, cols=width), rhs)


def sampled_witness(P, w, max_weight, trials=1000, seed=0):
    """The sampled ansatz search: an oracle independent of the closed form.

    Every integer-coefficient monomial in (a, b) of weighted degree
    <= max_weight (a_i weighs 1, b_l weighs 2) is a candidate column. The
    linear system over sampled pairs is solved over Z by ``_solve_mod_p``,
    and the candidate is validated on ``trials`` fresh pairs. Returns the
    nonzero coefficients as {monomial: coeff}, or None; unlike the closed
    form, None is not a proof.
    """
    monos = _weighted_monomials(P.n, P.m, max_weight)
    values, _, _ = _family(P, [w])

    def value(g, h):
        return values(g, h)[0]

    for attempt, (count, tbound) in enumerate(
            ((3 * len(monos) + 16, 3), (5 * len(monos) + 32, 4))):
        rng = random.Random("%s:train:%d" % (seed, attempt))
        rows, rhs = [], []
        for _ in range(count):
            g = random_element(P, tbound, rng)
            h = random_element(P, tbound, rng)
            gh = multiply(P, g, h)
            rows.append([_mono_value(mu, g) + _mono_value(mu, h)
                         - _mono_value(mu, gh) for mu in monos])
            rhs.append(value(g, h))
        sol = _solve_mod_p(rows, rhs)
        if sol is None:
            return None
        poly = {mu: c for mu, c in zip(monos, sol) if c}

        def u(g):
            return sum(c * _mono_value(mu, g) for mu, c in poly.items())

        for t in range(trials):
            vr = random.Random("%s:val:%d" % (seed, t))
            g = random_element(P, 10, vr)
            h = random_element(P, 10, vr)
            if u(g) + u(h) - u(multiply(P, g, h)) != value(g, h):
                break
        else:
            return poly
    return None


def class_coordinates(P, f):
    """The Smith coordinates of f in Coker(C^T): x_t mod d_t, then free x_t."""
    invariants, ops, _, _ = cocycles._cokernel(P)
    x = [[y] for y in f]
    _replay(ops, x)
    r = len(invariants)
    return (tuple(y % d for (y,), d in zip(x, invariants))
            + tuple(y for y, in x[r:]))


class TestCokernelCoordinates:
    """Generators, class coordinates and witnesses read one Smith form."""

    GROUPS = ACCEPTANCE_CORPUS + [families.random_presentation(n, comb(n, 2), 5, 1)
                                  for n in range(3, 7)]
    IDS = ACCEPTANCE_IDS + ["near-free-n%d" % n for n in range(3, 7)]

    @pytest.mark.parametrize("P", GROUPS, ids=IDS)
    def test_coordinates_round_trip(self, P):
        invariants = cocycles._cokernel(P)[0]
        rows, r = comb(P.n, 2), len(invariants)
        gens = lemmax_generators(P)
        # generator k is the lift of e_t, free t first, then torsion t
        slots = list(range(r, rows)) + [t for t, d in enumerate(invariants)
                                        if d > 1]
        assert [w.order for w in gens] == [0] * (rows - r) + [
            d for d in invariants if d > 1]
        for w, t in zip(gens, slots):
            assert class_coordinates(P, w.f) == tuple(
                int(i == t) for i in range(rows))
        rng = random.Random("coordinates:%d:%d" % (P.n, P.m))
        for trial in range(12):
            # every third combination is a multiple of the orders: zero
            ks = [rng.randint(-7, 7) for _ in gens]
            if trial % 3 == 0:
                ks = [k * w.order for k, w in zip(ks, gens)]
            expect = [0] * rows
            for k, w, t in zip(ks, gens, slots):
                expect[t] = k % w.order if w.order else k
            combo = CocycleSum([(k, w) for k, w in zip(ks, gens)])
            f = [sum(k * w.f[i] for k, w in zip(ks, gens)) for i in range(rows)]
            assert class_coordinates(P, f) == tuple(expect)
            # the witness certificate runs inside; None iff the class is not 0
            assert (coboundary_witness(P, combo) is None) == any(expect)


class TestCoboundaryWitness:
    def test_zero_cocycle(self):
        wit = coboundary_witness(HEIS, 0 * E11)
        assert wit is not None and wit.is_zero()

    def test_zero_scaled_lemmax_on_abelian(self):
        P = families.abelian(2)
        w = 0 * CocycleLemmaX(f=(1,))
        wit = coboundary_witness(P, w)
        assert wit is not None and wit.is_zero()

    def test_doubled_torsion_class_has_a_witness_linear_in_b(self):
        torsion = [w for w in lemmax_generators(CHAIN) if w.order == 2]
        assert len(torsion) == 1
        wit = coboundary_witness(CHAIN, 2 * torsion[0])
        assert wit is not None
        # independent re-validation on fresh samples
        rng = random.Random(99)
        for _ in range(200):
            g = random_element(CHAIN, 10, rng)
            h = random_element(CHAIN, 10, rng)
            delta = (wit.evaluate(g) + wit.evaluate(h)
                     - wit.evaluate(multiply(CHAIN, g, h)))
            assert delta == evaluate(CHAIN, 2 * torsion[0], g, h)
        # the closed form u = -lambda . b with C^T lambda = 2f
        lam = [-c for c in wit.coeffs]
        assert ((bracket_matrix(CHAIN).transpose()
                 @ IntMatrix.column_vector(lam)).col(0)
                == tuple(2 * x for x in torsion[0].f))

    @pytest.mark.parametrize("P", CORPUS, ids=CORPUS_IDS)
    def test_sampled_oracle_finds_the_same_witness(self, P):
        for w in torsion_generators(P):
            exact = coboundary_witness(P, w.order * w)
            oracle = sampled_witness(P, w.order * w, max_weight=3)
            assert exact is not None and oracle is not None
            zero = (0,) * P.n
            assert oracle == {
                (zero, tuple(int(k == l) for k in range(P.m))): c
                for l, c in enumerate(exact.coeffs) if c}

    def test_render_puts_the_highest_b_first(self):
        P = families.random_presentation(3, 3, 3, 2)
        (w,) = torsion_generators(P)
        assert w.order == 60
        u = coboundary_witness(P, 60 * w)
        assert u.render() == "-15*b3 - 3*b2 + 8*b1"
        assert Primitive(()).render() == "0"

    def test_combination_of_lemmax_terms(self):
        # the f vectors of the terms add up
        w = torsion_generators(CHAIN)[0]
        free = lemmax_generators(CHAIN)[0]
        assert free.order == 0
        combo = w + free + w - free
        assert (coboundary_witness(CHAIN, combo).render()
                == coboundary_witness(CHAIN, 2 * w).render())
        assert coboundary_witness(CHAIN, w + free - free) is None

    def test_nontrivial_class_has_no_witness(self):
        # None from the closed form is a proof; the search agrees
        torsion = [w for w in lemmax_generators(CHAIN) if w.order == 2]
        assert coboundary_witness(CHAIN, torsion[0]) is None
        assert sampled_witness(CHAIN, torsion[0], max_weight=3,
                               trials=200) is None

    def test_order_three_witness_on_chain_336(self):
        # C^T of chain(3,3,6) is a single column, so lambda is unique
        P = families.divisor_chain_group((3, 3, 6))
        torsion = torsion_generators(P)
        assert [w.order for w in torsion] == [3]
        wit = coboundary_witness(P, 3 * torsion[0])
        assert wit is not None and wit.render() == "-b1"

    def test_wrong_primitive_raises(self, monkeypatch):
        # a u that fails validation is never returned
        def off_by_one(*args):
            x = _lattice_solution(*args)
            return (x[0] + 1,) + x[1:]

        monkeypatch.setattr(cocycles, "_lattice_solution", off_by_one)
        w = torsion_generators(CHAIN)[0]
        with pytest.raises(ArithmeticError, match="fails validation"):
            coboundary_witness(CHAIN, 2 * w)

    def test_certificate_reads_the_group_law_not_the_solve_input(
            self, monkeypatch):
        # with C = [2] read as [1], the solve returns lambda = 2 for 2f = 2,
        # and the table of u = -2*b1 in the true group law refutes it; a
        # fresh P, since a presentation keeps the cokernel it computed
        P = families.discrete_heisenberg(2)
        (w,) = torsion_generators(P)
        rows = [list(row) for row in bracket_matrix(P).to_rows()]
        assert rows == [[2]]
        rows[0][0] -= 1
        monkeypatch.setattr(cocycles, "bracket_matrix",
                            lambda Q: IntMatrix.from_rows(rows))
        with pytest.raises(ArithmeticError,
                           match=r"fails validation at a2\*a1': delta u has "
                                 r"-4, w has -2$"):
            coboundary_witness(families.discrete_heisenberg(2), 2 * w)

    def test_witness_makes_no_group_law_calls(self, monkeypatch):
        # the certificate compares tables; it multiplies and draws nothing
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        for module in (cocycles, grouplaw):
            for name in ("multiply", "draw_element"):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
        for P in CORPUS:
            for w in torsion_generators(P):
                assert coboundary_witness(P, w.order * w) is not None
        assert calls == []

    @pytest.mark.parametrize("P", NEAR_FREE_CORPUS, ids=NEAR_FREE_IDS)
    def test_witness_passes_the_sampled_oracle(self, P):
        # delta u = w on 200 pairs through grouplaw.multiply
        for w in torsion_generators(P):
            u = coboundary_witness(P, w.order * w)
            values, _, _ = _family(P, [w.order * w])
            rng = random.Random("oracle")
            for _ in range(200):
                g = random_element(P, 10, rng)
                h = random_element(P, 10, rng)
                assert (u.evaluate(g) + u.evaluate(h)
                        - u.evaluate(multiply(P, g, h))
                        == values(g, h)[0])

    @pytest.mark.parametrize("w", [E11, CocycleLemmaX(f=(1,)) + E11,
                                   "not a cocycle"],
                             ids=["lemmay", "sum-with-lemmay", "string"])
    def test_non_lemmax_term_is_rejected(self, w):
        with pytest.raises(TypeError, match="LemmaX"):
            coboundary_witness(HEIS, w)

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            coboundary_witness(HEIS, CocycleLemmaX(f=(1, 0)))


class TestCountConsistency:
    def test_matches_h2_report(self):
        for P in CORPUS:
            rep = h2(P, 1)
            xs = lemmax_generators(P)
            ys = lemmay_basis(P)
            infinite = [w for w in xs if w.order == 0]
            finite = sorted(w.order for w in xs if w.order)
            assert len(ys) == rep.hom_part_rank
            assert len(infinite) == rep.ker_c_rank
            assert len(ys) + len(infinite) == rep.total.free_rank
            assert tuple(finite) == rep.total.torsion


class TestCocycleJson:
    """The documents ``cocycles --format json`` writes, one per kind."""

    def test_lemmax_document(self):
        w = CocycleLemmaX(f=(1, -2, 0), order=4)
        assert cocycle_to_json(w) == {"kind": "lemmax", "data": [1, -2, 0], "order": 4}

    def test_lemmay_document(self):
        assert cocycle_to_json(E11) == {"kind": "lemmay", "data": [[1], [0]]}

    def test_sum_document(self):
        w = 3 * E11 - 2 * CocycleLemmaX(f=(5,))
        assert cocycle_to_json(w) == {"kind": "sum", "data": [
            {"coeff": 3, "cocycle": {"kind": "lemmay", "data": [[1], [0]]}},
            {"coeff": -2, "cocycle": {"kind": "lemmax", "data": [5], "order": 0}}]}


# Each builder puts x into one integer slot of a value type. A torsion
# order is at least 2, so that slot holds 2 * x.
INTEGER_SLOTS = {
    "IntMatrix": lambda x: IntMatrix(1, 1, [[(0, x)]]),
    "IntMatrix.rows": lambda x: IntMatrix(x, 1),
    "IntMatrix.cols": lambda x: IntMatrix(1, x),
    "IntMatrix.col": lambda x: IntMatrix(1, 2, [[(x, 5)]]),
    "AbelianGroupInvariants.free_rank": lambda x: AbelianGroupInvariants(x),
    "AbelianGroupInvariants.torsion":
        lambda x: AbelianGroupInvariants(0, (2 * x,)),
    "GroupPresentation.n": lambda x: GroupPresentation(x, 0),
    "GroupPresentation.m": lambda x: GroupPresentation(0, x),
    "GroupPresentation.key": lambda x: GroupPresentation(2, 1, {(0, x): (1,)}),
    "GroupPresentation.vector": lambda x: GroupPresentation(2, 1, {(0, 1): (x,)}),
    "GroupElement.a": lambda x: GroupElement((x,), (0,)),
    "GroupElement.b": lambda x: GroupElement((0,), (x,)),
    "ExtElement.t": lambda x: ExtElement(GroupElement((0,), ()), (x,)),
    "CocycleLemmaX.f": lambda x: CocycleLemmaX(f=(x,)),
    "CocycleLemmaX.order": lambda x: CocycleLemmaX(f=(1,), order=x),
    "CocycleLemmaY.phi": lambda x: CocycleLemmaY(phi=((x,),)),
    "CocycleSum.coefficient": lambda x: CocycleSum(((x, E11),)),
    "Primitive.coeffs": lambda x: Primitive((x,)),
    "divisor_chain_group": lambda x: families.divisor_chain_group((x,)),
}


@pytest.mark.parametrize("build", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
def test_integer_slots_take_only_integers(build):
    # int() would truncate 0.5 and parse "3"; bools are integers
    for bad in (0.5, "3"):
        with pytest.raises(TypeError):
            build(bad)
    assert build(True) == build(1)
