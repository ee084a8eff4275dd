"""The acceptance suite: every check the package promises, runnable anywhere.

Each criterion is a zero-argument callable returning (ok, detail). The
test suite asserts them one by one and the ``selftest`` command runs the
same list, so there is a single source of truth. The oracles used here
(fraction-free determinants and ranks, closed-form ranks) are computed
by different algorithms than the code paths they check.
"""

import random
import time
from fractions import Fraction
from math import comb

from . import cocycles, cohomology, families
from .exactlinalg import AbelianGroupInvariants, IntMatrix, smith_normal_form
from .grouplaw import multiply, random_element


def bareiss_determinant(rows):
    """Fraction-free determinant; shares no code with the Smith routine."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def fraction_rank(rows):
    """Rank over Q by exact Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            if a[i][j]:
                fac = a[i][j] / a[r][j]
                for jj in range(j, ncols):
                    a[i][jj] -= fac * a[r][jj]
        r += 1
        if r == nrows:
            break
    return r


_CHAINS = ((2, 4), (3, 3, 6), (1, 2, 4, 8))  # in the corpus and criterion 1


def corpus():
    """The named presentations the sampled criteria run over."""
    groups = [("heisenberg", families.heisenberg())]
    for k in range(1, 7):
        groups.append(("abelian(%d)" % k, families.abelian(k)))
    for d in (2, 3, 6):
        groups.append(("heisenberg-variant(d=%d)" % d,
                       families.discrete_heisenberg(d)))
    for chain in _CHAINS:
        groups.append(("divisor-chain%s" % (chain,),
                       families.divisor_chain_group(chain)))
    return groups


def check_divisor_chain_regression():
    """H^2 of the divisor-chain family matches its closed form, under 1s each."""
    details = []
    for chain in _CHAINS:
        k = len(chain)
        P = families.divisor_chain_group(chain)
        t0 = time.perf_counter()
        rep = cohomology.h2(P, 1)
        dt = time.perf_counter() - t0
        expected = AbelianGroupInvariants(
            comb(2 * k, 2) - 1, (chain[0],) if chain[0] > 1 else ())
        if rep.total != expected:
            return False, "chain %s gave %s, expected %s" % (chain, rep.total, expected)
        if not rep.agree:
            return False, "chain %s: complex path gave %s" % (chain, rep.crosscheck)
        if dt >= 1.0:
            return False, "chain %s took %.2fs, budget is 1s" % (chain, dt)
        details.append("%s -> %s" % (chain, rep.total))
    return True, "; ".join(details)


def check_dual_path_agreement():
    """Closed form and complex path agree on 200 random presentations, r in {1,2}."""
    rng = random.Random(20)
    t0 = time.perf_counter()
    for idx in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(0, min(3, comb(n, 2)))
        P = families.random_presentation(n, m, 5, rng.randrange(10 ** 9))
        for r in (1, 2):
            rep = cohomology.h2(P, r)
            if not rep.agree:
                return False, ("presentation %d (n=%d, m=%d, r=%d): %s vs %s"
                               % (idx, n, m, r, rep.total, rep.crosscheck))
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        return False, "took %.1fs, budget is 60s" % dt
    return True, "200 presentations x r in {1,2} agree"


def check_known_values():
    """Hand-computable groups give the classical answers."""
    H = families.heisenberg()
    if cohomology.h1(H, 1) != AbelianGroupInvariants(2):
        return False, "H^1(heisenberg) = %s" % cohomology.h1(H, 1)
    if cohomology.h1(families.abelian(3), 2) != AbelianGroupInvariants(6):
        return False, "H^1(Z^3, Z^2) wrong"
    rep = cohomology.h2(H, 1)
    if rep.total != AbelianGroupInvariants(2) or not rep.agree:
        return False, "H^2(heisenberg) = %s" % rep.total
    if cohomology.second_homology_rank(H) != 2:
        return False, "b_2(heisenberg) = %d" % cohomology.second_homology_rank(H)
    for n in range(0, 7):
        rep = cohomology.h2(families.abelian(n), 1)
        if rep.total != AbelianGroupInvariants(comb(n, 2)) or not rep.agree:
            return False, "H^2(Z^%d) = %s" % (n, rep.total)
    if cohomology.h2(families.abelian(3), 2).total != AbelianGroupInvariants(6):
        return False, "H^2(Z^3, Z^2) wrong"
    for d in (2, 3, 5, 12):
        rep = cohomology.h2(families.discrete_heisenberg(d), 1)
        if rep.total != AbelianGroupInvariants(2, (d,)) or not rep.agree:
            return False, "H^2([x,y]=z^%d) = %s" % (d, rep.total)
    return True, "heisenberg, abelian n<=6, d-variants d in {2,3,5,12}"


def check_cocycle_identity():
    """Every produced cocycle passes 1000 sampled identity checks exactly."""
    total = 0
    for name, P in corpus():
        ws = cocycles.all_cocycles(P)
        for rep in cocycles.verify_cocycles(P, ws, trials=1000, bound=10,
                                            seed=0):
            if not rep.ok:
                return False, "%s: %s" % (name, rep.message)
        total += len(ws)
    return True, "%d cocycles x 1000 trials, bound 10, seed 0" % total


def check_extension_soundness():
    """The extension by all the cocycles, as ``extend`` builds it, of each
    corpus group is associative with two-sided inverses on 1000 triples."""
    for name, P in corpus():
        E = cocycles.build_extension(P, cocycles.all_cocycles(P))
        failure = E.first_law_failure(1000, 10, random.Random("ext:%s" % name))
        if failure is not None:
            return False, "%s: %s fails at trial %d" % ((name,) + failure)
    return True, ("%d extensions by all their cocycles x 1000 triples"
                  % len(corpus()))


def check_count_consistency():
    """Cocycle inventory matches the invariants reported by h2."""
    for name, P in corpus():
        gens = cocycles.lemmax_generators(P)
        ys = cocycles.lemmay_basis(P)
        rep = cohomology.h2(P, 1)
        free = sum(1 for w in gens if w.order == 0) + len(ys)
        torsion = tuple(w.order for w in gens if w.order)
        if free != rep.total.free_rank:
            return False, ("%s: %d free cocycles vs free rank %d"
                           % (name, free, rep.total.free_rank))
        if torsion != rep.total.torsion:
            return False, ("%s: torsion orders %s vs %s"
                           % (name, torsion, rep.total.torsion))
    return True, "free counts and torsion orders match on the whole corpus"


def check_snf_properties():
    """500 random matrices: exact decomposition, unimodularity, chain, rank."""
    rng = random.Random(8)
    for trial in range(500):
        nrows = rng.randint(0, 8)
        ncols = rng.randint(0, 8)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)],
            cols=ncols)
        s = smith_normal_form(A)
        if (s.U @ A) @ s.V != s.D:
            return False, "trial %d: U A V != D" % trial
        if abs(bareiss_determinant(s.U.to_rows())) != 1:
            return False, "trial %d: U not unimodular" % trial
        if abs(bareiss_determinant(s.V.to_rows())) != 1:
            return False, "trial %d: V not unimodular" % trial
        diag = [s.D.row(i)[i] for i in range(min(nrows, ncols))]
        if any(i != j for i, row in enumerate(s.D.nonzeros) for j, _ in row):
            return False, "trial %d: D not diagonal" % trial
        nz = [d for d in diag if d]
        if nz + [0] * (len(diag) - len(nz)) != diag:
            return False, "trial %d: zeros interleave the diagonal" % trial
        if any(d < 0 for d in diag) or any(b % a for a, b in zip(nz, nz[1:])):
            return False, "trial %d: invariants not a positive chain" % trial
        if len(s.invariants) != fraction_rank(A.to_rows()):
            return False, "trial %d: rank %d vs elimination %d" % (
                trial, len(s.invariants), fraction_rank(A.to_rows()))
    return True, "500 matrices, dims <= 8, entries in [-9,9]"


def check_coboundary_witness():
    """Twice the order-2 class is a coboundary, and the class itself is not."""
    P = families.divisor_chain_group((2, 4))
    finite = [w for w in cocycles.lemmax_generators(P) if w.order]
    if len(finite) != 1 or finite[0].order != 2:
        return False, "expected one order-2 generator, got %s" % (
            [w.order for w in finite],)
    w = finite[0]
    u = cocycles.coboundary_witness(P, 2 * w)
    if u is None:
        return False, "twice the order-2 class has no primitive"
    for t in range(1000):  # an oracle: the certificate never multiplies
        rng = random.Random("0:val:%d" % t)
        g, h = (random_element(P, 10, rng) for _ in range(2))
        if (u.evaluate(g) + u.evaluate(h) - u.evaluate(multiply(P, g, h))
                != cocycles.evaluate(P, 2 * w, g, h)):
            return False, "delta u != 2w at pair %d" % t
    if cocycles.coboundary_witness(P, w) is not None:
        return False, "the order-2 class itself has a primitive"
    return True, ("2w = coboundary of u = %s, validated on 1000 fresh "
                  "pairs; w is not a coboundary, since f is outside im(c^*) "
                  "(a proof)" % u.render())


# Number 5 is retired and the others keep theirs, which the docs and the
# test ids cite.
CRITERIA = (
    ("1 divisor-chain H^2 regression", check_divisor_chain_regression),
    ("2 dual-path agreement on 200 random groups", check_dual_path_agreement),
    ("3 known cohomology values", check_known_values),
    ("4 cocycle identity for produced cocycles", check_cocycle_identity),
    ("6 extension soundness", check_extension_soundness),
    ("7 cocycle counts match h2", check_count_consistency),
    ("8 smith normal form property suite", check_snf_properties),
    ("9 coboundary witness for doubled torsion class", check_coboundary_witness),
)


def run_all(write=print):
    """Run every criterion, print one line each, return overall success.

    A criterion that raises fails with the exception as its detail, and
    the remaining criteria still run.
    """
    all_ok = True
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        write("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
        all_ok = all_ok and ok
    return all_ok
