"""Explicit polynomial 2-cocycles, central extensions, coboundary witnesses.

Two families of normalized 2-cocycles G x G -> Z are produced, matching
the two summands of H^2:

* ``CocycleLemmaX``: from f in Hom(wedge^2 L_1, Z), the bilinear form

      w(g, h) = - sum_{i<j} a_j a'_i f_{ij}.

  Lifts of a generating set of Coker(c^*) give classes of every torsion
  order plus the infinite-order ones.

* ``CocycleLemmaY``: from phi in Hom(L_1 (x) L_2, Z) vanishing on the
  Jacobi submodule S, the degree-3 polynomial

      w(g, h) = - sum_{i>j} C(a_i,2) a'_j phi(x_i (x) c(x_i ^ x_j))
                - sum_{i>j} a_i C(a'_j,2) phi(x_j (x) c(x_i ^ x_j))
                - sum_{k<i<j} a_i a_j a'_k phi(x_j (x) c(x_i ^ x_k))
                - sum_{j<i, j<k} a_i a'_j a'_k phi(x_k (x) c(x_i ^ x_j))
                - sum_{i,l} a'_i b_l phi_{il}.

  These realize a basis of Hom((L_1 (x) L_2)/S, Z).

Integer linear combinations (``CocycleSum``) are cocycles again. Each of
the three shapes is expanded into one polynomial table, monomials in
(a, b, a', b') with integer coefficients, and no other copy of the
formulas above exists. ``render`` prints that table. Everything else
evaluates a family table, the union of the monomials of a list of
cocycles with one coefficient row per cocycle, so an extension adds all
its fibers at once. ``prove_cocycles`` proves the cocycle identity on a
table, and its sampled oracles multiply in the extension group.

A LemmaX class has a closed-form primitive: when C^T lambda = f, the
coboundary of u(g) = -lambda . b is w_f, because the group law subtracts
the collection term sum_{i<j} a_j a'_i c(i, j) from b. One Smith form
U C^T V = D per presentation gives the generators (columns of U^-1) and
lambda = V (x_t / d_t) from x = U f, or proves that none exists. A
returned u is certified by the exact identity delta u = w.
"""

import random
from functools import cache, reduce
from itertools import combinations, compress
from math import comb
from operator import index, mul

from .exactlinalg import (_Value, _lattice_solution, _set, cokernel,
                          kernel_basis)
from .grouplaw import (_check_element, draw_element, identity, inverse,
                       multiply, random_element)
from .cohomology import _jacobi_transpose, bracket_matrix, require_valid


class Cocycle:
    """Base class providing Z-linear combinations of cocycle values."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return CocycleSum(_terms(self) + _terms(other))

    def __sub__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return CocycleSum(_terms(self) + tuple((-c, p) for c, p in _terms(other)))

    def __neg__(self):
        return CocycleSum(tuple((-c, p) for c, p in _terms(self)))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return CocycleSum(tuple((k * c, p) for c, p in _terms(self)))

    __rmul__ = __mul__


def _terms(w):
    if isinstance(w, CocycleSum):
        return w.terms
    return ((1, w),)


class CocycleLemmaX(Cocycle, _Value):
    """Coordinates f of a homomorphism on wedge^2 L_1, in the pair basis.

    ``order`` records the order of the class in Coker(c^*): 0 means
    infinite, d > 1 means d-torsion. It is descriptive metadata set by
    lemmax_generators, not re-derived on construction.
    """

    __slots__ = ("f", "order")

    def __init__(self, f, order=0):
        _set(self, "f", tuple(map(index, f)))
        _set(self, "order", index(order))


class CocycleLemmaY(Cocycle, _Value):
    """Coordinates phi of a homomorphism on L_1 (x) L_2, as an n x m table."""

    __slots__ = ("phi",)

    def __init__(self, phi):
        _set(self, "phi", tuple(tuple(map(index, row)) for row in phi))


class CocycleSum(Cocycle, _Value):
    """Flattened integer combination of elementary cocycles."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        flat = []
        for c, p in terms:
            c = index(c)
            if c == 0:
                continue
            if isinstance(p, CocycleSum):
                flat.extend((c * c2, p2) for c2, p2 in p.terms)
            else:
                flat.append((c, p))
        _set(self, "terms", tuple(flat))


def lemmax_generators(P):
    """Lifts of a generating set of Coker(c^*), those of ``cokernel`` of C^T.

    Infinite-order generators come first (one per kernel dimension of c),
    then one of order d for each invariant factor d > 1 of C.
    """
    return [CocycleLemmaX._trusted(f, d) for d, f in _cokernel(P)[2]]


def _cokernel(P):
    """``cokernel`` of C^T for a valid P, computed once and kept on P."""
    require_valid(P)
    if P._cokernel is None:
        _set(P, "_cokernel", cokernel(bracket_matrix(P).transpose()))
    return P._cokernel


def lemmay_basis(P):
    """A basis of Hom((L_1 (x) L_2)/S, Z), i.e. the integer kernel of S^T.

    The kernel basis is saturated, so these phi span every homomorphism
    vanishing on S, not just a finite-index subgroup.
    """
    require_valid(P)
    K = kernel_basis(_jacobi_transpose(P)).transpose()
    return [CocycleLemmaY(phi=[vec[t * P.m:(t + 1) * P.m] for t in range(P.n)])
            for vec in map(K.row, range(K.rows))]


def all_cocycles(P):
    """The LemmaX generators, then the LemmaY basis: cocycles 1..k of a report."""
    return lemmax_generators(P) + lemmay_basis(P)


def _check_lemmax(P, w):
    if len(w.f) != comb(P.n, 2):
        raise ValueError("dimension mismatch: f has %d coordinates, expected %d"
                         % (len(w.f), comb(P.n, 2)))


def _check_lemmay(P, w):
    if len(w.phi) != P.n or any(len(row) != P.m for row in w.phi):
        raise ValueError("dimension mismatch: phi must be an %d x %d table"
                         % (P.n, P.m))


# --- the polynomial table ---------------------------------------------
#
# A factor is a slot in the coordinate vector of a point (g, h), numbered
# in render order: a_i at 2i and C(a_i,2) at 2i+1, a'_i at 2(n+i) and
# C(a'_i,2) at 2(n+i)+1, b_l at 4n+l and b'_l at 4n+m+l. A monomial is the
# sorted tuple of its factors' slots, and a polynomial maps monomials to
# coefficients, so sorted monomials come in render order. No monomial
# built here repeats a factor.


def _slot_names(P):
    """The name of each slot, as render prints it."""
    a = ["a%d%s" % (i + 1, p) for p in ("", "'") for i in range(P.n)]
    b = ["b%d%s" % (l + 1, p) for p in ("", "'") for l in range(P.m)]
    return [name for x in a for name in (x, "C(%s,2)" % x)] + b


def _poly_add(poly, coeff, mono):
    if not coeff:
        return
    new = poly.get(mono, 0) + coeff
    if new:
        poly[mono] = new
    else:
        poly.pop(mono, None)


def _lemmax_poly(P, w, poly, scale):
    _check_lemmax(P, w)
    for (i, j), f in compress(zip(combinations(range(P.n), 2), w.f), w.f):
        _poly_add(poly, -scale * f, (2 * j, 2 * (P.n + i)))


def _lemmay_poly(P, bracket, w, poly, scale):
    _check_lemmay(P, w)
    n, phi = P.n, w.phi
    # phi(x_t (x) c(x_p ^ x_q)) is _dot(bracket(p, q), phi[t]), for p > q
    for j in range(n):
        for i in range(j + 1, n):
            k1 = _dot(bracket(i, j), phi[i])
            _poly_add(poly, -scale * k1, (2 * i + 1, 2 * (n + j)))
            k2 = _dot(bracket(i, j), phi[j])
            _poly_add(poly, -scale * k2, (2 * i, 2 * (n + j) + 1))
    for k in range(n):
        for i in range(k + 1, n):
            for j in range(i + 1, n):
                wgt = _dot(bracket(i, k), phi[j])
                _poly_add(poly, -scale * wgt, (2 * i, 2 * j, 2 * (n + k)))
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(j + 1, n):
                wgt = _dot(bracket(i, j), phi[k])
                _poly_add(poly, -scale * wgt,
                          (2 * i, 2 * (n + j), 2 * (n + k)))
    for i in range(n):
        for l in range(P.m):
            _poly_add(poly, -scale * phi[i][l], (2 * (n + i), 4 * n + l))


def _cocycle_poly(P, bracket, w, poly, scale):
    if isinstance(w, CocycleLemmaX):
        _lemmax_poly(P, w, poly, scale)
    elif isinstance(w, CocycleLemmaY):
        _lemmay_poly(P, bracket, w, poly, scale)
    elif isinstance(w, CocycleSum):
        for c, p in w.terms:
            _cocycle_poly(P, bracket, p, poly, scale * c)
    else:
        raise TypeError("not a cocycle: %r" % (w,))


def _polys(P, ws):
    """The polynomial table of each cocycle in ws; brackets are read lazily."""
    bracket = cache(P.bracket_vector)
    polys = [{} for _ in ws]
    for w, poly in zip(ws, polys):
        _cocycle_poly(P, bracket, w, poly, 1)
    return polys


def _dot(u, v):
    return sum(map(mul, u, v))


def _family(P, ws):
    """The tables of the cocycles ws as one table, (values, rows, monos).

    w_k has the coefficient rows[k][i] at monos[i], the sorted union of the
    cocycles' monomials, and ``values(g, h)`` lists each w_k(g, h). It fills
    the coordinate vector of the point once, slot by slot as the table
    comment numbers them, with C(x,2) only when some monomial reads one and
    a 1 at slot -1 that pads every monomial, of at most three factors, to
    three, and sums each cocycle's terms there.
    """
    polys = _polys(P, ws)
    monos = sorted(set().union(*polys))
    four_n = 4 * P.n
    binoms = any(s % 2 for mono in monos for s in mono if s < four_n)
    rows = [[poly.get(mono, 0) for mono in monos] for poly in polys]
    terms = [(k, mono + (-1,) * (3 - len(mono)), c)
             for k, poly in enumerate(polys) for mono, c in poly.items()]

    # one vector, refilled in place at each point (a fresh list per call
    # costs criterion 6 about 8%), so a table is not for concurrent use
    x = [1] * (four_n + 2 * P.m + 1)

    def values(g, h):
        a = g.a + h.a
        x[:four_n:2] = a
        if binoms:
            x[1:four_n:2] = [v * (v - 1) // 2 for v in a]
        x[four_n:-1] = g.b + h.b
        w = [0] * len(polys)
        for k, (i, j, l), c in terms:
            w[k] += c * x[i] * x[j] * x[l]
        return w

    return values, rows, monos


def evaluate(P, w, g, h):
    """Value of the cocycle at (g, h). Assumes P already validated."""
    _check_element(P, g)
    _check_element(P, h)
    values, _, _ = _family(P, [w])
    return values(g, h)[0]


def _join_terms(terms):
    """'3*x - y + z' from (coeff, body) pairs, '0' when there are none."""
    pieces = []
    for coeff, body in terms:
        text = body if abs(coeff) == 1 else "%d*%s" % (abs(coeff), body)
        if pieces:
            text = ("- " if coeff < 0 else "+ ") + text
        elif coeff < 0:
            text = "-" + text
        pieces.append(text)
    return " ".join(pieces) or "0"


def _mono_str(names, mono):
    return "*".join(names[s] for s in mono)


def render(P, w):
    """Canonical polynomial string in a1.., b1.., a1'.., b1'.. for the cocycle.

    Deterministic: terms are emitted in the fixed monomial order, with
    C(x,2) denoting the binomial coefficient. Evaluating the string at
    integer points agrees with evaluate().
    """
    require_valid(P)
    (poly,) = _polys(P, [w])
    names = _slot_names(P)
    return _join_terms((poly[mono], _mono_str(names, mono))
                       for mono in sorted(poly))


class VerificationReport(_Value):
    __slots__ = ("ok", "trials", "message", "counterexample")

    def __init__(self, ok, trials, message="", counterexample=()):
        _set(self, "ok", ok)
        _set(self, "trials", trials)
        _set(self, "message", message)
        _set(self, "counterexample", counterexample)


def verify_cocycle(P, w, trials=1000, bound=10, seed=0):
    """The 2-cocycle identity of w, sampled, and its normalization, exact.

    The report ``verify_cocycles`` gives w, on the same draws.
    """
    return verify_cocycles(P, [w], trials, bound, seed)[0]


def verify_cocycles(P, ws, trials=1000, bound=10, seed=0):
    """One report per cocycle in ws, sampled: the oracle of ``prove_cocycles``.

    Normalization is exact: a monomial needs a primed and an unprimed factor.
    Trial t draws g, h, k seeded by (seed, t) alone, so reports are independent.
    In the extension by ws, fiber i of ((g,0)(h,0))(k,0) is w_i(g,h) + w_i(gh,k)
    and of (g,0)((h,0)(k,0)) it is w_i(h,k) + w_i(g,hk): the identity holds
    where they agree. A sampled pass is evidence, not proof.
    """
    require_valid(P)
    if trials < 1 or bound < 1:
        raise ValueError("need trials >= 1 and bound >= 1")
    values, rows, monos = _family(P, ws)
    reports = [None] * len(rows)
    n2, names = 2 * P.n, _slot_names(P)
    for k, mono in enumerate(monos):
        primed = {n2 <= s < 2 * n2 or s >= 2 * n2 + P.m for s in mono}
        if primed != {False, True}:
            msg = "normalization fails at monomial %s" % _mono_str(names, mono)
            for i, row in enumerate(rows):
                if row[k] and reports[i] is None:
                    reports[i] = VerificationReport(False, 0, msg)
    live = [i for i, rep in enumerate(reports) if rep is None]
    E = ExtensionGroup._trusted(P, tuple(ws), values)
    for t in range(trials):
        if not live:
            break
        rng = random.Random("%s:%d" % (seed, t))
        g, h, k = (draw_element(P, bound, rng) for _ in range(3))
        x, y, z = (ExtElement._trusted(e, (0,) * len(rows)) for e in (g, h, k))
        lhs = E.multiply(E.multiply(x, y), z).t
        rhs = E.multiply(x, E.multiply(y, z)).t
        for i in live:
            if lhs[i] != rhs[i]:
                msg = "cocycle identity fails at trial %d: lhs %d != rhs %d" % (
                    t, lhs[i], rhs[i])
                reports[i] = VerificationReport(False, t + 1, msg, (g, h, k))
        live = [i for i in live if reports[i] is None]
    passed = VerificationReport(ok=True, trials=trials,
                                message="no violation in %d trials" % trials)
    return [rep or passed for rep in reports]


def prove_cocycles(P, ws):
    """The reports of ``verify_cocycles``, proved: a pass has ``trials`` 0."""
    require_valid(P)
    return _prove_family(P, *_family(P, ws)[1:])


def _prove_family(P, rows, monos):
    """The reports of ``prove_cocycles`` for the rows of a family table.

    With gh = (a + a', b + b' - F(a, a')), F read from ``P.bracket``, w(g, e),
    w(e, h) and delta w = w(h,k) - w(gh,k) + w(g,hk) - w(g,h) are polynomials
    in g, h, k, expanded once per table monomial, times 8 to stay integral.
    A row passes when it combines all three to zero.
    """
    n, N = P.n, P.n + P.m

    def mul(p, q):   # a polynomial is a list of (monomial, coefficient)
        return [(tuple(sorted(m1 + m2)), c1 * c2) for m1, c1 in p for m2, c2 in q]

    def slots(x, y):   # at the point (x, y), as the table comment orders them
        return [s for z in x[:n] + y[:n]
                for s in (z, mul(z, z + [((), -1)]))] + x[n:] + y[n:]

    # variable p*N + t is coordinate t (a_t, then b_{t-n}) of g, h, k, gh, hk
    g, h, k = pts = [[[((p * N + t,), 1)] for t in range(N)] for p in range(3)]
    gh, hk = ([u + v + [((p * N + j, q * N + i), -vec[t - n])
                        for (i, j), vec in P.bracket.items() if t >= n and vec[t - n]]
               for t, (u, v) in enumerate(zip(pts[p], pts[q]))]
              for p, q in ((0, 1), (1, 2)))
    # the marker variables -2 and -1 set w(g, e) and w(e, h) apart
    sides = [(m, sign, slots(x, y)) for m, sign, x, y in (
        ((), 1, h, k), ((), -1, gh, k), ((), 1, g, hk), ((), -1, g, h),
        ((-2,), 1, g, [[]] * N), ((-1,), 1, [[]] * N, h))]
    cols = {}   # each monomial of the three -> (table position, coefficient)
    for i, mono in enumerate(monos):
        total, scale = {}, 8 >> sum(s < 4 * n and s % 2 for s in mono)
        for m, sign, vals in sides:
            for key, c in reduce(mul, (vals[s] for s in mono), [(m, sign * scale)]):
                total[key] = total.get(key, 0) + c
        for key in filter(total.get, total):
            cols.setdefault(key, []).append((i, total[key]))
    names = [("a%d" % (t + 1) if t < n else "b%d" % (t - n + 1)) + "'" * p
             for p in range(3) for t in range(N)]
    keys, reports = sorted(cols), []
    for row in rows:
        bad = next((key for key in keys
                    if sum(row[i] * c for i, c in cols[key])), None)
        if bad is None:
            msg = "delta w = 0 proved exactly"
        elif bad[0] < 0:   # named by its table monomial, as the oracle names it
            msg = "normalization fails at monomial " + _mono_str(
                _slot_names(P), monos[next(i for i, _ in cols[bad] if row[i])])
        else:
            msg = "cocycle identity fails: delta w has the monomial " + \
                "*".join(names[v] for v in bad)
        reports.append(VerificationReport(bad is None, 0, msg))
    return reports


class ExtElement(_Value):
    __slots__ = ("g", "t")

    def __init__(self, g, t):
        _set(self, "g", g)
        _set(self, "t", tuple(map(index, t)))


class ExtensionGroup(_Value):
    """Central extension of the base group by Z^r along r cocycle fibers.

    Elements are pairs (g, t) with t in Z^r, multiplied by

        (g, t) (g', t') = (g g', t + t' + (w_1(g,g'), ..., w_r(g,g'))).
    """

    __slots__ = ("base", "fibers", "_values")

    def __init__(self, base, fibers):
        _set(self, "base", base)
        _set(self, "fibers", tuple(fibers))
        # the fibers' table: a cache outside equality and repr
        _set(self, "_values", _family(base, self.fibers)[0])

    @property
    def fiber_rank(self):
        return len(self.fibers)

    def identity(self):
        return ExtElement._trusted(identity(self.base), (0,) * self.fiber_rank)

    def multiply(self, e1, e2):
        w = self._values(e1.g, e2.g)
        t = tuple(x + y + v for x, y, v in zip(e1.t, e2.t, w))
        return ExtElement._trusted(multiply(self.base, e1.g, e2.g), t)

    def inverse(self, e):
        gi = inverse(self.base, e.g)
        t = tuple(-x - w for x, w in zip(e.t, self._values(e.g, gi)))
        return ExtElement._trusted(gi, t)

    def random_element(self, bound, seed):
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        g = random_element(self.base, bound, rng)
        t = tuple(rng.randrange(-bound, bound + 1) for _ in self.fibers)
        return ExtElement._trusted(g, t)

    def first_law_failure(self, trials, bound, rng):
        """The first (law, trial) at which the group laws fail, or None.

        Each trial draws x, y, z with ``random_element(bound, rng)`` and
        decides (x y) z = x (y z) ("associativity") and x x^-1 = x^-1 x =
        e ("inverse law"), multiplying in this group.
        """
        if trials < 1 or bound < 1:
            raise ValueError("need trials >= 1 and bound >= 1")
        e = self.identity()
        for t in range(trials):
            x, y, z = (self.random_element(bound, rng) for _ in range(3))
            if self.multiply(self.multiply(x, y), z) != \
                    self.multiply(x, self.multiply(y, z)):
                return "associativity", t
            xi = self.inverse(x)
            if self.multiply(x, xi) != e or self.multiply(xi, x) != e:
                return "inverse law", t
        return None


def build_extension(P, fibers):
    """Extension group from cocycle fibers proved on their one table.

    A fiber that fails the proof raises ValueError. Otherwise (e, 0) is the
    identity as w is normalized, the product is associative as delta w = 0,
    and ``inverse`` is two-sided as delta w(g, g^-1, g) = 0, the laws that
    ``first_law_failure`` samples. No fiber gives the base group.
    """
    require_valid(P)
    fibers = tuple(fibers)
    values, rows, monos = _family(P, fibers)
    for k, rep in enumerate(_prove_family(P, rows, monos)):
        if not rep.ok:
            raise ValueError("fiber %d failed verification: %s" % (k, rep.message))
    return ExtensionGroup._trusted(P, fibers, values)  # no rebuild


class Primitive(_Value):
    """The function u(g) = sum_l coeffs[l] * b_l of one group element."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        _set(self, "coeffs", tuple(map(index, coeffs)))

    def is_zero(self):
        return not any(self.coeffs)

    def evaluate(self, g):
        return sum(c * x for c, x in zip(self.coeffs, g.b))

    def render(self):
        return _join_terms((self.coeffs[l], "b%d" % (l + 1))
                           for l in reversed(range(len(self.coeffs)))
                           if self.coeffs[l])


def coboundary_witness(P, w):
    """The primitive u of w, with u(g) + u(h) - u(gh) = w(g, h) and u(e) = 0.

    ``w`` is a LemmaX cocycle w_f or an integer combination of them, and f
    is the sum of their coordinates. The group law subtracts
    F(a, a') = sum_{i<j} a_j a'_i c(i, j) from b, so for any lambda with
    C^T lambda = f the polynomial u = -sum_l lambda_l b_l has coboundary
    exactly w. The coordinates U f of ``_cokernel`` either give such a
    lambda, and u = ``Primitive(-lambda)``, or prove that none exists:
    None means f is not in im(c^*), so w is not a coboundary. A returned
    u is certified by the exact identity delta u = w, compared monomial by
    monomial with F read from ``P.bracket``, or raises ArithmeticError.
    """
    require_valid(P)
    f = [0] * comb(P.n, 2)
    for c, term in _terms(w):
        if not isinstance(term, CocycleLemmaX):
            raise TypeError("a coboundary witness needs LemmaX terms, got %r"
                            % (term,))
        _check_lemmax(P, term)
        f = [x + c * y for x, y in zip(f, term.f)]
    invariants, ops, _, v = _cokernel(P)
    lam = _lattice_solution(invariants, ops, v, f)
    if lam is None:
        return None
    u = Primitive(-x for x in lam)
    # delta u = u . F(a, a'), F read from the group law, not from the solve
    delta = {}
    for (i, j), vec in P.bracket.items():
        _poly_add(delta, _dot(u.coeffs, vec), (2 * j, 2 * (P.n + i)))
    (poly,) = _polys(P, [w])
    for mono in sorted(set(delta) | set(poly)):
        x, y = delta.get(mono, 0), poly.get(mono, 0)
        if x != y:
            raise ArithmeticError(
                "witness fails validation at %s: delta u has %d, w has %d"
                % (_mono_str(_slot_names(P), mono), x, y))
    return u


def cocycle_to_json(w):
    if isinstance(w, CocycleLemmaX):
        return {"kind": "lemmax", "data": list(w.f), "order": w.order}
    if isinstance(w, CocycleLemmaY):
        return {"kind": "lemmay", "data": [list(row) for row in w.phi]}
    if isinstance(w, CocycleSum):
        return {"kind": "sum",
                "data": [{"coeff": c, "cocycle": cocycle_to_json(p)}
                         for c, p in w.terms]}
    raise TypeError("not a cocycle: %r" % (w,))
