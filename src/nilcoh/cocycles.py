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
evaluates a family table: the sorted union of the monomials of a list of
cocycles, with one coefficient row per cocycle. A point costs one vector
of monomial values, and each cocycle's value there is a dot product, so
verification checks all cocycles on the same draws, and an extension
multiplies all its fibers at once.

A LemmaX class has a closed-form primitive: when C^T lambda = f, the
coboundary of u(g) = -lambda . b is w_f, because the group law subtracts
the collection term sum_{i<j} a_j a'_i c(i, j) from b. So
``coboundary_witness`` is one lattice solve, and no solution proves that
w_f is not a coboundary. A returned u is certified by the exact identity
delta u = w, an equality of two bilinear tables in (a, a').
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import comb
from operator import index, mul

from .exactlinalg import (_Value, _set, cokernel_generators, kernel_basis,
                          solve_in_lattice)
from .grouplaw import _check_element, draw_element, identity, inverse, multiply
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
    """Lifts of a generating set of Coker(c^*) = Coker(bracket_matrix^T).

    Returns infinite-order generators first (one per kernel dimension of
    c), then one generator of order d for each invariant factor d > 1 of
    the bracket matrix. One Smith elimination of C^T gives both, through
    ``cokernel_generators``.
    """
    require_valid(P)
    return [CocycleLemmaX(f=f, order=d)
            for d, f in cokernel_generators(bracket_matrix(P).transpose())]


def lemmay_basis(P):
    """A basis of Hom((L_1 (x) L_2)/S, Z), i.e. the integer kernel of S^T.

    The kernel basis is saturated, so these phi span every homomorphism
    vanishing on S, not just a finite-index subgroup.
    """
    require_valid(P)
    K = kernel_basis(_jacobi_transpose(P))
    out = []
    for j in range(K.cols):
        vec = K.col(j)
        phi = tuple(tuple(vec[t * P.m + l] for l in range(P.m))
                    for t in range(P.n))
        out.append(CocycleLemmaY(phi=phi))
    return out


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
# A factor is (letter, primed, index, binom): a2 is ('a', 0, 1, 0), a1'
# is ('a', 1, 0, 0), C(a1',2) is ('a', 1, 0, 1), b1 is ('b', 0, 0, 0).
# A monomial is the sorted tuple of (factor, power) pairs; polynomials
# map monomials to coefficients. Sorting factor tuples gives the fixed
# monomial order used by render.


def _poly_add(poly, coeff, factors):
    if not coeff:
        return
    mono = tuple(sorted(Counter(factors).items()))
    new = poly.get(mono, 0) + coeff
    if new:
        poly[mono] = new
    else:
        poly.pop(mono, None)


def _lemmax_poly(P, w, poly, scale):
    _check_lemmax(P, w)
    for (i, j), f in zip(combinations(range(P.n), 2), w.f):
        _poly_add(poly, -scale * f, (("a", 0, j, 0), ("a", 1, i, 0)))


def _lemmay_poly(P, brackets, w, poly, scale):
    _check_lemmay(P, w)
    n, m = P.n, P.m
    phi = w.phi
    # phi(x_t (x) c(x_p ^ x_q)) is _dot(brackets[p, q], phi[t]), for p > q
    for j in range(n):
        for i in range(j + 1, n):
            k1 = _dot(brackets[i, j], phi[i])
            _poly_add(poly, -scale * k1, (("a", 0, i, 1), ("a", 1, j, 0)))
            k2 = _dot(brackets[i, j], phi[j])
            _poly_add(poly, -scale * k2, (("a", 0, i, 0), ("a", 1, j, 1)))
    for k in range(n):
        for i in range(k + 1, n):
            for j in range(i + 1, n):
                wgt = _dot(brackets[i, k], phi[j])
                _poly_add(poly, -scale * wgt,
                          (("a", 0, i, 0), ("a", 0, j, 0), ("a", 1, k, 0)))
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(j + 1, n):
                wgt = _dot(brackets[i, j], phi[k])
                _poly_add(poly, -scale * wgt,
                          (("a", 0, i, 0), ("a", 1, j, 0), ("a", 1, k, 0)))
    for i in range(n):
        for l in range(m):
            _poly_add(poly, -scale * phi[i][l],
                      (("a", 1, i, 0), ("b", 0, l, 0)))


def _cocycle_poly(P, brackets, w, poly, scale):
    if isinstance(w, CocycleLemmaX):
        _lemmax_poly(P, w, poly, scale)
    elif isinstance(w, CocycleLemmaY):
        _lemmay_poly(P, brackets, w, poly, scale)
    elif isinstance(w, CocycleSum):
        for c, p in w.terms:
            _cocycle_poly(P, brackets, p, poly, scale * c)
    else:
        raise TypeError("not a cocycle: %r" % (w,))


def _polys(P, ws):
    """The polynomial table of each cocycle in ws, one bracket read per pair."""
    brackets = {(p, q): P.bracket_vector(p, q)
                for q, p in combinations(range(P.n), 2)}
    polys = [{} for _ in ws]
    for w, poly in zip(ws, polys):
        _cocycle_poly(P, brackets, w, poly, 1)
    return polys


def _dot(u, v):
    return sum(map(mul, u, v))


def _family(P, ws):
    """The tables of the cocycles ws as one table, (values, rows, monos).

    ``values(g, h)`` lists the values at (g, h) of monos, the sorted union
    of the cocycles' monomials, and w_k(g, h) = rows[k] . values(g, h).
    Each factor is a slot in the coordinate vector that ``values`` builds
    once per point: a, b, a', b', then C(x,2) of a and a' when some
    monomial has one (only a and a' ever appear under C(x,2)), then the 1
    at slot -1 that pads every monomial, of at most three factors, to 3.
    """
    polys = _polys(P, ws)
    monos = sorted(set().union(*polys))
    n, width = P.n, P.n + P.m
    start = {"a": 0, "b": n}
    binoms = any(factor[3] for mono in monos for factor, _ in mono)
    slots = []
    for mono in monos:
        s = tuple(2 * width + primed * n + idx if binom
                  else start[letter] + primed * width + idx
                  for (letter, primed, idx, binom), power in mono
                  for _ in range(power))
        slots.append(s + (-1,) * (3 - len(s)))
    rows = [[poly.get(mono, 0) for mono in monos] for poly in polys]

    def values(g, h):
        x = g.a + g.b + h.a + h.b
        if binoms:
            x += tuple([v * (v - 1) // 2 for v in g.a + h.a])
        x += (1,)
        return [x[i] * x[j] * x[k] for i, j, k in slots]

    return values, rows, monos


def evaluate(P, w, g, h):
    """Value of the cocycle at (g, h). Assumes P already validated."""
    _check_element(P, g)
    _check_element(P, h)
    values, (row,), _ = _family(P, [w])
    return _dot(row, values(g, h))


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


def _factor_str(factor, power):
    letter, primed, idx, binom = factor
    name = "%s%d%s" % (letter, idx + 1, "'" if primed else "")
    s = "C(%s,2)" % name if binom else name
    if power > 1:
        s += "^%d" % power
    return s


def _mono_str(mono):
    return "*".join(_factor_str(f, p) for f, p in mono)


def render(P, w):
    """Canonical polynomial string in a1.., b1.., a1'.., b1'.. for the cocycle.

    Deterministic: terms are emitted in the fixed monomial order, with
    C(x,2) denoting the binomial coefficient. Evaluating the string at
    integer points agrees with evaluate().
    """
    require_valid(P)
    (poly,) = _polys(P, [w])
    return _join_terms((poly[mono], _mono_str(mono)) for mono in sorted(poly))


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
    """One report per cocycle in ws, from one sampled check of them all.

    Normalization is exact. Trial t draws g, h, k from a generator seeded
    by (seed, t) alone, so a cocycle's report does not depend on the
    others in ws. A sampled pass is evidence, not proof.
    """
    require_valid(P)
    if trials < 1 or bound < 1:
        raise ValueError("need trials >= 1 and bound >= 1")
    return _check_family(P, *_family(P, ws), trials, bound, seed)


def _check_family(P, values, rows, monos, trials, bound, seed):
    """The reports of ``verify_cocycles`` for the rows of a family table.

    Normalization is decided exactly: each monomial of a row needs a
    primed factor, zero at h = e, and an unprimed one, zero at g = e (the
    monomials built here are independent functions). The sampled identity
    for every row is row . D = 0 with D the one vector
    values(g,h) + values(gh,k) - values(h,k) - values(g,hk).
    """
    reports = [None] * len(rows)
    for k, mono in enumerate(monos):
        if {primed for (_, primed, _, _), _ in mono} != {0, 1}:
            msg = "normalization fails at monomial %s" % _mono_str(mono)
            for i, row in enumerate(rows):
                if row[k] and reports[i] is None:
                    reports[i] = VerificationReport(False, 0, msg)
    live = [i for i, rep in enumerate(reports) if rep is None]
    for t in range(trials):
        if not live:
            break
        rng = random.Random("%s:%d" % (seed, t))
        g, h, k = (draw_element(P, bound, rng) for _ in range(3))
        lhs = values(g, h), values(multiply(P, g, h), k)
        rhs = values(h, k), values(g, multiply(P, h, k))
        delta = [p + q - r - s for p, q, r, s in zip(*lhs, *rhs)]
        for i in live:
            row = rows[i]
            if _dot(row, delta):
                msg = "cocycle identity fails at trial %d: lhs %d != rhs %d" % (
                    t, sum(_dot(row, v) for v in lhs), sum(_dot(row, v) for v in rhs))
                reports[i] = VerificationReport(False, t + 1, msg, (g, h, k))
        live = [i for i in live if reports[i] is None]
    passed = VerificationReport(ok=True, trials=trials,
                                message="no violation in %d trials" % trials)
    return [rep or passed for rep in reports]


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

    __slots__ = ("base", "fibers", "_values", "_rows")

    def __init__(self, base, fibers):
        _set(self, "base", base)
        _set(self, "fibers", fibers)
        # the fibers' family table: a cache outside equality and repr
        values, rows, _ = _family(base, fibers)
        _set(self, "_values", values)
        _set(self, "_rows", rows)

    @property
    def fiber_rank(self):
        return len(self.fibers)

    def identity(self):
        return ExtElement._trusted(identity(self.base), (0,) * self.fiber_rank)

    def multiply(self, e1, e2):
        g = multiply(self.base, e1.g, e2.g)
        vals = self._values(e1.g, e2.g)
        t = tuple(x + y + _dot(row, vals)
                  for x, y, row in zip(e1.t, e2.t, self._rows))
        return ExtElement._trusted(g, t)

    def inverse(self, e):
        gi = inverse(self.base, e.g)
        vals = self._values(e.g, gi)
        t = tuple(-x - _dot(row, vals) for x, row in zip(e.t, self._rows))
        return ExtElement._trusted(gi, t)

    def random_element(self, bound, seed):
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        g = draw_element(self.base, bound, rng)
        t = tuple(rng.randrange(-bound, bound + 1) for _ in self.fibers)
        return ExtElement._trusted(g, t)

    def first_law_failure(self, trials, bound, rng):
        """The first (law, trial) at which the group laws fail, or None.

        Each trial draws x, y, z with ``random_element(bound, rng)`` and
        decides (x y) z = x (y z) ("associativity") and x x^-1 = x^-1 x =
        e ("inverse law") on the base group and the family table, where
        the fiber coordinates cancel: row . D = 0 with D = v(g,h) +
        v(gh,k) - v(h,k) - v(g,hk), and row . (v(g^-1,g) - v(g,g^-1)) = 0.
        """
        P, values, rows = self.base, self._values, self._rows
        e = identity(P)
        for t in range(trials):
            g, h, k = (self.random_element(bound, rng).g for _ in range(3))
            gh, hk, gi = multiply(P, g, h), multiply(P, h, k), inverse(P, g)
            delta = [p + q - r - s for p, q, r, s in zip(
                values(g, h), values(gh, k), values(h, k), values(g, hk))]
            if multiply(P, gh, k) != multiply(P, g, hk) or \
                    any(_dot(row, delta) for row in rows):
                return "associativity", t
            skew = [p - q for p, q in zip(values(gi, g), values(g, gi))]
            if multiply(P, g, gi) != e or multiply(P, gi, g) != e or \
                    any(_dot(row, skew) for row in rows):
                return "inverse law", t
        return None


def build_extension(P, fibers):
    """Extension group from verified cocycle fibers.

    All fibers are checked first, together: normalization exactly, the
    identity on one sequence of 32 sampled triples in [-5, 5]. A fiber
    that fails either raises ValueError rather than producing a broken
    multiplication table. An empty fiber list gives arithmetic identical
    to the base group.
    """
    require_valid(P)
    fibers = tuple(fibers)
    values, rows, monos = _family(P, fibers)
    reports = _check_family(P, values, rows, monos, trials=32, bound=5,
                            seed="spot")
    for k, rep in enumerate(reports):
        if not rep.ok:
            raise ValueError("fiber %d failed spot verification: %s"
                             % (k, rep.message))
    return ExtensionGroup._trusted(P, fibers, values, rows)  # no rebuild


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
    exactly w. The lattice solve either returns such a lambda, and then u
    is returned as ``Primitive(-lambda)``, or proves that none exists:
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
    lam = solve_in_lattice(bracket_matrix(P).transpose(), f)
    if lam is None:
        return None
    u = Primitive(-x for x in lam)
    # delta u = u . F(a, a'), F read from the group law, not from the solve
    delta = {}
    for (i, j), vec in P.bracket.items():
        _poly_add(delta, _dot(u.coeffs, vec), (("a", 0, j, 0), ("a", 1, i, 0)))
    (poly,) = _polys(P, [w])
    for mono in sorted(set(delta) | set(poly)):
        x, y = delta.get(mono, 0), poly.get(mono, 0)
        if x != y:
            raise ArithmeticError("witness fails validation at %s: delta u "
                                  "has %d, w has %d" % (_mono_str(mono), x, y))
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
