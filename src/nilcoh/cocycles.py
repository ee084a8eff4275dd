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
                - sum_{j<i<k} a_i a'_j a'_k phi(x_k (x) c(x_i ^ x_j))
                - sum_{j<k<=i} a_i a'_j a'_k phi(x_k (x) c(x_i ^ x_j))
                - sum_{i,l} a'_i b_l phi_{il}.

  These realize a basis of Hom((L_1 (x) L_2)/S, Z).

Integer linear combinations (``CocycleSum``) are cocycles again. Each of
the three shapes is expanded into one polynomial table, monomials in
(a, b, a', b') with integer coefficients; evaluation, rendering,
verification, extension building and coboundary witness search all read
that table, and no other copy of the formulas above exists.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from operator import index

from .exactlinalg import (IntMatrix, cokernel_generators, kernel_basis,
                          solve_in_lattice)
from .grouplaw import (GroupElement, _check_element, _is_int, draw_element,
                       identity, inverse, multiply)
from .cohomology import _jacobi_transpose, bracket_matrix, ordered_pairs, require_valid


class CocycleFormatError(ValueError):
    """A cocycle document does not match the expected schema."""


class Cocycle:
    """Base class providing Z-linear combinations of cocycle values."""

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


@dataclass(frozen=True)
class CocycleLemmaX(Cocycle):
    """Coordinates f of a homomorphism on wedge^2 L_1, in the pair basis.

    ``order`` records the order of the class in Coker(c^*): 0 means
    infinite, d > 1 means d-torsion. It is descriptive metadata set by
    lemmax_generators, not re-derived on construction.
    """

    f: tuple
    order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(map(index, self.f)))
        object.__setattr__(self, "order", index(self.order))


@dataclass(frozen=True)
class CocycleLemmaY(Cocycle):
    """Coordinates phi of a homomorphism on L_1 (x) L_2, as an n x m table."""

    phi: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi",
                           tuple(tuple(map(index, row)) for row in self.phi))


@dataclass(frozen=True)
class CocycleSum(Cocycle):
    """Flattened integer combination of elementary cocycles."""

    terms: tuple

    def __post_init__(self):
        flat = []
        for c, p in self.terms:
            c = index(c)
            if c == 0:
                continue
            if isinstance(p, CocycleSum):
                flat.extend((c * c2, p2) for c2, p2 in p.terms)
            else:
                flat.append((c, p))
        object.__setattr__(self, "terms", tuple(flat))


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


def _phi_bracket(P, phi, t, p, q):
    # phi(x_t (x) c(x_p ^ x_q)), antisymmetric in (p, q)
    vec = P.bracket_vector(p, q)
    return sum(vec[l] * phi[t][l] for l in range(P.m) if vec[l])


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
    for idx, (i, j) in enumerate(ordered_pairs(P.n)):
        if w.f[idx]:
            _poly_add(poly, -scale * w.f[idx],
                      (("a", 0, j, 0), ("a", 1, i, 0)))


def _lemmay_poly(P, w, poly, scale):
    _check_lemmay(P, w)
    n, m = P.n, P.m
    phi = w.phi
    for j in range(n):
        for i in range(j + 1, n):
            k1 = _phi_bracket(P, phi, i, i, j)
            _poly_add(poly, -scale * k1, (("a", 0, i, 1), ("a", 1, j, 0)))
            k2 = _phi_bracket(P, phi, j, i, j)
            _poly_add(poly, -scale * k2, (("a", 0, i, 0), ("a", 1, j, 1)))
    for k in range(n):
        for i in range(k + 1, n):
            for j in range(i + 1, n):
                wgt = _phi_bracket(P, phi, j, i, k)
                _poly_add(poly, -scale * wgt,
                          (("a", 0, i, 0), ("a", 0, j, 0), ("a", 1, k, 0)))
    for j in range(n):
        for i in range(j + 1, n):
            for k in range(i + 1, n):
                wgt = _phi_bracket(P, phi, k, i, j)
                _poly_add(poly, -scale * wgt,
                          (("a", 0, i, 0), ("a", 1, j, 0), ("a", 1, k, 0)))
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(k, n):
                wgt = _phi_bracket(P, phi, k, i, j)
                _poly_add(poly, -scale * wgt,
                          (("a", 0, i, 0), ("a", 1, j, 0), ("a", 1, k, 0)))
    for i in range(n):
        for l in range(m):
            _poly_add(poly, -scale * phi[i][l],
                      (("a", 1, i, 0), ("b", 0, l, 0)))


def _cocycle_poly(P, w, poly, scale=1):
    if isinstance(w, CocycleLemmaX):
        _lemmax_poly(P, w, poly, scale)
    elif isinstance(w, CocycleLemmaY):
        _lemmay_poly(P, w, poly, scale)
    elif isinstance(w, CocycleSum):
        for c, p in w.terms:
            _cocycle_poly(P, p, poly, scale * c)
    else:
        raise TypeError("not a cocycle: %r" % (w,))


def _compile(P, w):
    """The table of w as a function (g, h) -> w(g, h).

    Each factor becomes a slot in the coordinate vector that the function
    builds: a, b, a', b', then C(x,2) of each of those in the same order.
    Compiling costs a few evaluations, so callers that evaluate one
    cocycle many times compile it once.
    """
    poly = {}
    _cocycle_poly(P, w, poly)
    width = P.n + P.m
    start = {"a": 0, "b": P.n}
    terms = [(coeff, tuple(start[letter] + primed * width + idx
                           + binom * 2 * width
                           for (letter, primed, idx, binom), power in mono
                           for _ in range(power)))
             for mono, coeff in poly.items()]

    def value(g, h):
        x = g.a + g.b + h.a + h.b
        x += tuple([v * (v - 1) // 2 for v in x])
        total = 0
        for coeff, slots in terms:
            for s in slots:
                coeff *= x[s]
            total += coeff
        return total

    return value


def evaluate(P, w, g, h):
    """Value of the cocycle at (g, h). Assumes P already validated."""
    _check_element(P, g)
    _check_element(P, h)
    return _compile(P, w)(g, h)


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


def render(P, w):
    """Canonical polynomial string in a1.., b1.., a1'.., b1'.. for the cocycle.

    Deterministic: terms are emitted in the fixed monomial order, with
    C(x,2) denoting the binomial coefficient. Evaluating the string at
    integer points agrees with evaluate().
    """
    require_valid(P)
    poly = {}
    _cocycle_poly(P, w, poly)
    return _join_terms((poly[mono], "*".join(_factor_str(f, p) for f, p in mono))
                       for mono in sorted(poly))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    trials: int
    message: str = ""
    counterexample: tuple = ()


def verify_cocycle(P, w, trials=1000, bound=10, seed=0):
    """Sampled check of the 2-cocycle identity and normalization.

    Per-trial randomness is derived from (seed, trial index), so the
    sequence is reproducible and independent of evaluation order. Passing
    is evidence, not proof; failing returns the first counterexample.
    """
    require_valid(P)
    if trials < 1 or bound < 1:
        raise ValueError("need trials >= 1 and bound >= 1")
    value = _compile(P, w)
    e = identity(P)
    for t in range(trials):
        rng = random.Random("%s:%d" % (seed, t))
        g = draw_element(P, bound, rng)
        h = draw_element(P, bound, rng)
        k = draw_element(P, bound, rng)
        lhs = value(g, h) + value(multiply(P, g, h), k)
        rhs = value(h, k) + value(g, multiply(P, h, k))
        if lhs != rhs:
            return VerificationReport(
                ok=False, trials=t + 1,
                message="cocycle identity fails at trial %d: lhs %d != rhs %d"
                        % (t, lhs, rhs),
                counterexample=(g, h, k))
        if value(g, e) or value(e, g):
            return VerificationReport(
                ok=False, trials=t + 1,
                message="normalization fails at trial %d" % t,
                counterexample=(g,))
    return VerificationReport(ok=True, trials=trials,
                              message="no violation in %d trials" % trials)


@dataclass(frozen=True)
class ExtElement:
    g: GroupElement
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(map(index, self.t)))


@dataclass(frozen=True)
class ExtensionGroup:
    """Central extension of the base group by Z^r along r cocycle fibers.

    Elements are pairs (g, t) with t in Z^r, multiplied by

        (g, t) (g', t') = (g g', t + t' + (w_1(g,g'), ..., w_r(g,g'))).
    """

    base: object
    fibers: tuple
    _values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_values",
                           tuple(_compile(self.base, w) for w in self.fibers))

    @property
    def fiber_rank(self):
        return len(self.fibers)

    def identity(self):
        return ExtElement(identity(self.base), (0,) * self.fiber_rank)

    def multiply(self, e1, e2):
        g = multiply(self.base, e1.g, e2.g)
        t = tuple(x + y + value(e1.g, e2.g)
                  for x, y, value in zip(e1.t, e2.t, self._values))
        return ExtElement(g, t)

    def inverse(self, e):
        gi = inverse(self.base, e.g)
        t = tuple(-x - value(e.g, gi) for x, value in zip(e.t, self._values))
        return ExtElement(gi, t)

    def random_element(self, bound, seed):
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        g = draw_element(self.base, bound, rng)
        t = tuple(rng.randint(-bound, bound) for _ in range(self.fiber_rank))
        return ExtElement(g, t)


def build_extension(P, fibers, spot_trials=32, spot_bound=5, spot_seed=0):
    """Extension group from verified cocycle fibers.

    Each fiber is spot-verified first; a fiber that fails the sampled
    cocycle identity raises ValueError rather than producing a broken
    multiplication table, and so does ``spot_trials < 1``, which would
    check nothing. An empty fiber list gives arithmetic identical to the
    base group.
    """
    require_valid(P)
    if spot_trials < 1:
        raise ValueError("need spot_trials >= 1")
    fibers = tuple(fibers)
    for k, w in enumerate(fibers):
        rep = verify_cocycle(P, w, trials=spot_trials, bound=spot_bound,
                             seed="spot:%d:%s" % (k, spot_seed))
        if not rep.ok:
            raise ValueError("fiber %d failed spot verification: %s"
                             % (k, rep.message))
    return ExtensionGroup(base=P, fibers=fibers)


def _mono_val(mono, g):
    """Value at g of the monomial with exponent vectors mono = (ea, eb)."""
    ea, eb = mono
    val = 1
    for x, e in zip(g.a, ea):
        if e:
            val *= x ** e
    for x, e in zip(g.b, eb):
        if e:
            val *= x ** e
    return val


@dataclass(frozen=True)
class IntegerPolynomial:
    """Integer polynomial in the exponent coordinates of one element."""

    n: int
    m: int
    terms: tuple  # sorted ((ea, eb), coeff) pairs, coeff != 0

    @classmethod
    def from_dict(cls, n, m, data):
        terms = tuple(sorted((mono, index(c)) for mono, c in data.items() if c))
        return cls(n, m, terms)

    def is_zero(self):
        return not self.terms

    def evaluate(self, g):
        return sum(coeff * _mono_val(mono, g) for mono, coeff in self.terms)

    def render(self):
        names = (["a%d" % (i + 1) for i in range(self.n)]
                 + ["b%d" % (l + 1) for l in range(self.m)])
        return _join_terms(
            (coeff, "*".join(x + ("^%d" % e if e > 1 else "")
                             for x, e in zip(names, ea + eb) if e))
            for (ea, eb), coeff in self.terms)


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


def coboundary_witness(P, w, max_weight=3, trials=1000, seed=0):
    """Search for u with u(g) + u(h) - u(gh) = w(g, h) and u(e) = 0.

    The ansatz is every integer-coefficient monomial in (a, b) of
    weighted degree <= max_weight (a_i weighs 1, b_l weighs 2). The
    linear system over sampled pairs is solved exactly in the integer
    lattice, then the candidate is validated on ``trials`` fresh pairs.
    Returns the witness polynomial or None; absence of a witness in this
    ansatz space is a finding, not a proof of nontriviality.
    """
    require_valid(P)
    if max_weight < 1 or trials < 1:
        raise ValueError("need max_weight >= 1 and trials >= 1")
    monos = _weighted_monomials(P.n, P.m, max_weight)
    value = _compile(P, w)
    for attempt, (count, tbound) in enumerate(
            ((3 * len(monos) + 16, 3), (5 * len(monos) + 32, 4))):
        rng = random.Random("%s:train:%d" % (seed, attempt))
        rows, rhs = [], []
        for _ in range(count):
            g = draw_element(P, tbound, rng)
            h = draw_element(P, tbound, rng)
            gh = multiply(P, g, h)
            rows.append([_mono_val(mu, g) + _mono_val(mu, h) - _mono_val(mu, gh)
                         for mu in monos])
            rhs.append(value(g, h))
        sol = solve_in_lattice(IntMatrix.from_rows(rows, cols=len(monos)), rhs)
        if sol is None:
            # a genuine witness would satisfy any sampled system
            return None
        poly = IntegerPolynomial.from_dict(
            P.n, P.m, {mono: c for mono, c in zip(monos, sol)})
        valid = True
        for t in range(trials):
            vr = random.Random("%s:val:%d" % (seed, t))
            g = draw_element(P, 10, vr)
            h = draw_element(P, 10, vr)
            if (poly.evaluate(g) + poly.evaluate(h)
                    - poly.evaluate(multiply(P, g, h))) != value(g, h):
                valid = False
                break
        if valid:
            return poly
    return None


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


def _int_list(x):
    return isinstance(x, list) and all(_is_int(v) for v in x)


def cocycle_from_json(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise CocycleFormatError("cocycle must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "lemmax":
        if not _int_list(data.get("data")):
            raise CocycleFormatError("lemmax field 'data' must be a list of integers")
        if not _is_int(data.get("order", 0)):
            raise CocycleFormatError("lemmax field 'order' must be an integer")
        return CocycleLemmaX(f=tuple(data["data"]), order=data.get("order", 0))
    if kind == "lemmay":
        rows = data.get("data")
        if not isinstance(rows, list) or not all(_int_list(row) for row in rows):
            raise CocycleFormatError("lemmay field 'data' must be a list of rows "
                                     "of integers")
        return CocycleLemmaY(phi=tuple(tuple(row) for row in rows))
    if kind == "sum":
        if not isinstance(data.get("data"), list):
            raise CocycleFormatError("sum field 'data' must be a list of terms")
        terms = []
        for item in data["data"]:
            if not isinstance(item, dict) or "coeff" not in item or "cocycle" not in item:
                raise CocycleFormatError("sum terms need 'coeff' and 'cocycle' fields")
            if not _is_int(item["coeff"]):
                raise CocycleFormatError("sum term field 'coeff' must be an integer")
            terms.append((item["coeff"], cocycle_from_json(item["cocycle"])))
        return CocycleSum(tuple(terms))
    raise CocycleFormatError("unknown cocycle kind %r" % (kind,))
