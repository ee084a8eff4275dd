"""Presentations and exact arithmetic for torsion-free class-2 nilpotent groups.

A group is given in normal-form coordinates: degree-1 generators
x_1, ..., x_n spanning the torsion-free abelianisation layer, central
generators y_1, ..., y_m spanning the isolated commutator layer, and
commutators [x_i, x_j] = y^bracket(i, j) for i < j. Every element is the
word x_1^{a_1} ... x_n^{a_n} y_1^{b_1} ... y_m^{b_m}, stored as the pair
of exponent vectors (a, b). The multiplication below is the collected
form of concatenating two such words, with [g, h] = g h g^-1 h^-1 as the
commutator convention.
"""

import json
import random
from itertools import combinations
from operator import index
from types import MappingProxyType

from .exactlinalg import IntMatrix, _Value, _set, rank


class PresentationFormatError(ValueError):
    """A presentation document does not match the expected schema."""


class InvalidPresentationError(ValueError):
    """An operation was given a presentation that fails validation."""

    def __init__(self, report):
        super().__init__("; ".join(report.failures) or "invalid presentation")
        self.report = report


class GroupPresentation(_Value):
    """Structure constants of a class-2 group.

    ``bracket`` maps pairs (i, j) with i < j (0-based) to the exponent
    vector of [x_i, x_j] in the central generators; absent pairs commute.
    Range checks are deferred to validate() so that deliberately broken
    presentations can still be constructed in negative tests.
    """

    __slots__ = ("n", "m", "bracket", "_report", "_cokernel")

    def __init__(self, n, m, bracket=None):
        n, m = index(n), index(m)
        data = {}
        for key, vec in dict(bracket or {}).items():
            i, j = key
            data[(index(i), index(j))] = tuple(map(index, vec))
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "bracket", MappingProxyType(data))
        _set(self, "_report", None)     # cohomology.require_valid's cache
        _set(self, "_cokernel", None)   # cocycles._cokernel's cache

    def bracket_vector(self, i, j):
        """Exponents of [x_i, x_j], extended antisymmetrically to all i, j."""
        if i == j:
            return (0,) * self.m
        if i < j:
            return self.bracket.get((i, j), (0,) * self.m)
        vec = self.bracket.get((j, i))
        return tuple(-x for x in vec) if vec else (0,) * self.m


class GroupElement(_Value):
    """Exponent vectors (a, b) of a normal-form word."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        _set(self, "a", tuple(map(index, a)))
        _set(self, "b", tuple(map(index, b)))


class ValidationReport(_Value):
    __slots__ = ("ok", "failures")

    def __init__(self, ok, failures=()):
        _set(self, "ok", ok)
        _set(self, "failures", tuple(failures))


def bracket_matrix(P):
    """The m x C(n,2) matrix of c: wedge^2 L_1 -> L_2 in the fixed bases.

    The column at pair (i, j) is bracket(i, j).
    """
    return IntMatrix._from_pairs(P.m, [
        enumerate(P.bracket.get(pair, ()))
        for pair in combinations(range(P.n), 2)]).transpose()


def validate(P):
    """Check that P presents a group of the intended kind.

    Accepts iff all bracket indices are in range with vectors of length m
    and the bracket matrix has rank m, i.e. the central layer is exactly
    the isolator of the commutator subgroup and the group is torsion-free
    class 2 (class 1 when m = 0).
    """
    failures = []
    if P.n < 0 or P.m < 0:
        failures.append("generator counts must be nonnegative")
    for (i, j), vec in sorted(P.bracket.items()):
        if not (0 <= i < j < P.n):
            failures.append("bracket pair (%d,%d) out of range" % (i + 1, j + 1))
        if len(vec) != P.m:
            failures.append("bracket pair (%d,%d) has vector of length %d, expected m = %d"
                            % (i + 1, j + 1, len(vec), P.m))
    if not failures:
        r = rank(bracket_matrix(P))
        if r < P.m:
            failures.append("rank(c) = %d < m = %d" % (r, P.m))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def identity(P):
    return GroupElement._trusted((0,) * P.n, (0,) * P.m)


def _check_element(P, g):
    if len(g.a) != P.n or len(g.b) != P.m:
        raise ValueError("dimension mismatch: element (%d,%d) vs presentation (%d,%d)"
                         % (len(g.a), len(g.b), P.n, P.m))


def _collect(P, u, v):
    """F(u, v) = sum over i < j of u_j v_i bracket(i, j), as a list.

    The one collection formula of the package: x_j^{u_j} x_i^{v_i} with
    i < j equals x_i^{v_i} x_j^{u_j} y^{-u_j v_i bracket(i, j)}, so
    collecting x^u x^v costs y^{-F(u, v)}.
    """
    out = [0] * P.m
    for (i, j), vec in P.bracket.items():
        coef = u[j] * v[i]
        if coef:
            for l in range(P.m):
                out[l] += coef * vec[l]
    return out


def multiply(P, g, h):
    """Collected product of two normal-form words."""
    _check_element(P, g)
    _check_element(P, h)
    a = tuple(x + y for x, y in zip(g.a, h.a))
    corr = _collect(P, g.a, h.a)
    return GroupElement._trusted(
        a, tuple(x + y - c for x, y, c in zip(g.b, h.b, corr)))


def inverse(P, g):
    _check_element(P, g)
    corr = _collect(P, g.a, g.a)
    return GroupElement._trusted(tuple(-x for x in g.a),
                                 tuple(-x - c for x, c in zip(g.b, corr)))


def commutator(P, g, h):
    """[g, h] = g h g^-1 h^-1; always central, with bilinear exponents."""
    _check_element(P, g)
    _check_element(P, h)
    return GroupElement._trusted(
        (0,) * P.n, tuple(x - y for x, y in zip(_collect(P, h.a, g.a),
                                                _collect(P, g.a, h.a))))


def random_element(P, bound, seed):
    """Element with exponents uniform in [-bound, bound], deterministic in seed."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return draw_element(P, bound, rng)


def draw_element(P, bound, rng):
    a = tuple(rng.randrange(-bound, bound + 1) for _ in range(P.n))
    b = tuple(rng.randrange(-bound, bound + 1) for _ in range(P.m))
    return GroupElement._trusted(a, b)


def presentation_to_json(P):
    """JSON document for P; bracket entries sorted by (i, j), 1-based."""
    brackets = [{"i": i + 1, "j": j + 1, "y": list(vec)}
                for (i, j), vec in sorted(P.bracket.items())]
    return {"n": P.n, "m": P.m, "brackets": brackets}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def presentation_from_json(data):
    """Parse a presentation document, rejecting schema violations.

    Missing pairs denote zero brackets; duplicate (i, j) entries are an
    error. Semantic checks (index ranges vs n, the rank condition) are
    validate()'s job, not the parser's.
    """
    if not isinstance(data, dict):
        raise PresentationFormatError("presentation must be a JSON object")
    for field in ("n", "m"):
        if field not in data:
            raise PresentationFormatError("missing field '%s'" % field)
        if not _is_int(data[field]) or data[field] < 0:
            raise PresentationFormatError("field '%s' must be a nonnegative integer" % field)
    m = data["m"]
    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        raise PresentationFormatError("field 'brackets' must be a list")
    bracket = {}
    for pos, item in enumerate(entries):
        if not isinstance(item, dict):
            raise PresentationFormatError("brackets[%d] must be an object" % pos)
        for field in ("i", "j", "y"):
            if field not in item:
                raise PresentationFormatError("brackets[%d] missing field '%s'" % (pos, field))
        i, j, y = item["i"], item["j"], item["y"]
        if not _is_int(i) or i < 1:
            raise PresentationFormatError("brackets[%d] field 'i' must be a positive integer" % pos)
        if not _is_int(j) or j <= i:
            raise PresentationFormatError("brackets[%d] field 'j' must be an integer > i" % pos)
        if not isinstance(y, list) or not all(_is_int(v) for v in y):
            raise PresentationFormatError("brackets[%d] field 'y' must be a list of integers" % pos)
        if len(y) != m:
            raise PresentationFormatError("brackets[%d] field 'y' has length %d, expected m = %d"
                                          % (pos, len(y), m))
        key = (i - 1, j - 1)
        if key in bracket:
            raise PresentationFormatError("duplicate bracket pair (%d,%d)" % (i, j))
        bracket[key] = tuple(y)
    return GroupPresentation(data["n"], m, bracket)


def load_presentation(text):
    """Parse a presentation from JSON text."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, or an integer past the digit limit of int();
        # RecursionError: nesting deeper than the decoder's stack
        raise PresentationFormatError("malformed JSON: %s" % exc) from exc
    return presentation_from_json(data)
