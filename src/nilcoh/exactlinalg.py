"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, ranks, integer kernel
bases, lattice solves, and invariant factors of subquotients of Z^k.

An ``IntMatrix`` stores only the nonzeros of each row, as (col, value)
pairs sorted by column. The maps of H^2 (the bracket matrix C, the Jacobi
relations S, the blocks of the complex route) have a few nonzeros per
row, and their builders emit only those; products, transposes and
``rank`` walk them, and a dense row is a view built when read.

One elimination, two records: ``_smith`` carries no transform. It
records its row operations, and its column operations, last first, as
the row operations they make on V; ``_replay`` of either record on the
rows of B gives U @ B or V @ B, and ``_undo`` of the row record U^-1 @ B.
A caller that needs no transform replays nothing: ``quotient_invariants``
(the closed form of ``cohomology.h2``, and the torsion in
``subquotient_invariants``, so in the complex route of ``h2``), and
``rank`` when the modular certificate below does not answer.
``kernel_basis`` (``cocycles.lemmay_basis``) replays the column record on
the kernel columns of the identity alone; the lattice solves, ``cokernel``
(``cocycles``' LemmaX generators and witnesses, from one elimination of
C^T) and ``smith_normal_form`` (the SNF acceptance criterion) replay both.

All arithmetic uses Python's arbitrary-precision integers; there are no
floats. The one modular step is the rank certificate. ``rank`` (behind
``grouplaw.validate``, the Jacobi rank in ``cohomology.h2`` and the free
rank in ``subquotient_invariants``) reads the live rows, those with a
nonzero, and computes their rank over GF(2), each row packed into one int
as the sum of 1 << j over its odd entries, then modulo the prime
2^61 - 1. The rank modulo a prime is at most the rank over Q, which is at
most the smaller live dimension, so a modular rank that reaches that
dimension is exact; otherwise the Smith elimination decides.

Matrices with zero rows or columns are legal everywhere and denote zero
maps, which the higher-level modules rely on for degenerate groups.

Every value type of the package (matrices and invariants here, group
elements and presentations, cocycles, reports) derives from ``_Value``.
Its ``__slots__`` name its fields; ``__init__`` coerces and checks them
once and sets them with ``_set``, and afterwards assigning or deleting an
attribute raises AttributeError. Two values are equal when they have the
same class and equal public fields, and the hash and repr read the same
fields; a slot whose name starts with ``_`` is a cache outside all three.
"""

from itertools import compress, repeat
from operator import attrgetter, index, itemgetter, mul

_set = object.__setattr__


class _Value:
    """Immutable record: equality, hash and repr by class and public slots."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__
                            if not name.startswith("_"))
        # attrgetter with one name returns the bare value, which still
        # compares and hashes consistently within the class
        cls._key = attrgetter(*cls._fields)

    @classmethod
    def _trusted(cls, *values):
        """An instance from field values that are already coerced and checked."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(obj, name, value)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s"
                             % (name, type(self).__name__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (name, getattr(self, name))
                                     for name in self._fields))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which recomputes caches
        return type(self), tuple(getattr(self, name) for name in self._fields)


class IntMatrix(_Value):
    """Immutable integer matrix, stored as the nonzeros of its rows.

    ``nonzeros`` holds one tuple per row of its (col, value) pairs, sorted
    by column, with no zero value; the constructor takes each row's pairs
    in any order, drops zeros and rejects a repeated column. Omitted, it
    is the zero matrix. ``entries`` (row-major), ``row``, ``col``,
    ``entry`` and ``to_rows`` are dense views, built when read.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows, cols, nonzeros=None):
        rows, cols = index(rows), index(cols)
        nz = ((),) * rows if nonzeros is None else tuple(
            tuple(sorted(filter(itemgetter(1), [
                (index(j), index(x)) for j, x in pairs]))) for pairs in nonzeros)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(nz) != rows:
            raise ValueError("expected %d rows, got %d" % (rows, len(nz)))
        if any(row and (row[0][0] < 0 or row[-1][0] >= cols
                        or len(dict(row)) < len(row)) for row in nz):
            raise ValueError("columns must be distinct, in 0 .. %d" % (cols - 1))
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "nonzeros", nz)

    @classmethod
    def _from_pairs(cls, cols, rows):
        """From rows of (col, int) pairs made in the package, unchecked."""
        return cls._trusted(len(rows), cols, tuple(
            tuple(sorted(filter(itemgetter(1), row))) for row in rows))

    @classmethod
    def from_rows(cls, rows, cols=None):
        """Build from an iterable of rows; ``cols`` disambiguates the empty case."""
        rows = [list(map(index, r)) for r in rows]
        width = len(rows[0]) if rows else cols or 0
        if cols not in (None, width) or any(len(r) != width for r in rows):
            raise ValueError("ragged vectors, or not of the given length")
        return cls(len(rows), width, [compress(enumerate(r), r) for r in rows])

    @classmethod
    def from_cols(cls, cols, rows=None):
        """Build from an iterable of columns; ``rows`` disambiguates the empty case."""
        return cls.from_rows(cols, rows).transpose()

    @classmethod
    def identity(cls, n):
        return cls(n, n, [((i, 1),) for i in range(n)])

    @classmethod
    def column_vector(cls, vec):
        return cls.from_rows(([x] for x in vec), cols=1)

    @property
    def entries(self):
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) out of range" % (i, j))
        return dict(self.nonzeros[i]).get(j, 0)

    def row(self, i):
        return tuple(map(dict(self.nonzeros[i]).get, range(self.cols), repeat(0)))

    def col(self, j):
        return tuple(dict(row).get(j, 0) for row in self.nonzeros)

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row:
                cols[j].append((i, x))
        return IntMatrix._trusted(self.cols, self.rows, tuple(map(tuple, cols)))

    def is_zero(self):
        return not any(self.nonzeros)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        if other.is_zero():
            return IntMatrix(self.rows, other.cols)
        out = []
        for row in self.nonzeros:
            acc = {}
            for k, x in row:
                for j, y in other.nonzeros[k]:
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc.items())
        return IntMatrix._from_pairs(other.cols, out)


class SmithDecomposition(_Value):
    """U @ A @ V == D with U, V unimodular and D the invariant-factor diagonal.

    The diagonal of D is d_1, ..., d_k, 0, ..., 0 with d_1 | d_2 | ... | d_k
    and every d_i >= 1; ``invariants`` is exactly (d_1, ..., d_k), so its
    length is the rank of A.
    """

    __slots__ = ("U", "D", "V", "invariants")

    def __init__(self, U, D, V, invariants):
        _set(self, "U", U)
        _set(self, "D", D)
        _set(self, "V", V)
        _set(self, "invariants", invariants)

    @property
    def rank(self):
        return len(self.invariants)


def _smith(A):
    """Smith elimination of A, recording its row and column operations.

    Returns (invariants, ops, cops): the invariant factors, which the
    reduced matrix holds on its diagonal, and two records of row
    operations (dst, src, q): row dst -= q * row src, where (r, r, 2)
    negates row r and (r0, r1, None) swaps two rows. ops holds the row
    operations on A in order, and cops the column operations, last first,
    each as the row operation it makes on V: column dst -= q * column src
    is (src, dst, q), and a swap stays a swap. So ``_replay`` of a record
    on the rows of B gives U @ B from ops and V @ B from cops; ``_undo``
    gives U^-1 @ B.

    The working rows d are A's rows as dense lists: elimination fills
    them in, and list arithmetic outruns dict arithmetic there. The pivot
    is the nonzero of least absolute value, the first in row-major order
    on a tie, which keeps coefficient growth tame on the sparse matrices
    the cohomology routines produce. The pivot sequence depends on A
    alone. At stage t the rows and columns before t are already cleared,
    so operations on d touch only the trailing block and, for a column
    operation, only the rows that are nonzero in the pivot column.
    """
    m, n = A.rows, A.cols
    d = A.to_rows()
    ops, cops = [], []

    def swap_cols(c0, c1):
        cops.append((c0, c1, None))
        for row in d:
            row[c0], row[c1] = row[c1], row[c0]

    def row_op(dst, src, q):
        # one operation of the row record, done on d; both rows are zero
        # before column t, the current stage
        ops.append((dst, src, q))
        if q is None:
            d[dst], d[src] = d[src], d[dst]
        else:
            drow, srow = d[dst], d[src]
            for k in range(t, n):
                drow[k] -= q * srow[k]

    def col_axpy(dst, src, q, live):
        # col dst -= q * col src, which is row src -= q * row dst of V;
        # live: the rows of d nonzero at src
        cops.append((src, dst, q))
        for row in live:
            row[dst] -= q * row[src]

    def least_nonzero(t):
        best, pos = None, None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, pos = ax, (i, j)
                        if best == 1:
                            return pos
        return pos

    lim = min(m, n)
    t = 0
    while t < lim:
        pos = least_nonzero(t)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            if i0 != t:
                row_op(t, i0, None)
            if j0 != t:
                swap_cols(t, j0)
            if d[t][t] < 0:
                row_op(t, t, 2)
            p = d[t][t]
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    row_op(i, t, x // p)
            live = [row for row in d[t:] if row[t]]
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    col_axpy(j, t, x // p, live)
            # leftover cross entries are remainders with |x| < p: re-pivot
            dirty = any(d[i][t] for i in range(t + 1, m)) or \
                any(d[t][j] for j in range(t + 1, n))
            if dirty:
                pos = least_nonzero(t)
                continue
            bad = None
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % p:
                        bad = (i, j)
                        break
                if bad:
                    break
            if bad is None:
                break
            # fold the offending row into the cross so the next pass shrinks the pivot
            row_op(t, bad[0], -1)
            pos = (t, t)
        t += 1

    cops.reverse()
    return tuple(d[k][k] for k in range(t)), ops, cops


def _replay(ops, rows):
    """U @ B or V @ B in place, for B a list of rows and ops a ``_smith`` record."""
    for dst, src, q in ops:
        if q is None:
            rows[dst], rows[src] = rows[src], rows[dst]
        else:
            rows[dst] = [x - q * y for x, y in zip(rows[dst], rows[src])]


def _undo(ops, rows):
    """U^-1 @ B in place: each recorded operation inverted, last first."""
    # a swap, or a negation (r, r, 2), is its own inverse
    _replay([(d, s, q if q is None or d == s else -q)
             for d, s, q in reversed(ops)], rows)


def _replayed(ops, n):
    """A record replayed on the n x n identity: U from ops, V from cops."""
    rows = IntMatrix.identity(n).to_rows()
    _replay(ops, rows)
    return rows


def smith_normal_form(A):
    """Smith normal form of an integer matrix, with both transforms.

    For callers that read U and V, each a record replayed on the identity:
    the SNF acceptance criterion. Callers that need less use ``rank``,
    ``quotient_invariants`` (no transform), ``kernel_basis`` (V's kernel
    columns) or ``cokernel`` (the row record, U^-1 lifts and V). Works for
    any shape including empty ones.
    """
    invariants, ops, cops = _smith(A)
    diagonal = [[(t, d)] for t, d in enumerate(invariants)]
    return SmithDecomposition(
        IntMatrix.from_rows(_replayed(ops, A.rows), cols=A.rows),
        IntMatrix(A.rows, A.cols, diagonal + [()] * (A.rows - len(diagonal))),
        IntMatrix.from_rows(_replayed(cops, A.cols), cols=A.cols), invariants)


# The prime of the rank certificate, the only modular step in this module
_PRIME = (1 << 61) - 1


def _rank_gf2(vectors, width):
    """Rank over GF(2) of sparse integer vectors, (j, x) pairs each, up to ``width``.

    A vector is packed into one int, the sum of 1 << j over its odd
    entries, so a row operation is one XOR.
    """
    basis = {}  # leading bit -> the basis vector with that leading bit
    for vec in vectors:
        if len(basis) == width:
            break
        w = sum(1 << j for j, x in vec if x & 1)
        while w:
            lead = w.bit_length() - 1
            if lead not in basis:
                basis[lead] = w
                break
            w ^= basis[lead]
    return len(basis)


def _pivots_mod_p(vectors, width):
    """Echelon form modulo _PRIME of sparse integer vectors, up to ``width`` pivots.

    Reduces each vector in turn against the pivots so far; returns them as
    lead -> row, a dict j -> x with least j the lead, scaled to 1 there.
    """
    p = _PRIME
    pivots = {}
    for vec in vectors:
        if len(pivots) == width:
            break
        row = {j: x % p for j, x in vec if x % p}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[lead]
            for j, y in prow.items():
                row[j] = (row.get(j, 0) - f * y) % p
            row = {j: x for j, x in row.items() if x}
    return pivots


def rank(A):
    """Rank of A over Q (equivalently over Z), certified modulo a prime first.

    The rank over Q is at most ``full``, the smaller of the numbers of
    live rows and columns. A minor that is nonzero modulo a prime is
    nonzero over Z, so when the rank of the live rows over GF(2), or else
    modulo _PRIME, reaches ``full``, it is the rank over Q. Only when both
    fall short does the Smith elimination decide.
    """
    rows = [row for row in A.nonzeros if row]
    full = min(len(rows), len({j for row in rows for j, _ in row}))
    if not full or _rank_gf2(rows, full) == full or \
            len(_pivots_mod_p(rows, full)) == full:
        return full
    return len(_smith(A)[0])


def cokernel(A):
    """Z^A.rows / im(A) in Smith coordinates, from one elimination.

    With U A V = D in Smith form, U carries Z^rows / im(A) onto
    Z^rows / im(D): Z_d for each invariant factor d, Z for each t = rank
    .. rows - 1. Returns the tuples (invariants, ops, lifts, V): ops, the
    row record, gives U b; lifts are (order, column t of U^-1) pairs
    lifting e_t, free first (order 0), then one per d > 1; V, replayed
    from the column record, is by rows, and A (V e_t) = d_t (U^-1 e_t).
    """
    invariants, ops, cops = _smith(A)
    picks = [(0, t) for t in range(len(invariants), A.rows)] + [
        (d, t) for t, d in enumerate(invariants) if d > 1]
    cols = [[int(i == t) for _, t in picks] for i in range(A.rows)]
    _undo(ops, cols)
    return (invariants, tuple(ops),
            tuple(zip([d for d, _ in picks], zip(*cols))),
            tuple(map(tuple, _replayed(cops, A.cols))))


def kernel_basis(A):
    """Basis of the integer kernel of A, as columns of a cols x k matrix.

    The basis is the columns rank .. cols - 1 of V, the column record
    replayed on those columns of the identity alone. It is saturated: it
    spans ker(A) over Q, and as columns of a unimodular matrix it extends
    to a basis of Z^cols, so its span over Z is a direct summand.
    """
    invariants, _, cops = _smith(A)
    r = len(invariants)
    cols = [[int(i == j) for j in range(r, A.cols)] for i in range(A.cols)]
    _replay(cops, cols)
    return IntMatrix.from_rows(cols, cols=A.cols - r)


class AbelianGroupInvariants(_Value):
    """A finitely generated abelian group in canonical invariant-factor form.

    Z^free_rank (+) Z_{t_1} (+) ... (+) Z_{t_k} with every t_i >= 2 and
    t_1 | t_2 | ... | t_k.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tor = tuple(map(index, torsion))
        for t in tor:
            if t < 2:
                raise ValueError("torsion orders must be >= 2, got %d" % t)
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")
        _set(self, "free_rank", free_rank)
        _set(self, "torsion", tor)

    @classmethod
    def free(cls, k):
        return cls(k, ())

    def repeat(self, r):
        """Direct sum of r copies (coefficient modules Z^r act one copy at a time)."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        return AbelianGroupInvariants(self.free_rank * r,
                                      tuple(t for t in self.torsion
                                            for _ in range(r)))

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z_%d" % t for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def quotient_invariants(ambient_rank, gens):
    """Invariants of Z^ambient_rank / (column span of gens)."""
    if gens.rows != ambient_rank:
        raise ValueError("dimension mismatch: generators live in Z^%d, ambient rank is %d"
                         % (gens.rows, ambient_rank))
    invariants = _smith(gens)[0]
    return AbelianGroupInvariants(ambient_rank - len(invariants),
                                  tuple(x for x in invariants if x > 1))


def _lattice_solution(invariants, ops, v, b):
    """The integer x with A x = b, or None, from the row record and V of A.

    A x = b iff D (V^-1 x) = U b: (U b)_t must be divisible by d_t below
    the rank and zero beyond it; the quotients mapped through V give x.
    """
    c = [[y] for y in b]
    _replay(ops, c)
    r = len(invariants)
    if any(y for y, in c[r:]) or any(y % d for (y,), d in zip(c, invariants)):
        return None
    w = [y // d for (y,), d in zip(c, invariants)]
    return tuple(sum(map(mul, row, w)) for row in v)


def _solve_many(A, B):
    """Integer solutions X of A @ X = B, or None if some column has none.

    One Smith elimination of A serves every column of B through
    ``_lattice_solution``; V's rows are replayed once from the column record.
    """
    if A.rows != B.rows:
        raise ValueError("dimension mismatch: %d equations, rhs has %d rows"
                         % (A.rows, B.rows))
    invariants, ops, cops = _smith(A)
    v = _replayed(cops, A.cols)
    cols = [_lattice_solution(invariants, ops, v, B.col(j))
            for j in range(B.cols)]
    if None in cols:
        return None
    return IntMatrix.from_cols(cols, rows=A.cols)


def solve_in_lattice(A, b):
    """One integer solution x of A x = b, or None if b is not in the column lattice."""
    X = _solve_many(A, IntMatrix.column_vector(b))
    return X.col(0) if X is not None else None


def subquotient_invariants(out_map, in_map):
    """Invariants of ker(out_map) / im(in_map), with no kernel basis or solve.

    Requires out_map @ in_map = 0; raises ValueError("not a complex")
    otherwise. With k = out_map.cols, Z^k / ker(out_map) embeds in a free
    group, so it is free and ker(out_map) is a direct summand of Z^k.
    Hence ker / im has the torsion of Z^k / im(in_map) and free rank
    (k - rank out_map) - rank in_map.
    """
    if out_map.cols != in_map.rows:
        raise ValueError("dimension mismatch: maps do not compose")
    if not (out_map @ in_map).is_zero():
        raise ValueError("not a complex")
    q = quotient_invariants(out_map.cols, in_map)
    return AbelianGroupInvariants(q.free_rank - rank(out_map), q.torsion)
