"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, ranks, integer kernel
bases, lattice solves, and invariant factors of subquotients of Z^k.

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
rank in ``subquotient_invariants``) drops zero rows and columns and
computes the rank over GF(2), then modulo the prime 2^61 - 1. The rank
modulo a prime is at most the rank over Q, which is at most the smaller
live dimension, so a modular rank that reaches that dimension is exact;
otherwise the Smith elimination decides.

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

from operator import attrgetter, index, mul

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
    """Immutable dense integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=()):
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ent = tuple(map(index, entries))
        if len(ent) != rows * cols:
            raise ValueError(
                "expected %d entries, got %d" % (rows * cols, len(ent)))
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows, cols=None):
        """Build from an iterable of rows; ``cols`` disambiguates the empty case."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row length")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols, rows=None):
        """Build from an iterable of columns; ``rows`` disambiguates the empty case."""
        cols = [list(c) for c in cols]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
            if rows is not None and rows != height:
                raise ValueError("rows does not match column length")
        else:
            height = 0 if rows is None else rows
        return cls(height, len(cols),
                   tuple(cols[j][i] for i in range(height) for j in range(len(cols))))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def column_vector(cls, vec):
        vec = list(vec)
        return cls(len(vec), 1, tuple(vec))

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d, %d) out of range" % (i, j))
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(self.entries[i * self.cols + j]
                               for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        cols = [other.col(j) for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols,
                         tuple(sum(map(mul, self.row(i), col))
                               for i in range(self.rows) for col in cols))

    def mul_vec(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch: %dx%d matrix times length-%d vector"
                             % (self.rows, self.cols, len(vec)))
        return tuple(sum(self.entries[i * self.cols + k] * vec[k]
                         for k in range(self.cols)) for i in range(self.rows))


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

    Returns (invariants, d, ops, cops): the invariant factors, the reduced
    matrix as a list of rows, and two records of row operations (dst, src,
    q): row dst -= q * row src, where (r, r, 2) negates row r and
    (r0, r1, None) swaps two rows. ops holds the row operations on A in
    order, and cops the column operations, last first, each as the row
    operation it makes on V: column dst -= q * column src is (src, dst, q),
    and a swap stays a swap. So ``_replay`` of a record on the rows of B
    gives U @ B from ops and V @ B from cops; ``_undo`` gives U^-1 @ B.

    Pivots are chosen by least absolute value, which keeps coefficient
    growth tame on the sparse matrices the cohomology routines produce.
    The pivot sequence depends on A alone. At stage t the rows and
    columns before t are already cleared, so operations on d touch only
    the trailing block and, for a column operation, only the rows that
    are nonzero in the pivot column.
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

    invariants = tuple(d[k][k] for k in range(lim) if d[k][k] != 0)
    cops.reverse()
    return invariants, d, ops, cops


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
    invariants, d, ops, cops = _smith(A)
    return SmithDecomposition(
        IntMatrix.from_rows(_replayed(ops, A.rows), cols=A.rows),
        IntMatrix.from_rows(d, cols=A.cols),
        IntMatrix.from_rows(_replayed(cops, A.cols), cols=A.cols), invariants)


# The prime of the rank certificate, the only modular step in this module
_PRIME = (1 << 61) - 1


def _rank_gf2(vectors):
    """Rank over GF(2) of equal-length integer vectors.

    Each vector is packed into one int, bit j holding entry j mod 2, so a
    row operation is one XOR. Stops once the rank reaches the length.
    """
    width = len(vectors[0]) if vectors else 0
    basis = {}  # leading bit -> the basis vector with that leading bit
    for vec in vectors:
        if len(basis) == width:
            break
        w = int("".join("1" if x & 1 else "0" for x in vec), 2)
        while w:
            lead = w.bit_length() - 1
            if lead not in basis:
                basis[lead] = w
                break
            w ^= basis[lead]
    return len(basis)


def _pivots_mod_p(rows, width):
    """Echelon form modulo _PRIME of ``rows``, integer vectors of length ``width``.

    The rank certificate of ``rank`` reads the number of pivots. Feeds
    rows in order, reducing each against the pivots found so far, until
    there are ``width`` pivots or the rows run out. Returns the pivots as
    (lead, row) with the row scaled to 1 at its lead, zero before it and
    zero at every earlier lead.
    """
    p = _PRIME
    pivots = []
    for vec in rows:
        if len(pivots) == width:
            break
        row = [e % p for e in vec]
        for c, prow in pivots:
            f = row[c]
            if f:
                row = [(e - f * g) % p for e, g in zip(row, prow)]
        lead = next((c for c in range(width) if row[c]), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [e * inv % p for e in row]))
    return pivots


def rank(A):
    """Rank of A over Q (equivalently over Z), certified modulo a prime first.

    Zero rows and zero columns are dropped; the rank over Q is at most
    the smaller of the remaining dimensions, ``full``. A minor that is
    nonzero modulo a prime is nonzero over Z, so the rank modulo a prime
    is at most the rank over Q. Hence when the rank over GF(2), or else
    modulo _PRIME, equals ``full``, it is the rank over Q. Only when both
    fall short does the Smith elimination decide.
    """
    if not any(A.entries):
        return 0
    rows = [row for row in A.to_rows() if any(row)]
    cols = [col for col in zip(*rows) if any(col)]
    # vectors of length full, as many as the larger dimension
    vectors = cols if len(cols) > len(rows) else list(zip(*cols))
    full = min(len(rows), len(cols))
    if _rank_gf2(vectors) == full or len(_pivots_mod_p(vectors, full)) == full:
        return full
    return len(_smith(IntMatrix.from_rows(vectors, cols=full))[0])


def cokernel(A):
    """Z^A.rows / im(A) in Smith coordinates, from one elimination.

    With U A V = D in Smith form, U carries Z^rows / im(A) onto
    Z^rows / im(D): Z_d for each invariant factor d, Z for each t = rank
    .. rows - 1. Returns the tuples (invariants, ops, lifts, V): ops, the
    row record, gives U b; lifts are (order, column t of U^-1) pairs
    lifting e_t, free first (order 0), then one per d > 1; V, replayed
    from the column record, is by rows, and A (V e_t) = d_t (U^-1 e_t).
    """
    invariants, _, ops, cops = _smith(A)
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
    invariants, _, _, cops = _smith(A)
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
    invariants, _, ops, cops = _smith(A)
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
