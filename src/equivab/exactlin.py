"""Exact linear algebra over the rationals, on one representation: integers
over a denominator.

A `QMatrix` stores (den, sparse integer rows), den the least denominator; a
`Subspace` stores the rows of its canonical basis as the engine holds them,
each RREF row times its pivot.  Elimination (`SparseRREF`), sparse products
and every subspace operation run on those Python ints; span, membership and
zero tests ignore scale, so callers pass the rows on as they are.  A rational
row enters once, through `_integral`, and a value once, through `_exact`.
A rational (`Q`, :class:`fractions.Fraction`, the one rational type) is
formed only where a value is read: `QMatrix.entries`, `Subspace.basis`, a
solution.  A polynomial is a list of integer coefficients, low to high, an
integer multiple of the one it stands for.  There are no tolerances: ranks,
kernels, inertia and root counts are exact.  All objects are immutable; all
functions are pure.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Iterator, Sequence

Q = Fraction
_ZERO = Q(0)


def _exact(x):
    """x as an exact number: an int stays an int, a rational becomes a `Q`
    with int parts and a string like '2/3' is parsed.  Anything else raises
    TypeError: floats, numpy's float32 and every other inexact real."""
    if type(x) is int:
        return x
    if isinstance(x, Rational):
        # go through int(): the parts may be foreign integer types
        return Q(int(x.numerator), int(x.denominator))
    if isinstance(x, str):
        return Q(x)
    raise TypeError("only ints, rationals and 'p/q' strings are exact: %r" % (x,))


@dataclass(frozen=True)
class QMatrix:
    """Immutable matrix with exact rational entries, stored as the integer
    rows of den * self over den, the lcm of the entries' denominators: so
    equal matrices are equal records."""

    den: int
    # the nonzeros (column, int) of each row of den * self, by column
    int_rows: tuple[tuple[tuple[int, int], ...], ...]
    cols: int

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "QMatrix":
        data = [[_exact(x) for x in row] for row in rows]
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        den = lcm(*(x.denominator for row in data for x in row))
        return QMatrix(den, tuple(
            tuple((j, x.numerator * (den // x.denominator))
                  for j, x in enumerate(row) if x)
            for row in data
        ), cols)

    @staticmethod
    def _of(den: int, entries: Iterable[tuple[int, int]], rows: int, cols: int) -> "QMatrix":
        """The rows x cols matrix holding x / den (den > 0) at each row-major
        index k of the integer entries (k, x), given in any order, zeros
        allowed: den and the ints divided by their gcd."""
        entries = sorted((k, x) for k, x in entries if x)
        g = gcd(den, *(x for _, x in entries))
        grid: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
        for k, x in entries:
            grid[k // cols].append((k % cols, x // g))
        return QMatrix(den // g, tuple(map(tuple, grid)), cols)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(1, tuple(((i, 1),) for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix(1, ((),) * rows, cols)

    @property
    def rows(self) -> int:
        return len(self.int_rows)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rational rows, formed on first read."""
        return tuple(_dense(self.cols, row, self.den) for row in self.int_rows)

    def int_vec(self) -> dict[int, int]:
        """Row-major flattening of den * self as {index: int}, zeros dropped."""
        w = self.cols
        return {i * w + j: x for i, row in enumerate(self.int_rows) for j, x in row}

    def int_trace(self) -> int:
        """The trace of den * self."""
        return sum(x for i, row in enumerate(self.int_rows) for j, x in row if j == i)

    def transpose(self) -> "QMatrix":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.int_rows):
            for j, x in row:
                cols[j].append((i, x))
        return QMatrix(self.den, tuple(map(tuple, cols)), self.rows)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        out = _integral_product(self, other)
        return QMatrix._of(self.den * other.den, out.items(), self.rows, other.cols)


def minus_identity(m: QMatrix) -> QMatrix:
    """M - I for a square M, straight on its integer rows: den(M) M minus
    den(M) on the diagonal, over den(M).  That den stays the least: a
    common factor of den and every entry of den(M) (M - I) divides every
    entry of den(M) M."""
    den, rows = m.den, []
    for i, row in enumerate(m.int_rows):
        entries = dict(row)
        entries[i] = entries.get(i, 0) - den
        rows.append(tuple((j, x) for j, x in sorted(entries.items()) if x))
    return QMatrix(den, tuple(rows), m.cols)


def _integral_product(
    x: QMatrix, y: QMatrix, out: dict[int, int] | None = None, sign: int = 1
) -> dict[int, int]:
    """vec(XY) times the denominators of X and Y and by sign, added into out
    (a new dict by default) as {index: int} with zeros kept, from the integer
    rows of X and Y."""
    if x.cols != y.rows:
        raise ValueError("shape mismatch in matrix product")
    if out is None:
        out = {}
    get = out.get
    w, y_rows = y.cols, y.int_rows
    for i, row in enumerate(x.int_rows):
        base = i * w
        for k, a in row:
            a *= sign
            for j, b in y_rows[k]:
                key = base + j
                out[key] = get(key, 0) + a * b
    return out


def product_vec(x: QMatrix, y: QMatrix) -> tuple[int, dict[int, int]]:
    """vec(XY) in integer form (den, {index: int}), zeros dropped: its value
    is the ints over den, the product of the denominators of X and Y."""
    out = _integral_product(x, y)
    return x.den * y.den, {k: c for k, c in out.items() if c}


def bracket_vec(x: QMatrix, y: QMatrix) -> tuple[int, dict[int, int]]:
    """vec(XY - YX) in integer form (den, {index: int}), zeros dropped: both
    products accumulate into one dict."""
    out = _integral_product(y, x, _integral_product(x, y), -1)
    return x.den * y.den, {k: c for k, c in out.items() if c}


def word_basis(generators: Sequence[QMatrix], cap: int) -> list[QMatrix] | None:
    """Words in the square `generators`, I first, that form a basis of the
    algebra W they generate with I; None if that takes more than `cap`
    products.

    One incremental elimination holds the span of the words kept.  Each word
    that raises its rank is multiplied on the right by every generator, so
    the words kept span a space that holds I and is closed under right
    multiplication by the generators: that space is W."""
    n = generators[0].rows
    ident = QMatrix.identity(n)
    engine = _eliminate(n * n, [ident.int_vec()])
    words, products = [ident], 0
    # the list grows while it is read: each new word is multiplied out in turn
    for word in words:
        for g in generators:
            if engine.rank == engine.ambient:
                return words
            if products == cap:
                return None
            products += 1
            den, vec = product_vec(word, g)
            if engine.insert(vec):
                words.append(QMatrix._of(den, vec.items(), n, n))
    return words


def word_center(n: int, words: Sequence[QMatrix], gens: Sequence[QMatrix]) -> "Subspace":
    """The w in the span of `words` with [w, g] = 0 for every g in `gens`, as
    a subspace of vec(End(Q^n)).  For the words of `word_basis(gens, ...)`
    that is the center of the algebra W they span, as gens and I generate W.

    Column j stacks vec [B_j, g_i] over the generators, B_j = den(w_j) w_j
    its integer form: block i is scaled by den(g_i) in every column, which
    leaves the kernel as it is."""
    nn = n * n
    columns = []
    for w in words:
        column: dict[int, int] = {}
        for i, g in enumerate(gens):
            column.update((i * nn + k, x) for k, x in bracket_vec(w, g)[1].items())
        columns.append(column)
    coefs = kernel(len(words), rows_of(columns))
    return Subspace._span(nn, coefs.combinations([w.int_vec() for w in words]))


def lie_generating_subset(generators: Sequence[QMatrix], dim: int) -> list[int]:
    """The indices of the square `generators` that generate their Lie
    algebra, of dimension `dim`, in order: each is kept unless it lies in
    the span L of the right-normed brackets [s_1, [s_2, [..., s_r]]] of the
    kept ones before it.

    One incremental elimination holds L, the least subspace that holds the
    kept generators and is closed under ad(s) for every kept s.  Once L has
    dimension `dim`, every later generator lies in it, and none is read."""
    kept: list[int] = []
    if not dim:
        return kept
    span: list[QMatrix] = []  # a basis of L, each a right-normed bracket
    engine = SparseRREF(generators[0].rows ** 2)
    for i, g in enumerate(generators):
        if engine.rank == dim:
            break
        if not engine.insert(g.int_vec()):
            continue
        # L was closed under the ad of the generators kept before g: its
        # elements, those generators among them, take ad(g), and each new
        # element the ad of every kept generator
        work = [(g, x) for x in span]
        kept.append(i)
        span.append(g)
        while work and engine.rank < dim:
            s, x = work.pop()
            den, vec = bracket_vec(s, x)
            if engine.insert(vec):
                y = QMatrix._of(den, vec.items(), g.rows, g.rows)
                span.append(y)
                work += [(generators[k], y) for k in kept]
    return kept


def _insert_until(engine: "SparseRREF", rows: Iterable[dict[int, int]], rank: int) -> None:
    """Insert the integer rows {col: int} into engine, read lazily, and none
    once the engine has the rank the rows cannot pass."""
    if engine.rank < rank:
        for row in rows:
            engine.insert(row)
            if engine.rank == rank:
                break


def _eliminate(
    ncols: int, rows: Iterable[dict[int, int]], rank: int | None = None
) -> "SparseRREF":
    """The one sparse engine holding the span of the integer rows, read
    lazily: none once the engine has `rank`, by default ncols."""
    engine = SparseRREF(ncols)
    _insert_until(engine, rows, ncols if rank is None else rank)
    return engine


def kernel(ncols: int, rows: Iterable[dict[int, int]]) -> "Subspace":
    """The one kernel routine: canonical basis of the vectors of Q^ncols that
    every integer row {col: int} annihilates.  No row is read once the kernel
    is zero."""
    return _eliminate(ncols, rows).kernel()


def kernels(
    ncols: int, groups: Iterable[Iterable[dict[int, int]]], rank: int
) -> Iterator["Subspace"]:
    """The kernel after each group of integer rows, from one elimination: the i-th is
    kernel(ncols, rows of groups 1..i).  The caller knows the rows span at
    most `rank` dimensions, as they all vanish on a known subspace of
    dimension ncols - rank.  A group is read only when its kernel is asked
    for, and no row of it once the rank is `rank`: the kernel is then that
    subspace, and no row can change it."""
    engine = SparseRREF(ncols)
    for rows in groups:
        _insert_until(engine, rows, rank)
        yield engine.kernel()


def combine(
    coefs: Iterable[dict[int, int]], vectors: Sequence[dict[int, int]]
) -> list[dict[int, int]]:
    """sum_i c_i vectors[i] for each integer coefficient vector c {i: c_i},
    as {index: int}, zeros dropped."""
    out = []
    for c in coefs:
        v: dict[int, int] = {}
        for i, ci in c.items():
            for k, x in vectors[i].items():
                v[k] = v.get(k, 0) + ci * x
        out.append({k: x for k, x in v.items() if x})
    return out


def rows_of(columns: Iterable[dict]) -> list[dict]:
    """The rows {k: value} of the matrix whose k-th column is the sparse vector
    columns[k]: one row per key of some column, in order of first appearance.
    Integer columns give engine rows."""
    rows: dict = {}
    for k, col in enumerate(columns):
        for key, x in col.items():
            rows.setdefault(key, {})[k] = x
    return list(rows.values())


def rref(m: QMatrix) -> tuple[QMatrix, int]:
    """Reduced row-echelon form, padded with zero rows to m.rows, and rank."""
    engine = _eliminate(m.cols, map(dict, m.int_rows))
    # row i of the form is row / pivot: over the lcm of the pivots
    den = lcm(*(p for _, p, _ in engine.rows))
    entries = (
        (i * m.cols + c, x * (den // p))
        for i, (_, p, row) in enumerate(engine.rows) for c, x in row.items()
    )
    return QMatrix._of(den, entries, m.rows, m.cols), engine.rank


class SparseRREF:
    """Incremental reduced row-echelon basis with sparse integer rows.

    Each row is (pivot_col, pivot, {col: int}): primitive (its entries have
    gcd 1) with a positive pivot, and zero at every other row's pivot column,
    ordered by pivot column.  So each row is the canonical rational RREF row
    times its pivot.  `insert` and `contains` take integer rows {col: int},
    which a caller may scale freely: a row's span does not depend on it.
    Elimination is fraction-free (Bareiss): reducing v against a row with
    pivot p where v has c gives (p/g) v - (c/g) row, g = gcd(p, c).  A row,
    once held, is never changed in place, so a `Subspace` and an engine can
    share rows.  A rational value x / pivot is formed only by `read`.  This
    is the one elimination engine: `kernel`, `rref`, `solve` and `Subspace`
    all run on it, since the large systems here are sparse.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[tuple[int, int, dict[int, int]]] = []

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        """Residual of the integer row v against the current rows, up to a
        nonzero integer factor; v is consumed.  A row with pivot 1, the
        common case, is subtracted c times with no gcd and no rescale."""
        for pc, p, row in self.rows:
            c = v.get(pc)
            if not c:
                continue
            if p != 1:
                g = gcd(p, c)
                a, c = p // g, c // g
                if a != 1:
                    v = {col: a * x for col, x in v.items()}
            get = v.get
            for col, x in row.items():
                nv = get(col, 0) - c * x
                if nv:
                    v[col] = nv
                else:
                    del v[col]
        return v

    def insert(self, vec: dict[int, int]) -> bool:
        """Add the integer row vec {col: int} to the span; returns True if the
        rank increased.  vec is not changed."""
        v = self._reduce({c: x for c, x in vec.items() if x})
        if not v:
            return False
        pc = min(v)
        v = _primitive(v, v[pc])
        p = v[pc]
        for i, (qc, q, row) in enumerate(self.rows):
            c = row.get(pc)
            if not c:
                continue
            if p == 1:
                row = dict(row)
            else:
                g = gcd(p, c)
                a, c = p // g, c // g
                row = {col: a * x for col, x in row.items()} if a != 1 else dict(row)
            get = row.get
            for col, x in v.items():
                nv = get(col, 0) - c * x
                if nv:
                    row[col] = nv
                else:
                    del row[col]
            row = _primitive(row, 1)
            self.rows[i] = (qc, row[qc], row)
        insort(self.rows, (pc, p, v))
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        """Whether the integer row vec {col: int} lies in the span."""
        return not self._reduce({c: x for c, x in vec.items() if x})

    @property
    def rank(self) -> int:
        return len(self.rows)

    def read(self, i: int, cols: Iterable[int]) -> tuple[int, tuple[Fraction, ...]]:
        """The pivot column of the i-th row, in pivot order, and the values of
        its canonical RREF row at `cols`."""
        pc, p, row = self.rows[i]
        return pc, tuple(Q(row[c], p) if c in row else _ZERO for c in cols)

    def subspace(self) -> "Subspace":
        """The span of the held rows."""
        return Subspace(self.ambient, tuple(self.rows))

    def kernel(self) -> "Subspace":
        """Canonical basis of the vectors every held row annihilates, read off
        the free columns: the one for free column f is e_f - sum row[f] /
        pivot e_pc, inserted scaled to integers."""
        pivots = {pc for pc, _, _ in self.rows}
        engine = SparseRREF(self.ambient)
        for fc in range(self.ambient):
            if fc in pivots:
                continue
            hits = [(pc, p, row[fc]) for pc, p, row in self.rows if fc in row]
            den = lcm(*(p for _, p, _ in hits))
            v = {fc: den}
            for pc, p, x in hits:
                v[pc] = -x * (den // p)
            engine.insert(v)
        return engine.subspace()


def _dense(width: int, entries: Iterable[tuple[int, int]], den: int) -> tuple[Fraction, ...]:
    """The rational row of length width holding x / den at each (col, x)."""
    row = [_ZERO] * width
    for c, x in entries:
        row[c] = Q(x, den)
    return tuple(row)


def _exact_row(v: Sequence, n: int) -> dict[int, int]:
    """The vector v of n exact values, coerced, as an engine row {col: int}."""
    v = [_exact(x) for x in v]
    if len(v) != n:
        raise ValueError("vector length != ambient dimension")
    return _integral(dict(enumerate(v)))


def _integral(vec: dict) -> dict[int, int]:
    """The rational row {col: value}, zeros dropped, times the lcm of its
    denominators: {col: int}.  Parts go through int(), since a Fraction's may
    be foreign integer types."""
    den = lcm(*(int(x.denominator) for x in vec.values()))
    if den == 1:
        return {c: int(x.numerator) for c, x in vec.items() if x}
    return {
        c: int(x.numerator) * (den // int(x.denominator)) for c, x in vec.items() if x
    }


def _primitive(v: dict[int, int], sign: int) -> dict[int, int]:
    """v divided by the gcd of its entries, negated as well when sign < 0."""
    g = gcd(*v.values())
    if sign < 0:
        g = -g
    return v if g == 1 else {c: x // g for c, x in v.items()}


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n, canonicalized: its rows are the engine's rows
    (pivot column, pivot, {col: int}) of its canonical RREF basis, each basis
    row times its pivot.  Equality of subspaces is literal equality of these
    rows; `basis` forms the rational RREF rows on read.
    """

    ambient_dim: int
    rows: tuple[tuple[int, int, dict[int, int]], ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace._span(ambient_dim, (_exact_row(v, ambient_dim) for v in vectors))

    @staticmethod
    def _span(
        ambient_dim: int, vectors: Iterable[dict[int, int]], rank: int | None = None
    ) -> "Subspace":
        """Span of integer vectors given as {index: int}, read lazily.  A
        caller that knows they span at most `rank` dimensions passes it: no
        vector is read once the span has that rank, which is then the whole
        span."""
        return _eliminate(ambient_dim, vectors, rank).subspace()

    def _engine(self) -> "SparseRREF":
        """A new engine holding the rows of this subspace."""
        engine = SparseRREF(self.ambient_dim)
        engine.rows = list(self.rows)
        return engine

    @cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The canonical RREF basis, formed on first read."""
        return tuple(_dense(self.ambient_dim, row.items(), p) for _, p, row in self.rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple((i, 1, {i: 1}) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def combinations(self, vectors: Sequence[dict[int, int]]) -> list[dict[int, int]]:
        """The integer vectors {index: int} the rows of this subspace of
        Q^len(vectors) map to when e_i maps to vectors[i]."""
        return combine((row for _, _, row in self.rows), vectors)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        engine = self._engine()
        return all(engine.contains(row) for _, _, row in other.rows)

    def _check(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        engine = self._engine()
        _insert_until(engine, (row for _, _, row in other.rows), self.ambient_dim)
        return engine.subspace()

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check(other)
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient_dim)
        # coefficient vectors (a, b) with a·U = b·W over the integer rows U
        # and W: the kernel of the matrix whose columns are U and -W
        own = [row for _, _, row in self.rows]
        columns = own + [{k: -x for k, x in row.items()} for _, _, row in other.rows]
        # rows_of lists each row's entries by increasing column
        stacked = QMatrix(1, tuple(tuple(r.items()) for r in rows_of(columns)), len(columns))
        ker = nullspace(stacked)
        return Subspace._span(self.ambient_dim, ker.combinations(own + [{}] * other.dim))


def solve(m: QMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One solution of M x = b, or None if inconsistent.  The engine's rows of
    [M | b] are zero at each other's pivots, so unless b's column holds one,
    the pivot values with the free variables at 0 satisfy every row."""
    bvec = [_exact(x) for x in b]
    if len(bvec) != m.rows:
        raise ValueError("rhs length mismatch")
    n = m.cols

    def augmented(row, y):
        # the row [M_i | y] of the system times den(M) den(y)
        yd = int(y.denominator)
        out = {j: x * yd for j, x in row}
        out[n] = int(y.numerator) * m.den
        return out

    engine = _eliminate(n + 1, map(augmented, m.int_rows, bvec))
    x = [_ZERO] * n
    for i in range(engine.rank):
        pc, (value,) = engine.read(i, (n,))
        if pc == n:
            return None
        x[pc] = value
    return tuple(x)


def nullspace(m: QMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}."""
    return kernel(m.cols, map(dict, m.int_rows))


def common_nullspace(mats: Sequence[QMatrix]) -> Subspace:
    """Joint kernel of a family of operators with equal column count: the
    rows of every operator go into one sparse elimination."""
    if not mats:
        raise ValueError("empty operator family has no defined ambient")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ValueError("ambient dimension mismatch")
    return kernel(cols, map(dict, chain.from_iterable(m.int_rows for m in mats)))


def trace_form(s: Subspace, n: int) -> QMatrix:
    """Gram matrix of (x, y) -> tr(xy) on the integer rows of s, a subspace
    of vec(End(Q^n)).  The rows are the canonical basis times positive
    pivots, so the form is congruent to the one on that basis: it has the
    same inertia."""
    rows = [row for _, _, row in s.rows]
    # tr(XY) is the sum of X_ab Y_ba over the nonzeros X_ab of flattened X
    d = len(rows)
    gram = (
        (i * d + j, sum(x * w.get((k % n) * n + k // n, 0) for k, x in v.items()))
        for i, v in enumerate(rows) for j, w in enumerate(rows)
    )
    return QMatrix._of(1, gram, d, d)


def inertia(sym: QMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) squares of the symmetric form `sym`, by one
    symmetric elimination (Sylvester's law of inertia).  It pivots on a nonzero
    diagonal entry and goes on with the Schur complement.  When the live
    diagonal is zero but some a_ij is not, the congruence that adds row j to
    row i and column j to column i first makes a_ii = 2 a_ij.  It runs on the
    integer form den * sym: each complement is kept times the positive
    |pivot| and divided by the gcd of its entries, positive rescalings that
    keep the inertia."""
    if sym.transpose() != sym:
        raise ValueError("inertia of a non-symmetric matrix")
    n = sym.rows
    a = [[0] * n for _ in range(n)]
    for i, row in enumerate(sym.int_rows):
        for j, x in row:
            a[i][j] = x
    live = list(range(n))
    pos = neg = 0
    while live:
        i = next((k for k in live if a[k][k]), None)
        if i is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for c in live:
                a[i][c] += a[j][c]
            for r in live:
                a[r][i] += a[r][j]
        p = a[i][i]
        pos, neg = (pos + 1, neg) if p > 0 else (pos, neg + 1)
        live.remove(i)
        # |p| (A - a_i a_i^T / p) = sign(p) (p A - a_i a_i^T)
        sign = 1 if p > 0 else -1
        for r in live:
            ar, row = a[r][i], a[r]
            for c in live:
                row[c] = sign * (p * row[c] - ar * a[i][c])
        g = gcd(*(a[r][c] for r in live for c in live))
        if g > 1:
            for r in live:
                for c in live:
                    a[r][c] //= g
    return pos, neg, len(live)


# ---------------------------------------------------------------------------
# univariate polynomials


def minimal_polynomial(m: QMatrix) -> list[int]:
    """Least-degree p with p(M) = 0, via the first Krylov dependence, as
    primitive integer coefficients, low to high, with a positive leading one.

    One elimination holds the rows [vec(M^j) | e_j] for j < k.  Reducing
    [vec(M^k) | e_k] against them leaves [vec(M^k) - sum c_j vec(M^j) |
    e_k - sum c_j e_j], whose vec part is zero at the first dependence: the
    e part of that primitive engine row then holds the coefficients of p."""
    n = m.rows
    if n != m.cols:
        raise ValueError("minimal polynomial of non-square matrix")
    nn = n * n
    engine = SparseRREF(nn + n + 1)
    power = QMatrix.identity(n)
    for k in range(n + 1):
        # [vec(M^k) | e_k] times the denominator of M^k
        row = power.int_vec()
        row[nn + k] = power.den
        engine.insert(row)
        # rows are ordered by pivot, and only a zero vec part puts one at nn
        # or past it
        pc, _, last = engine.rows[-1]
        if pc >= nn:
            coeffs = [last.get(c, 0) for c in range(nn, nn + k + 1)]
            return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]
        power = power @ m
    raise AssertionError("no minimal polynomial found below n+1")


def _primitive_poly(cs: list[int]) -> list[int]:
    """The integer coefficients cs, low to high, with high zeros dropped and
    divided by their positive content."""
    while cs and not cs[-1]:
        cs.pop()
    g = gcd(*cs)
    return cs if g <= 1 else [c // g for c in cs]


def _sturm_next(a: list[int], b: list[int]) -> list[int]:
    """-rem(a, b) times a positive rational, as primitive integer coefficients,
    for integer a and b of degrees deg a >= deg b > 0.

    Pseudo-division runs d + 1 = deg a - deg b + 1 steps, each multiplying by
    lc(b): it leaves r = lc(b)^(d+1) rem(a, b), negated when that factor is
    positive."""
    lead, db = b[-1], len(b) - 1
    r = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        # lead * r minus the multiple of b that cancels its top coefficient
        c, shift = r.pop(), top - db
        r = [lead * x for x in r]
        for i in range(db):
            r[shift + i] -= c * b[i]
    if lead > 0 or (len(a) - db) % 2 == 0:
        r = [-x for x in r]
    return _primitive_poly(r)


def _variations(signs: list[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(p: Sequence[int]) -> tuple[int, int]:
    """(distinct real roots, complex conjugate pairs) of a squarefree p, given
    by its integer coefficients, low to high.

    Uses Sturm's theorem over (-inf, inf) with exact sign evaluation.  The
    sequence p, p', -rem(p, p'), ... runs on primitive integer coefficient
    lists: each term is its rational one times a positive number, which keeps
    every sign at +-inf.
    """
    f = _primitive_poly(list(p))
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return 0, 0
    seq = [f, _primitive_poly([i * c for i, c in enumerate(f)][1:])]
    while len(seq[-1]) > 1:
        seq.append(_sturm_next(seq[-2], seq[-1]))
    # the sequence is Euclid's algorithm on (p, p'): a zero remainder leaves
    # gcd(p, p') nonconstant
    if not seq[-1]:
        raise ValueError("polynomial is not squarefree")
    at_pos = _variations([1 if q[-1] > 0 else -1 for q in seq])
    at_neg = _variations([(1 if q[-1] > 0 else -1) * (-1) ** (len(q) - 1) for q in seq])
    real = at_neg - at_pos
    pairs, rem = divmod(len(f) - 1 - real, 2)
    if rem:
        raise AssertionError("parity violation in root count")
    return real, pairs


# ---------------------------------------------------------------------------
# integer lattices


def _hnf_columns(w: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite reduction: returns (H, U) with W U = H, U unimodular,
    and the zero columns of H pushed to the right."""
    rows = len(w)
    cols = len(w[0]) if rows else 0
    h = [list(r) for r in w]
    u = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def addmul(dst, src, f):
        for i in range(rows):
            h[i][dst] += f * h[i][src]
        for i in range(cols):
            u[i][dst] += f * u[i][src]

    def swap(a, b):
        for i in range(rows):
            h[i][a], h[i][b] = h[i][b], h[i][a]
        for i in range(cols):
            u[i][a], u[i][b] = u[i][b], u[i][a]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # euclidean elimination along row r among columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if h[r][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(h[r][j]))
            swap(pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, cols):
                if h[r][j] != 0:
                    f = -(h[r][j] // h[r][pivot_col])
                    addmul(j, pivot_col, f)
                    if h[r][j] != 0:
                        done = False
            if done:
                break
        if h[r][pivot_col] != 0:
            pivot_col += 1
    return h, u


def integer_kernel_saturated(w: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the lattice {a in Z^n : W a = 0}.

    The result is saturated by construction: it is a basis of
    ker_Q(W) intersected with Z^n, obtained from a unimodular column
    reduction of W.
    """
    rows = [list(map(int, r)) for r in w]
    if not rows:
        raise ValueError("empty weight matrix")
    cols = len(rows[0])
    h, u = _hnf_columns(rows)
    out = []
    for j in range(cols):
        if all(h[i][j] == 0 for i in range(len(rows))):
            out.append(tuple(u[i][j] for i in range(cols)))
    return out


def lattice_contains(basis: Sequence[Sequence[int]], vectors: Iterable[Sequence[int]]) -> bool:
    """Whether every vector lies in the integer span of the basis vectors (an
    empty basis spans only 0).  Each is reduced against one row-style Hermite
    basis of that lattice: the nonzero columns of the column reduction of the
    basis vectors' transpose, whose pivots strictly increase."""
    hermite = []
    if basis:
        n = len(basis[0])
        ht, _ = _hnf_columns([[int(v[i]) for v in basis] for i in range(n)])
        hermite = [
            (next(j for j, x in enumerate(row) if x), row) for row in zip(*ht) if any(row)
        ]
    for v in vectors:
        rem = [int(x) for x in v]
        for piv, row in hermite:
            f, r = divmod(rem[piv], row[piv])
            if r:
                return False
            rem = [a - f * b for a, b in zip(rem, row)]
        if any(rem):
            return False
    return True
