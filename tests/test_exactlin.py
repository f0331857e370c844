"""Property and oracle tests for the exact rational linear algebra kernel."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exact_oracles import complement_in, is_zero, minus, mul_vec, plus, rank, scale, vec

from equivab import exactlin
from equivab.exactlin import (
    Q,
    QMatrix,
    SparseRREF,
    Subspace,
    _integral,
    bracket_vec,
    common_nullspace,
    count_real_roots,
    inertia,
    integer_kernel_saturated,
    kernel,
    kernels,
    lattice_contains,
    minimal_polynomial,
    minus_identity,
    nullspace,
    product_vec,
    rows_of,
    rref,
    solve,
)

# numpy scalars by (type name, value): no float subclasses, and inexact
NUMPY_FLOATS = [
    pytest.param((name, x), id="%s-%s" % (name, x))
    for name, x in (("float32", 0.1), ("float32", 0.5), ("float16", 0.25))
]


def _inexact(x):
    """x, or numpy's scalar for x = (type name, value), skipping without numpy."""
    if isinstance(x, tuple):
        np = pytest.importorskip("numpy")
        return getattr(np, x[0])(x[1])
    return x


rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 7)
)


def q_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(QMatrix.from_rows)
        )
    )


# about two thirds zeros, so that products skip most terms
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


@st.composite
def sparse_matrices(draw, rows, cols):
    """A rows x cols matrix of sparse rationals, maybe with a zero row and a
    zero column."""
    m = [[draw(sparse_rationals) for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.none() | st.integers(0, rows - 1))
    if zero_row is not None:
        m[zero_row] = [Fraction(0)] * cols
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    if zero_col is not None:
        for row in m:
            row[zero_col] = Fraction(0)
    return QMatrix.from_rows(m)


def square_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(QMatrix.from_rows)
    )


def to_sympy(m: QMatrix) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row]
         for row in m.entries]
    )


# ---------------------------------------------------------------------------
# RREF and rank


class TestRREF:
    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, m):
        red, rk = rref(m)
        red2, rk2 = rref(red)
        assert red2 == red
        assert rk2 == rk

    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_sympy(self, m):
        assert rank(m) == to_sympy(m).rank()

    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_matches_sympy(self, m):
        red, _ = rref(m)
        sym_red, _ = to_sympy(m).rref()
        assert to_sympy(red) == sym_red

    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_row_space_preserved(self, m):
        red, _ = rref(m)
        original = Subspace.from_vectors(m.cols, m.entries)
        reduced = Subspace.from_vectors(m.cols, red.entries)
        assert original == reduced

    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + nullspace(m).dim == m.cols


class TestSolveAndNullspace:
    @given(q_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_vectors_annihilate(self, m):
        ker = nullspace(m)
        for v in ker.basis:
            assert all(x == 0 for x in mul_vec(m, v))

    @given(square_matrices(), st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_solve_verifies(self, m, b):
        b = (b * m.rows)[: m.rows]
        sol = solve(m, b)
        if sol is not None:
            assert mul_vec(m, sol) == tuple(Fraction(x) for x in b)
        else:
            # sympy agrees the system is inconsistent
            aug = to_sympy(m).row_join(sympy.Matrix([[x] for x in b]))
            assert aug.rank() > to_sympy(m).rank()

    @given(
        q_matrices().filter(lambda m: m.rows != m.cols),
        st.lists(rationals, min_size=5, max_size=5),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_solve_tall_and_wide(self, m, xs, consistent):
        # b = M x0 is consistent by construction; otherwise b is arbitrary
        b = mul_vec(m, xs[: m.cols]) if consistent else tuple(xs[: m.rows])
        sol = solve(m, b)
        aug = to_sympy(m).row_join(to_sympy(QMatrix.from_rows([[x] for x in b])))
        assert (sol is None) == (aug.rank() > to_sympy(m).rank())
        if sol is not None:
            assert len(sol) == m.cols
            assert mul_vec(m, sol) == tuple(b)

    @pytest.mark.parametrize("rows, b", [
        # rank 2: the reduced rows [1, 0, 1] and [0, 1, 1] are nonzero at the
        # free column, which the solution sets to 0
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [6, 12, 2]),
        # rank 2 with two free columns, both nonzero in the reduced rows
        ([[2, 1, 0, 3], [4, 2, 1, 0], [6, 3, 1, 3]], [1, "1/2", "3/2"]),
    ])
    def test_solve_rank_deficient_with_free_columns(self, rows, b):
        m = QMatrix.from_rows(rows)
        assert rank(m) == 2
        sol = solve(m, b)
        assert mul_vec(m, sol) == tuple(Fraction(x) for x in b)

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            QMatrix.from_rows([[0.5]])

    @pytest.mark.parametrize("x", NUMPY_FLOATS)
    def test_numpy_float_entries_rejected(self, x):
        # numpy's float32 and float16 are no float subclasses; 0.1 as a
        # float32 is 13421773/134217728, not 1/10
        with pytest.raises(TypeError):
            QMatrix.from_rows([[_inexact(x)]])


class TestKernel:
    @given(st.integers(0, 4).flatmap(lambda r: st.tuples(
        st.just(r),
        st.lists(st.lists(sparse_rationals, min_size=r, max_size=r), max_size=5),
    )))
    @settings(max_examples=100, deadline=None)
    def test_kernel_of_columns_matches_nullspace(self, shape):
        # zero columns are frequent, and r = 0 has no rows at all; the engine
        # takes each row scaled to integers
        r, cols = shape
        sparse = [{i: Q(x) for i, x in enumerate(col) if x} for col in cols]
        dense = [[col[i] for col in cols] for i in range(r)] or [[0] * len(cols)]
        expected = nullspace(QMatrix.from_rows(dense))
        assert kernel(len(cols), map(_integral, rows_of(sparse))) == expected
        if r == 0:
            assert expected == Subspace.full(len(cols))

    def test_no_row_read_once_rank_is_full(self):
        read = []

        def rows():
            for k in range(4):
                read.append(k)
                yield {k % 2: 1, 2: k}

        assert kernel(2, rows()).dim == 0
        assert read == [0, 1]
        assert kernel(0, rows()).dim == 0
        assert read == [0, 1]

    @given(st.integers(1, 4).flatmap(lambda c: st.tuples(
        st.just(c),
        st.lists(st.lists(st.lists(sparse_rationals, min_size=c, max_size=c),
                          max_size=3), max_size=4),
    )))
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_kernel_of_each_prefix(self, shape):
        c, groups = shape
        sparse = [[_integral(dict(enumerate(row))) for row in g] for g in groups]
        got = list(kernels(c, sparse, c))
        assert len(got) == len(groups)
        for i, ker in enumerate(got, 1):
            assert ker == kernel(c, [row for g in sparse[:i] for row in g])

    def test_kernels_read_a_group_only_when_asked(self):
        asked, read = [], []

        def group(k):
            for row in ({k: 1}, {0: 1, 1: 1}):
                read.append(k)
                yield row

        def groups():
            for k in range(3):
                asked.append(k)
                yield group(k)

        stream = kernels(2, groups(), 2)
        assert next(stream).dim == 0
        assert (asked, read) == ([0], [0, 0])
        # the kernel is zero: the next group is asked for, but none of its rows
        assert next(stream).dim == 0
        assert (asked, read) == ([0, 1], [0, 0])

    def test_kernels_read_no_row_once_at_the_known_rank(self):
        # every row vanishes on e_2, so the rank cannot pass 2: once it is 2
        # the kernel is the span of e_2, and no further row is read
        read = []

        def group(rows):
            for row in rows:
                read.append(row)
                yield row

        groups = [[{0: 1, 1: 1}], [{0: 2, 1: 2}, {1: 3}, {0: 1}], [{0: 5, 1: 7}]]
        got = list(kernels(3, map(group, groups), 2))
        assert [ker.rows for ker in got] == [
            ((0, 1, {0: 1, 1: -1}), (2, 1, {2: 1})), ((2, 1, {2: 1}),), ((2, 1, {2: 1}),)
        ]
        assert read == [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 3}]
        assert got == list(kernels(3, groups, 3))


def _is_exact(x) -> bool:
    """x has the exact type, with plain int internals on the Fraction backend."""
    if type(x) is not type(Q(0)):
        return False
    return not isinstance(x, Fraction) or (
        type(x.numerator) is int and type(x.denominator) is int
    )


# ---------------------------------------------------------------------------
# the integer elimination engine against a rational one


class FractionRREF:
    """Oracle: incremental reduced row-echelon basis over Fraction rows
    {col: value}, normalized (pivot 1), mutually reduced and ordered by pivot
    column."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []  # (pivot_col, row)

    def reduce(self, vec):
        v = {c: Fraction(x) for c, x in vec.items() if x}
        for pc, row in self.rows:
            c = v.get(pc)
            if c:
                for col, val in row.items():
                    nv = v.get(col, 0) - c * val
                    if nv:
                        v[col] = nv
                    else:
                        v.pop(col, None)
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        pc = min(v)
        inv = 1 / v[pc]
        newrow = {c: x * inv for c, x in v.items()}
        for _, row in self.rows:
            c = row.get(pc)
            if c:
                for col, val in newrow.items():
                    nv = row.get(col, 0) - c * val
                    if nv:
                        row[col] = nv
                    else:
                        row.pop(col, None)
        self.rows.append((pc, newrow))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def dense_basis(self):
        return tuple(
            tuple(row.get(c, Fraction(0)) for c in range(self.ambient)) for _, row in self.rows
        )

    def kernel_basis(self):
        """The canonical basis of the kernel, reduced by a second oracle."""
        pivots = {pc for pc, _ in self.rows}
        out = FractionRREF(self.ambient)
        for fc in range(self.ambient):
            if fc not in pivots:
                v = {fc: Fraction(1)}
                for pc, row in self.rows:
                    if row.get(fc):
                        v[pc] = -row[fc]
                out.insert(v)
        return out.dense_basis()


small_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def row_streams(draw, max_cols=6, max_rows=9):
    """(ncols, rows {col: value}): sparse rows with denominators up to 12 and
    negative entries, among them zero rows, explicit zeros, repeats, multiples
    and combinations of earlier rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combine"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            row = {c: Fraction(0) for c in draw(st.sets(st.integers(0, ncols - 1)))}
        elif kind == "fresh":
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1))
            row = {c: draw(small_rationals) for c in sorted(cols)}
        elif kind == "repeat":
            row = dict(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(small_rationals), draw(small_rationals)
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        rows.append(row)
    return ncols, rows


def _engine_invariants_hold(engine):
    pivots = [pc for pc, _, _ in engine.rows]
    assert pivots == sorted(set(pivots))
    for pc, p, row in engine.rows:
        assert all(type(x) is int and x for x in row.values())
        assert pc == min(row) and p == row[pc] > 0
        assert gcd(*row.values()) == 1
        assert not any(qc in row for qc in pivots if qc != pc)


class TestSparseRREF:
    @given(row_streams(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, stream, data):
        # the engine takes each rational row as integers, times any nonzero
        # integer: a row's scale does not change its span
        ncols, rows = stream
        engine, oracle = SparseRREF(ncols), FractionRREF(ncols)
        scales = st.integers(-6, 6).filter(bool)

        def ints(v):
            k = data.draw(scales)
            return {c: k * x for c, x in _integral(v).items()}

        for row in rows:
            # a row, once held, is never changed in place: a subspace read
            # off the engine keeps its rows while more go in
            held = engine.subspace()
            snapshot = tuple((pc, p, dict(r)) for pc, p, r in held.rows)
            assert engine.insert(ints(row)) == oracle.insert(row)
            assert held.rows == snapshot
            assert engine.rank == len(oracle.rows)
            probe = {c: data.draw(small_rationals) for c in
                     data.draw(st.sets(st.integers(0, ncols - 1)))}
            for v in (row, probe):
                assert engine.contains(ints(v)) == oracle.contains(v)
            _engine_invariants_hold(engine)
        span = engine.subspace()
        basis = span.basis
        assert basis == oracle.dense_basis()
        assert all(_is_exact(x) for v in basis for x in v)
        assert engine.kernel().basis == oracle.kernel_basis()
        # a subspace holds the engine's integer rows, and so does the one
        # spanned afresh by its rational basis
        assert span.rows == tuple(engine.rows)
        assert Subspace.from_vectors(ncols, basis).rows == span.rows
        assert span._engine().rows == engine.rows

    @given(row_streams(), st.lists(st.integers(0, 9), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_kernels_match_oracle_prefixes(self, stream, cuts):
        ncols, rows = stream
        bounds = sorted(set(cuts) | {len(rows)})
        groups = [rows[a:b] for a, b in zip([0] + bounds, bounds)]
        oracle = FractionRREF(ncols)
        int_groups = [[_integral(row) for row in group] for group in groups]
        for group, ker in zip(groups, kernels(ncols, int_groups, ncols), strict=True):
            for row in group:
                oracle.insert(row)
            assert ker.basis == oracle.kernel_basis()

    def test_integral_accepts_ints_and_foreign_internals(self):
        np = pytest.importorskip("numpy")
        x = Fraction(np.int64(3), np.int64(4))
        assert type(x.numerator) is not int
        got = _integral({0: 2, 1: x, 2: Fraction(0), 3: Fraction(-5, 6)})
        assert got == {0: 24, 1: 9, 3: -10}
        assert all(type(v) is int for v in got.values())
        assert _integral({4: 7, 1: -3}) == {4: 7, 1: -3}
        assert _integral({}) == {}

    def test_no_rational_formed_until_a_basis_is_read(self, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(exactlin, "Q", counted)
        engine = SparseRREF(4)
        for row in ({0: Fraction(1, 2), 2: Fraction(-3, 4)}, {0: Fraction(2, 3), 1: 5},
                    {1: Fraction(7, 5), 2: 1, 3: Fraction(-1, 9)}, {0: 1, 2: Fraction(-3, 2)}):
            engine.insert(_integral(row))
            engine.contains(_integral({1: Fraction(1, 3), 3: 2}))
        span = engine.subspace()
        assert made == [] and engine.rank == 3 and span.dim == 3
        basis = span.basis
        assert made and basis[0][0] == 1


def _stored_once(m: QMatrix) -> None:
    """m holds the one stored form: den > 0, the lcm of the entries'
    denominators, over each row's nonzero plain ints by increasing column."""
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *(x for row in m.int_rows for _, x in row)) == 1
    for row in m.int_rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(type(x) is int and x for _, x in row)
    assert m.den == lcm(*(x.denominator for x in vec(m)))


class TestQMatrix:
    @given(q_matrices(), st.data(), rationals)
    @settings(max_examples=80, deadline=None)
    def test_every_operation_stores_the_one_form(self, a, data, c):
        # so equal matrices are equal records, whatever built them
        b = data.draw(sparse_matrices(a.rows, a.cols))
        sa, sb = to_sympy(a), to_sympy(b)
        cases = [
            (a, sa), (b, sb), (plus(a, b), sa + sb), (minus(a, b), sa - sb),
            (minus(a, a), sa - sa),
            (scale(a, c), sa * sympy.Rational(c.numerator, c.denominator)),
            (a.transpose(), sa.T), (a @ b.transpose(), sa * sb.T),
            (rref(a)[0], sa.rref()[0]),
        ]
        for m, want in cases:
            _stored_once(m)
            assert to_sympy(m) == want
            assert QMatrix.from_rows(m.entries) == m
        assert is_zero(minus(a, b)) == (a == b)

    @given(q_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_minus_identity_stores_the_one_form(self, a, data):
        # M - I on the integer rows equals the difference formed over the lcm
        # of the denominators, and is stored in the one form
        m = data.draw(sparse_matrices(a.rows, a.rows))
        for x in (m, QMatrix.identity(a.rows), QMatrix.zeros(a.rows, a.rows)):
            got = minus_identity(x)
            _stored_once(got)
            assert got == minus(x, QMatrix.identity(a.rows))

    def test_no_rational_formed_until_entries_are_read(self, monkeypatch):
        a = QMatrix.from_rows([["1/2", 0, "-3/4"], [0, "2/3", 5]])
        b = QMatrix.from_rows([[1, "1/5"], [0, 2], ["7/3", 0]])
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(exactlin, "Q", counted)
        m = minus_identity(plus(a @ b, (a @ b).transpose()))
        assert m == m.transpose() and not is_zero(m) and rref(m)[1] == 2
        assert m.int_vec() and m.int_trace() and product_vec(m, m) and bracket_vec(a, b)
        assert made == []
        assert m.entries[0][0] == Fraction(-7, 2) and made


class TestCoercion:
    def test_foreign_integer_internals_normalized(self):
        np = pytest.importorskip("numpy")
        x = Fraction(np.int64(3), np.int64(4))
        assert type(x.numerator) is not int  # the case the coercion guards
        m = QMatrix.from_rows([[x, 1], [0, x]])
        assert m.entries[0][0] == Fraction(3, 4)
        assert all(_is_exact(a) for a in vec(m))
        u = Subspace.from_vectors(3, [[x, 1, 0], [0, x, 2]])
        assert u.dim == 2
        assert all(_is_exact(a) for v in u.basis for a in v)
        # the values that elimination derived from x are plain too
        assert u.basis[0][2] == Fraction(-32, 9)


def value(form):
    """The value {index: rational} of an integer form (den, {index: int}),
    which must hold plain nonzero ints over a positive den."""
    den, ints = form
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in ints.values())
    return {k: Fraction(c, den) for k, c in ints.items()}


class TestProduct:
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda rkc: st.tuples(
                sparse_matrices(rkc[0], rkc[1]), sparse_matrices(rkc[1], rkc[2])
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_sympy(self, ab):
        a, b = ab
        prod = a @ b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert to_sympy(prod) == to_sympy(a) * to_sympy(b)
        assert all(_is_exact(x) for x in vec(prod))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            QMatrix.from_rows([[1, 2]]) @ QMatrix.from_rows([[1, 2]])

    @given(square_matrices(), square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_sparse_products_match_dense(self, x, y):
        # pad to a common size with zero rows and columns
        n = max(x.rows, y.rows)
        x, y = (
            QMatrix.from_rows([list(r) + [0] * (n - m.cols) for r in m.entries]
                              + [[0] * n] * (n - m.rows))
            for m in (x, y)
        )

        def nonzeros(m):
            return {k: v for k, v in enumerate(vec(m)) if v}

        assert value(product_vec(x, y)) == nonzeros(x @ y)
        assert value(bracket_vec(x, y)) == nonzeros(minus(x @ y, y @ x))
        assert len(x.int_rows) == x.rows
        listed = {(i, j): Fraction(v, x.den) for i, row in enumerate(x.int_rows) for j, v in row}
        assert listed == {(i, j): v for i, row in enumerate(x.entries)
                          for j, v in enumerate(row) if v}

    @staticmethod
    def denominator(m):
        """The lcm of the denominators of m's entries."""
        return lcm(*(x.denominator for x in vec(m)))

    @staticmethod
    def dense_product(x, y):
        """vec(XY) as {index: value}, summed in Fractions entry by entry."""
        out = {}
        for i, row in enumerate(x.entries):
            for j in range(y.cols):
                v = sum((a * y.entries[k][j] for k, a in enumerate(row)), Fraction(0))
                if v:
                    out[i * y.cols + j] = v
        return out

    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda rkc: st.tuples(
                sparse_matrices(rkc[0], rkc[1]), sparse_matrices(rkc[1], rkc[2]),
                sparse_matrices(rkc[0], rkc[0]), sparse_matrices(rkc[0], rkc[0]),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_products_match_fraction_products(self, mats):
        # non-integer entries, zero rows and columns, non-square shapes
        x, y, a, b = mats
        got = [product_vec(x, y), bracket_vec(a, b)]
        ab, ba = self.dense_product(a, b), self.dense_product(b, a)
        bracket = {k: ab.get(k, 0) - ba.get(k, 0) for k in set(ab) | set(ba)}
        assert list(map(value, got)) == [
            self.dense_product(x, y), {k: v for k, v in bracket.items() if v}
        ]
        # the integer form's den is the product of the two matrices' own
        assert [den for den, _ in got] == [
            self.denominator(x) * self.denominator(y), self.denominator(a) * self.denominator(b)
        ]


class TestSubspace:
    @given(q_matrices(4), q_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_modular_dimension_formula(self, a, b):
        n = max(a.cols, b.cols)
        u = Subspace.from_vectors(n, [list(r) + [0] * (n - a.cols) for r in a.entries])
        w = Subspace.from_vectors(n, [list(r) + [0] * (n - b.cols) for r in b.entries])
        assert u.sum(w).dim + u.intersection(w).dim == u.dim + w.dim

    @given(q_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_complement_extends_basis(self, a):
        u = Subspace.from_vectors(a.cols, a.entries)
        full = Subspace.full(a.cols)
        ext = complement_in(u, full)
        assert len(ext) == a.cols - u.dim
        assert Subspace.from_vectors(a.cols, list(u.basis) + ext).dim == a.cols

    @pytest.mark.parametrize("x", [0.0, 0.5] + NUMPY_FLOATS)
    def test_float_entries_rejected(self, x):
        # a float zero is rejected like any other float, not dropped as zero
        x = _inexact(x)
        with pytest.raises(TypeError):
            Subspace.from_vectors(2, [[x, 1]])
        with pytest.raises(TypeError):
            solve(QMatrix.identity(2), [x, 1])

    @given(square_matrices(3), square_matrices(3), square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_common_nullspace_is_intersection(self, a, b, c):
        n = max(a.cols, b.cols, c.cols)

        def pad(m):
            rows = [list(r) + [0] * (n - m.cols) for r in m.entries]
            rows += [[0] * n] * (n - m.rows)
            return QMatrix.from_rows(rows)

        mats = [pad(a), pad(b), pad(c)]
        joint = common_nullspace(mats)
        expected = nullspace(mats[0])
        for m in mats[1:]:
            expected = expected.intersection(nullspace(m))
        assert joint == expected


# ---------------------------------------------------------------------------
# inertia of symmetric forms


positive_rationals = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))

# a diagonal entry with a random sign, or zero; or a hyperbolic plane
# [[0, b], [b, 0]], one square of each sign, whose zero diagonal needs the
# congruence step before a pivot
form_blocks = st.lists(
    st.one_of(
        st.tuples(st.just("diag"), st.integers(-1, 1), positive_rationals),
        st.tuples(st.just("plane"), st.just(0), rationals.filter(bool)),
    ),
    min_size=1,
    max_size=4,
)


def _block_form(blocks):
    """The block-diagonal form of `blocks` and its (positive, negative, zero)."""
    entries, counts = [], [0, 0, 0]
    for kind, sign, x in blocks:
        if kind == "diag":
            entries.append([[sign * x]])
            counts[{1: 0, -1: 1, 0: 2}[sign]] += 1
        else:
            entries.append([[0, x], [x, 0]])
            counts[0] += 1
            counts[1] += 1
    n = sum(len(b) for b in entries)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in entries:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return QMatrix.from_rows(rows), tuple(counts)


class TestInertia:
    @given(form_blocks, st.data())
    @settings(max_examples=80, deadline=None)
    def test_congruence_keeps_sign_counts(self, blocks, data):
        d, counts = _block_form(blocks)
        n = d.rows
        p = data.draw(st.one_of(
            st.just(QMatrix.identity(n)),
            st.lists(st.lists(rationals, min_size=n, max_size=n),
                     min_size=n, max_size=n).map(QMatrix.from_rows),
        ))
        assume(rank(p) == n)
        assert inertia(p.transpose() @ d @ p) == counts

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(rationals, min_size=n * n, max_size=n * n), st.booleans()
    )))
    @settings(max_examples=100, deadline=None)
    def test_matches_characteristic_polynomial(self, shape):
        # a symmetric matrix has only real eigenvalues, so Descartes' rule of
        # signs on its characteristic polynomial counts them exactly; a zero
        # diagonal makes every first pivot follow a congruence step
        xs, hollow = shape
        n = int(len(xs) ** 0.5)
        rows = [[xs[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
        if hollow:
            for i in range(n):
                rows[i][i] = 0
        m = QMatrix.from_rows(rows)
        coeffs = to_sympy(m).charpoly().all_coeffs()  # highest degree first

        def variations(cs):
            signs = [c > 0 for c in cs if c != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        flipped = [c * (-1) ** k for k, c in enumerate(reversed(coeffs))]
        zero = len(coeffs) - 1 - max(k for k, c in enumerate(coeffs) if c != 0)
        assert inertia(m) == (variations(coeffs), variations(flipped), zero)

    @pytest.mark.parametrize("rows, expected", [
        ([[0, 1], [1, 0]], (1, 1, 0)),
        # hollow, so the first pivot follows a congruence step
        ([[0, 1, 1], [1, 0, -1], [1, -1, 0]], (2, 1, 0)),
        ([[0, 1, 2, 0], [1, 0, 0, 3], [2, 0, 0, 1], [0, 3, 1, 0]], (2, 2, 0)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
        # pivots on the Schur complement of a pivot made by congruence
        ([[0, -2, 0, -1], [-2, 0, -3, -1], [0, -3, 0, -2], [-1, -1, -2, 0]], (2, 2, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        # degenerate: the congruence step leaves a zero square
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 1, 1)),
        ([[0, 3, 0], [3, 0, 0], [0, 0, -2]], (1, 2, 0)),
    ])
    def test_zero_diagonal(self, rows, expected):
        assert inertia(QMatrix.from_rows(rows)) == expected

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError):
            inertia(QMatrix.from_rows([[0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class QPolynomial:
    """Univariate polynomial with exact rational coefficients, low to high:
    the oracles' type.  The library's polynomials are integer coefficient
    lists."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "QPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return QPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def integer_coeffs(p: QPolynomial) -> list[int]:
    """p times the lcm of its denominators: the integer coefficient list that
    `count_real_roots` takes."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * den) for c in p.coeffs]


def monic_sympy_poly(coeffs: list[int]):
    """The integer coefficients of a library polynomial, low to high, as the
    monic sympy polynomial they are a multiple of."""
    return to_sympy_poly(QPolynomial.from_coeffs(coeffs)).monic()


def to_sympy_poly(p: QPolynomial):
    x = sympy.Symbol("x")
    return sympy.Poly.from_list(
        [sympy.Rational(int(c.numerator), int(c.denominator))
         for c in reversed(p.coeffs)] or [0],
        x,
    )


poly_strategy = st.lists(st.integers(-6, 6), min_size=1, max_size=7).map(
    QPolynomial.from_coeffs
)


# polynomial arithmetic for the oracles; the library needs none of it


def _add(p: QPolynomial, q: QPolynomial) -> QPolynomial:
    pairs = zip_longest(p.coeffs, q.coeffs, fillvalue=0)
    return QPolynomial.from_coeffs([a + b for a, b in pairs])


def _mul(p: QPolynomial, q: QPolynomial) -> QPolynomial:
    out = [0] * max(0, len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return QPolynomial.from_coeffs(out)


def _scale(p: QPolynomial, c) -> QPolynomial:
    return QPolynomial.from_coeffs([c * a for a in p.coeffs])


def _derivative(p: QPolynomial) -> QPolynomial:
    return QPolynomial.from_coeffs([i * c for i, c in enumerate(p.coeffs)][1:])


def _divmod(a: QPolynomial, b: QPolynomial) -> tuple[QPolynomial, QPolynomial]:
    """Long division over the rationals: (q, r) with a = q b + r, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    r = [Fraction(c) for c in a.coeffs]
    while len(r) > b.degree and r:
        f = r[-1] / b.coeffs[-1]
        shift = len(r) - 1 - b.degree
        q[shift] = f
        for i, c in enumerate(b.coeffs):
            r[shift + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return QPolynomial.from_coeffs(q), QPolynomial.from_coeffs(r)


def _monic(p: QPolynomial) -> QPolynomial:
    return _scale(p, 1 / p.coeffs[-1])


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    while not b.is_zero():
        _, r = _divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return _monic(a)


def squarefree_part(p: QPolynomial) -> QPolynomial:
    """p divided by gcd(p, p'), made monic: the oracles' squarefree input."""
    if p.is_zero():
        return p
    g = poly_gcd(p, _derivative(p))
    if g.degree <= 0:
        return _monic(p)
    q, r = _divmod(p, g)
    assert r.is_zero()
    return _monic(q)


def _value(p: QPolynomial, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestPolynomials:
    @given(poly_strategy, poly_strategy)
    @settings(max_examples=80, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = _divmod(a, b)
        assert _add(_mul(q, b), r).coeffs == a.coeffs
        assert r.is_zero() or r.degree < b.degree

    @given(poly_strategy, poly_strategy)
    @settings(max_examples=80, deadline=None)
    def test_gcd_matches_sympy(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g = poly_gcd(a, b)
        sg = sympy.gcd(to_sympy_poly(a), to_sympy_poly(b))
        if g.is_zero():
            assert sg.is_zero
        else:
            assert to_sympy_poly(g).monic() == sympy.Poly(sg).monic()

    @given(poly_strategy)
    @settings(max_examples=60, deadline=None)
    def test_squarefree_part(self, p):
        if p.is_zero() or p.degree == 0:
            return
        sf = squarefree_part(p)
        # squarefree: gcd with derivative is constant
        g = poly_gcd(sf, _derivative(sf))
        assert g.degree == 0
        # same roots: p divides sf^deg(p)
        power = sf
        for _ in range(p.degree):
            power = _mul(power, sf)
        _, r = _divmod(power, p)
        assert r.is_zero()


def _minpoly_by_divisor_search(m: QMatrix):
    """Least-degree monic annihilating divisor of the characteristic polynomial,
    found by enumerating products of its irreducible factors."""
    import itertools

    x = sympy.Symbol("x")
    sm = to_sympy(m)
    charpoly = sm.charpoly(x)
    factors = []
    for base, mult in charpoly.factor_list()[1]:
        factors.extend([sympy.Poly(base, x)] * mult)
    best = None
    for r in range(1, len(factors) + 1):
        for combo in set(itertools.combinations(range(len(factors)), r)):
            prod = sympy.Poly(1, x)
            for i in combo:
                prod = prod * factors[i]
            acc = sympy.zeros(sm.rows)
            for c in prod.all_coeffs():
                acc = acc * sm + sympy.Rational(c) * sympy.eye(sm.rows)
            if acc.is_zero_matrix:
                cand = prod.monic()
                if best is None or cand.degree() < best.degree():
                    best = cand
        if best is not None:
            break
    return best


def _block_diagonal(*blocks) -> QMatrix:
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - len(r)) for r in b]
        at += len(b)
    return QMatrix.from_rows(rows)


def _jordan(eigenvalue, k: int) -> list[list]:
    return [[eigenvalue if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]


_ROTATION = [[0, -1], [1, 0]]

# derogatory, nilpotent and repeated-block matrices up to 6 x 6
STRUCTURED_MATRICES = {
    "scalar": _block_diagonal(*[[[3]]] * 4),
    "derogatory": _block_diagonal([[2]], [[2]], [[-1]], [[-1]], [[-1]]),
    "nilpotent-6": _block_diagonal(_jordan(0, 6)),
    "nilpotent-2+2+1": _block_diagonal(_jordan(0, 2), _jordan(0, 2), _jordan(0, 1)),
    "repeated-jordan": _block_diagonal(
        _jordan(1, 2), _jordan(1, 2), _jordan(-1, 1), _jordan(-1, 1)
    ),
    "repeated-rotation": _block_diagonal(_ROTATION, _ROTATION, _ROTATION),
    "mixed": _block_diagonal(_jordan(2, 3), _jordan(2, 2), [[Fraction(1, 2)]]),
}


def _is_primitive_with_positive_lead(p: list[int]) -> bool:
    return all(type(c) is int for c in p) and gcd(*p) == 1 and p[-1] > 0


class TestMinimalPolynomial:
    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_matches_divisor_search_oracle(self, m):
        p = minimal_polynomial(m)
        assert _is_primitive_with_positive_lead(p)
        expected = _minpoly_by_divisor_search(m)
        assert monic_sympy_poly(p).set_domain("QQ") == expected.set_domain("QQ")

    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("name", sorted(STRUCTURED_MATRICES))
    def test_structured_matches_divisor_search_oracle(self, name, conjugated):
        # the minimal polynomial is a proper divisor of the characteristic
        # one; conjugating by a unimodular P makes the matrix dense
        m = STRUCTURED_MATRICES[name]
        if conjugated:
            n = m.rows
            p = QMatrix.from_rows([[int(j >= i) for j in range(n)] for i in range(n)])
            p_inv = QMatrix.from_rows(
                [[int(i == j) - int(j == i + 1) for j in range(n)] for i in range(n)]
            )
            assert (p @ p_inv) == QMatrix.identity(n)
            m = p @ m @ p_inv
        p = minimal_polynomial(m)
        assert _is_primitive_with_positive_lead(p)
        expected = _minpoly_by_divisor_search(m)
        assert monic_sympy_poly(p).set_domain("QQ") == expected.set_domain("QQ")

    @given(square_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_annihilates(self, m):
        p = minimal_polynomial(m)
        # p(M) by Horner's rule
        n = m.rows
        acc = QMatrix.zeros(n, n)
        for c in reversed(p):
            acc = plus(acc @ m, scale(QMatrix.identity(n), c))
        assert is_zero(acc)


# ---------------------------------------------------------------------------
# Sturm root counting, with a bisection oracle


def _descartes_variations(p: QPolynomial, a: Fraction, b: Fraction) -> int:
    """Sign variations of the Moebius transform of p onto (a, b).

    Zero variations certify no root in the open interval; one variation
    certifies exactly one (Descartes / Vincent).
    """
    d = p.degree
    lin_ab = QPolynomial.from_coeffs([a, b])  # a + b x
    lin_1x = QPolynomial.from_coeffs([1, 1])  # 1 + x
    # q(x) = (1+x)^d * p((a + b x)/(1 + x))
    acc = QPolynomial.from_coeffs([0])
    for k, c in enumerate(p.coeffs):
        term = QPolynomial.from_coeffs([c])
        for _ in range(k):
            term = _mul(term, lin_ab)
        for _ in range(d - k):
            term = _mul(term, lin_1x)
        acc = _add(acc, term)
    signs = [1 if c > 0 else -1 for c in acc.coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _real_root_count_bisect(p: QPolynomial) -> int:
    """Count real roots of a squarefree p by Descartes-certificate bisection.

    Recursively splits the Cauchy root bound interval until every piece
    carries a zero-or-one-root certificate; independent of Sturm sequences.
    """
    bound = Fraction(
        1 + max(abs(c / p.coeffs[-1]) for c in p.coeffs[:-1])
    )

    def count(a: Fraction, b: Fraction) -> int:
        v = _descartes_variations(p, a, b)
        if v <= 1:
            return v
        m = (a + b) / 2
        return count(a, m) + (1 if _value(p, m) == 0 else 0) + count(m, b)

    return count(-bound, bound)


def _fraction_sturm_count(p: QPolynomial) -> int | None:
    """Real roots of p by Sturm's sequence p, p', -rem(p, p'), ... in rational
    long division; None when it ends at a nonconstant gcd(p, p')."""
    seq = [p, _derivative(p)]
    while not seq[-1].is_zero():
        _, r = _divmod(seq[-2], seq[-1])
        seq.append(_scale(r, -1))
    seq.pop()
    if seq[-1].degree > 0:
        return None

    def variations(sign_of_x):
        signs = [(1 if q.coeffs[-1] > 0 else -1) * sign_of_x ** q.degree for q in seq]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(-1) - variations(1)


rational_polys = st.lists(rationals, min_size=2, max_size=7).map(QPolynomial.from_coeffs)


class TestSturm:
    @given(rational_polys, rational_polys)
    @settings(max_examples=150, deadline=None)
    def test_integer_sequence_matches_rational_sequence(self, p, f):
        # p, and p times f^2, which is not squarefree when f is nonconstant
        for q in (p, _mul(p, _mul(f, f))):
            if q.degree < 1:
                continue
            real = _fraction_sturm_count(q)
            if real is None:
                with pytest.raises(ValueError, match="not squarefree"):
                    count_real_roots(integer_coeffs(q))
            else:
                assert count_real_roots(integer_coeffs(q)) == (real, (q.degree - real) // 2)

    @given(poly_strategy)
    @settings(max_examples=80, deadline=None)
    def test_against_sympy_real_roots(self, p):
        if p.is_zero() or p.degree == 0:
            return
        sf = squarefree_part(p)
        real, pairs = count_real_roots(integer_coeffs(sf))
        x = sympy.Symbol("x")
        sym_roots = sympy.real_roots(to_sympy_poly(sf).as_expr(), x)
        assert real == len(set(sym_roots))
        assert real + 2 * pairs == sf.degree

    @given(poly_strategy)
    @settings(max_examples=40, deadline=None)
    def test_against_bisection(self, p):
        if p.is_zero() or p.degree == 0:
            return
        sf = squarefree_part(p)
        real, _ = count_real_roots(integer_coeffs(sf))
        # bisection can only undercount if two roots share a fine-grid cell;
        # for squarefree integer-coefficient polys of degree <= 6 and the
        # grid used it does not
        assert real == _real_root_count_bisect(sf)

    def test_not_squarefree_raises(self):
        with pytest.raises(ValueError):
            count_real_roots([1, 2, 1])  # (x+1)^2

    def test_integer_coefficient_lists(self):
        # high zeros are dropped, and the sign of the leading coefficient
        # does not change the count
        with pytest.raises(ValueError, match="zero polynomial"):
            count_real_roots([0, 0])
        assert count_real_roots([5, 0]) == (0, 0)
        for p in ([-1, 0, 1], [1, 0, -1], [-2, 0, 2, 0]):
            assert count_real_roots(p) == (2, 0)
        assert count_real_roots([1, 0, 1]) == count_real_roots([-3, 0, -3]) == (0, 1)

    @given(poly_strategy)
    @settings(max_examples=80, deadline=None)
    def test_raises_exactly_when_not_squarefree(self, p):
        if p.is_zero() or p.degree == 0:
            return
        if squarefree_part(p).degree < p.degree:
            with pytest.raises(ValueError, match="not squarefree"):
                count_real_roots(integer_coeffs(p))
        else:
            real, pairs = count_real_roots(integer_coeffs(p))
            assert real + 2 * pairs == p.degree


# ---------------------------------------------------------------------------
# integer lattices, with a Smith-normal-form oracle


int_matrices = st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestLattices:
    @given(int_matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates_and_saturates(self, w):
        ker = integer_kernel_saturated(w)
        m = QMatrix.from_rows(w)
        for v in ker:
            assert all(x == 0 for x in mul_vec(m, list(v)))
        # dimension check against rational rank
        assert len(ker) == len(w[0]) - rank(m)
        # saturation: the Hermite basis of the kernel consists of vectors
        # whose content is 1 after reduction, i.e. every rational kernel
        # vector with integer entries is an integer combination
        sm = sympy.Matrix(w)
        for v in sm.nullspace():
            scaled = v * sympy.lcm([sympy.fraction(x)[1] for x in v])
            scaled = scaled / sympy.gcd(list(scaled))
            assert lattice_contains(ker, [[int(x) for x in scaled]])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_lattice_membership(self, basis, coeffs):
        coeffs = (coeffs * len(basis))[: len(basis)]
        combo = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(3)]
        assert lattice_contains(basis, [combo])

    @pytest.mark.parametrize("basis, vectors, expected", [
        ([[2, 0], [0, 2]], [[1, 0]], False),
        ([[2, 0], [0, 2]], [[2, -4]], True),
        # the basis vectors themselves, then a vector of the rational span
        # that is not in the lattice
        ([[2, 4], [4, 2]], [[2, 4], [4, 2]], True),
        ([[2, 4], [4, 2]], [[2, 4], [4, 2], [1, 1]], False),
        ([[2, 4], [4, 2]], [[6, 6], [0, 6], [2, 1]], False),
        # an empty basis spans only 0; no vector at all is always contained
        ([], [[0, 0], [0, 0]], True),
        ([], [[0, 0], [0, 1]], False),
        ([], [], True),
        ([[1, 1]], [], True),
    ])
    def test_lattice_membership_of_several_vectors(self, basis, vectors, expected):
        assert lattice_contains(basis, vectors) is expected
