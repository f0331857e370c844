"""Tests for commutant computation, center splitting, the (m, l)
classification against the independent numeric splitting oracle, and verify's
exact finite-group checks."""

import dataclasses
from fractions import Fraction

import pytest
import sympy

from equivab import catalog as cat
from equivab import commutant as comm
from equivab.commutant import (
    MatrixAlgebra,
    MLClassification,
    center,
    classify_ml,
    commutator_ideal,
    compute_commutant,
    root_count_agrees,
    verify_center_splits,
)
from exact_oracles import complement_in, is_zero, minus, plus, scale, vec
from float_split_oracle import schur_split_oracle
from test_exactlin import _minpoly_by_divisor_search, monic_sympy_poly
from equivab.exactlin import QMatrix, Subspace, common_nullspace, minimal_polynomial
from equivab import exactlin, symmetry
from equivab.symmetry import ConnectedLieAction, FiniteMatrixAction, TorusAction

# (constructor, commutant dim, (m, l), oracle blocks)
FINITE_CASES = [
    (cat.c2_minus_identity, 4, (1, 0), [(2, 1, "R")]),
    (cat.c3_rotation, 2, (1, 1), [(1, 2, "C")]),
    (cat.c4_rotation, 2, (1, 1), [(1, 2, "C")]),
    (cat.d4_on_r2, 1, (1, 0), [(1, 2, "R")]),
    (cat.s3_standard, 1, (1, 0), [(1, 2, "R")]),
    (cat.s3_standard_plus_sign, 2, (2, 0), [(1, 1, "R"), (1, 2, "R")]),
    (cat.q8_on_r4, 4, (1, 0), [(1, 4, "H")]),
    (cat.s3_regular_minus_trivial, 5, (2, 0), [(1, 1, "R"), (2, 2, "R")]),
]


def c2_power_7() -> FiniteMatrixAction:
    """Sign changes of seven coordinates: seven distinct real characters, and
    the largest group here, of order 128."""
    return FiniteMatrixAction(7, tuple(
        QMatrix.from_rows([[-1 if i == j == k else int(i == j) for j in range(7)]
                           for i in range(7)])
        for k in range(7)
    ))


# every finite group of the catalog, and c2^7
FINITE_GROUPS = [
    pytest.param(make, id=make.__name__)
    for make in (
        cat.c2_sign, cat.c2_minus_identity, cat.c3_rotation, cat.c4_rotation,
        cat.c2_x_c2, cat.d4_on_r2, cat.s3_standard, cat.s3_standard_plus_sign,
        cat.q8_on_r4, cat.s3_regular_minus_trivial, c2_power_7,
    )
]


def _unit(n: int, i: int, j: int) -> QMatrix:
    """The n x n matrix unit E_ij."""
    return QMatrix.from_rows([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def full_matrix_algebra(n: int) -> MatrixAlgebra:
    """End(R^n), spanned by the matrix units."""
    return MatrixAlgebra.from_basis(
        n, tuple(_unit(n, i, j) for i in range(n) for j in range(n))
    )


def abelianization(a: MatrixAlgebra) -> tuple[int, list[QMatrix]]:
    """(dimension, representative basis) of A / [A, A]."""
    reps = complement_in(a.derived, a.span)
    dim = a.dim - a.derived.dim
    assert dim == len(reps)
    n = a.ambient_dim
    return dim, [QMatrix.from_rows(v[i : i + n] for i in range(0, n * n, n)) for v in reps]


def _with_center(a: MatrixAlgebra, z: Subspace) -> MatrixAlgebra:
    """A copy of a that reads z as its center."""
    b = dataclasses.replace(a)
    b.__dict__["center"] = z  # where the cached property keeps it
    return b


def _conjugation_kernel(g) -> Subspace:
    """Oracle: End(V)^H as the common kernel of vec(X) -> vec(g X g^-1 - X)
    over the generators, built with sympy's inverse and Kronecker product."""
    n = g.dim
    ops = []
    for gen in g.generators:
        s = sympy.Matrix(
            [[sympy.Rational(int(x.numerator), int(x.denominator)) for x in row]
             for row in gen.entries]
        )
        op = sympy.kronecker_product(s, s.inv().T) - sympy.eye(n * n)
        ops.append(QMatrix.from_rows([[str(x) for x in row] for row in op.tolist()]))
    return common_nullspace(ops)


def _structure(g):
    return compute_commutant(g)


class TestCommutant:
    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_dimension(self, make, dim, ml, blocks):
        assert compute_commutant(make()).dim == dim

    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_commutes_exactly(self, make, dim, ml, blocks):
        g = make()
        a = compute_commutant(g)
        for b in a.basis:
            for gen in g.generators:
                assert is_zero(minus(gen @ b, b @ gen))

    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_matches_conjugation_kernel(self, make, dim, ml, blocks):
        g = make()
        assert compute_commutant(g).span == _conjugation_kernel(g)

    def test_trivial_summand_rejected(self):
        from equivab.symmetry import FiniteMatrixAction

        refl = FiniteMatrixAction(2, (QMatrix.from_rows([[1, 0], [0, -1]]),))
        assert compute_commutant(refl).dim == 2

    def test_torus_commutant_is_complex_matrices(self):
        # diagonal circle on C^2: commutant is gl(2, C), real dim 8
        a = compute_commutant(TorusAction(((1, 1),)))
        assert a.dim == 8

    def test_algebra_validation(self):
        with pytest.raises(ValueError):
            # not multiplicatively closed: nilpotent part only
            MatrixAlgebra.from_basis(
                2,
                (QMatrix.identity(2), QMatrix.from_rows([[0, 1], [1, 0]]),
                 QMatrix.from_rows([[1, 0], [0, -1]])),
            )
        # the same span on a basis with denominators
        with pytest.raises(ValueError, match="not closed under multiplication"):
            MatrixAlgebra.from_basis(2, _shear(
                (QMatrix.identity(2), QMatrix.from_rows([[0, 1], [1, 0]]),
                 QMatrix.from_rows([[1, 0], [0, -1]]))
            ))

    def test_kernel_is_the_span(self, monkeypatch):
        # the constraint kernel is passed on as the span, not eliminated again
        kernels = []

        def recorded(ncols, rows):
            kernels.append(exactlin.kernel(ncols, rows))
            return kernels[-1]

        monkeypatch.setattr(symmetry, "kernel", recorded)
        a = compute_commutant(cat.q8_on_r4())
        assert a.span is kernels[0]

    def test_non_commuting_kernel_row_rejected(self, monkeypatch):
        # a kernel holding E_12 beside the identity: E_12 does not commute
        # with the rotation by a quarter turn
        wrong = Subspace.from_vectors(4, [[1, 0, 0, 1], [0, 1, 0, 0]])
        monkeypatch.setattr(symmetry, "kernel", lambda ncols, rows: wrong)
        with pytest.raises(ValueError, match="does not commute with the action"):
            compute_commutant(cat.c4_rotation())


def _center_as_common_kernel(a: MatrixAlgebra) -> Subspace:
    """Oracle: the center as the common kernel, on coefficient vectors c, of
    the operators c -> [sum c_i b_i, b], one for each basis element b."""
    ops = []
    for b in a.basis:
        block = [vec(minus(bi @ b, b @ bi)) for bi in a.basis]
        ops.append(QMatrix.from_rows(list(zip(*block))))
    n = a.ambient_dim
    vecs = []
    for coeffs in common_nullspace(ops).basis:
        element = QMatrix.zeros(n, n)
        for c, b in zip(coeffs, a.basis):
            element = plus(element, scale(b, c))
        vecs.append(vec(element))
    return Subspace.from_vectors(n * n, vecs)


def _shear(b: tuple[QMatrix, ...]) -> tuple[QMatrix, ...]:
    """The basis b_k / (k + 2) + b_(k+1), the last b_k / (k + 2): a
    triangular basis change of the same span after which the basis elements,
    and their brackets, carry different denominators, and central elements
    are no multiples of basis elements."""
    return tuple(
        plus(scale(b[k], Fraction(1, k + 2)), b[k + 1] if k + 1 < len(b) else scale(b[k], 0))
        for k in range(len(b))
    )


def _sheared(a: MatrixAlgebra) -> MatrixAlgebra:
    return MatrixAlgebra.from_basis(a.ambient_dim, _shear(a.basis))


def _truncated_free_algebra() -> MatrixAlgebra:
    """The regular representation of the unital algebra on x1..x4 in which
    every product of three generators is zero: the words of length <= 2, so
    d = 21.  Z(A) is spanned by 1 and the 16 words x_i x_j, and [A, A] by the
    6 brackets [x_i, x_j], all central: dim [A, A] = 6 > d - dim Z(A) = 4.
    The trace form on Z(A) has 16 zero squares."""
    words = [()] + [(i,) for i in range(4)] + [(i, j) for i in range(4) for j in range(4)]
    index = {w: k for k, w in enumerate(words)}
    n = len(words)

    def left(w):
        return QMatrix.from_rows(
            [[int(len(w) + len(u) <= 2 and index[w + u] == r) for u in words]
             for r in range(n)])

    return MatrixAlgebra.from_basis(n, tuple(left(w) for w in words))


CENTER_CASES = (
    [pytest.param(lambda make=make: compute_commutant(make()), id=make.__name__)
     for make, *_ in FINITE_CASES]
    + [pytest.param(lambda make=make: _sheared(compute_commutant(make())),
                    id=make.__name__ + "-sheared")
       for make, *_ in FINITE_CASES]
    + [pytest.param(lambda: _sheared(cat.gl_n_c(2)), id="gl_n_c(2)-sheared")]
    + [pytest.param(lambda make=make, n=n: make(n), id="%s(%d)" % (make.__name__, n))
       for make in (cat.gl_n_r, cat.gl_n_c, cat.gl_n_h) for n in (1, 2, 3)]
    + [pytest.param(cat.upper_triangular_2x2, id="upper_triangular_2x2")]
    # every element commutes with the first basis element, the identity
    + [pytest.param(
        lambda: MatrixAlgebra.from_basis(
            2, (QMatrix.identity(2),) + cat.upper_triangular_2x2().basis[1:]
        ),
        id="upper_triangular_2x2_identity_first",
    )]
    # the trace form on Z(A) is degenerate, and [A, A] exceeds d - dim Z(A)
    + [pytest.param(_truncated_free_algebra, id="truncated_free_algebra")]
)


def _equal_diagonal_triangular() -> MatrixAlgebra:
    """Upper triangular 3 x 3 matrices with equal diagonal entries."""
    return MatrixAlgebra.from_basis(
        3, (QMatrix.identity(3), _unit(3, 0, 1), _unit(3, 0, 2), _unit(3, 1, 2))
    )


SPLIT_CASES = CENTER_CASES + [
    pytest.param(_equal_diagonal_triangular, id="equal_diagonal_triangular_3x3"),
    pytest.param(lambda: full_matrix_algebra(3), id="full_matrix_algebra(3)"),
]


class TestCenterAndAbelianization:
    @pytest.mark.parametrize("make_algebra", CENTER_CASES)
    def test_center_matches_common_kernel(self, make_algebra):
        a = make_algebra()
        assert center(a) == _center_as_common_kernel(a)

    @pytest.mark.parametrize("n, expected", [(1, 1), (2, 1), (3, 1), (4, 1)])
    def test_full_matrix_algebra_abelianization(self, n, expected):
        dim, reps = abelianization(full_matrix_algebra(n))
        assert dim == expected
        assert len(reps) == expected

    @pytest.mark.parametrize("make_algebra", SPLIT_CASES)
    def test_commutator_ideal_matches_dense_brackets(self, make_algebra):
        a = make_algebra()
        n = a.ambient_dim
        dense = [vec(minus(x @ y, y @ x)) for x in a.basis for y in a.basis]
        assert commutator_ideal(a) == Subspace.from_vectors(n * n, dense)

    def test_center_of_full_algebra_is_scalars(self):
        z = center(full_matrix_algebra(3))
        assert z.dim == 1
        assert z.contains_subspace(Subspace.from_vectors(9, [vec(QMatrix.identity(3))]))

    def test_commutator_ideal_of_full_algebra_is_traceless(self):
        d = commutator_ideal(full_matrix_algebra(3))
        assert d.dim == 8
        for v in d.basis:
            assert v[0] + v[4] + v[8] == 0  # the trace of the 3 x 3 matrix

    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_center_splits(self, make, dim, ml, blocks):
        assert verify_center_splits(_structure(make())) == (True, "")

    def test_upper_triangular_fails_split(self):
        passed, detail = verify_center_splits(cat.upper_triangular_2x2())
        assert not passed
        assert "Z(A) + [A,A]" in detail

    @pytest.mark.parametrize("make_algebra", SPLIT_CASES)
    def test_intersection_dim_matches_intersection(self, make_algebra):
        s = make_algebra()
        passed, _ = verify_center_splits(s)
        meet = s.center.intersection(s.derived).dim
        assert passed == (meet == 0 and s.center.sum(s.derived).dim == s.dim)

    @pytest.mark.parametrize("make_algebra, dims, detail", [
        # upper triangular 3 x 3 with equal diagonal: Z(A) = span{I, E13} and
        # [A, A] = span{E13}, so Z(A) + [A,A] is 2-dimensional in dim A = 4
        pytest.param(
            _equal_diagonal_triangular, (4, 2, 1, (1, 0, 1)),
            "Z(A) meets [A,A] in dimension 1; Z(A) + [A,A] has dimension 2 < dim A = 4",
            id="equal_diagonal_triangular_3x3"),
        # [A, A] lies in Z(A); a stop at rank d - dim Z(A) = 4 would miss two
        # of its brackets
        pytest.param(
            _truncated_free_algebra, (21, 17, 6, (1, 0, 16)),
            "Z(A) meets [A,A] in dimension 6; Z(A) + [A,A] has dimension 17 < dim A = 21",
            id="truncated_free_algebra"),
    ])
    def test_center_meeting_derived_fails_split(self, make_algebra, dims, detail):
        a = make_algebra()
        assert (a.dim, a.center.dim, a.derived.dim, a.center_form) == dims
        assert verify_center_splits(a) == (False, detail)

    def test_span_built_once(self):
        a = compute_commutant(cat.q8_on_r4())
        assert a.span is a.span


# actions whose centers give the z(t) of the minimal-polynomial oracle test
CENTRAL_ELEMENT_ACTIONS = [param for param in FINITE_GROUPS if param.id != "c2_power_7"] + [
    pytest.param(lambda w=w: TorusAction(w), id="torus%s" % (w,))
    for w in (((1, 1),), ((1, 2),), ((1, -1), (0, 2)), ((1, 0, 1, 1), (0, 1, 1, -1)))
] + [pytest.param(cat.su2_on_c2, id="su2_on_c2")]


class TestClassification:
    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_exact_ml(self, make, dim, ml, blocks):
        got = classify_ml(_structure(make()).center)
        assert (got.m, got.l) == ml
        assert got.center_dim == got.m + got.l
        assert got.abelianization_dim == got.m + got.l

    @pytest.mark.parametrize("make, dim, ml, blocks", FINITE_CASES)
    def test_oracle_agrees(self, make, dim, ml, blocks):
        got = schur_split_oracle(make(), seed=7)
        assert [(b.multiplicity, b.irreducible_dim, b.schur_type) for b in got] \
            == blocks
        m = len(got)
        l = sum(1 for b in got if b.schur_type == "C")
        assert (m, l) == ml

    def test_seed_stability(self):
        g = cat.s3_regular_minus_trivial()
        results = {tuple(schur_split_oracle(g, seed=s)) for s in range(5)}
        assert len(results) == 1

    def test_torus_ml(self):
        got = classify_ml(_structure(TorusAction(((1, 1),))).center)
        assert (got.m, got.l) == (1, 1)

    def test_degenerate_trace_form_rejected(self):
        # span{I, E12} is commutative, so it is its own center, and E12 is
        # nilpotent: tr(E12 x) = 0 for every x, a zero square of the form
        a = MatrixAlgebra.from_basis(2, (QMatrix.identity(2), _unit(2, 0, 1)))
        with pytest.raises(ValueError, match="degenerate.*not semisimple"):
            classify_ml(a.center)

    @pytest.mark.parametrize("basis, detail", [
        # z(2) = 2I + 4 E12 has minimal polynomial (x - 2)^2
        ([(0, 1)], "minimal polynomial of z(2) is not squarefree"),
        # every z(t) has minimal polynomial (x - t)^2, below degree 3 = dim Z
        ([(0, 1), (0, 2)], "no z(t) with t = 2..8 has a minimal polynomial of degree 3"),
    ])
    def test_root_count_reports_non_semisimple_center(self, basis, detail):
        n = len(basis) + 1
        a = MatrixAlgebra.from_basis(
            n, (QMatrix.identity(n),) + tuple(_unit(n, *ij) for ij in basis))
        ml = MLClassification(m=n, l=0)
        assert root_count_agrees(a, ml) == (False, detail)

    @pytest.mark.parametrize("make", CENTRAL_ELEMENT_ACTIONS)
    def test_minimal_polynomial_of_z_t_matches_divisor_search(self, make):
        # the generic central elements z(t) = sum t^i z_i that the root count
        # reads, at its first two points
        s = _structure(make())
        n = s.ambient_dim
        for t in (2, 3):
            z = QMatrix.zeros(n, n)
            for i, v in enumerate(s.center.basis, 1):
                zi = QMatrix.from_rows(v[k : k + n] for k in range(0, n * n, n))
                z = plus(z, scale(zi, t**i))
            expected = _minpoly_by_divisor_search(z).set_domain("QQ")
            assert monic_sympy_poly(minimal_polynomial(z)).set_domain("QQ") == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gl_families(self, n):
        for make, ml in ((cat.gl_n_r, (1, 0)), (cat.gl_n_c, (1, 1)),
                         (cat.gl_n_h, (1, 0))):
            got = classify_ml(make(n).center)
            assert (got.m, got.l) == ml


class TestExactFiniteGroupChecks:
    """comm.schur_split_oracle: Z(A) = A meet span G, and
    dim A = (1/|G|) sum tr(g)^2."""

    @pytest.mark.parametrize("make", FINITE_GROUPS)
    def test_checks_pass_and_float_oracle_agrees(self, make):
        g = make()
        s = _structure(g)
        (center_ok, center_detail), (dim_ok, dim_detail) = comm.schur_split_oracle(g, s)
        assert center_ok, center_detail
        assert dim_ok, dim_detail
        ml = classify_ml(s.center)
        blocks = schur_split_oracle(g, seed=0)
        assert (ml.m, ml.l) == (len(blocks), sum(b.schur_type == "C" for b in blocks))

    def test_center_check_fails_on_the_whole_algebra(self):
        # Q8 on R^4: A = H is not commutative, and only its scalars lie in
        # span G, the other copy of H
        g = cat.q8_on_r4()
        s = _structure(g)
        wrong = _with_center(s, s.span)
        (passed, detail), _ = comm.schur_split_oracle(g, wrong)
        assert not passed
        assert detail == "dim Z(A) = 4, dim A meet span G = 1, Z(A) not in span G"

    def test_center_check_fails_on_a_line_outside_span_g(self):
        # Q8 on R^4: A meets span G in the scalars alone, so a non-scalar line
        # of A has the right dimension but lies outside span G
        g = cat.q8_on_r4()
        s = _structure(g)
        scalars = Subspace.from_vectors(16, [vec(QMatrix.identity(4))])
        x = next(b for b in s.basis
                 if not scalars.contains_subspace(Subspace.from_vectors(16, [vec(b)])))
        line = Subspace.from_vectors(16, [vec(x)])
        (passed, detail), _ = comm.schur_split_oracle(g, _with_center(s, line))
        assert not passed
        assert detail == "dim Z(A) = 1, dim A meet span G = 1, Z(A) not in span G"

    def test_center_check_fails_on_a_smaller_center(self):
        # S3 on standard + sign: Z(A) = R x R, of which span{I} lies in span G
        # but is too small
        g = cat.s3_standard_plus_sign()
        s = _structure(g)
        scalars = Subspace.from_vectors(9, [vec(QMatrix.identity(3))])
        (passed, detail), _ = comm.schur_split_oracle(g, _with_center(s, scalars))
        assert not passed
        assert detail == "dim Z(A) = 1, dim A meet span G = 2"

    def test_dimension_check_fails_on_a_subgroup_commutant(self):
        # the swap alone fixes a line of the S3 standard plane: its commutant
        # is 2-dimensional, but <chi, chi> = 1 for S3
        g = cat.s3_standard()
        swap = FiniteMatrixAction(2, g.generators[:1])
        _, (passed, detail) = comm.schur_split_oracle(g, _structure(swap))
        assert not passed
        assert detail == "dim A = 2, (1/|G|) sum tr(g)^2 = 1"


def in_rational_basis(base):
    """The finite or connected action `base` written in the basis of P
    block-diagonal with blocks [[1, 1/2], [0, 3]], which is not unimodular:
    generators P a P^-1, which carry denominators."""
    n = base.dim
    p = [[0] * n for _ in range(n)]
    p_inv = [[0] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = p_inv[i][i] = 1
    for i in range(0, n - 1, 2):
        p[i][i + 1], p[i + 1][i + 1] = "1/2", 3
        p_inv[i][i + 1], p_inv[i + 1][i + 1] = "-1/6", "1/3"
    p, p_inv = QMatrix.from_rows(p), QMatrix.from_rows(p_inv)
    gens = tuple(p @ a @ p_inv for a in base.action_generators())
    assert any(a.den > 1 for a in gens)
    kind = FiniteMatrixAction if isinstance(base, FiniteMatrixAction) else ConnectedLieAction
    return kind(n, gens)


def counting_rationals(monkeypatch, modules) -> list:
    """Patch `Q` in each module to record every rational it forms."""
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    for module in modules:
        monkeypatch.setattr(module, "Q", counted)
    return made


class TestIntegerRows:
    """The commutant, its center and [A, A] run on the integer rows of the
    action's matrices, even when those have denominators."""

    @pytest.mark.parametrize("make", [cat.q8_on_r4, cat.s3_regular_minus_trivial,
                                      cat.c3_rotation, cat.su2_on_c2])
    def test_no_rational_formed(self, make, monkeypatch):
        base = make()
        g = in_rational_basis(base)
        made = counting_rationals(monkeypatch, (exactlin, comm, symmetry))
        a = compute_commutant(g)
        z, derived = center(a), commutator_ideal(a)
        assert made == []
        want = compute_commutant(base)
        assert (a.dim, z.dim, derived.dim) == (
            want.dim, want.center.dim, want.derived.dim)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: in_rational_basis(cat.s3_regular_minus_trivial()), id="s3"),
        pytest.param(lambda: TorusAction(((1, 2), (0, 1))), id="torus"),
        pytest.param(cat.su2_on_c2, id="su2"),
    ])
    def test_root_count_forms_no_rational(self, make, monkeypatch):
        # the minimal polynomial of z(t) is read off the engine's integer row,
        # and its Sturm sequence runs on integers
        s = _structure(make())
        ml = classify_ml(s.center)
        made = counting_rationals(monkeypatch, (exactlin, comm, symmetry))
        assert root_count_agrees(s, ml) == (True, "")
        assert made == []
