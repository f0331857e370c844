"""Stock actions and algebras: rational forms of the usual small groups,
realified complex and quaternionic matrix algebras, and classical Lie
algebras by structure constants."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .commutant import MatrixAlgebra
from .exactlin import QMatrix
from .liealg import LieAlgebraSC
from .symmetry import ConnectedLieAction, FiniteMatrixAction

# ---------------------------------------------------------------------------
# finite groups


def c2_sign() -> FiniteMatrixAction:
    """{+-1} on R."""
    return FiniteMatrixAction(1, (QMatrix.from_rows([[-1]]),))


def c2_minus_identity(n: int = 2) -> FiniteMatrixAction:
    """{+-I} on R^n."""
    return FiniteMatrixAction(n, (QMatrix(1, tuple(((i, -1),) for i in range(n)), n),))


def c3_rotation() -> FiniteMatrixAction:
    """Order-3 rotation of R^2 in rational (companion) form."""
    return FiniteMatrixAction(2, (QMatrix.from_rows([[0, -1], [1, -1]]),))


def c4_rotation() -> FiniteMatrixAction:
    return FiniteMatrixAction(2, (QMatrix.from_rows([[0, -1], [1, 0]]),))


def c2_x_c2() -> FiniteMatrixAction:
    """Sign changes on both coordinates of R^2."""
    return FiniteMatrixAction(
        2,
        (
            QMatrix.from_rows([[-1, 0], [0, 1]]),
            QMatrix.from_rows([[1, 0], [0, -1]]),
        ),
    )


def d4_on_r2() -> FiniteMatrixAction:
    """Dihedral group of the square: rotation by 90 degrees and a reflection."""
    return FiniteMatrixAction(
        2,
        (
            QMatrix.from_rows([[0, -1], [1, 0]]),
            QMatrix.from_rows([[1, 0], [0, -1]]),
        ),
    )


def _s3_standard_gens() -> tuple[QMatrix, QMatrix]:
    # basis e1 - e2, e2 - e3 of the sum-zero plane
    swap = QMatrix.from_rows([[-1, 1], [0, 1]])
    cycle = QMatrix.from_rows([[0, -1], [1, -1]])
    return swap, cycle


def s3_standard() -> FiniteMatrixAction:
    return FiniteMatrixAction(2, _s3_standard_gens())


def s3_standard_plus_sign() -> FiniteMatrixAction:
    """Standard 2-dim plus the sign character on R^3."""
    swap, cycle = _s3_standard_gens()

    def block(mat, sign):
        rows = []
        for i in range(2):
            rows.append(list(mat.entries[i]) + [0])
        rows.append([0, 0, sign])
        return QMatrix.from_rows(rows)

    return FiniteMatrixAction(3, (block(swap, -1), block(cycle, 1)))


def q8_on_r4() -> FiniteMatrixAction:
    """Quaternion group by left multiplication by i and j on H = R^4."""
    li = QMatrix.from_rows(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    lj = QMatrix.from_rows(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    )
    return FiniteMatrixAction(4, (li, lj))


def s3_regular_minus_trivial() -> FiniteMatrixAction:
    """Left regular representation of S3 restricted to the sum-zero subspace."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}

    def compose(p, q):  # (p o q)(x) = p(q(x))
        return tuple(p[q[i]] for i in range(3))

    def perm_matrix(p):
        # left multiplication by p permutes basis vectors e_g -> e_{p o g}
        cols = [index[compose(p, g)] for g in elems]
        six = [[1 if i == cols[j] else 0 for j in range(6)] for i in range(6)]
        # restrict to the sum-zero subspace with basis f_i = e_i - e_5
        # (images stay sum-zero; express in the f basis)
        rows = []
        for i in range(5):
            row = []
            for j in range(5):
                # image of f_j is e_{p.j} - e_{p.5}; coefficient of f_i is
                # [i = p.j] - [i = p.5]
                row.append(six[i][j] - six[i][5])
            rows.append(row)
        return QMatrix.from_rows(rows)

    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    return FiniteMatrixAction(5, (perm_matrix(swap), perm_matrix(cycle)))


# ---------------------------------------------------------------------------
# realified complex and quaternionic matrices


def realify_complex(re: QMatrix, im: QMatrix) -> QMatrix:
    """Real matrix of (re + i*im) acting on C^n = R^{2n}, coordinates
    interleaved as (x_0, y_0, x_1, y_1, ...)."""
    n = re.rows
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            rows[2 * a][2 * b] = re.entries[a][b]
            rows[2 * a][2 * b + 1] = -im.entries[a][b]
            rows[2 * a + 1][2 * b] = im.entries[a][b]
            rows[2 * a + 1][2 * b + 1] = re.entries[a][b]
    return QMatrix.from_rows(rows)


def gl_n_r(n: int) -> MatrixAlgebra:
    basis = []
    for i in range(n):
        for j in range(n):
            rows = [
                [Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n)]
                for r in range(n)
            ]
            basis.append(QMatrix.from_rows(rows))
    return MatrixAlgebra.from_basis(n, tuple(basis))


def gl_n_c(n: int) -> MatrixAlgebra:
    """gl(n, C) as a real algebra of 2n x 2n matrices, real dim 2n^2."""
    basis = []
    zero = QMatrix.zeros(n, n)
    for i in range(n):
        for j in range(n):
            e = QMatrix.from_rows(
                [
                    [Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n)]
                    for r in range(n)
                ]
            )
            basis.append(realify_complex(e, zero))
            basis.append(realify_complex(zero, e))
    return MatrixAlgebra.from_basis(2 * n, tuple(basis))


_QUAT_LEFT = {
    "1": QMatrix.identity(4),
    "i": QMatrix.from_rows(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    ),
    "j": QMatrix.from_rows(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    ),
    "k": QMatrix.from_rows(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    ),
}


def gl_n_h(n: int) -> MatrixAlgebra:
    """gl(n, H) as a real algebra of 4n x 4n matrices, real dim 4n^2."""
    basis = []
    for i in range(n):
        for j in range(n):
            for unit in "1ijk":
                block = _QUAT_LEFT[unit]
                rows = [[Fraction(0)] * (4 * n) for _ in range(4 * n)]
                for a in range(4):
                    for b in range(4):
                        rows[4 * i + a][4 * j + b] = block.entries[a][b]
                basis.append(QMatrix.from_rows(rows))
    return MatrixAlgebra.from_basis(4 * n, tuple(basis))


def upper_triangular_2x2() -> MatrixAlgebra:
    """Not a commutant of a compact action; the center-split check fails."""
    basis = (
        QMatrix.from_rows([[1, 0], [0, 0]]),
        QMatrix.from_rows([[0, 1], [0, 0]]),
        QMatrix.from_rows([[0, 0], [0, 1]]),
    )
    return MatrixAlgebra.from_basis(2, basis)


# ---------------------------------------------------------------------------
# Lie algebras by structure constants


def so3() -> LieAlgebraSC:
    """[L1, L2] = L3 cyclically."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k] = 1
        c[j][i][k] = -1
    return LieAlgebraSC.from_constants(3, c)


def sl2() -> LieAlgebraSC:
    """Basis h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1], c[1][0][1] = 2, -2
    c[0][2][2], c[2][0][2] = -2, 2
    c[1][2][0], c[2][1][0] = 1, -1
    return LieAlgebraSC.from_constants(3, c)


def nonabelian_2dim() -> LieAlgebraSC:
    """[e1, e2] = e2."""
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][1], c[1][0][1] = 1, -1
    return LieAlgebraSC.from_constants(2, c)


# ---------------------------------------------------------------------------
# connected groups


def su2_on_c2() -> ConnectedLieAction:
    """su(2) acting on C^2 = R^4 (the quaternionic irreducible)."""
    zero = QMatrix.zeros(2, 2)
    gens = (
        # i*sigma_z, off-diagonal real, off-diagonal imaginary
        realify_complex(zero, QMatrix.from_rows([[1, 0], [0, -1]])),
        realify_complex(QMatrix.from_rows([[0, 1], [-1, 0]]), zero),
        realify_complex(zero, QMatrix.from_rows([[0, 1], [1, 0]])),
    )
    return ConnectedLieAction(4, gens)


def _su_n_basis(n: int) -> list[tuple[QMatrix, QMatrix]]:
    """su(n) as (real part, imaginary part) pairs of complex n x n matrices."""
    out = []

    def units(*signed):
        # the sum of sign * E_ij over the (i, j, sign) of `signed`
        rows = [[0] * n for _ in range(n)]
        for i, j, sign in signed:
            rows[i][j] = sign
        return QMatrix.from_rows(rows)

    zero = QMatrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            out.append((units((i, j, 1), (j, i, -1)), zero))  # real antisymmetric
            out.append((zero, units((i, j, 1), (j, i, 1))))  # i * symmetric
    for i in range(n - 1):
        out.append((zero, units((i, i, 1), (i + 1, i + 1, -1))))  # i * traceless diag
    return out


def su3_on_c3_plus_wedge2() -> ConnectedLieAction:
    """su(3) on C^3 + Lambda^2 C^3, realified to R^12.

    On the wedge basis e2^e3, e3^e1, e1^e2 the induced action of a traceless
    xi is -xi^T.
    """
    gens = []
    for re, im in _su_n_basis(3):
        lam_re = QMatrix.from_rows([[-x for x in row] for row in re.transpose().entries])
        lam_im = QMatrix.from_rows([[-x for x in row] for row in im.transpose().entries])
        top = realify_complex(re, im)
        bottom = realify_complex(lam_re, lam_im)
        rows = [[Fraction(0)] * 12 for _ in range(12)]
        for a in range(6):
            for b in range(6):
                rows[a][b] = top.entries[a][b]
                rows[6 + a][6 + b] = bottom.entries[a][b]
        gens.append(QMatrix.from_rows(rows))
    return ConnectedLieAction(12, tuple(gens))
