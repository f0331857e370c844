"""Finite-dimensional real Lie algebras via rational structure constants.

Handles the Lie-theoretic summand: fixed subalgebras under an isotropy
action, quotients by fixed ideals, and abelianizations.  An algebra holds its
constants as integers over one denominator, and every check and bracket runs
on integer vectors {index: int}, as the exact engine does; rationals are
formed only for messages and for the quotient's constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence

from .exactlin import (
    QMatrix, Subspace, _exact, common_nullspace, minus_identity, solve, sparse_rows
)

# the nonzeros (k, x) of one integer vector, by k
Pairs = tuple[tuple[int, int], ...]


class JacobiError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class NotAnIdealError(ValueError):
    """Quotient requested by a subspace that is not an ideal."""


@dataclass(frozen=True)
class LieAlgebraSC:
    """Lie algebra on basis e_1..e_n with [e_i, e_j] = sum_k c[i][j][k] e_k,
    stored as den, the lcm of the denominators of c, and the integer planes:
    planes[i][j] lists the nonzeros (k, den * c[i][j][k]) by k.  So equal
    algebras are equal records."""

    dim: int
    den: int
    planes: tuple[tuple[Pairs, ...], ...]

    @staticmethod
    def from_constants(dim: int, constants) -> "LieAlgebraSC":
        """The algebra of the nested rationals constants[i][j][k]."""
        c = [[list(row) for row in plane] for plane in constants]
        if len(c) != dim or any(len(p) != dim or any(len(r) != dim for r in p) for p in c):
            raise ValueError("structure constant tensor must be dim^3")
        c = [[[_exact(x) for x in r] for r in p] for p in c]
        den = lcm(*(x.denominator for p in c for r in p for x in r))
        return LieAlgebraSC.from_planes(dim, den, [
            [[x.numerator * (den // x.denominator) for x in r] for r in p] for p in c
        ])

    @staticmethod
    def from_planes(
        dim: int, den: int, planes: Sequence[Sequence[Sequence[int]]]
    ) -> "LieAlgebraSC":
        """The algebra whose i-th plane, the matrix (c[i][j][k]) by (j, k), is
        planes[i] / den: den the lcm of the constants' denominators, and
        each plane's rows dense lists of integers, read straight into the
        integer planes."""
        if len(planes) != dim:
            raise ValueError("structure_constants has %d planes, not %d" % (len(planes), dim))
        for i, p in enumerate(planes):
            shape = (len(p), len(p[0]) if p else 0)
            if shape != (dim, dim):
                raise ValueError("structure_constants[%d] is %d x %d, not %d x %d"
                                 % (i, *shape, dim, dim))
        alg = LieAlgebraSC(dim, den, tuple(map(sparse_rows, planes)))
        alg._validate()
        return alg

    def _validate(self) -> None:
        """Raise JacobiError at the first (i, j, k) where antisymmetry fails,
        else at the first (i, j, k), i < j < k, where the Jacobi identity
        fails; the checks compare integers, all over den or den^2."""
        n, planes = self.dim, self.planes
        # c[i][j][k] != -c[j][i][k] is symmetric in (i, j), so the first
        # failing (i, j) has i <= j
        for i in range(n):
            for j in range(i, n):
                if planes[i][j] != tuple([(k, -x) for k, x in planes[j][i]]):
                    a, b = dict(planes[i][j]), dict(planes[j][i])
                    k = min(k for k in a.keys() | b.keys() if a.get(k, 0) != -b.get(k, 0))
                    raise JacobiError("antisymmetry fails at (%d, %d, %d)" % (i, j, k))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total: dict[int, int] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for p, x in planes[a][b]:
                            for m, y in planes[p][c]:
                                total[m] = total.get(m, 0) + x * y
                    if any(total.values()):
                        raise JacobiError("Jacobi identity fails at (%d, %d, %d)" % (i, j, k))

    def _bracket(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """den * [x, y] of two integer vectors {index: int}, zeros dropped."""
        out: dict[int, int] = {}
        planes = self.planes
        for i, a in x.items():
            plane = planes[i]
            for j, b in y.items():
                f = a * b
                for k, c in plane[j]:
                    out[k] = out.get(k, 0) + f * c
        return {k: v for k, v in out.items() if v}

    def is_subalgebra(self, s: Subspace) -> bool:
        """Whether s is bracket-closed: the bracket of each pair of its integer
        rows goes into one engine holding s.  [b, a] = -[a, b] and [a, a] = 0,
        so the pairs a < b suffice."""
        rows = [row for _, _, row in s.rows]
        engine = s._engine()
        return all(
            engine.contains(self._bracket(a, b)) for i, a in enumerate(rows) for b in rows[i + 1:]
        )

    def derived_subspace(self) -> Subspace:
        """[g, g]: the span of the integer planes [e_i, e_j], i < j."""
        n = self.dim
        return Subspace._span(n, (dict(self.planes[i][j]) for i in range(n) for j in range(i + 1, n)))


def _columns(m: QMatrix) -> list[dict[int, int]]:
    """The columns of den(M) M as integer vectors."""
    return [dict(col) for col in m.transpose().int_rows]


def _image(cols: list[dict[int, int]], v: Pairs, scale: int = 1) -> dict[int, int]:
    """scale M v, zeros dropped, for the matrix M of columns `cols` and the
    integer vector v of pairs (k, x)."""
    out: dict[int, int] = {}
    for k, x in v:
        x *= scale
        for r, y in cols[k].items():
            out[r] = out.get(r, 0) + x * y
    return {r: y for r, y in out.items() if y}


# An action matrix is a dim x dim matrix (`IsotropyData` checks the shape),
# checked on the pairs e_i, e_j with i < j: both sides of each identity are
# bilinear and antisymmetric in (x, y) on a validated algebra, so the other
# pairs follow.  M c_ij is the `_image` of the plane row c_ij.


def is_automorphism(g: LieAlgebraSC, a: QMatrix) -> bool:
    """Whether A preserves brackets: A[x,y] = [Ax, Ay] on basis pairs.  With
    A = M / d, both sides times d^2 den(g) are d M c_ij and [M e_i, M e_j]."""
    cols = _columns(a)
    d, planes = a.den, g.planes
    return all(
        _image(cols, planes[i][j], d) == g._bracket(cols[i], cols[j])
        for i in range(g.dim) for j in range(i + 1, g.dim)
    )


def is_derivation(g: LieAlgebraSC, d: QMatrix) -> bool:
    """Whether D satisfies Leibniz: D[x,y] = [Dx,y] + [x,Dy] on basis pairs.
    With D = M / e, both sides times e den(g) are M c_ij and [M e_i, e_j] +
    [e_i, M e_j]."""
    cols = _columns(d)
    planes = g.planes
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            rhs = g._bracket(cols[i], {j: 1})
            for k, x in g._bracket({i: 1}, cols[j]).items():
                rhs[k] = rhs.get(k, 0) + x
            if _image(cols, planes[i][j]) != {k: x for k, x in rhs.items() if x}:
                return False
    return True


@dataclass(frozen=True)
class IsotropyData:
    """Ambient algebra, isotropy subalgebra, and the isotropy action on both.

    `automorphisms` are adjoint images of generators of a finite isotropy
    group; `derivations` are ad-matrices of Lie generators of a connected one.
    The fixed algebras k^H and h^H are computed once, and h^H must be an ideal
    of k^H, so that the quotient k^H / h^H is defined.
    """

    k: LieAlgebraSC
    h_basis: Subspace
    automorphisms: tuple[QMatrix, ...] = ()
    derivations: tuple[QMatrix, ...] = ()

    def __post_init__(self):
        if self.h_basis.ambient_dim != self.k.dim:
            raise ValueError("h lives in the wrong ambient dimension")
        if not self.k.is_subalgebra(self.h_basis):
            raise ValueError("h is not a subalgebra")
        n = self.k.dim
        for name in ("automorphisms", "derivations"):
            for i, m in enumerate(getattr(self, name)):
                if (m.rows, m.cols) != (n, n):
                    raise ValueError(
                        "%s[%d] is %d x %d, not %d x %d" % (name, i, m.rows, m.cols, n, n)
                    )
        for a in self.automorphisms:
            if not is_automorphism(self.k, a):
                raise ValueError("action matrix is not a Lie automorphism")
        for d in self.derivations:
            if not is_derivation(self.k, d):
                raise ValueError("action matrix is not a derivation")
        _check_ideal(self.k, *self.fixed)

    @cached_property
    def fixed(self) -> tuple[Subspace, Subspace]:
        """(k^H, h^H): the fixed subalgebra of k and its meet with h."""
        k_fixed = fixed_subalgebra(self)
        return k_fixed, k_fixed.intersection(self.h_basis)


def fixed_subalgebra(data: IsotropyData) -> Subspace:
    """Fixed points of the isotropy action on the ambient algebra."""
    n = data.k.dim
    ops = [minus_identity(a) for a in data.automorphisms] + list(data.derivations)
    # bracket-closed with no check: an automorphism fixing x and y fixes
    # [x, y], and a derivation killing x and y kills [x, y]; `IsotropyData`
    # has checked every action matrix before `fixed` is read
    return Subspace.full(n) if not ops else common_nullspace(ops)


def _show(v: Sequence) -> str:
    return "(%s)" % ", ".join(str(x) for x in v)


def _check_ideal(ambient: LieAlgebraSC, k_fixed: Subspace, h_fixed: Subspace) -> None:
    """Raise NotAnIdealError naming the first basis vectors a of k_fixed and b
    of h_fixed with [a, b] outside h_fixed; the brackets are those of the
    integer rows, into one engine holding h_fixed."""
    engine = h_fixed._engine()
    for i, (_, _, a) in enumerate(k_fixed.rows):
        for j, (_, _, b) in enumerate(h_fixed.rows):
            if not engine.contains(ambient._bracket(a, b)):
                raise NotAnIdealError(
                    "quotient undefined: bracket of %s and %s leaves the ideal"
                    % (_show(k_fixed.basis[i]), _show(h_fixed.basis[j]))
                )


def quotient_lie_algebra(data: IsotropyData) -> LieAlgebraSC:
    """Structure constants of k^H / h^H on a complement basis: the integer
    rows of k^H that extend those of h^H.  `data` proved h^H an ideal of the
    subalgebra k^H when it was built, so every bracket of two complement rows
    is in k^H and solves."""
    (k_fixed, h_fixed), ambient = data.fixed, data.k
    engine = h_fixed._engine()
    comp = [row for _, _, row in k_fixed.rows if engine.insert(row)]
    q = len(comp)
    if q == 0:
        return LieAlgebraSC(0, 1, ())
    # the columns of M are the complement and h rows times den(ambient), so
    # M x = den [u_i, u_j] is solved by the coordinates x of [u_i, u_j]; the
    # first q of them are the quotient's constants
    columns = comp + [row for _, _, row in h_fixed.rows]
    n, den = ambient.dim, ambient.den
    m = QMatrix(1, tuple(
        tuple((c, den * col[r]) for c, col in enumerate(columns) if r in col) for r in range(n)
    ), len(columns))
    constants = []
    for a in comp:
        plane = []
        for b in comp:
            br = ambient._bracket(a, b)
            plane.append(solve(m, [br.get(r, 0) for r in range(n)])[:q])
        constants.append(plane)
    return LieAlgebraSC.from_constants(q, constants)


def lie_abelianization(g: LieAlgebraSC) -> int:
    """The dimension of g / [g, g]."""
    return g.dim - g.derived_subspace().dim
