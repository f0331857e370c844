"""Finite-dimensional real Lie algebras via rational structure constants.

Handles the Lie-theoretic summand: fixed subalgebras under an isotropy
action, quotients by fixed ideals, and abelianizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exactlin import _ZERO, QMatrix, Subspace, _q, common_nullspace, solve


class JacobiError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class NotAnIdealError(ValueError):
    """Quotient requested by a subspace that is not an ideal."""


@dataclass(frozen=True)
class LieAlgebraSC:
    """Lie algebra on basis e_1..e_n with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    dim: int
    constants: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @staticmethod
    def from_constants(dim: int, constants) -> "LieAlgebraSC":
        c = tuple(
            tuple(tuple(_q(x) for x in row) for row in plane)
            for plane in constants
        )
        if len(c) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in c
        ):
            raise ValueError("structure constant tensor must be dim^3")
        alg = LieAlgebraSC(dim, c)
        alg._validate()
        return alg

    @staticmethod
    def abelian(dim: int) -> "LieAlgebraSC":
        z = Fraction(0)
        c = tuple(
            tuple(tuple(z for _ in range(dim)) for _ in range(dim))
            for _ in range(dim)
        )
        return LieAlgebraSC(dim, c)

    def _validate(self) -> None:
        n = self.dim
        c = self.constants
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[i][j][k] != -c[j][i][k]:
                        raise JacobiError(
                            "antisymmetry fails at (%d, %d, %d)" % (i, j, k)
                        )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for m in range(n):
                        total = Fraction(0)
                        for p in range(n):
                            total += (
                                c[i][j][p] * c[p][k][m]
                                + c[j][k][p] * c[p][i][m]
                                + c[k][i][p] * c[p][j][m]
                            )
                        if total != 0:
                            raise JacobiError(
                                "Jacobi identity fails at (%d, %d, %d)" % (i, j, k)
                            )

    @cached_property
    def _nonzero_constants(self) -> tuple[tuple[list[tuple[int, Fraction]], ...], ...]:
        """The (k, c[i][j][k]) nonzeros of each plane row (i, j), listed once
        per algebra."""
        return tuple(
            tuple([(k, c) for k, c in enumerate(row) if c] for row in plane)
            for plane in self.constants
        )

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        planes = self._nonzero_constants
        ys = [(j, _q(b)) for j, b in enumerate(y) if b]
        out = [_ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            a, plane = _q(a), planes[i]
            for j, b in ys:
                f = a * b
                for k, c in plane[j]:
                    out[k] += f * c
        return tuple(out)

    def is_subalgebra(self, s: Subspace) -> bool:
        for a in s.basis:
            for b in s.basis:
                if not s.contains(self.bracket(a, b)):
                    return False
        return True

    def derived_subspace(self) -> Subspace:
        n = self.dim
        vecs = []
        for i in range(n):
            ei = [Fraction(0)] * n
            ei[i] = Fraction(1)
            for j in range(i + 1, n):
                ej = [Fraction(0)] * n
                ej[j] = Fraction(1)
                vecs.append(self.bracket(ei, ej))
        return Subspace.from_vectors(n, vecs)


def is_automorphism(g: LieAlgebraSC, a: QMatrix) -> bool:
    """Whether A preserves brackets: A[x,y] = [Ax, Ay] on basis pairs."""
    n = g.dim
    for i in range(n):
        ei = [Fraction(0)] * n
        ei[i] = Fraction(1)
        ai = a.mul_vec(ei)
        for j in range(n):
            ej = [Fraction(0)] * n
            ej[j] = Fraction(1)
            lhs = a.mul_vec(g.bracket(ei, ej))
            rhs = g.bracket(ai, a.mul_vec(ej))
            if lhs != rhs:
                return False
    return True


def is_derivation(g: LieAlgebraSC, d: QMatrix) -> bool:
    """Whether D satisfies Leibniz: D[x,y] = [Dx,y] + [x,Dy] on basis pairs."""
    n = g.dim
    for i in range(n):
        ei = [Fraction(0)] * n
        ei[i] = Fraction(1)
        for j in range(n):
            ej = [Fraction(0)] * n
            ej[j] = Fraction(1)
            lhs = d.mul_vec(g.bracket(ei, ej))
            rhs = tuple(
                a + b
                for a, b in zip(
                    g.bracket(d.mul_vec(ei), ej), g.bracket(ei, d.mul_vec(ej))
                )
            )
            if lhs != rhs:
                return False
    return True


@dataclass(frozen=True)
class IsotropyData:
    """Ambient algebra, isotropy subalgebra, and the isotropy action on both.

    `automorphisms` are adjoint images of generators of a finite isotropy
    group; `derivations` are ad-matrices of Lie generators of a connected one.
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
        for a in self.automorphisms:
            if not is_automorphism(self.k, a):
                raise ValueError("action matrix is not a Lie automorphism")
        for d in self.derivations:
            if not is_derivation(self.k, d):
                raise ValueError("action matrix is not a derivation")


def fixed_subalgebra(data: IsotropyData) -> Subspace:
    """Fixed points of the isotropy action on the ambient algebra."""
    n = data.k.dim
    ident = QMatrix.identity(n)
    ops = [a - ident for a in data.automorphisms] + list(data.derivations)
    fixed = Subspace.full(n) if not ops else common_nullspace(ops)
    if not data.k.is_subalgebra(fixed):
        raise AssertionError(
            "fixed subspace is not bracket-closed; action data is invalid"
        )
    return fixed


def quotient_lie_algebra(
    k_fixed: Subspace, h_fixed: Subspace, ambient: LieAlgebraSC
) -> LieAlgebraSC:
    """Structure constants of k_fixed / h_fixed on a complement basis."""
    if not k_fixed.contains_subspace(h_fixed):
        raise ValueError("h_fixed is not contained in k_fixed")
    # ideal check: [k_fixed, h_fixed] inside h_fixed
    for a in k_fixed.basis:
        for b in h_fixed.basis:
            br = ambient.bracket(a, b)
            if not h_fixed.contains(br):
                raise NotAnIdealError(
                    "quotient undefined: bracket of %s and %s leaves the ideal"
                    % (a, b)
                )
    comp = h_fixed.complement_in(k_fixed)
    q = len(comp)
    if q == 0:
        return LieAlgebraSC.abelian(0)
    # coordinates of brackets in the (complement + h) basis, drop the h part
    full_basis = QMatrix.from_rows(list(comp) + list(h_fixed.basis)).transpose()
    constants = []
    for i in range(q):
        plane = []
        for j in range(q):
            br = ambient.bracket(comp[i], comp[j])
            sol = solve(full_basis, br)
            if sol is None:
                raise AssertionError("bracket left k_fixed; not a subalgebra")
            plane.append(tuple(sol[:q]))
        constants.append(tuple(plane))
    return LieAlgebraSC.from_constants(q, tuple(constants))


def lie_abelianization(g: LieAlgebraSC) -> tuple[int, list[tuple[Fraction, ...]]]:
    """(dimension, representative vectors) of g / [g, g]."""
    derived = g.derived_subspace()
    reps = derived.complement_in(Subspace.full(g.dim))
    return g.dim - derived.dim, reps
