"""Descriptors of compact group actions on R^n.

A group is given in one of three finite forms: a finite matrix group by
generators, a torus by an integer weight matrix acting on complex block
coordinates, or a connected group by Lie-algebra generator matrices.
Each form reduces "fixed by the group" to a finite family of exact linear
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .exactlin import (
    QMatrix,
    Subspace,
    _ZERO,
    bracket_vec,
    common_nullspace,
    product_vec,
    rank,
)

DEFAULT_GROUP_CAP = 100_000


class GroupNotFiniteError(RuntimeError):
    """The generated group has an element of infinite order, or outgrew the
    enumeration cap."""


def _check_trace(m: QMatrix, what: str, error: type[Exception]) -> None:
    """Raise error unless m passes the trace test for finite order.  A rational
    matrix of finite order is diagonalizable with roots of unity as
    eigenvalues, so its trace is an integer in [-n, n], and is n or -n only
    for I or -I.  O(n) unless the trace is n or -n."""
    n = m.rows
    t = sum(m.entries[i][i] for i in range(n))
    if t.denominator != 1 or abs(t) > n:
        msg = "%s has infinite order: its trace %s is not an integer in [-%d, %d]"
        raise error(msg % (what, t, n, n))
    if abs(t) == n:
        sign = 1 if t > 0 else -1
        if any(x != (sign if i == j else 0) for i, row in enumerate(m.entries)
               for j, x in enumerate(row)):
            msg = "%s has infinite order: its trace is %s but it is not %sI"
            raise error(msg % (what, t, "" if sign > 0 else "-"))


@dataclass(frozen=True)
class FiniteMatrixAction:
    """Finite group acting by invertible rational matrices."""

    dim: int
    generators: tuple[QMatrix, ...]
    cap: int = DEFAULT_GROUP_CAP

    def __post_init__(self):
        for i, g in enumerate(self.generators):
            if g.rows != self.dim or g.cols != self.dim:
                raise ValueError("generator shape mismatch")
            if rank(g) != self.dim:
                raise ValueError("generator is not invertible")
            _check_trace(g, "generators[%d]" % i, ValueError)

    @cached_property
    def elements(self) -> tuple[QMatrix, ...]:
        """The elements of G, enumerated once per action."""
        return tuple(enumerate_group(self))

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class TorusAction:
    """k-torus acting on C^m = R^{2m}; column j of `weights` drives block j.

    Real coordinates (x_{2j}, x_{2j+1}) are the real and imaginary part of
    the j-th complex coordinate; rotations are counterclockwise.
    """

    weights: tuple[tuple[int, ...], ...]  # k rows, m columns

    def __post_init__(self):
        if not self.weights:
            raise ValueError("torus needs at least one weight row")
        m = len(self.weights[0])
        if any(len(r) != m for r in self.weights):
            raise ValueError("ragged weight matrix")
        if m == 0:
            raise ValueError("torus acting on zero-dimensional space")

    @property
    def blocks(self) -> int:
        return len(self.weights[0])

    @property
    def dim(self) -> int:
        return 2 * self.blocks

    def infinitesimal_generators(self) -> list[QMatrix]:
        """One block-diagonal generator per torus coordinate: weight * J."""
        out = []
        for row in self.weights:
            n = self.dim
            rows = [[Fraction(0)] * n for _ in range(n)]
            for j, w in enumerate(row):
                rows[2 * j][2 * j + 1] = Fraction(-w)
                rows[2 * j + 1][2 * j] = Fraction(w)
            out.append(QMatrix.from_rows(rows))
        return out


@dataclass(frozen=True)
class ConnectedLieAction:
    """Connected group given by matrices spanning its Lie algebra in End(V)."""

    dim: int
    lie_generators: tuple[QMatrix, ...]

    def __post_init__(self):
        for g in self.lie_generators:
            if g.rows != self.dim or g.cols != self.dim:
                raise ValueError("Lie generator shape mismatch")
        engine = Subspace.from_vectors(
            self.dim * self.dim, [g.vec() for g in self.lie_generators]
        )._engine
        if not all(engine.contains(bracket_vec(a, b))
                   for a, b in combinations(self.lie_generators, 2)):
            raise ValueError("generators are not closed under the bracket")


GroupAction = FiniteMatrixAction | TorusAction | ConnectedLieAction


def action_generators(g: GroupAction) -> list[QMatrix]:
    """The matrices that generate the action: group generators of a finite
    group, infinitesimal generators of a torus, Lie generators of a connected
    group.  X commutes with the action exactly when it commutes with these."""
    if isinstance(g, FiniteMatrixAction):
        return list(g.generators)
    if isinstance(g, TorusAction):
        return g.infinitesimal_generators()
    return list(g.lie_generators)


def enumerate_group(g: FiniteMatrixAction) -> list[QMatrix]:
    """Full element list by breadth-first closure; deterministic order.  Each
    product is keyed by its sorted nonzeros, and a matrix is built only for a
    new element, which must pass the trace test for finite order."""
    if not isinstance(g, FiniteMatrixAction):
        raise TypeError("enumerate_group needs a finite matrix action")
    n = g.dim
    ident = QMatrix.identity(n)
    seen = {tuple(sorted(product_vec(ident, ident).items())): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in g.generators:
                key = tuple(sorted(product_vec(el, gen).items()))
                if key not in seen:
                    rows = [[_ZERO] * n for _ in range(n)]
                    for k, x in key:
                        rows[k // n][k % n] = x
                    prod = QMatrix._of(rows)
                    _check_trace(prod, "group not finite: an element", GroupNotFiniteError)
                    if len(seen) >= g.cap:
                        raise GroupNotFiniteError(
                            "group not finite under cap %d" % g.cap
                        )
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def commutator_rows(a: QMatrix) -> list[dict]:
    """Sparse rows {col: value} of X -> a X - X a on row-major vec(X).

    Row (i, j) holds a[i][k] at column (k, j) and -a[k][j] at column (i, k):
    at most 2n entries.
    """
    n = a.rows
    a_rows, a_cols = a.nonzero_rows, a.transpose().nonzero_rows
    out = []
    for i in range(n):
        for j in range(n):
            row = {k * n + j: x for k, x in a_rows[i]}
            for k, x in a_cols[j]:
                row[i * n + k] = row.get(i * n + k, _ZERO) - x
            out.append(row)
    return out


def invariance_constraints(g: GroupAction) -> list[dict]:
    """Sparse rows on vec(End(V)) whose joint kernel is End(V)^H.

    For an invertible g, g X g^-1 = X exactly when g X - X g = 0, so finite
    groups need no inverses: every action kind gives commutator rows.
    """
    return [row for a in action_generators(g) for row in commutator_rows(a)]


def fixed_vectors(g: GroupAction) -> Subspace:
    """V^H as a subspace of R^n: the joint kernel of g - I over the generators
    of a finite group, of xi over the infinitesimal generators otherwise."""
    gens = action_generators(g)
    if not gens:
        return Subspace.full(g.dim)
    if isinstance(g, FiniteMatrixAction):
        ident = QMatrix.identity(g.dim)
        gens = [gen - ident for gen in gens]
    return common_nullspace(gens)
