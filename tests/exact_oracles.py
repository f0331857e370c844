"""Dense rational helpers for tests only: flattening, scaling and zero tests
of matrices, and the brackets and constants of a Lie algebra as rationals.
The library runs on integer rows and never forms these."""

from fractions import Fraction
from itertools import chain

from equivab.exactlin import QMatrix, _exact
from equivab.liealg import LieAlgebraSC


def vec(m: QMatrix) -> tuple:
    """Row-major flattening of m, as rationals."""
    return tuple(chain.from_iterable(m.entries))


def scale(m: QMatrix, c) -> QMatrix:
    """c m for an exact scalar c."""
    c = Fraction(_exact(c))
    return QMatrix.from_rows([[c * x for x in row] for row in m.entries])


def is_zero(m: QMatrix) -> bool:
    return not any(m.int_rows)


def constants(g: LieAlgebraSC) -> tuple:
    """The rationals c[i][j][k] of g, from its integer planes."""
    return tuple(
        tuple(tuple(Fraction(dict(row).get(k, 0), g.den) for k in range(g.dim)) for row in plane)
        for plane in g.planes
    )


def bracket(g: LieAlgebraSC, x, y) -> tuple:
    """[x, y] of two exact vectors, as rationals, from the integer planes."""
    out = [Fraction(0)] * g.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            f = Fraction(_exact(a)) * Fraction(_exact(b))
            if f:
                for k, c in g.planes[i][j]:
                    out[k] += f * c
    return tuple(v / g.den for v in out)
