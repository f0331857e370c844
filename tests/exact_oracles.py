"""Dense rational helpers for tests only: flattening, sums, differences,
scaling, zero tests, rank and matrix-vector products of matrices,
complements of subspaces, and the brackets and constants of a Lie algebra
as rationals.  The library runs
on integer rows and never forms these.  Also the quotient kernel read from
every invariant, with none of the library's early stops, the kernel's
floor Z(A) meet Lie(K) by intersection, and the commutant, invariants and
fixed vectors of an action read from every one of its generators."""

from fractions import Fraction
from itertools import chain
from math import lcm

from equivab.exactlin import QMatrix, SparseRREF, Subspace, _exact, rows_of, rref
from equivab.liealg import LieAlgebraSC
from equivab.strata import KernelResult, derivation_action, invariants_up_to_degree
from equivab.symmetry import (
    FiniteMatrixAction,
    _derivation_operator,
    _kernel_invariants,
    commutator_rows,
)


def vec(m: QMatrix) -> tuple:
    """Row-major flattening of m, as rationals."""
    return tuple(chain.from_iterable(m.entries))


def _plus(a: QMatrix, b: QMatrix, sign: int) -> QMatrix:
    """a + sign * b, over the lcm of the two denominators."""
    den = lcm(a.den, b.den)
    x, y = den // a.den, sign * (den // b.den)
    out = {k: x * v for k, v in a.int_vec().items()}
    for k, v in b.int_vec().items():
        out[k] = out.get(k, 0) + y * v
    return QMatrix._of(den, out.items(), a.rows, a.cols)


def plus(a: QMatrix, b: QMatrix) -> QMatrix:
    """a + b."""
    return _plus(a, b, 1)


def minus(a: QMatrix, b: QMatrix) -> QMatrix:
    """a - b."""
    return _plus(a, b, -1)


def scale(m: QMatrix, c) -> QMatrix:
    """c m for an exact scalar c."""
    c = Fraction(_exact(c))
    return QMatrix.from_rows([[c * x for x in row] for row in m.entries])


def is_zero(m: QMatrix) -> bool:
    return not any(m.int_rows)


def rank(m: QMatrix) -> int:
    return rref(m)[1]


def mul_vec(m: QMatrix, v) -> tuple:
    """M v for a vector v of exact values, as rationals."""
    if m.cols != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    v = [Fraction(_exact(x)) for x in v]
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m.entries)


def complement_in(u: Subspace, bigger: Subspace) -> list:
    """Basis vectors of `bigger` that extend a basis of u to one of bigger."""
    if not bigger.contains_subspace(u):
        raise ValueError("u is not contained in the bigger subspace")
    kept, out = list(u.basis), []
    for v in bigger.basis:
        if Subspace.from_vectors(u.ambient_dim, kept + [v]).dim > len(kept):
            kept.append(v)
            out.append(v)
    return out


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


def kernel_reading_every_degree(g, z: Subspace, degree: int) -> KernelResult:
    """The one-degree elimination kernel_s_at_degrees(g, z, (degree,), ...)
    with no stop: the rows of every central derivation of every invariant of
    degree <= degree go into one engine, whatever its rank, and the label is
    the action's certified(degree)."""
    n = g.dim
    vecs = [row for _, _, row in z.rows]
    mats = [QMatrix._of(1, v.items(), n, n) for v in vecs]
    engine = SparseRREF(len(mats))
    for basis in list(invariants_up_to_degree(g, degree)):
        for f in basis:
            for row in rows_of([derivation_action(dm, f) for dm in mats]):
                engine.insert(row)
    s = Subspace._span(n * n, engine.kernel().combinations(vecs))
    return KernelResult(s, "certified" if g.certified(degree) else "degree-bounded", degree)


def lie_floor(g, z: Subspace) -> Subspace:
    """L = Z(A) meet Lie(K) by intersecting z with the span of the Lie
    generators, with no use of Lie(K) lying in Z(A): zero for a finite
    group, and Z(A) meet the span of the generators otherwise."""
    finite = isinstance(g, FiniteMatrixAction)
    gens = [] if finite else g.action_generators()
    assert g.lie_algebra_generators() == gens
    n2 = g.dim * g.dim
    return z.intersection(Subspace.from_vectors(n2, [vec(a) for a in gens] or [[0] * n2]))


def commutant_of_every_generator(g) -> Subspace:
    """End(V)^H as the joint kernel of the commutator rows of every action
    generator, whatever the action kind."""
    n = g.dim
    rows = [row for a in g.action_generators() for row in commutator_rows(a)]
    engine = SparseRREF(n * n)
    for row in rows:
        engine.insert(row)
    return engine.kernel()


def fixed_operators(g) -> list:
    """One operator per generator whose joint kernel is V^H, whatever the
    action kind: g - I for each generator g of a finite group, and each
    generator itself otherwise."""
    gens = g.action_generators()
    if isinstance(g, FiniteMatrixAction):
        return [minus(a, QMatrix.identity(g.dim)) for a in gens]
    return gens


def fixed_by_every_operator(g) -> Subspace:
    """V^H as the kernel of the stacked `fixed_operators` of g, with no rule
    of the action's kind: no Lie-generating subset and no weight column."""
    engine = SparseRREF(g.dim)
    for a in fixed_operators(g):
        for row in a.int_rows:
            engine.insert(dict(row))
    return engine.kernel()


def invariants_of_every_generator(g, degree: int) -> tuple:
    """The invariant bases of a connected action in degrees 1..degree, each
    the kernel of the derivations of every one of its generators."""
    gens = g.action_generators()
    return tuple(_kernel_invariants(g.dim, _derivation_operator, gens, degree))


def lie_closure(gens) -> Subspace:
    """The Lie algebra the square matrices `gens` generate: their span, with
    the brackets of every two basis elements added until it stops growing."""
    n = gens[0].rows

    def matrix(v) -> QMatrix:
        return QMatrix.from_rows([v[i * n:(i + 1) * n] for i in range(n)])

    span = Subspace.from_vectors(n * n, [vec(a) for a in gens])
    while True:
        basis = [matrix(v) for v in span.basis]
        brackets = [vec(minus(x @ y, y @ x)) for x in basis for y in basis]
        bigger = Subspace.from_vectors(n * n, list(span.basis) + brackets)
        if bigger.dim == span.dim:
            return span
        span = bigger
