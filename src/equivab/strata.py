"""Quotient-side computations: polynomial invariants, the induced derivations,
and the kernel of the central torus acting on the quotient.

Polynomials are exact: dict from exponent tuples to rational coefficients.
Invariants of finite and connected groups are one sparse common kernel per
degree, of one operator per generator written on monomial indices; torus
invariants are built from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .commutant import MLClassification, _square
from .exactlin import (
    Q,
    QMatrix,
    Subspace,
    _ONE,
    _ZERO,
    _combine,
    integer_kernel_saturated,
    kernel,
    kernels,
    lattice_contains,
    rows_of,
    _q,
)
from .symmetry import (
    FiniteMatrixAction,
    GroupAction,
    TorusAction,
    action_generators,
)

DEFAULT_MONOMIAL_CAP = 100_000

Monomial = tuple[int, ...]
# {monomial: {monomial: coefficient}}: the image of each basis monomial
Images = dict[Monomial, dict[Monomial, Fraction]]


class DegreeBoundTooLarge(ValueError):
    """Monomial space exceeds the configured cap."""


class Poly:
    """Multivariate polynomial over Q: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _q(c)
                if c != 0:
                    self.terms[tuple(e)] = c

    @staticmethod
    def _of(nvars: int, terms: dict[Monomial, Fraction]) -> "Poly":
        """Polynomial from exact nonzero coefficients: no coercion."""
        p = Poly.__new__(Poly)
        p.nvars = nvars
        p.terms = terms
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def coefficients_on(self, monomials: Sequence[Monomial]) -> list[Fraction]:
        return [self.terms.get(m, _ZERO) for m in monomials]


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _accumulate(out: dict, e: Monomial, x: Fraction) -> None:
    v = out.get(e, _ZERO) + x
    if v:
        out[e] = v
    else:
        del out[e]


def _derive(rows: list, m: Monomial, c: Fraction, out: dict) -> None:
    """Add c * D(x^m) to out, where rows[j] lists the nonzeros (i, D[j][i]):
    D(x^m) = sum_{j,i} m_j D[j][i] x^(m - e_j + e_i)."""
    for j, p in enumerate(m):
        if not p:
            continue
        cp = c * p
        for i, x in rows[j]:
            if i == j:
                e = m
            else:
                e = list(m)
                e[j] -= 1
                e[i] += 1
                e = tuple(e)
            _accumulate(out, e, cp * x)


def derivation_action(d: QMatrix, f: Poly) -> Poly:
    """Linear vector field x -> Dx applied to f as a derivation.

    (Df)(x) = sum_{i,j} D_{ji} x_i df/dx_j; degree preserving.  Vanishes
    exactly on polynomials invariant under the one-parameter group of D.
    """
    rows = d.nonzero_rows
    out: dict = {}
    for m, c in f.terms.items():
        _derive(rows, m, c, out)
    return Poly._of(f.nvars, out)


def _check_cap(nvars: int, degree: int) -> None:
    if comb(nvars + degree - 1, degree) > DEFAULT_MONOMIAL_CAP:
        raise DegreeBoundTooLarge(
            "degree bound too large: %d monomials in degree %d exceeds cap %d"
            % (comb(nvars + degree - 1, degree), degree, DEFAULT_MONOMIAL_CAP)
        )


def _polys(nvars: int, monoms: Sequence[Monomial], basis) -> tuple[Poly, ...]:
    return tuple(
        Poly._of(nvars, {m: x for m, x in zip(monoms, row) if x}) for row in basis
    )


# Each operator below is called once per degree 1, 2, ..., with that degree's
# monomials, and returns their images.

def _difference_operator(a: QMatrix) -> Callable[[list[Monomial]], Images]:
    """f -> f(ax) - f(x).  x^m(ax) is x^(m - e_i)(ax) times the linear form
    (ax)_i, so each image of degree d costs one sparse product with an image
    of degree d - 1."""
    n = a.rows
    forms = a.nonzero_rows
    unit = (0,) * n
    substituted = {unit: {unit: _ONE}}

    def images(monoms: list[Monomial]) -> Images:
        nonlocal substituted
        nxt = {}
        out = {}
        for m in monoms:
            i = next(k for k, p in enumerate(m) if p)
            lower = list(m)
            lower[i] -= 1
            prod: dict = {}
            for e, c in substituted[tuple(lower)].items():
                for j, x in forms[i]:
                    up = list(e)
                    up[j] += 1
                    _accumulate(prod, tuple(up), c * x)
            nxt[m] = prod
            diff = dict(prod)
            _accumulate(diff, m, -_ONE)
            out[m] = diff
        substituted = nxt
        return out

    return images


def _derivation_operator(xi: QMatrix) -> Callable[[list[Monomial]], Images]:
    """The derivation of the vector field x -> xi x, on exponents."""
    rows = xi.nonzero_rows

    def images(monoms: list[Monomial]) -> Images:
        out = {}
        for m in monoms:
            out[m] = img = {}
            _derive(rows, m, _ONE, img)
        return out

    return images


def _kernel_invariants(g: GroupAction, degree: int) -> Iterator[tuple[Poly, ...]]:
    """Invariants of a finite or connected group: per degree, the common
    kernel of one operator per generator.  A finite group is generated by its
    generators, whose inverses are their powers, so they suffice."""
    n = g.dim
    make = (
        _difference_operator if isinstance(g, FiniteMatrixAction) else _derivation_operator
    )
    operators = [make(a) for a in action_generators(g)]
    for d in range(1, degree + 1):
        monoms = monomials_of_degree(n, d)
        # every operator runs at every degree, as each builds on its images of
        # the degree below; row e holds the coefficient of e in each image
        images = [op(monoms) for op in operators]
        rows = chain.from_iterable(rows_of([im[m] for m in monoms]) for im in images)
        yield _polys(n, monoms, kernel(len(monoms), rows).basis)


def _torus_pairs(g: TorusAction, d: int) -> Iterator[tuple[Monomial, Monomial]]:
    """Exponent pairs (a, b), |a| + |b| = d, of the invariant monomials
    z^a zbar^b: those with weight(a - b) = 0.  Of the conjugates (a, b) and
    (b, a) only one is listed: |a| < |b|, or |a| = |b| and a comes first in
    `monomials_of_degree` order."""
    m = g.blocks
    for total_a in range(d // 2 + 1):
        bs = monomials_of_degree(m, d - total_a)
        for i, a in enumerate(monomials_of_degree(m, total_a)):
            for b in bs[i:] if 2 * total_a == d else bs:
                if all(
                    sum(w * (x - y) for w, x, y in zip(row, a, b)) == 0
                    for row in g.weights
                ):
                    yield a, b


def _z_monomial(nblocks: int, a: Sequence[int], b: Sequence[int]) -> tuple[Poly, Poly]:
    """Real and imaginary parts of z^a zbar^b in real coordinates
    z_j = x_{2j} + i x_{2j+1}.

    Per block, (x + iy)^p (x - iy)^q = sum_s c_s i^s x^(p+q-s) y^s with the
    integers c_s = sum_t (-1)^t C(p, s-t) C(q, t).  Blocks share no variable,
    so each choice of one s per block is its own monomial."""
    per_block = []
    for p, q in zip(a, b):
        terms = []
        for s in range(p + q + 1):
            c = sum(
                (-1) ** t * comb(p, s - t) * comb(q, t)
                for t in range(max(0, s - p), min(s, q) + 1)
            )
            if c:
                terms.append((p + q - s, s, c))
        per_block.append(terms)
    parts: tuple[dict, dict] = ({}, {})
    for choice in product(*per_block):
        e: list[int] = []
        coeff, total = 1, 0
        for x_exp, s, c in choice:
            e += (x_exp, s)
            coeff *= c
            total += s
        # i^total: the real part for even total, negated when total % 4 >= 2
        parts[total % 2][tuple(e)] = Q(coeff if total % 4 < 2 else -coeff)
    n = 2 * nblocks
    return Poly._of(n, parts[0]), Poly._of(n, parts[1])


def _torus_invariants(g: TorusAction, degree: int) -> Iterator[tuple[Poly, ...]]:
    """Per degree, the real and imaginary parts of the invariant monomials
    z^a zbar^b.  They are a basis: the z^a zbar^b of distinct pairs are
    distinct monomials in z and zbar, each kept pair (a, b) stands for itself
    and its conjugate (b, a), and the two parts of a pair are independent
    unless a = b, when the imaginary part is zero."""
    for d in range(1, degree + 1):
        yield tuple(
            p
            for a, b in _torus_pairs(g, d)
            for p in _z_monomial(g.blocks, a, b)
            if not p.is_zero()
        )


def invariants_up_to_degree(g: GroupAction, degree: int) -> Iterator[tuple[Poly, ...]]:
    """Bases of homogeneous H-invariant polynomials in degrees 1..degree, one
    tuple per degree, each built only when it is read.

    Every degree is checked against DEFAULT_MONOMIAL_CAP at the call: the
    monomial count never decreases with the degree, so only a failing bound
    walks the degrees below it, for the first that fails."""
    if degree < 1:
        raise ValueError("degree bound must be >= 1")
    try:
        _check_cap(g.dim, degree)
    except DegreeBoundTooLarge:
        for d in range(1, degree):
            _check_cap(g.dim, d)
        raise
    build = _torus_invariants if isinstance(g, TorusAction) else _kernel_invariants
    return build(g, degree)


@dataclass(frozen=True)
class KernelResult:
    """The central subalgebra annihilating all computed invariants."""

    s_basis: Subspace  # inside vec(End(V))
    dim_s: int
    exactness: str  # "certified" or "degree-bounded"


def _torus_certified(g: TorusAction, degree: int) -> bool:
    """Whether the invariants of degree <= degree determine the kernel: they
    hold every |z_j|^2 (degree 2), and the exponent differences a - b of
    their monomials z^a zbar^b span the saturated weight kernel."""
    if degree < 2:
        return False
    observed = [
        tuple(x - y for x, y in zip(a, b))
        for d in range(1, degree + 1)
        for a, b in _torus_pairs(g, d)
        if a != b
    ]
    return all(lattice_contains(observed, v) for v in integer_kernel_saturated(g.weights))


def _certified(g: GroupAction, degree: int) -> bool:
    """Whether the kernel at this degree is exact: for finite groups at
    degree >= |G| (Noether bound), for tori once the invariant exponent
    lattice saturates, never for connected groups."""
    if isinstance(g, FiniteMatrixAction):
        return degree >= g.order
    if isinstance(g, TorusAction):
        return _torus_certified(g, degree)
    return False


def kernel_s_at_degrees(
    g: GroupAction,
    z: Subspace,
    degrees: Sequence[int],
    invariants: Iterable[Sequence[Poly]],
) -> list[KernelResult]:
    """kernel_s(g, z, d, invariants) for each d of the increasing `degrees`,
    from one elimination over one read of `invariants`: each invariant is
    derived once per central element, and the kernel after degree d is read
    off before the rows of degree d + 1 go in."""
    n = g.dim
    if z.ambient_dim != n * n:
        raise ValueError("center must live in vec(End(V))")
    center_mats = [_square(v, n) for v in z.basis]

    def rows(basis: Sequence[Poly]) -> Iterator[dict]:
        # one row per monomial e of an image: the coefficient of e in D_k f
        # for each central element D_k
        for f in basis:
            yield from rows_of([derivation_action(dm, f).terms for dm in center_mats])

    # the kernel after degrees 1, 2, ...; no degree is read once it is zero
    stream = kernels(len(center_mats), map(rows, invariants))
    coords, read = Subspace.full(len(center_mats)), 0
    out = []
    for degree in degrees:
        while coords.dim and read < degree:
            coords = next(stream, None)
            if coords is None:
                raise ValueError("invariants go up to degree %d, not %d" % (read, degree))
            read += 1
        s = Subspace._span(n * n, _combine(coords.basis, z.basis, n * n))
        exactness = "certified" if _certified(g, degree) else "degree-bounded"
        out.append(KernelResult(s_basis=s, dim_s=s.dim, exactness=exactness))
    return out


def kernel_s(
    g: GroupAction,
    z: Subspace,
    degree: int,
    invariants: Iterable[Sequence[Poly]] | None = None,
) -> KernelResult:
    """Central elements whose induced derivation kills every invariant of
    degree <= degree.

    The invariants are read one degree at a time from `invariants`, the bases
    of degrees 1, 2, ..., or else from `invariants_up_to_degree(g, degree)`;
    none is read past `degree`, and no degree is read once the kernel is zero.
    Certified exact for finite groups at degree >= |G| (Noether bound) and for
    tori once the invariant exponent lattice saturates; otherwise the result
    is only an upper bound (superset) for the true kernel.  The label is a
    function of the action and the degree.
    """
    if invariants is None:
        invariants = invariants_up_to_degree(g, degree)
    (result,) = kernel_s_at_degrees(g, z, (degree,), invariants)
    return result


@dataclass(frozen=True)
class QuotientReport:
    """Decomposition of Z(End(V)^H) / s as R^{m-l+k} + C^{l-k}."""

    dim: int
    real_rank: int
    complex_rank: int
    k: int
    exactness: str


def quotient_abelianization(
    z: Subspace, s: KernelResult, ml: MLClassification
) -> QuotientReport:
    """Dimension and type decomposition of the quotient-side abelianization."""
    if not z.contains_subspace(s.s_basis):
        raise ValueError("kernel is not inside the center")
    k = s.dim_s
    dim = z.dim - k
    real_rank = ml.m - ml.l + k
    complex_rank = ml.l - k
    if complex_rank < 0 or real_rank + 2 * complex_rank != dim:
        raise AssertionError(
            "inconsistent dimensions: dim %d vs R^%d + C^%d"
            % (dim, real_rank, complex_rank)
        )
    return QuotientReport(
        dim=dim,
        real_rank=real_rank,
        complex_rank=complex_rank,
        k=k,
        exactness=s.exactness,
    )
