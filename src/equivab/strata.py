"""Quotient-side computations: polynomial invariants, the induced derivations,
and the kernel of the central torus acting on the quotient.

Polynomials are exact: dict from exponent tuples to rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

from .commutant import MLClassification
from .exactlin import (
    QMatrix,
    Subspace,
    integer_kernel_saturated,
    lattice_contains,
    nullspace,
    _q,
)
from .symmetry import (
    ConnectedLieAction,
    FiniteMatrixAction,
    GroupAction,
    TorusAction,
    enumerate_group,
)

DEFAULT_MONOMIAL_CAP = 100_000


class DegreeBoundTooLarge(ValueError):
    """Monomial space exceeds the configured cap."""


class Poly:
    """Multivariate polynomial over Q: {exponent tuple: coefficient}."""

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
    def variable(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(exponents: Sequence[int]) -> "Poly":
        return Poly(len(exponents), {tuple(exponents): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = _q(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def partial(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = c * e[i]
        return Poly(self.nvars, out)

    def substitute_linear(self, m: QMatrix) -> "Poly":
        """f(Mx): substitute x_i -> sum_j M[i][j] x_j."""
        n = self.nvars
        if m.rows != n or m.cols != n:
            raise ValueError("substitution matrix shape mismatch")
        images = [
            Poly(n, {tuple(1 if k == j else 0 for k in range(n)): m.entries[i][j]
                     for j in range(n)})
            for i in range(n)
        ]
        out = Poly(n)
        for e, c in self.terms.items():
            term = Poly(n, {tuple([0] * n): c})
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * images[i]
            out = out + term
        return out

    def coefficients_on(self, monomials: Sequence[tuple[int, ...]]) -> list[Fraction]:
        return [self.terms.get(m, Fraction(0)) for m in monomials]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            vars_ = "*".join(
                "x%d^%d" % (i, p) if p > 1 else "x%d" % i
                for i, p in enumerate(e)
                if p
            )
            bits.append("%s%s" % (c, "*" + vars_ if vars_ else ""))
        return " + ".join(bits)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def derivation_action(d: QMatrix, f: Poly) -> Poly:
    """Linear vector field x -> Dx applied to f as a derivation.

    (Df)(x) = sum_{i,j} D_{ji} x_i df/dx_j; degree preserving.  Vanishes
    exactly on polynomials invariant under the one-parameter group of D.
    """
    n = f.nvars
    out = Poly(n)
    for j in range(n):
        pj = f.partial(j)
        if pj.is_zero():
            continue
        for i in range(n):
            c = d.entries[j][i]
            if c == 0:
                continue
            out = out + (pj * Poly.variable(n, i)).scale(c)
    return out


@dataclass(frozen=True)
class InvariantSpace:
    """Bases of homogeneous invariants per degree 1..degree_bound."""

    nvars: int
    degree_bound: int
    per_degree: tuple[tuple[Poly, ...], ...]
    # for torus actions: exponent differences a-b of the invariant monomials
    exponent_diffs: tuple[tuple[int, ...], ...] = ()

    def all_polys(self) -> list[Poly]:
        return [p for deg in self.per_degree for p in deg]

    def dim_in_degree(self, d: int) -> int:
        return len(self.per_degree[d - 1])


def _check_cap(nvars: int, degree: int, cap: int) -> None:
    if comb(nvars + degree - 1, degree) > cap:
        raise DegreeBoundTooLarge(
            "degree bound too large: %d monomials in degree %d exceeds cap %d"
            % (comb(nvars + degree - 1, degree), degree, cap)
        )


def _finite_invariants(g: FiniteMatrixAction, degree: int, cap: int) -> list[list[Poly]]:
    elems = enumerate_group(g)
    n = g.dim
    order = len(elems)
    out = []
    for d in range(1, degree + 1):
        _check_cap(n, d, cap)
        monoms = monomials_of_degree(n, d)
        rows = []
        for m in monoms:
            avg = Poly(n)
            for el in elems:
                avg = avg + Poly.monomial(m).substitute_linear(el)
            avg = avg.scale(Fraction(1, order))
            if not avg.is_zero():
                rows.append(avg.coefficients_on(monoms))
        if rows:
            basis = Subspace._span(len(monoms), rows).basis
            out.append(
                [Poly(n, dict(zip(monoms, row))) for row in basis]
            )
        else:
            out.append([])
    return out


class _CPoly:
    """Polynomial with coefficients in Q[i], used to realify z / zbar monomials."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, (re, im) in terms.items():
                if re != 0 or im != 0:
                    self.terms[tuple(e)] = (re, im)

    def __mul__(self, other):
        out = {}
        for e1, (a, b) in self.terms.items():
            for e2, (c, d) in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                re, im = out.get(e, (Fraction(0), Fraction(0)))
                out[e] = (re + a * c - b * d, im + a * d + b * c)
        return _CPoly(self.nvars, out)

    def real_part(self) -> Poly:
        return Poly(self.nvars, {e: re for e, (re, im) in self.terms.items()})

    def imag_part(self) -> Poly:
        return Poly(self.nvars, {e: im for e, (re, im) in self.terms.items()})


def _z_monomial(nblocks: int, a: Sequence[int], b: Sequence[int]) -> _CPoly:
    """z^a zbar^b in real coordinates x_{2j} + i x_{2j+1}."""
    n = 2 * nblocks
    one = Fraction(1)
    acc = _CPoly(n, {tuple([0] * n): (one, Fraction(0))})
    for j in range(nblocks):
        zj = _CPoly(n, {
            tuple(1 if k == 2 * j else 0 for k in range(n)): (one, Fraction(0)),
            tuple(1 if k == 2 * j + 1 else 0 for k in range(n)): (Fraction(0), one),
        })
        zbj = _CPoly(n, {
            tuple(1 if k == 2 * j else 0 for k in range(n)): (one, Fraction(0)),
            tuple(1 if k == 2 * j + 1 else 0 for k in range(n)): (Fraction(0), -one),
        })
        for _ in range(a[j]):
            acc = acc * zj
        for _ in range(b[j]):
            acc = acc * zbj
    return acc


def _torus_invariants(
    g: TorusAction, degree: int, cap: int
) -> tuple[list[list[Poly]], list[tuple[int, ...]]]:
    m = g.blocks
    n = g.dim
    out: list[list[Poly]] = []
    diffs: list[tuple[int, ...]] = []
    for d in range(1, degree + 1):
        _check_cap(n, d, cap)
        polys = []
        seen_pairs = set()
        # exponent pairs (a, b) with |a| + |b| = d and weight(a - b) = 0
        for total_a in range(d + 1):
            for a in monomials_of_degree(m, total_a):
                for b in monomials_of_degree(m, d - total_a):
                    if (b, a) in seen_pairs:
                        continue
                    seen_pairs.add((a, b))
                    diff = tuple(x - y for x, y in zip(a, b))
                    if any(
                        sum(w * c for w, c in zip(row, diff)) != 0
                        for row in g.weights
                    ):
                        continue
                    diffs.append(diff)
                    zm = _z_monomial(m, a, b)
                    re = zm.real_part()
                    if not re.is_zero():
                        polys.append(re)
                    if a != b:
                        im = zm.imag_part()
                        if not im.is_zero():
                            polys.append(im)
        # the conjugate-pair pruning above leaves a spanning set; canonicalize
        monoms = monomials_of_degree(n, d)
        rows = [p.coefficients_on(monoms) for p in polys]
        if rows:
            basis = Subspace._span(len(monoms), rows).basis
            out.append([Poly(n, dict(zip(monoms, row))) for row in basis])
        else:
            out.append([])
    return out, diffs


def _connected_invariants(
    g: ConnectedLieAction, degree: int, cap: int
) -> list[list[Poly]]:
    n = g.dim
    out = []
    for d in range(1, degree + 1):
        _check_cap(n, d, cap)
        monoms = monomials_of_degree(n, d)
        index = {mm: i for i, mm in enumerate(monoms)}
        rows = []
        for xi in g.lie_generators:
            # matrix of the derivation on the degree-d monomial space
            block = []
            for mm in monoms:
                img = derivation_action(xi, Poly.monomial(mm))
                block.append(img.coefficients_on(monoms))
            # block rows are images of basis monomials: constraint matrix is
            # its transpose acting on coefficient vectors
            rows.extend(list(zip(*block)))
        if not rows:
            basis = Subspace.full(len(monoms)).basis
        else:
            basis = nullspace(QMatrix._of(rows)).basis
        out.append([Poly(n, dict(zip(monoms, row))) for row in basis])
    return out


def invariants_up_to_degree(
    g: GroupAction, degree: int, cap: int = DEFAULT_MONOMIAL_CAP
) -> InvariantSpace:
    """Bases of homogeneous H-invariant polynomials in degrees 1..degree."""
    if degree < 1:
        raise ValueError("degree bound must be >= 1")
    diffs: tuple = ()
    if isinstance(g, FiniteMatrixAction):
        per = _finite_invariants(g, degree, cap)
    elif isinstance(g, TorusAction):
        per, dlist = _torus_invariants(g, degree, cap)
        diffs = tuple(dlist)
    else:
        per = _connected_invariants(g, degree, cap)
    return InvariantSpace(
        nvars=g.dim,
        degree_bound=degree,
        per_degree=tuple(tuple(p) for p in per),
        exponent_diffs=diffs,
    )


@dataclass(frozen=True)
class KernelResult:
    """The central subalgebra annihilating all computed invariants."""

    s_basis: Subspace  # inside vec(End(V))
    dim_t: int
    dim_s: int
    exactness: str  # "certified" or "degree-bounded"
    degree_bound: int


def _torus_certified(g: TorusAction, inv: InvariantSpace) -> bool:
    # need every |z_j|^2 (degree >= 2) and the observed exponent-difference
    # lattice to equal the saturated weight kernel
    if inv.degree_bound < 2:
        return False
    sat = integer_kernel_saturated(g.weights)
    observed = [d for d in inv.exponent_diffs if any(x != 0 for x in d)]
    return all(lattice_contains(observed, v) for v in sat)


def kernel_s(
    g: GroupAction,
    z: Subspace,
    degree: int,
    ml: MLClassification,
    cap: int = DEFAULT_MONOMIAL_CAP,
    invariants: InvariantSpace | None = None,
) -> KernelResult:
    """Central elements whose induced derivation kills every computed invariant.

    Certified exact for finite groups at degree >= |G| (Noether bound) and for
    tori once the invariant exponent lattice saturates; otherwise the result
    is only an upper bound (superset) for the true kernel.
    """
    n = g.dim
    if z.ambient_dim != n * n:
        raise ValueError("center must live in vec(End(V))")
    inv = invariants if invariants is not None else invariants_up_to_degree(g, degree, cap)
    center_mats = [QMatrix.from_vec(v, n, n) for v in z.basis]
    if not center_mats:
        s = Subspace.zero(n * n)
    else:
        rows = []
        for f in inv.all_polys():
            monoms = sorted(f.terms.keys())
            # include every monomial reachable from f under the derivations
            images = [derivation_action(dm, f) for dm in center_mats]
            support = set(monoms)
            for img in images:
                support.update(img.terms.keys())
            support = sorted(support)
            for mono in support:
                rows.append([img.terms.get(mono, Fraction(0)) for img in images])
        if rows:
            coeff_kernel = nullspace(QMatrix._of(rows))
        else:
            coeff_kernel = Subspace.full(len(center_mats))
        vecs = []
        for coords in coeff_kernel.basis:
            acc = QMatrix.zeros(n, n)
            for c, dm in zip(coords, center_mats):
                acc = acc + dm.scale(c)
            vecs.append(acc.vec())
        s = Subspace._span(n * n, vecs)

    if isinstance(g, FiniteMatrixAction):
        order = len(enumerate_group(g))
        exact = "certified" if degree >= order else "degree-bounded"
    elif isinstance(g, TorusAction):
        exact = "certified" if _torus_certified(g, inv) else "degree-bounded"
    else:
        exact = "degree-bounded"
    return KernelResult(
        s_basis=s,
        dim_t=ml.l,
        dim_s=s.dim,
        exactness=exact,
        degree_bound=degree,
    )


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
