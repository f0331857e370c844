"""Quotient-side computations: polynomial invariants, the induced derivations,
and the kernel of the central torus acting on the quotient.

A polynomial is a dict from exponent tuples to nonzero integer coefficients
(`Terms`), an integer multiple of the polynomial it stands for; the kernels
here depend only on the span of each one.  Each action builds its own
invariants (`invariant_terms` in `symmetry`), says when they certify the
kernel and whether its true kernel is always its floor L = Z(A) meet Lie(H)
(`kernel_is_floor`).  For a finite group or a torus compute reads the
kernel off the action as L, at every degree bound, with no invariant at
all.  For a connected group, and in verify for every kind, this module caps
the invariants' monomial space and derives them along the center, on
integers.

The kernel also has a ceiling.  A compact group preserves an inner product
B, so q(x) = B(x, x) is an invariant of degree 2, and a central z kills it
exactly when B(x, zx) = 0 for all x: when z is B-skew.  The B-adjoint
maps the commutant A, hence Z(A), to itself.  In Z(A), which is
R^(m-l) x C^l, each real unit e is a primitive central idempotent, and so
is its adjoint; B(ex, ex) > 0 for some x rules out e* e = 0, so e* = e: e
is a B-orthogonal projection, symmetric.  Each complex unit J has J^2 = -1
on its block, so it is not symmetric (B(Jx, Jx) = -B(x, x) would be
negative); the adjoint maps its factor C to itself, so J* = -J: J is
skew.  So the skew part of Z(A) has dimension l.  L is in s, s is in the
kernel ker_d of the invariants of degree <= d, and for d >= 2 ker_d is in
that skew part: dim L <= l always, and where dim L = l, ker_d = L at
every d >= 2.  Compute uses this where l = 0, so that L = ker_d = 0: it
answers such a connected group's kernel with no invariant built (the floor
rule of `kernel_s`).  Where l > 0 it still eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .commutant import MLClassification
from .exactlin import QMatrix, Subspace, kernels, rows_of
from .symmetry import GroupAction, Terms, _derive

DEFAULT_MONOMIAL_CAP = 100_000


class DegreeBoundTooLarge(ValueError):
    """Monomial space exceeds the configured cap."""


class DegreeBoundTooLow(ValueError):
    """A degree-bounded kernel too large to be the true one."""


def derivation_action(d: QMatrix, f: Terms) -> Terms:
    """den(D) times the linear vector field x -> Dx applied to f as a
    derivation.

    (Df)(x) = sum_{i,j} D_{ji} x_i df/dx_j; degree preserving.  Vanishes
    exactly on polynomials invariant under the one-parameter group of D.
    Runs on the integer rows of D: integer terms in, integer terms out.
    """
    rows = d.int_rows
    out: Terms = {}
    for m, c in f.items():
        _derive(rows, m, c, out)
    return out


def _check_cap(nvars: int, degree: int) -> None:
    monomials = comb(nvars + degree - 1, degree)
    if monomials > DEFAULT_MONOMIAL_CAP:
        raise DegreeBoundTooLarge(
            "degree bound too large: %d monomials in degree %d exceeds cap %d"
            % (monomials, degree, DEFAULT_MONOMIAL_CAP)
        )


def invariants_up_to_degree(g: GroupAction, degree: int) -> Iterator[tuple[Terms, ...]]:
    """Bases of homogeneous H-invariant polynomials in degrees 1..degree, one
    tuple per degree, each built only when it is read.

    Each degree is checked against DEFAULT_MONOMIAL_CAP just before it is
    built: a reader that stops early, at a kernel's floor, never meets the cap
    of a degree it does not read."""
    if degree < 1:
        raise ValueError("degree bound must be >= 1")
    bases = g.invariant_terms(degree)

    def built(d: int) -> tuple[Terms, ...]:
        _check_cap(g.dim, d)
        return next(bases)

    return map(built, range(1, degree + 1))


@dataclass(frozen=True)
class KernelResult:
    """The central subalgebra annihilating all computed invariants."""

    s_basis: Subspace  # inside vec(End(V))
    exactness: str  # "certified" or "degree-bounded"
    degree: int  # the invariants read have degree <= this

    @property
    def dim_s(self) -> int:
        return self.s_basis.dim


def kernel_s_at_degrees(
    g: GroupAction,
    z: Subspace,
    degrees: Sequence[int],
    invariants: Iterable[Sequence[Terms]],
) -> list[KernelResult]:
    """kernel_s(g, z, d, invariants) for each d of the increasing `degrees`,
    from one elimination over one read of `invariants`: each invariant is
    derived once per central element, and the kernel after degree d is read
    off before the rows of degree d + 1 go in.

    The kernel has a floor, L = Z(A) meet Lie(K): a central field in the Lie
    algebra is tangent to every orbit, so it kills every invariant.  Once
    the kernel is L, no further row, and no further degree, is read; for a
    finite group L is zero.  A kernel read to degree r < d is labelled by
    `certified(r)` when that holds: `certified` is monotone in the degree,
    so it is `certified(d)` as well, and only otherwise is `certified(d)`
    asked.

    The rows are integers.  The central elements D_k are the integer rows of
    z, and each invariant is an integer multiple c f: the row of monomial e,
    the coefficient of e in each D_k (c f), is c times the true one, a scale
    its columns share.  The kernel's coordinates then combine the same
    integer rows D_k."""
    n = g.dim
    if z.ambient_dim != n * n:
        raise ValueError("center must live in vec(End(V))")
    center_vecs = [row for _, _, row in z.rows]
    center_mats = [QMatrix._of(1, v.items(), n, n) for v in center_vecs]
    # dim L: the span of the Lie generators for a `kernel_is_floor` action,
    # whose Lie algebra lies in Z(A) (`_floor`), else dim Z + dim span -
    # dim (Z + span)
    lie = _floor(g)
    floor = lie.dim if g.kernel_is_floor else z.dim + lie.dim - z.sum(lie).dim

    def rows(basis: Sequence[Terms]) -> Iterator[dict[int, int]]:
        # one row per monomial e of an image: the coefficient of e in D_k f
        # for each central element D_k
        for f in basis:
            yield from rows_of([derivation_action(dm, f) for dm in center_mats])

    # the kernel after degrees 1, 2, ...; no degree is read once it is L
    stream = kernels(len(center_mats), map(rows, invariants), z.dim - floor)
    coords, read = Subspace.full(len(center_mats)), 0
    out = []
    for degree in degrees:
        while coords.dim > floor and read < degree:
            coords = next(stream, None)
            if coords is None:
                raise ValueError("invariants go up to degree %d, not %d" % (read, degree))
            read += 1
        s = Subspace._span(n * n, coords.combinations(center_vecs))
        certified = g.certified(read) or (read < degree and g.certified(degree))
        exactness = "certified" if certified else "degree-bounded"
        out.append(KernelResult(s_basis=s, exactness=exactness, degree=degree))
    return out


def kernel_s(g: GroupAction, z: Subspace, degree: int, l: int) -> KernelResult:
    """Central elements whose induced derivation kills every invariant of
    degree <= degree; `l` is the number of complex factors of Z(A)
    (`classify_ml`).

    When the action's kernel is always its floor L = Z(A) meet Lie(K)
    (`kernel_is_floor`: a finite group, L = 0, or a torus, L = Lie(T)), the
    kernel is L (`_floor`), labelled "certified", at every degree bound: the
    floor theorem is about all invariants, so no invariant is built,
    derived or eliminated, and Z(A) is not read.

    Otherwise (a connected group) the floor rule comes first.  The
    invariants of degree <= 2 hold B(x, x) for an invariant inner product B,
    so at degree >= 2 the kernel lies in the B-skew part of Z(A), of
    dimension l (module docstring).  So where l = 0 the kernel is zero, with
    no invariant built, derived or eliminated.  Past the rule the invariants
    are read one degree at a time from `invariants_up_to_degree(g, degree)`;
    none is read past `degree`, and no degree is read once the kernel is L.
    Either way the label is the action's `certified`, at the degree read to
    or at `degree`; a degree-bounded result is only an upper bound
    (superset) for the true kernel.  `kernel_s_at_degrees` always
    eliminates, so verify checks this reading independently.  Degree 1
    holds no quadratic, so it always eliminates, and a kernel there with
    k > l is refused by `quotient_abelianization`.
    """
    if g.kernel_is_floor:
        return KernelResult(s_basis=_floor(g), exactness="certified", degree=degree)
    if degree >= 2 and not l:
        exactness = "certified" if g.certified(degree) else "degree-bounded"
        return KernelResult(Subspace.zero(z.ambient_dim), exactness, degree)
    (result,) = kernel_s_at_degrees(g, z, (degree,), invariants_up_to_degree(g, degree))
    return result


def _floor(g: GroupAction) -> Subspace:
    """The span of the action's Lie generators: L = Z(A) meet Lie(K) of a
    `kernel_is_floor` action, with no intersection, zero for a finite
    group, which has none.

    Exact because Lie(K) lies in Z(A) for these K.  A finite group's Lie
    algebra is zero.  A torus T is abelian, so each xi in Lie(T) commutes
    with every element exp(t eta) of T and lies in A = End(V)^T; and each X
    in A commutes with exp(t xi) for every t, so, differentiating at t = 0,
    with xi: xi is in Z(A)."""
    return Subspace._span(g.dim * g.dim, (a.int_vec() for a in g.lie_algebra_generators()))


@dataclass(frozen=True)
class QuotientReport:
    """Decomposition of Z(End(V)^H) / s as R^{m-l+k} + C^{l-k}."""

    dim: int
    real_rank: int
    complex_rank: int
    k: int
    exactness: str


def quotient_abelianization(s: KernelResult, ml: MLClassification) -> QuotientReport:
    """Dimension and type decomposition of the quotient-side abelianization.

    For a compact action the true kernel has k <= l.  A degree-bounded
    kernel only bounds it from above, so one with k > l proves its degree
    bound too low: that raises DegreeBoundTooLow, and a certified one
    AssertionError.  Nothing else is checked: s is inside Z(A), as
    `kernel_s_at_degrees` builds it from the rows of Z(A), and dim Z(A) =
    m + l makes dim = (m - l + k) + 2 (l - k)."""
    k = s.dim_s
    dim = ml.center_dim - k
    real_rank = ml.m - ml.l + k
    complex_rank = ml.l - k
    if complex_rank < 0 and s.exactness == "degree-bounded":
        raise DegreeBoundTooLow(
            "degree bound %d is too low: the kernel s read from the invariants "
            "of degree <= %d has dim k = %d > l = %d, while for a compact action "
            "the true s has k <= l; raise --degree-bound"
            % (s.degree, s.degree, k, ml.l)
        )
    if complex_rank < 0:
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
