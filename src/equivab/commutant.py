"""The commutant End(V)^H: center, commutator ideal, abelianization, and the
(m, l) classification of its simple factors.

The exact path never decomposes V.  Z(A) ~ R^{m-l} x C^l, so (m, l) is the
signature of the trace form (x, y) -> tr(xy) on Z(A), found by one exact
symmetric elimination.  Verify mode counts (m, l) again from Sturm sequences
on a generic central element.  For a finite group it also checks, exactly and
from the enumerated elements alone, that Z(A) = A meet span G and that
dim A = (1/|G|) sum of tr(g)^2.

Compute reads dim A and Z(A) off the group where its data fix them
(`commutant_center` in `symmetry`: a torus's weight classes, a finite
group's class sums and character norm under the rule |G| k <= n^2, or the
algebra W a connected group's Lie-generating generators generate, when
1 + dim k <= n and W has at most n words), with no commutant basis or
residual.  Otherwise it builds the commutant here.

One record, `MatrixAlgebra`, carries an algebra: its basis and span, the
generators of its action when known, and its bracket table, Z(A), the trace
form's inertia on Z(A) and [A, A], each formed once on first read, the
table one bracket at a time.  The commutant's span is the action's own
`commutant_span` (the kernel of the commutator rows of a finite group's
generators or of a Lie-generating subset of a connected group's, or read
off a torus's weights), and its closure under products is certified by its
residual against every action generator, not multiplied out
(`compute_commutant`).  `center` reads Z(A) = A meet W off the span W of
the words in the action's generators (`exactlin.word_center`, which the
connected group's route shares) where that is the cheaper route, else
off the table of brackets of basis elements (`MatrixAlgebra.bracket`),
whose span is [A, A].  Compute forms no [A, A]: A is semisimple, the trace
form is nondegenerate on Z(A) (`classify_ml` requires it) and pairs Z(A)
with [A, A] to zero, so dim [A, A] = dim A - dim Z(A).  Verify builds its
record without the generators, so its Z(A), [A, A] and their split all come
from the table.

The table is read only as far as two exact stopping rules allow:

- Z(A): the centralizer C_j of the first j basis elements holds Z(A), and
  Z(A) holds I.  Once dim C_j = 1, C_j = span{I} = Z(A), and no later
  column is read (`_table_center`).
- [A, A]: for central z, tr([x, y] z) = tr(x [y, z]) = 0, so [A, A] lies
  in the kernel of a -> tr(a .) restricted to Z(A).  When the trace form is
  nondegenerate on Z(A) that map is onto, its kernel has dimension
  d - dim Z(A), and brackets spanning that rank span [A, A]
  (`commutator_ideal`).  With a degenerate form (A not semisimple) every
  bracket is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt, lcm

from .exactlin import (
    Q,
    QMatrix,
    Subspace,
    bracket_vec,
    combine,
    count_real_roots,
    inertia,
    kernel,
    minimal_polynomial,
    product_vec,
    rows_of,
    trace_form,
    word_basis,
    word_center,
)
from .symmetry import FiniteMatrixAction, GroupAction

@dataclass(frozen=True)
class MatrixAlgebra:
    """Unital associative subalgebra A of End(R^n): a rational basis and its
    span in vec(End(V)), with each bracket of the table, Z(A), the inertia
    of the trace form on Z(A) and [A, A] formed once, on first read.  Every
    answer about A reads them from here.

    `compute_commutant` builds the commutant with its own certificate and
    the generators of its action, which `center` may read; a basis given
    from outside goes through `from_basis`, which checks it and knows no
    generators."""

    ambient_dim: int
    basis: tuple[QMatrix, ...]
    span: Subspace = field(compare=False, repr=False)
    # the matrices A is the commutant of, or () when they are not known
    generators: tuple[QMatrix, ...] = field(compare=False, repr=False)
    # the bracket table as far as it has been read: (i, j) -> vec [B_i, B_j]
    _table: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def from_basis(n: int, basis: tuple[QMatrix, ...]) -> "MatrixAlgebra":
        """The algebra spanned by `basis`, checked: linearly independent,
        closed under products (dim A squared products, each reduced against
        the span) and holding the identity."""
        span = Subspace._span(n * n, (b.int_vec() for b in basis))
        if span.dim != len(basis):
            raise ValueError("algebra basis is linearly dependent")
        engine = span._engine()
        if not all(engine.contains(product_vec(x, y)[1]) for x in basis for y in basis):
            raise ValueError("basis is not closed under multiplication")
        if not engine.contains(QMatrix.identity(n).int_vec()):
            raise ValueError("identity not in algebra span")
        return MatrixAlgebra(n, basis, span, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, i: int, j: int) -> dict[int, int]:
        """The table entry vec [B_i, B_j] for i < j, as {index: int} with zeros
        dropped, for the integral B_i = den(b_i) b_i: formed on first read and
        kept, so `center` and `commutator_ideal` bracket no pair twice."""
        vec = self._table.get((i, j))
        if vec is None:
            vec = self._table[i, j] = bracket_vec(self.basis[i], self.basis[j])[1]
        return vec

    @cached_property
    def center(self) -> Subspace:
        """Z(A) as a subspace of vec(End(V))."""
        return center(self)

    @cached_property
    def center_form(self) -> tuple[int, int, int]:
        """The inertia (positive, negative, zero squares) of the trace form on
        Z(A), found once: `classify_ml` reads (m, l) off it, and
        `commutator_ideal` its stopping rank."""
        return inertia(trace_form(self.center, self.ambient_dim))

    @cached_property
    def derived(self) -> Subspace:
        """[A, A] as a subspace of vec(End(V))."""
        return commutator_ideal(self)


@dataclass(frozen=True)
class MLClassification:
    """Counts of simple factors: m total, l of complex type.  Z(A) ~
    R^{m-l} x C^l, and A / [A, A] ~ Z(A) for semisimple A: both have
    dimension m + l."""

    m: int
    l: int

    @property
    def center_dim(self) -> int:
        return self.m + self.l

    @property
    def abelianization_dim(self) -> int:
        return self.m + self.l


def commutant_kernel(g: GroupAction) -> MatrixAlgebra:
    """The action's `commutant_span` as an algebra record, not yet
    certified: its basis is the integer rows of that canonical span, so it
    spans {X : [X, g] = 0 for every action generator g}.  Verify builds its
    record here and reports the residual as a check of its own."""
    n = g.dim
    sol = g.commutant_span()
    basis = tuple(QMatrix._of(1, row.items(), n, n) for _, _, row in sol.rows)
    return MatrixAlgebra(n, basis, sol, tuple(g.action_generators()))


def compute_commutant(g: GroupAction) -> MatrixAlgebra:
    """End(V)^H, the `commutant_kernel` of g, certified: compute's route for
    a connected group and for a finite group past the rule of
    `commutant_center`.  The kernel holds the identity and is closed under
    products by the Leibniz rule [XY, g] = X[Y, g] + [X, g]Y, so closure is
    certified by the residual [b, g] = 0 of each basis element, checked
    here, and no product of two basis elements is formed.  Raises
    ValueError if some basis element does not commute with the action."""
    a = commutant_kernel(g)
    if not commutes_with_action(a, g):
        raise ValueError("the commutant's basis does not commute with the action")
    return a


def commutes_with_action(a: MatrixAlgebra, g: GroupAction) -> bool:
    """Whether [b, g] = 0 for every basis element b of A and every action
    generator g: dim A times (number of generators) brackets."""
    gens = g.action_generators()
    return not any(bracket_vec(gen, b)[1] for b in a.basis for gen in gens)


def center(a: MatrixAlgebra) -> Subspace:
    """Center of A as a subspace of vec(End(V)): by the word route when A
    knows the generators g_1..g_k of its action and the route is the
    cheaper, else by the table route.  The choice reads n, d = dim A and k
    only.

    The word route builds W, the algebra the generators generate with I.
    For a compact action W = A' (Lang, Algebra, ch. XVII), so
    Z(A) = A meet W = {w in W : [w, g_i] = 0 for every i}.  dim A dim W >=
    n^2, so W takes at least ceil(n^2 / d) k products; it is built only when
    that is at most the table's d(d - 1)/2 brackets, and given up past that
    many products.

    The table route forms no product, and at most d(d - 1)/2 brackets.  It
    narrows the centralizer C_j of the first j basis elements column by
    column and stops at the scalars: C_j holds Z(A), which holds I, so once
    dim C_j = 1 it is Z(A) = span{I}."""
    n, d, gens = a.ambient_dim, a.dim, a.generators
    budget = d * (d - 1) // 2
    if gens and -(-n * n // d) * len(gens) <= budget:
        words = word_basis(gens, budget)
        if words is not None:
            return word_center(n, words, gens)
    return _table_center(a)


def _table_center(a: MatrixAlgebra) -> Subspace:
    """Z(A) read off the bracket table: no product is formed.

    C_j, the centralizer in A of B_0..B_(j-1), narrows column by column to
    C_d = Z(A), and column j reads [B_i, B_j] only for the i that some
    element of C_j involves.  It stops once dim C_j = 1 (see `center`)."""
    n, d = a.ambient_dim, a.dim
    # the integer coefficient vectors coefs {i: c_i} over the integral basis
    # B_i = den(b_i) b_i span C_j; each B_j keeps the combinations x
    # commuting with it, where [x, B_j] = sum of c_i [B_i, B_j] and
    # [B_i, B_j] = -[B_j, B_i]
    coefs = [{i: 1} for i in range(d)]
    for j in range(d):
        if len(coefs) == 1:
            break
        column = [{}] * d
        for i in set().union(*coefs) - {j}:
            column[i] = a.bracket(i, j) if i < j else a.bracket(j, i)
        signed = [{i: -c if i > j else c for i, c in x.items()} for x in coefs]
        brackets = combine(signed, column)
        if not any(brackets):
            continue
        coefs = kernel(len(brackets), rows_of(brackets)).combinations(coefs)
    return Subspace._span(n * n, combine(coefs, [b.int_vec() for b in a.basis]))


def commutator_ideal(a: MatrixAlgebra) -> Subspace:
    """[A, A], the span of the brackets of basis elements (by bilinearity),
    read off the table pair by pair.

    When the trace form on Z(A) is nondegenerate (`center_form`), the
    elimination stops at rank d - dim Z(A).  For central z, tr([x, y] z) =
    tr(x [y, z]) = 0, so [A, A] lies in the kernel of a -> tr(a .) on Z(A).
    That map is onto Z(A)*, as its restriction to Z(A) is the nondegenerate
    form, so its kernel has dimension d - dim Z(A); brackets of that rank
    span all of [A, A].  With a degenerate form (A not semisimple) [A, A]
    can be larger, and every bracket is read."""
    d = a.dim
    pos, neg, zero = a.center_form
    pairs = itertools.combinations(range(d), 2)
    return Subspace._span(
        a.ambient_dim ** 2, (a.bracket(i, j) for i, j in pairs),
        None if zero else d - pos - neg)


def verify_center_splits(a: MatrixAlgebra) -> tuple[bool, str]:
    """Whether the center maps isomorphically onto the abelianization,
    A = Z(A) + [A, A] with Z(A) meeting [A, A] in 0, as (passed, detail):
    the detail names each failure.

    Holds whenever A is the commutant of a compact action; may legitimately
    fail for other algebras (e.g. upper-triangular matrices).  Z(A) and
    [A, A] come from the bracket table, each with its exact early stop:
    - `center` stops at the scalars, once the centralizer C of the first
      basis elements is span{I}: C holds Z(A), which holds I;
    - `commutator_ideal` stops at rank d - dim Z(A) when the trace form on
      Z(A) is nondegenerate: [A, A] lies in the kernel of a -> tr(a .) on
      Z(A), as tr([x, y] z) = tr(x [y, z]) = 0 for central z, and that map
      is then onto, with a kernel of dimension d - dim Z(A).
    Neither stop assumes the split: with a degenerate form every bracket is
    read, so a meet is still found.
    """
    z, d = a.center, a.derived
    total = z.sum(d)
    # dim(Z meet [A,A]) by the dimension formula: one sum, no intersection
    inter_dim = z.dim + d.dim - total.dim
    failures = []
    if inter_dim:
        failures.append("Z(A) meets [A,A] in dimension %d" % inter_dim)
    if total.dim != a.dim:
        failures.append("Z(A) + [A,A] has dimension %d < dim A = %d" % (total.dim, a.dim))
    return not failures, "; ".join(failures)


def classify_ml(z: Subspace | MatrixAlgebra) -> MLClassification:
    """(m, l) as the inertia of the trace form (x, y) -> tr(xy) on Z(A),
    given as the subspace z of vec(End(V)), which fixes n = dim V, or as the
    algebra A, whose `center_form` is read: verify's classification and the
    stop of its `commutator_ideal` then share one inertia.

    Z(A) ~ R^{m-l} x C^l, and the trace over V weights every factor
    positively: a real factor gives one positive square, a complex one
    a^2 - b^2, one of each sign.  A zero square means Z(A) is not semisimple.
    """
    if isinstance(z, MatrixAlgebra):
        pos, neg, zero = z.center_form
    else:
        pos, neg, zero = inertia(trace_form(z, isqrt(z.ambient_dim)))
    if zero:
        raise ValueError("the trace form on the center is degenerate "
                         "(%d zero squares): Z(A) is not semisimple" % zero)
    # [A, A] is orthogonal to Z(A), tr([x, y] z) = tr(x [y, z]) = 0, and the
    # form is nondegenerate there: so for semisimple A, A = Z(A) + [A, A]
    # and A / [A, A] has the dimension of Z(A), pos + neg
    return MLClassification(m=pos, l=neg)


def root_count_agrees(a: MatrixAlgebra, ml: MLClassification) -> tuple[bool, str]:
    """Whether Sturm's count on a generic central element agrees with ml, as
    (passed, detail): the detail says why not, and is "" on agreement.  Shares
    no code with the trace form.

    z(t) = sum of t^i z_i (i = 1..d = dim Z(A)) is generic once its minimal
    polynomial has degree d: its roots are then the d eigenvalue functionals
    of Z(A) at z(t), m - l real and l conjugate pairs.  Two functionals agree
    at z(t) at the roots of a nonzero polynomial of degree <= d with no
    constant term, at most d - 1 positive; so some t <= 2 + (d-1) d(d-1)/2
    is generic.
    """
    n, rows = a.ambient_dim, a.center.rows
    d = len(rows)
    # the basis element z_i is the integer row i over its pivot: z(t) is the
    # integer vector sum of t^i (den / pivot_i) row_i over den, the lcm of the pivots
    den = lcm(*(pivot for _, pivot, _ in rows))
    last = 2 + (d - 1) * d * (d - 1) // 2
    for t in range(2, last + 1):
        vec: dict[int, int] = {}
        for i, (_, pivot, row) in enumerate(rows, 1):
            c = t**i * (den // pivot)
            for k, x in row.items():
                vec[k] = vec.get(k, 0) + c * x
        p = minimal_polynomial(QMatrix._of(den, vec.items(), n, n))
        if len(p) - 1 == d:
            break
    else:
        return False, "no z(t) with t = 2..%d has a minimal polynomial of degree %d" % (last, d)
    try:
        real, pairs = count_real_roots(p)
    except ValueError:  # p is nonzero, so only a repeated root raises
        return False, "minimal polynomial of z(%d) is not squarefree" % t
    counted = (ml.m, ml.l, real + pairs, pairs)
    if counted[:2] == counted[2:]:
        return True, ""
    return False, "trace form (m,l)=(%d,%d), root count (%d,%d)" % counted


def schur_split_oracle(
    g: FiniteMatrixAction, a: MatrixAlgebra
) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """Verify's two exact checks of the commutant A of a finite group, each as
    (passed, detail), from B = span of the enumerated elements; neither shares
    code with the center or the trace form (Serre, Linear Representations of
    Finite Groups, 2.3 and 13.2).

    - Z(A) = A meet B: B is the algebra the group spans and A its commutant,
      so B is the commutant of A.  Checked as Z(A) in B and
      dim A + dim B - dim(A + B) = dim Z(A).
    - dim A = (1/|G|) sum of tr(g)^2, the norm <chi, chi> of the real
      character chi = tr.
    """
    z, n = a.center, g.dim
    elements = g.elements
    group_span = Subspace._span(n * n, (el.int_vec() for el in elements))
    meet = a.dim + group_span.dim - a.span.sum(group_span).dim
    inside = group_span.contains_subspace(z)
    center_detail = "dim Z(A) = %d, dim A meet span G = %d" % (z.dim, meet)
    if not inside:
        center_detail += ", Z(A) not in span G"
    # every element passed the trace test for finite order: its trace is an integer
    traces = [el.int_trace() // el.den for el in elements]
    norm = Q(sum(t * t for t in traces), len(traces))
    dim_detail = "dim A = %d, (1/|G|) sum tr(g)^2 = %s" % (a.dim, norm)
    return (inside and meet == z.dim, center_detail), (norm == a.dim, dim_detail)
