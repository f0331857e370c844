"""Compact group actions on R^n, one class per kind.

A group is given in one of three finite forms: a finite matrix group by
generators, a torus by an integer weight matrix acting on complex block
coordinates, or a connected group by Lie-algebra generator matrices.  Each
class is the one place that knows its kind.  It gives the matrices that
generate the action (`action_generators`), those of them that lie in the
group's Lie algebra (`lie_algebra_generators`), "fixed by the group" as a
finite family of exact linear operators (`fixed_operators`), the span of
its commutant A = End(V)^H (`commutant_span`), dim A and the center Z(A)
where the group's own data fix them (`commutant_center`), its invariant
polynomials one degree at a time (`invariant_terms`), its default degree
bound, the degrees from which the invariants certify the kernel `s`
(`certified`), and whether its true `s` is always the floor Z(A) meet
Lie(H) (`kernel_is_floor`): a finite group's and a torus's is, so compute
answers their `s` by that theorem at every degree bound, and the degree
bound, the invariants and `certified` serve compute for connected groups
only, and verify for every kind.

Each commutant and each set of invariants reads as little as fixes it.  A
torus's commutant, its dimension and its center are read off its weight
classes, the blocks grouped by weight column up to sign, with no commutator
row and no product: a nonzero class of r blocks gives A a factor M_r(C) and
Z(A) its C, spanned by I and by J oriented by each column's sign on the
class's blocks; the z zero columns give A a factor M_2z(R) and Z(A) its R,
spanned by I on their blocks.  A finite group G with k generators on R^n
with |G| k <= n^2 gives Z(A) as the span of its class sums and dim A as
its character norm, from 2 k |G| products.  A connected group with
1 + dim k <= n gives them off the algebra W its Lie-generating generators
generate with I, when W has at most n words: Z(A) = Z(W), and dim A is
c^T G^-1 c for the traces c on V and G on W of a basis of Z(W).  Past
these rules dim A and Z(A) are left to the commutant.  A connected
group's commutant and invariants read only a subset of its generators that
generates its Lie algebra (`lie_generating`), since commuting with, or a
derivation vanishing for, two elements holds for their bracket too.  A
finite group reads every generator.  `action_generators`,
`lie_algebra_generators` and `fixed_operators` return every generator.

Polynomials here are dicts from exponent tuples to nonzero integer
coefficients, each an integer multiple of the polynomial it stands for.
Invariants of finite and connected groups are one sparse common kernel per
degree, of one operator per generator written on monomial indices; the
operators run on each generator's integer rows, so their images are integer
multiples of the true ones, and each invariant is a kernel row as the engine
holds it.  An operator's images of a degree are formed only when the
elimination reads them.  Torus invariants are built from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb, gcd, lcm
from typing import Callable, Iterator, Sequence

from .exactlin import (
    Q,
    QMatrix,
    Subspace,
    bracket_vec,
    common_nullspace,
    count_real_roots,
    inertia,
    integer_kernel_saturated,
    kernel,
    lattice_contains,
    lie_generating_subset,
    minimal_polynomial,
    minus_identity,
    product_vec,
    rows_of,
    rref,
    solve,
    trace_form,
    word_basis,
    word_center,
)

DEFAULT_GROUP_CAP = 100_000

Monomial = tuple[int, ...]
# {monomial: nonzero int}: an integer multiple of one polynomial
Terms = dict[Monomial, int]
# {monomial: {monomial: coefficient}}: the image of each basis monomial
Images = dict[Monomial, Terms]
# called with the monomial lists of degrees 1..d, for the images of degree d's
# monomials; called at some of the degrees 1, 2, ..., in increasing order
Operator = Callable[[Sequence[list[Monomial]]], Images]


class GroupNotFiniteError(RuntimeError):
    """The generated group has an element of infinite order, or outgrew the
    enumeration cap."""


def _check_trace(m: QMatrix, what: str, error: type[Exception]) -> None:
    """Raise error unless m passes the trace test for finite order.  A rational
    matrix of finite order is diagonalizable with roots of unity as
    eigenvalues, so its trace is an integer in [-n, n], and is n or -n only
    for I or -I.  On the integer rows of m: O(n + nonzeros)."""
    n, den, t = m.rows, m.den, m.int_trace()
    if t % den or abs(t) > n * den:
        msg = "%s has infinite order: its trace %s is not an integer in [-%d, %d]"
        raise error(msg % (what, Q(t, den), n, n))
    t //= den
    if abs(t) == n:
        sign = 1 if t > 0 else -1
        if m != QMatrix(1, tuple(((i, sign),) for i in range(n)), n):
            msg = "%s has infinite order: its trace is %s but it is not %sI"
            raise error(msg % (what, t, "" if sign > 0 else "-"))


def _check_shape(m: QMatrix, i: int, n: int) -> None:
    """Raise ValueError unless generator i is n x n."""
    if (m.rows, m.cols) != (n, n):
        raise ValueError("generators[%d] is %d x %d, not %d x %d" % (i, m.rows, m.cols, n, n))


# ---------------------------------------------------------------------------
# monomials and the operators that build invariants


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _accumulate(out: Terms, e: Monomial, x: int) -> None:
    v = out.get(e, 0) + x
    if v:
        out[e] = v
    else:
        del out[e]


def _derive(rows: list, m: Monomial, c: int, out: Terms) -> None:
    """Add c * D(x^m) to out, where rows[j] lists the nonzero integers
    (i, D[j][i]): D(x^m) = sum_{j,i} m_j D[j][i] x^(m - e_j + e_i)."""
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


def _difference_operator(a: QMatrix) -> Operator:
    """f -> f(ax) - f(x), on integers.  With a = A / den for the integer
    matrix A, x^m(ax) = x^m(Ax) / den^d in degree d, so the image of x^m is
    taken as x^m(Ax) - den^d x^m: den^d times the true one, a scale all images
    of one degree share.  x^m(Ax) is x^(m - e_i)(Ax) times the linear form
    (Ax)_i, so each image of degree d costs one sparse product with an image
    of degree d - 1; a call first substitutes into the degrees skipped since
    the last, from their monomial lists."""
    n = a.rows
    den, forms = a.den, a.int_rows
    unit = (0,) * n
    substituted = {unit: {unit: 1}}  # x^m(Ax) for the monomials m of degree `done`
    done = 0

    def images(lists: Sequence[list[Monomial]]) -> Images:
        nonlocal substituted, done
        for monoms in lists[done:]:
            nxt = {}
            for m in monoms:
                i = next(k for k, p in enumerate(m) if p)
                lower = list(m)
                lower[i] -= 1
                prod: Terms = {}
                for e, c in substituted[tuple(lower)].items():
                    for j, x in forms[i]:
                        up = list(e)
                        up[j] += 1
                        _accumulate(prod, tuple(up), c * x)
                nxt[m] = prod
            substituted = nxt
        done = len(lists)
        scale = den**done
        out = {}
        for m, prod in substituted.items():
            out[m] = diff = dict(prod)
            _accumulate(diff, m, -scale)
        return out

    return images


def _derivation_operator(xi: QMatrix) -> Operator:
    """The derivation of the vector field x -> xi x, on exponents and on
    integers: den(xi) times the true images."""
    rows = xi.int_rows

    def images(lists: Sequence[list[Monomial]]) -> Images:
        out = {}
        for m in lists[-1]:
            out[m] = img = {}
            _derive(rows, m, 1, img)
        return out

    return images


def _kernel_invariants(
    n: int, make: Callable[[QMatrix], Operator], generators: Sequence[QMatrix], degree: int
) -> Iterator[tuple[Terms, ...]]:
    """Invariants of a finite or connected group: per degree 1..degree, the
    common kernel of the operator `make` builds for each generator.  An
    operator runs only when the elimination reads its rows, so none runs at
    a degree once the kernel is zero."""
    operators = [make(a) for a in generators]
    lists: list[list[Monomial]] = []  # the monomials of degrees 1, 2, ...
    for d in range(1, degree + 1):
        monoms = monomials_of_degree(n, d)
        lists.append(monoms)
        # row e holds the coefficient of e in each image
        rows = chain.from_iterable(
            rows_of([im[m] for m in monoms]) for im in (op(lists) for op in operators)
        )
        # each invariant is a kernel row as the engine holds it: the canonical
        # basis invariant times its pivot
        yield tuple(
            {monoms[c]: x for c, x in sorted(row.items())}
            for _, _, row in kernel(len(monoms), rows).rows
        )


def _z_monomial(a: Sequence[int], b: Sequence[int]) -> tuple[Terms, Terms]:
    """Real and imaginary parts of z^a zbar^b in real coordinates
    z_j = x_{2j} + i x_{2j+1}, with integer coefficients.

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
    parts: tuple[Terms, Terms] = ({}, {})
    for choice in product(*per_block):
        e: list[int] = []
        coeff, total = 1, 0
        for x_exp, s, c in choice:
            e += (x_exp, s)
            coeff *= c
            total += s
        # i^total: the real part for even total, negated when total % 4 >= 2
        parts[total % 2][tuple(e)] = coeff if total % 4 < 2 else -coeff
    return parts


def _check_torus_element(z: QMatrix, i: int) -> None:
    """Raise ValueError unless z, basis element i of the center of a Lie
    span, generates a torus: z is semisimple with a purely imaginary
    spectrum (Knapp, Lie Groups Beyond an Introduction, ch. IV).

    That holds exactly when the minimal polynomial p of z is squarefree and
    p(t) = t^e q(t^2), e in {0, 1}, where every root of q is real and
    negative.  Then p is squarefree exactly when q is and q(0) != 0; and q,
    with all roots real, has none >= 0 exactly when no coefficient is zero
    and none changes sign (Descartes' rule is exact then): when all are
    positive, as the leading one is.  Commuting elements of that kind have
    combinations of that kind, so a basis of the center suffices."""
    p = minimal_polynomial(z)
    e = (len(p) - 1) % 2
    q = p[e::2]
    failure = ("basis element %d of the center of the span has the minimal polynomial "
               "with coefficients %s, low to high, %%s: the group is not compact" % (i, p))
    if any(p[1 - e::2]):
        raise ValueError(failure % "neither even nor odd")
    try:
        real = count_real_roots(q)[0] if q[0] else None
    except ValueError:  # q is nonzero, so only a repeated root raises
        real = None
    if real is None:
        raise ValueError(failure % "not squarefree")
    if real < len(q) - 1 or min(q) <= 0:
        raise ValueError(failure % "with a root off the imaginary axis")


# ---------------------------------------------------------------------------
# the three kinds of action


@dataclass(frozen=True)
class FiniteMatrixAction:
    """Finite group acting by invertible rational matrices."""

    dim: int
    generators: tuple[QMatrix, ...]
    cap: int = DEFAULT_GROUP_CAP

    def __post_init__(self):
        for i, g in enumerate(self.generators):
            _check_shape(g, i, self.dim)
            if rref(g)[1] != self.dim:
                raise ValueError("generators[%d] is not invertible" % i)
            _check_trace(g, "generators[%d]" % i, ValueError)

    @cached_property
    def elements(self) -> tuple[QMatrix, ...]:
        """The elements of G, enumerated once per action."""
        return tuple(enumerate_group(self))

    @property
    def order(self) -> int:
        return len(self.elements)

    def action_generators(self) -> list[QMatrix]:
        return list(self.generators)

    def lie_algebra_generators(self) -> list[QMatrix]:
        """None: the Lie algebra of a finite group is zero."""
        return []

    def fixed_operators(self) -> list[QMatrix]:
        """g - I for each generator g."""
        return [minus_identity(gen) for gen in self.generators]

    def commutant_span(self) -> Subspace:
        """End(V)^H in vec(End(V)): the joint kernel of the commutator rows
        of the generators, since X commutes with G exactly when it commutes
        with each."""
        return kernel(self.dim * self.dim, invariance_constraints(self.generators))

    def commutant_center(self, whole_group: bool = False) -> tuple[int, Subspace] | None:
        """(dim A, Z(A)) read off the group (`_class_sum_center`) when
        |G| k <= n^2 for its k generators, else None: past that rule the
        kernel of the commutator rows (`commutant_span`) is the cheaper.

        G is enumerated once.  When the orbit asks for the whole group
        (`whole_group`: its quotient is answered s = 0 by the floor theorem,
        which holds only for a finite group), G is the cached `elements`,
        listed whole or refused with GroupNotFiniteError.
        Otherwise it is listed within the budget floor(n^2 / k), and the
        answer is None once the list outgrows the budget, meets the group
        cap or an element of infinite order: the kernel, which reads the
        generators alone, then answers as for any group past the rule."""
        n, k = self.dim, max(len(self.generators), 1)
        if whole_group:
            elements = self.elements
        else:
            try:
                elements = enumerate_group(self, n * n // k)
            except GroupNotFiniteError:
                return None
        if len(elements) * k > n * n:
            return None
        return _class_sum_center(n, elements, self.generators)

    @property
    def default_degree_bound(self) -> int:
        """The Noether bound |G|."""
        return self.order

    def certified(self, degree: int) -> bool:
        """Invariants of degree <= |G| generate all invariants (Noether)."""
        return degree >= self.order

    @property
    def kernel_is_floor(self) -> bool:
        """Yes: s = 0 = Z(A) meet Lie(G).  A central X in s has exp(tX) fix
        every invariant, so it maps each orbit to itself, as the invariants
        of a compact group separate its orbits.  An orbit of a finite group
        is finite, so the curve exp(tX) v stays at v, and Xv = 0 for every
        v."""
        return True

    def invariant_terms(self, degree: int) -> Iterator[tuple[Terms, ...]]:
        """Per degree, the kernel of f -> f(gx) - f(x) over the generators;
        their inverses are their powers, so they suffice."""
        return _kernel_invariants(self.dim, _difference_operator, self.generators, degree)


@dataclass(frozen=True)
class TorusAction:
    """k-torus acting on C^m = R^{2m}; column j of `weights` drives block j.

    Real coordinates (x_{2j}, x_{2j+1}) are the real and imaginary part of
    the j-th complex coordinate; rotations are counterclockwise.  The
    commutant and its center are read off the weight classes, the blocks
    grouped by column up to sign (`weight_classes`).
    """

    weights: tuple[tuple[int, ...], ...]  # k rows, m columns
    default_degree_bound = 2  # a small fixed bound

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

    def action_generators(self) -> list[QMatrix]:
        """One block-diagonal infinitesimal generator per torus coordinate:
        weight * J."""
        out = []
        for row in self.weights:
            rows = []
            for j, w in enumerate(row):
                rows += [((2 * j + 1, -w),), ((2 * j, w),)] if w else [(), ()]
            out.append(QMatrix(1, tuple(rows), self.dim))
        return out

    def lie_algebra_generators(self) -> list[QMatrix]:
        """All of them: they span the torus's Lie algebra."""
        return self.action_generators()

    def fixed_operators(self) -> list[QMatrix]:
        return self.action_generators()

    @cached_property
    def weight_classes(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
        """The blocks grouped by weight column up to sign, found once per
        action: per class, its first column c and its (block, sign) pairs,
        sign 1 where the block's column is c and -1 where it is -c, in the
        order of their first blocks.  The zero columns form one class, all
        of sign 1."""
        classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for j, c in enumerate(zip(*self.weights)):
            opposite = tuple(-x for x in c)
            if opposite != c and opposite in classes:
                classes[opposite].append((j, -1))
            else:
                classes.setdefault(c, []).append((j, 1))
        return tuple((c, tuple(members)) for c, members in classes.items())

    def commutant_span(self) -> Subspace:
        """End(V)^H in vec(End(V)), read off the weight classes: no
        commutator row is formed.

        X commutes with the generators exactly when each 2 x 2 block X_jj'
        has w J X_jj' = w' X_jj' J for the entries w, w' of columns j and j'
        in every weight row.  Conjugation by J fixes I and J and negates
        K = diag(1, -1) and KJ, so the blocks that pass are aI + bJ when the
        columns are equal, aK + bKJ when they are opposite, both when the
        column is zero, and 0 otherwise, as between blocks of two classes
        (Broecker-tom Dieck, Representations of Compact Lie Groups, ch. II).
        So a nonzero class of r blocks gives A a factor M_r(C), and the z
        zero columns give it M_2z(R)."""
        n, vectors = self.dim, []
        for c, members in self.weight_classes:
            zero = not any(c)
            for j, sign in members:
                for jj, other in members:
                    # the indices in vec(X) of the entries (2j, 2j') and (2j + 1, 2j')
                    top, low = 2 * j * n + 2 * jj, (2 * j + 1) * n + 2 * jj
                    if sign == other or zero:
                        vectors += [{top: 1, low + 1: 1}, {top + 1: -1, low: 1}]  # I, J
                    if sign != other or zero:
                        vectors += [{top: 1, low + 1: -1}, {top + 1: -1, low: -1}]  # K, KJ
        return Subspace._span(n * n, vectors)

    def commutant_center(self, whole_group: bool = False) -> tuple[int, Subspace]:
        """(dim A, Z(A)), read off the weight classes: no commutator row, no
        product and no bracket is formed.

        Each class spans a factor of A = End(V)^T (`commutant_span`):
        M_r(C), of dimension 2 r^2, for a nonzero class of r blocks, and
        M_2z(R), of dimension 4 z^2, for the z zero columns.  So Z(A) is the
        sum of the factors' centers.  The zero class's factor has the center
        R, spanned by E = I on its blocks.  A nonzero class's factor is
        M_r(C) once each block of sign -1 is conjugated by K, which sends
        aK + bKJ to aI - bJ (KJK = -J): its center C is spanned by E = I on
        its blocks and F = sign J on each of them.  So Z(A) ~ R^(m - l) +
        C^l, with m classes and l nonzero ones.  `whole_group` is not read."""
        n, dim, vectors = self.dim, 0, []
        for c, members in self.weight_classes:
            dim += (2 if any(c) else 4) * len(members) ** 2
            # the diagonal entries of E, and the entries (2j, 2j + 1) and
            # (2j + 1, 2j) of F: the index in vec(X) of (i, i') is i n + i'
            vectors.append({i * (n + 1): 1 for j, _ in members for i in (2 * j, 2 * j + 1)})
            if any(c):
                f = {}
                for j, sign in members:
                    f[2 * j * (n + 1) + 1] = -sign
                    f[(2 * j + 1) * (n + 1) - 1] = sign
                vectors.append(f)
        return dim, Subspace._span(n * n, vectors)

    def invariant_pairs(self, d: int) -> Iterator[tuple[Monomial, Monomial]]:
        """Exponent pairs (a, b), |a| + |b| = d, of the invariant monomials
        z^a zbar^b: those with weight(a - b) = 0.  Of the conjugates (a, b)
        and (b, a) only one is listed: |a| < |b|, or |a| = |b| and a comes
        first in `monomials_of_degree` order."""
        m = self.blocks
        for total_a in range(d // 2 + 1):
            bs = monomials_of_degree(m, d - total_a)
            for i, a in enumerate(monomials_of_degree(m, total_a)):
                for b in bs[i:] if 2 * total_a == d else bs:
                    if all(
                        sum(w * (x - y) for w, x, y in zip(row, a, b)) == 0
                        for row in self.weights
                    ):
                        yield a, b

    @cached_property
    def _pairs(self) -> dict[int, tuple[tuple[Monomial, Monomial], ...]]:
        """Degree -> its invariant pairs, filled by `pairs_of_degree`."""
        return {}

    def pairs_of_degree(self, d: int) -> tuple[tuple[Monomial, Monomial], ...]:
        """`invariant_pairs(d)`, enumerated once per degree and action."""
        if d not in self._pairs:
            self._pairs[d] = tuple(self.invariant_pairs(d))
        return self._pairs[d]

    def certified(self, degree: int) -> bool:
        """Whether the invariants of degree <= degree determine the kernel:
        they hold every |z_j|^2 (degree 2), and the exponent differences a - b
        of their monomials z^a zbar^b span the saturated weight kernel.

        A walk up from degree 1 that enumerates each degree's pairs once
        (`pairs_of_degree`) and stops at the first degree that saturates
        ker W; nothing past it is enumerated.  Verify's label reads it;
        compute answers a torus's kernel by `kernel_is_floor` alone."""
        observed: list[tuple[int, ...]] = []
        for d in range(1, degree + 1):
            observed += [
                tuple(x - y for x, y in zip(a, b)) for a, b in self.pairs_of_degree(d) if a != b
            ]
            if d >= 2 and lattice_contains(observed, self._weight_kernel):
                return True
        return False

    @cached_property
    def _weight_kernel(self) -> list[tuple[int, ...]]:
        """A basis of the saturated lattice ker W, found once per action."""
        return integer_kernel_saturated(self.weights)

    @property
    def kernel_is_floor(self) -> bool:
        """Yes: s = Z(A) meet Lie(T), which is Lie(T) itself.  T is abelian,
        so each xi in Lie(T) commutes with T and lies in A; and each X in A
        commutes with exp(t xi) for every t, so with xi: xi is central.

        A central element of the commutant is a scalar on the blocks of zero
        columns, and aI + bJ on the blocks of each other class, J oriented
        by the column's sign (`commutant_center`).  Its
        derivation sends |z_j|^2 to 2a|z_j|^2, so an element of s has every
        real-scalar part a = 0.  What is left is diag(theta_j J), with
        theta_j = 0 on the zero columns, whose derivation multiplies
        z^a zbar^b by i theta . (a - b).  The exponent differences of the
        invariant monomials span ker W (each v in ker W is the difference
        of the invariant z^(v+) zbar^(v-)), so theta is orthogonal to ker W
        and lies in rowspace(W): the element is a combination of the
        generators, in Lie(T)."""
        return True

    def invariant_terms(self, degree: int) -> Iterator[tuple[Terms, ...]]:
        """Per degree, the real and imaginary parts of the invariant monomials
        z^a zbar^b.  They are a basis: the z^a zbar^b of distinct pairs are
        distinct monomials in z and zbar, each kept pair (a, b) stands for
        itself and its conjugate (b, a), and the two parts of a pair are
        independent unless a = b, when the imaginary part is zero."""
        for d in range(1, degree + 1):
            yield tuple(
                p for a, b in self.pairs_of_degree(d) for p in _z_monomial(a, b) if p
            )


@dataclass(frozen=True)
class ConnectedLieAction:
    """Connected group given by matrices spanning its Lie algebra in End(V)."""

    dim: int
    lie_generators: tuple[QMatrix, ...]
    # the generators that generate the Lie algebra (`lie_generating_subset`),
    # found once per action.  X commutes with the group, and an invariant is
    # killed by the derivation of every element of its Lie algebra, exactly
    # when that holds for these: [X, xi] = 0 for xi and xi' gives
    # [X, [xi, xi']] = 0 by the Jacobi identity, and D_[xi, xi'] = [D_xi', D_xi]
    lie_generating: tuple[QMatrix, ...] = field(init=False, repr=False, compare=False)
    # dim of the Lie algebra, the span of the generators
    lie_dim: int = field(init=False, repr=False, compare=False)
    default_degree_bound = 2  # a small fixed bound

    def __post_init__(self):
        n, gens = self.dim, self.lie_generators
        for i, g in enumerate(gens):
            _check_shape(g, i, n)
        span = Subspace._span(n * n, (g.int_vec() for g in gens))
        # vec [G_i, G_j] for the integral G_i = den(g_i) g_i, i < j
        table = {(i, j): bracket_vec(gens[i], gens[j])[1]
                 for i, j in combinations(range(len(gens)), 2)}
        engine = span._engine()
        if not all(engine.contains(b) for b in table.values()):
            raise ValueError("generators are not closed under the bracket")
        # a compact group's Lie algebra has a negative definite trace form
        signs = inertia(trace_form(span, n))
        if signs[0] or signs[2]:
            raise ValueError(
                "the trace form on the span of the generators has inertia "
                "(%d, %d, %d), not (0, %d, 0): the group is not compact" % (*signs, span.dim)
            )
        # the span is closed, so it is the Lie algebra the generators generate
        kept = lie_generating_subset(gens, span.dim)
        object.__setattr__(self, "lie_generating", tuple(gens[i] for i in kept))
        object.__setattr__(self, "lie_dim", span.dim)
        # and its center is a torus.  The center is the combinations of the
        # G_i that commute with each kept G_j, so column i stacks [G_i, G_j]
        # over the kept j.  Each bracket lies in the span, so it is zero
        # exactly when its entries at the span's pivot columns are, and only
        # those are stacked
        nn, pivots = n * n, {pc for pc, _, _ in span.rows}
        columns: list[dict[int, int]] = [{} for _ in gens]
        for (i, j), b in table.items():
            at_pivots = [(k, x) for k, x in b.items() if k in pivots]
            if j in kept:
                columns[i].update((j * nn + k, x) for k, x in at_pivots)
            if i in kept:
                columns[j].update((i * nn + k, -x) for k, x in at_pivots)
        coefs = kernel(len(gens), rows_of(columns))
        center = Subspace._span(nn, coefs.combinations([g.int_vec() for g in gens]))
        for i, (_, _, row) in enumerate(center.rows):
            _check_torus_element(QMatrix._of(1, row.items(), n, n), i)

    def action_generators(self) -> list[QMatrix]:
        return list(self.lie_generators)

    def lie_algebra_generators(self) -> list[QMatrix]:
        """All of them: they span the group's Lie algebra."""
        return self.action_generators()

    def fixed_operators(self) -> list[QMatrix]:
        return self.action_generators()

    def commutant_span(self) -> Subspace:
        """End(V)^H in vec(End(V)): the joint kernel of the commutator rows
        of the Lie-generating generators."""
        return kernel(self.dim * self.dim, invariance_constraints(self.lie_generating))

    def commutant_center(self, whole_group: bool = False) -> tuple[int, Subspace] | None:
        """(dim A, Z(A)) read off W, the algebra the Lie-generating
        generators generate with I (`_word_commutant_center`), when W is
        small, else None: the kernel of the commutator rows
        (`commutant_span`) then answers.  W holds I and the Lie algebra, so
        it is tried only when 1 + dim k <= n, and given up once it needs more
        than n words: past n k products of a word by a generator.
        `whole_group` is not read.

        Z(A) = Z(W).  A is the commutant of the connected group, which is
        the commutant of its Lie algebra, of the Lie-generating generators
        and so of W.  The group is compact (its trace form is negative
        definite and its center a torus, both checked on construction), so V
        is a sum of simple W-modules and W is semisimple; by the double
        centralizer theorem (Lang, Algebra, ch. XVII) A = W' and W = A'.  So
        Z(A) = A meet W = Z(W), the words' combinations that commute with
        each Lie-generating generator (`exactlin.word_center`).

        dim A = c^T G^-1 c, for any basis z_1..z_r of Z(W), c_a = tr_V(z_a)
        and G_ab = tr_W(L_(z_a z_b)), the trace of left multiplication on
        W.  Let M_k(D) be a simple factor of W whose simple module occurs m
        times in V.  A central element acts on that factor as some l in the
        center of D, with trace m k tr_D(l) on V and k^2 tr_D(l) on W: so
        tr_V = (m / k) tr_W factor by factor.  Hence u = sum of (m_i / k_i)
        e_i over the central idempotents e_i satisfies G(u, y) = c(y) for
        every y in Z(W), and c(u) = sum of m_i^2 dim D_i = dim A, as A =
        W' = product of M_(m_i)(D_i^op).  A complex factor's J has trace 0
        on both V and W, so the count holds with complex factors.  On each
        factor G is a positive multiple of the trace form of the field
        Z(D_i), so it is nonsingular, and c^T G^-1 c does not depend on the
        basis."""
        n, gens = self.dim, self.lie_generating
        if 1 + self.lie_dim > n:
            return None
        # with no generator W = span{I}: A = End(V)
        words = word_basis(gens, n * len(gens)) if gens else [QMatrix.identity(n)]
        if words is None:
            return None
        return _word_commutant_center(n, words, gens)

    def certified(self, degree: int) -> bool:
        """Never: no degree bound is known to generate the invariants."""
        return False

    @property
    def kernel_is_floor(self) -> bool:
        """No: s can exceed Z(A) meet Lie(H).  su(3) on C^3 acts
        irreducibly of complex type, so Z(A) is spanned by I and J = iI,
        and L = 0, as J is not traceless.  But exp(tJ) = e^(it) I keeps
        each sphere |z| = r, which is one SU(3) orbit, so J is in s: the
        kernel has k = 1 at degree 2, where |z|^2 is the one invariant,
        and at every degree."""
        return False

    def invariant_terms(self, degree: int) -> Iterator[tuple[Terms, ...]]:
        """Per degree, the kernel of the derivations of the Lie-generating
        generators."""
        return _kernel_invariants(self.dim, _derivation_operator, self.lie_generating, degree)


GroupAction = FiniteMatrixAction | TorusAction | ConnectedLieAction


def _element_key(den: int, ints: dict[int, int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The integer form (den, {index: int}) of a matrix, reduced by the gcd of
    den and its entries, with its nonzeros sorted: one key per matrix."""
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            den, ints = den // g, {k: x // g for k, x in ints.items()}
    return den, tuple(sorted(ints.items()))


def _key_element(key: tuple[int, tuple[tuple[int, int], ...]], n: int) -> QMatrix:
    """The n x n matrix of an `_element_key`, read straight off it: the key is
    already reduced and sorted, as `QMatrix` stores a matrix."""
    den, entries = key
    grid: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, x in entries:
        grid[k // n].append((k % n, x))
    return QMatrix(den, tuple(map(tuple, grid)), n)


class _OverBudget(Exception):
    """An enumeration listed more elements than its budget."""


def enumerate_group(g: FiniteMatrixAction, budget: int | None = None) -> list[QMatrix]:
    """Full element list by Dimino's algorithm (Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991), which forms each
    element once.  With a budget the listing stops as soon as it holds more
    than `budget` elements, and returns them: G has more than `budget`
    elements exactly when the list does.

    G_i = <g_1..g_i> is listed as right cosets of H = G_(i-1): H itself, then
    H g_i, then H (r s) for each representative r in turn and each s among
    g_1..g_i with r s not yet listed.  A generator already in H adds nothing.
    A new coset meets no listed one, so its elements need no lookup; and
    every coset times every generator is listed, so G_i is closed.  The
    order is deterministic: I first, each G_i a prefix of the list, each
    coset a block that starts with its representative.  Each product is
    keyed by its reduced integer form, and a new element is built from its
    key and must pass the trace test for finite order."""
    if not isinstance(g, FiniteMatrixAction):
        raise TypeError("enumerate_group needs a finite matrix action")
    n = g.dim
    ident = QMatrix.identity(n)
    seen = {_element_key(1, ident.int_vec()): ident}

    def add(key) -> QMatrix:
        el = _key_element(key, n)
        _check_trace(el, "group not finite: an element", GroupNotFiniteError)
        if len(seen) >= g.cap:
            raise GroupNotFiniteError("group not finite under cap %d" % g.cap)
        seen[key] = el
        if budget is not None and len(seen) > budget:
            raise _OverBudget
        return el

    def add_coset(rest: list[QMatrix], key) -> QMatrix:
        """List the coset H r of the new r of this key, r first, where rest
        is H without its first element I; return r."""
        r = add(key)
        for h in rest:
            add(_element_key(*product_vec(h, r)))
        return r

    try:
        for i, gen in enumerate(g.generators, 1):
            key = _element_key(gen.den, gen.int_vec())
            if key in seen:
                continue
            rest = list(seen.values())[1:]
            reps = [add_coset(rest, key)]
            # the list grows while it is read: each new representative in turn
            for r in reps:
                for s in g.generators[:i]:
                    key = _element_key(*product_vec(r, s))
                    if key not in seen:
                        reps.append(add_coset(rest, key))
    except _OverBudget:
        pass
    return list(seen.values())


def _class_sum_center(
    n: int, elements: Sequence[QMatrix], generators: Sequence[QMatrix]
) -> tuple[int, Subspace]:
    """(dim A, Z(A)) of the commutant A of the finite group G listed in
    `elements`, read off G: no commutator row, kernel or bracket is formed.

    B = span G is an algebra, semisimple by Maschke's theorem, and A = B',
    B = A' (Lang, Algebra, ch. XVII).  So Z(A) = A meet B = Z(B), the image
    of the center of Q[G], which the class sums span (Serre, Linear
    Representations of Finite Groups, 6.3).  dim A is the norm
    (1/|G|) sum of tr(g)^2 of the real character (Serre 2.3 and 13.2).

    The classes are the orbits of conjugation by the generators, joined by
    union-find: y = s x s^-1 exactly when y s = s x, so each generator s
    keys y s for every y and looks up s x for every x, 2 k |G| products in
    all.  Each class sum is taken over the lcm of its members'
    denominators; its scale does not change the span."""
    parent = list(range(len(elements)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s in generators:
        conjugate = {_element_key(*product_vec(y, s)): j for j, y in enumerate(elements)}
        for i, x in enumerate(elements):
            parent[root(i)] = root(conjugate[_element_key(*product_vec(s, x))])
    classes: dict[int, list[QMatrix]] = {}
    for i, el in enumerate(elements):
        classes.setdefault(root(i), []).append(el)
    sums = []
    for members in classes.values():
        den, total = lcm(*(el.den for el in members)), {}
        for el in members:
            for k, x in el.int_vec().items():
                _accumulate(total, k, den // el.den * x)
        sums.append(total)
    # every element passed the trace test for finite order: its trace is an integer
    norm = sum((el.int_trace() // el.den) ** 2 for el in elements) // len(elements)
    return norm, Subspace._span(n * n, sums)


def _word_commutant_center(
    n: int, words: Sequence[QMatrix], gens: Sequence[QMatrix]
) -> tuple[int, Subspace]:
    """(dim A, Z(A)) of the commutant A of a compact connected group on R^n
    whose Lie-generating generators `gens` generate with I the algebra W
    that `words` span (`word_basis`): Z(A) = Z(W) and dim A = c^T G^-1 c
    (`ConnectedLieAction.commutant_center` has both proofs).  No commutator
    row, kernel over vec(End(V)) or residual is formed.

    W's canonical rows r_i, with pivot p_i at column pc_i, are zero at each
    other's pivots, so the coordinate of w in W on r_i / p_i is w[pc_i],
    and tr_W(L_x) = sum over i of (x r_i)[pc_i] / p_i: one length-n dot
    product per row, of row pc_i // n of x with column pc_i % n of r_i.
    Raises ValueError if G is singular or dim A is not a positive integer,
    which no compact action gives."""
    z = word_center(n, words, gens)
    # per row of W: the offset of its pivot's row in vec(x), its pivot, and
    # its pivot's column {k: int}
    reads = []
    for pc, p, row in Subspace._span(n * n, (w.int_vec() for w in words)).rows:
        a, b = divmod(pc, n)
        reads.append((a * n, p, {k // n: x for k, x in row.items() if k % n == b}))
    centrals = [QMatrix._of(1, row.items(), n, n) for _, _, row in z.rows]
    r = len(centrals)
    gram = [[Q(0)] * r for _ in range(r)]
    for i, j in combinations_with_replacement(range(r), 2):
        den, x = product_vec(centrals[i], centrals[j])
        gram[i][j] = gram[j][i] = sum(
            (Q(sum(x.get(base + k, 0) * y for k, y in col.items()), den * p)
             for base, p, col in reads), Q(0))
    gram = QMatrix.from_rows(gram)
    if rref(gram)[1] < r:
        raise ValueError("the trace form of W on its center is singular: W is not semisimple")
    traces = [m.int_trace() for m in centrals]
    dim = sum(t * u for t, u in zip(traces, solve(gram, traces)))
    if dim.denominator != 1 or dim <= 0:
        raise ValueError("c^T G^-1 c = %s is not a positive integer" % dim)
    return int(dim), z


def commutator_rows(a: QMatrix) -> list[dict[int, int]]:
    """The nonzero integer rows {col: nonzero int} of X -> A X - X A on
    row-major vec(X), for the integer form A = den a of a: den times the rows
    of X -> a X - X a, in the order of their indices (i, j).

    Row (i, j) holds A[i][k] at column (k, j) and -A[k][j] at column (i, k):
    at most 2n entries.  The two meet only at column (i, j), which holds
    A[i][i] - A[j][j], zero when i = j.  A zero entry is dropped, and a row
    left empty, as every row of a scalar a is, is not listed.
    """
    n = a.rows
    # a and its transpose share their entries, so their integer forms share den
    a_rows, a_cols = a.int_rows, a.transpose().int_rows
    out = []
    for i in range(n):
        for j in range(n):
            row = {k * n + j: x for k, x in a_rows[i]}
            for k, x in a_cols[j]:
                _accumulate(row, i * n + k, -x)
            if row:
                out.append(row)
    return out


def invariance_constraints(gens: Sequence[QMatrix]) -> list[dict[int, int]]:
    """Integer rows on vec(End(V)) whose joint kernel is the commutant of
    `gens`: the commutator rows of each.

    For an invertible g, g X g^-1 = X exactly when g X - X g = 0, so finite
    groups need no inverses.
    """
    return [row for a in gens for row in commutator_rows(a)]


def fixed_vectors(g: GroupAction) -> Subspace:
    """V^H as a subspace of R^n: the joint kernel of the action's fixed-vector
    operators."""
    ops = g.fixed_operators()
    return common_nullspace(ops) if ops else Subspace.full(g.dim)
