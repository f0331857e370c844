"""Tests for polynomial invariants, induced derivations, and the central
kernel on the quotient side."""

import dataclasses
import functools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from exact_oracles import kernel_reading_every_degree, lie_floor, vec
from test_center_routes import _workload_orbits, su3_on_c3, torus_actions
from test_commutant import FINITE_CASES, counting_rationals, in_rational_basis

from equivab import catalog as cat
from equivab import commutant, exactlin, pipeline, strata, symmetry
from equivab.commutant import classify_ml, compute_commutant
from equivab.exactlin import QMatrix, Subspace, _exact, nullspace
from equivab.strata import (
    DegreeBoundTooLarge,
    DegreeBoundTooLow,
    KernelResult,
    derivation_action,
    invariants_up_to_degree,
    kernel_s,
    quotient_abelianization,
)
from equivab.symmetry import (
    ConnectedLieAction,
    FiniteMatrixAction,
    TorusAction,
    enumerate_group,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# the tests' polynomial type and its arithmetic: the oracles below are built
# from these, through the coercing constructor only


class Poly:
    """Multivariate polynomial over Q: {exponent tuple: nonzero coefficient}.
    The library's polynomials are dicts of integer coefficients (`Terms`);
    the constructor coerces those and rationals alike."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(_exact(c))
            if c != 0:
                self.terms[tuple(e)] = c

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms


def var(n, i):
    return Poly(n, {tuple(int(k == i) for k in range(n)): 1})


def mono(e):
    return Poly(len(e), {tuple(e): 1})


def add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return Poly(p.nvars, out)


def sub(p, q):
    return add(p, q, -1)


def mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Poly(p.nvars, out)


def scale(p, c):
    return Poly(p.nvars, {e: c * v for e, v in p.terms.items()})


def coefficients_on(terms, monomials):
    return [terms.get(m, 0) for m in monomials]


def derive(d, f):
    """Df, read off the integer terms of den(D) c Df that `derivation_action`
    returns for the integer multiple c f of f."""
    c = lcm(*(int(x.denominator) for x in f.terms.values()))
    got = derivation_action(d, {e: int(x * c) for e, x in f.terms.items()})
    assert all(type(x) is int for x in got.values())
    return scale(Poly(f.nvars, got), Fraction(1, c * d.den))


def primitive(terms):
    """The rational terms times the positive rational that makes them coprime
    integers."""
    den = lcm(*(int(c.denominator) for c in terms.values()))
    ints = {e: int(c * den) for e, c in terms.items()}
    g = gcd(*ints.values())
    return {e: x // g for e, x in ints.items()}


def partial(p, i):
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = c * e[i]
    return Poly(p.nvars, out)


@functools.lru_cache(maxsize=None)
def _ring_generators(n):
    return sympy.ring(["x%d" % i for i in range(n)], sympy.QQ)[1:]


def substitute(f, m):
    """Oracle f(Mx), substituting x_i -> sum_j M[i][j] x_j in sympy's sparse
    polynomial ring."""
    n = f.nvars
    xs = _ring_generators(n)

    def q(x):
        return sympy.QQ(int(x.numerator), int(x.denominator))

    forms = [sum((q(m.entries[i][j]) * xs[j] for j in range(n)), xs[0] * 0) for i in range(n)]
    acc = xs[0] * 0
    for e, c in f.terms.items():
        term = xs[0] ** 0 * q(c)
        for form, p in zip(forms, e):
            term *= form**p
        acc += term
    return Poly(n, {e: Fraction(int(c.numerator), int(c.denominator))
                    for e, c in acc.terms()})


class TestPoly:
    def test_arithmetic(self):
        x = var(2, 0)
        y = var(2, 1)
        p = mul(add(x, y), sub(x, y))
        assert p == sub(mul(x, x), mul(y, y))

    def test_partial(self):
        x = var(2, 0)
        y = var(2, 1)
        f = mul(mul(x, x), y)
        assert partial(f, 0) == scale(mul(x, y), 2)
        assert partial(f, 1) == mul(x, x)
        # the unit field x_i d/dx_j is the derivation of the matrix unit E_ji
        for i in range(2):
            for j in range(2):
                e = QMatrix.from_rows([[int((r, c) == (j, i)) for c in range(2)]
                                       for r in range(2)])
                assert derive(e, f) == mul(var(2, i), partial(f, j))

    def test_substitute_linear(self):
        # f(x, y) = x^2 under 90-degree rotation becomes y^2
        f = mono((2, 0))
        rot = QMatrix.from_rows([[0, -1], [1, 0]])
        assert substitute(f, rot) == mono((0, 2))
        g = Poly(2, {(1, 1): 2, (0, 1): 1})  # 2xy + y at (x + y, 3y)
        shear = QMatrix.from_rows([[1, 1], [0, 3]])
        assert substitute(g, shear) == Poly(2, {(1, 1): 6, (0, 2): 6, (0, 1): 3})

    def test_public_constructor_coerces(self):
        with pytest.raises(TypeError):
            Poly(2, {(1, 0): 0.5})
        p = Poly(2, {(1, 0): "1/2", (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(1, 2)}

    def test_monomials_count(self):
        from math import comb

        for n, d in [(2, 3), (4, 2), (3, 4)]:
            assert len(monomials_of_degree(n, d)) == comb(n + d - 1, d)


class TestDerivationAction:
    def test_euler_identity(self):
        # identity matrix acts on degree-d monomials as multiplication by d
        f = mono((2, 1))
        df = derive(QMatrix.identity(2), f)
        assert df == scale(f, 3)

    def test_rotation_kills_radius(self):
        j = QMatrix.from_rows([[0, -1], [1, 0]])
        r2 = add(mono((2, 0)), mono((0, 2)))
        assert not derive(j, r2).terms

    def test_rotation_on_cubic(self):
        # with z = x + iy: the derivation of the rotation field sends
        # Re(z^3) to -3 Im(z^3)
        j = QMatrix.from_rows([[0, -1], [1, 0]])
        re_z3 = Poly(2, {(3, 0): 1, (1, 2): -3})
        im_z3 = Poly(2, {(2, 1): 3, (0, 3): -1})
        assert derive(j, re_z3) == scale(im_z3, -3)

    def test_leibniz(self):
        d = QMatrix.from_rows([[1, 2], [0, -1]])
        f = Poly(2, {(2, 0): 1, (1, 1): 3})
        g = Poly(2, {(0, 1): 2, (1, 0): -1})
        lhs = derive(d, mul(f, g))
        rhs = add(mul(derive(d, f), g), mul(f, derive(d, g)))
        assert lhs == rhs

    def test_integer_terms_of_a_rational_field(self):
        # D = diag(1/2, 1/3) on x^2 y: Df = (2/2 + 1/3) x^2 y = 4/3 x^2 y, and
        # den(D) = 6
        d = QMatrix.from_rows([["1/2", 0], [0, "1/3"]])
        assert derivation_action(d, {(2, 1): 1}) == {(2, 1): 8}
        assert derivation_action(d, {(2, 1): 3, (0, 3): -1}) == {(2, 1): 24, (0, 3): -6}


def ray(f):
    """f up to scale: f over its coefficient at its least monomial."""
    lead = f[min(f)]
    return tuple(sorted((e, Fraction(c, lead)) for e, c in f.items()))


def dim_in_degree(inv, d):
    """The number of basis invariants of degree d."""
    return len(inv[d - 1])


def all_polys(inv):
    return [f for basis in inv for f in basis]


# circles and tori, with repeated weights among them
TORI = [
    ((1, 1),), ((1, 2),), ((1, -1),), ((1, 1, 1),), ((2, 2, -1),),
    ((1, -1), (0, 2)), ((1, 0, 1, 1), (0, 1, 1, -1)),
]


def s3_standard_cycle_first() -> FiniteMatrixAction:
    """S3 on R^2 with its 3-cycle first, whose images alone fill degree 1, so
    the transposition's are first formed at degree 2."""
    return FiniteMatrixAction(2, tuple(reversed(cat.s3_standard().generators)))


REYNOLDS_CASES = [case[0] for case in FINITE_CASES] + [s3_standard_cycle_first]


def operator_degrees(monkeypatch, name):
    """For each operator the symmetry factory `name` makes, the degrees at
    which its images are formed."""
    make = getattr(symmetry, name)
    made = []

    def counted(a):
        op, degrees = make(a), []
        made.append(degrees)

        def images(lists):
            degrees.append(len(lists))
            return op(lists)

        return images

    monkeypatch.setattr(symmetry, name, counted)
    return made


class TestInvariants:
    def test_c3_invariant_counts(self):
        inv = tuple(invariants_up_to_degree(cat.c3_rotation(), 4))
        # Molien series of the rotation C3 on R^2: 1, 0, 1, 2, 1, ...
        assert [dim_in_degree(inv, d) for d in range(1, 5)] == [0, 1, 2, 1]

    def test_invariance_of_finite_basis(self):
        g = cat.s3_standard()
        inv = tuple(invariants_up_to_degree(g, 3))
        for f in (Poly(g.dim, terms) for terms in all_polys(inv)):
            for el in enumerate_group(g):
                assert substitute(f, el) == f

    def test_torus_invariant_counts(self):
        # anti-diagonal circle weights (1, -1) on C^2: z1 z2 is invariant
        inv = tuple(invariants_up_to_degree(TorusAction(((1, -1),)), 2))
        assert dim_in_degree(inv, 1) == 0
        # degree 2: |z1|^2, |z2|^2, Re(z1 z2), Im(z1 z2)
        assert dim_in_degree(inv, 2) == 4

    @pytest.mark.parametrize("weights", TORI, ids=str)
    def test_torus_invariants_are_a_basis(self, weights):
        # the rank of each degree's invariants equals their count
        g = TorusAction(weights)
        for d, basis in enumerate(invariants_up_to_degree(g, 5), 1):
            monoms = monomials_of_degree(g.dim, d)
            rows = [coefficients_on(f, monoms) for f in basis]
            assert Subspace.from_vectors(len(monoms), rows).dim == len(basis), d

    def test_torus_invariants_killed_by_generators(self):
        t = TorusAction(((1, 2),))
        inv = tuple(invariants_up_to_degree(t, 3))
        for f in all_polys(inv):
            for gen in t.action_generators():
                assert not derivation_action(gen, f)

    def test_connected_invariants(self):
        # su(2) on C^2: only the radius in degree 2
        inv = tuple(invariants_up_to_degree(cat.su2_on_c2(), 2))
        assert dim_in_degree(inv, 1) == 0
        assert dim_in_degree(inv, 2) == 1
        (f,) = inv[1]
        for gen in cat.su2_on_c2().lie_generators:
            assert not derivation_action(gen, f)

    def test_su3_on_c3_forms_degree_3_images_of_few_generators(self, monkeypatch):
        # no cubic is SU(3)-invariant on C^3; 3 of the 8 generators generate
        # su(3), so only their 3 operators are made, and each reaches degree 3
        made = operator_degrees(monkeypatch, "_derivation_operator")
        inv = tuple(invariants_up_to_degree(su3_on_c3(), 3))
        assert [len(basis) for basis in inv] == [0, 1, 0]
        assert len(made) == 3
        assert all(2 in degrees for degrees in made)
        assert sum(3 in degrees for degrees in made) == 3

    def test_an_operator_skipped_at_a_degree_catches_up(self, monkeypatch):
        made = operator_degrees(monkeypatch, "_difference_operator")
        g = s3_standard_cycle_first()
        inv = tuple(invariants_up_to_degree(g, 6))
        assert made == [[1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6]]
        monkeypatch.undo()
        assert inv == tuple(invariants_up_to_degree(cat.s3_standard(), 6))

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setattr(strata, "DEFAULT_MONOMIAL_CAP", 100)
        with pytest.raises(DegreeBoundTooLarge):
            tuple(invariants_up_to_degree(cat.su2_on_c2(), 60))

    def test_no_degree_past_the_cap_is_built(self, monkeypatch):
        # Q8 on R^4 has 84 monomials in degree 6 and 120 in degree 7: degrees
        # 1-6 are built, and degree 7 is refused before any of its images
        imaged = []
        operator = symmetry._difference_operator

        def recorded(a):
            images = operator(a)

            def counted(lists):
                imaged.append(len(lists))
                return images(lists)

            return counted

        monkeypatch.setattr(symmetry, "_difference_operator", recorded)
        monkeypatch.setattr(strata, "DEFAULT_MONOMIAL_CAP", 100)
        read = []
        with pytest.raises(DegreeBoundTooLarge) as err:
            for basis in invariants_up_to_degree(cat.q8_on_r4(), 60):
                read.append(basis)
        assert str(err.value) == (
            "degree bound too large: 120 monomials in degree 7 exceeds cap 100")
        assert len(read) == 6
        assert sorted(set(imaged)) == [1, 2, 3, 4, 5, 6]

    def test_cap_checked_once_per_degree_read(self, monkeypatch):
        # one check per degree, just before it is built: none at the call,
        # and none past the bound when the stream is read to its end
        calls = []
        check = strata._check_cap

        def counted(nvars, degree):
            calls.append(degree)
            return check(nvars, degree)

        monkeypatch.setattr(strata, "_check_cap", counted)
        stream = invariants_up_to_degree(cat.c2_sign(), 10**6)
        assert calls == []
        next(stream), next(stream)
        assert calls == [1, 2]
        calls.clear()
        assert len(tuple(invariants_up_to_degree(cat.c2_sign(), 3))) == 3
        assert calls == [1, 2, 3]

    @pytest.mark.parametrize("make", REYNOLDS_CASES, ids=lambda make: make.__name__)
    def test_finite_invariants_span_reynolds_averages(self, make):
        g = make()
        elems = enumerate_group(g)
        order = len(elems)
        inv = tuple(invariants_up_to_degree(g, order))
        for d, basis in enumerate(inv, 1):
            monoms = monomials_of_degree(g.dim, d)
            averages = []
            for m in monoms:
                total = Poly(g.dim)
                for el in elems:
                    total = add(total, substitute(mono(m), el))
                averages.append(coefficients_on(scale(total, Fraction(1, order)).terms, monoms))
            computed = [coefficients_on(f, monoms) for f in basis]
            assert (Subspace.from_vectors(len(monoms), computed)
                    == Subspace.from_vectors(len(monoms), averages)), d

    @pytest.mark.parametrize("make", [case[0] for case in FINITE_CASES],
                             ids=[case[0].__name__ for case in FINITE_CASES])
    def test_finite_invariant_counts_match_molien_series(self, make):
        # (1/|G|) sum_g 1/det(I - t g); det(I - t g) is the reversed
        # characteristic polynomial of g
        g = make()
        elems = enumerate_group(g)
        order = len(elems)
        series = [sympy.Integer(0)] * (order + 1)
        for el in elems:
            mat = sympy.Matrix([[sympy.Rational(int(x.numerator), int(x.denominator))
                                 for x in row] for row in el.entries])
            det = mat.charpoly().all_coeffs()  # 1, c_1, ..., c_n
            inverse = [sympy.Integer(1)]
            for k in range(1, order + 1):
                inverse.append(-sum(det[j] * inverse[k - j]
                                    for j in range(1, min(k, g.dim) + 1)))
            series = [a + b for a, b in zip(series, inverse)]
        expected = [c / order for c in series[1:]]
        inv = tuple(invariants_up_to_degree(g, order))
        assert [dim_in_degree(inv, d) for d in range(1, order + 1)] == expected


class TestZMonomial:
    @pytest.mark.parametrize("a, b", [
        ((0,), (0,)), ((1,), (0,)), ((2,), (3,)), ((2,), (2,)),
        ((1, 0), (0, 2)), ((1, 2), (1, 2)), ((3, 1), (0, 1)),
        ((1, 0, 2), (0, 1, 1)), ((1, 1, 1), (1, 1, 1)), ((0, 2, 1), (2, 0, 0)),
    ])
    def test_matches_sympy_expansion(self, a, b):
        m = len(a)
        xs = sympy.symbols("x0:%d" % (2 * m), real=True)
        zm = sympy.expand(sympy.prod(
            (xs[2 * j] + sympy.I * xs[2 * j + 1]) ** a[j]
            * (xs[2 * j] - sympy.I * xs[2 * j + 1]) ** b[j]
            for j in range(m)
        ))

        def as_poly(expr):
            terms = sympy.Poly(expr, *xs).terms() if expr != 0 else []
            return Poly(2 * m, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})

        parts = symmetry._z_monomial(a, b)
        assert all(type(c) is int for terms in parts for c in terms.values())
        re, im = (Poly(2 * m, terms) for terms in parts)
        assert re == as_poly(sympy.re(zm))
        assert im == as_poly(sympy.im(zm))
        if a == b:
            assert not im.terms


def one_degree_kernel(g, z, d):
    """The kernel at d alone, eliminated from the invariants of degree <= d."""
    return strata.kernel_s_at_degrees(g, z, (d,), strata.invariants_up_to_degree(g, d))[0]


class TestKernel:
    def test_faithful_circle_kernel_is_rotation(self):
        # faithful weight-(1, 2) circle: the central rotation field is
        # tangent to every orbit, so it acts trivially on the quotient
        g = TorusAction(((1, 2),))
        a = compute_commutant(g)
        z = a.center
        res = kernel_s(g, z, 3, classify_ml(z).l)
        assert res.dim_s == 1
        assert res.exactness == "certified"
        # the kernel contains the infinitesimal rotation itself
        (j,) = g.action_generators()
        assert res.s_basis.contains_subspace(Subspace.from_vectors(16, [vec(j)]))

    def test_finite_group_kernel_vanishes_at_noether_bound(self):
        g = cat.c3_rotation()
        a = compute_commutant(g)
        z = a.center
        res = kernel_s(g, z, 3, classify_ml(z).l)
        assert res.dim_s == 0
        assert res.exactness == "certified"

    def test_low_degree_certified_by_the_floor_theorem_alone(self):
        # below the Noether bound |G| = 3 compute still answers s = 0 by the
        # floor theorem; only the elimination is degree-bounded there
        g = cat.c3_rotation()
        a = compute_commutant(g)
        res = kernel_s(g, a.center, 2, classify_ml(a.center).l)
        assert (res.dim_s, res.exactness) == (0, "certified")
        assert one_degree_kernel(g, a.center, 2).exactness == "degree-bounded"

    def test_invariants_must_match_degree(self):
        # the circle's kernel is still 2-dimensional at degree 2, so bases
        # that stop there cannot answer degree 3
        g = TorusAction(((1, 2),))
        a = compute_commutant(g)
        inv = tuple(invariants_up_to_degree(g, 2))
        with pytest.raises(ValueError, match="invariants go up to degree 2, not 3"):
            strata.kernel_s_at_degrees(g, a.center, (3,), inv)[0]
        assert strata.kernel_s_at_degrees(g, a.center, (2,), inv)[0].dim_s == 2

    def test_no_degree_read_past_the_asked_degree(self):
        g = TorusAction(((1, 2),))
        a = compute_commutant(g)
        inv = tuple(invariants_up_to_degree(g, 3))
        bases = iter(inv)
        assert strata.kernel_s_at_degrees(g, a.center, (2,), bases)[0].dim_s == 2
        assert next(bases) is inv[2]

    def test_certified_only_at_degree_3(self):
        # the saturated weight kernel needs the exponent differences of
        # degree-3 invariant monomials: degree 2 does not certify it
        g = TorusAction(((1, 0, 1, 1), (0, 1, 1, -1)))
        a = compute_commutant(g)
        z = a.center
        inv = tuple(invariants_up_to_degree(g, 3))
        assert not g.certified(2) and g.certified(3)
        for d, label in [(2, "degree-bounded"), (3, "certified")]:
            assert strata.kernel_s_at_degrees(g, z, (d,), inv[:d])[0].exactness == label
            # compute answers s = Lie(T) by the floor theorem at either degree
            got = kernel_s(g, z, d, classify_ml(z).l)
            assert got == KernelResult(lie_floor(g, z), "certified", d)

    def test_no_invariant_derived_once_kernel_is_zero(self, monkeypatch):
        # C3 on R^2 to degree 3: the radius and the first cubic invariant
        # already kill Z(A) = C, so the second cubic is never derived
        g = cat.c3_rotation()
        a = compute_commutant(g)
        inv = tuple(invariants_up_to_degree(g, 3))
        assert len(all_polys(inv)) == 3 and a.center.dim == 2
        calls = []

        def counted(d, f):
            calls.append(f)
            return derivation_action(d, f)

        monkeypatch.setattr(strata, "derivation_action", counted)
        res = strata.kernel_s_at_degrees(g, a.center, (3,), inv)[0]
        assert res.dim_s == 0
        assert calls == [f for f in all_polys(inv)[:2] for _ in range(2)]

    def test_torus_certification_needs_saturation(self):
        g = TorusAction(((1, 1),))
        a = compute_commutant(g)
        z = a.center
        for d, label in [(1, "degree-bounded"), (2, "certified")]:
            assert one_degree_kernel(g, z, d).exactness == label
            assert kernel_s(g, z, d, classify_ml(z).l).exactness == "certified"

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: in_rational_basis(cat.s3_standard()), id="s3-rational-basis"),
        pytest.param(lambda: TorusAction(((1, 0, 1, 1), (0, 1, 1, -1))), id="torus-2"),
        pytest.param(cat.su2_on_c2, id="su2-on-c2"),
    ])
    def test_no_rational_formed(self, make, monkeypatch):
        # the invariants are the engine's integer rows or the torus's integer
        # terms, and their derivations along the center's integer rows are
        # integers: even generators with denominators form no rational.  The
        # elimination is read on verify's route, which every kind takes
        g = make()
        z = compute_commutant(g).center
        d = g.default_degree_bound
        want = one_degree_kernel(g, z, d)
        made = counting_rationals(monkeypatch, (exactlin, commutant, symmetry))
        assert one_degree_kernel(g, z, d) == want
        assert made == []


# (action, degree d) whose kernels at d and d + 1 are read in one pass
ONE_PASS_CASES = [
    pytest.param(cat.c3_rotation, 3, id="c3-zero-at-3"),
    pytest.param(cat.d4_on_r2, 8, id="d4-zero-at-2"),
    pytest.param(cat.s3_standard_plus_sign, 6, id="s3-standard-plus-sign"),
    pytest.param(cat.c2_sign, 1, id="c2-sign-degree-1"),
    pytest.param(lambda: TorusAction(((1, 2),)), 2, id="circle-1-2"),
    pytest.param(lambda: TorusAction(((1, 0, 1, 1), (0, 1, 1, -1))), 2, id="torus-2"),
    pytest.param(cat.su2_on_c2, 2, id="su2-on-c2"),
    pytest.param(cat.su3_on_c3_plus_wedge2, 1, id="su3-on-r12-degree-1"),
    pytest.param(cat.su3_on_c3_plus_wedge2, 2, id="su3-on-r12"),
]


class TestKernelsAtDegrees:
    @pytest.mark.parametrize("make, d", ONE_PASS_CASES)
    def test_equal_two_independent_one_degree_calls(self, make, d):
        g = make()
        z = compute_commutant(g).center
        invariants = invariants_up_to_degree(g, d + 1)
        got = strata.kernel_s_at_degrees(g, z, (d, d + 1), invariants)
        assert got == [one_degree_kernel(g, z, d), one_degree_kernel(g, z, d + 1)]
        if not g.kernel_is_floor:
            # a connected group's compute route is that one-degree elimination
            l = classify_ml(z).l
            assert got == [kernel_s(g, z, d, l), kernel_s(g, z, d + 1, l)]

    @pytest.mark.parametrize("make, d", ONE_PASS_CASES)
    def test_each_invariant_derived_once_per_central_element(self, make, d, monkeypatch):
        # one pass to d + 1 derives what kernel_s at d + 1 alone derives; a
        # call derives an integer multiple of an invariant, counted as a call
        # for that source invariant
        g = make()
        z = compute_commutant(g).center
        inv = tuple(invariants_up_to_degree(g, d + 1))
        source = {ray(f): i for i, f in enumerate(all_polys(inv))}
        calls = []

        def counted(dm, f):
            assert all(type(c) is int for c in f.values())
            calls.append(source[ray(f)])
            return derivation_action(dm, f)

        monkeypatch.setattr(strata, "derivation_action", counted)
        strata.kernel_s_at_degrees(g, z, (d, d + 1), iter(inv))
        one_pass = list(calls)
        calls.clear()
        strata.kernel_s_at_degrees(g, z, (d + 1,), inv)[0]
        assert one_pass == calls
        assert set(Counter(one_pass).values()) <= {z.dim}

    def test_no_degree_read_past_a_zero_kernel(self):
        # D4 on R^2: the kernel is zero at degree 2, so degrees 3..9 stay unread
        g = cat.d4_on_r2()
        z = compute_commutant(g).center
        inv = tuple(invariants_up_to_degree(g, 9))
        bases = iter(inv)
        ker8, ker9 = strata.kernel_s_at_degrees(g, z, (8, 9), bases)
        assert (ker8.dim_s, ker9.dim_s) == (0, 0)
        assert next(bases) is inv[2]

    def test_invariants_must_reach_the_last_degree(self):
        g = TorusAction(((1, 2),))
        z = compute_commutant(g).center
        inv = tuple(invariants_up_to_degree(g, 2))
        with pytest.raises(ValueError, match="invariants go up to degree 2, not 3"):
            strata.kernel_s_at_degrees(g, z, (2, 3), inv)


def assert_stops_at_floor_as_if_reading_every_degree(g, d):
    """kernel_s_at_degrees at 1..d + 1 equals the kernels read from every
    invariant with no stop, and each contains L, which a certified one
    equals for a `kernel_is_floor` action.  kernel_s at d is that reading
    for a connected group, and L, certified, for the others."""
    z = compute_commutant(g).center
    degrees = range(1, d + 2)
    want = [kernel_reading_every_degree(g, z, e) for e in degrees]
    assert strata.kernel_s_at_degrees(g, z, degrees, invariants_up_to_degree(g, d + 1)) == want
    floor = lie_floor(g, z)
    for ker in want:
        assert ker.s_basis.contains_subspace(floor)
        assert floor.dim <= ker.dim_s
        if g.kernel_is_floor and ker.exactness == "certified":
            assert ker.s_basis == floor
    if g.kernel_is_floor:
        assert kernel_s(g, z, d, classify_ml(z).l) == KernelResult(floor, "certified", d)
    else:
        assert kernel_s(g, z, d, classify_ml(z).l) == want[d - 1]


QUOTIENT_ORBITS = [
    pytest.param(model.slice_action, model.degree, id=ident)
    for ident, model in _workload_orbits((1009, 4242, 5)) if model.quotient_requested
]
CONNECTED_ACTIONS = [cat.su2_on_c2, cat.su3_on_c3_plus_wedge2, su3_on_c3]
# the finite and torus quotient orbits, whose certified kernel is the floor
FLOOR_ORBITS = [
    pytest.param(model.slice_action, id=ident)
    for ident, model in _workload_orbits()
    if model.quotient_requested and model.slice_action.kernel_is_floor
]


def assert_floor_by_intersection(g):
    """The floor read as the span of the Lie generators is Z(A) meet Lie(K)
    by intersection, with Z(A) read off the bracket table, as verify reads
    it, and lies in Z(A)."""
    z = dataclasses.replace(commutant.commutant_kernel(g), generators=()).center
    floor = strata._floor(g)
    assert floor == lie_floor(g, z)
    assert z.contains_subspace(floor)


class TestKernelFloor:
    """The kernel stops at its floor L = Z(A) meet Lie(K), and labels at the
    degree it was read to, with the kernels and labels of reading every
    degree."""

    @pytest.mark.parametrize("g, d", QUOTIENT_ORBITS)
    def test_workload_quotient_orbits(self, g, d):
        assert_stops_at_floor_as_if_reading_every_degree(g, d)

    @pytest.mark.parametrize("make", CONNECTED_ACTIONS, ids=lambda make: make.__name__)
    def test_catalog_connected_actions(self, make):
        assert_stops_at_floor_as_if_reading_every_degree(make(), 2)

    @given(torus_actions, st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_generated_tori(self, g, d):
        assert_stops_at_floor_as_if_reading_every_degree(g, d)

    @pytest.mark.parametrize("g", FLOOR_ORBITS)
    def test_workload_floor_equals_the_intersection(self, g):
        assert_floor_by_intersection(g)

    @given(torus_actions)
    @settings(max_examples=40, deadline=None)
    def test_generated_torus_floor_equals_the_intersection(self, g):
        assert_floor_by_intersection(g)

    def test_floor_reached_reads_no_further_degree(self):
        # the weight-(1) circle: |z|^2 at degree 2 leaves L = R J, so a bound
        # of 200 reads two degrees and is certified at the second
        g = TorusAction(((1,),))
        z = compute_commutant(g).center
        inv = invariants_up_to_degree(g, 200)
        res = strata.kernel_s_at_degrees(g, z, (200,), inv)[0]
        assert (res.dim_s, res.exactness) == (1, "certified")
        assert res.s_basis == lie_floor(g, z)
        assert sorted(g._pairs) == [1, 2]


FINITE_CATALOG = [
    cat.c2_sign, cat.c2_minus_identity, cat.c3_rotation, cat.c4_rotation, cat.c2_x_c2,
    cat.d4_on_r2, cat.s3_standard, cat.s3_standard_plus_sign, cat.q8_on_r4,
    cat.s3_regular_minus_trivial,
]
TORUS_1_3 = ((1, 3),)  # certified at 4, where z1^3 zbar2 first appears
TORUS_ON_C4 = ((1, 0, 1, 1), (0, 1, 1, -1))  # certified at 3


@pytest.fixture
def eliminated(monkeypatch):
    """What the kernel builds: the degrees whose monomials the invariant
    builders ask for, the invariant streams opened and the derivations
    taken."""
    seen = {"monomials": [], "streams": 0, "derivations": 0}
    monomials, stream, derive = (
        symmetry.monomials_of_degree, strata.invariants_up_to_degree, strata.derivation_action)

    def recorded_monomials(nvars, degree):
        seen["monomials"].append(degree)
        return monomials(nvars, degree)

    def recorded_stream(g, degree):
        seen["streams"] += 1
        return stream(g, degree)

    def recorded_derivation(d, f):
        seen["derivations"] += 1
        return derive(d, f)

    monkeypatch.setattr(symmetry, "monomials_of_degree", recorded_monomials)
    monkeypatch.setattr(strata, "invariants_up_to_degree", recorded_stream)
    monkeypatch.setattr(strata, "derivation_action", recorded_derivation)
    return seen


class TestCertifiedFloor:
    """A finite group or a torus has the kernel L = Z(A) meet Lie(K) at every
    degree bound, read off with no invariant: at a certifying degree it is
    the kernel and label of reading every invariant, and nothing is built,
    derived or eliminated at any bound.  Below the certifying degree only
    verify's route, `kernel_s_at_degrees`, eliminates.  The workloads'
    quotient orbits are checked against the same oracle in
    `TestKernelFloor`."""

    @pytest.mark.parametrize("make", FINITE_CATALOG, ids=lambda make: make.__name__)
    def test_catalog_finite_actions_build_nothing(self, make, eliminated):
        g = make()
        z = compute_commutant(g).center
        eliminated["monomials"].clear()
        assert g.kernel_is_floor and not g.certified(g.order - 1) and g.certified(g.order)
        degrees = (1, g.order, 2 * g.order)
        got = [kernel_s(g, z, d, classify_ml(z).l) for d in degrees]
        assert eliminated == {"monomials": [], "streams": 0, "derivations": 0}
        assert [(k.dim_s, k.exactness) for k in got] == [(0, "certified")] * 3
        want = kernel_reading_every_degree(g, z, g.order)
        if g.dim < 5:  # S3 on R^5 read in full to degree 12 takes 26 s
            assert got[2] == kernel_reading_every_degree(g, z, 2 * g.order)
        # certified at |G|: the true kernel, so that of every degree
        assert got == [dataclasses.replace(want, degree=d) for d in degrees]

    @pytest.mark.parametrize("weights, certifying", [(TORUS_1_3, 4), (TORUS_ON_C4, 3)])
    def test_tori_build_no_invariant(self, weights, certifying, eliminated):
        g = TorusAction(weights)
        z = compute_commutant(g).center
        degrees = (1, certifying, 40)
        got = [kernel_s(g, z, d, classify_ml(z).l) for d in degrees]
        assert (eliminated["streams"], eliminated["derivations"]) == (0, 0)
        assert not g._pairs  # no degree's pairs are walked
        assert g.kernel_is_floor and not g.certified(certifying - 1) and g.certified(certifying)
        assert sorted(g._pairs) == list(range(1, certifying + 1))
        want = kernel_reading_every_degree(g, z, certifying)
        assert want.exactness == "certified" and want.s_basis == lie_floor(g, z)
        if len(g.weights[0]) == 2:
            assert got[2] == kernel_reading_every_degree(g, z, 40)
        # degree 40 in 8 variables is past the monomial cap, but the kernel
        # certified at the certifying degree is the true one, so that of every
        # degree
        assert got == [dataclasses.replace(want, degree=d) for d in degrees]

    @pytest.mark.parametrize("make, d", [
        pytest.param(lambda: TorusAction(TORUS_ON_C4), 2, id="torus-on-c4-at-2"),
        pytest.param(cat.d4_on_r2, 1, id="d4-at-1"),
    ])
    def test_uncertified_degrees_eliminate_on_verifys_route_only(self, make, d, eliminated):
        g = make()
        z = compute_commutant(g).center
        eliminated["monomials"].clear()
        floor = lie_floor(g, z)
        assert kernel_s(g, z, d, classify_ml(z).l) == KernelResult(floor, "certified", d)
        assert eliminated == {"monomials": [], "streams": 0, "derivations": 0}
        got = one_degree_kernel(g, z, d)
        # D4 has no invariant of degree 1 to derive, but builds that degree
        assert eliminated["streams"] == 1 and eliminated["monomials"]
        assert got == kernel_reading_every_degree(g, z, d)
        assert got.exactness == "degree-bounded" and got.dim_s > floor.dim

    def test_su3_on_c3_kernel_exceeds_its_floor(self):
        # why ConnectedLieAction.kernel_is_floor is False: SU(3) is
        # transitive on each sphere of C^3, so J = iI, central and not in
        # su(3), is tangent to every orbit and kills |z|^2, the one
        # invariant of degree 2
        g = su3_on_c3()
        z = compute_commutant(g).center
        got = kernel_s(g, z, 2, classify_ml(z).l)
        assert not g.kernel_is_floor and not g.certified(40)
        assert (got.dim_s, lie_floor(g, z).dim) == (1, 0)
        assert got == kernel_reading_every_degree(g, z, 2)

    @pytest.mark.parametrize("make, monomials", [
        pytest.param(lambda: TorusAction(((1, 1),)), 10, id="circle-1-1"),
        pytest.param(cat.su2_on_c2, 10, id="su2-on-c2"),
        pytest.param(su3_on_c3, 21, id="su3-on-c3"),
    ])
    def test_only_a_degree_that_is_built_meets_the_cap(self, make, monomials, monkeypatch):
        # degree 2 has 10 monomials in 4 variables and 21 in 6.  Under a cap
        # of 9 the elimination refuses it on its own terms.  Compute answers
        # the weight-(1, 1) circle's s = Lie(T) by the floor theorem, walking
        # no pair, and su(2) on C^2's s = L = 0 by the floor rule (l = 0),
        # and refuses su(3) on C^3 (dim L = 0 < l = 1), whose invariants it
        # reads
        g = make()
        z = compute_commutant(g).center
        l = classify_ml(z).l
        monkeypatch.setattr(strata, "DEFAULT_MONOMIAL_CAP", 9)
        refused = "%d monomials in degree 2 exceeds cap 9" % monomials
        floor = lie_floor(g, z)
        if g.kernel_is_floor:
            assert kernel_s(g, z, 2, l) == KernelResult(floor, "certified", 2)
            assert not g._pairs
        elif l == 0:
            assert kernel_s(g, z, 2, l) == KernelResult(floor, "degree-bounded", 2)
        else:
            with pytest.raises(DegreeBoundTooLarge, match=refused):
                kernel_s(g, z, 2, l)
        with pytest.raises(DegreeBoundTooLarge, match=refused):
            one_degree_kernel(g, z, 2)


# every finite and torus quotient orbit of the workloads at seeds 1009 and
# 4242, and the actions of the `certified-floor` digest set at bounds 1, 2
# and 40
FLOOR_MODELS = [
    pytest.param(model, id=ident)
    for ident, model in _workload_orbits()
    if model.quotient_requested and model.slice_action.kernel_is_floor
] + [
    pytest.param(
        pipeline.OrbitModel(name, make(), quotient_requested=True, degree_bound=bound),
        id="%s-at-%d" % (name, bound))
    for name, make in (("d4", cat.d4_on_r2), ("s3-std-sign", cat.s3_standard_plus_sign),
                       ("circle-1-3", lambda: TorusAction(TORUS_1_3)),
                       ("torus-on-c4", lambda: TorusAction(TORUS_ON_C4)))
    for bound in (1, 2, 40)
]


@pytest.mark.parametrize("model", FLOOR_MODELS)
def test_compute_reads_no_invariant_of_a_floor_action(model, monkeypatch):
    # compute answers a finite group's or a torus's s by the floor theorem:
    # it builds no invariant, walks no torus pair and forms no weight
    # lattice, at any degree bound
    called = []

    def recorded(owner, name):
        def call(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, call)

    for cls in (FiniteMatrixAction, TorusAction, ConnectedLieAction):
        recorded(cls, "invariant_terms")
    recorded(TorusAction, "pairs_of_degree")
    recorded(symmetry, "lattice_contains")
    recorded(symmetry, "integer_kernel_saturated")
    q = pipeline.run_orbit(model).quotient
    assert called == []
    assert (q.k, q.exactness) == (strata._floor(model.slice_action).dim, "certified")


# ---------------------------------------------------------------------------
# the ceiling: at degree >= 2 a connected group's kernel lies between L and
# the B-skew part of Z(A), of dimension l, so where dim L = l it is L.  The
# floor rule reads it so where l = 0


J_ON_C2 = cat.realify_complex(QMatrix.zeros(2, 2), QMatrix.identity(2))  # i on C^2


def block_diagonal(*blocks: QMatrix) -> QMatrix:
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[at + i][at:at + b.rows] = row
        at += b.rows
    return QMatrix.from_rows(rows)


def su2_on_c2_plus_c2() -> ConnectedLieAction:
    """su(2) on C^2 + C^2, as the benchmark's su2-on-c2+c2: A = M_2(H), so
    (m, l) = (1, 0)."""
    return ConnectedLieAction(8, tuple(
        block_diagonal(a, a) for a in cat.su2_on_c2().lie_generators))


def u2_on_c2() -> ConnectedLieAction:
    """su(2) and i on C^2: A = C = Z(A), which is Lie(K)'s center, so
    (m, l) = (1, 1) and dim L = 1."""
    return ConnectedLieAction(4, cat.su2_on_c2().lie_generators + (J_ON_C2,))


def circle_on_one_summand() -> ConnectedLieAction:
    """su(2) on C^2 + C^2 and i on the first summand alone: A = C + H, so
    (m, l) = (2, 1), and L is spanned by i on the first summand."""
    su2 = su2_on_c2_plus_c2()
    circle = block_diagonal(J_ON_C2, QMatrix.zeros(4, 4))
    return ConnectedLieAction(8, su2.lie_generators + (circle,))


# (action, (m, l)) with dim L = l: the kernel is L at degree >= 2, read by the
# floor rule where l = 0 and by the elimination where l = 1
CEILING_ACTIONS = [
    pytest.param(cat.su2_on_c2, (1, 0), id="su2-on-c2"),
    pytest.param(su2_on_c2_plus_c2, (1, 0), id="su2-on-c2+c2"),
    pytest.param(u2_on_c2, (1, 1), id="u2-on-c2"),
    pytest.param(circle_on_one_summand, (2, 1), id="circle-on-one-summand"),
    pytest.param(lambda: in_rational_basis(u2_on_c2()), (1, 1), id="u2-rational-basis"),
]
# connected actions with l = 1 and L = 0, whose kernel compute still reads
# from the invariants
ELIMINATED_ACTIONS = [
    pytest.param(su3_on_c3, id="su3-on-c3"),
    pytest.param(cat.su3_on_c3_plus_wedge2, id="su3-on-c3+wedge2"),
]


class TestFloorRule:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("make, ml", CEILING_ACTIONS)
    def test_kernel_is_the_floor_where_dim_l_is_l(self, make, ml, d, eliminated):
        g = make()
        z = compute_commutant(g).center
        m, l = ml
        assert (classify_ml(z).m, classify_ml(z).l) == ml and m >= 1
        floor = lie_floor(g, z)
        assert floor.dim == l and not g.kernel_is_floor
        eliminated["monomials"].clear()
        got = kernel_s(g, z, d, l)
        # only l = 0 skips the invariants
        assert (eliminated["streams"] == 0) == (l == 0)
        label = "certified" if g.certified(d) else "degree-bounded"
        assert got == KernelResult(floor, label, d)
        # the kernel of every invariant of degree <= d, and verify's reading
        assert got == kernel_reading_every_degree(g, z, d)
        assert got == one_degree_kernel(g, z, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("make", ELIMINATED_ACTIONS)
    def test_kernel_above_the_floor_reads_the_invariants(self, make, d, eliminated):
        g = make()
        z = compute_commutant(g).center
        l = classify_ml(z).l
        assert (l, lie_floor(g, z).dim) == (1, 0)
        got = kernel_s(g, z, d, l)
        assert eliminated["streams"] == 1 and eliminated["derivations"]
        assert got == kernel_reading_every_degree(g, z, d)
        assert got.dim_s == 1

    @pytest.mark.parametrize("make, ml", CEILING_ACTIONS)
    def test_degree_1_eliminates_and_is_too_low(self, make, ml, eliminated):
        # degree 1 holds no quadratic, so no ceiling: the kernel is read,
        # and it is all of Z(A) (V^H = 0), with k = m + l > l
        g = make()
        z = compute_commutant(g).center
        got = kernel_s(g, z, 1, ml[1])
        assert eliminated["streams"] == 1
        assert got == kernel_reading_every_degree(g, z, 1)
        assert got.s_basis == z
        with pytest.raises(DegreeBoundTooLow, match="degree bound 1 is too low"):
            quotient_abelianization(got, classify_ml(z))


def su2_on_c2_plus_c2_orbit() -> pipeline.OrbitModel:
    """The benchmark's su2-on-c2+c2 orbit at seed 1009, as compute reads it."""
    return next(model for ident, model in _workload_orbits((1009,))
                if ident.startswith("continuous-quotient") and model.label == "su2-on-c2+c2")


@pytest.mark.parametrize("make", [
    pytest.param(su2_on_c2_plus_c2_orbit, id="workload-su2-on-c2+c2"),
    pytest.param(lambda: pipeline.OrbitModel("su2", cat.su2_on_c2(), quotient_requested=True,
                                             degree_bound=3), id="su2-on-c2-at-3"),
])
def test_compute_reads_no_invariant_where_the_floor_rule_fires(make, monkeypatch):
    # compute answers s = L = 0 with no invariant stream opened; verify still
    # eliminates, and prints the kernel-monotonicity line it printed before
    # the rule
    model = make()

    def refused(g, degree):
        raise AssertionError("compute read the invariants")

    with monkeypatch.context() as patched:
        patched.setattr(strata, "invariants_up_to_degree", refused)
        q = pipeline.run_orbit(model).quotient
    g = model.slice_action
    assert (q.k, q.exactness) == (0, "degree-bounded")
    assert lie_floor(g, compute_commutant(g).center).dim == 0
    items = [i for i in pipeline.verify_models([model]).items if i.check == "kernel-monotonicity"]
    d = model.degree
    assert items == [pipeline.VerificationItem(
        model.label, "kernel-monotonicity", True,
        "dim at %d: %d, at %d: %d" % (d, q.k, d + 1, q.k))]


class TestQuotient:
    def test_diagonal_circle_quotient(self):
        # weights (1, 1) on C^2: quotient side is R^1 with k = 1
        g = TorusAction(((1, 1),))
        a = compute_commutant(g)
        ml = classify_ml(a.center)
        z = a.center
        res = kernel_s(g, z, 2, classify_ml(z).l)
        q = quotient_abelianization(res, ml)
        assert (q.real_rank, q.complex_rank, q.k) == (1, 0, 1)
        assert q.dim == 1

    def test_degree_bounded_kernel_above_l_means_the_bound_is_too_low(self):
        g = TorusAction(((1, 1),))
        a = compute_commutant(g)
        res = one_degree_kernel(g, a.center, 1)
        assert (res.exactness, res.dim_s) == ("degree-bounded", 2)
        with pytest.raises(DegreeBoundTooLow, match=r"degree bound 1 .* k = 2 > l = 1"):
            quotient_abelianization(res, classify_ml(a.center))

    def test_certified_kernel_above_l_is_an_inconsistency(self):
        g = TorusAction(((1, 1),))
        a = compute_commutant(g)
        res = dataclasses.replace(one_degree_kernel(g, a.center, 1), exactness="certified")
        with pytest.raises(AssertionError, match="inconsistent dimensions"):
            quotient_abelianization(res, classify_ml(a.center))

    def test_finite_group_quotient_keeps_complex_type(self):
        g = cat.c3_rotation()
        a = compute_commutant(g)
        ml = classify_ml(a.center)
        z = a.center
        res = kernel_s(g, z, 3, classify_ml(z).l)
        q = quotient_abelianization(res, ml)
        assert (q.real_rank, q.complex_rank, q.k) == (0, 1, 0)


# ---------------------------------------------------------------------------
# the integer invariant operators against Fraction ones, with denominators:
# the operators and the derivation as they were written on Fractions, kept
# here as the oracle


def fraction_accumulate(out, e, x):
    v = out.get(e, Fraction(0)) + x
    if v:
        out[e] = v
    else:
        del out[e]


def fraction_derive(d, m, c, out):
    """Add c * D(x^m) to out, in Fractions from the entries of D."""
    for j, p in enumerate(m):
        for i, x in enumerate(d.entries[j]):
            if p and x:
                e = list(m)
                e[j] -= 1
                e[i] += 1
                fraction_accumulate(out, tuple(e), c * p * x)


def fraction_difference_operator(a):
    """f -> f(ax) - f(x) in Fractions, degree by degree."""
    n = a.rows
    unit = (0,) * n
    substituted = {unit: {unit: Fraction(1)}}

    def images(monoms):
        nonlocal substituted
        nxt, out = {}, {}
        for m in monoms:
            i = next(k for k, p in enumerate(m) if p)
            lower = list(m)
            lower[i] -= 1
            prod = {}
            for e, c in substituted[tuple(lower)].items():
                for j, x in enumerate(a.entries[i]):
                    if x:
                        up = list(e)
                        up[j] += 1
                        fraction_accumulate(prod, tuple(up), c * x)
            nxt[m] = prod
            out[m] = diff = dict(prod)
            fraction_accumulate(diff, m, Fraction(-1))
        substituted = nxt
        return out

    return images


def fraction_derivation_operator(xi):
    def images(monoms):
        out = {}
        for m in monoms:
            out[m] = img = {}
            fraction_derive(xi, m, Fraction(1), img)
        return out

    return images


def fraction_derivation_action(d, f):
    out = {}
    for m, c in f.terms.items():
        fraction_derive(d, m, c, out)
    return Poly(f.nvars, out)


def fraction_invariants(g, operator, generators, degree):
    """Per degree, the common kernel of the Fraction images, by `nullspace`
    of the stacked dense matrix (row: monomial of an image; column: monomial)."""
    operators = [operator(a) for a in generators]
    for d in range(1, degree + 1):
        monoms = monomials_of_degree(g.dim, d)
        index = {m: i for i, m in enumerate(monoms)}
        rows = []
        for images in (op(monoms) for op in operators):
            block = [[0] * len(monoms) for _ in monoms]
            for col, m in enumerate(monoms):
                for e, x in images[m].items():
                    block[index[e]][col] = x
            rows += block
        ker = nullspace(QMatrix.from_rows(rows)) if rows else Subspace.full(len(monoms))
        yield [{m: x for m, x in zip(monoms, v) if x} for v in ker.basis]


def fraction_kernel_s(g, z, invariants):
    """The central elements whose Fraction derivation kills every invariant."""
    n = g.dim
    mats = [QMatrix.from_rows(v[i:i + n] for i in range(0, n * n, n)) for v in z.basis]
    rows = []
    for terms in invariants:
        images = [fraction_derivation_action(dm, Poly(n, terms)).terms for dm in mats]
        for e in sorted(set().union(*images)):
            rows.append([img.get(e, 0) for img in images])
    coords = nullspace(QMatrix.from_rows(rows)) if rows else Subspace.full(len(mats))
    vecs = [[sum((c * v[i] for c, v in zip(coef, z.basis)), Fraction(0)) for i in range(n * n)]
            for coef in coords.basis]
    return Subspace.from_vectors(n * n, vecs)


def conjugated(g, p, p_inv):
    """The action with generators p a p^-1: the same group in another basis."""
    if isinstance(g, FiniteMatrixAction):
        return FiniteMatrixAction(g.dim, tuple(p @ a @ p_inv for a in g.generators))
    return ConnectedLieAction(g.dim, tuple(p @ a @ p_inv for a in g.action_generators()))


# (action, highest degree compared); the circle acts through its generator
OPERATOR_CASES = [
    (cat.c3_rotation, 4), (cat.c4_rotation, 4), (cat.d4_on_r2, 3), (cat.s3_standard, 4),
    (cat.s3_standard_plus_sign, 3), (cat.c2_x_c2, 4), (cat.su2_on_c2, 2),
    (lambda: ConnectedLieAction(4, TorusAction(((1, 2),)).action_generators()), 3),
]
basis_scales = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2, 3)])
shears = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 4)])


@st.composite
def basis_changes(draw, n):
    """(p, p^-1) for p = l diag(s): l unit lower triangular with l[1][0] != 0,
    s_0 = 1 and the other scales no units, so that conjugates carry
    denominators."""
    scales = [Fraction(1)] + [draw(basis_scales) for _ in range(n - 1)]
    rows = [[draw(shears) if j < i else Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    rows[1][0] = draw(shears.filter(bool))
    p = QMatrix.from_rows([[x * scales[j] for j, x in enumerate(row)] for row in rows])
    inverse = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in p.entries]).inv()
    p_inv = QMatrix.from_rows([[str(inverse[i, j]) for j in range(n)] for i in range(n)])
    return p, p_inv


class TestIntegerOperatorsMatchFractionOracle:
    @pytest.mark.parametrize("make, degree", OPERATOR_CASES,
                             ids=[str(i) for i in range(len(OPERATOR_CASES))])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_invariants_and_kernel_under_a_rational_basis_change(self, make, degree, data):
        base = make()
        p, p_inv = data.draw(basis_changes(base.dim))
        g = conjugated(base, p, p_inv)
        generators = g.action_generators()
        assume(any(a.den > 1 for a in generators))
        finite = isinstance(g, FiniteMatrixAction)
        integer_op = symmetry._difference_operator if finite else symmetry._derivation_operator
        fraction_op = fraction_difference_operator if finite else fraction_derivation_operator

        # each integer image is the Fraction one times den^d for a difference,
        # den for a derivation; an operator first called at the last degree
        # catches up on the degrees below
        for a in generators:
            den = a.den
            ints, fracs = integer_op(a), fraction_op(a)
            lists = []
            for d in range(1, degree + 1):
                monoms = monomials_of_degree(g.dim, d)
                lists.append(monoms)
                scale_d = den**d if finite else den
                got, want = ints(lists), fracs(monoms)
                assert all(type(x) is int for img in got.values() for x in img.values())
                assert got == {m: {e: scale_d * x for e, x in img.items()}
                               for m, img in want.items()}
            assert integer_op(a)(lists) == got

        # the same invariant bases, each invariant the canonical one made
        # primitive (its pivot coefficient is 1, so it stays positive), and
        # the same kernel s at every degree
        inv = tuple(invariants_up_to_degree(g, degree))
        oracle = list(fraction_invariants(g, fraction_op, generators, degree))
        assert all(type(c) is int for f in all_polys(inv) for c in f.values())
        assert [list(basis) for basis in inv] == [list(map(primitive, b)) for b in oracle]
        z = compute_commutant(g).center
        for d in range(1, degree + 1):
            flat = [terms for basis in oracle[:d] for terms in basis]
            (got,) = strata.kernel_s_at_degrees(g, z, (d,), inv[:d])
            assert got.s_basis == fraction_kernel_s(g, z, flat)

        # a rational D on an integer f: den(D) times the exact derivative
        for dm in generators:
            for f in all_polys(inv):
                want = scale(fraction_derivation_action(dm, Poly(g.dim, f)), dm.den)
                assert Poly(g.dim, derivation_action(dm, f)) == want
