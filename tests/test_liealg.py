"""Tests for structure-constant Lie algebras, isotropy fixed points, and
quotient abelianizations."""

import random
from fractions import Fraction

import pytest
from exact_oracles import bracket, constants, mul_vec, scale

from equivab import catalog as cat
from equivab.exactlin import QMatrix, Subspace
from equivab.liealg import (
    IsotropyData,
    JacobiError,
    LieAlgebraSC,
    NotAnIdealError,
    fixed_subalgebra,
    is_automorphism,
    is_derivation,
    lie_abelianization,
    quotient_lie_algebra,
)


def ad(g: LieAlgebraSC, x) -> QMatrix:
    """Matrix of ad(x) = [x, -] in the defining basis."""
    n = g.dim
    cols = []
    for j in range(n):
        ej = [Fraction(0)] * n
        ej[j] = Fraction(1)
        cols.append(bracket(g, x, ej))
    return QMatrix.from_rows(list(zip(*cols)))


def _killing_form(g: LieAlgebraSC) -> QMatrix:
    """K(e_i, e_j) = tr(ad e_i ad e_j), from the ad matrices."""
    ads = [ad(g, [1 if k == i else 0 for k in range(g.dim)]) for i in range(g.dim)]

    def trace(m):
        return sum(m.entries[i][i] for i in range(m.rows))

    return QMatrix.from_rows([[trace(a @ b) for b in ads] for a in ads])


# ---------------------------------------------------------------------------
# the Fraction versions of the checks, kept as oracles for the integer ones


def oracle_validate(n: int, c) -> str | None:
    """The message of the first antisymmetry or Jacobi failure of the
    rational constants c, or None."""
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return "antisymmetry fails at (%d, %d, %d)" % (i, j, k)
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
                        return "Jacobi identity fails at (%d, %d, %d)" % (i, j, k)
    return None


def oracle_bracket(g: LieAlgebraSC, x, y) -> tuple[Fraction, ...]:
    c = constants(g)
    out = [Fraction(0)] * g.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k in range(g.dim):
                    out[k] += Fraction(a) * Fraction(b) * c[i][j][k]
    return tuple(out)


def _unit(n: int, i: int) -> list[Fraction]:
    e = [Fraction(0)] * n
    e[i] = Fraction(1)
    return e


def oracle_is_automorphism(g: LieAlgebraSC, a: QMatrix) -> bool:
    n = g.dim
    for i in range(n):
        ei = _unit(n, i)
        ai = mul_vec(a, ei)
        for j in range(n):
            ej = _unit(n, j)
            lhs = mul_vec(a, oracle_bracket(g, ei, ej))
            rhs = oracle_bracket(g, ai, mul_vec(a, ej))
            if lhs != rhs:
                return False
    return True


def oracle_is_derivation(g: LieAlgebraSC, d: QMatrix) -> bool:
    n = g.dim
    for i in range(n):
        ei = _unit(n, i)
        for j in range(n):
            ej = _unit(n, j)
            lhs = mul_vec(d, oracle_bracket(g, ei, ej))
            rhs = tuple(
                a + b
                for a, b in zip(
                    oracle_bracket(g, mul_vec(d, ei), ej), oracle_bracket(g, ei, mul_vec(d, ej))
                )
            )
            if lhs != rhs:
                return False
    return True


def oracle_is_subalgebra(g: LieAlgebraSC, s: Subspace) -> bool:
    for a in s.basis:
        for b in s.basis:
            br = Subspace.from_vectors(g.dim, [oracle_bracket(g, a, b)])
            if not s.contains_subspace(br):
                return False
    return True


def heisenberg() -> list:
    """[e1, e2] = e3."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    return c


def direct_sum(c1, c2) -> list:
    n1, n = len(c1), len(c1) + len(c2)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for off, part in ((0, c1), (n1, c2)):
        for i, plane in enumerate(part):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    c[off + i][off + j][off + k] = Fraction(x)
    return c


def block_diag(a, b) -> list:
    n1, n = len(a), len(a) + len(b)
    out = [[Fraction(0)] * n for _ in range(n)]
    for off, part in ((0, a), (n1, b)):
        for i, row in enumerate(part):
            for j, x in enumerate(row):
                out[off + i][off + j] = Fraction(x)
    return out


# (constants, automorphisms, [(spanning vectors, whether they span a
# subalgebra)]), in the standard basis
SO3_AUTOS = [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
SL2_AUTOS = [[[-1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0], [0, 3, 0], [0, 0, "1/3"]]]
TWO_AUTOS = [[[1, 0], ["1/2", -3]]]
HEIS_AUTOS = [[[1, 2, 0], [0, 3, 0], ["1/2", 0, 3]]]


def _algebras():
    so3 = [[list(r) for r in p] for p in constants(cat.so3())]
    sl2 = [[list(r) for r in p] for p in constants(cat.sl2())]
    two = [[list(r) for r in p] for p in constants(cat.nonabelian_2dim())]
    heis = heisenberg()
    return {
        "so3": (so3, SO3_AUTOS, [([[0, 0, 1]], True), ([[1, 0, 0], [0, 1, 0]], False)]),
        "sl2": (sl2, SL2_AUTOS, [([[1, 0, 0], [0, 1, 0]], True),
                                 ([[0, 1, 0], [0, 0, 1]], False)]),
        "nonabelian-2": (two, TWO_AUTOS, [([[0, 1]], True), ([[1, 0]], True)]),
        "heisenberg": (heis, HEIS_AUTOS, [([[1, 0, 0], [0, 0, 1]], True),
                                          ([[1, 0, 0], [0, 1, 0]], False)]),
        "so3+heisenberg": (
            direct_sum(so3, heis), [block_diag(SO3_AUTOS[0], HEIS_AUTOS[0])],
            [([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]], True),
             ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], False)]),
        "sl2+nonabelian-2": (
            direct_sum(sl2, two), [block_diag(SL2_AUTOS[1], TWO_AUTOS[0])],
            [([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]], True),
             ([[0, 0, 0, 1, 0], [0, 1, 0, 0, 1]], False)]),
    }


ALGEBRAS = _algebras()
RATIONALS = [Fraction(x) for x in (1, -1, 2, -2, 3)] + [
    Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 3)]


def rational_basis(rng: random.Random, n: int):
    """(P, P^-1) for P = E D, E a product of elementary row operations with
    rational factors and D a diagonal of non-unit rationals: the columns of P
    form a basis that is not unimodular."""
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice(RATIONALS)
        # row i += t row j on P; column j -= t column i on P^-1
        p[i] = [a + t * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= t * row[i]
    d = [rng.choice((Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(3))) for _ in range(n)]
    return ([[x * d[j] for j, x in enumerate(row)] for row in p],
            [[x / d[i] for x in row] for i, row in enumerate(p_inv)])


def _mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def _mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def in_basis(c, p, p_inv):
    """The constants c rewritten in the basis of the columns of P."""
    n = len(c)
    cols = [[p[r][i] for r in range(n)] for i in range(n)]

    def bracket(x, y):
        return [sum((x[i] * y[j] * Fraction(c[i][j][k]) for i in range(n) for j in range(n)),
                    Fraction(0)) for k in range(n)]

    return [[_mat_vec(p_inv, bracket(cols[i], cols[j])) for j in range(n)] for i in range(n)]


def perturbed(rng: random.Random, m):
    """A copy of the nested rationals m with one entry moved."""
    out = [list(r) for r in m]
    i, j = rng.randrange(len(out)), rng.randrange(len(out[0]))
    out[i][j] += rng.choice(RATIONALS)
    return out


def _cases():
    return [(name, seed) for name in ALGEBRAS for seed in (1, 2, 3)]


class TestIntegerChecksMatchFractionOracles:
    """The integer checks accept and reject what the Fraction ones did, and
    name the same (i, j, k), in rational bases that are not unimodular."""

    @staticmethod
    def setup_case(name: str, seed: int):
        rng = random.Random("%s/%d" % (name, seed))
        c, autos, subalgebras = ALGEBRAS[name]
        n = len(c)
        p, p_inv = rational_basis(rng, n)
        return rng, n, p, p_inv, in_basis(c, p, p_inv), autos, subalgebras

    @staticmethod
    def integer_validate(n, c) -> str | None:
        try:
            LieAlgebraSC.from_constants(n, c)
        except JacobiError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("name, seed", _cases())
    def test_validate(self, name, seed):
        rng, n, _, _, c, _, _ = self.setup_case(name, seed)
        assert oracle_validate(n, c) is None
        assert self.integer_validate(n, c) is None
        seen = set()
        for _ in range(12):
            bad = [[list(r) for r in plane] for plane in c]
            i, j = rng.randrange(n), rng.randrange(n)
            # one entry, or the whole row (i, j), so that several k fail
            for k in rng.sample(range(n), rng.choice((1, n))):
                t = rng.choice(RATIONALS)
                bad[i][j][k] += t
                if i != j and rng.random() < 0.5:
                    # keep antisymmetry: only the Jacobi identity can fail
                    bad[j][i][k] -= t
            want = oracle_validate(n, bad)
            seen.add(want.split(" fails")[0] if want else None)
            assert self.integer_validate(n, bad) == want
        assert "antisymmetry" in seen

    @pytest.mark.parametrize("name, seed", _cases())
    def test_automorphisms(self, name, seed):
        rng, n, p, p_inv, c, autos, _ = self.setup_case(name, seed)
        g = LieAlgebraSC.from_constants(n, c)
        for a in autos:
            a = [[Fraction(x) for x in row] for row in a]
            moved = _mat_mul(p_inv, _mat_mul(a, p))
            for m in (moved, perturbed(rng, moved), perturbed(rng, moved)):
                qm = QMatrix.from_rows(m)
                assert is_automorphism(g, qm) == oracle_is_automorphism(g, qm)
            assert is_automorphism(g, QMatrix.from_rows(moved))
        double = scale(QMatrix.identity(n), 2)
        assert is_automorphism(g, double) == oracle_is_automorphism(g, double)

    @pytest.mark.parametrize("name, seed", _cases())
    def test_derivations(self, name, seed):
        rng, n, _, _, c, _, _ = self.setup_case(name, seed)
        g = LieAlgebraSC.from_constants(n, c)
        for _ in range(3):
            x = [rng.choice(RATIONALS + [Fraction(0)]) for _ in range(n)]
            d = ad(g, x)
            assert is_derivation(g, d) and oracle_is_derivation(g, d)
            bad = QMatrix.from_rows(perturbed(rng, d.entries))
            assert is_derivation(g, bad) == oracle_is_derivation(g, bad)
        ident = QMatrix.identity(n)
        assert is_derivation(g, ident) == oracle_is_derivation(g, ident)

    @pytest.mark.parametrize("name, seed", _cases())
    def test_subalgebras(self, name, seed):
        rng, n, _, p_inv, c, _, subalgebras = self.setup_case(name, seed)
        g = LieAlgebraSC.from_constants(n, c)
        for vs, closed in subalgebras:
            # the span of P^-1 v is (not) a subalgebra in the new basis
            s = Subspace.from_vectors(n, [_mat_vec(p_inv, [Fraction(x) for x in v]) for v in vs])
            assert g.is_subalgebra(s) == oracle_is_subalgebra(g, s) == closed
        for _ in range(4):
            vs = [[rng.choice(RATIONALS + [Fraction(0)]) for _ in range(n)]
                  for _ in range(rng.choice((1, 2)))]
            s = Subspace.from_vectors(n, vs)
            assert g.is_subalgebra(s) == oracle_is_subalgebra(g, s)

    @pytest.mark.parametrize("name, seed", _cases())
    def test_integer_form(self, name, seed):
        _, n, _, _, c, _, _ = self.setup_case(name, seed)
        g = LieAlgebraSC.from_constants(n, c)
        # the rational read gives back the constants, and equal algebras are
        # equal records
        assert constants(g) == tuple(tuple(tuple(r) for r in plane) for plane in c)
        assert g == LieAlgebraSC.from_planes(n, [QMatrix.from_rows(p) for p in c])
        x, y = c[0][n - 1], c[n - 1][0]
        assert bracket(g, x, y) == oracle_bracket(g, x, y)
        # the complement of 0 in k is the unit rows: the quotient is g itself
        assert quotient_lie_algebra(IsotropyData(g, Subspace.zero(n))) == g


class TestValidation:
    def test_so3_accepted(self):
        assert cat.so3().dim == 3

    def test_antisymmetry_violation(self):
        c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        with pytest.raises(JacobiError, match="antisymmetry"):
            LieAlgebraSC.from_constants(2, c)

    def test_jacobi_violation(self):
        # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 breaks Jacobi
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = 1, -1
        c[1][2][0], c[2][1][0] = 1, -1
        c[2][0][0], c[0][2][0] = 1, -1
        with pytest.raises(JacobiError, match="Jacobi"):
            LieAlgebraSC.from_constants(3, c)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            LieAlgebraSC.from_constants(3, [[[0] * 3] * 3] * 2)


class TestBracketsAndForms:
    def test_so3_bracket(self):
        g = cat.so3()
        assert bracket(g, [1, 0, 0], [0, 1, 0]) == (0, 0, 1)
        assert bracket(g, [0, 1, 0], [1, 0, 0]) == (0, 0, -1)

    def test_ad_matches_bracket(self):
        g = cat.sl2()
        x = [2, 1, -1]
        ad_x = ad(g, x)
        for j in range(3):
            ej = [0] * 3
            ej[j] = 1
            assert tuple(ad_x.transpose().entries[j]) == bracket(g, x, ej)

    def test_killing_form_so3_negative_definite(self):
        k = _killing_form(cat.so3())
        assert k == scale(QMatrix.identity(3), -2)

    def test_killing_form_sl2_signature(self):
        k = _killing_form(cat.sl2())
        # h-direction: K(h, h) = 8 > 0
        assert k.entries[0][0] == 8

    def test_derived_subspace(self):
        assert cat.so3().derived_subspace().dim == 3
        assert cat.nonabelian_2dim().derived_subspace().dim == 1
        assert LieAlgebraSC.from_constants(4, [[[0] * 4] * 4] * 4).derived_subspace().dim == 0


class TestAbelianization:
    def test_semisimple_has_zero(self):
        assert lie_abelianization(cat.so3()) == 0
        assert lie_abelianization(cat.sl2()) == 0

    def test_abelian_is_identity(self):
        assert lie_abelianization(LieAlgebraSC.from_constants(3, [[[0] * 3] * 3] * 3)) == 3

    def test_solvable_2dim(self):
        assert lie_abelianization(cat.nonabelian_2dim()) == 1


class TestAutomorphismsAndDerivations:
    def test_rotation_is_so3_automorphism(self):
        # rotation by 90 degrees about L3 permutes L1 -> L2 -> -L1
        a = QMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert is_automorphism(cat.so3(), a)

    def test_non_automorphism_detected(self):
        a = QMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert not is_automorphism(cat.so3(), a)

    def test_ad_is_derivation(self):
        g = cat.sl2()
        assert is_derivation(g, ad(g, [1, 2, 3]))

    def test_non_derivation_detected(self):
        assert not is_derivation(cat.so3(), QMatrix.identity(3))


class TestIsotropyFixedPoints:
    def test_fixed_subalgebra_of_rotation_action(self):
        g = cat.so3()
        rot = QMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        data = IsotropyData(g, Subspace.zero(3), automorphisms=(rot,))
        fixed = fixed_subalgebra(data)
        assert fixed.dim == 1
        assert fixed.contains_subspace(Subspace.from_vectors(3, [[0, 0, 1]]))

    def test_fixed_of_trivial_action_is_everything(self):
        data = IsotropyData(cat.sl2(), Subspace.zero(3))
        assert fixed_subalgebra(data).dim == 3

    def test_derivation_fixed_points(self):
        g = cat.sl2()
        data = IsotropyData(g, Subspace.zero(3), derivations=(ad(g, [1, 0, 0]),))
        fixed = fixed_subalgebra(data)
        # centralizer of h in sl2 is the Cartan line
        assert fixed.dim == 1
        assert fixed.contains_subspace(Subspace.from_vectors(3, [[1, 0, 0]]))

    def test_subalgebra_membership_validated(self):
        g = cat.so3()
        not_closed = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="not a subalgebra"):
            IsotropyData(g, not_closed)

    def test_fixed_sub_of_h(self):
        g = cat.so3()
        rot = QMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        h = Subspace.from_vectors(3, [[0, 0, 1]])
        data = IsotropyData(g, h, automorphisms=(rot,))
        assert fixed_subalgebra(data).intersection(data.h_basis).dim == 1


class TestQuotients:
    # with no action, k^H = k and h^H = h
    def test_quotient_by_center_of_heisenberg(self):
        # Heisenberg: [e1, e2] = e3
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = 1, -1
        g = LieAlgebraSC.from_constants(3, c)
        centre = Subspace.from_vectors(3, [[0, 0, 1]])
        q = quotient_lie_algebra(IsotropyData(g, centre))
        assert q.dim == 2
        assert lie_abelianization(q) == 2

    def test_quotient_by_non_ideal_rejected(self):
        # the record refuses it: no quotient is asked
        e_line = Subspace.from_vectors(3, [[0, 1, 0]])
        with pytest.raises(NotAnIdealError):
            IsotropyData(cat.sl2(), e_line)

    def test_quotient_by_zero_is_isomorphic(self):
        q = quotient_lie_algebra(IsotropyData(cat.nonabelian_2dim(), Subspace.zero(2)))
        assert q.dim == 2
        assert lie_abelianization(q) == 1

    def test_full_quotient_is_zero(self):
        q = quotient_lie_algebra(IsotropyData(cat.so3(), Subspace.full(3)))
        assert q.dim == 0

    def test_containment_required(self):
        # h^H is read as the meet of k^H with h, so it lies in k^H even
        # where h does not: here k^H is the rotation axis and h another line
        rot = QMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        h = Subspace.from_vectors(3, [[1, 0, 0]])
        data = IsotropyData(cat.so3(), h, automorphisms=(rot,))
        k_fixed, h_fixed = data.fixed
        assert not k_fixed.contains_subspace(h)
        assert k_fixed.contains_subspace(h_fixed)
        assert quotient_lie_algebra(data).dim == 1
