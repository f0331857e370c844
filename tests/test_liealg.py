"""Tests for structure-constant Lie algebras, isotropy fixed points, and
quotient abelianizations."""

from fractions import Fraction

import pytest

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
        cols.append(g.bracket(x, ej))
    return QMatrix.from_rows(list(zip(*cols)))


def _killing_form(g: LieAlgebraSC) -> QMatrix:
    """K(e_i, e_j) = tr(ad e_i ad e_j), from the ad matrices."""
    ads = [ad(g, [1 if k == i else 0 for k in range(g.dim)]) for i in range(g.dim)]

    def trace(m):
        return sum(m.entries[i][i] for i in range(m.rows))

    return QMatrix.from_rows([[trace(a @ b) for b in ads] for a in ads])


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
        assert g.bracket([1, 0, 0], [0, 1, 0]) == (0, 0, 1)
        assert g.bracket([0, 1, 0], [1, 0, 0]) == (0, 0, -1)

    def test_ad_matches_bracket(self):
        g = cat.sl2()
        x = [2, 1, -1]
        ad_x = ad(g, x)
        for j in range(3):
            ej = [0] * 3
            ej[j] = 1
            assert tuple(ad_x.transpose().entries[j]) == g.bracket(x, ej)

    def test_killing_form_so3_negative_definite(self):
        k = _killing_form(cat.so3())
        assert k == QMatrix.identity(3).scale(-2)

    def test_killing_form_sl2_signature(self):
        k = _killing_form(cat.sl2())
        # h-direction: K(h, h) = 8 > 0
        assert k.entries[0][0] == 8

    def test_derived_subspace(self):
        assert cat.so3().derived_subspace().dim == 3
        assert cat.nonabelian_2dim().derived_subspace().dim == 1
        assert LieAlgebraSC.abelian(4).derived_subspace().dim == 0


class TestAbelianization:
    def test_semisimple_has_zero(self):
        assert lie_abelianization(cat.so3())[0] == 0
        assert lie_abelianization(cat.sl2())[0] == 0

    def test_abelian_is_identity(self):
        dim, reps = lie_abelianization(LieAlgebraSC.abelian(3))
        assert dim == 3 and len(reps) == 3

    def test_solvable_2dim(self):
        dim, _ = lie_abelianization(cat.nonabelian_2dim())
        assert dim == 1


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
        assert fixed.contains([0, 0, 1])

    def test_fixed_of_trivial_action_is_everything(self):
        data = IsotropyData(cat.sl2(), Subspace.zero(3))
        assert fixed_subalgebra(data).dim == 3

    def test_derivation_fixed_points(self):
        g = cat.sl2()
        data = IsotropyData(g, Subspace.zero(3), derivations=(ad(g, [1, 0, 0]),))
        fixed = fixed_subalgebra(data)
        # centralizer of h in sl2 is the Cartan line
        assert fixed.dim == 1
        assert fixed.contains([1, 0, 0])

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
    def test_quotient_by_center_of_heisenberg(self):
        # Heisenberg: [e1, e2] = e3
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = 1, -1
        g = LieAlgebraSC.from_constants(3, c)
        full = Subspace.full(3)
        centre = Subspace.from_vectors(3, [[0, 0, 1]])
        q = quotient_lie_algebra(full, centre, g)
        assert q.dim == 2
        assert lie_abelianization(q)[0] == 2

    def test_quotient_by_non_ideal_rejected(self):
        g = cat.sl2()
        full = Subspace.full(3)
        e_line = Subspace.from_vectors(3, [[0, 1, 0]])
        with pytest.raises(NotAnIdealError):
            quotient_lie_algebra(full, e_line, g)

    def test_quotient_by_zero_is_isomorphic(self):
        g = cat.nonabelian_2dim()
        q = quotient_lie_algebra(Subspace.full(2), Subspace.zero(2), g)
        assert q.dim == 2
        assert lie_abelianization(q)[0] == 1

    def test_full_quotient_is_zero(self):
        g = cat.so3()
        q = quotient_lie_algebra(Subspace.full(3), Subspace.full(3), g)
        assert q.dim == 0

    def test_containment_required(self):
        g = cat.so3()
        small = Subspace.from_vectors(3, [[1, 0, 0]])
        big = Subspace.from_vectors(3, [[0, 1, 0]])
        with pytest.raises(ValueError):
            quotient_lie_algebra(big, small, g)
