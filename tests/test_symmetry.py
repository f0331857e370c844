"""Tests for group action descriptors and their linear invariance constraints."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from exact_oracles import is_zero, minus, mul_vec, plus, scale, vec
from hypothesis import strategies as st
from test_center_routes import _workload_actions, signed_permutation_actions
from test_commutant import FINITE_CASES, FINITE_GROUPS, c2_power_7

from equivab import catalog as cat
from equivab import exactlin, symmetry
from equivab.exactlin import QMatrix, Subspace, kernel
from equivab.symmetry import (
    ConnectedLieAction,
    FiniteMatrixAction,
    GroupNotFiniteError,
    TorusAction,
    commutator_rows,
    enumerate_group,
    fixed_vectors,
    invariance_constraints,
)


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Oracle: Kronecker product; with row-major vec, vec(A X B) = (A kron B^T) vec X."""
    return QMatrix.from_rows(
        [a.entries[i][j] * b.entries[k][l] for j in range(a.cols) for l in range(b.cols)]
        for i in range(a.rows)
        for k in range(b.rows)
    )


def dense(rows, ncols: int) -> QMatrix:
    """The matrix whose rows are the sparse rows {col: value}."""
    return QMatrix.from_rows([row.get(c, 0) for c in range(ncols)] for row in rows)


small_squares = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, "1/3", "-5/2"]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(QMatrix.from_rows)
)


def dense_key_enumeration(g: FiniteMatrixAction) -> list[QMatrix]:
    """Reference: the breadth-first closure keyed by the dense entries."""
    ident = QMatrix.identity(g.dim)
    seen = {ident.entries: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in g.generators:
                prod = el @ gen
                if prod.entries not in seen:
                    seen[prod.entries] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def assert_enumerates_the_group(g: FiniteMatrixAction) -> None:
    """enumerate_group(g) lists I first and then the other elements of the
    reference closure, each once."""
    elements = enumerate_group(g)
    reference = dense_key_enumeration(g)
    assert elements[0] == QMatrix.identity(g.dim)
    assert len(set(elements)) == len(elements) == len(reference)
    assert set(elements) == set(reference)


WORKLOAD_FINITE_ACTIONS = [
    p for p in _workload_actions() if isinstance(p.values[0], FiniteMatrixAction)
]


class TestEnumeration:
    @pytest.mark.parametrize("make", FINITE_GROUPS)
    def test_matches_dense_key_reference(self, make):
        # the same elements as the breadth-first closure, in coset order
        assert_enumerates_the_group(make())

    @pytest.mark.parametrize("g", WORKLOAD_FINITE_ACTIONS)
    def test_matches_the_reference_on_the_workload_orbits(self, g):
        assert_enumerates_the_group(g)

    @settings(max_examples=60, deadline=None)
    @given(signed_permutation_actions())
    def test_matches_the_reference_on_generated_groups(self, g):
        assert_enumerates_the_group(g)

    @pytest.mark.parametrize("make", FINITE_GROUPS)
    def test_closed_under_the_generators(self, make):
        g = make()
        elements = set(enumerate_group(g))
        assert all(el @ gen in elements for el in elements for gen in g.generators)

    def test_redundant_generator_changes_nothing(self):
        # Q8 from i and j, with k = ij given too: a generator already in the
        # group so far is skipped, so a last one leaves even the order as it is
        i, j = cat.q8_on_r4().generators
        elements = enumerate_group(FiniteMatrixAction(4, (i, j)))
        assert enumerate_group(FiniteMatrixAction(4, (i, j, i @ j))) == elements
        assert set(enumerate_group(FiniteMatrixAction(4, (i @ j, i, j)))) == set(elements)

    def test_each_element_is_formed_once(self, monkeypatch):
        # the breadth-first closure multiplies each of the 128 sign changes by
        # each of the 7 generators, 897 products with the identity's own;
        # cosets form each element at most once, plus one product per
        # representative and generator
        calls = 0

        def counted(*args, _f=exactlin.product_vec):
            nonlocal calls
            calls += 1
            return _f(*args)

        monkeypatch.setattr(symmetry, "product_vec", counted)
        monkeypatch.setattr(exactlin, "product_vec", counted)
        assert len(enumerate_group(c2_power_7())) == 128
        assert calls < 200

    def test_key_does_not_depend_on_the_factorization(self):
        # the dihedral group of order 12 from the swap and [[-1, 0], [1, 1]]:
        # [[1, 1], [0, -1]] is reached by the swap, whose product lists the
        # nonzeros of its first row out of column order, and by the other
        # generator, whose product lists them in order
        g = FiniteMatrixAction(2, (QMatrix.from_rows([[0, 1], [1, 0]]),
                                   QMatrix.from_rows([[-1, 0], [1, 1]])))
        assert_enumerates_the_group(g)
        assert len(enumerate_group(g)) == 12

    @pytest.mark.parametrize("make", FINITE_GROUPS)
    def test_conjugated_group_enumerates_the_conjugates(self, make):
        # in a rational basis that is not unimodular, products reach one
        # element with different denominators: its key must not depend on them
        g = make()
        n = g.dim
        # [[1, 1/2], [0, 2]] on the first two coordinates, or [2] on R
        block, block_inv = ([[1, "1/2"], [0, 2]], [[1, "-1/4"], [0, "1/2"]]) if n > 1 \
            else ([[2]], [["1/2"]])
        p, p_inv = (QMatrix.from_rows([[b[i][j] if max(i, j) < len(b) else int(i == j)
                                        for j in range(n)] for i in range(n)])
                    for b in (block, block_inv))
        assert p @ p_inv == QMatrix.identity(n)
        conj = FiniteMatrixAction(n, tuple(p @ a @ p_inv for a in g.generators))
        assert enumerate_group(conj) == [p @ el @ p_inv for el in enumerate_group(g)]

    def test_cap_error_message(self):
        g = dataclasses.replace(cat.q8_on_r4(), cap=5)
        with pytest.raises(GroupNotFiniteError) as err:
            enumerate_group(g)
        assert str(err.value) == "group not finite under cap 5"

    @pytest.mark.parametrize(
        "action, order",
        [
            (cat.c2_sign(), 2),
            (cat.c3_rotation(), 3),
            (cat.c4_rotation(), 4),
            (cat.c2_x_c2(), 4),
            (cat.d4_on_r2(), 8),
            (cat.s3_standard(), 6),
            (cat.q8_on_r4(), 8),
            (cat.s3_regular_minus_trivial(), 6),
        ],
    )
    def test_group_orders(self, action, order):
        assert len(enumerate_group(action)) == order

    @pytest.mark.parametrize("make", [case[0] for case in FINITE_CASES],
                             ids=[case[0].__name__ for case in FINITE_CASES])
    def test_order_matches_enumeration(self, make):
        g = make()
        assert g.order == len(enumerate_group(g))

    def test_order_is_not_shared_with_a_copy(self):
        g = cat.q8_on_r4()
        assert g.order == 8
        with pytest.raises(GroupNotFiniteError):
            dataclasses.replace(g, cap=2).order

    def test_closure_under_product(self):
        elems = enumerate_group(cat.s3_standard())
        entries = {e.entries for e in elems}
        for a in elems:
            for b in elems:
                assert (a @ b).entries in entries

    def test_infinite_group_raises(self):
        # the infinite dihedral group: two reflections whose product is the
        # shear [[1, 1], [0, 1]], of trace 2 but not I, so of infinite order
        pair = FiniteMatrixAction(
            2, (QMatrix.from_rows([[-1, 1], [0, 1]]), QMatrix.from_rows([[-1, 0], [0, 1]])),
            cap=50,
        )
        with pytest.raises(GroupNotFiniteError) as err:
            enumerate_group(pair)
        assert str(err.value) == (
            "group not finite: an element has infinite order: its trace is 2 but it is not I"
        )

    def test_infinite_order_product_raises(self):
        # two reflections whose product is the rotation [[3/5, 4/5], [-4/5, 3/5]]:
        # its trace 6/5 is no integer, so the product has infinite order
        refl = QMatrix.from_rows([[1, 0], [0, -1]])
        skew = QMatrix.from_rows([["3/5", "4/5"], ["4/5", "-3/5"]])
        with pytest.raises(GroupNotFiniteError) as err:
            enumerate_group(FiniteMatrixAction(2, (refl, skew)))
        assert "trace 6/5 is not an integer in [-2, 2]" in str(err.value)

    @pytest.mark.parametrize("rows", [
        [[2, 0], [0, "1/2"]], [[0, -1], [1, 3]], [[1, 1], [0, 1]], [[-1, 0], [1, -1]],
    ])
    def test_generator_failing_trace_test_rejected(self, rows):
        with pytest.raises(ValueError, match="generators\\[0\\] has infinite order"):
            FiniteMatrixAction(2, (QMatrix.from_rows(rows),))

    def test_non_invertible_generator_rejected(self):
        with pytest.raises(ValueError):
            FiniteMatrixAction(2, (QMatrix.from_rows([[1, 0], [0, 0]]),))


class TestKroneckerConventions:
    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=2, max_size=2),
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=2, max_size=2),
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_vec_of_sandwich(self, a, x, b):
        a, x, b = (QMatrix.from_rows(m) for m in (a, x, b))
        lhs = vec(a @ x @ b)
        rhs = mul_vec(kron(a, b.transpose()), vec(x))
        assert lhs == tuple(rhs)

    def test_commutator_operator(self):
        xi = QMatrix.from_rows([[0, 1], [2, 0]])
        x = QMatrix.from_rows([[1, 2], [3, 4]])
        expected = vec(minus(xi @ x, x @ xi))
        assert tuple(mul_vec(dense(commutator_rows(xi), 4), vec(x))) == expected

    @given(small_squares)
    @settings(max_examples=60, deadline=None)
    def test_commutator_operator_matches_kron(self, a):
        # the rows are nonzero integers: the nonzero rows, in order, of the
        # operator times the lcm of a's denominators
        ident = QMatrix.identity(a.rows)
        n = a.rows
        expected = scale(minus(kron(a, ident), kron(ident, a.transpose())), a.den)
        rows = commutator_rows(a)
        assert all(type(x) is int and x for row in rows for x in row.values())
        nonzero = [row for row in expected.entries if any(row)]
        assert [dense([row], n * n).entries[0] for row in rows] == nonzero


class TestFixedVectors:
    def test_rotation_has_no_fixed_vectors(self):
        assert fixed_vectors(cat.c3_rotation()).dim == 0

    def test_reflection_has_fixed_line(self):
        refl = FiniteMatrixAction(2, (QMatrix.from_rows([[1, 0], [0, -1]]),))
        fixed = fixed_vectors(refl)
        assert fixed.dim == 1
        assert fixed.contains_subspace(Subspace.from_vectors(2, [[1, 0]]))

    def test_trivial_group_fixes_everything(self):
        triv = FiniteMatrixAction(3, ())
        assert fixed_vectors(triv).dim == 3

    def test_torus_fixed_vectors(self):
        # weight (1, 0): second block is fixed
        t = TorusAction(((1, 0),))
        fixed = fixed_vectors(t)
        assert fixed.dim == 2
        assert fixed.contains_subspace(Subspace.from_vectors(4, [[0, 0, 1, 0]]))
        assert fixed.contains_subspace(Subspace.from_vectors(4, [[0, 0, 0, 1]]))

    def test_faithful_torus_no_fixed_vectors(self):
        assert fixed_vectors(TorusAction(((1, 2),))).dim == 0

    def test_su2_no_fixed_vectors(self):
        assert fixed_vectors(cat.su2_on_c2()).dim == 0


def rotation_blocks(*weights):
    """Block diagonal of the 2 x 2 blocks w * [[0, -1], [1, 0]]."""
    n = 2 * len(weights)
    rows = [[0] * n for _ in range(n)]
    for j, w in enumerate(weights):
        rows[2 * j][2 * j + 1], rows[2 * j + 1][2 * j] = -w, w
    return rows


SU2_ON_C2 = [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
]

# (action, its generators, its fixed-vector operators, default degree bound,
# first certified degree or None)
PER_KIND = [
    (cat.c3_rotation, [[[0, -1], [1, -1]]], [[[-1, -1], [1, -2]]], 3, 3),
    (lambda: TorusAction(((1,),)), [rotation_blocks(1)], [rotation_blocks(1)], 2, 2),
    (lambda: TorusAction(((1, 2),)), [rotation_blocks(1, 2)], [rotation_blocks(1, 2)], 2, 3),
    (lambda: TorusAction(((1, 0, 1, 1), (0, 1, 1, -1))),
     [rotation_blocks(1, 0, 1, 1), rotation_blocks(0, 1, 1, -1)],
     [rotation_blocks(1, 0, 1, 1), rotation_blocks(0, 1, 1, -1)], 2, 3),
    (cat.su2_on_c2, SU2_ON_C2, SU2_ON_C2, 2, None),
]
PER_KIND_IDS = ["c3-rotation", "circle-1", "circle-1-2", "torus-2", "su2-on-c2"]


class TestInvarianceConstraints:
    @pytest.mark.parametrize(
        "make, generators, fixed, bound, first_certified", PER_KIND, ids=PER_KIND_IDS
    )
    def test_action_generators_per_kind(self, make, generators, fixed, bound, first_certified):
        g = make()
        assert g.action_generators() == [QMatrix.from_rows(m) for m in generators]
        assert g.fixed_operators() == [QMatrix.from_rows(m) for m in fixed]
        assert g.default_degree_bound == bound
        for d in range(1, 6):
            expected = first_certified is not None and d >= first_certified
            assert g.certified(d) == expected, d

    def test_finite_constraints_cut_out_commutant(self):
        g = cat.c4_rotation()
        sol = kernel(4, invariance_constraints(g.generators))
        # commutant of a rotation is C acting on R^2: dimension 2
        assert sol.dim == 2
        for v in sol.basis:
            x = QMatrix.from_rows([v[:2], v[2:]])
            for gen in g.generators:
                assert is_zero(minus(gen @ x, x @ gen))

    def test_torus_constraints_match_finite_subgroup(self):
        # commutant of the weight-(1,) circle equals commutant of rotation by
        # 90 degrees inside it
        t = TorusAction(((1,),))
        circle = t.commutant_span()
        quarter = kernel(4, invariance_constraints(cat.c4_rotation().generators))
        assert circle == quarter


class TestTorusAction:
    def test_generator_shape_and_skewness(self):
        t = TorusAction(((1, -2), (0, 3)))
        gens = t.action_generators()
        assert len(gens) == 2
        for g in gens:
            assert is_zero(plus(g, g.transpose()))

    def test_rotation_direction(self):
        # weight 1 on one block: generator sends x -> y, y -> -x columns;
        # e_x image is +e_y (counterclockwise)
        t = TorusAction(((1,),))
        (j,) = t.action_generators()
        assert mul_vec(j, [1, 0]) == (0, 1)
        assert mul_vec(j, [0, 1]) == (-1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusAction(())
        with pytest.raises(ValueError):
            TorusAction(((1, 2), (3,)))


class TestConnectedLieAction:
    def test_closure_check_rejects_open_family(self):
        # e and f alone do not close: [e, f] = h is outside the span
        e = QMatrix.from_rows([[0, 1], [0, 0]])
        f = QMatrix.from_rows([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            ConnectedLieAction(2, (e, f))

    def test_compact_triple_accepted(self):
        # su(2) on C^2 = R^4: closed under the bracket, negative definite
        gens = cat.su2_on_c2().lie_generators
        act = ConnectedLieAction(4, gens)
        assert act.dim == 4 and len(act.lie_generators) == 3

    @pytest.mark.parametrize("gens, signs", [
        ([[[1, 0], [0, -1]]], "(1, 0, 0), not (0, 1, 0)"),
        ([[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], "(2, 1, 0), not (0, 3, 0)"),
        ([[[0, 1], [0, 0]]], "(0, 0, 1), not (0, 1, 0)"),
    ], ids=["diagonal", "sl2-triple", "nilpotent"])
    def test_non_compact_rejected(self, gens, signs):
        # a compact group's Lie algebra has a negative definite trace form
        with pytest.raises(ValueError, match=re.escape(signs)):
            ConnectedLieAction(2, tuple(QMatrix.from_rows(g) for g in gens))

    def test_su3_generators_close(self):
        act = cat.su3_on_c3_plus_wedge2()
        assert len(act.lie_generators) == 8

