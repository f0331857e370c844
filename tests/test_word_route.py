"""Compute reads a connected group's dim A and Z(A) off W, the algebra its
Lie-generating generators generate with I (`ConnectedLieAction.
commutant_center`), when 1 + dim k <= n and W has at most n words:
Z(A) = Z(W) and dim A = c^T G^-1 c, with c_a = tr_V(z_a) and
G_ab = tr_W(L_(z_a z_b)) on a basis of Z(W).  Each answer is checked here
against the commutant kernel and the table route, which verify reads: on
the catalog's and the workload's connected actions, the `lie-redundant`
inputs, sums of su(2) and u(2) modules in several bases, and the zero Lie
algebra.  The formula is checked past the rule too, on every word of W.
Compute forms no commutator row or commutant kernel where the route
answers and no word where the rule refuses it, and verify never takes
the route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_center_routes import (
    _workload_orbits,
    algebra_words,
    past_the_rule,
    su3_on_c3,
    table_record,
)
from test_class_sums import DIGEST
from test_commutant import in_rational_basis

from equivab import catalog as cat
from equivab import commutant as comm
from equivab import exactlin, pipeline, symmetry
from equivab import io as eio
from equivab.exactlin import QMatrix, Subspace
from equivab.symmetry import ConnectedLieAction


def kernel_answer(g: ConnectedLieAction) -> tuple[int, Subspace]:
    """(dim A, Z(A)) by the commutant kernel and its bracket table."""
    return comm.compute_commutant(g).dim, comm.center(table_record(g))


def assert_word_route_agrees(g: ConnectedLieAction):
    """The formula on every word of W gives the kernel's answer, and compute's
    read is that answer under the rule and None past it; returns the read."""
    want = kernel_answer(g)
    got = symmetry._word_commutant_center(g.dim, algebra_words(g), g.lie_generating)
    assert got == want
    read = g.commutant_center()
    assert (read is None) == past_the_rule(g)
    assert read in (None, want)
    return read


CATALOG_CONNECTED = [cat.su2_on_c2, cat.su3_on_c3_plus_wedge2, su3_on_c3]


@pytest.mark.parametrize("make", CATALOG_CONNECTED, ids=lambda make: make.__name__)
def test_word_route_agrees_on_the_catalog(make):
    assert_word_route_agrees(make())
    assert_word_route_agrees(in_rational_basis(make()))


WORKLOAD_CONNECTED = [
    pytest.param(model, id=ident) for ident, model in _workload_orbits()
    if isinstance(model.slice_action, ConnectedLieAction)
]


@pytest.mark.parametrize("model", WORKLOAD_CONNECTED)
def test_word_route_agrees_on_the_workload_orbits(model):
    assert_word_route_agrees(model.slice_action)


def test_a_workload_orbit_on_each_side_of_the_rule():
    # su2-on-c2+c2 takes the route (dim k = 3, n = 8, W = H), su3-on-c3
    # keeps the kernel (1 + 8 > 6)
    sides = {
        model.label: model.slice_action.commutant_center() is not None
        for model in (p.values[0] for p in WORKLOAD_CONNECTED)
    }
    assert sides == {"su2-on-c2+c2": True, "su3-on-c3": False}


def _lie_redundant_actions():
    for doc in DIGEST._lie_redundant_documents():
        for model in eio.parse_input(doc, {}):
            yield pytest.param(model.slice_action, id=model.label)


@pytest.mark.parametrize("g", list(_lie_redundant_actions()))
def test_word_route_agrees_on_redundant_generators(g):
    read = assert_word_route_agrees(g)
    # the su(2) inputs span su(2) on C^2 whatever the redundancy
    assert (read is not None) == (g.dim == 4)


# dim A, m and l of each action of the digest script's `connected-words` set
CONNECTED_WORDS = {
    "su2-on-c2+r3": (5, 2, 0),
    "su2-on-2c2+r3": (17, 2, 0),
    "su2-on-c2+2r3": (8, 2, 0),
    "su2-on-3c2+r3": (37, 2, 0),
    "u2-on-c2+r3": (3, 2, 1),
    "u2-on-2c2+r3+c2": (17, 3, 2),
    "u2-on-2c2+c2": (16, 2, 2),
    "su3-on-c3+wedge2": (8, 1, 1),
}
ACTIONS = DIGEST._connected_words_actions()


def in_digest_basis(g: ConnectedLieAction) -> ConnectedLieAction:
    p, p_inv = DIGEST._basis_change(g.dim)
    return ConnectedLieAction(g.dim, tuple(p @ a @ p_inv for a in g.lie_generators))


def test_every_connected_words_action_is_listed():
    assert list(ACTIONS) == list(CONNECTED_WORDS)


@pytest.mark.parametrize("label", list(CONNECTED_WORDS))
def test_word_route_agrees_on_sums_of_modules(label):
    g = ACTIONS[label]
    for h in (g, in_rational_basis(g), in_digest_basis(g)):
        assert_word_route_agrees(h)
        dim, z = kernel_answer(h)
        ml = comm.classify_ml(z)
        assert (dim, ml.m, ml.l) == CONNECTED_WORDS[label]


def test_the_rule_answers_two_sums_of_modules():
    # W has 13 words for su(2) on C^2 and R^3, 17 and 19 for u(2) with R^3
    # and 18 for su(3): only su(2) on 3C^2 + R^3 (n = 15) and u(2) on
    # 2C^2 + C^2 (10 words, n = 12) stay within n words
    answered = {label for label, g in ACTIONS.items() if g.commutant_center() is not None}
    assert answered == {"su2-on-3c2+r3", "u2-on-2c2+c2"}


@st.composite
def rational_bases(draw, n: int):
    """(P, P^-1) for P = D E_1 .. E_s: D diagonal with entries in {1, 2, 1/3},
    each E = I + c e_ij a shear with i != j and c in {-2, -1/2, 1/2, 1, 3}."""
    def matrix(entries):
        return QMatrix.from_rows(
            [[entries.get((r, k), int(r == k)) for k in range(n)] for r in range(n)])

    p, p_inv = QMatrix.identity(n), QMatrix.identity(n)
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from((-2, Fraction(-1, 2), Fraction(1, 2), 1, 3)))
        p, p_inv = p @ matrix({(i, j): c}), matrix({(i, j): -c}) @ p_inv
    scale = draw(st.lists(st.sampled_from((1, 2, Fraction(1, 3))), min_size=n, max_size=n))
    d = matrix({(r, r): x for r, x in enumerate(scale)})
    d_inv = matrix({(r, r): 1 / Fraction(x) for r, x in enumerate(scale)})
    return d @ p, p_inv @ d_inv


@pytest.mark.parametrize("label", list(CONNECTED_WORDS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_word_route_agrees_in_random_rational_bases(label, data):
    g = ACTIONS[label]
    p, p_inv = data.draw(rational_bases(g.dim))
    assert p @ p_inv == QMatrix.identity(g.dim)
    h = ConnectedLieAction(g.dim, tuple(p @ a @ p_inv for a in g.lie_generators))
    assert (assert_word_route_agrees(h) is None) == (assert_word_route_agrees(g) is None)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_zero_lie_algebra_has_all_of_end_v(n):
    # W = span{I}: A = End(V), Z(A) = span{I}
    g = ConnectedLieAction(n, ())
    assert assert_word_route_agrees(g) == (
        n * n, Subspace._span(n * n, [QMatrix.identity(n).int_vec()]))


# ---------------------------------------------------------------------------
# what compute forms, and what verify reads


def _orbit(seed: int, label: str) -> pipeline.OrbitModel:
    (model,) = [model for ident, model in _workload_orbits((seed,))
                if ident == "continuous-quotient-%d-%s" % (seed, label)]
    return model


def _refused(*args, **kwargs):
    raise AssertionError("a refused route was taken")


@pytest.mark.parametrize("seed", [1009, 4242])
def test_su2_on_c2_plus_c2_forms_no_commutant_kernel(seed, monkeypatch):
    # M_2(H): dim 16, (m, l) = (1, 0)
    model = _orbit(seed, "su2-on-c2+c2")
    monkeypatch.setattr(comm, "commutant_kernel", _refused)
    monkeypatch.setattr(symmetry, "invariance_constraints", _refused)
    result = pipeline.run_orbit(model)
    assert (result.commutant_dim, result.m, result.l, result.derived_dim) == (16, 1, 0, 15)


@pytest.mark.parametrize("seed", [1009, 4242])
def test_su3_on_c3_forms_no_word(seed, monkeypatch):
    model = _orbit(seed, "su3-on-c3")
    calls = []

    def counted(g, _f=comm.compute_commutant):
        calls.append(g)
        return _f(g)

    for module in (comm, exactlin, symmetry):
        monkeypatch.setattr(module, "word_basis", _refused)
    monkeypatch.setattr(comm, "compute_commutant", counted)
    result = pipeline.run_orbit(model)
    assert (result.commutant_dim, result.m, result.l) == (2, 1, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("model", WORKLOAD_CONNECTED)
def test_verify_never_takes_the_word_route(model, monkeypatch):
    monkeypatch.setattr(ConnectedLieAction, "commutant_center", _refused)
    report = pipeline.verify_models([model])
    assert report.passed
    assert {"center-splits", "center-dim-arithmetic"} <= {item.check for item in report.items}
