"""The commutant and invariants each action kind gives from less than every
generator, checked against every generator: a torus's commutant read off its
weight columns, and a connected group's commutant and invariants from a
subset of its generators that generates its Lie algebra.  Also the check
that a connected group's center is a torus."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivab import catalog as cat
from equivab import cli, exactlin, pipeline, symmetry
from equivab import io as eio
from equivab.commutant import commutant_kernel, compute_commutant
from equivab.exactlin import QMatrix, Subspace, bracket_vec, lie_generating_subset
from equivab.strata import invariants_up_to_degree
from equivab.symmetry import ConnectedLieAction, TorusAction
from exact_oracles import (
    commutant_of_every_generator,
    invariants_of_every_generator,
    lie_closure,
    minus,
    vec,
)
from test_center_routes import _workloads


def bracket_table(gens) -> dict:
    """bracket_vec of every pair of generators i < j, as a connected action
    forms them for its closure check."""
    return {(i, j): bracket_vec(gens[i], gens[j])
            for i in range(len(gens)) for j in range(i + 1, len(gens))}


def su3_on_c3() -> ConnectedLieAction:
    return ConnectedLieAction(6, tuple(
        cat.realify_complex(re, im) for re, im in cat._su_n_basis(3)))


def scaled(a: QMatrix, c: Fraction) -> QMatrix:
    return QMatrix.from_rows([[c * x for x in row] for row in a.entries])


def redundant(make, how: str) -> ConnectedLieAction:
    """The action of `make` with one redundant generator added: a repeat of
    the second, -2/3 times the first, or the bracket of the first two put
    first."""
    g = make()
    gens = g.lie_generators
    a, b = gens[:2]
    if how == "repeated":
        gens = gens + (b,)
    elif how == "rescaled":
        gens = (a, scaled(a, Fraction(-2, 3))) + gens[1:]
    else:
        gens = (minus(a @ b, b @ a),) + gens
    return ConnectedLieAction(g.dim, gens)


CONNECTED = [
    pytest.param(cat.su2_on_c2, id="su2-on-c2"),
    pytest.param(su3_on_c3, id="su3-on-c3"),
    pytest.param(cat.su3_on_c3_plus_wedge2, id="su3-on-r12"),
] + [
    pytest.param(lambda make=make, how=how: redundant(make, how), id="%s-%s" % (name, how))
    for name, make in (("su2", cat.su2_on_c2), ("su3", su3_on_c3))
    for how in ("repeated", "rescaled", "bracket")
]


# ---------------------------------------------------------------------------
# a torus's commutant from its weight columns

weights = st.integers(-3, 3)


@st.composite
def weight_matrices(draw):
    """k = 1..3 weight rows whose columns repeat, negate, vanish or are
    drawn at random."""
    k = draw(st.integers(1, 3))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["random", "repeat", "negate", "zero"]))
        if how == "zero":
            columns.append((0,) * k)
        elif how == "random" or not columns:
            columns.append(tuple(draw(weights) for _ in range(k)))
        else:
            c = draw(st.sampled_from(columns))
            columns.append(c if how == "repeat" else tuple(-x for x in c))
    return tuple(zip(*columns))


@given(w=weight_matrices())
@settings(max_examples=60, deadline=None)
def test_torus_span_is_the_commutator_kernel(w):
    t = TorusAction(w)
    assert t.commutant_span() == commutant_of_every_generator(t)


@pytest.mark.parametrize("w, dim", [
    (((1, 1),), 8), (((1, -1),), 8), (((1, 2),), 4), (((0, 0),), 16),
    (((1, 0), (0, 1)), 4), (((1, 1), (2, -2)), 4), (((0, 1),), 6),
])
def test_torus_commutant_dimensions(w, dim):
    # M_2(C) for equal or opposite columns, C x C for unrelated ones, M_4(R)
    # for the trivial action, and M_2(R) x C for one zero column
    assert TorusAction(w).commutant_span().dim == dim


def test_torus_commutant_forms_no_commutator_row(monkeypatch):
    calls = []
    rows = symmetry.commutator_rows

    def counted(a):
        calls.append(a)
        return rows(a)

    monkeypatch.setattr(symmetry, "commutator_rows", counted)
    t = TorusAction(((1, 0, 1, 1), (0, 1, 1, -1)))
    a = compute_commutant(t)
    assert commutant_kernel(t).span == a.span
    assert calls == []
    assert a.span == commutant_of_every_generator(t)


# ---------------------------------------------------------------------------
# a connected group's Lie-generating subset


@pytest.mark.parametrize("make", CONNECTED)
def test_subset_generates_the_whole_span(make):
    g = make()
    subset = g.lie_generating
    assert all(any(s is a for a in g.lie_generators) for s in subset)
    # the span of all the generators is closed under the bracket
    span = Subspace.from_vectors(g.dim ** 2, [vec(a) for a in g.lie_generators])
    assert lie_closure(list(subset)) == span
    kept = lie_generating_subset(g.lie_generators, span.dim, bracket_table(g.lie_generators))
    assert subset == tuple(g.lie_generators[i] for i in kept)


@pytest.mark.parametrize("make, kept", [
    (cat.su2_on_c2, 2), (su3_on_c3, 3), (cat.su3_on_c3_plus_wedge2, 3),
    (lambda: redundant(cat.su2_on_c2, "bracket"), 2),
])
def test_subset_sizes(make, kept):
    # su(2) and su(3) are each generated by two elements; of su(3)'s basis,
    # the first two generate an su(2) and the third completes it
    assert len(make().lie_generating) == kept


def test_subset_keeps_a_generator_only_outside_the_earlier_closure():
    j = QMatrix.from_rows([[0, -1], [1, 0]])
    gens = [j, scaled(j, Fraction(3)), j]
    assert lie_generating_subset(gens, 1, bracket_table(gens)) == [0]
    assert lie_generating_subset([], 0, {}) == []
    assert lie_generating_subset([QMatrix.zeros(2, 2)], 0, {}) == []


def test_subset_reads_the_generator_brackets_off_the_table(monkeypatch):
    # the closure check formed every [g_i, g_j]: the subset forms only
    # brackets with a nested bracket in them, none of two generators
    g = su3_on_c3()
    gens = g.lie_generators
    table = bracket_table(gens)
    formed = []

    def counted(x, y):
        formed.append((x, y))
        return bracket_vec(x, y)

    monkeypatch.setattr(exactlin, "bracket_vec", counted)
    kept = lie_generating_subset(gens, g.lie_dim, table)
    assert [gens[i] for i in kept] == list(g.lie_generating)
    assert formed and not any(
        any(x is a for a in gens) and any(y is a for a in gens) for x, y in formed)


@pytest.mark.parametrize("make", CONNECTED)
def test_connected_commutant_matches_every_generator(make):
    g = make()
    assert g.commutant_span() == commutant_of_every_generator(g)
    assert compute_commutant(g).span == commutant_of_every_generator(g)


@pytest.mark.parametrize("make", CONNECTED)
def test_connected_invariants_match_every_generator(make):
    g = make()
    assert tuple(invariants_up_to_degree(g, 3)) == invariants_of_every_generator(g, 3)


def test_connected_orbit_forms_rows_and_operators_for_its_subset_only(monkeypatch):
    rows, operators = [], []
    commutator_rows, operator = symmetry.commutator_rows, symmetry._derivation_operator

    def counted_rows(a):
        rows.append(a)
        return commutator_rows(a)

    def counted_operator(a):
        operators.append(a)
        return operator(a)

    monkeypatch.setattr(symmetry, "commutator_rows", counted_rows)
    monkeypatch.setattr(symmetry, "_derivation_operator", counted_operator)
    g = su3_on_c3()
    model = pipeline.OrbitModel(label="su3", slice_action=g, quotient_requested=True)
    for run in (pipeline.run_pipeline, pipeline.verify_models):
        rows.clear()
        operators.clear()
        run([model])
        assert len(g.lie_generating) == 3
        assert rows == list(g.lie_generating)
        assert operators == list(g.lie_generating)


# ---------------------------------------------------------------------------
# a connected group's center is a torus

Z = [[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -3], [0, 0, 3, 0]]
JORDAN = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]


@pytest.mark.parametrize("m, reason", [
    (Z, "[18, -18, 11, -2, 1], low to high, neither even nor odd"),
    (JORDAN, "[1, 0, 2, 0, 1], low to high, not squarefree"),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], None),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]], None),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], None),
], ids=["z", "jordan", "circle-1-1", "circle-1-2", "circle-1-0"])
def test_center_must_generate_a_torus(m, reason):
    # each trace form is negative definite; z has eigenvalues 1 +- i and
    # +-3i, and [[J, I], [0, J]] is not semisimple
    a = QMatrix.from_rows(m)
    if reason is None:
        ConnectedLieAction(4, (a,))
        return
    with pytest.raises(ValueError, match=re.escape(reason) + ": the group is not compact"):
        ConnectedLieAction(4, (a,))


@pytest.mark.parametrize("m", [
    [[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[1, 0], [0, 2]],
], ids=["t2-1", "t3-t", "t2-3t+2"])
def test_center_off_the_imaginary_axis_rejected(m):
    # t^2 - 1 and t^3 - t are even or odd and squarefree, but q = s - 1 has
    # its root at s = 1 > 0; t^2 - 3t + 2 is neither
    with pytest.raises(ValueError, match="off the imaginary axis|neither even nor odd"):
        symmetry._check_torus_element(QMatrix.from_rows(m), 0)


def test_su_n_forms_no_minimal_polynomial(monkeypatch):
    # su(n) has a zero center
    calls = []
    monkeypatch.setattr(symmetry, "minimal_polynomial", lambda m: calls.append(m))
    for make in (cat.su2_on_c2, su3_on_c3, cat.su3_on_c3_plus_wedge2):
        make()
    assert calls == []


@pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
@pytest.mark.parametrize("m, reason", [
    (Z, "neither even nor odd"), (JORDAN, "not squarefree"),
], ids=["z", "jordan"])
def test_non_compact_center_exits_2(tmp_path, capsys, m, reason, mode):
    doc = {"orbits": [{"label": "z", "quotient": True, "slice_action": {
        "kind": "connected_lie", "dim": 4, "generators": [m]}}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert cli.main([str(path)] + mode) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: orbits[0].slice_action: basis element 0 "
                                   "of the center of the span")
    assert reason + ": the group is not compact" in captured.err
    assert captured.out == ""


def test_every_workload_document_accepted():
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in (1009, 4242, 5):
            for doc, _ in workloads.generate(name, seed):
                eio.parse_input(doc, {})
