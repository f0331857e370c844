"""Compute reads dim A and Z(A) off the group where its data fix them
(`commutant_center`): a finite group under the rule |G| k <= n^2 gives
Z(A) as the span of its class sums and dim A as its character norm, and a
torus gives both off its weight classes.  Each is checked here against the
commutant kernel and the bracket table, which verify reads; so is the
floor that verify reads off a torus's Lie span.  Compute forms no
commutator row, kernel, word or bracket on these routes, enumerates G at
most once per orbit, and keeps its answer and exit code under any group
cap."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest
from exact_oracles import lie_floor
from hypothesis import given, settings
from hypothesis import strategies as st
from test_center_routes import (
    _workload_orbits,
    classed_tori,
    q8_on_copies_of_r4,
    random_tori,
    signed_permutation_actions,
    table_record,
)
from test_commutant import c2_power_7

from equivab import catalog as cat
from equivab import cli, exactlin, pipeline, strata, symmetry
from equivab import commutant as comm
from equivab.exactlin import QMatrix, Subspace
from equivab.symmetry import FiniteMatrixAction, TorusAction

ROOT = Path(__file__).resolve().parent.parent


def _digest_script():
    """The digest script, loaded from its file for its rational basis change
    and its groups."""
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST = _digest_script()


def in_digest_basis(g: FiniteMatrixAction) -> FiniteMatrixAction:
    """g written in the digest script's basis (`_basis_change`), whose
    determinant is 2^(n // 2): its generators P a P^-1 carry denominators."""
    p, p_inv = DIGEST._basis_change(g.dim)
    return FiniteMatrixAction(g.dim, tuple(p @ a @ p_inv for a in g.generators))


def under_rule(g: FiniteMatrixAction) -> bool:
    return g.order * len(g.generators) <= g.dim ** 2


def assert_class_route_agrees(g: FiniteMatrixAction) -> None:
    """The class sums span the table route's Z(A), and the character norm is
    the dimension of the commutant kernel; `commutant_center` gives both
    exactly under the rule."""
    read = symmetry._class_sum_center(g.dim, g.elements, g.generators)
    assert read == (comm.commutant_kernel(g).dim, comm.center(table_record(g)))
    assert g.commutant_center() == (read if under_rule(g) else None)


# ---------------------------------------------------------------------------
# oracles


@settings(max_examples=40, deadline=None)
@given(signed_permutation_actions(), st.booleans())
def test_class_sums_agree_on_generated_groups(g, rational):
    assert_class_route_agrees(in_digest_basis(g) if rational else g)


NAMED_GROUPS = [
    pytest.param(lambda: DIGEST._hyperoctahedral(3), id="B3"),
    pytest.param(lambda: in_digest_basis(DIGEST._hyperoctahedral(3)), id="B3-rational"),
    pytest.param(lambda: DIGEST._hyperoctahedral(4), id="B4"),
    pytest.param(lambda: in_digest_basis(cat.s3_regular_minus_trivial()), id="S3-regular-rational"),
    pytest.param(c2_power_7, id="C2^7"),
    # |G| k = n^2: C4 on R^2 (4 = 4) and Q8 on R^4 (16 = 16)
    pytest.param(cat.c4_rotation, id="C4-at-the-rule"),
    pytest.param(lambda: in_digest_basis(cat.q8_on_r4()), id="Q8-at-the-rule"),
] + [
    pytest.param(lambda m=m: in_digest_basis(q8_on_copies_of_r4(m)), id="Q8-on-%d-copies" % m)
    for m in (2, 3, 4)
]


@pytest.mark.parametrize("make", NAMED_GROUPS)
def test_class_sums_agree_on_named_groups(make):
    assert_class_route_agrees(make())


def test_the_rule_reads_n_k_and_the_order():
    # at the rule, just past it, and far past it
    assert cat.c4_rotation().commutant_center() is not None
    assert cat.q8_on_r4().commutant_center() is not None
    assert cat.c2_x_c2().commutant_center() is None  # 4 * 2 > 2^2
    assert DIGEST._hyperoctahedral(3).commutant_center() is None  # 48 * 3 > 3^2
    assert c2_power_7().commutant_center() is None  # 128 * 7 > 7^2


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_tori, classed_tori()))
def test_weight_class_count_is_the_commutant_dimension(g):
    # sum of 2 r^2 over the nonzero classes and 4 z^2 for the zero columns
    dim, z = g.commutant_center()
    assert dim == sum((2 if any(c) else 4) * len(members) ** 2
                      for c, members in g.weight_classes)
    assert (dim, z) == (g.commutant_span().dim, comm.center(table_record(g)))


# ---------------------------------------------------------------------------
# verify's floor of a torus is the dimension of its Lie span


WORKLOAD_TORI = [
    pytest.param(model.slice_action, id=ident)
    for ident, model in _workload_orbits() if isinstance(model.slice_action, TorusAction)
]


def assert_floor_is_the_lie_span(g: TorusAction) -> None:
    z = comm.center(table_record(g))
    assert strata._floor(g).dim == lie_floor(g, z).dim


@pytest.mark.parametrize("g", WORKLOAD_TORI)
def test_floor_is_the_lie_span_on_the_workload_tori(g):
    assert_floor_is_the_lie_span(g)


@settings(max_examples=40, deadline=None)
@given(classed_tori())
def test_floor_is_the_lie_span_on_classed_tori(g):
    assert_floor_is_the_lie_span(g)


def test_verify_reads_a_torus_floor_with_no_subspace_sum(monkeypatch):
    g = TorusAction(((1, 0, 1, 1), (0, 1, 1, -1)))
    z = comm.center(table_record(g))
    invariants = strata.invariants_up_to_degree(g, 3)

    def refused(*args):
        raise AssertionError("the floor was found by a subspace sum")

    monkeypatch.setattr(Subspace, "sum", refused)
    (res,) = strata.kernel_s_at_degrees(g, z, (3,), invariants)
    assert (res.dim_s, res.exactness) == (2, "certified")


# ---------------------------------------------------------------------------
# what compute forms


READ_OFF_THE_GROUP = [
    pytest.param(model, id=ident) for ident, model in _workload_orbits()
    if isinstance(model.slice_action, TorusAction) or (
        isinstance(model.slice_action, FiniteMatrixAction) and under_rule(model.slice_action))
]


@pytest.mark.parametrize("model", READ_OFF_THE_GROUP)
def test_compute_forms_no_commutant_on_the_group_routes(model, monkeypatch):
    want = comm.commutant_kernel(model.slice_action).dim

    def refused(*args, **kwargs):
        raise AssertionError("compute formed a commutator row, kernel, word or bracket")

    monkeypatch.setattr(symmetry, "invariance_constraints", refused)
    for cls in (FiniteMatrixAction, TorusAction):
        monkeypatch.setattr(cls, "commutant_span", refused)
    for module in (comm, exactlin, symmetry):
        for name in ("word_basis", "bracket_vec"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert pipeline.run_orbit(model).commutant_dim == want


@pytest.fixture
def counted(monkeypatch):
    """Calls of `compute_commutant` and `enumerate_group` by name."""
    calls = {"compute_commutant": 0, "enumerate_group": 0}
    for module, name in ((comm, "compute_commutant"), (symmetry, "enumerate_group")):
        def count(*args, _name=name, _f=getattr(module, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(module, name, count)
    return calls


def _orbit(name: str, seed: int, label: str):
    (model,) = [model for ident, model in _workload_orbits((seed,))
                if ident == "%s-%d-%s" % (name, seed, label)]
    return model


def test_the_sign_group_takes_the_kernel(counted):
    model = _orbit("commutant-dense", 1009, "dense-signs-c2^7")
    assert model.slice_action.commutant_center() is None
    counted["enumerate_group"] = 0
    result = pipeline.run_orbit(model)
    assert (result.commutant_dim, result.center_dim) == (7, 7)
    # the budget floor(49 / 7) = 7 stops the listing at its eighth element
    assert counted == {"compute_commutant": 1, "enumerate_group": 1}


FINITE_QUOTIENT_ORBITS = [
    pytest.param(model, id=ident) for ident, model in _workload_orbits((1009,))
    if isinstance(model.slice_action, FiniteMatrixAction) and model.quotient_requested
]


@pytest.mark.parametrize("model", FINITE_QUOTIENT_ORBITS)
def test_a_quotient_orbit_enumerates_its_group_once(model, counted):
    g = model.slice_action
    pipeline.run_orbit(model)
    assert counted == {"compute_commutant": int(not under_rule(g)), "enumerate_group": 1}


def test_both_sides_of_the_rule_are_among_the_quotient_orbits():
    rules = {under_rule(p.values[0].slice_action) for p in FINITE_QUOTIENT_ORBITS}
    assert rules == {True, False}


def test_the_budget_stops_the_listing():
    g = DIGEST._hyperoctahedral(3)
    assert len(symmetry.enumerate_group(g, 5)) == 6
    assert len(symmetry.enumerate_group(g, 48)) == 48
    assert symmetry.enumerate_group(g, 48) == list(g.elements)


def test_an_element_of_infinite_order_sends_compute_to_the_kernel():
    # two reflections whose product rotates by an angle of cosine -7/25, not
    # a root of unity: each generator passes the trace test, the product not
    r1 = QMatrix.from_rows([[1, 0], [0, -1]])
    r2 = QMatrix.from_rows([["-7/25", "24/25"], ["24/25", "7/25"]])
    g = FiniteMatrixAction(2, (r1, r2))
    assert g.commutant_center() is None
    model = pipeline.OrbitModel("dihedral", g)
    result = pipeline.run_orbit(model)
    assert (result.commutant_dim, result.m, result.l) == (1, 1, 0)


def _run_cli(path: Path, flags: list[str], emit: Path) -> tuple[int, str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(path), "--emit-json", str(emit)] + flags)
    return code, out.getvalue(), emit.read_text()


@pytest.mark.parametrize("make, order", [
    pytest.param(cat.s3_regular_minus_trivial, 6, id="S3-regular"),
    pytest.param(lambda: q8_on_copies_of_r4(3), 8, id="Q8-on-3-copies"),
])
def test_a_group_cap_below_the_order_keeps_a_commutant_only_report(make, order, tmp_path):
    # a commutant-only orbit never enumerated G before compute read the
    # class sums: under any cap it still exits 0 with the same report
    doc = DIGEST._document("capped", make(), False)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    emit = tmp_path / "report.json"
    free = _run_cli(path, [], emit)
    capped = _run_cli(path, ["--max-group-order", str(order - 2)], emit)
    assert free[0] == 0
    assert capped == free
