"""The routes to Z(A) agree: the word route, which reads Z(A) = A meet W
off the span W of the words in the action's generators, the table route,
which narrows A by its bracket table, and the routes that read dim A and
Z(A) off the group (`commutant_center`): a torus's weight classes, a
finite group's class sums and character norm under the rule |G| k <= n^2,
and a connected group's algebra W under the rule 1 + dim k <= n, with W of
at most n words.  So does dim [A, A] read off the trace form,
dim A - dim Z(A), with the span of the table.  Each of the first two keeps to its budget of d(d - 1)/2
products or brackets; compute takes the weight route for a torus and never
the other two, and verify never takes it."""

import dataclasses
import importlib.util
import inspect
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from exact_oracles import minus, vec
from test_commutant import in_rational_basis

from equivab import catalog as cat
from equivab import commutant as comm
from equivab import exactlin, pipeline
from equivab import io as eio
from equivab.exactlin import QMatrix, Subspace
from equivab.symmetry import ConnectedLieAction, FiniteMatrixAction, TorusAction

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """The benchmark's document generator, loaded from its file and only
    read."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def word_route_center(a: comm.MatrixAlgebra):
    """Z(A) by the word route whatever its cost: W has dim <= n^2, so it
    closes within n^2 k products."""
    n, gens = a.ambient_dim, a.generators
    words = exactlin.word_basis(gens, n * n * len(gens))
    assert words is not None
    return exactlin.word_center(n, words, gens)


def algebra_words(g: ConnectedLieAction) -> list[QMatrix]:
    """Every word of a basis of W, the algebra the Lie-generating generators
    of g generate with I, whatever its size: W has dim <= n^2."""
    n, gens = g.dim, g.lie_generating
    if not gens:
        return [QMatrix.identity(n)]
    words = exactlin.word_basis(gens, n * n * len(gens))
    assert words is not None
    return words


def past_the_rule(g) -> bool:
    """Whether compute sends g to the commutant kernel: a finite group past
    |G| k <= n^2, or a connected group with 1 + dim k > n or whose W has
    more than n words.  A torus never goes there."""
    if isinstance(g, FiniteMatrixAction):
        return g.order * len(g.generators) > g.dim ** 2
    if isinstance(g, ConnectedLieAction):
        return 1 + g.lie_dim > g.dim or len(algebra_words(g)) > g.dim
    return False


def table_record(g) -> comm.MatrixAlgebra:
    """The commutant record verify builds: it knows no generators and
    carries no center read off the action, so `center` takes the table
    route."""
    return dataclasses.replace(comm.commutant_kernel(g), generators=())


def assert_routes_agree(g) -> None:
    a = comm.compute_commutant(g)
    table = table_record(g)
    z = word_route_center(a)
    assert z == comm.center(table)
    assert comm.center(a) == z
    # compute reads dim A and Z(A) off a torus, off a finite group under the
    # class rule and off a connected group under the word rule, and off the
    # commutant otherwise
    read = g.commutant_center()
    assert (read is None) == past_the_rule(g)
    assert read in (None, (a.dim, z))
    assert a.dim - z.dim == comm.commutator_ideal(table).dim


CATALOG_ACTIONS = [
    cat.c2_sign, cat.c2_minus_identity, cat.c3_rotation, cat.c4_rotation, cat.c2_x_c2,
    cat.d4_on_r2, cat.s3_standard, cat.s3_standard_plus_sign, cat.q8_on_r4,
    cat.s3_regular_minus_trivial, cat.su2_on_c2, cat.su3_on_c3_plus_wedge2,
]


def test_every_catalog_action_is_listed():
    # the catalog's annotations are strings (postponed evaluation)
    kinds = {"FiniteMatrixAction", "ConnectedLieAction", "TorusAction"}
    builders = {
        name for name, fn in vars(cat).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__annotations__.get("return") in kinds
    }
    assert builders == {make.__name__ for make in CATALOG_ACTIONS}


@pytest.mark.parametrize("make", CATALOG_ACTIONS, ids=lambda make: make.__name__)
def test_routes_agree_on_the_catalog(make):
    assert_routes_agree(make())


# -I is the same matrix in every basis
@pytest.mark.parametrize("make", CATALOG_ACTIONS[2:], ids=lambda make: make.__name__)
def test_routes_agree_in_a_rational_basis(make):
    assert_routes_agree(in_rational_basis(make()))


def _workload_orbits(seeds=(1009, 4242)):
    """(id, orbit model) of every orbit of the benchmark's documents at the
    seeds, by default 1009 and 4242."""
    workloads = _workloads()
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            for doc, _ in workloads.generate(name, seed):
                for model in eio.parse_input(doc, {}):
                    yield "%s-%d-%s" % (name, seed, model.label), model


def _workload_actions():
    for ident, model in _workload_orbits():
        yield pytest.param(model.slice_action, id=ident)


@pytest.mark.parametrize("g", list(_workload_actions()))
def test_routes_agree_on_the_workload_orbits(g):
    assert_routes_agree(g)


@st.composite
def signed_permutation_actions(draw):
    n = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        gens.append(QMatrix.from_rows(
            [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]))
    return FiniteMatrixAction(n, tuple(gens))


random_tori = st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=1, max_size=2,
).map(lambda rows: TorusAction(tuple(map(tuple, rows)))))


@st.composite
def classed_tori(draw):
    """Tori whose columns repeat, oppose or vanish: each of two to four
    columns is zero or plus or minus one of one or two base columns."""
    k = draw(st.integers(1, 2))
    bases = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=2))
    choices = [(0,) * k] + bases + [tuple(-x for x in b) for b in bases]
    columns = draw(st.lists(st.sampled_from(choices), min_size=2, max_size=4))
    return TorusAction(tuple(zip(*columns)))


torus_actions = st.one_of(random_tori, classed_tori())


@settings(max_examples=40, deadline=None)
@given(st.one_of(signed_permutation_actions(), torus_actions))
def test_routes_agree_on_generated_actions(g):
    assert_routes_agree(g)


# ---------------------------------------------------------------------------
# the weight route


def test_weight_classes_group_columns_up_to_sign():
    # columns 0, 2 and 3 are (1, 2) up to sign, 1 and 5 are zero, 4 is its own
    g = TorusAction(((1, 0, -1, 1, 1, 0), (2, 0, -2, 2, 0, 0)))
    assert g.weight_classes == (
        ((1, 2), ((0, 1), (2, -1), (3, 1))),
        ((0, 0), ((1, 1), (5, 1))),
        ((1, 0), ((4, 1),)),
    )
    # three classes, two of them nonzero: Z(A) ~ R + C^2, and A ~ M_3(C) x
    # M_4(R) x C
    dim, z = g.commutant_center()
    assert comm.classify_ml(z) == comm.MLClassification(m=3, l=2)
    assert (dim, z.dim) == (18 + 16 + 2, 5)
    assert (dim, z) == (g.commutant_span().dim, comm.center(table_record(g)))


# the weight route's agreement on them is in test_routes_agree_on_the_workload_orbits
WORKLOAD_TORI = [
    pytest.param(model, id=ident)
    for ident, model in _workload_orbits() if isinstance(model.slice_action, TorusAction)
]


@pytest.mark.parametrize("model", WORKLOAD_TORI)
def test_compute_reads_a_torus_center_off_its_weights(model, monkeypatch):
    def refused(*args):
        raise AssertionError("compute took the word or the table route")

    for name in ("word_basis", "word_center", "_table_center"):
        monkeypatch.setattr(comm, name, refused)
    result = pipeline.run_orbit(model)
    dim, z = model.slice_action.commutant_center()
    assert (result.commutant_dim, result.center_dim) == (dim, z.dim)


@pytest.mark.parametrize("model", WORKLOAD_TORI)
def test_verify_never_takes_the_weight_route(model, monkeypatch):
    def refused(self, *args, **kwargs):
        raise AssertionError("verify read the center off the weights")

    monkeypatch.setattr(TorusAction, "commutant_center", refused)
    report = pipeline.verify_models([model])
    assert report.passed
    assert {"center-splits", "center-dim-arithmetic"} <= {item.check for item in report.items}


# ---------------------------------------------------------------------------
# budgets


@pytest.fixture
def calls(monkeypatch):
    """Counts of `product_vec` and `bracket_vec`, wherever they are called."""
    counts = {"product_vec": 0, "bracket_vec": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(exactlin, name)):
            counts[_name] += 1
            return _f(*args)

        monkeypatch.setattr(comm, name, counted)
        monkeypatch.setattr(exactlin, name, counted)
    return counts


def su3_on_c3() -> ConnectedLieAction:
    return ConnectedLieAction(6, tuple(
        cat.realify_complex(re, im) for re, im in cat._su_n_basis(3)))


def q8_on_copies_of_r4(m: int) -> FiniteMatrixAction:
    """Q8 on (R^4)^m, generated by its two generators on every copy."""
    def block_diagonal(a: QMatrix) -> QMatrix:
        rows = [[0] * 4 * m for _ in range(4 * m)]
        for c in range(m):
            for i, row in enumerate(a.entries):
                rows[4 * c + i][4 * c:4 * c + 4] = row
        return QMatrix.from_rows(rows)

    return FiniteMatrixAction(4 * m, tuple(map(block_diagonal, cat.q8_on_r4().generators)))


def test_su3_on_c3_takes_the_table_route(calls):
    # d = 2 and k = 8: W would take at least ceil(36 / 2) 8 = 144 products
    # against the table's one bracket
    a = comm.compute_commutant(su3_on_c3())
    assert (a.ambient_dim, a.dim, len(a.generators)) == (6, 2, 8)
    calls["bracket_vec"] = 0
    a.center
    assert calls == {"product_vec": 0, "bracket_vec": 1}


def test_q8_on_four_copies_takes_the_word_route(calls):
    # n = 16 and d = 64 in a sheared rational basis: W = H, 4 words
    a = comm.compute_commutant(in_rational_basis(q8_on_copies_of_r4(4)))
    assert (a.ambient_dim, a.dim) == (16, 64)
    calls["bracket_vec"] = 0
    z = a.center
    assert 0 < calls["product_vec"] <= a.dim * (a.dim - 1) // 2
    assert calls["bracket_vec"] < a.dim
    assert z == comm.center(dataclasses.replace(a, generators=()))
    assert z.dim == 1


def test_table_route_stops_early_at_scale(calls):
    # verify's record of Q8 on (R^4)^4 in a sheared rational basis: d = 64
    # and Z(A) = span{I}.  The centralizer of the first basis elements is
    # already span{I}, and [A, A] stops at rank d - 1, so fewer than half of
    # the table's 2016 brackets are formed
    table = table_record(in_rational_basis(q8_on_copies_of_r4(4)))
    n, d = table.ambient_dim, table.dim
    assert (n, d) == (16, 64)
    calls["bracket_vec"] = 0
    z, derived = table.center, table.derived
    assert calls["product_vec"] == 0
    assert calls["bracket_vec"] < d * (d - 1) // 4
    assert (z.dim, derived.dim) == (1, 63)
    dense = [vec(minus(x @ y, y @ x)) for x, y in itertools.combinations(table.basis, 2)]
    assert derived == Subspace.from_vectors(n * n, dense)


def test_word_basis_gives_up_past_its_cap():
    # the circle on C^2 with weights (1, 2): X = diag(J, 2J) has minimal
    # polynomial (x^2 + 1)(x^2 + 4), so W has the basis I, X, X^2, X^3, and
    # the fourth product X^3 X is the one that shows W closed
    gens = TorusAction(((1, 2),)).action_generators()
    assert len(exactlin.word_basis(gens, 4)) == 4
    assert exactlin.word_basis(gens, 3) is None
