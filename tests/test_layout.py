"""Structural checks on the package source."""

import ast
import dataclasses
import fractions
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from equivab import catalog, commutant, exactlin, liealg, pipeline, strata
from equivab import io as eio
from equivab.symmetry import TorusAction

SRC = Path(__file__).resolve().parent.parent / "src" / "equivab"


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_exactlin_names_the_elimination_engine():
    # every kernel goes through exactlin.kernel: no other module holds an engine
    naming = {
        path.name for path in sorted(SRC.glob("*.py")) if "SparseRREF" in _names(_tree(path))
    }
    assert naming == {"exactlin.py"}


def _is_product(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def test_no_dense_brackets():
    # products and brackets of matrices go through exactlin's sparse
    # product_vec and bracket_vec: no expression subtracts one product from
    # another
    dense = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and _is_product(node.left) and _is_product(node.right)
    ]
    assert dense == []


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_numpy():
    # every check is exact: numpy is a test-only dependency
    importing = [
        path.name for path in sorted(SRC.glob("*.py"))
        if any(m.split(".")[0] == "numpy" for m in _imported_modules(_tree(path)))
    ]
    assert importing == []


def test_compute_path_is_deterministic():
    # no module draws random numbers, and (m, l), an orbit, a run and a
    # verify pass take no seed
    importing, params = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        if any(m.split(".")[0] == "random" for m in _imported_modules(tree)):
            importing.add(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "classify_ml", "run_orbit", "run_pipeline", "verify_models"
            ):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                params[node.name] = {a.arg for a in args}
    assert importing == set()
    assert sorted(params) == ["classify_ml", "run_orbit", "run_pipeline", "verify_models"]
    assert all("seed" not in names for names in params.values())


def test_benchmark_tracer_binds_every_traced_function(monkeypatch):
    # the benchmark's tracer wraps functions by name: renaming or deleting
    # one of them breaks it
    monkeypatch.setattr(sys, "path", list(sys.path))  # selftest prepends to it
    path = SRC.parent.parent / "perfbench" / "selftest.py"
    spec = importlib.util.spec_from_file_location("perfbench_selftest", path)
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.check_bindings() is None


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (node,) = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    return node


def test_each_exact_system_eliminated_once():
    # the Krylov dependence is one incremental elimination, not a solve per
    # power; solve reads its answer off the reduced rows without multiplying
    # it back; and verify reads its kernels at d and d + 1 off one
    # elimination instead of splitting the invariant stream
    exact = _tree(SRC / "exactlin.py")
    assert "solve" not in set(_names(_function(exact, "minimal_polynomial")))
    assert "mul_vec" not in set(_names(_function(exact, "solve")))
    assert "tee" not in set(_names(_tree(SRC / "pipeline.py")))


ACTION_CLASSES = {"FiniteMatrixAction", "TorusAction", "ConnectedLieAction"}


def _isinstance_sites(tree: ast.AST, function: str = "<module>"):
    """The enclosing function of each isinstance test against an action class."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.FunctionDef) else function
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and ACTION_CLASSES & set(_names(node.args[1]))
        ):
            yield function
        yield from _isinstance_sites(node, inner)


def test_one_place_dispatches_on_the_action_kind():
    # each action class owns its generators, fixed-vector operators,
    # invariants, certificate and default degree bound: strata names no
    # action class, and outside symmetry and io only verify's exact
    # finite-group checks, which read the enumerated elements, ask the kind
    assert ACTION_CLASSES.isdisjoint(_names(_tree(SRC / "strata.py")))
    sites = [
        "%s:%s" % (path.name, function)
        for path in sorted(SRC.glob("*.py")) if path.name not in ("symmetry.py", "io.py")
        for function in _isinstance_sites(_tree(path))
    ]
    assert sites in ([], ["pipeline.py:_orbit_checks"])


def _members(cls: ast.ClassDef) -> set[str]:
    """The names a class body defines, methods, properties and fields, but
    for dunders."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets)
    return {name for name in names if not name.startswith("__")}


def test_every_shared_action_member_has_a_reader():
    # the action protocol keeps only what compute and verify read: each
    # member that all three action classes define is read as an attribute
    # somewhere in src/ outside their bodies.  A reader is matched by name,
    # so this catches a member nothing reads, not a misread one
    classes = [
        node for node in _tree(SRC / "symmetry.py").body
        if isinstance(node, ast.ClassDef) and node.name in ACTION_CLASSES
    ]
    assert {cls.name for cls in classes} == ACTION_CLASSES
    shared = set.intersection(*(_members(cls) for cls in classes))
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]

    def readers(name):
        return [
            site for tree in trees
            for site in _sites(tree, lambda n: isinstance(n, ast.Attribute) and n.attr == name)
            if site.split(".")[0] not in ACTION_CLASSES
        ]

    assert "kernel_is_floor" in shared
    assert sorted(name for name in shared if not readers(name)) == []


def test_no_certifying_degree_walk():
    # compute answers every finite and torus quotient by the floor theorem,
    # so no action states a least certifying degree, and the kernel takes no
    # cap callback; it takes the l that `run_orbit` holds, for its floor rule
    naming = [
        path.name for path in sorted(SRC.glob("*.py"))
        if {"certifying_degree", "affordable", "_within_cap"} & set(_names(_tree(path)))
    ]
    assert naming == []
    assert list(inspect.signature(strata.kernel_s).parameters) == ["g", "z", "degree", "l"]


def test_one_algebra_record():
    # an algebra is one MatrixAlgebra record, which carries its span, center
    # and [A, A]: no class under src/ extends one defined there, and the
    # commutant module defines no wrapper or subclass of it
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    classes = {
        name: [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for name, tree in trees.items()
    }
    defined = {node.name for nodes in classes.values() for node in nodes}
    extending = [
        "%s:%s" % (name, node.name) for name, nodes in classes.items() for node in nodes
        if any(defined & set(_names(base)) for base in node.bases)
    ]
    assert extending == []
    top = {
        node.name for node in trees["commutant.py"].body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert {"Commutant", "CommutantStructure", "commutant_structure",
            "abelianization"}.isdisjoint(top)


def test_lie_layer_runs_on_integers():
    # liealg holds its constants as integer rows and checks on integer
    # vectors: it imports no fractions and names no Fraction
    tree = _tree(SRC / "liealg.py")
    assert "fractions" not in set(_imported_modules(tree))
    assert "Fraction" not in set(_names(tree))
    assert {"_q", "_ZERO", "_dense"}.isdisjoint(_names(tree))


def test_one_rational_type():
    # an exact value is an int or a Fraction: no module imports gmpy2, and
    # a value enters exactlin through _exact alone
    assert exactlin.Q is fractions.Fraction
    importing = [
        path.name for path in sorted(SRC.glob("*.py"))
        if any(m.split(".")[0] == "gmpy2" for m in _imported_modules(_tree(path)))
    ]
    assert importing == []
    assert not hasattr(exactlin, "_q")


def test_no_test_only_members():
    # members and parameters that only tests used live in the tests
    members = {
        exactlin.QMatrix: (
            "vec", "scale", "is_zero", "mul_vec", "__add__", "__sub__", "_plus",
        ),
        exactlin.Subspace: ("contains", "complement_in"),
        liealg.LieAlgebraSC: ("bracket", "constants", "abelian"),
    }
    assert [
        "%s.%s" % (cls.__name__, name)
        for cls, names in members.items() for name in names if hasattr(cls, name)
    ] == []
    assert not hasattr(exactlin, "rank")
    assert not hasattr(exactlin, "hermite_row_basis")
    assert "invariants" not in inspect.signature(strata.kernel_s).parameters
    assert "extra_algebras" not in inspect.signature(pipeline.verify_models).parameters


def test_one_polynomial_format():
    # a polynomial is a dict or list of integer coefficients from the engine
    # to its reader: strata forms and rescales no rational, symmetry imports
    # no fractions, and no module wraps a polynomial in a class
    assert {"Q", "_q", "_integral"}.isdisjoint(_names(_tree(SRC / "strata.py")))
    assert "fractions" not in set(_imported_modules(_tree(SRC / "symmetry.py")))
    classes = {
        node.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
    }
    assert {"Poly", "QPolynomial"}.isdisjoint(classes)


@pytest.mark.parametrize("make", [
    catalog.q8_on_r4, catalog.s3_regular_minus_trivial, catalog.c2_minus_identity,
    catalog.su2_on_c2, pytest.param(lambda: TorusAction(((1, 1),)), id="circle_on_c2"),
])
def test_commutant_path_forms_no_products(make, monkeypatch):
    # the commutant is certified by its residual, not by multiplying its
    # basis out.  Verify's record, which knows no generators, reads Z(A) and
    # [A, A] off one bracket table: no product and at most d(d - 1)/2
    # brackets for a d-dimensional algebra.  Compute's Z(A) forms at most
    # d(d - 1)/2 products, where it takes the word route
    calls = {"product_vec": 0, "bracket_vec": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(exactlin, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(commutant, name, counted)
        monkeypatch.setattr(exactlin, name, counted)
    a = commutant.compute_commutant(make())
    assert calls["product_vec"] == 0
    budget = a.dim * (a.dim - 1) // 2
    a.center
    assert calls["product_vec"] <= budget
    # verify's record: no generators and no center read off the action
    table = dataclasses.replace(commutant.commutant_kernel(make()), generators=())
    calls.update(product_vec=0, bracket_vec=0)
    table.center, table.derived
    assert calls["product_vec"] == 0
    assert 0 < calls["bracket_vec"] <= budget


def _sites(tree: ast.AST, hit, scope: str = "<module>"):
    """The qualified enclosing function or method of each node that `hit`
    holds for."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else "%s.%s" % (scope, node.name)
        if hit(node):
            yield scope
        yield from _sites(node, hit, inner)


def _call_sites(tree: ast.AST, name: str):
    """The qualified enclosing function or method of each call to `name`."""
    return _sites(tree, lambda node: isinstance(node, ast.Call) and name in set(_names(node.func)))


def test_each_lie_and_quotient_fact_proved_once():
    # IsotropyData proves h^H an ideal of k^H once; the quotient takes the
    # record, and the fixed algebra, the Lie quotient and the quotient's
    # decomposition re-prove nothing their inputs guarantee
    sites = [
        "%s:%s" % (path.name, site)
        for path in sorted(SRC.glob("*.py")) for site in _call_sites(_tree(path), "_check_ideal")
    ]
    assert sites == ["liealg.py:IsotropyData.__post_init__"]
    assert len(inspect.signature(liealg.quotient_lie_algebra).parameters) == 1
    for module, name in (("liealg", "fixed_subalgebra"), ("liealg", "quotient_lie_algebra"),
                         ("strata", "quotient_abelianization")):
        named = set(_names(_function(_tree(SRC / ("%s.py" % module)), name)))
        assert {"contains_subspace", "is_subalgebra", "_check_ideal"}.isdisjoint(named), name
    # (m, l) is the whole record: dim Z(A) and dim A / [A, A] are m + l
    assert [f.name for f in dataclasses.fields(commutant.MLClassification)] == ["m", "l"]


def test_ideal_checked_once_per_lie_orbit(monkeypatch):
    calls = []
    check = liealg._check_ideal

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(liealg, "_check_ideal", counted)
    rotation = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    so3 = [[[0, 0, 0], [0, 0, 1], [0, -1, 0]], [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
           [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
    doc = {"orbits": [{
        "slice_action": {"kind": "finite", "dim": 2, "generators": [[[0, -1], [1, -1]]]},
        "isotropy_lie": {"dim": 3, "structure_constants": so3, "automorphisms": [rotation]},
    }]}
    models = eio.parse_input(doc, {})
    assert pipeline.run_pipeline(models).lie_dims == (1,)
    assert len(calls) == 1


def test_each_orbit_step_takes_only_what_it_reads():
    # the degree bound rides on the orbit model, whose `degree` is the one
    # reader of the action's default outside symmetry; the quotient's
    # decomposition reads the kernel and (m, l), not Z(A); and the center
    # split and the root count return (passed, detail), as the finite-group
    # oracle's checks do
    assert not hasattr(commutant, "CenterSplitReport")
    for fn in (pipeline.run_pipeline, pipeline.verify_models, pipeline.run_orbit,
               pipeline._orbit_checks):
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__
    assert list(inspect.signature(strata.quotient_abelianization).parameters) == ["s", "ml"]
    sites = [
        "%s:%s" % (path.name, site)
        for path in sorted(SRC.glob("*.py")) if path.name != "symmetry.py"
        for site in _sites(_tree(path), lambda node: isinstance(node, ast.Attribute)
                           and node.attr == "default_degree_bound")
    ]
    assert sites == ["pipeline.py:OrbitModel.degree"]
    a = commutant.compute_commutant(catalog.c3_rotation())
    ml = commutant.classify_ml(a.center)
    assert commutant.verify_center_splits(a) == (True, "")
    assert commutant.root_count_agrees(a, ml) == (True, "")
