"""End-to-end tests: orbit records, report assembly, JSON round-trips, the
command-line interface, and rejection of invalid inputs."""

import io
import json
import re
import string
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivab import catalog as cat
from equivab import cli
from equivab import commutant as comm
from equivab import io as eio
from equivab import exactlin, pipeline, strata, symmetry
from equivab.exactlin import QMatrix, Subspace
from equivab.liealg import IsotropyData
from equivab.pipeline import (
    InputError,
    OrbitModel,
    PipelineError,
    run_pipeline,
    verify_models,
)
from equivab.symmetry import FiniteMatrixAction, TorusAction


def model(label, action, **kw):
    return OrbitModel(label=label, slice_action=action, **kw)


# su(2) on C^2 = R^4 as an input document's slice action
SU2_ON_C2 = {"kind": "connected_lie", "dim": 4, "generators": [
    [[str(x) for x in row] for row in a.entries] for a in cat.su2_on_c2().lie_generators]}
SU3_ON_C3 = {"kind": "connected_lie", "dim": 6, "generators": [
    [[str(x) for x in row] for row in cat.realify_complex(re, im).entries]
    for re, im in cat._su_n_basis(3)]}


@pytest.fixture
def built_degrees(monkeypatch):
    """The degrees whose monomials the invariant builders ask for."""
    degrees = []
    monomials = symmetry.monomials_of_degree

    def recorded(nvars, degree):
        degrees.append(degree)
        return monomials(nvars, degree)

    monkeypatch.setattr(symmetry, "monomials_of_degree", recorded)
    return degrees


BASIC_INPUT = {
    "orbits": [
        {
            "label": "a",
            "slice_action": {
                "kind": "finite",
                "dim": 2,
                "generators": [[[0, -1], [1, -1]]],
            },
        },
        {
            "label": "b",
            "slice_action": {"kind": "torus", "weights": [[1, 1]]},
            "quotient": True,
        },
    ],
    "options": {"seed": 3},
}
ROTATION = json.dumps(BASIC_INPUT["orbits"][0]["slice_action"])
# B_4, the signed permutations of R^4, of order 384: the 4-cycle, the swap of
# the first two coordinates and the sign change of the first
B4_GENERATORS = [
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
]
# so(3) on the basis e1, e2, e3
SO3_CONSTANTS = [
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
]
# sl(2) on the basis h, e, f
SL2_CONSTANTS = [
    [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
    [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 2], [-1, 0, 0], [0, 0, 0]],
]


class TestOrbitModel:
    def test_fixed_vector_rejected_with_witness(self):
        refl = FiniteMatrixAction(2, (QMatrix.from_rows([[1, 0], [0, -1]]),))
        with pytest.raises(InputError) as err:
            model("bad", refl)
        assert "fixed vector" in str(err.value)
        # the witness vector is printed
        assert "1" in str(err.value)

    def test_valid_model_accepted(self):
        m = model("ok", cat.c3_rotation())
        assert m.label == "ok"


class TestRunPipeline:
    def test_totals_are_additive(self):
        m1 = model("one", cat.c3_rotation())
        m2 = model("two", cat.q8_on_r4())
        separate = [run_pipeline([m]) for m in (m1, m2)]
        joint = run_pipeline([m1, m2])
        assert joint.real_rank == sum(r.real_rank for r in separate)
        assert joint.complex_rank == sum(r.complex_rank for r in separate)

    def test_totals_are_permutation_invariant(self):
        models = [
            model("one", cat.c3_rotation()),
            model("two", cat.q8_on_r4()),
            model("three", cat.s3_regular_minus_trivial()),
        ]
        fwd = run_pipeline(models)
        rev = run_pipeline(list(reversed(models)))
        assert (fwd.real_rank, fwd.complex_rank) == (rev.real_rank, rev.complex_rank)
        assert sorted(o.label for o in fwd.orbits) == sorted(
            o.label for o in rev.orbits
        )

    def test_lie_summand_contributes(self):
        g = cat.so3()
        rot = QMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        iso = IsotropyData(g, Subspace.zero(3), automorphisms=(rot,))
        m = model("with-lie", cat.c3_rotation(), isotropy_lie=iso)
        rep = run_pipeline([m])
        # fixed subalgebra is the 1-dim rotation axis, h is zero: abelian R
        assert rep.lie_dims == (1,)
        text = eio.format_report(rep)
        assert "  Lie summand dim 1\n" in text
        assert text.endswith("totals: R^0 + C^1 + Lie summands of dims [1]")

    def test_quotient_totals(self):
        m = model("circle", TorusAction(((1, 1),)), quotient_requested=True)
        rep = run_pipeline([m])
        assert rep.quotient_real_rank == 1
        assert rep.quotient_complex_rank == 0

    def test_group_enumerated_once_per_orbit(self, monkeypatch):
        calls = []
        enumerate_all = symmetry.enumerate_group

        def counted(g):
            calls.append(g)
            return enumerate_all(g)

        monkeypatch.setattr(symmetry, "enumerate_group", counted)
        rep = run_pipeline([model("rot", cat.c3_rotation(), quotient_requested=True)])
        assert rep.orbits[0].quotient.exactness == "certified"
        assert len(calls) == 1

    def test_no_invariant_degree_built_past_a_zero_kernel(self, built_degrees):
        # D4 on R^2 (|G| = 8): the Noether bound certifies the kernel, which
        # for a finite group is its floor 0, so compute builds no degree
        rep = run_pipeline([model("d4", cat.d4_on_r2(), quotient_requested=True)])
        q = rep.orbits[0].quotient
        assert (q.k, q.exactness) == (0, "certified")
        assert built_degrees == []

    def test_errors_carry_orbit_label(self):
        class Boom(TorusAction):
            # survives the constructor's fixed-vector check, then fails
            # where compute reads dim A and Z(A)
            def commutant_center(self, whole_group=False):
                raise RuntimeError("boom")

        m = model("fragile", Boom(((1, 2),)))
        with pytest.raises(PipelineError, match="fragile"):
            run_pipeline([m])


@pytest.mark.parametrize("run", [run_pipeline, verify_models])
def test_structure_built_once_per_orbit(run, monkeypatch):
    calls = {"center": 0, "commutator_ideal": 0, "fixed_vectors": 0, "commutes_with_action": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    fixed = counting("fixed_vectors", symmetry.fixed_vectors)
    monkeypatch.setattr(symmetry, "fixed_vectors", fixed)
    monkeypatch.setattr(pipeline, "fixed_vectors", fixed)
    for name in ("center", "commutator_ideal", "commutes_with_action"):
        monkeypatch.setattr(comm, name, counting(name, getattr(comm, name)))
    models = eio.parse_input(BASIC_INPUT, {})
    run(models)
    # compute reads dim A and Z(A) off the rotation's class sums and the
    # torus's weights, so it forms no commutant, center or residual, and
    # reads dim [A, A] off the trace form; verify forms [A, A] from the
    # bracket table for its center-splits check, and reports the residual
    # as its own check
    built = 2 if run is verify_models else 0
    assert calls == {"center": built, "commutator_ideal": built, "fixed_vectors": 2,
                     "commutes_with_action": built}


class TestVerifyModels:
    def test_all_checks_pass_on_good_input(self):
        models = [
            model("rot", cat.c3_rotation(), quotient_requested=True),
            model("quat", cat.q8_on_r4()),
        ]
        rep = verify_models(models)
        assert rep.passed
        checks = {i.check for i in rep.items}
        assert "commutant-residual" in checks
        assert "classification-vs-split-oracle" in checks
        assert "finite-kernel-vanishes" in checks

    def test_invariants_built_once_per_quotient_orbit(self, monkeypatch):
        calls = []
        build = strata.invariants_up_to_degree

        def counted(g, degree, *args, **kwargs):
            calls.append(degree)
            return build(g, degree, *args, **kwargs)

        monkeypatch.setattr(strata, "invariants_up_to_degree", counted)
        models = [
            model("rot", cat.c3_rotation(), quotient_requested=True),
            model("quat", cat.q8_on_r4()),
            model("circle", TorusAction(((1, 2),)), quotient_requested=True),
        ]
        rep = verify_models(models)
        assert rep.passed
        assert calls == [4, 3]
        details = {i.orbit: i.detail for i in rep.items if i.check == "kernel-monotonicity"}
        assert details == {"rot": "dim at 3: 0, at 4: 0", "circle": "dim at 2: 2, at 3: 1"}

    def test_one_pass_kernels_match_two_one_degree_calls(self, monkeypatch):
        # verify reads the kernels at d and d + 1 off one elimination, and
        # derives each invariant once per central element
        actions = {
            "rot": cat.c3_rotation(),
            "d4": cat.d4_on_r2(),
            "circle": TorusAction(((1, 2),)),
            "su2": cat.su2_on_c2(),
            "su3": cat.su3_on_c3_plus_wedge2(),
        }
        derive = strata.derivation_action
        for label, g in actions.items():
            derived = []

            def counted(d, f):
                derived.append(f)
                return derive(d, f)

            monkeypatch.setattr(strata, "derivation_action", counted)
            rep = verify_models([model(label, g, quotient_requested=True)])
            monkeypatch.undo()
            assert rep.passed
            z = comm.compute_commutant(g).center
            assert set(Counter(map(id, derived)).values()) == {z.dim}
            d = g.default_degree_bound
            low, high = (
                strata.kernel_s_at_degrees(g, z, (e,), strata.invariants_up_to_degree(g, e))[0]
                .dim_s for e in (d, d + 1)
            )
            (detail,) = (i.detail for i in rep.items if i.check == "kernel-monotonicity")
            assert detail == "dim at %d: %d, at %d: %d" % (d, low, d + 1, high)

    def test_torus_pairs_enumerated_once_per_degree(self, monkeypatch):
        # certification and the invariants share one enumeration of each
        # degree's exponent pairs.  The kernel is at its floor Z(A) meet Lie(T)
        # at degree 3, so degree 4 is never read, and certified(3) labels the
        # kernels at 3 and 4 alike
        calls = []
        pairs = TorusAction.invariant_pairs

        def counted(self, d):
            calls.append(d)
            return pairs(self, d)

        monkeypatch.setattr(TorusAction, "invariant_pairs", counted)
        g = TorusAction(((1, 0, 1, 1), (0, 1, 1, -1)))
        rep = verify_models([model("torus", g, quotient_requested=True, degree_bound=3)])
        assert rep.passed
        assert sorted(calls) == [1, 2, 3]

    def test_group_enumerated_once(self, monkeypatch):
        # the oracle and the degree bound share one enumeration
        calls = []
        enumerate_all = symmetry.enumerate_group

        def counted(g):
            calls.append(g)
            return enumerate_all(g)

        for module in (symmetry, comm, pipeline, strata):
            if getattr(module, "enumerate_group", None) is enumerate_all:
                monkeypatch.setattr(module, "enumerate_group", counted)
        rep = verify_models([model("rot", cat.c3_rotation(), quotient_requested=True)])
        assert rep.passed
        assert len(calls) == 1

    def test_no_invariant_degree_built_past_a_zero_kernel(self, built_degrees, monkeypatch):
        # D4 on R^2: both kernels vanish at degree 2, short of 8 and 9
        builds = []
        build = strata.invariants_up_to_degree

        def counted(g, degree):
            builds.append(degree)
            return build(g, degree)

        monkeypatch.setattr(strata, "invariants_up_to_degree", counted)
        rep = verify_models([model("d4", cat.d4_on_r2(), quotient_requested=True)])
        assert rep.passed
        assert builds == [9]
        assert built_degrees == [1, 2]
        details = {i.check: i.detail for i in rep.items}
        assert details["kernel-monotonicity"] == "dim at 8: 0, at 9: 0"

    def test_non_commutant_algebra_flagged(self):
        passed, detail = comm.verify_center_splits(cat.upper_triangular_2x2())
        assert not passed
        assert "Z(A) + [A,A]" in detail


class TestIO:
    def test_parse_and_run(self):
        models = eio.parse_input(BASIC_INPUT, {})
        assert [m.label for m in models] == ["a", "b"]
        rep = run_pipeline(models)
        assert (rep.real_rank, rep.complex_rank) == (0, 2)

    def test_rational_strings(self):
        doc = {
            "orbits": [
                {
                    "label": "half",
                    "slice_action": {
                        "kind": "finite",
                        "dim": 2,
                        # conjugated rotation with non-integer entries
                        "generators": [[["-1/2", "-3/4"], ["1", "-1/2"]]],
                    },
                }
            ]
        }
        models = eio.parse_input(doc, {})
        rep = run_pipeline(models)
        assert rep.orbits[0].commutant_dim == 2

    def test_bad_rational_reported_with_location(self):
        doc = {
            "orbits": [
                {
                    "label": "x",
                    "slice_action": {
                        "kind": "finite",
                        "dim": 1,
                        "generators": [[["no"]]],
                    },
                }
            ]
        }
        with pytest.raises(InputError, match=r"generators\[0\]"):
            eio.parse_input(doc, {})

    def test_float_rejected(self):
        doc = {
            "orbits": [
                {
                    "label": "x",
                    "slice_action": {
                        "kind": "finite",
                        "dim": 1,
                        "generators": [[[-1.0]]],
                    },
                }
            ]
        }
        with pytest.raises(InputError, match="expected int or 'p/q'"):
            eio.parse_input(doc, {})

    def test_unknown_kind_rejected(self):
        doc = {"orbits": [{"label": "x", "slice_action": {"kind": "nope"}}]}
        with pytest.raises(InputError, match="unknown action kind"):
            eio.parse_input(doc, {})

    def test_corrupted_structure_constants_rejected(self):
        doc = {
            "orbits": [
                {
                    "label": "x",
                    "slice_action": {
                        "kind": "finite",
                        "dim": 2,
                        "generators": [[[0, -1], [1, -1]]],
                    },
                    "isotropy_lie": {
                        "dim": 3,
                        # antisymmetric, but [e3,e1] = e1 breaks Jacobi
                        "structure_constants": [
                            [[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
                            [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                            [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
                        ],
                    },
                }
            ]
        }
        with pytest.raises(InputError, match="Jacobi"):
            eio.parse_input(doc, {})

    @staticmethod
    def so3_document(rational: bool) -> dict:
        """so(3) with a half-turn, ad(e3) and h = <e3> on a rotation of the
        plane: in the standard basis, or in the basis (2 e1, e2 / 2, 3 e3),
        which writes the constants, ad(e3) and h with 'p/q' strings."""
        if rational:
            c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            for (i, j, k), x, minus in (((0, 1, 2), "1/3", "-1/3"), ((1, 2, 0), "3/4", "-3/4"),
                                        ((2, 0, 1), 12, -12)):
                c[i][j][k], c[j][i][k] = x, minus
            ad_e3 = [[0, "-3/4", 0], [12, 0, 0], [0, 0, 0]]
            h = [[0, 0, "1/3"]]
        else:
            c = [[[0, 0, 0], [0, 0, 1], [0, -1, 0]], [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                 [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
            ad_e3 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
            h = [[0, 0, 1]]
        return {"orbits": [{
            "label": "so3", "slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
            "isotropy_lie": {
                "dim": 3, "structure_constants": c, "h_basis": h,
                "automorphisms": [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], "derivations": [ad_e3],
            },
        }]}

    @pytest.mark.parametrize("rational", [False, True], ids=["integers", "strings"])
    def test_no_rational_formed(self, rational, monkeypatch):
        # each JSON entry becomes an integer once: integer entries form no
        # rational, and a 'p/q' string at most the one that reads it
        doc = self.so3_document(rational)
        strings = sum(isinstance(x, str) for _, x in _nodes(doc["orbits"][0]["isotropy_lie"]))
        assert (strings > 0) == rational
        made = []

        def counted(*args):
            made.append(args)
            return Fraction(*args)

        with monkeypatch.context() as patch:
            for module in (exactlin, comm, symmetry):
                patch.setattr(module, "Q", counted)
            patch.setattr(eio, "Fraction", counted)
            models = eio.parse_input(doc, {})
            k_fixed, h_fixed = models[0].isotropy_lie.fixed
        assert len(made) <= strings
        assert (k_fixed.dim, h_fixed.dim) == (1, 1)
        assert run_pipeline(models).orbits[0].lie_summand_dim == 0

    def test_report_json_roundtrip(self):
        models = eio.parse_input(BASIC_INPUT, {})
        rep = run_pipeline(models)
        text = eio.serialize_report(rep)
        back = eio.parse_report(text)
        assert back == rep

    def test_format_report_mentions_totals(self):
        models = eio.parse_input(BASIC_INPUT, {})
        rep = run_pipeline(models)
        text = eio.format_report(rep)
        assert "totals: R^0 + C^2" in text
        assert "quotient: R^1 + C^0" in text

    @pytest.mark.parametrize("action, options, flags, degree", [
        (BASIC_INPUT["orbits"][0]["slice_action"], {}, {}, 3),
        (BASIC_INPUT["orbits"][1]["slice_action"], {}, {}, 2),
        (BASIC_INPUT["orbits"][0]["slice_action"], {"degree_bound": 5}, {}, 5),
        (BASIC_INPUT["orbits"][0]["slice_action"], {"degree_bound": 5}, {"degree_bound": 3}, 3),
    ], ids=["finite-default-order", "torus-default", "option", "flag-over-option"])
    def test_degree_bound_resolved_on_the_model(self, action, options, flags, degree):
        # the flag wins, then the document, then the action's default: |G|
        # for the C3 rotation, 2 for a torus
        models = eio.parse_input({"orbits": [{"slice_action": action}], "options": options},
                                 flags)
        assert isinstance(models, list)
        (orbit,) = models
        assert orbit.degree_bound == {**options, **flags}.get("degree_bound")
        assert orbit.degree == degree

    def test_parsing_enumerates_no_group(self):
        # the default bound |G| is read only where a quotient runs
        models = eio.parse_input(BASIC_INPUT, {})
        g = models[0].slice_action
        assert not models[0].quotient_requested
        assert "elements" not in g.__dict__
        run_pipeline(models)
        assert "elements" not in g.__dict__


class TestCLI:
    def write(self, tmp_path, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compute_mode(self, tmp_path, capsys):
        rc = cli.main([self.write(tmp_path, BASIC_INPUT)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "totals: R^0 + C^2" in out

    def test_emit_json(self, tmp_path):
        out_path = tmp_path / "report.json"
        rc = cli.main(
            [self.write(tmp_path, BASIC_INPUT), "--emit-json", str(out_path)]
        )
        assert rc == 0
        rep = eio.parse_report(out_path.read_text())
        assert rep.complex_rank == 2

    def test_emit_json_to_unwritable_path(self, tmp_path, capsys):
        # the report is printed, then the write fails: one located error line
        out_path = tmp_path / "missing" / "r.json"
        rc = cli.main([self.write(tmp_path, BASIC_INPUT), "--emit-json", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "totals: R^0 + C^2" in captured.out
        assert captured.err.startswith("error: ") and str(out_path) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out_path.exists()

    def test_verify_mode(self, tmp_path, capsys):
        rc = cli.main([self.write(tmp_path, BASIC_INPUT), "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification passed" in out
        assert "[pass]" in out

    def test_verify_with_emit_json_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [self.write(tmp_path, BASIC_INPUT), "--verify", "--emit-json", str(out_path)]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--verify" in err and "--emit-json" in err
        assert not out_path.exists()

    def test_bad_input_exit_code(self, tmp_path, capsys):
        rc = cli.main([self.write(tmp_path, {"orbits": [{}]})])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("action, k, l", [
        ({"kind": "finite", "dim": 1, "generators": [[[-1]]]}, 1, 0),
        ({"kind": "torus", "weights": [[1]]}, 2, 1),
    ])
    def test_degree_bound_below_the_first_cut_is_located(
        self, tmp_path, capsys, action, k, l
    ):
        # the first invariant, x^2 or |z|^2, has degree 2: at bound 1 no
        # invariant cuts the center, so verify's elimination has
        # k = dim Z(A) > l.  Compute answers s by the floor theorem at every
        # bound: s = 0 for the finite group and s = Lie(T) for the circle
        doc = {"orbits": [{"label": "r", "quotient": True, "slice_action": action}]}
        path = self.write(tmp_path, doc)
        for bound in ("1", "2"):
            assert cli.main([path, "--degree-bound", bound]) == 0
            assert "quotient: R^1 + C^0 (k = %d, certified)" % l in capsys.readouterr().out
        # verify refuses its elimination's kernel, after the line that reads it
        assert cli.main([path, "--verify", "--degree-bound", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "[pass] r: kernel-monotonicity (dim at 1: %d, at 2: %d)" % (k, l),
            "[FAIL] r: error (degree bound 1 is too low: the kernel s read from the "
            "invariants of degree <= 1 has dim k = %d > l = %d, while for a compact "
            "action the true s has k <= l; raise --degree-bound)" % (k, l),
            "verification FAILED",
        ]
        assert cli.main([path, "--verify", "--degree-bound", "2"]) == 0

    def test_verify_reports_orbit_errors(self, tmp_path, capsys):
        rc = cli.main(
            [self.write(tmp_path, BASIC_INPUT), "--verify", "--max-group-order", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        # the finite orbit fails where its group is enumerated; the torus
        # orbit after it is still verified
        assert "[FAIL] a: error (group not finite under cap 2)" in out
        assert "[pass] b: kernel-monotonicity" in out
        assert "verification FAILED" in out

    def test_verify_counts_ml_independently(self, tmp_path, capsys, monkeypatch):
        # the circle with weights 1 and 2 has center C x C, so (m, l) = (2, 2);
        # a wrong but self-consistent (2, 0) is caught by the root count
        monkeypatch.setattr(comm, "classify_ml", lambda s: comm.MLClassification(m=2, l=0))
        doc = {"orbits": [{"label": "circle", "slice_action": {
            "kind": "torus", "weights": [[1, 2]]}}]}
        rc = cli.main([self.write(tmp_path, doc), "--verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert ("[FAIL] circle: center-dim-arithmetic "
                "(trace form (m,l)=(2,0), root count (2,2))") in out

    def test_verify_residual_catches_a_non_commuting_algebra(
        self, tmp_path, capsys, monkeypatch
    ):
        # M_2(R) is a unital algebra but does not commute with the rotation
        monkeypatch.setattr(comm, "commutant_kernel", lambda g: cat.gl_n_r(2))
        doc = {"orbits": [{"label": "rot", "slice_action": {
            "kind": "finite", "dim": 2, "generators": [[[0, -1], [1, -1]]]}}]}
        rc = cli.main([self.write(tmp_path, doc), "--verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] rot: commutant-residual" in out
        assert "verification FAILED" in out

    def test_verify_flags_the_commutant_of_a_subgroup(self, tmp_path, capsys, monkeypatch):
        # the swap alone fixes a line of the S3 standard plane, so its
        # commutant is 2-dimensional where <chi, chi> = 1 for S3
        swap_only = comm.compute_commutant(
            FiniteMatrixAction(2, cat.s3_standard().generators[:1])
        )
        monkeypatch.setattr(comm, "commutant_kernel", lambda g: swap_only)
        doc = {"orbits": [{"label": "s3", "slice_action": {
            "kind": "finite", "dim": 2, "generators": [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]]}}]}
        rc = cli.main([self.write(tmp_path, doc), "--verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] s3: block-dimension-arithmetic (dim A = 2, (1/|G|) sum tr(g)^2 = 1)" in out
        assert "verification FAILED" in out

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    @pytest.mark.parametrize("text, flags, message", [
        ('{"orbits": [', [], "input is not valid JSON: Expecting value: line 1"),
        ('{"orbits": 5}', [], "orbits: expected an array, got 5"),
        ('{"orbits": [], "options": [1]}', [], "options: expected an object"),
        ('{"orbits": [], "options": {"degree_bound": "3"}}', [],
         "options.degree_bound: expected an integer >= 1, got '3'"),
        ('{"orbits": [], "options": {"degree_bound": 0}}', [],
         "options.degree_bound: expected an integer >= 1, got 0"),
        ('{"orbits": [], "options": {"group_cap": true}}', [],
         "options.group_cap: expected an integer >= 1, got True"),
        ('{"orbits": [], "options": {"seed": "abc"}}', [],
         "options.seed: expected an integer >= 0, got 'abc'"),
        (json.dumps(BASIC_INPUT), ["--degree-bound", "0"],
         "argument --degree-bound: expected an integer >= 1, got '0'"),
        (json.dumps(BASIC_INPUT), ["--max-group-order", "0"],
         "argument --max-group-order: expected an integer >= 1, got '0'"),
        (json.dumps({"orbits": [{"label": "refl", "slice_action": {
            "kind": "finite", "dim": 2, "generators": [[[1, 0], [0, -1]]]}}]}), [],
         "orbit 'refl' is not isolated: the slice has fixed vector (1, 0)"),
        (json.dumps({"orbits": [{"label": "circle", "slice_action": {
            "kind": "torus", "weights": [[2, 0, 1], [1, 0, -1]]}}]}), [],
         "orbit 'circle' is not isolated: the slice has fixed vector (0, 0, 1, 0, 0, 0)"),
        (json.dumps({"orbits": [{"label": "spin", "slice_action": {
            "kind": "connected_lie", "dim": 3,
            "generators": [[[0, "-1/2", 0], [2, 0, 0], [0, 0, 0]]]}}]}), [],
         "orbit 'spin' is not isolated: the slice has fixed vector (0, 0, 1)"),
        ('{"orbits": [{"slice_action": {"kind": "finite", "dim": 2, '
         '"generators": 5}}]}', [],
         "orbits[0].slice_action.generators: expected an array"),
        ('{"orbits": [{"slice_action": {"kind": "finite", "dim": 2, '
         '"generators": [[[0, -1], [1]]]}}]}', [],
         "orbits[0].slice_action.generators[0]: expected a rectangular nested array"),
        ('{"orbits": [{"slice_action": {"kind": "torus", "weights": [1, 2]}}]}', [],
         "orbits[0].slice_action.weights[0]: weights must be integers"),
        ('{"orbits": [{"slice_action": %s, "isotropy_lie": [1]}]}' % ROTATION, [],
         "orbits[0].isotropy_lie: expected an object, got [1]"),
        ('{"orbits": [{"slice_action": {"kind": "finite", "dim": true, '
         '"generators": [[[-1]]]}}]}', [],
         "orbits[0].slice_action: finite action needs 'dim' >= 1"),
        ('{"orbits": [{"slice_action": %s, "quotient": "no"}]}' % ROTATION, [],
         "orbits[0].quotient: expected true or false, got 'no'"),
        ('{"orbits": [{"slice_action": {"kind": "finite", "dim": 2, '
         '"generators": [[[2, 0], [0, "1/2"]]]}}]}', [],
         "orbits[0].slice_action: generators[0] has infinite order: "
         "its trace 5/2 is not an integer in [-2, 2]"),
        ('{"orbits": [{"slice_action": {"kind": "finite", "dim": 1, '
         '"generators": [[[100000]]]}}]}', [],
         "orbits[0].slice_action: generators[0] has infinite order: "
         "its trace 100000 is not an integer in [-1, 1]"),
        ('{"orbits": [{"label": [1], "slice_action": %s}]}' % ROTATION, [],
         "orbits[0].label: expected a string, got [1]"),
        ('{"orbits": [{"slice_action": {"kind": "connected_lie", "dim": 2, '
         '"generators": [[[1, 0], [0, -1]]]}}]}', [],
         "orbits[0].slice_action: the trace form on the span of the generators has "
         "inertia (1, 0, 0), not (0, 1, 0): the group is not compact"),
        ('{"orbits": [{"quotient": true, "slice_action": {"kind": "connected_lie", '
         '"dim": 2, "generators": [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]}}]}',
         [], "orbits[0].slice_action: the trace form on the span of the generators has "
         "inertia (2, 1, 0), not (0, 3, 0): the group is not compact"),
        ('{"orbits": [{"label": "x", "slice_action": %s, "isotropy_lie": {"dim": 3, '
         '"structure_constants": %s, "h_basis": [[0, 1, 0]]}}]}'
         % (ROTATION, json.dumps(SL2_CONSTANTS)), [],
         "orbits[0].isotropy_lie: quotient undefined: bracket of (0, 0, 1) and (0, 1, 0) "
         "leaves the ideal"),
    ], ids=["json-syntax", "orbits-not-array", "options-not-object",
            "degree-bound-string", "degree-bound-zero", "group-cap-boolean",
            "seed-string", "degree-bound-flag", "max-group-order-flag",
            "non-isolated", "non-isolated-torus", "non-isolated-connected",
            "generators-not-array", "ragged-generator",
            "weights-row-not-array", "isotropy-not-object", "dim-boolean",
            "quotient-not-boolean", "generator-trace-fraction",
            "generator-trace-too-large", "label-not-string", "non-compact-connected",
            "non-compact-sl2-quotient", "h-fixed-not-an-ideal"])
    def test_malformed_input_rejected(self, tmp_path, capsys, text, flags, message, mode):
        path = tmp_path / "input.json"
        path.write_text(text)
        try:
            rc = cli.main([str(path)] + flags + mode)
        except SystemExit as exc:  # argparse usage error
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    @pytest.mark.parametrize("key, matrix, shape", [
        ("automorphisms", [[1, 0], [0, 1], [0, 0]], "3 x 2"),
        ("automorphisms", [[1, 0, 0], [0, 1, 0]], "2 x 3"),
        ("derivations", [[0, 1], [-1, 0]], "2 x 2"),
    ], ids=["automorphism-3x2", "automorphism-2x3", "derivation-2x2"])
    def test_wrong_shaped_action_matrix_rejected(self, tmp_path, capsys, key, matrix, shape,
                                                 mode):
        # so(3) data: each action matrix must be 3 x 3, and is refused by its index
        doc = {"orbits": [{"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
                           "isotropy_lie": {"dim": 3, "structure_constants": SO3_CONSTANTS,
                                            key: [matrix]}}]}
        rc = cli.main([self.write(tmp_path, doc)] + mode)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            "input error: orbits[0].isotropy_lie: %s[0] is %s, not 3 x 3\n" % (key, shape))
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    @pytest.mark.parametrize("doc, location", [
        ({**BASIC_INPUT, "option": {}}, "option"),
        ({**BASIC_INPUT, "options": {"degree_bond": 1}}, "options.degree_bond"),
        ({"orbits": [{**BASIC_INPUT["orbits"][0], "extra_key": 1}]}, "orbits[0].extra_key"),
        ({"orbits": [{"slice_action": {"kind": "torus", "weights": [[1]], "dim": 2}}]},
         "orbits[0].slice_action.dim"),
        ({"orbits": [{"slice_action": {**BASIC_INPUT["orbits"][0]["slice_action"],
                                       "weights": [[1]]}}]},
         "orbits[0].slice_action.weights"),
        ({"orbits": [{"slice_action": {"kind": "connected_lie", "dim": 2,
                                       "generators": [], "lie_generators": []}}]},
         "orbits[0].slice_action.lie_generators"),
        ({"orbits": [{**BASIC_INPUT["orbits"][0], "isotropy_lie": {
            "dim": 1, "structure_constants": [[[0]]], "automorphism": []}}]},
         "orbits[0].isotropy_lie.automorphism"),
    ], ids=["top-level", "options", "orbit", "torus", "finite", "connected-lie",
            "isotropy-lie"])
    def test_unknown_key_rejected(self, tmp_path, capsys, doc, location, mode):
        rc = cli.main([self.write(tmp_path, doc)] + mode)
        captured = capsys.readouterr()
        assert rc == 2
        assert "input error: %s: unknown key" % location in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    def test_order_384_quotient_at_the_default_bound(self, tmp_path, capsys, built_degrees,
                                                     mode):
        # B_4, the signed permutations of R^4: at the Noether bound |G| = 384
        # the monomial cap fails from degree 83.  Verify's kernel is zero at
        # degree 2, so it builds no degree past 2; compute reads the certified
        # floor 0 and builds none
        doc = {"orbits": [{"label": "b4", "quotient": True, "slice_action": {
            "kind": "finite", "dim": 4, "generators": B4_GENERATORS}}]}
        assert cli.main([self.write(tmp_path, doc)] + mode) == 0
        out = capsys.readouterr().out
        if mode:
            assert "[pass] b4: kernel-monotonicity (dim at 384: 0, at 385: 0)" in out
            assert "[pass] b4: finite-kernel-vanishes" in out
            assert out.endswith("verification passed\n")
        else:
            assert "quotient: R^1 + C^0 (k = 0, certified)" in out
        assert built_degrees == ([1, 2] if mode else [])

    def test_connected_degree_bound_below_the_first_cut_is_refused(self, tmp_path, capsys):
        # su(2) on C^2: |z|^2 of degree 2 is the first invariant, so at bound
        # 1 the kernel is Z(A) = R, k = 1 > l = 0, and compute, which reads a
        # connected group's invariants, refuses it
        doc = {"orbits": [{"label": "r", "quotient": True, "slice_action": SU2_ON_C2}]}
        path = self.write(tmp_path, doc)
        assert cli.main([path, "--degree-bound", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: orbit 'r': degree bound 1 is too low: the kernel s read from "
            "the invariants of degree <= 1 has dim k = 1 > l = 0, while for a "
            "compact action the true s has k <= l; raise --degree-bound\n")
        assert cli.main([path, "--degree-bound", "2"]) == 0
        assert "quotient: R^1 + C^0 (k = 0, degree-bounded)" in capsys.readouterr().out

    def test_infinite_dihedral_quotient_is_refused(self, tmp_path, capsys):
        # the floor theorem answers s = 0 only for a finite group: compute
        # lists the whole group before it answers, and this pair generates
        # an element of infinite order
        doc = {"orbits": [{"label": "dinf", "quotient": True, "slice_action": {
            "kind": "finite", "dim": 2,
            "generators": [[[-1, 1], [0, 1]], [[-1, 0], [0, 1]]]}}]}
        assert cli.main([self.write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: orbit 'dinf': group not finite")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_torus_at_a_high_bound_enumerates_no_pairs(self, tmp_path, capsys, monkeypatch):
        # compute answers s = Lie(T) by the floor theorem: it walks no
        # degree, so it never meets the monomial cap that degree 40 in 8
        # variables is far past
        calls = []
        pairs = TorusAction.invariant_pairs

        def counted(self, d):
            calls.append(d)
            return pairs(self, d)

        monkeypatch.setattr(TorusAction, "invariant_pairs", counted)
        doc = {"orbits": [{"label": "t", "quotient": True, "slice_action": {
            "kind": "torus", "weights": [[1, 0, 1, 1], [0, 1, 1, -1]]}}]}
        assert cli.main([self.write(tmp_path, doc), "--degree-bound", "40"]) == 0
        assert "quotient: R^2 + C^2 (k = 2, certified)" in capsys.readouterr().out
        assert calls == []

    @pytest.mark.parametrize("action, monomials", [
        pytest.param({"kind": "torus", "weights": [[1, 1]]}, 10, id="circle"),
        pytest.param(SU2_ON_C2, 10, id="su2"),
        pytest.param(SU3_ON_C3, 21, id="su3"),
    ])
    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    def test_degree_past_the_cap_is_refused_where_it_is_built(
        self, tmp_path, capsys, monkeypatch, action, monomials, mode
    ):
        # degree 2 has 10 monomials in 4 variables and 21 in 6: the
        # elimination refuses it with its own message.  Compute builds no
        # degree of the circle, whose s = Lie(T) it reads by the floor
        # theorem, nor of su(2) on C^2, whose s = L = 0 it reads by the floor
        # rule (l = 0), and refuses su(3) on C^3 (dim L = 0 < l = 1)
        monkeypatch.setattr(strata, "DEFAULT_MONOMIAL_CAP", 9)
        doc = {"orbits": [{"label": "r", "quotient": True, "slice_action": action}]}
        code = cli.main([self.write(tmp_path, doc), "--degree-bound", "2"] + mode)
        captured = capsys.readouterr()
        message = "degree bound too large: %d monomials in degree 2 exceeds cap 9" % monomials
        if mode:
            assert code == 1
            assert "[FAIL] r: error (%s)\n" % message in captured.out
        elif action["kind"] == "torus":
            assert code == 0
            assert "quotient: R^1 + C^0 (k = 1, certified)" in captured.out
        elif action is SU2_ON_C2:
            assert code == 0
            assert "quotient: R^1 + C^0 (k = 0, degree-bounded)" in captured.out
        else:
            assert code == 1
            assert captured.err == "error: orbit 'r': %s\n" % message

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    def test_finite_group_past_the_cap_at_its_order(self, tmp_path, capsys, monkeypatch, mode):
        # D4 at |G| = 8 with degree 2 (3 monomials) past the cap: compute
        # reads the certified floor 0 and builds no degree, while verify's
        # elimination meets the cap
        monkeypatch.setattr(strata, "DEFAULT_MONOMIAL_CAP", 2)
        gens = [[[str(x) for x in row] for row in a.entries] for a in cat.d4_on_r2().generators]
        doc = {"orbits": [{"label": "d4", "quotient": True, "slice_action": {
            "kind": "finite", "dim": 2, "generators": gens}}]}
        code = cli.main([self.write(tmp_path, doc)] + mode)
        out = capsys.readouterr().out
        if mode:
            assert code == 1
            assert ("[FAIL] d4: error (degree bound too large: 3 monomials in degree 2 "
                    "exceeds cap 2)\n") in out
        else:
            assert code == 0
            assert "quotient: R^1 + C^0 (k = 0, certified)" in out

    @pytest.mark.parametrize("mode", [[], ["--verify"]], ids=["compute", "verify"])
    @pytest.mark.parametrize("orbit, message", [
        ({"slice_action": {"kind": "finite", "dim": 1, "generators": [[[True]]]}},
         "orbits[0].slice_action.generators[0][0][0]: expected a rational, got a boolean"),
        ({"slice_action": {"kind": "torus"}},
         "orbits[0].slice_action: torus action needs a 'weights' matrix"),
        ({"slice_action": {"kind": "torus", "weights": [[]]}},
         "orbits[0].slice_action: torus acting on zero-dimensional space"),
        ({"slice_action": {"kind": "finite", "dim": 2, "generators": [
            [[0, -1], [1, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}},
         "orbits[0].slice_action: generators[1] is 3 x 3, not 2 x 2"),
        ({"slice_action": {"kind": "finite", "dim": 2, "generators": [[[1, 0], [0, 0]]]}},
         "orbits[0].slice_action: generators[0] is not invertible"),
        ({"slice_action": {"kind": "connected_lie", "dim": 2, "generators": [
            [[0, -1], [1, 0]], [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]}},
         "orbits[0].slice_action: generators[1] is 3 x 3, not 2 x 2"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3}},
         "orbits[0].isotropy_lie: missing 'structure_constants'"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3, "structure_constants": SO3_CONSTANTS[:2]}},
         "orbits[0].isotropy_lie: structure_constants has 2 planes, not 3"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3, "structure_constants": [
              SO3_CONSTANTS[0], [row[:2] for row in SO3_CONSTANTS[1]], SO3_CONSTANTS[2]]}},
         "orbits[0].isotropy_lie: structure_constants[1] is 3 x 2, not 3 x 3"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3, "structure_constants": SO3_CONSTANTS,
                           "h_basis": [[1, 0]]}},
         "orbits[0].isotropy_lie: h_basis rows have 2 entries, not 3"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3, "structure_constants": SO3_CONSTANTS,
                           "automorphisms": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]}},
         "orbits[0].isotropy_lie: action matrix is not a Lie automorphism"),
        ({"slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
          "isotropy_lie": {"dim": 3, "structure_constants": SO3_CONSTANTS,
                           "derivations": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]]}},
         "orbits[0].isotropy_lie: action matrix is not a derivation"),
    ], ids=["boolean-entry", "torus-without-weights", "torus-without-blocks",
            "generator-shape", "generator-not-invertible", "lie-generator-shape",
            "no-structure-constants", "plane-count", "plane-shape", "h-basis-row-length",
            "not-an-automorphism", "not-a-derivation"])
    def test_input_error_names_what_is_wrong(self, tmp_path, capsys, orbit, message, mode):
        rc = cli.main([self.write(tmp_path, {"orbits": [orbit]})] + mode)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "input error: %s\n" % message
        assert captured.out == ""

    def test_max_group_order_cap(self, tmp_path, capsys):
        doc = {
            "orbits": [
                {
                    "label": "a",
                    "slice_action": {
                        "kind": "finite",
                        "dim": 2,
                        "generators": [[[0, -1], [1, -1]]],
                    },
                    # the quotient path must enumerate the group and hits
                    # the order cap
                    "quotient": True,
                }
            ]
        }
        rc = cli.main([self.write(tmp_path, doc), "--max-group-order", "2"])
        assert rc == 1


# ---------------------------------------------------------------------------
# fuzzed malformed documents through the command line

# valid documents with every action kind, the options and isotropy data
FUZZ_DOCUMENTS = [
    {**BASIC_INPUT, "options": {"seed": 3, "degree_bound": 2, "group_cap": 50}},
    {"orbits": [{
        "label": "with-lie",
        "slice_action": BASIC_INPUT["orbits"][0]["slice_action"],
        "isotropy_lie": {
            "dim": 3, "structure_constants": SO3_CONSTANTS, "h_basis": [[1, 0, 0]],
            "automorphisms": [[[1, 0, 0], [0, -1, 0], [0, 0, -1]]],
            "derivations": [SO3_CONSTANTS[0]],
        },
    }]},
    {"orbits": [{"label": "circle", "quotient": True, "slice_action": {
        "kind": "connected_lie", "dim": 2, "generators": [[[0, -1], [1, 0]]]}}]},
]
KNOWN_KEYS = {
    "orbits", "options", "seed", "degree_bound", "group_cap", "label", "slice_action",
    "isotropy_lie", "quotient", "kind", "weights", "dim", "generators",
    "structure_constants", "h_basis", "automorphisms", "derivations",
}
# unknown keys: letters, digits and underscore, control characters and the
# other characters that split a line
key_chars = (
    st.sampled_from(string.ascii_letters + string.digits + "_")
    | st.characters(whitelist_categories=("Cc", "Zl", "Zp"))
)
floats = st.floats(allow_nan=False, allow_infinity=False)
# a float is valid nowhere in a document: rationals are ints or 'p/q' strings,
# and a float is no object, array, string, boolean or integer option
misplaced = (
    floats
    | st.lists(floats, min_size=1, max_size=3)
    | st.dictionaries(st.sampled_from(["dim", "kind", "x"]), floats, min_size=1)
)


def _nodes(doc, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


def _where(path) -> str:
    """The location an input error names for the node at path: a key as a
    JSON string shows it, without the quotes."""
    out = ""
    for key in path:
        if isinstance(key, int):
            out += "[%d]" % key
        else:
            out += ("." if out else "") + json.dumps(key)[1:-1]
    return out or "top level"


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))  # a copy with no shared parts
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def malformed_documents(draw):
    """(text, path): a valid document broken in one place, as JSON text, and
    the path of the broken node, or None for broken syntax."""
    doc = draw(st.sampled_from(FUZZ_DOCUMENTS))
    how = draw(st.sampled_from(["syntax", "value", "key"]))
    if how == "syntax":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))], None
    nodes = list(_nodes(doc))
    if how == "value":
        path, _ = draw(st.sampled_from(nodes))
        return json.dumps(_replaced(doc, path, draw(misplaced))), path
    path, obj = draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, dict)]))
    key = draw(st.text(key_chars, min_size=1, max_size=6).filter(lambda k: k not in KNOWN_KEYS))
    return json.dumps(_replaced(doc, path, {**obj, key: 0})), path + (key,)


@given(malformed_documents(), st.sampled_from([[], ["--verify"]]))
@settings(max_examples=300, deadline=None)
def test_fuzzed_malformed_documents_exit_2_with_a_located_message(case, mode):
    text, path = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), \
            redirect_stderr(err):
        rc = cli.main(["-"] + mode)
    assert (rc, out.getvalue()) == (2, "")
    first, *rest = err.getvalue().splitlines()
    assert rest == [] and first.startswith("input error: ")
    message = first[len("input error: "):]
    if path is None:
        assert re.match(r"input is not valid JSON: .* line \d+ column \d+", message)
        return
    # the broken node, one of its ancestors, or a part of it
    located = message.split(": ", 1)[0]
    ancestors = {_where(path[:i]) for i in range(len(path) + 1)}
    inside = tuple(_where(path) + sep for sep in ".[")
    assert (located in ancestors or located.startswith(inside)
            or not path and message.startswith("top level ")), message
