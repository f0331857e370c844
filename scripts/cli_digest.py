#!/usr/bin/env python3
"""Digest the command line's observable output over a fixed set of runs.

Runs `equivab.cli.main` in process on every document of the three benchmark
workloads at seeds 1009 and 5, on `scripts/example_input.json`, and on each
finite and connected action of `equivab.catalog` written in a fixed rational
basis that is not unimodular, with the quotient asked for; and on isotropy
Lie data in that basis: derivations (ad-matrices), automorphisms and h, and
data that breaks antisymmetry, the Jacobi identity, an automorphism, a
derivation or the closure of h; and, as the `scale` set, on Q8 acting on
(R^4)^m for m = 2, 3, 4 in that basis, whose commutants M_m(H) have
dimension 16, 36 and 64; and, as the `finite-scale` set, on the
hyperoctahedral groups B_3 and B_4 (48 and 384 signed permutations) in that
basis, whose enumeration keys elements with denominators, and the same two
with the quotient asked for as the `finite-quotient-scale` set (B_4's
default bound |G| = 384 lies past the monomial cap, which no degree read
reaches); and, as the `torus` set, on the circles of weights (1), (1, 1) and
(1, -1) and the 2-torus of weights ((1, 0, 1), (0, 1, 1)), with the quotient
asked for, whose kernels compute answers by the floor theorem, `certified`
at every bound, and verify eliminates, labelling each `certified` or
`degree-bounded` (the weight-(1) circle has an empty kernel lattice); and, as the `lie-redundant` set, on su(2) on C^2
and su(3) on C^3 in that basis, each with one generator repeated, rescaled
or the bracket of two others, with the quotient asked for.  Each runs in
compute mode with `--emit-json`
and in `--verify` mode, each once with no flag and once with
`--degree-bound 3`; and, as the `deep-bound` set, the tori of the `torus`
set, and su(2) and u(2) on C^2 in that basis, with the quotient asked for,
once with `--degree-bound 8` and once with `--degree-bound 12`, well past
the degree (2 or 3) at which each kernel reaches its floor Z(A) meet
Lie(K), which for su(2) and u(2) has dimension l, 0 and 1; and, as
the `certified-floor` set, D4 and S3 std+sign in that basis at degree bounds
1, 2 and 2|G|, and the tori of weights (1, 3) and ((1, 0, 1, 1),
(0, 1, 1, -1)) at 2, 3, 4 and 40, below, at and past the degree that
certifies each eliminated kernel, each bound carried by its document's
options and run once per mode: compute answers every one by the floor
theorem, and verify eliminates, refusing the two finite groups at bound 1,
where no invariant cuts Z(A); and, as the `torus-classes` set, on the tori of
`TORUS_CLASSES`, whose columns repeat and oppose each other in two or three
classes, with the quotient asked for, run as the `torus` set; and, as the
`finite-classes` set, on finite orbits on each side of the rule
|G| k <= n^2 that sends compute to the class sums: the sign group C2^7 on
R^7 (896 > 49), S3 on the sum-zero part of its regular representation
(12 <= 25) and Q8 on (R^4)^3 (16 <= 144) without the quotient, and the
rotation group C4 on R^2 (4 = 4) with it, all in that basis, each once with
no flag and once with `--max-group-order 4`, below the order of all but C4;
and, as the `scale-large` set, on Q8 on (R^4)^6 in that basis, whose
commutant M_6(H) has dimension 144, run as the `scale` set; and, as the
`connected-words` set, on the sums of su(2) and u(2) modules of
`CONNECTED_WORDS` and su(3) on C^3 + Lambda^2 C^3 in that basis, with the
quotient asked for, run as the `torus` set: compute reads dim A and Z(A)
of su(2) on 3C^2 + R^3 and u(2) on 2C^2 + C^2 off the algebra W their
generators generate, and gives up on the rest, whose W has more than n
words; and, as the `parse-errors` set, on one document per error the
parser locates in an input (`_parse_error_documents`), each run once per
mode with no flag.
Prints one
sha256 per document set and mode over (exit code, stdout, stderr, emitted
JSON) of its runs.  The workloads' matrices are
almost all integral; the catalog and Lie sets put denominators into every
generator, structure constant, center and invariant.

Two trees print the same digests exactly when their runs are byte-identical,
so a refactor is checked by running this same script in a copy of the parent
commit and in the change:

    python3 scripts/cli_digest.py

The digests of the current output are pinned in `scripts/cli_digest.txt`,
which `tests/test_scripts.py` compares with this script's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from equivab import catalog, cli  # noqa: E402
from equivab.exactlin import QMatrix, solve  # noqa: E402
from equivab.symmetry import ConnectedLieAction, FiniteMatrixAction  # noqa: E402

SEEDS = (1009, 5)
FLAGS = ([], ["--degree-bound", "3"])
DEEP_FLAGS = (["--degree-bound", "8"], ["--degree-bound", "12"])
# the flags each set runs with, where they are not FLAGS
SET_FLAGS = {"deep-bound": DEEP_FLAGS, "certified-floor": ([],),
             "finite-classes": ([], ["--max-group-order", "4"]), "parse-errors": ([],)}
CATALOG_ACTIONS = (
    "c2_sign", "c2_minus_identity", "c3_rotation", "c4_rotation", "c2_x_c2", "d4_on_r2",
    "s3_standard", "s3_standard_plus_sign", "q8_on_r4", "s3_regular_minus_trivial",
    "su2_on_c2", "su3_on_c3_plus_wedge2",
)


def _basis_change(n: int) -> tuple[QMatrix, QMatrix]:
    """(P, P^-1) for the block-diagonal P with blocks [[1, 1/2], [0, 2]] (and a
    last block [1] for odd n): determinant 2^(n // 2), so not unimodular."""
    p = [[0] * n for _ in range(n)]
    p_inv = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        p[i][i] = p_inv[i][i] = 1
        if i + 1 < n:
            p[i][i + 1], p[i + 1][i + 1] = "1/2", 2
            p_inv[i][i + 1], p_inv[i + 1][i + 1] = "-1/4", "1/2"
    return QMatrix.from_rows(p), QMatrix.from_rows(p_inv)


def _document(label: str, g, quotient: bool) -> dict:
    """One orbit of the finite or connected action g, its generators
    conjugated by P."""
    kind = "finite" if isinstance(g, FiniteMatrixAction) else "connected_lie"
    return _generators_document(label, kind, g.dim, g.action_generators(), quotient)


def _generators_document(label: str, kind: str, n: int, generators, quotient: bool) -> dict:
    """One orbit of the given kind on R^n, its n x n generators conjugated by
    P; they need not define a valid action."""
    p, p_inv = _basis_change(n)
    gens = [p @ a @ p_inv for a in generators]
    return {"orbits": [{
        "label": label,
        "quotient": quotient,
        "slice_action": {"kind": kind, "dim": n, "generators": [
            [[str(x) for x in row] for row in a.entries] for a in gens
        ]},
    }]}


def _catalog_documents() -> list[dict]:
    """One document per catalog action, with the quotient asked for."""
    return [_document(name, getattr(catalog, name)(), True) for name in CATALOG_ACTIONS]


def _block_diagonal(blocks: list[QMatrix]) -> QMatrix:
    """The block-diagonal matrix of the square `blocks`, in order."""
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[at + i][at:at + b.rows] = row
        at += b.rows
    return QMatrix.from_rows(rows)


def _scale_documents(copies: tuple[int, ...] = (2, 3, 4)) -> list[dict]:
    """Q8 on (R^4)^m for each m of `copies`, by default 2, 3 and 4, without
    the quotient, whose degree bound |G| = 8 in up to 4m variables would
    dwarf the rest."""
    q8 = catalog.q8_on_r4()
    return [
        _document("q8-on-%d-copies" % m, FiniteMatrixAction(
            4 * m, tuple(_block_diagonal([a] * m) for a in q8.generators)), False)
        for m in copies
    ]


def _hyperoctahedral(n: int) -> FiniteMatrixAction:
    """B_n, the signed permutations of R^n, of order 2^n n!: generated by the
    n-cycle, the transposition of the first two coordinates and the sign
    change of the first."""
    def permutation(image):
        return QMatrix.from_rows([[int(image[j] == i) for j in range(n)] for i in range(n)])

    cycle = permutation([(j + 1) % n for j in range(n)])
    swap = permutation([1, 0] + list(range(2, n)))
    sign = [[int(i == j) for j in range(n)] for i in range(n)]
    sign[0][0] = -1
    return FiniteMatrixAction(n, (cycle, swap, QMatrix.from_rows(sign)))


def _finite_classes_documents() -> list[dict]:
    """C2^7 on R^7, the seven sign changes, S3 on its regular part and Q8 on
    (R^4)^3 without the quotient, and C4 on R^2 with it."""
    signs = FiniteMatrixAction(7, tuple(
        QMatrix.from_rows([[(-1 if i == j == k else int(i == j)) for j in range(7)]
                           for i in range(7)])
        for k in range(7)))
    q8 = catalog.q8_on_r4()
    q8_copies = FiniteMatrixAction(12, tuple(_block_diagonal([a] * 3) for a in q8.generators))
    return [
        _document("c2-power-7", signs, False),
        _document("s3-regular-minus-trivial", catalog.s3_regular_minus_trivial(), False),
        _document("q8-on-3-copies", q8_copies, False),
        _document("c4-rotation", catalog.c4_rotation(), True),
    ]


def _finite_scale_documents(quotient: bool) -> list[dict]:
    """B_3 and B_4: verify enumerates each group, and with the quotient each
    kernel is zero at degree 2, far below the bound |G| of 48 or 384."""
    return [_document("hyperoctahedral-%d" % n, _hyperoctahedral(n), quotient) for n in (3, 4)]


TORI = {
    "circle-1": [[1]],
    "circle-1-1": [[1, 1]],
    "circle-1-minus-1": [[1, -1]],
    "torus-2": [[1, 0, 1], [0, 1, 1]],
}


# tori whose weight columns fall into two or three classes up to sign, with
# repeated and opposite columns in a class
TORUS_CLASSES = {
    "circle-1-1-minus-1-2": [[1, 1, -1, 2]],
    "torus-2-three-classes": [[1, 0, -1, 1], [0, 1, 0, -1]],
    "torus-2-two-classes": [[1, -1, 1, 2, -2], [1, -1, 1, 0, 0]],
}


def _bracket(a: QMatrix, b: QMatrix) -> QMatrix:
    """[a, b] = ab - ba."""
    return QMatrix.from_rows([[x - y for x, y in zip(r, t)]
                              for r, t in zip((a @ b).entries, (b @ a).entries)])


def _deep_bound_documents() -> list[dict]:
    """The tori of the `torus` set, then su(2) on C^2 and u(2) on C^2, su(2)
    with the complex structure J, in the basis of `_basis_change`, with the
    quotient asked for."""
    su2 = catalog.su2_on_c2()
    zero = QMatrix.zeros(2, 2)
    j = catalog.realify_complex(zero, QMatrix.identity(2))
    u2 = ConnectedLieAction(4, su2.lie_generators + (j,))
    return _torus_documents() + [_document("su2-on-c2", su2, True),
                                 _document("u2-on-c2", u2, True)]


def _lie_redundant_documents() -> list[dict]:
    """su(2) on C^2 and su(3) on C^3, each with one redundant generator, in
    the basis of `_basis_change`, with the quotient asked for: the second
    generator repeated last, -2/3 times the first put second, or the bracket
    of the first two put first."""
    su3 = ConnectedLieAction(6, tuple(
        catalog.realify_complex(re, im) for re, im in catalog._su_n_basis(3)))
    docs = []
    for name, g in (("su2-on-c2", catalog.su2_on_c2()), ("su3-on-c3", su3)):
        a, b = g.lie_generators[:2]
        rescaled = QMatrix.from_rows([[Fraction(-2, 3) * x for x in row] for row in a.entries])
        for how, gens in (("repeated", g.lie_generators + (b,)),
                          ("rescaled", (a, rescaled) + g.lie_generators[1:]),
                          ("bracket", (_bracket(a, b),) + g.lie_generators)):
            label = "%s-%s" % (name, how)
            docs.append(_document(label, ConnectedLieAction(g.dim, gens), True))
    return docs


def _su2_adjoint() -> list[QMatrix]:
    """ad(e_i) on su(2) = R^3 for the generators e_i of `catalog.su2_on_c2`,
    in the basis e_1, e_2, e_3: column j holds the coordinates of
    [e_i, e_j]."""
    gens = catalog.su2_on_c2().lie_generators
    flat = [[x for row in e.entries for x in row] for e in gens]
    basis = QMatrix.from_rows([list(column) for column in zip(*flat)])
    ads = []
    for x in gens:
        columns = [solve(basis, [v for row in _bracket(x, y).entries for v in row])
                   for y in gens]
        ads.append(QMatrix.from_rows([list(row) for row in zip(*columns)]))
    return ads


# su(2) or u(2) on copies of C^2, of su(2)'s adjoint R^3 and of C^2 moved
# by J alone: (label, copies of C^2, of R^3, of C^2 under J alone, with J)
CONNECTED_WORDS = (
    ("su2-on-c2+r3", 1, 1, 0, False),
    ("su2-on-2c2+r3", 2, 1, 0, False),
    ("su2-on-c2+2r3", 1, 2, 0, False),
    ("su2-on-3c2+r3", 3, 1, 0, False),
    ("u2-on-c2+r3", 1, 1, 0, True),
    ("u2-on-2c2+r3+c2", 2, 1, 1, True),
    ("u2-on-2c2+c2", 2, 0, 1, True),
)


def _connected_words_actions() -> dict[str, ConnectedLieAction]:
    """The actions of `CONNECTED_WORDS`, with su(2) acting by
    `catalog.su2_on_c2` on each C^2 and by its adjoint on each R^3, and J,
    the complex structure of C^2, on the copies of C^2 where u(2) acts; then
    su(3) on C^3 + Lambda^2 C^3."""
    su2, ads = catalog.su2_on_c2().lie_generators, _su2_adjoint()
    j = catalog.realify_complex(QMatrix.zeros(2, 2), QMatrix.identity(2))
    zero_c2, zero_r3 = QMatrix.zeros(4, 4), QMatrix.zeros(3, 3)
    actions = {}
    for label, c2, r3, alone, u2 in CONNECTED_WORDS:
        gens = [_block_diagonal([e] * c2 + [ad] * r3 + [zero_c2] * alone)
                for e, ad in zip(su2, ads)]
        if u2:
            gens.append(_block_diagonal([j] * c2 + [zero_r3] * r3 + [j] * alone))
        actions[label] = ConnectedLieAction(4 * (c2 + alone) + 3 * r3, tuple(gens))
    actions["su3-on-c3+wedge2"] = catalog.su3_on_c3_plus_wedge2()
    return actions


def _connected_words_documents() -> list[dict]:
    """One document per action of `_connected_words_actions`, in the basis
    of `_basis_change`, with the quotient asked for."""
    return [_document(label, g, True) for label, g in _connected_words_actions().items()]


def _torus_documents(tori: dict[str, list] = TORI) -> list[dict]:
    """One orbit per torus of `tori`, with the quotient asked for."""
    return [
        {"orbits": [{"label": label, "quotient": True,
                     "slice_action": {"kind": "torus", "weights": weights}}]}
        for label, weights in tori.items()
    ]


def _certified_floor_documents() -> list[dict]:
    """D4 and S3 std+sign in the basis of `_basis_change` at degree bounds 1,
    2 and 2|G|, and two tori certified at 4 and at 3, each at bounds 2, 3, 4
    and 40, with the quotient asked for."""
    docs = []
    for name in ("d4_on_r2", "s3_standard_plus_sign"):
        g = getattr(catalog, name)()
        for bound in (1, 2, 2 * g.order):
            doc = _document("%s-at-%d" % (name, bound), g, True)
            docs.append({**doc, "options": {"degree_bound": bound}})
    for label, weights in (("circle-1-3", [[1, 3]]),
                           ("torus-2-on-c4", [[1, 0, 1, 1], [0, 1, 1, -1]])):
        for bound in (2, 3, 4, 40):
            docs.append({"orbits": [{"label": "%s-at-%d" % (label, bound), "quotient": True,
                                     "slice_action": {"kind": "torus", "weights": weights}}],
                         "options": {"degree_bound": bound}})
    return docs


def _heisenberg() -> list:
    """[e1, e2] = e3."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    return c


def _broken_jacobi() -> list:
    """[e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e1: antisymmetric, not Jacobi."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 0)):
        c[i][j][k], c[j][i][k] = 1, -1
    return c


def _in_basis(c, autos, ders, h) -> dict:
    """Isotropy data (constants c, automorphisms, derivations, h vectors, all
    in the standard basis) rewritten in the basis of the columns of P."""
    n = len(c)
    p, p_inv = (m.entries for m in _basis_change(n))
    c = [[[Fraction(x) for x in row] for row in plane] for plane in c]

    def apply(m, v):
        return [sum((m[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(n)]

    def bracket(x, y):
        return [sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)),
                    Fraction(0)) for k in range(n)]

    def conj(a):
        # P^-1 A P, column by column
        a = [[Fraction(x) for x in row] for row in a]
        cols = [apply(p_inv, apply(a, [row[j] for row in p])) for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def text(v):
        return [str(x) if x.denominator > 1 else int(x) for x in v]

    pcols = [[row[j] for row in p] for j in range(n)]
    planes = [[apply(p_inv, bracket(pcols[i], pcols[j])) for j in range(n)] for i in range(n)]
    return {
        "dim": n,
        "structure_constants": [[text(r) for r in plane] for plane in planes],
        "h_basis": [text(apply(p_inv, [Fraction(x) for x in v])) for v in h],
        "automorphisms": [[text(r) for r in conj(a)] for a in autos],
        "derivations": [[text(r) for r in conj(d)] for d in ders],
    }


def _ad(c, i) -> list:
    """The matrix of ad(e_i) for the constants c."""
    n = len(c)
    return [[c[i][j][k] for j in range(n)] for k in range(n)]


def _constants(g) -> list:
    """The rational constants c[i][j][k] of the algebra g, from its integer
    planes."""
    return [[[Fraction(dict(row).get(k, 0), g.den) for k in range(g.dim)] for row in plane]
            for plane in g.planes]


def _lie_documents() -> list[dict]:
    """One document per isotropy Lie datum in the basis of `_basis_change`,
    each on a rotation of the plane: derivations, automorphisms and h that
    are valid, then data that breaks each check of the input."""
    so3 = _constants(catalog.so3())
    sl2 = _constants(catalog.sl2())
    two = _constants(catalog.nonabelian_2dim())
    heis = _heisenberg()
    half_turn = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
    bad_sign = [[[x for x in row] for row in plane] for plane in so3]
    bad_sign[0][1][2] += 1
    cases = {
        "so3-ad-e3": (so3, [], [_ad(so3, 2)], []),
        "sl2-ad-h-in-h": (sl2, [], [_ad(sl2, 0)], [[1, 0, 0]]),
        "heisenberg-ad-e1-mod-center": (heis, [], [_ad(heis, 0)], [[0, 0, 1]]),
        "heisenberg-mod-center": (heis, [], [], [[0, 0, 1]]),
        "nonabelian-ad-e2": (two, [], [_ad(two, 1)], []),
        "so3-half-turn-and-ad-e3": (so3, [half_turn], [_ad(so3, 2)], []),
        "sl2-two-derivations": (sl2, [], [_ad(sl2, 1), _ad(sl2, 2)], []),
        "antisymmetry-broken": (bad_sign, [], [], []),
        "jacobi-broken": (_broken_jacobi(), [], [], []),
        "not-an-automorphism": (sl2, [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]], [], []),
        "not-a-derivation": (so3, [], [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]], []),
        "h-not-a-subalgebra": (so3, [], [], [[1, 0, 0], [0, 1, 0]]),
    }
    rotation = {"kind": "finite", "dim": 2, "generators": [[[0, -1], [1, 0]]]}
    return [
        {"orbits": [{"label": label, "slice_action": rotation,
                     "isotropy_lie": _in_basis(*data)}]}
        for label, data in cases.items()
    ]


def _parse_error_documents() -> list[dict]:
    """One document per error the parser locates in an input, most in the
    basis of `_basis_change`: slices with a fixed vector, of each kind; a
    finite generator that is singular, of infinite order or of the wrong
    shape; connected generators that are not closed, not compact or whose
    center is no torus; malformed arrays and entries; and isotropy Lie data
    with wrong-shaped planes, h rows or action matrices, broken
    antisymmetry or Jacobi identity, a non-automorphism, a non-derivation,
    an h that is no subalgebra and an h^H that is no ideal of k^H.  Two
    valid documents spell their rationals in the other forms the input
    accepts."""
    def m(rows) -> QMatrix:
        return QMatrix.from_rows(rows)

    def block(*parts: QMatrix) -> QMatrix:
        return _block_diagonal(list(parts))

    su2 = list(catalog.su2_on_c2().lie_generators)
    su3 = [catalog.realify_complex(re, im) for re, im in catalog._su_n_basis(3)]
    swap, cycle = m([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), m([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    zero2 = QMatrix.zeros(2, 2)
    docs = [
        _generators_document("finite-permutations-fix-a-line", "finite", 3, [swap, cycle], False),
        _generators_document("finite-reflection", "finite", 2, [m([[1, 0], [0, -1]])], True),
        _generators_document("finite-without-generators", "finite", 2, [], False),
        _generators_document("su2-on-c2+r2", "connected_lie", 6,
                             [block(a, zero2) for a in su2], True),
        _generators_document("su3-on-c3+r2", "connected_lie", 8,
                             [block(a, zero2) for a in su3], False),
        _generators_document("connected-without-generators", "connected_lie", 2, [], False),
        _generators_document("singular", "finite", 2, [m([[1, "1/2"], [2, 1]])], False),
        _generators_document("trace-not-integral", "finite", 2, [m([[2, 0], [0, "1/2"]])], False),
        _generators_document("trace-2-not-identity", "finite", 2, [m([[1, 1], [0, 1]])], False),
        _generators_document("trace-too-large", "finite", 1, [m([[3]])], False),
        _generators_document("not-closed", "connected_lie", 4, su2[:2], False),
        _generators_document("trace-form-indefinite", "connected_lie", 2,
                             [m([[1, 0], [0, -1]])], False),
        _generators_document("center-not-a-torus", "connected_lie", 2,
                             [m([[1, -2], [2, 1]])], False),
    ]
    for label, weights in (("torus-zero-column", [[1, 0, 2], [0, 0, -1]]),
                           ("torus-all-zero", [[0, 0]])):
        docs.append({"orbits": [{"label": label, "quotient": True,
                                 "slice_action": {"kind": "torus", "weights": weights}}]})
    rotation = {"kind": "finite", "dim": 2, "generators": [[[0, -1], [1, 0]]]}
    slices = {
        "generator-shape": {"kind": "finite", "dim": 2, "generators": [
            [[0, -1], [1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
        "lie-generator-shape": {"kind": "connected_lie", "dim": 2, "generators": [
            [[0, "-1/2"], [2, 0], [0, 0]]]},
        "ragged-generator": {"kind": "finite", "dim": 2, "generators": [[["0", -1], [1]]]},
        "empty-generator": {"kind": "finite", "dim": 2, "generators": [[]]},
        "generators-not-array": {"kind": "finite", "dim": 2, "generators": {"0": 1}},
        "row-not-array": {"kind": "finite", "dim": 2, "generators": [[[0, -1], "1 0"]]},
        "boolean-entry": {"kind": "finite", "dim": 2, "generators": [[[0, -1], [True, 0]]]},
        "float-entry": {"kind": "finite", "dim": 2, "generators": [[[0, -1.0], [1, 0]]]},
        "null-entry": {"kind": "finite", "dim": 2, "generators": [[["0", None], [1, 0]]]},
        "zero-denominator": {"kind": "finite", "dim": 2, "generators": [[[0, "-1/0"], [1, 0]]]},
        "bad-rational": {"kind": "finite", "dim": 2, "generators": [[[0, "-1/2/3"], [1, 0]]]},
        "rational-weight": {"kind": "torus", "weights": [[1, "2"]]},
        "float-weight": {"kind": "torus", "weights": [[1, 2.0]]},
        "exotic-rationals": {"kind": "finite", "dim": 2, "generators": [
            [[" 0 ", "-1.0"], ["+1", "0/7"]], [["-1e0", "0.0"], ["0/3", "-2/2"]]]},
    }
    docs += [{"orbits": [{"label": label, "slice_action": action}]}
             for label, action in slices.items()]

    so3 = _constants(catalog.so3())
    sl2 = _constants(catalog.sl2())
    bad_sign = [[list(row) for row in plane] for plane in so3]
    bad_sign[2][1][0] -= 1
    ideal = _in_basis(sl2, [], [], [[0, 1, 0]])
    lie = {
        "antisymmetry-broken": _in_basis(bad_sign, [], [], []),
        "jacobi-broken": _in_basis(_broken_jacobi(), [], [], []),
        "not-an-automorphism": _in_basis(so3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], [], []),
        "not-a-derivation": _in_basis(sl2, [], [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]], []),
        "h-not-a-subalgebra": _in_basis(sl2, [], [], [[0, 1, 0], [0, 0, 1]]),
        "h-fixed-not-an-ideal": ideal,
        "h-fixed-not-an-ideal-under-zero": _in_basis(so3, [], [[[0] * 3] * 3], [[0, 0, 1]]),
        "plane-count": {**ideal, "structure_constants": ideal["structure_constants"][:2]},
        "plane-shape": {**ideal, "structure_constants": [
            plane if i != 1 else [row[:2] for row in plane]
            for i, plane in enumerate(ideal["structure_constants"])]},
        "plane-rows": {**ideal, "structure_constants": [
            plane[:2] if i == 2 else plane
            for i, plane in enumerate(ideal["structure_constants"])]},
        "plane-ragged": {**ideal, "structure_constants": [
            [row[:2] if j == 0 else row for j, row in enumerate(plane)]
            for plane in ideal["structure_constants"]]},
        "planes-not-array": {**ideal, "structure_constants": 3},
        "plane-entry-boolean": {**ideal, "structure_constants": [
            [[False if (i, j, k) == (2, 1, 0) else x for k, x in enumerate(row)]
             for j, row in enumerate(plane)]
            for i, plane in enumerate(ideal["structure_constants"])]},
        "h-row-length": {**ideal, "h_basis": [[1, "1/2"]]},
        "h-ragged": {**ideal, "h_basis": [[1, 0, 0], [1, 0]]},
        "h-entry-bad": {**ideal, "h_basis": [[1, "x", 0]]},
        "automorphism-shape": {**ideal, "automorphisms": [[[1, 0, 0], [0, 1, 0]]]},
        "derivation-shape": {**ideal, "h_basis": [], "derivations": [[[0, 1], [-1, 0]]]},
        "dim-not-integer": {**ideal, "dim": "3"},
        "no-constants": {"dim": 3},
    }
    docs += [{"orbits": [{"label": label, "slice_action": rotation, "isotropy_lie": data}]}
             for label, data in lie.items()]
    return docs


def _documents() -> dict[str, list[dict]]:
    """The documents of each workload, in run order."""
    docs = {
        name: [doc for seed in SEEDS for doc, _ in workloads.generate(name, seed)]
        for name in workloads.WORKLOADS
    }
    docs["example"] = [json.loads((ROOT / "scripts" / "example_input.json").read_text())]
    docs["catalog-rational"] = _catalog_documents()
    docs["lie-rational"] = _lie_documents()
    docs["scale"] = _scale_documents()
    docs["finite-scale"] = _finite_scale_documents(False)
    docs["torus"] = _torus_documents()
    docs["deep-bound"] = _deep_bound_documents()
    docs["finite-quotient-scale"] = _finite_scale_documents(True)
    docs["lie-redundant"] = _lie_redundant_documents()
    docs["certified-floor"] = _certified_floor_documents()
    docs["torus-classes"] = _torus_documents(TORUS_CLASSES)
    docs["finite-classes"] = _finite_classes_documents()
    docs["scale-large"] = _scale_documents((6,))
    docs["connected-words"] = _connected_words_documents()
    docs["parse-errors"] = _parse_error_documents()
    return docs


def _run(argv: list[str], emit: Path | None) -> list:
    """(exit code, stdout, stderr, emitted JSON or None) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    emitted = None
    if emit is not None and emit.exists():
        emitted = emit.read_text()
        emit.unlink()
    return [code, out.getvalue(), err.getvalue(), emitted]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path, emit = Path(tmp) / "input.json", Path(tmp) / "report.json"
        for name, docs in _documents().items():
            for mode in ("compute", "verify"):
                digest = hashlib.sha256()
                for doc in docs:
                    path.write_text(json.dumps(doc))
                    for flags in SET_FLAGS.get(name, FLAGS):
                        if mode == "verify":
                            run = _run([str(path), "--verify"] + flags, None)
                        else:
                            run = _run([str(path), "--emit-json", str(emit)] + flags, emit)
                        digest.update(json.dumps(run).encode())
                print("%-20s %-8s %s" % (name, mode, digest.hexdigest()))


if __name__ == "__main__":
    main()
