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
basis, whose enumeration keys elements with denominators; and, as the
`torus` set, on the circles of weights (1), (1, 1) and (1, -1) and the
2-torus of weights ((1, 0, 1), (0, 1, 1)), with the quotient asked for, which
label each kernel `certified` or `degree-bounded` (the weight-(1) circle has
an empty kernel lattice).  Each runs in
compute mode with `--emit-json`
and in `--verify` mode, each once with no flag and once with
`--degree-bound 3`.  Prints one sha256 per document set and mode over (exit
code, stdout, stderr, emitted JSON) of its runs.  The workloads' matrices are
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
from equivab.exactlin import QMatrix  # noqa: E402
from equivab.symmetry import FiniteMatrixAction  # noqa: E402

SEEDS = (1009, 5)
FLAGS = ([], ["--degree-bound", "3"])
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
    p, p_inv = _basis_change(g.dim)
    gens = [p @ a @ p_inv for a in g.action_generators()]
    kind = "finite" if isinstance(g, FiniteMatrixAction) else "connected_lie"
    return {"orbits": [{
        "label": label,
        "quotient": quotient,
        "slice_action": {"kind": kind, "dim": g.dim, "generators": [
            [[str(x) for x in row] for row in a.entries] for a in gens
        ]},
    }]}


def _catalog_documents() -> list[dict]:
    """One document per catalog action, with the quotient asked for."""
    return [_document(name, getattr(catalog, name)(), True) for name in CATALOG_ACTIONS]


def _copies(a: QMatrix, m: int) -> QMatrix:
    """The block-diagonal matrix of m copies of a."""
    n = a.rows
    rows = [[0] * (n * m) for _ in range(n * m)]
    for c in range(m):
        for i, row in enumerate(a.entries):
            rows[n * c + i][n * c:n * c + n] = row
    return QMatrix.from_rows(rows)


def _scale_documents() -> list[dict]:
    """Q8 on (R^4)^m for m = 2, 3, 4, without the quotient, whose degree
    bound |G| = 8 in up to 16 variables would dwarf the rest."""
    q8 = catalog.q8_on_r4()
    return [
        _document("q8-on-%d-copies" % m, FiniteMatrixAction(
            4 * m, tuple(_copies(a, m) for a in q8.generators)), False)
        for m in (2, 3, 4)
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


def _finite_scale_documents() -> list[dict]:
    """B_3 and B_4, without the quotient, whose degree bound |G| would dwarf
    the rest: verify enumerates each group."""
    return [_document("hyperoctahedral-%d" % n, _hyperoctahedral(n), False) for n in (3, 4)]


TORI = {
    "circle-1": [[1]],
    "circle-1-1": [[1, 1]],
    "circle-1-minus-1": [[1, -1]],
    "torus-2": [[1, 0, 1], [0, 1, 1]],
}


def _torus_documents() -> list[dict]:
    """One orbit per torus of `TORI`, with the quotient asked for."""
    return [
        {"orbits": [{"label": label, "quotient": True,
                     "slice_action": {"kind": "torus", "weights": weights}}]}
        for label, weights in TORI.items()
    ]


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
    docs["finite-scale"] = _finite_scale_documents()
    docs["torus"] = _torus_documents()
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
                    for flags in FLAGS:
                        if mode == "verify":
                            run = _run([str(path), "--verify"] + flags, None)
                        else:
                            run = _run([str(path), "--emit-json", str(emit)] + flags, emit)
                        digest.update(json.dumps(run).encode())
                print("%-20s %-8s %s" % (name, mode, digest.hexdigest()))


if __name__ == "__main__":
    main()
