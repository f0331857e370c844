#!/usr/bin/env python3
"""Digest the command line's observable output over a fixed set of runs.

Runs `equivab.cli.main` in process on every document of the three benchmark
workloads at seeds 1009 and 5, on `scripts/example_input.json`, and on each
finite and connected action of `equivab.catalog` written in a fixed rational
basis that is not unimodular, with the quotient asked for: in compute mode
with `--emit-json` and in `--verify` mode, each once with no flag and once
with `--degree-bound 3`.  Prints one sha256 per document set and mode over
(exit code, stdout, stderr, emitted JSON) of its runs.  The workloads'
matrices are almost all integral; the catalog set puts denominators into
every generator, center and invariant.

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


def _catalog_documents() -> list[dict]:
    """One document per catalog action, its generators conjugated by P."""
    docs = []
    for name in CATALOG_ACTIONS:
        g = getattr(catalog, name)()
        p, p_inv = _basis_change(g.dim)
        gens = [p @ a @ p_inv for a in g.action_generators()]
        kind = "finite" if isinstance(g, FiniteMatrixAction) else "connected_lie"
        docs.append({"orbits": [{
            "label": name,
            "quotient": True,
            "slice_action": {"kind": kind, "dim": g.dim, "generators": [
                [[str(x) for x in row] for row in a.entries] for a in gens
            ]},
        }]})
    return docs


def _documents() -> dict[str, list[dict]]:
    """The documents of each workload, in run order."""
    docs = {
        name: [doc for seed in SEEDS for doc, _ in workloads.generate(name, seed)]
        for name in workloads.WORKLOADS
    }
    docs["example"] = [json.loads((ROOT / "scripts" / "example_input.json").read_text())]
    docs["catalog-rational"] = _catalog_documents()
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
