#!/usr/bin/env python3
"""Digest the command line's observable output over a fixed set of runs.

Runs `equivab.cli.main` in process on every document of the three benchmark
workloads at seeds 1009 and 5, and on `scripts/example_input.json`: in
compute mode with `--emit-json` and in `--verify` mode, each once with no
flag and once with `--degree-bound 3`.  Prints one sha256 per workload and
mode over (exit code, stdout, stderr, emitted JSON) of its runs.

Two trees print the same digests exactly when their runs are byte-identical,
so a refactor is checked by running this script in a copy of the parent
commit and in the change:

    python3 scripts/cli_digest.py
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
from equivab import cli  # noqa: E402

SEEDS = (1009, 5)
FLAGS = ([], ["--degree-bound", "3"])


def _documents() -> dict[str, list[dict]]:
    """The documents of each workload, in run order."""
    docs = {
        name: [doc for seed in SEEDS for doc, _ in workloads.generate(name, seed)]
        for name in workloads.WORKLOADS
    }
    docs["example"] = [json.loads((ROOT / "scripts" / "example_input.json").read_text())]
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
