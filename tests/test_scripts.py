"""The scripts under scripts/ run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", ["demo_catalog.py"])
def test_script_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def _digests(text: str) -> dict[tuple[str, ...], tuple[str, ...]]:
    """{(set, mode): the rest of its line} of a digest listing."""
    return {tuple(line.split()[:2]): tuple(line.split()[2:]) for line in text.splitlines()}


def test_cli_digests_match_the_pinned_ones():
    # every report, message and exit code of the digested runs is
    # byte-identical to the pinned ones; scripts/cli_digest.txt changes only
    # with an intended change of output.  A mismatch names its set/mode lines
    proc = _run("cli_digest.py")
    assert proc.returncode == 0, proc.stderr
    pinned = (ROOT / "scripts" / "cli_digest.txt").read_text()
    got, want = _digests(proc.stdout), _digests(pinned)
    differing = [" ".join(key) for key in {**want, **got} if got.get(key) != want.get(key)]
    assert proc.stdout == pinned, "digests differ for: %s" % ", ".join(differing)


def test_benchmark_selftest_passes():
    # the selftest runs every workload traced: a traced function that no
    # workload calls any more reads zero everywhere and fails it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
