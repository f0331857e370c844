"""Self-test of the benchmark's tracer and answer checks.

    python3 perfbench/selftest.py [--seed N]

1. The tracer patches every traced function at every binding in every
   equivab module, and `uninstall` restores each one.
2. A short traced run of each workload is correct, which includes traced
   `--emit-json` reports byte-identical to the untraced ones, and prints
   exactly the per-layer metrics BENCHMARK.json lists; each of them is
   nonzero on at least one workload.
3. su(3) on C^3 + Lambda^2 C^3 = R^12, too slow for a timed workload, gets
   the mathematically correct answer in both modes: commutant 8,
   (m, l) = (1, 1), and k = 1 at degrees 2 and 3, degree-bounded.

Exits nonzero on the first failed part.  Takes about two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def check_bindings():
    import equivab
    from equivab import catalog, cli  # noqa: F401  every module, as the CLI loads them

    t = tracer.Tracer(equivab)
    mods = t.modules()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    originals = {}
    for layer, fns in tracer.SPANS.items():
        for fn in fns:
            if "." not in fn:
                originals[id(getattr(mods["equivab." + layer], fn))] = "%s.%s" % (layer, fn)
    t.install()
    try:
        bindings = 0
        for name, mod in mods.items():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    return "%s.%s still binds the untraced %s" % (name, attr, originals[id(value)])
                if value is not before[name].get(attr):
                    bindings += 1
        for layer, fns in tracer.SPANS.items():
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mods["equivab." + layer], cls_name)
                    if not hasattr(getattr(cls, meth), "__wrapped__"):
                        return "%s is not traced" % fn
    finally:
        t.uninstall()
    for name, mod in mods.items():
        if dict(vars(mod)) != before[name]:
            return "uninstall left %s changed" % name
    print("bindings: %d module bindings of %d functions patched and restored"
          % (bindings, len(originals)))
    return None


def check_traced_runs(seed):
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    if listed != tracer.metric_names():
        return "BENCHMARK.json per_layer differs from the tracer's metrics"
    nonzero = set()
    for workload in sorted(workloads.WORKLOADS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if out.returncode != 0:
            return "%s traced run exited %d: %s" % (workload, out.returncode, out.stderr[-500:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            return "%s traced run is not correct:\n%s" % (workload, out.stdout[-2000:])
        names = list(result["metrics"])
        if names != listed:
            return "%s traced run printed %s" % (workload, sorted(set(names) ^ set(listed)))
        nonzero |= {name for name, m in result["metrics"].items() if m["value"]}
        print("traced %s: correct, %d metrics" % (workload, len(names)))
    zero = [name for name in listed if name not in nonzero]
    # the overhead may read 0 or below when noise exceeds it
    zero = [name for name in zero if name != "trace.overhead_frac"]
    if zero:
        return "zero on every workload: %s" % zero
    return None


def check_su3_twelve():
    from equivab import cli

    gens, expect = workloads.su3_on_c3_plus_wedge2()
    orbit, expect = workloads.connected_orbit("su3-on-r12", gens, expect, k=1)
    doc = {"orbits": [orbit], "options": {"degree_bound": 2}}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        path = Path(tmp) / "su3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        emit = Path(tmp) / "report.json"
        answers = {}
        for mode, extra in (("compute", ["--emit-json", str(emit)]), ("verify", ["--verify"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([str(path), "--seed", str(run.PROGRAM_SEED)] + extra)
            answers[mode] = {"code": code, "stdout": out.getvalue(), "stderr": "",
                             "error": None,
                             "report": emit.read_text() if mode == "compute" else None}
    labels = [orbit["label"]]
    bad = checks.check_compute(answers["compute"], labels, [expect])
    bad += checks.check_verify(answers["verify"], labels, [expect], 2)
    bad = [b for b in bad if b]
    if bad:
        return "su(3) on R^12: %s" % bad
    print("su(3) on R^12: commutant 8, (m, l) = (1, 1), k = 1 at degrees 2 and 3")
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    parts = [check_bindings, lambda: check_traced_runs(args.seed), check_su3_twelve]
    for part in parts:
        error = part()
        if error:
            print("selftest FAILED: %s" % error)
            return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
