"""equivab benchmark: seeded orbit documents through the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload seed generates the orbit
documents (see workloads.py); equivab itself always gets `--seed 0`.  One
fresh single-threaded process runs the documents through `equivab.cli.main`
in compute mode and in verify mode, round after round for S seconds, and
every answer is checked against the value known from the construction.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` the per-layer metrics of a traced run (see tracer.py).  Times
are reported at a reference speed, which takes out the machine's load (see
loadprobe.py).
Lines before the last, starting with '#', give the environment and every
timing as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 15
SETUP_PROBE_S = 0.1
DEADLINE_S = 170  # a run must end within 180 s
PROGRAM_SEED = 0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from loadprobe import Sampler, at_reference_speed  # noqa: E402


def child_env():
    env = dict(os.environ)
    # stay on one core: numpy in the splitting oracle must not spawn threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(env):
    """[(seconds, probe times)] of fresh interpreters importing equivab and
    numpy, which the first verify imports lazily; a CLI user pays both on
    every invocation.  The first run only warms the bytecode cache.  The
    load probe samples the machine for SETUP_PROBE_S before and after each."""
    script = "import sys; sys.path.insert(0, %r); import equivab, numpy" % str(SRC)
    sampler = Sampler()

    def probe():
        with sampler:
            end = time.perf_counter() + SETUP_PROBE_S
            while time.perf_counter() < end:
                pass

    runs = []
    for _ in range(SETUP_RUNS + 1):
        first = len(sampler.times)
        probe()
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", script], env=env, cwd=ROOT)
        # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
        killer = threading.Timer(60, child.kill)
        killer.start()
        try:
            status = child.wait()
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        if status != 0:
            raise subprocess.CalledProcessError(status, child.args)
        probe()
        runs.append((seconds, sampler.times[first:]))
    return runs[1:]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check_rounds(result, docs, trace):
    """(attempted, [failure messages]) over every pass of every round."""
    attempted = 0
    failures = []
    for r, entry in enumerate(result["rounds"]):
        for d, (doc, expects) in enumerate(docs):
            labels = [o["label"] for o in doc["orbits"]]
            degree = doc.get("options", {}).get("degree_bound")
            verdicts = [
                ("compute", checks.check_compute(entry["compute"][d], labels, expects)),
                ("verify", checks.check_verify(entry["verify"][d], labels, expects, degree)),
            ]
            if trace:
                traced = entry["traced_compute"][d]
                plain = entry["compute"][d]
                same = traced["report"] == plain["report"] and traced["stdout"] == plain["stdout"]
                verdicts.append(("traced compute", [
                    None if same else "traced report differs from the untraced one"
                ] * len(labels)))
            for mode, reasons in verdicts:
                attempted += len(reasons)
                failures += ["round %d %s %s: %s" % (r, mode, label, why)
                             for label, why in zip(labels, reasons) if why]
    return attempted, failures


def run(args):
    if not (SRC / "equivab" / "__init__.py").is_file():
        print("perfbench: no equivab sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    began = time.perf_counter()
    env = child_env()
    setup = None if args.trace else measure_setup(env)
    docs = workloads.generate(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        paths = []
        for i, (doc, _) in enumerate(docs):
            path = work / ("doc-%d.json" % i)
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        plan = {"src": str(SRC), "docs": paths, "emit_dir": str(work),
                "seconds": args.seconds, "trace": args.trace}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        budget = DEADLINE_S - (time.perf_counter() - began)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
                        str(work / "result.json")], env=env, cwd=ROOT, check=True,
                       timeout=budget)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failures = check_rounds(result, docs, args.trace)
    for line in failures[:20]:
        print("# FAILED %s" % line)
    print("# equivab benchmark, workload %s, workload seed %d, program seed %d"
          % (args.workload, args.seed, PROGRAM_SEED))
    print("# rational backend %s, python %s, numpy %s, nproc %d, commit %s"
          % (result["backend"], result["python"], result["numpy"], os.cpu_count(),
             git_commit()))
    print("# %d documents, %d orbits, %d rounds, %d orbit answers checked, %d wrong"
          % (len(docs), sum(len(d["orbits"]) for d, _ in docs), len(result["rounds"]),
             attempted, len(failures)))

    # Every timing is reported at the reference speed (see loadprobe.py):
    # on a shared 2-core machine other tenants slow the same computation by
    # up to 2x, for up to minutes, and the means of runs as measured spread
    # by a quarter or more.  A pass: its mean over the rounds, converted with
    # all the probes of its rounds.  Set-up: the median of the runs, each
    # converted with the probes just before and after it.
    names = ["compute_s", "verify_s"] + (["traced_compute_s"] if args.trace else [])
    timings = {name: [sum(e[name]) for e in result["rounds"]] for name in names}
    reported = {}
    for name in names:
        probes = [t for e in result["rounds"] for t in e[name[:-2] + "_probe"]]
        reported[name] = at_reference_speed(statistics.mean(timings[name]), probes)
        print("# %s: %.4f s at the reference speed; %d probes, mean %.3f ms, fastest %.3f ms"
              % (name, reported[name], len(probes), 1000 * statistics.mean(probes),
                 1000 * min(probes)))
    if setup is not None:
        timings["setup_s"] = [seconds for seconds, _ in setup]
        reported["setup_s"] = statistics.median(
            at_reference_speed(seconds, probes) for seconds, probes in setup)
        print("# setup_s: %.4f s at the reference speed" % reported["setup_s"])
    for name, values in timings.items():
        q1, med, q3 = quartiles(values)
        print("# %s as measured: mean %.4f, median %.4f, quartiles %.4f-%.4f, %d samples"
              % (name, statistics.mean(values), med, q1, q3, len(values)))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["per_layer"].items()}
        overhead = reported["traced_compute_s"] / reported["compute_s"] - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": reported["setup_s"], "unit": "s"},
            "compute_s": {"value": reported["compute_s"], "unit": "s"},
            "verify_s": {"value": reported["verify_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
