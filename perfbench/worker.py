"""One workload run of the equivab benchmark, in a fresh process.

Runs every document through `equivab.cli.main` in compute mode (with
`--emit-json`) and in verify mode, round after round until the time budget is
spent, and writes the wall time of each document, the times of the load
probes that sampled each pass (see loadprobe.py) and every answer to a JSON
file.  With tracing on, each round adds a traced compute pass and a traced verify
pass; the untraced compute pass of the same round gives the tracing overhead.

    python3 perfbench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from loadprobe import Sampler

MIN_ROUNDS = 3  # untraced; a traced round is long, so one is enough


def run_pass(cli, docs, verify, emit_dir, tag, sampler):
    """([seconds per document], [answer per document], [probe times]) of
    one pass, timed without the load probes that sample it."""
    answers = []
    times = []
    first_probe = len(sampler.times)
    with sampler:
        for i, path in enumerate(docs):
            emit = os.path.join(emit_dir, "%s-%d.json" % (tag, i))
            argv = [path, "--seed", "0"] + (["--verify"] if verify else ["--emit-json", emit])
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = sampler.clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, error = None, traceback.format_exc()
            times.append(sampler.clock() - start)
            report = None
            if not verify and code == 0 and os.path.exists(emit):
                with open(emit, encoding="utf-8") as fh:
                    report = fh.read()
                os.remove(emit)
            answers.append({
                "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "error": error, "report": report,
            })
    return times, answers, sampler.times[first_probe:]


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import equivab
    import numpy  # the splitting oracle's lazy import; set-up time measures it
    from equivab import cli, exactlin

    sampler = Sampler()
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(equivab, clock=sampler.clock)

    docs, emit_dir = plan["docs"], plan["emit_dir"]

    def timed(entry, name, verify, tag):
        entry[name + "_s"], entry[name], entry[name + "_probe"] = run_pass(
            cli, docs, verify, emit_dir, tag, sampler)

    rounds = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        entry = {}
        timed(entry, "compute", False, "c")
        if tracer is None:
            timed(entry, "verify", True, "v")
        else:
            tracer.install()
            try:
                timed(entry, "traced_compute", False, "t")
                timed(entry, "verify", True, "v")
            finally:
                tracer.uninstall()
        rounds.append(entry)
        now = time.perf_counter()
        # start another round only if it should end within the budget
        enough = len(rounds) >= (1 if tracer else MIN_ROUNDS)
        if enough and now + (now - round_start) > started + plan["seconds"]:
            break

    result = {
        "backend": "%s.%s" % (type(exactlin.Q(0)).__module__, type(exactlin.Q(0)).__name__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(rounds))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
