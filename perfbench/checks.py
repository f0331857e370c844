"""Checks of equivab's answers against the values known from construction.

Each function returns one failure reason per orbit of a document, or None
for an orbit whose answer is right.  An orbit also fails when its document
raised or exited nonzero.
"""

from __future__ import annotations

import json
import re

FIELDS = (
    "commutant_dim", "m", "l", "center_dim", "abelianization_dim",
    "derived_dim", "center_split_passed", "lie_summand_dim",
)
VERIFY_LINE = re.compile(r"^\[(pass|FAIL)\] (.+?): ([a-z-]+)(?: \((.*)\))?$")
KERNEL_DETAIL = re.compile(r"^dim at (\d+): (\d+), at (\d+): (\d+)$")


def _document_failed(answer, expects, mode):
    if answer["error"] is not None:
        return ["%s raised: %s" % (mode, answer["error"].strip().splitlines()[-1])] * len(expects)
    if answer["code"] != 0:
        reason = "%s exited %s: %s" % (mode, answer["code"], answer["stderr"].strip()[-200:])
        return [reason] * len(expects)
    return None


def _quotient_failure(q, e):
    want = e["quotient"]
    if want is None:
        return None if q is None else "unrequested quotient %r" % (q,)
    if q is None:
        return "missing quotient"
    k = q["k"]
    if "torus_dim" in want:
        # certified: s is exactly the torus; degree-bounded: an upper bound
        t = want["torus_dim"]
        ok = (q["exactness"] == "certified" and k == t) or (
            q["exactness"] == "degree-bounded" and k >= t)
        if not ok:
            return "torus of dim %d: k = %d (%s)" % (t, k, q["exactness"])
    elif (k, q["exactness"]) != (want["k"], want["exactness"]):
        return "quotient k = %d (%s), expected %d (%s)" % (
            k, q["exactness"], want["k"], want["exactness"])
    shape = (q["dim"], q["real_rank"], q["complex_rank"])
    expected = (e["center_dim"] - k, e["m"] - e["l"] + k, e["l"] - k)
    if shape != expected:
        return "quotient (dim, R, C) = %r, expected %r" % (shape, expected)
    return None


def check_compute(answer, labels, expects):
    failed = _document_failed(answer, expects, "compute")
    if failed:
        return failed
    try:
        report = json.loads(answer["report"])
    except (TypeError, ValueError) as exc:
        return ["no JSON report: %s" % exc] * len(expects)
    orbits = report.get("orbits", [])
    if [o.get("label") for o in orbits] != labels:
        return ["report orbits %r" % ([o.get("label") for o in orbits],)] * len(expects)
    out = []
    for o, e in zip(orbits, expects):
        wrong = ["%s = %r, expected %r" % (f, o.get(f), e[f]) for f in FIELDS if o.get(f) != e[f]]
        q = _quotient_failure(o.get("quotient"), e)
        if q:
            wrong.append(q)
        out.append("; ".join(wrong) or None)
    totals = report["totals"]
    quot = [o["quotient"] for o in orbits if o["quotient"] is not None]
    expected_totals = {
        "real_rank": sum(e["m"] - e["l"] for e in expects),
        "complex_rank": sum(e["l"] for e in expects),
        "lie_dims": [e["lie_summand_dim"] for e in expects if e["lie_summand_dim"] is not None],
        "quotient_real_rank": sum(q["real_rank"] for q in quot) if quot else None,
        "quotient_complex_rank": sum(q["complex_rank"] for q in quot) if quot else None,
    }
    if totals != expected_totals:
        reason = "totals %r, expected %r" % (totals, expected_totals)
        out = [o or reason for o in out]
    return out


def _expected_checks(e):
    names = {"commutant-residual", "center-splits", "center-dim-arithmetic"}
    if e["kind"] == "finite":
        names |= {"classification-vs-split-oracle", "block-dimension-arithmetic"}
    if e["quotient"] is not None:
        names.add("kernel-monotonicity")
        if e["kind"] == "finite":
            names.add("finite-kernel-vanishes")
    return names


def _kernel_failure(detail, e, degree):
    match = KERNEL_DETAIL.match(detail or "")
    if not match:
        return "kernel-monotonicity detail %r" % detail
    d1, k1, d2, k2 = map(int, match.groups())
    if degree is None:
        degree = e["group_order"] if e["kind"] == "finite" else 2
    if (d1, d2) != (degree, degree + 1):
        return "kernel checked at degrees %d, %d, expected %d" % (d1, d2, degree)
    want = e["quotient"]
    if "torus_dim" in want:
        ok = k1 >= want["torus_dim"] and k2 >= want["torus_dim"]
    else:
        ok = k1 == k2 == want["k"]
    return None if ok else "kernel dims %d, %d at degrees %d, %d" % (k1, k2, d1, d2)


def check_verify(answer, labels, expects, degree):
    """`degree` is the document's degree bound, None for the default."""
    failed = _document_failed(answer, expects, "verify")
    if failed:
        return failed
    lines = answer["stdout"].splitlines()
    if not lines or lines[-1] != "verification passed":
        return ["verify did not pass"] * len(expects)
    seen = {label: {} for label in labels}
    for line in lines[:-1]:
        match = VERIFY_LINE.match(line)
        if match is None or match.group(2) not in seen:
            return ["unexpected verify line %r" % line] * len(expects)
        status, label, check, detail = match.groups()
        seen[label][check] = (status, detail)
    out = []
    for label, e in zip(labels, expects):
        checks = seen[label]
        wrong = []
        if set(checks) != _expected_checks(e):
            wrong.append("checks %s" % sorted(checks))
        wrong += ["[FAIL] %s" % c for c, (status, _) in checks.items() if status != "pass"]
        if "kernel-monotonicity" in checks:
            k = _kernel_failure(checks["kernel-monotonicity"][1], e, degree)
            if k:
                wrong.append(k)
        out.append("; ".join(wrong) or None)
    return out
