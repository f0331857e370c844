"""Per-layer trace of equivab, taken from outside the program.

`Tracer.install` replaces each traced function by a timing wrapper, both in
the module that defines it and in every `equivab` module that imported it by
name (for example the `nullspace` that `strata` imported from `exactlin`).
Methods are patched on their class, which every caller reaches.  Each span
records calls and self time: its wall time minus the time of traced spans it
called.  A few counters are taken at the same boundaries.  `uninstall`
restores every binding, so traced and untraced passes run in one process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from math import comb

# layer -> traced functions ("Class.method" for methods); the layers are
# equivab's modules, with cli folded into io
SPANS = {
    "exactlin": [
        "rref", "nullspace", "common_nullspace", "solve", "minimal_polynomial",
        "count_real_roots", "integer_kernel_saturated", "Subspace.from_vectors",
        "Subspace.intersection", "SparseRREF.insert",
    ],
    "symmetry": ["enumerate_group", "invariance_constraints", "fixed_vectors"],
    "commutant": [
        "compute_commutant", "center", "commutator_ideal", "verify_center_splits",
        "classify_ml", "schur_split_oracle",
    ],
    "liealg": ["fixed_subalgebra", "quotient_lie_algebra", "lie_abelianization"],
    "strata": [
        "invariants_up_to_degree", "kernel_s", "derivation_action",
        "quotient_abelianization",
    ],
    "pipeline": ["run_orbit", "run_pipeline", "verify_models"],
    "io": ["parse_input", "serialize_report", "format_report"],
    "cli": ["main"],
}
LAYER_OF = {"cli": "io"}
ELIMINATION = {"exactlin.rref", "exactlin.nullspace", "exactlin.solve"}
COUNTERS = [
    "exactlin.matmul.calls",
    "exactlin.elim.cells",
    "exactlin.elim.nnz",
    "exactlin.elim.max_rows",
    "symmetry.enumerate_group.elements",
    "commutant.classify_ml.retries",
    "strata.invariants.monomials",
    "strata.invariants.max_degree",
]
MAXIMA = {"exactlin.elim.max_rows", "strata.invariants.max_degree"}


def span_keys():
    return ["%s.%s" % (mod, fn) for mod, fns in SPANS.items() for fn in fns]


def metric_names():
    """Every per-layer metric a traced run prints, in print order."""
    names = []
    for key in span_keys():
        names += [key + ".calls", key + ".self_s"]
    names += COUNTERS
    names += ["layer.%s.self_s" % layer for layer in SPANS if layer not in LAYER_OF]
    names.append("trace.overhead_frac")
    return names


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [start, time of traced children] per open span
        self._elim_depth = 0
        self._classify_open = 0
        self._classify_start = 0
        self._classify_minpolys = 0
        self._patches = []  # (owner, attribute, original) in install order

    # -- installation -------------------------------------------------------

    def modules(self):
        name = self.package.__name__
        return {
            mod_name: mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == name or mod_name.startswith(name + "."))
        }

    def install(self):
        mods = self.modules()
        for mod, fns in SPANS.items():
            home = mods["%s.%s" % (self.package.__name__, mod)]
            for fn in fns:
                key = "%s.%s" % (mod, fn)
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._span(key, raw.__func__))
                    else:
                        wrapped = self._span(key, raw)
                    self._patch(cls, meth, wrapped)
                    continue
                original = getattr(home, fn)
                wrapper = self._span(key, original)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)
        qmatrix = mods[self.package.__name__ + ".exactlin"].QMatrix
        self._patch(qmatrix, "__matmul__", self._count_only(qmatrix.__matmul__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _count_only(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["exactlin.matmul.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key, fn):
        tracer = self
        stack = self._stack
        clock = self.clock
        enter = {
            "exactlin.minimal_polynomial": self._enter_minimal_polynomial,
            "commutant.classify_ml": self._enter_classify,
            "strata.invariants_up_to_degree": self._enter_invariants,
        }.get(key, self._enter_elimination if key in ELIMINATION else None)
        leave = {"commutant.classify_ml": self._leave_classify}.get(
            key, self._leave_elimination if key in ELIMINATION else None
        )

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer.calls[key] += 1
            if enter is not None:
                enter(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                tracer.self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if leave is not None:
                    leave()
            if key == "symmetry.enumerate_group":
                tracer.counts["symmetry.enumerate_group.elements"] += len(result)
            return result

        return span

    # counters, taken at span boundaries

    def _enter_elimination(self, m, *args, **kwargs):
        # count each matrix once: nullspace calls rref on the same matrix
        if self._elim_depth == 0:
            self.counts["exactlin.elim.cells"] += m.rows * m.cols
            self.counts["exactlin.elim.nnz"] += sum(1 for row in m.entries for x in row if x)
            self.counts["exactlin.elim.max_rows"] = max(
                self.counts["exactlin.elim.max_rows"], m.rows
            )
        self._elim_depth += 1

    def _leave_elimination(self):
        self._elim_depth -= 1

    def _enter_minimal_polynomial(self, *args, **kwargs):
        if self._classify_open:
            self._classify_minpolys += 1

    def _enter_classify(self, *args, **kwargs):
        self._classify_open += 1
        self._classify_start = self._classify_minpolys

    def _leave_classify(self):
        self._classify_open -= 1
        self.counts["commutant.classify_ml.retries"] += (
            self._classify_minpolys - self._classify_start - 1
        )

    def _enter_invariants(self, g, degree, *args, **kwargs):
        n = g.dim
        self.counts["strata.invariants.monomials"] += sum(
            comb(n + d - 1, d) for d in range(1, degree + 1)
        )
        self.counts["strata.invariants.max_degree"] = max(
            self.counts["strata.invariants.max_degree"], degree
        )

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer values per traced round; maxima are not divided."""
        out = {}
        layer_s = defaultdict(float)
        for key in span_keys():
            out[key + ".calls"] = self.calls[key] / rounds
            out[key + ".self_s"] = self.self_s[key] / rounds
            mod = key.split(".")[0]
            layer_s[LAYER_OF.get(mod, mod)] += self.self_s[key] / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] if name in MAXIMA else self.counts[name] / rounds
        for layer in SPANS:
            if layer not in LAYER_OF:
                out["layer.%s.self_s" % layer] = layer_s[layer]
        return out
