#!/usr/bin/env python3
"""Walk the built-in catalog of slice actions and print the full report for
each: commutant dimension, (m, l) classification, center-split check, the
exact finite-group checks against the span of G where they apply, and the
quotient-side decomposition."""

import time

from equivab import catalog as cat
from equivab.commutant import (
    classify_ml,
    compute_commutant,
    schur_split_oracle,
    verify_center_splits,
)
from equivab.strata import kernel_s, quotient_abelianization
from equivab.symmetry import FiniteMatrixAction, TorusAction

CASES = [
    ("sign on R", cat.c2_sign()),
    ("-I on R^2", cat.c2_minus_identity()),
    ("C3 rotation on R^2", cat.c3_rotation()),
    ("C4 rotation on R^2", cat.c4_rotation()),
    ("C2 x C2 signs", cat.c2_x_c2()),
    ("D4 on R^2", cat.d4_on_r2()),
    ("S3 standard", cat.s3_standard()),
    ("S3 standard + sign", cat.s3_standard_plus_sign()),
    ("Q8 on R^4", cat.q8_on_r4()),
    ("S3 regular - trivial", cat.s3_regular_minus_trivial()),
    ("diagonal circle on C^2", TorusAction(((1, 1),))),
    ("weight-(1,2) circle", TorusAction(((1, 2),))),
    ("su(2) on C^2", cat.su2_on_c2()),
    ("su(3) on C^3 + wedge^2 C^3", cat.su3_on_c3_plus_wedge2()),
]


def main():
    for name, g in CASES:
        t0 = time.time()
        a = compute_commutant(g)
        ml = classify_ml(a.center)
        split_passed, _ = verify_center_splits(a)
        line = "%-28s commutant %2d  (m,l)=(%d,%d)  split=%s" % (
            name, a.dim, ml.m, ml.l, "ok" if split_passed else "FAIL"
        )
        if isinstance(g, FiniteMatrixAction):
            checks = schur_split_oracle(g, a)
            line += "  span-G checks=%s" % (
                "ok" if all(passed for passed, _ in checks) else "FAIL"
            )
        # a finite group's or a torus's kernel is its floor at every bound;
        # a connected group's is zero where l = 0, else it is read from its
        # invariants to degree 2
        res = kernel_s(g, a.center, g.default_degree_bound, ml.l)
        q = quotient_abelianization(res, ml)
        line += "  quotient R^%d+C^%d (k=%d, %s)" % (
            q.real_rank, q.complex_rank, q.k, q.exactness
        )
        line += "  [%.2fs]" % (time.time() - t0)
        print(line)


if __name__ == "__main__":
    main()
