#!/usr/bin/env python3
"""Degree-stability experiment for su(3) acting on C^3 + wedge^2 C^3 = R^12.

Computes the commutant and its center exactly, then the central kernel of the
quotient action at increasing invariant degree bounds, printing the kernel
dimension at each bound.  The two complex summands are conjugate and hence
isomorphic as real representations, so the commutant is 8-dimensional with
(m, l) = (1, 1): the central torus has dimension 1, and the kernel stays
1-dimensional (the whole torus acts trivially on the computed invariants).
"""

import time

from equivab import catalog as cat
from equivab.commutant import classify_ml, compute_commutant
from equivab.strata import kernel_s

def main():
    g = cat.su3_on_c3_plus_wedge2()
    t0 = time.time()
    a = compute_commutant(g)
    ml = classify_ml(a)
    z = a.center
    print("commutant dim %d, (m, l) = (%d, %d), center dim %d  [%.2fs]"
          % (a.dim, ml.m, ml.l, z.dim, time.time() - t0))
    for degree in (2, 3):
        t0 = time.time()
        res = kernel_s(g, z, degree=degree)
        print("degree %d: dim T = %d, dim S = %d (%s)  [%.2fs]"
              % (degree, ml.l, res.dim_s, res.exactness, time.time() - t0))


if __name__ == "__main__":
    main()
