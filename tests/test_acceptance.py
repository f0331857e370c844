"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each test performs its checks, prints a single summary line (bypassing
capture so it is always visible), and then asserts.  Failures are real:
nothing here is weakened to force green.
"""

import random
import time
from fractions import Fraction

from equivab import catalog as cat
from equivab.commutant import (
    classify_ml,
    compute_commutant,
    verify_center_splits,
)
from exact_oracles import rank
from float_split_oracle import schur_split_oracle
from test_commutant import abelianization
from equivab.exactlin import (
    QMatrix,
    Subspace,
    count_real_roots,
    nullspace,
    rref,
)
from equivab.pipeline import InputError, OrbitModel, run_pipeline
from equivab.strata import kernel_s, kernel_s_at_degrees, quotient_abelianization
from equivab.symmetry import TorusAction, enumerate_group
from equivab import io as eio

from test_exactlin import (
    QPolynomial,
    _real_root_count_bisect,
    integer_coeffs,
    squarefree_part,
)


def _finish(capsys, name: str, failures: list, started: float, limit: float):
    elapsed = time.time() - started
    if elapsed > limit:
        failures.append("time %.1fs exceeds limit %.0fs" % (elapsed, limit))
    status = "PASS" if not failures else "FAIL"
    line = "[%s] %s (%.1fs)" % (status, name, elapsed)
    if failures:
        line += " -- " + "; ".join(failures)
    # bypass capture so exactly one line per criterion is always visible
    with capsys.disabled():
        print(line)
    assert not failures, line


def test_criterion_1_matrix_algebra_abelianizations(capsys):
    """gl(n, R/C/H) for n <= 4: abelianization dims 1 / 2 / 1, splits verified."""
    started = time.time()
    failures = []
    for label, make, expected in (
        ("R", cat.gl_n_r, 1),
        ("C", cat.gl_n_c, 2),
        ("H", cat.gl_n_h, 1),
    ):
        for n in range(1, 5):
            a = make(n)
            dim, reps = abelianization(a)
            if dim != expected:
                failures.append(
                    "gl(%d,%s): abelianization dim %d != %d" % (n, label, dim, expected)
                )
            passed, detail = verify_center_splits(a)
            if not passed:
                failures.append("gl(%d,%s): %s" % (n, label, detail))
    _finish(capsys, "criterion-1 matrix-algebra abelianizations", failures, started, 5.0)


FINITE_SUITE = [
    ("sign on R", cat.c2_sign),
    ("-I on R^2", cat.c2_minus_identity),
    ("C3 rotation", cat.c3_rotation),
    ("C4 rotation", cat.c4_rotation),
    ("C2 x C2 signs", cat.c2_x_c2),
    ("D4 on R^2", cat.d4_on_r2),
    ("S3 standard", cat.s3_standard),
    ("S3 standard + sign", cat.s3_standard_plus_sign),
    ("Q8 on R^4", cat.q8_on_r4),
    ("S3 regular - trivial", cat.s3_regular_minus_trivial),
]


def test_criterion_2_finite_group_suite(capsys):
    """>= 10 finite cases: exact (m, l) matches the numeric splitting oracle,
    center/abelianization dimensions agree, and the quotient kernel vanishes
    at the group-order degree bound."""
    started = time.time()
    failures = []
    assert len(FINITE_SUITE) >= 10
    for name, make in FINITE_SUITE:
        g = make()
        a = compute_commutant(g)
        ml = classify_ml(a.center)
        blocks = schur_split_oracle(g, seed=0)
        m_oracle = len(blocks)
        l_oracle = sum(1 for b in blocks if b.schur_type == "C")
        if (ml.m, ml.l) != (m_oracle, l_oracle):
            failures.append(
                "%s: exact (m,l)=(%d,%d) vs oracle (%d,%d)"
                % (name, ml.m, ml.l, m_oracle, l_oracle)
            )
        if not (ml.center_dim == ml.m + ml.l == ml.abelianization_dim):
            failures.append("%s: center/abelianization dims disagree" % name)
        order = len(enumerate_group(g))
        res = kernel_s(g, a.center, order, ml.l)
        if res.dim_s != 0 or res.exactness != "certified":
            failures.append(
                "%s: kernel dim %d (%s) at degree |G|=%d"
                % (name, res.dim_s, res.exactness, order)
            )
    _finish(capsys, "criterion-2 finite-group suite", failures, started, 60.0)


def _random_faithful_weights(rng: random.Random):
    """Random k x m integer weight matrix: faithful, no fixed vectors, columns
    distinct up to sign with multiplicity <= 2."""
    k = rng.randint(1, 3)
    m = rng.randint(k + 1, 6)
    while True:
        cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        seen = {c for c in cols} | {tuple(-x for x in c) for c in cols}
        while len(cols) < m:
            c = tuple(rng.randint(-6, 6) for _ in range(k))
            neg = tuple(-x for x in c)
            if any(c) and c not in seen:
                cols.append(c)
                seen.add(c)
                seen.add(neg)
        if rng.random() < 0.5 and m > k:
            cols[-1] = cols[rng.randrange(k)]  # one repeated column (mult 2)
        weights = tuple(tuple(cols[j][i] for j in range(len(cols))) for i in range(k))
        return weights


def _torus_certificate(g: TorusAction):
    """A small certifying invariant set, grouped by degree 1, 2, ...: every
    block radius |z_j|^2 plus one monomial z^(v+) zbar^(v-) per
    saturated-kernel basis vector v.

    Each polynomial is an honest invariant (its exponent difference is killed
    by the weight matrix).  Its degree bound, the number of groups, is the
    largest degree of these monomials, at which the invariant monomials'
    exponent differences span the saturated kernel lattice: the certification
    condition."""
    from equivab.exactlin import integer_kernel_saturated
    from equivab.symmetry import _z_monomial

    m = g.blocks
    by_degree = {2: []}
    for j in range(m):
        # |z_j|^2 = real part of z_j zbar_j
        aa = tuple(1 if i == j else 0 for i in range(m))
        by_degree[2].append(_z_monomial(aa, aa)[0])
    for v in integer_kernel_saturated(g.weights):
        plus = tuple(max(x, 0) for x in v)
        minus = tuple(max(-x, 0) for x in v)
        polys = by_degree.setdefault(sum(plus) + sum(minus), [])
        for terms in _z_monomial(plus, minus):
            if terms:
                polys.append(terms)
    return [tuple(by_degree.get(d, ())) for d in range(1, max(by_degree) + 1)]


def test_criterion_3_random_torus_kernels(capsys):
    """5 random faithful torus actions: the quotient kernel has dimension k
    (the torus dimension) and the report is R^k + C^(m-k) for m distinct
    weight columns."""
    started = time.time()
    failures = []
    rng = random.Random(20240817)
    for trial in range(5):
        weights = _random_faithful_weights(rng)
        g = TorusAction(weights)
        k = len(g.weights)
        distinct = len({tuple(col) for col in zip(*weights)})
        a = compute_commutant(g)
        ml = classify_ml(a.center)
        z = a.center
        certificate = _torus_certificate(g)
        res = kernel_s_at_degrees(g, z, (len(certificate),), certificate)[0]
        if res.exactness != "certified":
            failures.append("trial %d %r: kernel not certified" % (trial, weights))
            continue
        if res.dim_s != k:
            failures.append(
                "trial %d %r: kernel dim %d != torus dim %d"
                % (trial, weights, res.dim_s, k)
            )
            continue
        q = quotient_abelianization(res, ml)
        if (q.real_rank, q.complex_rank) != (k, distinct - k):
            failures.append(
                "trial %d %r: quotient R^%d + C^%d, expected R^%d + C^%d"
                % (trial, weights, q.real_rank, q.complex_rank, k, distinct - k)
            )
    _finish(capsys, "criterion-3 random torus kernels", failures, started, 30.0)


def test_criterion_4_su3_twelve_dimensional_slice(capsys):
    """su(3) on C^3 + Lambda^2 C^3 (R^12), degree bound 2: central torus of
    dimension 2 with a 1-dimensional degree-bounded kernel, stable at degree 3.

    Note: the two complex summands here are conjugate representations, which
    are isomorphic over R; the computed commutant is 8-dimensional with
    (m, l) = (1, 1), so the dimension-2 torus expectation fails honestly.
    """
    started = time.time()
    failures = []
    g = cat.su3_on_c3_plus_wedge2()
    a = compute_commutant(g)
    ml = classify_ml(a.center)
    z = a.center
    res2 = kernel_s(g, z, 2, ml.l)
    res3 = kernel_s(g, z, 3, ml.l)
    if ml.l != 2:
        failures.append(
            "dim T = %d != 2 (commutant dim %d, (m,l)=(%d,%d): the two "
            "summands are conjugate, hence isomorphic real representations)"
            % (ml.l, a.dim, ml.m, ml.l)
        )
    if res2.dim_s != 1:
        failures.append("kernel dim %d != 1 at degree 2" % res2.dim_s)
    if res3.dim_s != 1:
        failures.append("kernel dim %d != 1 at degree 3 (not stable)" % res3.dim_s)
    if res2.s_basis != res3.s_basis:
        failures.append("kernel basis changed between degrees 2 and 3")
    if res2.exactness != "degree-bounded":
        failures.append("expected degree-bounded exactness, got %s" % res2.exactness)
    _finish(capsys, "criterion-4 su(3) twelve-dimensional slice", failures, started, 120.0)


def test_criterion_4_diagnosis_summands_isomorphic_over_r():
    """The diagnosis of criterion 4, checked exactly: the commutant has an
    element whose block from the C^3 summand (coordinates 0-5) to the
    Lambda^2 C^3 summand (6-11) has rank 6.  The generators are block
    diagonal, so that block intertwines the two summands: an R-linear
    isomorphism between them, which leaves Z(A) one complex factor, not
    two."""
    g = cat.su3_on_c3_plus_wedge2()
    a = compute_commutant(g)
    low, high = range(6), range(6, 12)

    def block(m, rows, cols):
        return QMatrix.from_rows([[m.entries[i][j] for j in cols] for i in rows])

    assert all(block(x, low, high) == QMatrix.zeros(6, 6) == block(x, high, low)
               for x in g.lie_generators)
    across = [block(b, high, low) for b in a.basis]
    isomorphisms = [c for c in across if rank(c) == 6]
    # the kernel's basis has two such elements; the diagnosis needs one
    assert a.dim == 8 and isomorphisms
    for c in isomorphisms:
        assert all(c @ block(x, low, low) == block(x, high, high) @ c for x in g.lie_generators)


def test_criterion_5_report_additivity_and_permutation_invariance(capsys):
    """Totals over several orbits equal the sum of single-orbit totals and do
    not depend on orbit order."""
    started = time.time()
    failures = []
    models = [
        OrbitModel("rot3", cat.c3_rotation()),
        OrbitModel("quat", cat.q8_on_r4()),
        OrbitModel("regular", cat.s3_regular_minus_trivial()),
        OrbitModel("circle", TorusAction(((1, 1),))),
    ]
    singles = [run_pipeline([m]) for m in models]
    joint = run_pipeline(models)
    if joint.real_rank != sum(r.real_rank for r in singles):
        failures.append("real rank is not additive")
    if joint.complex_rank != sum(r.complex_rank for r in singles):
        failures.append("complex rank is not additive")
    rng = random.Random(5)
    for _ in range(3):
        shuffled = models[:]
        rng.shuffle(shuffled)
        rep = run_pipeline(shuffled)
        if (rep.real_rank, rep.complex_rank) != (joint.real_rank, joint.complex_rank):
            failures.append("totals changed under orbit permutation")
            break
    _finish(capsys, "criterion-5 additivity and permutation invariance", failures, started, 60.0)


def test_criterion_6_negative_controls(capsys):
    """Invalid inputs are rejected with informative diagnostics, and a
    non-commutant algebra fails verification naming the failed inclusion."""
    started = time.time()
    failures = []

    passed, detail = verify_center_splits(cat.upper_triangular_2x2())
    if passed:
        failures.append("upper-triangular algebra passed the center-split check")
    elif "Z(A) + [A,A]" not in detail:
        failures.append("center-split failure does not name Z(A)+[A,A]: %r" % detail)

    from equivab.symmetry import FiniteMatrixAction

    try:
        OrbitModel("refl", FiniteMatrixAction(2, (QMatrix.from_rows([[1, 0], [0, -1]]),)))
        failures.append("action with fixed vectors was accepted")
    except InputError as exc:
        if "fixed vector" not in str(exc):
            failures.append("fixed-vector rejection lacks the witness: %r" % str(exc))

    bad_constants = {
        "orbits": [
            {
                "label": "bad",
                "slice_action": {
                    "kind": "finite",
                    "dim": 2,
                    "generators": [[[0, -1], [1, -1]]],
                },
                "isotropy_lie": {
                    "dim": 3,
                    "structure_constants": [
                        [[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
                        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                        [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
                    ],
                },
            }
        ]
    }
    try:
        eio.parse_input(bad_constants, {})
        failures.append("Jacobi-violating structure constants were accepted")
    except InputError as exc:
        if "Jacobi" not in str(exc):
            failures.append("rejection does not mention Jacobi: %r" % str(exc))

    _finish(capsys, "criterion-6 negative controls", failures, started, 60.0)


def test_criterion_7_randomized_exact_linear_algebra(capsys):
    """1000 randomized exact assertions with zero tolerance: RREF idempotence
    and rank-nullity, subspace dimension formulas, and Sturm versus
    Descartes-bisection root counts."""
    started = time.time()
    failures = []
    rng = random.Random(97)
    checks = 0

    def rand_matrix(rows, cols, span=6):
        return QMatrix.from_rows(
            [[Fraction(rng.randint(-span, span), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        )

    # 400 RREF checks
    for _ in range(400):
        m = rand_matrix(rng.randint(1, 5), rng.randint(1, 5))
        red, rk = rref(m)
        red2, rk2 = rref(red)
        if red2 != red or rk2 != rk:
            failures.append("rref not idempotent on %r" % (m.entries,))
            break
        if rk + nullspace(m).dim != m.cols:
            failures.append("rank-nullity fails on %r" % (m.entries,))
            break
        checks += 1

    # 300 subspace modular-dimension checks
    for _ in range(300):
        n = rng.randint(2, 5)
        u = Subspace.from_vectors(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        )
        w = Subspace.from_vectors(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        )
        if u.sum(w).dim + u.intersection(w).dim != u.dim + w.dim:
            failures.append("modular dimension formula fails")
            break
        checks += 1

    # 300 root-count cross-checks
    for _ in range(300):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        p = squarefree_part(QPolynomial.from_coeffs(coeffs))
        if p.degree < 1:
            p = QPolynomial.from_coeffs([rng.randint(1, 5), 1])
        real, pairs = count_real_roots(integer_coeffs(p))
        if real + 2 * pairs != p.degree:
            failures.append("root parity fails for %r" % (p.coeffs,))
            break
        if real != _real_root_count_bisect(p):
            failures.append("Sturm vs bisection disagree for %r" % (p.coeffs,))
            break
        checks += 1

    if not failures and checks != 1000:
        failures.append("expected 1000 checks, ran %d" % checks)
    _finish(capsys, "criterion-7 randomized exact linear algebra", failures, started, 30.0)
