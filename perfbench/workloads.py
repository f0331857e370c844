"""Seeded orbit documents for the equivab benchmark.

Every orbit is built from representation-theoretic pieces whose invariants
are known in advance: isotypic multiples of irreducibles with a known Schur
type, torus weight matrices, and standard Lie-algebra representations.  The
expected answer of each orbit is derived from that construction here, never
from equivab's own output, so the benchmark can check every answer the
program prints.

A workload seed changes the basis of the cheaper slices, the basis of the
Lie data, the presentation of each torus and the order of orbits, never the
menu of orbit shapes.  Slices whose cost depends on their coordinates keep
one basis, so runs with different seeds do the same work and their timings
differ only by the machine's noise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

SCHUR_DIM = {"R": 1, "C": 2, "H": 4}

# ---------------------------------------------------------------------------
# small matrix helpers over Fraction


def _m(rows):
    return [[Fraction(x) for x in r] for r in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out


def to_json(mat):
    """Rationals as the input format wants them: ints or "p/q" strings."""
    return [
        [int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
         for x in row]
        for row in mat
    ]


def unimodular(rng: random.Random, n: int, ops: int, permute: bool = True):
    """(P, P^-1) for a signed permutation times `ops` elementary +-1 row
    operations.  Both stay integral, and entry height grows only slowly with
    `ops`; dense random changes of basis make the exact path tens of times
    slower and would swamp every other effect."""
    p = identity(n)
    pinv = identity(n)
    if permute:
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        p = [[Fraction(signs[i] * int(perm[i] == j)) for j in range(n)] for i in range(n)]
        pinv = [[p[j][i] for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        # P <- E P with E = I + s e_i e_j^T; P^-1 <- P^-1 E^-1 (column op)
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= s * row[i]
    return p, pinv


def conjugate(mats, p, pinv):
    return [matmul(matmul(p, g), pinv) for g in mats]


# ---------------------------------------------------------------------------
# finite groups: irreducibles by generator images, one list per group

_S3_SWAP = _m([[-1, 1], [0, 1]])
_S3_CYCLE = _m([[0, -1], [1, -1]])
_QI = _m([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_QJ = _m([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])

# group name -> (order, {irreducible name: (schur type, generator images)})
GROUPS = {
    "c2": (2, {"sign": ("R", [_m([[-1]])])}),
    "c3": (3, {"rot": ("C", [_m([[0, -1], [1, -1]])])}),
    "c4": (4, {
        "rot": ("C", [_m([[0, -1], [1, 0]])]),
        "sign": ("R", [_m([[-1]])]),
    }),
    "c2xc2": (4, {
        "sign1": ("R", [_m([[-1]]), _m([[1]])]),
        "sign2": ("R", [_m([[1]]), _m([[-1]])]),
    }),
    "d4": (8, {"std": ("R", [_m([[0, -1], [1, 0]]), _m([[1, 0], [0, -1]])])}),
    "s3": (6, {
        "std": ("R", [_S3_SWAP, _S3_CYCLE]),
        "sign": ("R", [_m([[-1]]), _m([[1]])]),
    }),
    "q8": (8, {
        "quat": ("H", [_QI, _QJ]),
        "chi": ("R", [_m([[-1]]), _m([[1]])]),
    }),
    # sign changes of seven coordinates: seven distinct real characters
    "c2^7": (128, {
        "sign%d" % i: ("R", [_m([[-1 if j == i else 1]]) for j in range(7)])
        for i in range(7)
    }),
}


def isotypic_slice(group: str, parts):
    """Generators of sum(mult * irreducible) and the expected answer.

    `parts` is a list of (irreducible name, multiplicity) with distinct
    irreducibles.  The commutant is the product of M_mult(D) over the parts,
    D = R, C or H by Schur type, so its dimension is sum mult^2 dim D, it has
    one simple factor per part, and the complex-type parts count toward l.
    """
    order, irreps = GROUPS[group]
    ngens = len(next(iter(irreps.values()))[1])
    gens = []
    for k in range(ngens):
        blocks = []
        for name, mult in parts:
            blocks.extend([irreps[name][1][k]] * mult)
        gens.append(block_diag(blocks))
    types = [irreps[name][0] for name, _ in parts]
    return gens, order, _expected(
        commutant_dim=sum(mult * mult * SCHUR_DIM[irreps[name][0]] for name, mult in parts),
        m=len(parts),
        l=types.count("C"),
    )


def s3_regular_minus_trivial():
    """S3 acting on the sum-zero part of its regular representation, in the
    basis e_g - e_last.  It is sign + 2 std, so the commutant is R x M_2(R)."""
    elems = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}

    def image(p):
        cols = [index[tuple(p[g[i]] for i in range(3))] for g in elems]
        six = [[int(i == cols[j]) for j in range(6)] for i in range(6)]
        return [[Fraction(six[i][j] - six[i][5]) for j in range(5)] for i in range(5)]

    gens = [image((1, 0, 2)), image((1, 2, 0))]
    return gens, 6, _expected(commutant_dim=5, m=2, l=0)


def _expected(commutant_dim, m, l):
    return {
        "commutant_dim": commutant_dim,
        "m": m,
        "l": l,
        "center_dim": m + l,
        "abelianization_dim": m + l,
        "derived_dim": commutant_dim - (m + l),
        "center_split_passed": True,
        "lie_summand_dim": None,
        "quotient": None,
    }


def finite_orbit(rng, label, gens, order, expect, ops, permute=True, quotient=False):
    n = len(gens[0])
    p, pinv = unimodular(rng, n, ops, permute)
    doc = {
        "label": label,
        "slice_action": {
            "kind": "finite",
            "dim": n,
            "generators": [to_json(g) for g in conjugate(gens, p, pinv)],
        },
    }
    expect = dict(expect, kind="finite", group_order=order)
    if quotient:
        doc["quotient"] = True
        # finite group at the default degree bound |G|: certified and s = 0
        expect["quotient"] = {"k": 0, "exactness": "certified"}
    return doc, expect


# ---------------------------------------------------------------------------
# Lie data for the isotropy summand


def _so3():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k], c[j][i][k] = 1, -1
    return c


def _sl2():
    # basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1], c[1][0][1] = 2, -2
    c[0][2][2], c[2][0][2] = -2, 2
    c[1][2][0], c[2][1][0] = 1, -1
    return c


# (algebra, automorphisms, h basis, dim of (k^H / h^H)^ab), worked by hand:
#  - so(3), rotation by pi about e3: k^H = <e3>, h = 0, answer 1
#  - so(3), rotation by pi/2 about e3: k^H = <e3> = h^H, answer 0
#  - sl(2), h -> -h, e <-> f: k^H = <e + f>, h = 0, answer 1
#  - sl(2), e -> -e, f -> -f: k^H = <h> = h^H, answer 0
#  - so(3), no action: k^H = so(3), perfect, answer 0
LIE_TEMPLATES = [
    (_so3, [_m([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])], [], 1),
    (_so3, [_m([[0, -1, 0], [1, 0, 0], [0, 0, 1]])], [[0, 0, 1]], 0),
    (_sl2, [_m([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])], [], 1),
    (_sl2, [_m([[1, 0, 0], [0, -1, 0], [0, 0, -1]])], [[1, 0, 0]], 0),
    (_so3, [], [], 0),
]


def isotropy_lie(rng: random.Random, template):
    """Lie data of one template in a random rational basis B = P D."""
    make, autos, h, answer = template
    c = [[[Fraction(x) for x in row] for row in plane] for plane in make()]
    n = len(c)
    p, pinv = unimodular(rng, n, 2)
    d = [rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))) for _ in range(n)]
    b = [[p[i][j] * d[j] for j in range(n)] for i in range(n)]
    binv = [[pinv[i][j] / d[i] for j in range(n)] for i in range(n)]

    def bracket(x, y):
        out = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k in range(n):
                        out[k] += x[i] * y[j] * c[i][j][k]
        return out

    cols = [[b[r][i] for r in range(n)] for i in range(n)]
    new_c = [
        [[sum(binv[k][r] * v for r, v in enumerate(bracket(cols[i], cols[j])))
          for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    doc = {
        "dim": n,
        "structure_constants": [to_json(plane) for plane in new_c],
        "h_basis": [
            to_json([[sum(binv[k][r] * Fraction(v[r]) for r in range(n)) for k in range(n)]])[0]
            for v in h
        ],
        "automorphisms": [to_json(matmul(matmul(binv, a), b)) for a in autos],
    }
    return doc, answer


# ---------------------------------------------------------------------------
# connected groups and tori


def realify(re, im):
    """Real 2n x 2n matrix of re + i im on C^n, coordinates (x0, y0, x1, ...)."""
    n = len(re)
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            out[2 * a][2 * b] = re[a][b]
            out[2 * a][2 * b + 1] = -im[a][b]
            out[2 * a + 1][2 * b] = im[a][b]
            out[2 * a + 1][2 * b + 1] = re[a][b]
    return out


def su_basis(n):
    """su(n) as (real part, imaginary part) pairs of complex n x n matrices."""
    def unit(i, j):
        return [[Fraction(int((r, s) == (i, j))) for s in range(n)] for r in range(n)]

    def add(a, b, sb=1):
        return [[x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    zero = [[Fraction(0)] * n for _ in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append((add(unit(i, j), unit(j, i), -1), zero))
            out.append((zero, add(unit(i, j), unit(j, i))))
    for i in range(n - 1):
        out.append((zero, add(unit(i, i), unit(i + 1, i + 1), -1)))
    return out


def su_on_cn(n, copies=1):
    """su(n) acting on copies of C^n.  For n = 2 the irreducible is of
    quaternionic type, for n >= 3 of complex type, so the commutant is
    M_copies(H) or M_copies(C)."""
    gens = [block_diag([realify(re, im)] * copies) for re, im in su_basis(n)]
    dtype = "H" if n == 2 else "C"
    return gens, _expected(
        commutant_dim=copies * copies * SCHUR_DIM[dtype], m=1, l=int(dtype == "C")
    )


def su3_on_c3_plus_wedge2():
    """su(3) on C^3 + Lambda^2 C^3 = R^12.  The two summands are conjugate,
    hence isomorphic real representations: commutant M_2(C), (m, l) = (1, 1).
    Multiplication by i generates the kernel s, so k = 1."""
    gens = []
    for re, im in su_basis(3):
        lam_re = [[-re[j][i] for j in range(3)] for i in range(3)]
        lam_im = [[-im[j][i] for j in range(3)] for i in range(3)]
        gens.append(block_diag([realify(re, im), realify(lam_re, lam_im)]))
    return gens, _expected(commutant_dim=8, m=1, l=1)


def connected_orbit(label, gens, expect, k):
    """Connected slice with quotient, in its standard basis: the cost of its
    invariants depends on the order of coordinates.  `k` is the dimension of
    s, which holds at every degree >= 2 because the radius squared is
    invariant there."""
    doc = {
        "label": label,
        "slice_action": {
            "kind": "connected_lie",
            "dim": len(gens[0]),
            "generators": [to_json(g) for g in gens],
        },
        "quotient": True,
    }
    expect = dict(expect, kind="connected_lie",
                  quotient={"k": k, "exactness": "degree-bounded"})
    return doc, expect


def torus_orbit(label, weights):
    """Torus on C^m: columns equal up to sign span one complex isotypic
    block, so the commutant is a product of M_mu(C)."""
    k = len(weights)
    classes = {}
    for col in zip(*weights):
        key = max(col, tuple(-x for x in col))
        classes[key] = classes.get(key, 0) + 1
    expect = _expected(
        commutant_dim=sum(2 * mu * mu for mu in classes.values()),
        m=len(classes),
        l=len(classes),
    )
    # certified: s is the torus Lie algebra; degree-bounded: an upper bound
    expect.update(kind="torus", quotient={"torus_dim": k})
    doc = {"label": label, "slice_action": {"kind": "torus", "weights": weights}, "quotient": True}
    return doc, expect


# ---------------------------------------------------------------------------
# the bundled example document, copied so the workload cannot drift

EXAMPLE_DOC = {
    "orbits": [
        {
            "label": "rotation-order-3",
            "slice_action": {"kind": "finite", "dim": 2, "generators": [[[0, -1], [1, -1]]]},
            "quotient": True,
        },
        {
            "label": "quaternion-slice",
            "slice_action": {
                "kind": "finite",
                "dim": 4,
                "generators": [
                    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                ],
            },
        },
        {
            "label": "diagonal-circle",
            "slice_action": {"kind": "torus", "weights": [[1, 1]]},
            "quotient": True,
        },
    ],
    "options": {"seed": 0},
}


def _example_expectations():
    rot = dict(_expected(2, 1, 1), kind="finite", group_order=3,
               quotient={"k": 0, "exactness": "certified"})
    quat = dict(_expected(4, 1, 0), kind="finite", group_order=8)
    circle = torus_orbit("diagonal-circle", [[1, 1]])[1]
    return [rot, quat, circle]


# ---------------------------------------------------------------------------
# workloads: each returns a list of (document, [expectation per orbit])


def _documents(rng, pairs, options=None):
    """One document per orbit, in seeded order, so that an orbit that makes
    the program exit nonzero fails alone."""
    rng.shuffle(pairs)
    out = []
    for doc, expect in pairs:
        document = {"orbits": [doc]}
        if options:
            document["options"] = options
        out.append((document, [expect]))
    return out


# (group, parts) of the commutant-dense menu: R, C and H isotypic multiples
# (multiplicity 2-4, slice dimension <= 8) and sums of two Schur types
DENSE_MENU = [
    ("c2", [("sign", 4)]),
    ("s3", [("std", 3)]),
    ("c3", [("rot", 3)]),
    ("c4", [("rot", 2), ("sign", 2)]),
    ("q8", [("quat", 2)]),
    ("q8", [("quat", 1), ("chi", 3)]),
    ("s3", [("std", 2), ("sign", 2)]),
]


def commutant_dense(rng: random.Random):
    pairs = []
    for i, (group, parts) in enumerate(DENSE_MENU):
        gens, order, expect = isotypic_slice(group, parts)
        label = "dense-%d-%s-%s" % (i, group, "+".join("%s%d" % p for p in parts))
        # The cost of Q8 depends on its coordinates: seeded basis changes of
        # its slices moved the whole workload by up to 20%.  So they get one
        # basis change, the same for every seed.
        basis_rng = random.Random("commutant-dense/%d" % i) if group == "q8" else rng
        doc, expect = finite_orbit(basis_rng, label, gens, order, expect, ops=2)
        if i < len(LIE_TEMPLATES):
            doc["isotropy_lie"], expect["lie_summand_dim"] = isotropy_lie(rng, LIE_TEMPLATES[i])
        pairs.append((doc, expect))
    # Center R^7 in its standard basis: the program's first random central
    # element (seed 0) repeats an eigenvalue, so classify_ml retries once.
    gens, order, expect = isotypic_slice("c2^7", [("sign%d" % i, 1) for i in range(7)])
    pairs.append(finite_orbit(rng, "dense-signs-c2^7", gens, order, expect, ops=0,
                              permute=False))
    return _documents(rng, pairs) + [(EXAMPLE_DOC, _example_expectations())]


# the ten finite groups of the acceptance suite (criterion 2)
FINITE_SUITE = [
    ("c2", [("sign", 1)]),
    ("c2", [("sign", 2)]),
    ("c3", [("rot", 1)]),
    ("c4", [("rot", 1)]),
    ("c2xc2", [("sign1", 1), ("sign2", 1)]),
    ("d4", [("std", 1)]),
    ("s3", [("std", 1)]),
    ("s3", [("std", 1), ("sign", 1)]),
    ("q8", [("quat", 1)]),
]


def finite_quotient(rng: random.Random):
    pairs = []
    for i, (group, parts) in enumerate(FINITE_SUITE):
        gens, order, expect = isotypic_slice(group, parts)
        label = "finite-%d-%s-%s" % (i, group, "+".join("%s%d" % p for p in parts))
        # Averaging monomials gets much dearer as entries grow, and even the
        # order of coordinates moves the cost of Q8 at degree 8, which
        # dominates this workload.  So the seed only relabels coordinates,
        # and Q8 keeps the catalog's basis: every seed then costs the same.
        pairs.append(finite_orbit(rng, label, gens, order, expect, ops=0,
                                  permute=group != "q8", quotient=True))
    # the quotient of S3 on its regular part costs 7 s in compute mode and
    # 27 s in verify mode, more than a whole run, so only its commutant is asked
    gens, order, expect = s3_regular_minus_trivial()
    pairs.append(finite_orbit(rng, "finite-9-s3-regular-minus-trivial", gens, order, expect, ops=1))
    pairs.append(torus_orbit("circle", [[1, 1]]))
    _add_lie_data(rng, pairs)
    return _documents(rng, pairs)


def _add_lie_data(rng, pairs):
    """Give two orbits Lie data.  With this and one small orbit of another
    kind in each quotient workload, every traced function runs on every
    workload, if only briefly, so no per-layer time is a constant zero."""
    for (doc, expect), template in zip(pairs[:2], LIE_TEMPLATES[:2]):
        doc["isotropy_lie"], expect["lie_summand_dim"] = isotropy_lie(rng, template)


# base weights of the tori, each certified at degree 3: the saturated
# kernel lattice has a basis of exponent differences of degree <= 3
TORI = [
    [[1, 2]],
    [[1, 2, 3]],
    [[1, 0, 1], [0, 1, 1]],
    [[1, 0, 1, 1], [0, 1, 1, -1]],
]


def torus_presentation(rng: random.Random, weights):
    """The same torus image in other coordinates: unimodular row operations
    (another basis of the torus), a permutation of the complex blocks, and
    conjugated blocks (negated columns).  The invariants, hence the cost and
    the answer, do not change."""
    rows = [list(r) for r in weights]
    k, m = len(rows), len(rows[0])
    for _ in range(2 if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        s = rng.choice((1, -1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    if k == 1 and rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    order = list(range(m))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return [[signs[c] * row[c] for c in order] for row in rows]


def continuous_quotient(rng: random.Random):
    gens, expect = su_on_cn(2, copies=2)
    su2 = connected_orbit("su2-on-c2+c2", gens, expect, k=0)
    gens, expect = su_on_cn(3)
    su3 = connected_orbit("su3-on-c3", gens, expect, k=1)
    gens, order, expect = isotypic_slice("c3", [("rot", 1)])
    rot = finite_orbit(rng, "c3-rot", gens, order, expect, ops=1)
    tori = [torus_orbit("torus-%d" % i, torus_presentation(rng, w)) for i, w in enumerate(TORI)]
    out = []
    for pairs, degree in (([su2, su3, rot], 2), (tori, 3)):
        _add_lie_data(rng, pairs)
        out += _documents(rng, pairs, {"degree_bound": degree})
    return out


WORKLOADS = {
    "commutant-dense": commutant_dense,
    "finite-quotient": finite_quotient,
    "continuous-quotient": continuous_quotient,
}


def generate(workload: str, seed: int):
    """[(document, expectations)] of a workload; the same seed gives the
    same documents."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
