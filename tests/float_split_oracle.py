"""The floating-point splitting oracle, for tests only.

An independent numeric decomposition of a finite group's representation into
isotypic blocks.  It shares no code with the exact path: tests compare its
(m, l) with `classify_ml`, on the groups where verify's exact finite-group
checks pass.
"""

from dataclasses import dataclass

import numpy as np

from equivab.symmetry import FiniteMatrixAction

# schur_split_oracle's relative tolerances: eigenvalues closer than
# SPLIT_EIG_TOL cluster, singular values below SPLIT_RANK_TOL count as zero
SPLIT_EIG_TOL = 1e-8
SPLIT_RANK_TOL = 1e-9


@dataclass(frozen=True)
class IsotypicBlock:
    multiplicity: int
    irreducible_dim: int
    schur_type: str  # "R", "C" or "H"


class IllConditionedSplitError(RuntimeError):
    """A numerical rank decision fell inside the tolerance band."""


def schur_split_oracle(g: FiniteMatrixAction, seed: int = 0) -> list[IsotypicBlock]:
    """Independent numeric decomposition into isotypic blocks.

    Splits V by eigenspaces of Reynolds-averaged random symmetric operators,
    recursing until each summand has commutant dimension 1, 2 or 4, then
    groups isomorphic summands by a nonzero-equivariant-hom test.
    """
    raw = [np.array([[float(x) for x in row] for row in el.entries])
           for el in g.elements]
    n = g.dim
    # orthogonalize the representation: average the Gram matrix and change
    # coordinates so every element becomes orthogonal
    gram = sum(e.T @ e for e in raw) / len(raw)
    lchol = np.linalg.cholesky(gram)
    linv_t = np.linalg.inv(lchol.T)
    elems = [lchol.T @ e @ linv_t for e in raw]
    rng = np.random.default_rng(seed)

    def _nullity(mat):
        s = np.linalg.svd(mat, compute_uv=False)
        scale = max(1.0, s[0])
        small = s < SPLIT_RANK_TOL * scale
        border = np.logical_and(
            s >= SPLIT_RANK_TOL * scale, s < 10 * SPLIT_RANK_TOL * scale
        )
        if border.any():
            raise IllConditionedSplitError("rank decision near tolerance; re-randomize")
        return mat.shape[1] - int((~small).sum())

    def _constraint(basis):
        k = basis.shape[1]
        rows = []
        for e in elems:
            r = basis.T @ e @ basis
            rows.append(np.kron(r, np.eye(k)) - np.kron(np.eye(k), r.T))
        return np.vstack(rows), k

    def commutant_dim(basis):
        # dim of equivariant endomorphisms of the subspace spanned by basis cols
        mat, _ = _constraint(basis)
        return _nullity(mat)

    def sym_commutant_dim(basis):
        # dim of equivariant *symmetric* endomorphisms; equals 1 exactly when
        # the summand is irreducible (the action is orthogonal here)
        mat, k = _constraint(basis)
        cols = []
        for i in range(k):
            for j in range(i, k):
                v = np.zeros((k, k))
                v[i, j] = v[j, i] = 1.0
                cols.append(v.reshape(-1))
        return _nullity(mat @ np.array(cols).T)

    def split(basis):
        k = basis.shape[1]
        # Reynolds-average a random symmetric operator on the summand
        x = rng.standard_normal((k, k))
        x = x + x.T
        avg = np.zeros((k, k))
        for e in elems:
            r = basis.T @ e @ basis  # orthogonal restricted action
            avg += r.T @ x @ r
        avg = avg / len(elems)
        w, v = np.linalg.eigh(avg)
        # cluster eigenvalues
        scale = max(1.0, np.abs(w).max())
        clusters = []
        for i, val in enumerate(w):
            if clusters and abs(val - w[clusters[-1][-1]]) < SPLIT_EIG_TOL * scale:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        if len(clusters) == 1:
            return [basis]
        out = []
        for cl in clusters:
            sub = basis @ v[:, cl]
            # re-orthonormalize
            q, _ = np.linalg.qr(sub)
            out.append(q)
        return out

    # recursively split until each summand is irreducible
    pending = [np.eye(n)]
    leaves = []
    guard = 0
    while pending:
        guard += 1
        if guard > 20 * n + 40:
            raise IllConditionedSplitError("splitting did not terminate")
        basis = pending.pop()
        if sym_commutant_dim(basis) == 1:
            leaves.append(basis)
            continue
        parts = split(basis)
        if len(parts) == 1:
            # random operator failed to split; retry is built into the loop
            pending.append(basis)
            continue
        pending.extend(parts)

    # group leaves into isotypic blocks via a nonzero equivariant hom test
    blocks: list[list] = []
    for leaf in leaves:
        placed = False
        for blk in blocks:
            rep = blk[0]
            x = rng.standard_normal((rep.shape[1], leaf.shape[1]))
            hom = np.zeros_like(x)
            for e in elems:
                hom += (rep.T @ e @ rep) @ x @ (leaf.T @ e @ leaf).T
            hom /= len(elems)
            if np.linalg.norm(hom) > 1e-6:
                blk.append(leaf)
                placed = True
                break
        if not placed:
            blocks.append([leaf])

    out = []
    type_names = {1: "R", 2: "C", 4: "H"}
    for blk in blocks:
        cd = commutant_dim(blk[0])
        out.append(
            IsotypicBlock(
                multiplicity=len(blk),
                irreducible_dim=blk[0].shape[1],
                schur_type=type_names[cd],
            )
        )
    return sorted(out, key=lambda b: (b.irreducible_dim, b.schur_type, b.multiplicity))
