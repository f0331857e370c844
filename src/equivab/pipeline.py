"""Orbit records, the end-to-end computation, and report assembly."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import commutant as comm
from . import liealg, strata
from .symmetry import (
    FiniteMatrixAction,
    GroupAction,
    action_generators,
    fixed_vectors,
)


class InputError(ValueError):
    """Invalid orbit data; message carries the location."""


class PipelineError(RuntimeError):
    """A module error, annotated with the orbit label it occurred in."""


@dataclass(frozen=True)
class OrbitModel:
    """One isolated-orbit record: isotropy action on the slice, plus optional
    ambient Lie-algebra data."""

    label: str
    slice_action: GroupAction
    isotropy_lie: liealg.IsotropyData | None = None
    quotient_requested: bool = False

    def __post_init__(self):
        fixed = fixed_vectors(self.slice_action)
        if fixed.dim != 0:
            raise InputError(
                "orbit %r is not isolated: the slice has fixed vector %s"
                % (self.label, fixed.basis[0])
            )


@dataclass(frozen=True)
class OrbitResult:
    label: str
    commutant_dim: int
    m: int
    l: int
    center_dim: int
    abelianization_dim: int
    center_split_passed: bool
    derived_dim: int
    lie_summand_dim: int | None = None
    quotient: strata.QuotientReport | None = None


@dataclass(frozen=True)
class AbelianizationReport:
    """Totals of the direct-sum answer over all orbit records."""

    orbits: tuple[OrbitResult, ...]
    real_rank: int
    complex_rank: int
    lie_dims: tuple[int, ...]
    quotient_real_rank: int | None = None
    quotient_complex_rank: int | None = None

    def to_dict(self) -> dict:
        """The JSON report: {"orbits": [...], "totals": {...}}, fields in
        declaration order."""
        totals = asdict(self)
        return {"orbits": list(totals.pop("orbits")), "totals": totals}

    @staticmethod
    def from_dict(doc: dict) -> "AbelianizationReport":
        orbits = []
        for o in doc["orbits"]:
            q = o.get("quotient")
            orbits.append(OrbitResult(**{
                **o, "quotient": None if q is None else strata.QuotientReport(**q)
            }))
        t = doc["totals"]
        return AbelianizationReport(
            orbits=tuple(orbits), **{**t, "lie_dims": tuple(t["lie_dims"])}
        )


def _lie_summand_dim(data: liealg.IsotropyData) -> int:
    k_fixed = liealg.fixed_subalgebra(data)
    h_fixed = k_fixed.intersection(data.h_basis)
    quotient = liealg.quotient_lie_algebra(k_fixed, h_fixed, data.k)
    dim, _ = liealg.lie_abelianization(quotient)
    return dim


def run_orbit(
    model: OrbitModel, seed: int = 0, degree_bound: int | None = None
) -> OrbitResult:
    g = model.slice_action
    algebra = comm.compute_commutant(g)
    split = comm.verify_center_splits(algebra)
    ml = comm.classify_ml(algebra, seed=seed)
    lie_dim = None
    if model.isotropy_lie is not None:
        lie_dim = _lie_summand_dim(model.isotropy_lie)
    quotient = None
    if model.quotient_requested:
        d = degree_bound if degree_bound is not None else default_degree_bound(g)
        z = comm.center(algebra)
        ker = strata.kernel_s(g, z, d, ml)
        quotient = strata.quotient_abelianization(z, ker, ml)
    return OrbitResult(
        label=model.label,
        commutant_dim=algebra.dim,
        m=ml.m,
        l=ml.l,
        center_dim=ml.center_dim,
        abelianization_dim=ml.abelianization_dim,
        center_split_passed=split.passed,
        derived_dim=split.derived_dim,
        lie_summand_dim=lie_dim,
        quotient=quotient,
    )


def default_degree_bound(g: GroupAction) -> int:
    """Noether bound for finite groups; small fixed bound otherwise."""
    if isinstance(g, FiniteMatrixAction):
        return g.order
    return 2


def run_pipeline(
    models: list[OrbitModel], seed: int = 0, degree_bound: int | None = None
) -> AbelianizationReport:
    results = []
    for model in models:
        try:
            results.append(run_orbit(model, seed=seed, degree_bound=degree_bound))
        except Exception as exc:
            raise PipelineError("orbit %r: %s" % (model.label, exc)) from exc
    real = sum(r.m - r.l for r in results)
    cplx = sum(r.l for r in results)
    lie_dims = tuple(r.lie_summand_dim for r in results if r.lie_summand_dim is not None)
    quot = [r.quotient for r in results if r.quotient is not None]
    return AbelianizationReport(
        orbits=tuple(results),
        real_rank=real,
        complex_rank=cplx,
        lie_dims=lie_dims,
        quotient_real_rank=sum(q.real_rank for q in quot) if quot else None,
        quotient_complex_rank=sum(q.complex_rank for q in quot) if quot else None,
    )


# ---------------------------------------------------------------------------
# verify mode


@dataclass(frozen=True)
class VerificationItem:
    orbit: str
    check: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    items: tuple[VerificationItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)


def verify_models(
    models: list[OrbitModel],
    seed: int = 0,
    degree_bound: int | None = None,
    extra_algebras: list[tuple[str, comm.MatrixAlgebra]] | None = None,
) -> VerificationReport:
    """Re-derive every structural claim independently and report per check.

    `extra_algebras` lets tests inject algebras that are not commutants (the
    center-split check is expected to fail on those and the failure is the
    report entry, not an exception).
    """
    items: list[VerificationItem] = []

    def add(orbit, check, passed, detail=""):
        items.append(VerificationItem(orbit, check, bool(passed), detail))

    for model in models:
        g = model.slice_action
        label = model.label
        try:
            algebra = comm.compute_commutant(g)
        except Exception as exc:
            add(label, "commutant", False, str(exc))
            continue

        # exact residual: commutant really commutes with the action
        residual_ok = _commutes_with_action(algebra, g)
        add(label, "commutant-residual", residual_ok)

        split = comm.verify_center_splits(algebra)
        add(
            label,
            "center-splits",
            split.passed,
            "; ".join(split.failures),
        )

        ml = comm.classify_ml(algebra, seed=seed)
        add(
            label,
            "center-dim-arithmetic",
            ml.center_dim == ml.m + ml.l
            and ml.abelianization_dim == ml.m + ml.l,
        )

        if isinstance(g, FiniteMatrixAction):
            try:
                blocks = comm.schur_split_oracle(g, seed=seed)
                m_oracle = len(blocks)
                l_oracle = sum(1 for b in blocks if b.schur_type == "C")
                add(
                    label,
                    "classification-vs-split-oracle",
                    (ml.m, ml.l) == (m_oracle, l_oracle),
                    "exact (m,l)=(%d,%d), oracle (%d,%d)"
                    % (ml.m, ml.l, m_oracle, l_oracle),
                )
                dims_ok = (
                    sum(b.multiplicity * b.irreducible_dim for b in blocks)
                    == g.dim
                )
                add(label, "block-dimension-arithmetic", dims_ok)
            except comm.IllConditionedSplitError as exc:
                add(label, "classification-vs-split-oracle", False, str(exc))

        if model.quotient_requested:
            d = degree_bound if degree_bound is not None else default_degree_bound(g)
            z = comm.center(algebra)
            inv = strata.invariants_up_to_degree(g, d + 1)
            ker1 = strata.kernel_s(g, z, d, ml, invariants=inv.up_to(d))
            ker2 = strata.kernel_s(g, z, d + 1, ml, invariants=inv)
            add(
                label,
                "kernel-monotonicity",
                ker1.s_basis.contains_subspace(ker2.s_basis),
                "dim at %d: %d, at %d: %d" % (d, ker1.dim_s, d + 1, ker2.dim_s),
            )
            if isinstance(g, FiniteMatrixAction) and d >= g.order:
                add(label, "finite-kernel-vanishes", ker1.dim_s == 0)

    for name, algebra in extra_algebras or []:
        split = comm.verify_center_splits(algebra)
        add(name, "center-splits", split.passed, "; ".join(split.failures))

    return VerificationReport(tuple(items))


def _commutes_with_action(algebra: comm.MatrixAlgebra, g: GroupAction) -> bool:
    gens = action_generators(g)
    return all((gen @ b - b @ gen).is_zero() for b in algebra.basis for gen in gens)
