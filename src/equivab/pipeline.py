"""Orbit records, the end-to-end computation, and report assembly."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

from . import commutant as comm
from . import liealg, strata
from .symmetry import FiniteMatrixAction, GroupAction, fixed_vectors


class InputError(ValueError):
    """Invalid orbit data; message carries the location."""


class PipelineError(RuntimeError):
    """A module error, annotated with the orbit label it occurred in."""


@dataclass(frozen=True)
class OrbitModel:
    """One isolated-orbit record: isotropy action on the slice, plus optional
    ambient Lie-algebra data, and the invariant degree bound of its quotient
    when one was given.  The one check of the isolation hypothesis V^H = 0 is
    made here."""

    label: str
    slice_action: GroupAction
    isotropy_lie: liealg.IsotropyData | None = None
    quotient_requested: bool = False
    degree_bound: int | None = None

    def __post_init__(self):
        fixed = fixed_vectors(self.slice_action)
        if fixed.dim != 0:
            raise InputError(
                "orbit %r is not isolated: the slice has fixed vector (%s)"
                % (self.label, ", ".join(str(x) for x in fixed.basis[0]))
            )

    @property
    def degree(self) -> int:
        """The degree bound of the quotient: the given one, else the action's
        default, which is read only here and only when asked (a finite group
        enumerates itself for it, as its quotient does anyway: the floor
        theorem answers s = 0 only once the listing proves G finite)."""
        if self.degree_bound is not None:
            return self.degree_bound
        return self.slice_action.default_degree_bound


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
        declaration order.  Every record is flat but for an orbit's
        quotient, so each is read field by field, with no deep copy."""
        totals = _fields(self)
        orbits = []
        for o in totals.pop("orbits"):
            orbit = _fields(o)
            if o.quotient is not None:
                orbit["quotient"] = _fields(o.quotient)
            orbits.append(orbit)
        return {"orbits": orbits, "totals": totals}

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


def _fields(record) -> dict:
    """The fields of a dataclass record by name, in declaration order."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def run_orbit(model: OrbitModel) -> OrbitResult:
    g = model.slice_action
    # dim A and Z(A) off the group where its data fix them, else off the
    # certified commutant.  A quotient lists a finite group whole: the floor
    # theorem answers its s = 0 only once the listing has proved G finite
    read = g.commutant_center(whole_group=model.quotient_requested)
    if read is None:
        a = comm.compute_commutant(g)
        read = a.dim, a.center
    dim, z = read
    ml = comm.classify_ml(z)
    lie_dim = None
    if model.isotropy_lie is not None:
        lie_dim = liealg.lie_abelianization(liealg.quotient_lie_algebra(model.isotropy_lie))
    quotient = None
    if model.quotient_requested:
        ker = strata.kernel_s(g, z, model.degree, ml.l)
        quotient = strata.quotient_abelianization(ker, ml)
    return OrbitResult(
        label=model.label,
        commutant_dim=dim,
        m=ml.m,
        l=ml.l,
        center_dim=ml.center_dim,
        abelianization_dim=ml.abelianization_dim,
        # classify_ml found the trace form on Z(A) nondegenerate, and [A, A]
        # is orthogonal to Z(A) under it: so the semisimple commutant splits
        # as Z(A) + [A, A].  Verify checks the split on the bracket table.
        center_split_passed=True,
        derived_dim=dim - ml.center_dim,
        lie_summand_dim=lie_dim,
        quotient=quotient,
    )


def run_pipeline(models: list[OrbitModel]) -> AbelianizationReport:
    results = []
    for model in models:
        try:
            results.append(run_orbit(model))
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


def verify_models(models: list[OrbitModel]) -> VerificationReport:
    """Build each orbit's commutant from the kernel, without its action's
    generators, so that Z(A) and [A, A] come from the bracket table; check
    every structural claim on it, the residual against the action among
    them, and report per check.  Every check is exact.

    An exception while verifying an orbit becomes a failed "error" item for
    that orbit, and the next orbit is verified.
    """
    items: list[VerificationItem] = []
    for model in models:
        try:
            for item in _orbit_checks(model):
                items.append(item)
        except Exception as exc:
            items.append(VerificationItem(model.label, "error", False, str(exc)))
    return VerificationReport(tuple(items))


def _orbit_checks(model: OrbitModel) -> Iterator[VerificationItem]:
    """The verify-mode checks of one orbit, in report order."""
    g = model.slice_action
    # the exact finite-group checks read the enumerated elements of G
    finite = isinstance(g, FiniteMatrixAction)

    def item(check, passed, detail=""):
        return VerificationItem(model.label, check, bool(passed), detail)

    # without the generators `center` reads the bracket table, a route
    # compute mode takes for no torus, for no finite group under the rule of
    # `commutant_center` and nowhere the word route is the cheaper
    a = replace(comm.commutant_kernel(g), generators=())
    # (m, l) is the inertia of the trace form on Z(A), found once: the
    # split's [A, A] stops at the rank that inertia fixes
    ml = comm.classify_ml(a)
    split = comm.verify_center_splits(a)
    # exact residual, the only one verify forms: the kernel really commutes
    # with the action
    yield item("commutant-residual", comm.commutes_with_action(a, g))
    yield item("center-splits", *split)
    yield item("center-dim-arithmetic", *comm.root_count_agrees(a, ml))

    if finite:
        center_check, dim_check = comm.schur_split_oracle(g, a)
        yield item("classification-vs-split-oracle", *center_check)
        yield item("block-dimension-arithmetic", *dim_check)

    if model.quotient_requested:
        d = model.degree
        invariants = strata.invariants_up_to_degree(g, d + 1)
        ker1, ker2 = strata.kernel_s_at_degrees(g, a.center, (d, d + 1), invariants)
        yield item(
            "kernel-monotonicity",
            ker1.s_basis.contains_subspace(ker2.s_basis),
            "dim at %d: %d, at %d: %d" % (d, ker1.dim_s, d + 1, ker2.dim_s),
        )
        # compute's refusal, and the orbit's error item: a degree-bounded
        # kernel with k > l raises DegreeBoundTooLow
        strata.quotient_abelianization(ker1, ml)
        if finite and d >= g.order:
            yield item("finite-kernel-vanishes", ker1.dim_s == 0)
