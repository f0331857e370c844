"""Exact calculator for abelianizations of equivariant vector field algebras.

Given finite data for a compact group action (isotropy groups and slice
representations), computes the abelianization of the equivariant vector
fields, of the commutant algebra, and of the strata-preserving fields on the
quotient, with independent brute-force verification of each structural claim.
"""

from .commutant import (
    CommutantStructure,
    MatrixAlgebra,
    MLClassification,
    abelianization,
    center,
    classify_ml,
    commutant_structure,
    commutator_ideal,
    compute_commutant,
    schur_split_oracle,
    verify_center_splits,
)
from .exactlin import QMatrix, QPolynomial, Subspace
from .liealg import IsotropyData, LieAlgebraSC
from .pipeline import (
    AbelianizationReport,
    OrbitModel,
    run_pipeline,
    verify_models,
)
from .strata import invariants_up_to_degree, kernel_s, quotient_abelianization
from .symmetry import (
    ConnectedLieAction,
    FiniteMatrixAction,
    TorusAction,
    enumerate_group,
)

__all__ = [
    "AbelianizationReport",
    "CommutantStructure",
    "ConnectedLieAction",
    "FiniteMatrixAction",
    "IsotropyData",
    "LieAlgebraSC",
    "MatrixAlgebra",
    "MLClassification",
    "OrbitModel",
    "QMatrix",
    "QPolynomial",
    "Subspace",
    "TorusAction",
    "abelianization",
    "center",
    "classify_ml",
    "commutant_structure",
    "commutator_ideal",
    "compute_commutant",
    "enumerate_group",
    "invariants_up_to_degree",
    "kernel_s",
    "quotient_abelianization",
    "run_pipeline",
    "schur_split_oracle",
    "verify_center_splits",
]
