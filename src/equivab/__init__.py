"""Exact calculator for abelianizations of equivariant vector field algebras.

Given finite data for a compact group action (isotropy groups and slice
representations), computes the abelianization of the equivariant vector
fields, of the commutant algebra, and of the strata-preserving fields on the
quotient, with independent brute-force verification of each structural claim.
"""
