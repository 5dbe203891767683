"""Exact factorization of GL(mn) characters at root-of-unity twisted torus
points into products of GL(m) characters, over cyclotomic arithmetic."""

from .cyclotomic import (Cyclotomic, as_cyclotomic, cyclotomic_polynomial,
                         field_degree, zeta)
from .laurent import LaurentPoly, block_specialize
from .perms import (DEFAULT_ENUMERATION_BOUND, BlockStructure,
                    EnumerationTooLarge, Perm, check_enumeration_bound,
                    column_subgroup, is_column_row_product,
                    permutation_parity, row_coset_reps, row_subgroup)
from .weights import (check_dominant, dominant_weights, factor_weights,
                      is_residue_balanced, normalize_residue_blocks,
                      shifted_weight, staircase)
from .characters import (alternant, coxeter_value, denominator_scalar,
                         det_fraction_free, schur_at_point,
                         twisted_numerator, twisted_numerator_terms,
                         twisted_vandermonde_closed)
from .factorize import (DEFAULT_SEED, CosetAuditReport,
                        FactorizationCertificate, coset_audit,
                        coset_block_sum, factored_value, factorize,
                        random_regular_point, sample_points,
                        sign_via_coxeter, vanishes_numerically,
                        verify_numeric, verify_symbolic)

__version__ = "0.1.0"
