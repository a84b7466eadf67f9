"""Exact construction and analysis of generalized matrix algebras.

The package builds block algebras from Morita-context data, checks the
context axioms mechanically, computes centers and derivation-type spaces
over exact scalars (rationals or odd prime fields), and decomposes n-Lie
derivations into a nested-bracket extremal part plus a centrally-valued
remainder, verifying every claimed property instead of assuming it.
"""

from .algebra_core import (BilinearTable, Element, StructureAlgebra,
                           commutator_span, is_commutative, validate_algebra)
from .decompose import (Decomposition, ExtremalExistence, UniquenessProbe,
                        VerificationReport, build_extremal, decompose,
                        double_bracket_annihilator, extract_seed,
                        extremal_exists, probe_seed_uniqueness,
                        verify_decomposition)
from .errors import (BudgetExceededError, DimensionMismatchError,
                     ExtremalPreconditionError, FieldMismatchError, GmalgError,
                     InvalidContextError, LieLeibnizError, SpecFileError)
from .exact_linear import FieldSpec, Subspace, kernel_basis, rref
from .gma import (GMAlgebra, MoritaContext, assemble, generate_builtin,
                  validate_context)
from .multilinear import (LeibnizWitness, MultilinearMap, is_centrally_valued,
                          is_n_derivation, is_n_lie_derivation,
                          n_lie_derivation_space)
from .structure_analysis import (CenterData, CheckStatus, HypothesisReport,
                                 PairSpaces, center, center_data,
                                 check_hypotheses, derivation_space,
                                 has_nonzero_central_ideal,
                                 lie_derivation_space, pair_spaces,
                                 torsion_action_check)

__version__ = "0.1.0"
