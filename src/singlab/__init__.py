"""Desk-scale laboratory for isolated hypersurface singularities.

Two pipelines share an exact rational kernel: miniversal unfoldings with
certified real Morse data and discriminant geometry, and numerical
semigroups of curve branches with toric resolution and overweight
deformation checking.
"""

from .critmap import (CriticalSystem, HessianData, IdentityReport,
                      critical_system, hessian, sign_relation_check,
                      verify_jacobian_identity)
from .discriminant import (CerfEvent, CerfTrace, DiscriminantCurve,
                           EqualLevelWitness, MaxwellPoint, SliceGrid,
                           cerf_trace, equal_level_search,
                           exact_discriminant_1d, maxwell_refine,
                           maxwell_scan, slice_sample)
from .errors import SinglabError
from .groebner import (groebner_basis, eliminate, ideal_contains, normal_form,
                       staircase_monomials)
from .intervals import RatInterval, eval_interval
from .milnor import (GermAnalysis, Unfolding, analyze_germ,
                     miniversal_unfolding, unfold_germ)
from .morselab import (CriticalPoint, EulerReport, HermanWitness, MorseReport,
                       ParameterPoint, ScanReport, critical_points,
                       degree_invariance_scan, euler_fiber_check,
                       herman_probe, morse_counts, morse_report,
                       sample_parameters)
from .poly import (GREVLEX, LEX, MonomialOrder, Polynomial, infer_variables,
                   parse_polynomial)
from .realroots import (IsolatingInterval, count_distinct_roots,
                        isolate_real_roots, squarefree_decomposition)
from .resultant import poly_determinant, resultant
from .semitoric import (Cone, Fan, NumericalSemigroup, OverweightDeformation,
                        OverweightVerdict, PlaneBranch, ResolutionCertificate,
                        Series, ToricIdeal, TransformReport, branch_embedding,
                        branch_semigroup, branch_series,
                        characteristic_exponents, overweight_check,
                        resolve_monomial_curve, semigroup_from_generators,
                        toric_ideal, verify_strict_transform, weight)

__version__ = "0.1.0"
