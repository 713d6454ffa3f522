"""groupoidal: an exact-arithmetic engine for finite ample groupoids,
their convolution algebras, partial actions, and partial skew rings.

Everything is verified at desk scale with exact scalars; no check ever
rounds.  See the README for the CLI and the catalog of worked examples.
"""

__version__ = "1.0.0"

from .scalars import Scalar, ScalarRing, ring_from_tag
from .groups import FiniteGroup
from .groupoid_core import (FiniteGroupoid, bisection_inverse,
                            bisection_product, enumerate_bisections,
                            is_topologically_principal, isotropy_group,
                            validate_groupoid)
from .steinberg_algebra import (GroupoidFunction, SteinbergAlgebra, convolve,
                                diagonal_embed, disjoint_decomposition,
                                is_diagonal)
from .inverse_semigroups import (FiniteInverseSemigroup, PartialBijection,
                                 bisection_semigroup, natural_order,
                                 symmetric_inverse_monoid,
                                 validate_inverse_semigroup,
                                 wagner_preston_embed)
from .partial_actions import (GroupPartialAction, SemigroupPartialAction,
                              SpaceFunction, induce_algebra_action,
                              is_topologically_free,
                              validate_group_partial_action,
                              validate_isg_partial_action)
from .skew_rings import (CovarianceModule, SkewElement, build_ideal,
                         build_quotient, build_skew_group_ring,
                         check_pregrading, skew_multiply)
from .transformation_groupoid import (build_transformation_groupoid,
                                      isotropy_of_transformation)
from .isomorphisms import (AlgebraMap, OrbitEquivalenceData, bisection_action,
                           check_diagonal_correspondence, group_ring_probe,
                           phi, phi_classes, psi, rho, rho_inverse,
                           search_groupoid_isomorphism,
                           search_orbit_equivalence, steinberg_transport,
                           transported_skew_isomorphism,
                           verify_orbit_equivalence)
from .validation import BoundExceeded, ValidationReport
