"""groupoidal: an exact-arithmetic engine for finite ample groupoids,
their convolution algebras, partial actions, and partial skew rings.

Everything is verified at desk scale with exact scalars; no check ever
rounds.  See the README for the CLI and the catalog of worked examples.
"""

__version__ = "1.0.0"

from .scalars import Scalar, ScalarRing, ring_from_tag
from .groups import FiniteGroup
from .groupoid_core import (FiniteGroupoid, enumerate_bisections,
                            is_topologically_principal, validate_groupoid)
from .steinberg_algebra import (GroupoidFunction, SteinbergAlgebra, convolve,
                                disjoint_decomposition)
from .inverse_semigroups import (FiniteInverseSemigroup, bisection_semigroup,
                                 natural_order, validate_inverse_semigroup)
from .partial_actions import (GroupPartialAction, induce_algebra_action,
                              is_topologically_free,
                              validate_group_partial_action,
                              validate_isg_partial_action)
from .skew_rings import (CovarianceModule, build_ideal, build_quotient,
                         check_pregrading)
from .transformation_groupoid import build_transformation_groupoid
from .isomorphisms import (AlgebraMap, OrbitEquivalenceData, bisection_action,
                           psi, rho, search_groupoid_isomorphism,
                           search_orbit_equivalence, steinberg_transport,
                           transported_skew_isomorphism,
                           verify_orbit_equivalence)
from .validation import BoundExceeded, ValidationReport
