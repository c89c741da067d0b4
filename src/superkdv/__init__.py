"""Graded-algebra-valued super KdV at desk scale.

Evolution systems for even/odd field pairs over scalar, Grassmann and
symplectic algebra backends, the Miura and Gardner transformations that
connect them, conserved-quantity tracking, and a small symbolic engine
that regenerates the conserved densities from the Gardner recursion.
"""

__version__ = "0.1.0"

from .algebra import (AlgebraDescriptor, Algebra, EvenValue, OddValue,
                      get_algebra, validate_algebra, value_norm)
from .errors import (SuperKdVError, DescriptorMismatch, GradingError,
                     NonFiniteFieldError, StabilityError, NumericalBlowup,
                     ExpressionSyntaxError)
from .fields import (PeriodicGrid, EvenField, OddField, SolitonIC, GaussianIC,
                     RandomBandlimitedIC, ZeroIC, build_initial_condition,
                     parse_ic, quadrature, soliton_profile, spectral_derivative)
from .dynamics import (SYSTEM_KINDS, SystemState, Trajectory, integrate,
                       nonlinear_rhs, rhs_state, rhs_modified, rhs_extended,
                       rhs_skdv_grassmann, rhs_gardner, stability_limit)
from .invariants import (ConservedReport, conserved_densities,
                         conserved_quantities, drift_report,
                         hamiltonian_density, reduced_hamiltonian_density)
from .transforms import (miura, gardner_map, inverse_gardner_series,
                         susy_variation, to_extended, to_extended_trajectory,
                         fd_flow_residual, flow_commutation_defect)
from .symbolic import (DiffPolynomial, parse, to_text, commutator,
                       instantiate, equal_mod_total_derivative,
                       gardner_coefficients, conserved_density_poly,
                       evolutionary_derivative, reproduce_conserved_quantities)
