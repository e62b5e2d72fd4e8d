"""Self-similar resistance forms on gaskets with an added rotated triangle.

The package solves the renormalization fixed-point problem for the
four-map gasket family at rational shape parameters, realizes the solved
form on approximating graphs, and runs convergence diagnostics along
dyadic schedules approaching irrational parameters.
"""

from .errors import (AgresError, BadMeasure, BadTarget, BadWeights, BracketFailure,
                     CapExceeded, ConditionWarning, DegenerateLimit, DepthExceeded,
                     Disconnected, DomainError, GuardExceeded, IdentificationMismatch,
                     InsufficientScales, MismatchedVertexSets, NegativeConductance,
                     NoConvergence, NumericalError, OrbitOverflow, SingularInterior,
                     UnknownVertex, ValidationError)
from .exact import Point, as_fraction
from .geometry import (IFS, BoundarySet, GraphApprox, Label, approximation_graph,
                       boundary_set, doubling_orbit, hausdorff_distance, make_ifs,
                       point_in_attractor, point_of_address, track_point)
from .network import (FiniteForm, ResolventKernel, effective_resistance,
                      form_comparison, harmonic_extension, resistance_matrix,
                      resolvent, trace, triangle_form)
from .renorm import (BoundaryForm, EigenResult, GlueContext, Relation, Solution, eigen_solve,
                     enumerate_preserved_relations, glue_level_one, renorm_map, solve_r,
                     symmetric_start, uniqueness_scan)
from .approx import (DecimationReport, EdgeTraceTower, LevelForm, MeasureSpec,
                     ResistanceEnvelope, boundary_resistance_check, decimation_identity,
                     envelope_check, level_form, measure_weights, resistance_metric,
                     resolvent_kernel, scaling_exponent, vertex_masses)
from .converge import (ConvergenceReport, DyadicSchedule, GammaTable, Target,
                       convergence_report, dyadic_schedule, gamma_diagnostic,
                       hausdorff_check)

__version__ = "0.1.0"
