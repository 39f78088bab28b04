"""fwkit: projection-free first-order optimization at desk scale.

Frank-Wolfe and its active-set variants over pluggable linear minimization
oracles, problem builders for the classic benchmark families, stepsize
rules, Wolfe's min-norm-point method, and diagnostics that verify the
textbook convergence guarantees on real traces.
"""

from .atoms import (ActiveSet, DenseAtom, RankOneAtom, SignedUnitAtom,
                    StepDescriptor, apply_step, atoms_equal, reconstruct_point,
                    select_away_vertex)
from .diagnostics import (CheckResult, RateFit, active_set_radius,
                          fit_geometric_rate, inexact_rate_check,
                          interior_contraction_check, lower_bound_check,
                          min_gap_rate_check, nonconvex_min_gap_check,
                          per_step_guarantees, simplex_multipliers,
                          strongly_convex_domain_check, support_identification,
                          verify_sublinear_bound)
from .errors import (CapabilityError, ContractViolation, FwkitError,
                     InputError, NumericalError)
from .minnorm import hull_distance, solve_wolfe_mnp
from .objectives import (BlockSeparable, FactoredQuadratic, LeastSquares,
                         MatrixCompletionLoss, ProblemInstance, Quadratic,
                         ShiftedNormSquare, build_instance)
from .regions import (BasePolytope, Box, InexactSchedule, L1Ball, L2Ball,
                      LinfBall, NuclearBall, ProductRegion, Simplex,
                      VertexHull, base_polytope_greedy, fw_gap, make_inexact_lmo,
                      pyramidal_width_bruteforce, top_singular_triple)
from .solvers import (CAPABILITIES, IterationRecord, SolveReport,
                      SolverConfig, check_capability, reference_f_star, solve)
from .stepsizes import (RULES, Armijo, BacktrackingL, BlockDiminishing,
                        Diminishing, ExactLine, LipschitzDep, rule_from_name)

__version__ = "0.1.0"
