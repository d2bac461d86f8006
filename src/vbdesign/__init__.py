"""Design under uncertainty by Gaussian variational inference.

Expected-utility maximization over high-dimensional designs is recast as
inference on an auxiliary density; the package provides the finite-element
forward models, the point-estimate and variational solvers, sensitive
direction extraction, and an importance-sampling accuracy check.
"""

from .mesh_fem import (
    StiffnessPattern,
    assemble_diffusion,
    assemble_elasticity,
    build_regular_mesh,
    solve_forward,
)
from .random_field import build_covariance, sample_log_field
from .problems import (
    ConstraintDescriptor,
    constraint_value_and_gradient,
    log_utility,
    make_heat_problem,
    make_topo_problem,
)
from .vb import (
    ModelParams,
    PriorConfig,
    VariationalState,
    evaluate_F,
    run_vbem,
    sample_designs,
    sensitive_directions,
    vb_expectation,
)
from .stiefel import StiefelProblem, cayley_step, gradient_J, objective_FW, optimize_W
from .map_opt import MapOptions, gn_step, optimize_map
from .topo_prior import build_neighbor_graph, estimate_phi_mean, log_prior_mu_z
from .validation import estimate_nKL

__version__ = "0.1.0"
