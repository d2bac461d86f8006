"""Forward-model contract and the two concrete design problems.

heat_flux: steady diffusion on [0,2]x[0,1]; the design is the influx profile
on the left edge (one variable per edge node), outputs are temperatures at 11
points on the vertical midline, and the random field is the log-conductivity.

topo: plane-stress cantilever on [0,1.6]x[0,1] clamped on the left with a
downward point force at the free bottom corner; the design field mixes void
and material through a sigmoid per element, outputs are downward bottom-edge
displacements, and the random field is the log of the solid-phase modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh_fem
from .mesh_fem import (
    BoundaryConditions,
    Mesh,
    StiffnessPattern,
    assemble_diffusion,
    assemble_elasticity,
    boundary_nodes,
    edge_mass_loads,
    element_dofs,
    grid_interpolation_weights,
    solve_forward,
    unit_diffusion_element_matrices,
    unit_elasticity_element_matrices,
)
from .random_field import FieldPrior, build_covariance

# reference settings both examples share, and the CLI's defaults
FIELD_SIGMA_G2 = 0.223    # log-field variance
FIELD_X0 = 0.1            # log-field correlation length
FIELD_MU_THETA0 = -0.112  # log-field mean
TARGET_VF = 0.4           # volume fraction of the topology constraint
EPS_C2 = 1e-10            # soft-enforcement variance of that constraint


def sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class ConstraintDescriptor:
    """Soft volume-fraction equality constraint on the sigmoid-mixed design."""

    target_VF: float
    eps_c2: float


def constraint_value_and_gradient(desc: ConstraintDescriptor, z: np.ndarray):
    """c(z) = mean(sigmoid(z)) - VF and its gradient."""
    s = sigmoid(np.asarray(z, dtype=float))
    c = float(np.mean(s) - desc.target_VF)
    f = s * (1.0 - s) / s.shape[0]
    return c, f


def log_utility(model, u: np.ndarray) -> float:
    """Log of the exponential closeness utility, -(tau_Q/2)||u_target - u||^2."""
    r = model.u_target - np.asarray(u)
    return -0.5 * model.tau_Q * float(r @ r)


class StaleFactorizationError(RuntimeError):
    pass


class ForwardModel:
    """Set-up, output read-out and adjoint Jacobians shared by both problems.

    A subclass passes its mesh, boundary conditions, unit element matrices,
    element dof map and output interpolation (nodes, weights) to __init__,
    and supplies its loads and coefficient law as _solve(theta, z) ->
    SystemSolution and its chain-rule factors as _chain_rule(lam, base,
    theta, z) -> (G_theta, G_z), where base[i, e] = lam_i^T K_e u for the
    unit element matrices K_e.

    Output i reads its field entries in ascending dof order, each times its
    weight, summed from zero in that order (the order of a CSC operator's
    transpose matvec); the adjoint right-hand sides are the same weights as
    dense columns, built once.
    """

    constraint: ConstraintDescriptor | None = None

    def __init__(self, mesh: Mesh, field_prior: FieldPrior, tau_Q: float,
                 u_target: np.ndarray, bc: BoundaryConditions, ke_unit: np.ndarray,
                 dof_map: np.ndarray, obs_dofs: np.ndarray, obs_weights: np.ndarray):
        self.mesh = mesh
        self.field_prior = field_prior
        self.tau_Q = float(tau_Q)
        self.u_target = np.asarray(u_target, dtype=float)
        self.d_theta = mesh.n_elements
        self.n = self.u_target.shape[0]
        self.bc = bc
        self._ke_unit = ke_unit
        self._dofs = dof_map
        self.pattern = StiffnessPattern.build(dof_map, ke_unit, bc.free)

        order = np.argsort(obs_dofs, axis=1)
        self._obs_dofs = np.take_along_axis(obs_dofs, order, axis=1)
        self._obs_weights = np.take_along_axis(obs_weights, order, axis=1)
        # Fortran order, the layout of a CSC operator's toarray(): the order
        # in which BLAS sums the Jacobian products depends on it
        self._adjoint_rhs = np.zeros((bc.ndof, self.n), order="F")
        self._adjoint_rhs[obs_dofs, np.arange(self.n)[:, None]] = obs_weights

        self.forward_calls = 0
        self._last = None  # (theta, z, solution)

    def evaluate(self, theta, z) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        z = np.asarray(z, dtype=float)
        if theta.shape != (self.d_theta,) or z.shape != (self.d_z,):
            raise ValueError(
                f"expected shapes ({self.d_theta},) and ({self.d_z},), "
                f"got {theta.shape} and {z.shape}")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(z))):
            raise ValueError("theta and z must be finite")
        sol = self._solve(theta, z)
        self.forward_calls += 1
        self._last = (theta.copy(), z.copy(), sol)
        return self._read_out(sol.nodal_field)

    def _read_out(self, field: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for dofs, weights in zip(self._obs_dofs.T, self._obs_weights.T):
            out += weights * field[dofs]
        return out

    def last_jacobians(self):
        """Adjoint Jacobians at the most recent evaluate() point; no new solve."""
        if self._last is None:
            raise StaleFactorizationError("no retained forward solution")
        theta, z, sol = self._last
        lam = sol.adjoint(self._adjoint_rhs)
        base = mesh_fem.element_bilinear(self._ke_unit, self._dofs, lam, sol.nodal_field)
        return self._chain_rule(lam, base, theta, z)

    def evaluate_with_jacobians(self, theta, z):
        u = self.evaluate(theta, z)
        G_theta, G_z = self.last_jacobians()
        return u, G_theta, G_z


class HeatFluxProblem(ForwardModel):
    DOMAIN = (2.0, 1.0)  # (Lx, Ly); observations on the midline x1 = Lx / 2

    def __init__(self, mesh: Mesh, field_prior: FieldPrior, tau_Q: float,
                 u_target: np.ndarray, obs_points: np.ndarray):
        idx, w = grid_interpolation_weights(*mesh.grid, obs_points)
        super().__init__(mesh, field_prior, tau_Q, u_target,
                         BoundaryConditions.build(mesh, 1, ("right",)),
                         unit_diffusion_element_matrices(mesh), mesh.triangles, idx, w)
        self.design_nodes = boundary_nodes(mesh, "left")
        self.d_z = self.design_nodes.shape[0]
        self.B = np.column_stack([edge_mass_loads(mesh, "left", {node: 1.0})
                                  for node in self.design_nodes])

    def _solve(self, theta, z):
        Kff = assemble_diffusion(self.pattern, np.exp(theta))
        return solve_forward(Kff, self.bc, self.B @ z)

    def _chain_rule(self, lam, base, theta, z):
        # outputs are exactly linear in the flux design, so G_z is constant
        return -base * np.exp(theta)[None, :], lam.T @ self.B


class TopologyProblem(ForwardModel):
    E_MIN = 1e-10
    NU = 0.3            # Poisson ratio
    POINT_LOAD = 1e-3   # downward load at the bottom-right corner
    DOMAIN = (1.6, 1.0)  # (Lx, Ly)
    N_OBS = 8           # bottom-edge outputs at x1 = Lx k / N_OBS

    def __init__(self, mesh: Mesh, field_prior: FieldPrior, tau_Q: float,
                 u_target: np.ndarray, obs_points: np.ndarray, constraint):
        nx, ny, Lx, Ly = mesh.grid
        corner = int(np.argmin(np.sum((mesh.nodes - [Lx, 0.0]) ** 2, axis=1)))
        bc = BoundaryConditions.build(mesh, 2, ("left",),
                                      point_loads=[(corner, 1, -self.POINT_LOAD)])
        # downward-positive vertical outputs: -u2 interpolated on the bottom edge
        idx, w = grid_interpolation_weights(nx, ny, Lx, Ly, obs_points)
        super().__init__(mesh, field_prior, tau_Q, u_target, bc,
                         unit_elasticity_element_matrices(mesh, self.NU),
                         element_dofs(mesh, 2), 2 * idx + 1, -w)
        self.d_z = mesh.n_elements
        self.constraint = constraint
        self.load = bc.load_vector()

    def youngs_field(self, theta, z):
        lam = np.exp(theta)
        return self.E_MIN + sigmoid(z) * (lam - self.E_MIN)

    def _solve(self, theta, z):
        Kff = assemble_elasticity(self.pattern, self.youngs_field(theta, z))
        return solve_forward(Kff, self.bc, self.load)

    def _chain_rule(self, lam, base, theta, z):
        lam_theta = np.exp(theta)
        s = sigmoid(z)
        return (-base * (s * lam_theta)[None, :],
                -base * (s * (1.0 - s) * (lam_theta - self.E_MIN))[None, :])


def make_heat_problem(nx=40, ny=20, sigma_g2=FIELD_SIGMA_G2, x0=FIELD_X0,
                      mu_theta0=FIELD_MU_THETA0, tau_Q_inv=0.01,
                      obs_x2=None) -> HeatFluxProblem:
    """Numerical illustration defaults: 40x20 grid, 11 midline observation
    points at x2 = 0.25 + 0.05 k, tent-shaped temperature target."""
    Lx, Ly = HeatFluxProblem.DOMAIN
    mesh = mesh_fem.build_regular_mesh(nx, ny, Lx, Ly)
    prior = build_covariance(mesh.element_centroids, sigma_g2, x0, mu_theta0)
    if obs_x2 is None:
        obs_x2 = 0.25 + 0.05 * np.arange(11)
    obs_x2 = np.asarray(obs_x2, dtype=float)
    pts = np.column_stack([np.full(obs_x2.shape, Lx / 2.0), obs_x2])
    u_target = 20.0 - 40.0 * np.abs(obs_x2 - 0.5)
    return HeatFluxProblem(mesh, prior, 1.0 / tau_Q_inv, u_target, pts)


def make_topo_problem(nx=52, ny=34, sigma_g2=FIELD_SIGMA_G2, x0=FIELD_X0,
                      mu_theta0=FIELD_MU_THETA0, tau_Q_inv=5e-6, VF=TARGET_VF,
                      eps_c2=EPS_C2) -> TopologyProblem:
    """Numerical illustration defaults: 52x34 grid, 8 bottom-edge outputs at
    x1 = 0.2 k with linearly increasing downward-displacement targets."""
    Lx, Ly = TopologyProblem.DOMAIN
    n_obs = TopologyProblem.N_OBS
    mesh = mesh_fem.build_regular_mesh(nx, ny, Lx, Ly)
    prior = build_covariance(mesh.element_centroids, sigma_g2, x0, mu_theta0)
    k = np.arange(1, n_obs + 1)
    pts = np.column_stack([Lx * k / n_obs, np.zeros(n_obs)])
    u_target = 6.25e-3 * k
    constraint = ConstraintDescriptor(VF, eps_c2)
    return TopologyProblem(mesh, prior, 1.0 / tau_Q_inv, u_target, pts, constraint)
