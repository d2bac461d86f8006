"""Regular triangular meshes and P1 finite elements for the two elliptic
forward problems (steady diffusion, plane-stress elastostatics).

Element coefficients (conductivity, Young's modulus) are constant per
triangle, so one-point quadrature is exact. Each problem builds a
StiffnessPattern once: the reverse Cuthill-McKee order of the free-free
block, its half-bandwidth kd, and the slot of every kept upper element
entry in LAPACK upper band storage (kd+1, n). An assembly is then one
weighted bincount straight into the band; clamped dofs are never
assembled. The block is symmetric positive definite, so solve_forward
factors the band with LAPACK's banded Cholesky (dpbtrf), dense kernels and
no symbolic phase, and the factor is retained and reused for all adjoint
right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee


class SingularSystemError(RuntimeError):
    """Constrained stiffness operator is singular."""

    def __init__(self, nullity):
        self.nullity = nullity
        detail = f"estimated null-space dimension {nullity}" if nullity >= 0 else "null-space dimension unknown"
        super().__init__(f"singular constrained system ({detail})")


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Triangulation of a rectangle: nodes, triangles, tagged boundary edges.

    Attributes
    ----------
    nodes : (n_nodes, 2) array of coordinates.
    triangles : (n_tri, 3) int array, counter-clockwise node indices.
    boundary_edges : list of (tag, n1, n2) with tag in {left, right, bottom, top}.
    element_centroids : (n_tri, 2) array.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    element_centroids: np.ndarray
    grid: tuple = field(default=None)  # (nx, ny, Lx, Ly) for regular meshes

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.triangles.shape[0]


def build_regular_mesh(nx: int, ny: int, Lx: float, Ly: float) -> Mesh:
    """nx-by-ny grid of rectangles, each split along the same diagonal.

    Node ids run x-fastest: node(i, j) = j*(nx+1) + i. Each cell yields the
    lower triangle (a, b, c) and the upper triangle (a, c, d) for corners
    a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1).
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid counts must be >= 1, got ({nx}, {ny})")
    if Lx <= 0 or Ly <= 0:
        raise ValueError(f"side lengths must be positive, got ({Lx}, {Ly})")

    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    nodes = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ii = ii.ravel(order="F")  # x-fastest cell order, matching node order
    jj = jj.ravel(order="F")
    a = jj * (nx + 1) + ii
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    edges = []
    for i in range(nx):
        edges.append(("bottom", i, i + 1))
        top0 = ny * (nx + 1) + i
        edges.append(("top", top0, top0 + 1))
    for j in range(ny):
        edges.append(("left", j * (nx + 1), (j + 1) * (nx + 1)))
        edges.append(("right", j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx))

    centroids = nodes[triangles].mean(axis=1)
    for arr in (nodes, triangles, centroids):
        arr.setflags(write=False)
    return Mesh(nodes, triangles, edges, centroids, grid=(nx, ny, Lx, Ly))


def element_geometry(mesh: Mesh):
    """Per-element shape-function gradients and areas.

    Returns (bvec, cvec, area): bvec[e, i] = dN_i/dx * 2A, cvec[e, i] = dN_i/dy * 2A.
    """
    coords = mesh.nodes[mesh.triangles]
    x = coords[:, :, 0]
    y = coords[:, :, 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2])
    return bvec, cvec, area


def signed_areas(mesh: Mesh) -> np.ndarray:
    return element_geometry(mesh)[2]


def boundary_nodes(mesh: Mesh, tag: str) -> np.ndarray:
    """Sorted unique node ids on the named boundary segment."""
    ids = set()
    for t, n1, n2 in mesh.boundary_edges:
        if t == tag:
            ids.add(n1)
            ids.add(n2)
    return np.array(sorted(ids), dtype=np.int64)


def boundary_edge_list(mesh: Mesh, tag: str):
    return [(n1, n2) for t, n1, n2 in mesh.boundary_edges if t == tag]


# ---------------------------------------------------------------------------
# Element matrices and assembly
# ---------------------------------------------------------------------------

def unit_diffusion_element_matrices(mesh: Mesh) -> np.ndarray:
    """(n_elem, 3, 3) P1 stiffness contributions for unit conductivity."""
    bvec, cvec, area = element_geometry(mesh)
    ke = (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :])
    return ke / (4.0 * area)[:, None, None]


def unit_elasticity_element_matrices(mesh: Mesh, nu: float) -> np.ndarray:
    """(n_elem, 6, 6) plane-stress stiffness contributions for unit modulus.

    Constitutive matrix (1/(1-nu^2)) * [[1, nu, 0], [nu, 1, 0], [0, 0, 1-nu]]
    acting on the strain vector (u1,x ; u2,y ; u1,y + u2,x).
    """
    if not (0.0 <= nu < 0.5):
        raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    bvec, cvec, area = element_geometry(mesh)
    ne = mesh.n_elements
    B = np.zeros((ne, 3, 6))
    B[:, 0, 0::2] = bvec
    B[:, 1, 1::2] = cvec
    B[:, 2, 0::2] = cvec
    B[:, 2, 1::2] = bvec
    D = np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 1.0 - nu]]) / (1.0 - nu**2)
    ke = B.transpose(0, 2, 1) @ D @ B
    return ke / (4.0 * area)[:, None, None]


@dataclass(frozen=True)
class BandedBlock:
    """Symmetric block in LAPACK upper band storage, rows and columns in perm order.

    ab[kd + i - j, j] holds entry (i, j), i <= j, of the permuted block,
    whose row i is row perm[i] of the block itself.
    """

    ab: np.ndarray
    perm: np.ndarray

    @property
    def shape(self):
        n = self.ab.shape[1]
        return (n, n)

    def toarray(self) -> np.ndarray:
        kd = self.ab.shape[0] - 1
        n = self.shape[0]
        band = np.zeros((n, n))
        for d in range(kd + 1):
            i = np.arange(n - d)
            band[i, i + d] = band[i + d, i] = self.ab[kd - d, d:]
        out = np.empty_like(band)
        out[np.ix_(self.perm, self.perm)] = band
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Block times a vector, both in the block's own dof order."""
        y = np.empty(self.shape[0])
        y[self.perm] = blas.dsbmv(self.ab.shape[0] - 1, 1.0, self.ab, x[self.perm])
        return y


@dataclass(frozen=True)
class BandedCholesky:
    """Upper band Cholesky factor U (U^T U = block) of a BandedBlock."""

    cb: np.ndarray
    perm: np.ndarray

    @property
    def nnz(self) -> int:
        return self.cb.size

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Block^-1 rhs for a vector or for each column of a matrix."""
        x, _ = lapack.dpbtrs(self.cb, rhs[self.perm])
        out = np.empty_like(x)
        out[self.perm] = x
        return out


@dataclass(frozen=True)
class StiffnessPattern:
    """Band layout of the kept block of an element-assembled operator.

    Built once per problem from the element dof map, the unit element
    matrices and the sorted dofs to keep. The kept dofs are put in reverse
    Cuthill-McKee order, perm, which makes the block a band of
    half-bandwidth kd. Every element entry whose row and column are both
    kept and which lies on or above the permuted diagonal has its slot in
    Fortran-order upper band storage (kd+1, n), its unit value and its
    element, so an assembly is one weighted bincount into the band.
    """

    perm: np.ndarray
    kd: int
    slot: np.ndarray
    ke: np.ndarray
    elem: np.ndarray
    n_elements: int

    @classmethod
    def build(cls, dof_map: np.ndarray, ke_unit: np.ndarray, keep: np.ndarray):
        n = keep.size
        local = np.full(int(dof_map.max()) + 1, -1, dtype=np.int64)
        local[keep] = np.arange(n)
        ld = local[dof_map]
        kept = (ld[:, :, None] >= 0) & (ld[:, None, :] >= 0)
        row = np.broadcast_to(ld[:, :, None], kept.shape)[kept]
        col = np.broadcast_to(ld[:, None, :], kept.shape)[kept]
        # the distinct keys, sorted by column then row, are the block's CSC
        # pattern, which is also its CSR pattern since the block is symmetric
        # (a plain sort: np.unique's generic path takes several times longer)
        keys = np.sort(col * n + row)
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        graph = sp.csr_matrix((np.ones(keys.size), (keys % n).astype(np.int32), indptr),
                              shape=(n, n))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        i, j = pos[row], pos[col]
        upper = i <= j
        kd = int(np.max(j - i))
        elem = np.repeat(np.arange(dof_map.shape[0]), kept.sum(axis=(1, 2)))
        return cls(perm, kd, ((kd + i - j) + j * (kd + 1))[upper],
                   ke_unit[kept][upper], elem[upper], dof_map.shape[0])

    def assemble(self, coef: np.ndarray, name: str) -> BandedBlock:
        """Sum of coef[e] times the kept entries of element e's unit matrix."""
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (self.n_elements,):
            raise ValueError(f"{name} must be one value per element")
        if not np.all(np.isfinite(coef)):
            raise ValueError(f"{name} must be finite")
        if np.any(coef <= 0.0):
            raise ValueError(f"{name} must be strictly positive")
        n = self.perm.size
        data = np.bincount(self.slot, weights=self.ke * coef[self.elem],
                           minlength=(self.kd + 1) * n)
        # each column of the band is contiguous: Fortran order, as LAPACK reads it
        return BandedBlock(data.reshape(n, self.kd + 1).T, self.perm)


def assemble_diffusion(pattern: StiffnessPattern, conductivity: np.ndarray) -> BandedBlock:
    """P1 diffusion stiffness on the pattern, element-constant conductivity."""
    return pattern.assemble(conductivity, "conductivity")


def assemble_elasticity(pattern: StiffnessPattern, youngs: np.ndarray) -> BandedBlock:
    """Plane-stress stiffness on the pattern, element-constant Young's modulus."""
    return pattern.assemble(youngs, "youngs modulus")


def element_dofs(mesh: Mesh, ndof_per_node: int) -> np.ndarray:
    """(n_elem, 3*ndof) dof indices, interleaved per node."""
    if ndof_per_node == 1:
        return mesh.triangles
    tri = mesh.triangles
    dof = np.empty((mesh.n_elements, 3 * ndof_per_node), dtype=np.int64)
    for k in range(ndof_per_node):
        dof[:, k::ndof_per_node] = ndof_per_node * tri + k
    return dof


# ---------------------------------------------------------------------------
# Boundary conditions and linear solves
# ---------------------------------------------------------------------------

@dataclass
class BoundaryConditions:
    """Clamped dofs (held at zero) and nodal point loads, resolved on a mesh."""

    free: np.ndarray        # sorted ids of the dofs that are not clamped
    point_loads: list
    ndof_per_node: int
    ndof: int

    @classmethod
    def build(cls, mesh: Mesh, ndof_per_node: int, clamped, point_loads=None):
        """clamped names the boundary tags whose dofs are all held at zero.

        point_loads is a list of (node, local_dof, magnitude).
        """
        ndof = ndof_per_node * mesh.n_nodes
        is_fixed = np.zeros(ndof, dtype=bool)
        for tag in clamped:
            nodes = boundary_nodes(mesh, tag)
            if nodes.size == 0:
                raise ValueError(f"unknown boundary tag {tag!r}")
            for k in range(ndof_per_node):
                is_fixed[ndof_per_node * nodes + k] = True
        if not is_fixed.any():
            raise ValueError("at least one clamped dof is required")
        return cls(np.flatnonzero(~is_fixed), list(point_loads or []),
                   ndof_per_node, ndof)

    def load_vector(self) -> np.ndarray:
        f = np.zeros(self.ndof)
        for node, dof, mag in self.point_loads:
            f[self.ndof_per_node * int(node) + int(dof)] += mag
        return f


@dataclass
class SystemSolution:
    """Full nodal field, extracted outputs and the retained factorization."""

    nodal_field: np.ndarray
    outputs: np.ndarray
    K_factorization: object
    free: np.ndarray
    residual_rel: float

    def adjoint(self, rhs_full: np.ndarray) -> np.ndarray:
        """Solve K^T lam = rhs for each column; clamped dofs of lam are zero.

        The operator is symmetric so the forward factorization is reused.
        """
        rhs = np.asarray(rhs_full, dtype=float)
        single = rhs.ndim == 1
        if single:
            rhs = rhs[:, None]
        lam = np.zeros_like(rhs)
        lam[self.free] = self.K_factorization(rhs[self.free])
        return lam[:, 0] if single else lam


def solve_forward(Kff: BandedBlock, bc: BoundaryConditions, load: np.ndarray,
                  observation: sp.spmatrix = None) -> SystemSolution:
    """Banded Cholesky solve on the free-free block; clamped dofs stay zero.

    Kff is the operator restricted to bc.free (see StiffnessPattern).
    outputs = observation.T @ nodal_field when an observation operator is
    given (columns are output functionals), else the full field.
    """
    free = bc.free
    if Kff.shape != (free.size, free.size):
        raise ValueError(f"free-free block must be {(free.size, free.size)}, got {Kff.shape}")
    u = np.zeros(bc.ndof)
    rhs = np.asarray(load, dtype=float)[free]
    cb, info = lapack.dpbtrf(Kff.ab)
    if info != 0:
        raise SingularSystemError(_estimate_nullity(Kff))
    # the squared diagonal of U are the pivots of the symmetric elimination;
    # near-void phases legitimately spread them over ~12 decades, so the
    # pivot screen is loose and the solve residual is the authoritative test
    piv = cb[-1] ** 2
    if piv.size and piv.min() <= 1e-15 * max(piv.max(), 1e-300):
        raise SingularSystemError(_estimate_nullity(Kff))
    factor = BandedCholesky(cb, Kff.perm)
    uf = factor.solve(rhs)
    if not np.all(np.isfinite(uf)):
        raise SingularSystemError(_estimate_nullity(Kff))
    u[free] = uf

    res = np.linalg.norm(Kff @ uf - rhs)
    den = np.linalg.norm(rhs)
    residual_rel = res / den if den > 0 else res
    # saturated void/material contrasts degrade accuracy to ~1e-5 while
    # remaining meaningfully solvable; only disaster-level residuals are
    # treated as singular
    if residual_rel > 1e-3:
        raise SingularSystemError(_estimate_nullity(Kff))
    outputs = observation.T @ u if observation is not None else u.copy()
    return SystemSolution(u, np.asarray(outputs), factor.solve, free, residual_rel)


def _estimate_nullity(Kff, tol=1e-10):
    if Kff.shape[0] > 2500:
        return -1
    s = np.linalg.svd(Kff.toarray(), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s <= tol * s[0]))


# ---------------------------------------------------------------------------
# Adjoint machinery
# ---------------------------------------------------------------------------

def element_bilinear(ke_unit: np.ndarray, dof_map: np.ndarray, lam: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """Per-element lam^T K_e u for every adjoint column.

    lam has shape (ndof, n_out); returns (n_out, n_elem). Clamped dofs must
    already be zeroed in lam, which element gathering handles implicitly.
    """
    w = np.einsum("eab,eb->ea", ke_unit, u[dof_map])
    return np.einsum("ean,ea->ne", lam[dof_map], w)


def grid_interpolation_weights(nx, ny, Lx, Ly, points):
    """P1 interpolation (nodes, weights) for points inside a regular mesh.

    Returns (idx, w) of shape (m, 3): value(p) = sum_k w[p,k] * field[idx[p,k]].
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    hx, hy = Lx / nx, Ly / ny
    i = np.clip(np.floor(pts[:, 0] / hx).astype(int), 0, nx - 1)
    j = np.clip(np.floor(pts[:, 1] / hy).astype(int), 0, ny - 1)
    xi = pts[:, 0] / hx - i
    eta = pts[:, 1] / hy - j
    a = j * (nx + 1) + i
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    idx = np.empty((len(pts), 3), dtype=np.int64)
    w = np.empty((len(pts), 3))
    in_lower = xi >= eta
    idx[in_lower] = np.column_stack([a, b, c])[in_lower]
    w[in_lower] = np.column_stack([1.0 - xi, xi - eta, eta])[in_lower]
    up = ~in_lower
    idx[up] = np.column_stack([a, c, d])[up]
    w[up] = np.column_stack([1.0 - eta, xi, eta - xi])[up]
    return idx, w


def edge_mass_loads(mesh: Mesh, tag: str, nodal_density: dict) -> np.ndarray:
    """Consistent nodal loads for a piecewise-linear flux density on one edge.

    nodal_density maps node id -> density value; nodes absent from the map
    contribute zero.
    """
    f = np.zeros(mesh.n_nodes)
    for n1, n2 in boundary_edge_list(mesh, tag):
        h = np.linalg.norm(mesh.nodes[n2] - mesh.nodes[n1])
        q1 = nodal_density.get(n1, 0.0)
        q2 = nodal_density.get(n2, 0.0)
        f[n1] += h * (2.0 * q1 + q2) / 6.0
        f[n2] += h * (q1 + 2.0 * q2) / 6.0
    return f


# ---------------------------------------------------------------------------
# Plain-text export
# ---------------------------------------------------------------------------

def export_mesh(mesh: Mesh, path):
    """Node lines "id x y", triangle lines "id n1 n2 n3", edge lines "tag n1 n2"."""
    with open(path, "w") as fh:
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
        for e, (n1, n2, n3) in enumerate(mesh.triangles):
            fh.write(f"{e} {n1} {n2} {n3}\n")
        for tag, n1, n2 in mesh.boundary_edges:
            fh.write(f"{tag} {n1} {n2}\n")


def export_element_field(values, path):
    with open(path, "w") as fh:
        fh.write("element_id,value\n")
        fh.writelines("%d,%.17g\n" % row for row in enumerate(np.asarray(values).tolist()))
