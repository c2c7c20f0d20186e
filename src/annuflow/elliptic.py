"""Linear elliptic solves on the annulus with circulation boundary data.

Two boundary-value problems appear throughout:

* the Poisson problem: Delta(psi) = omega, psi = 0 on the outer circle,
  psi constant (unknown) on the inner circle, prescribed circulation.
  Solved by splitting psi = u + c*g with Delta(u) = omega, u = 0 on the
  whole boundary, Delta(g) = 0, g = 1 inside / 0 outside, and c fixed by
  the circulation constraint (linear in c).

* the bordered family E(c)phi = Delta(phi) + c*phi = k with the same
  homogeneous conditions and zero circulation.  The unknown inner trace
  is an explicit scalar unknown and the circulation functional is an
  explicit constraint row, so the system is square and solved by direct
  sparse LU.

Both matrices share one vectorized builder of the interior 5-point polar
Laplacian.  Each factor has one owner: the grid owns its Dirichlet factor
(``AnnulusGrid.dirichlet_lu``, built on first use), and a steady state
owns its linearization Delta - F'(psi) (``SteadyState.linearization``).
Nothing is cached at module level, so a factor is freed with its owner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NearSingularOperatorError, SingularSystemError
from .grid import AnnulusGrid, Field2D, circulation_row

_ND_THRESHOLD = 1e-6


def _interior_laplacian(grid: AnnulusGrid, c=0.0):
    """(rows, cols, vals) triples of the 5-point polar Laplacian plus c on
    the interior rows (c: scalar or interior values, shape (Nr-2, Ns));
    the angular neighbours wrap around theta."""
    Nr, Ns = grid.Nr, grid.Ns
    j = np.arange(1, Nr - 1)[:, None]
    k = np.arange(Ns)
    row = j * Ns + k
    r = grid.r[1:-1, None]
    c_rr = 1.0 / grid.hr**2
    c_r = 1.0 / (2 * grid.hr * r)
    c_tt = 1.0 / (grid.htheta**2 * r**2)
    return [(row, row + Ns, c_rr + c_r), (row, row - Ns, c_rr - c_r),
            (row, j * Ns + (k + 1) % Ns, c_tt), (row, j * Ns + (k - 1) % Ns, c_tt),
            (row, row, -2 * c_rr - 2 * c_tt + c)]


def _csc(entries, n):
    """n x n CSC matrix from (rows, cols, vals) triples of broadcastable
    shapes."""
    rows, cols, vals = (np.concatenate([a.ravel() for a in part]) for part in
                        zip(*(np.broadcast_arrays(*e) for e in entries)))
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))


def dirichlet_factor(grid: AnnulusGrid):
    """Sparse LU of the Laplacian with identity rows on both circles.
    Use ``grid.dirichlet_lu``, which builds it once per grid."""
    n = grid.Nr * grid.Ns
    rings = np.r_[0:grid.Ns, n - grid.Ns:n]
    return spla.splu(_csc(_interior_laplacian(grid) + [(rings, rings, 1.0)], n))


def _dirichlet_solve(grid: AnnulusGrid, rhs_interior, inner_value):
    """Solution with the given interior right-hand side, the constant
    inner_value on the inner circle and zero on the outer one."""
    rhs = rhs_interior.copy()
    rhs[0, :] = inner_value
    rhs[-1, :] = 0.0
    return grid.field(grid.dirichlet_lu.solve(rhs.ravel()).reshape(grid.Nr, grid.Ns))


def solve_poisson(omega: Field2D, gamma: float):
    """Stream function of a vorticity field with prescribed circulation.

    Returns (psi, inner_value); the discrete circulation of psi equals
    gamma to rounding because c solves the constraint exactly.
    """
    grid = omega.grid
    u = _dirichlet_solve(grid, omega.values, 0.0)
    gblend = _dirichlet_solve(grid, np.zeros_like(omega.values), 1.0)
    crow = circulation_row(grid)
    circ_u = float(np.sum(crow * u.values))
    circ_g = float(np.sum(crow * gblend.values))
    if abs(circ_g) < 1e-12:
        raise SingularSystemError("harmonic blend has zero circulation")
    c = (gamma - circ_u) / circ_g
    psi = grid.field(u.values + c * gblend.values)
    return psi, c


@dataclass(frozen=True, eq=False)
class BorderedSystem:
    """Discrete Delta + c with the zero-trace/zero-circulation conditions,
    bordered by the unknown inner-boundary constant."""

    grid: AnnulusGrid
    matrix: object            # csc
    lu: object

    @property
    def n_unknowns(self):
        return self.grid.Nr * self.grid.Ns + 1


def _bordered_matrix(grid: AnnulusGrid, c: Field2D):
    """Rows: Laplacian + c inside, identity on the outer circle, inner
    trace minus the scalar unknown (last column), circulation last."""
    Nr, Ns = grid.Nr, grid.Ns
    n = Nr * Ns
    outer = np.arange(n - Ns, n)
    inner = np.arange(Ns)
    crow = circulation_row(grid).ravel()
    ccols = np.flatnonzero(crow)
    return _csc(_interior_laplacian(grid, c.values[1:-1])
                + [(outer, outer, 1.0),
                   (inner, inner, 1.0),
                   (inner, n, -1.0),
                   (n, ccols, crow[ccols])], n + 1)


def bordered_system(grid: AnnulusGrid, c: Field2D) -> BorderedSystem:
    A = _bordered_matrix(grid, c)
    return BorderedSystem(grid, A, spla.splu(A))


def bordered_solve(system: BorderedSystem, k, circulation_value=0.0):
    """Solve the bordered system; returns (phi, inner_value).

    k is a Field2D, or an array of shape (Nr, Ns, m) holding m right-hand
    sides, which are solved at once; phi then has that shape and
    inner_value has shape (m,)."""
    grid = system.grid
    values = k.values if isinstance(k, Field2D) else np.asarray(k)
    stack = values.shape[2:]
    rhs = np.zeros((system.n_unknowns,) + stack)
    rhs[:-1] = values.reshape((-1,) + stack)
    rhs[: grid.Ns] = 0.0                       # inner tie rows
    rhs[(grid.Nr - 1) * grid.Ns: grid.Nr * grid.Ns] = 0.0
    rhs[-1] = circulation_value
    sol = system.lu.solve(rhs)
    phi = sol[:-1].reshape((grid.Nr, grid.Ns) + stack)
    if isinstance(k, Field2D):
        return grid.field(phi), float(sol[-1])
    return phi, sol[-1]


def solve_ve(c: Field2D, k: Field2D) -> Field2D:
    """Inverse of the family Delta + c under the zero-circulation conditions.

    Raises near-singular-operator (with the sigma_min estimate) when the
    bordered matrix is numerically singular, which is the discrete signal
    that c left the invertible neighborhood.
    """
    system = bordered_system(c.grid, c)
    try:
        phi, _ = bordered_solve(system, k)
    except RuntimeError as exc:  # splu singular
        raise NearSingularOperatorError(str(exc), sigma_min=0.0) from exc
    rhs_norm = max(np.abs(k.values).max(), 1e-300)
    if not np.all(np.isfinite(phi.values)) or np.abs(phi.values).max() > 1e14 * rhs_norm:
        est = sigma_min_estimate(system)
        raise NearSingularOperatorError("bordered solve blew up", sigma_min=est)
    return phi


def sigma_min_estimate(system: BorderedSystem, iterations=20, tol=1e-8):
    """Smallest singular value by inverse power iteration on A^T A."""
    lu = system.lu
    n = system.n_unknowns
    rng = np.random.default_rng(7)
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)
    prev = np.inf
    sigma = np.inf
    for _ in range(iterations):
        y = lu.solve(x)                 # A^{-1} x
        z = lu.solve(y, trans="T")      # A^{-T} A^{-1} x
        nz = np.linalg.norm(z)
        if nz == 0 or not np.isfinite(nz):
            return 0.0
        sigma = 1.0 / np.sqrt(nz)
        x = z / nz
        if abs(sigma - prev) < tol * max(sigma, 1e-300):
            break
        prev = sigma
    return float(sigma)


def operator_norm_estimate(system: BorderedSystem):
    return float(spla.onenormest(system.matrix))


@dataclass(frozen=True)
class NdReport:
    sigma_min: float
    op_norm: float
    threshold: float
    nondegenerate: bool


def check_nd1(state, threshold=_ND_THRESHOLD, dense=False) -> NdReport:
    """Invertibility margin of Delta - F'(psi) with the zero-circulation
    conditions at a steady state: smallest singular value of the bordered
    matrix, relative to its operator norm."""
    system = state.linearization
    if dense:
        sv = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
        sigma, opnorm = float(sv[-1]), float(sv[0])
    else:
        sigma = sigma_min_estimate(system)
        opnorm = operator_norm_estimate(system)
    return NdReport(sigma, opnorm, threshold, sigma > threshold * opnorm)


def principal_eigenvalue(grid: AnnulusGrid):
    """Smallest lam > 0 making Delta + lam singular under the
    zero-circulation conditions.

    With A the bordered matrix of Delta and E the identity on the interior
    rows, A x = -lam E x; ARPACK finds the largest eigenvalues
    nu = 1/lam of x -> A^{-1}(-E x) from the sparse factor of A."""
    system = bordered_system(grid, grid.constant(0.0))
    n = system.n_unknowns
    interior = np.zeros(n, dtype=bool)
    interior[grid.Ns: (grid.Nr - 1) * grid.Ns] = True
    op = spla.LinearOperator((n, n), matvec=lambda x: system.lu.solve(
        np.where(interior, -np.ravel(x), 0.0)), dtype=float)
    v0 = np.random.default_rng(7).normal(size=n)
    nu = spla.eigs(op, k=6, which="LM", v0=v0, return_eigenvectors=False)
    real = nu[np.abs(nu.imag) < 1e-8 * np.abs(nu)].real
    pos = real[real > 0]
    if pos.size == 0:
        raise SingularSystemError("no positive eigenvalue found")
    return float(1.0 / pos.max())
